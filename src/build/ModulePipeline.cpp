//===--- ModulePipeline.cpp - One module's concurrent task graph ----------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "build/ModulePipeline.h"

#include "codegen/CodeGenerator.h"
#include "lex/Lexer.h"
#include "parse/Parser.h"
#include "sema/DeclAnalyzer.h"
#include "split/Importer.h"
#include "split/Splitter.h"

#include <cassert>

using namespace m2c;
using namespace m2c::ast;
using namespace m2c::build;
using namespace m2c::sched;
using namespace m2c::sema;
using namespace m2c::symtab;

ModulePipeline::ProcStream::ProcStream(Symbol Name, std::string Qual,
                                       TokenBlockPool &Pool)
    : Name(Name), QualifiedName(std::move(Qual)),
      Queue("proc." + QualifiedName, &Pool),
      HeadingDone(
          makeEvent("heading." + QualifiedName, EventKind::Avoided)) {}

ModulePipeline::ModulePipeline(const driver::CompilerOptions &Options,
                               Compilation &Comp, std::string_view ModuleName,
                               TaskSpawner &Spawner,
                               const opt::PassManager *Passes,
                               StatisticSet *OptStats,
                               DiagnosticsEngine *RequestDiags)
    : Options(Options), Comp(Comp), Spawner(Spawner), Passes(Passes),
      OptStats(OptStats),
      SessionDiags(RequestDiags ? *RequestDiags : Comp.Diags),
      ModName(Comp.Interner.intern(ModuleName)), Merge(ModName),
      RawQueue(std::string(ModuleName) + ".raw", &Comp.TokenBlocks),
      MainQueue(std::string(ModuleName) + ".main", &Comp.TokenBlocks) {}

ModulePipeline::~ModulePipeline() = default;

//===--- Stream creation ---------------------------------------------------===//

void ModulePipeline::dropPlan(const std::string &QualifiedName) {
  // A cache-probe stream tree that diverges from the streams the real
  // Splitter creates means the plan cannot be trusted (the usual cause is
  // a source mutation between the prepass and the run).  Finish this
  // compile without the cache rather than misattribute plan entries; the
  // note also blocks the store phase's zero-diagnostic gate.
  if (!PlanDropped.exchange(true, std::memory_order_acq_rel))
    SessionDiags.report(DiagSeverity::Note, SourceLocation(),
                        "compilation cache plan diverged from the source at "
                        "stream '" +
                            QualifiedName +
                            "'; finishing this compile without the cache");
}

ModulePipeline::ProcStream *ModulePipeline::createProcStream(ProcStream *Parent,
                                                             Symbol Name) {
  std::string ParentQual = Parent
                               ? Parent->QualifiedName
                               : std::string(Comp.Interner.spelling(ModName));
  auto Owned = std::make_unique<ProcStream>(
      Name, ParentQual + "." + std::string(Comp.Interner.spelling(Name)),
      Comp.TokenBlocks);
  ProcStream *S = Owned.get();
  S->Parent = Parent;
  S->ParentScope = Parent ? Parent->ProcScope.get() : ModuleScopePtr.get();
  S->ProcScope = std::make_unique<Scope>(
      std::string(Comp.Interner.spelling(Name)), ScopeKind::Procedure,
      S->ParentScope, &Comp.Builtins);
  {
    std::lock_guard<std::mutex> Lock(StreamsMutex);
    ProcStreams.push_back(std::move(Owned));
  }
  // Register with the parent in splitter-discovery order, which matches
  // the order the parent's declaration analyzer sees the headings.
  if (Parent) {
    std::lock_guard<std::mutex> Lock(Parent->ChildrenMutex);
    Parent->Children.push_back(S);
  } else {
    std::lock_guard<std::mutex> Lock(MainChildrenMutex);
    MainChildren.push_back(S);
  }

  // Align with the cache plan: probe streams were discovered by the same
  // Splitter over the same tokens, so creation order and names must
  // match; a plan entry marks this stream's cached state.  A mismatch is
  // detected at runtime — in every build type — and abandons the plan for
  // this and all later streams instead of misattributing entries.
  const cache::StreamPlan *PlanEntry = nullptr;
  if (Plan && !PlanDropped.load(std::memory_order_acquire)) {
    size_t Idx = NextPlanIndex.fetch_add(1, std::memory_order_relaxed);
    if (Idx < Plan->Streams.size() &&
        Plan->Streams[Idx].QualifiedName == S->QualifiedName)
      PlanEntry = &Plan->Streams[Idx];
    else
      dropPlan(S->QualifiedName);
  }
  if (PlanEntry && PlanEntry->Hit) {
    // Replay the cached unit now; this stream's code generation (and,
    // when the whole subtree hit, its parse/sema too) is skipped.
    S->SkipCodegen = true;
    Merge.addUnit(*PlanEntry->Cached);
  }

  // The resolver of the heading event is the parent's parser task.
  Task *ParentParser =
      Parent ? Parent->ParserTask.get() : MainParserTask.get();
  if (ParentParser)
    S->HeadingDone->setResolver(ParentParser);

  if (PlanEntry && !PlanEntry->RunFrontEnd) {
    // The whole subtree is cached: its unit (and every descendant's) was
    // injected into the Merger, and no deeper stream re-analyzes, so this
    // scope never needs populating.  The splitter still diverts tokens to
    // S->Queue; they are simply never consumed.
    return S;
  }
  if (!ParentParser) {
    // The parent skipped its front end (its subtree was fully cached) but
    // the plan diverged at this descendant: there is no parser to signal
    // the heading event or populate the parent scope, so this stream can
    // be neither replayed nor compiled.  Report it instead of wiring a
    // task that would deadlock on an event nobody signals.
    SessionDiags.error(SourceLocation(),
                       "cannot compile procedure '" + S->QualifiedName +
                           "': the compilation cache diverged under a cached "
                           "enclosing procedure; clear the cache and "
                           "recompile");
    return S;
  }

  S->ParserTask =
      makeTask("parse." + S->QualifiedName, TaskClass::ProcParserDecl,
               [this, S] { procParserTask(*S); });
  S->ParserTask->addPrerequisite(S->HeadingDone);
  if (avoidance())
    S->ParserTask->addPrerequisite(S->ParentScope->completionEvent());
  S->ProcScope->completionEvent()->setResolver(S->ParserTask.get());
  Spawner.spawn(S->ParserTask);
  return S;
}

//===--- Task bodies -------------------------------------------------------===//

/// Installs the parent-side heading hooks for a declaration analyzer
/// whose children were registered in \p Children order.
void ModulePipeline::installHeadingHooks(DeclAnalyzer &DA,
                                         ProcStream *Stream) {
  ProcStreamHooks Hooks;
  Hooks.childScope = [this, Stream](size_t Index, Symbol) -> Scope * {
    ProcStream *Child = childAt(Stream, Index);
    return Child ? Child->ProcScope.get() : nullptr;
  };
  Hooks.headingDone = [this, Stream](size_t Index, Symbol,
                                     const SymbolEntry &Entry) {
    ProcStream *Child = childAt(Stream, Index);
    if (!Child)
      return;
    Child->Entry.store(&Entry, std::memory_order_release);
    ctx().signal(*Child->HeadingDone);
  };
  DA.setProcStreamHooks(std::move(Hooks));
}

/// On malformed input the parent's error recovery can skip a heading the
/// splitter already created a stream for; its avoided event would then
/// never fire and the child task would be held forever.  Parser tasks
/// call this on exit: by then the splitter has finished this stream, so
/// the child list is final and any unsignaled heading event is an orphan
/// (its Entry stays null; code generation skips it).
void ModulePipeline::releaseOrphanHeadings(ProcStream *Stream) {
  std::vector<ProcStream *> Children;
  if (Stream) {
    std::lock_guard<std::mutex> Lock(Stream->ChildrenMutex);
    Children = Stream->Children;
  } else {
    std::lock_guard<std::mutex> Lock(MainChildrenMutex);
    Children = MainChildren;
  }
  for (ProcStream *Child : Children)
    if (!Child->HeadingDone->isSignaled())
      ctx().signal(*Child->HeadingDone);
}

ModulePipeline::ProcStream *ModulePipeline::childAt(ProcStream *Stream,
                                                    size_t Index) {
  if (Stream) {
    std::lock_guard<std::mutex> Lock(Stream->ChildrenMutex);
    return Index < Stream->Children.size() ? Stream->Children[Index]
                                           : nullptr;
  }
  std::lock_guard<std::mutex> Lock(MainChildrenMutex);
  return Index < MainChildren.size() ? MainChildren[Index] : nullptr;
}

void ModulePipeline::mainParserTask() {
  Parser P(TokenBlockQueue::Reader(MainQueue), MainArena, Comp.Diags,
           ParserMode::SplitStream);
  Parser::ModuleIntro Intro = P.parseModuleIntro();
  if (Intro.Name != ModName && !Intro.Name.isEmpty())
    Comp.Diags.warning(Intro.Loc,
                       "module name does not match its file name");
  DeclAnalyzer DA(Comp, *ModuleScopePtr, ModName);
  DA.setOwnInterface(OwnDefScope);
  installHeadingHooks(DA, nullptr);
  DA.analyzeImports(Intro.Imports);
  // Interleave: procedure headings are processed — and their streams
  // released — as soon as each declaration's text has been parsed.
  P.setDeclSink([&DA](Decl *D) { DA.analyzeDecl(D); });
  P.parseTopDecls(/*HeadingsOnly=*/false);
  DA.finish(); // Module symbol table complete before the body parse.
  if (OwnDefScope && !OwnDefScope->isComplete())
    ctx().wait(*OwnDefScope->completionEvent());
  Merge.setGlobalsFrom(*ModuleScopePtr, OwnDefScope);

  StmtList Body = P.parseImplModuleBody();
  // Drain to end of stream first: only once the Splitter has finished
  // this stream is the child list final (malformed input can end the
  // module's syntax before the raw token stream ends).
  P.drainToEof();
  releaseOrphanHeadings(nullptr);
  bool SkipMainCodegen =
      Plan && !Plan->Streams.empty() && Plan->Streams[0].Hit;
  if (SkipMainCodegen)
    return; // Cached module-body unit already handed to the Merger.
  int64_t Weight = static_cast<int64_t>(P.tokensConsumed());
  spawnCodeGen(/*Stream=*/nullptr, std::move(Body), Weight);
}

void ModulePipeline::procParserTask(ProcStream &S) {
  Parser P(TokenBlockQueue::Reader(S.Queue), S.Arena, Comp.Diags,
           ParserMode::SplitStream);
  // The heading tokens are re-read syntactically; under CopyEntries the
  // parameter entries were already copied in by the parent (section 2.4
  // alternative 1), under Reprocess the child re-analyzes them here
  // (alternative 3) — in either case the parameters must be in the
  // scope before any local declaration is analyzed, so slot numbering
  // matches the sequential compiler exactly.
  ast::ProcHeading Heading = P.parseProcStreamHeading();
  DeclAnalyzer DA(Comp, *S.ProcScope, ModName);
  if (Comp.Options.Sharing == HeadingSharing::Reprocess)
    DA.analyzeHeadingInChild(Heading);
  installHeadingHooks(DA, &S);
  P.setDeclSink([&DA](Decl *D) { DA.analyzeDecl(D); });
  P.parseTopDecls(/*HeadingsOnly=*/false);
  DA.finish(); // Procedure symbol table complete before the body parse.

  StmtList Body = P.parseProcBody();
  P.drainToEof();
  releaseOrphanHeadings(&S);
  if (S.SkipCodegen)
    return; // Cached unit already handed to the Merger.
  spawnCodeGen(&S, std::move(Body), S.Weight.load());
}

void ModulePipeline::spawnCodeGen(ProcStream *Stream, StmtList Body,
                                  int64_t Weight) {
  bool Long = Weight > Options.LongProcTokens;
  std::string Name =
      "codegen." + (Stream ? Stream->QualifiedName
                           : std::string(Comp.Interner.spelling(ModName)));
  // Task bodies must be copyable (std::function); share the parse tree.
  auto BodyPtr = std::make_shared<StmtList>(std::move(Body));
  auto Task = makeTask(
      std::move(Name),
      Long ? TaskClass::LongStmtCodeGen : TaskClass::ShortStmtCodeGen,
      [this, Stream, BodyPtr, Weight] {
        const StmtList &Body = *BodyPtr;
        if (!Stream) {
          codegen::CodeGenerator CG(Comp, *ModuleScopePtr, ModName,
                                    Passes, OptStats);
          Merge.addUnit(CG.generateModuleBody(Body, Weight));
          return;
        }
        const SymbolEntry *Entry =
            Stream->Entry.load(std::memory_order_acquire);
        if (!Entry)
          return; // Heading failed (redeclaration); error reported.
        codegen::CodeGenerator CG(Comp, *Stream->ProcScope, ModName,
                                  Passes, OptStats);
        Merge.addUnit(CG.generateProcedure(
            *Entry, Body,
            std::string(Comp.Interner.spelling(ModName)) + "." +
                codegen::moduleRelativeName(*Entry, Comp.Interner),
            codegen::procedureLevel(*Stream->ProcScope), Weight));
      });
  Task->setWeight(Weight);
  Spawner.spawn(std::move(Task));
}

//===--- Initial task wiring -----------------------------------------------===//

bool ModulePipeline::setup() {
  std::string ModFile =
      VirtualFileSystem::modFileName(Comp.Interner.spelling(ModName));
  const SourceBuffer *ModBuf = Comp.Files.lookup(ModFile);
  if (!ModBuf) {
    SessionDiags.error(SourceLocation(),
                       "cannot find module file '" + ModFile + "'");
    return false;
  }

  // "The compiler optimistically anticipates the existence of a file
  // M.def and tries to start processing this file as soon as possible"
  // (paper section 3).  Its declarations are visible throughout M.mod:
  // the module scope's parent is the interface scope.
  Scope *OwnDef = nullptr;
  if (Comp.Files.exists(
          VirtualFileSystem::defFileName(Comp.Interner.spelling(ModName))))
    OwnDef =
        &Comp.Modules.getOrCreate(ModName, Comp.Interner.spelling(ModName));
  ModuleScopePtr = std::make_unique<Scope>(
      std::string(Comp.Interner.spelling(ModName)), ScopeKind::Module,
      OwnDef, &Comp.Builtins);
  OwnDefScope = OwnDef;

  // The main stream's cached unit is replayed up front (index 0 of the
  // plan always names this module); the main parser then skips its code
  // generation.
  if (Plan && !Plan->Streams.empty() && Plan->Streams[0].Hit)
    Merge.addUnit(*Plan->Streams[0].Cached);

  MainParserTask = makeTask(
      "parse." + std::string(Comp.Interner.spelling(ModName)) + ".main",
      TaskClass::ModuleParserDecl, [this] { mainParserTask(); });
  ModuleScopePtr->completionEvent()->setResolver(MainParserTask.get());
  if (avoidance() && OwnDef)
    MainParserTask->addPrerequisite(OwnDef->completionEvent());

  Spawner.spawn(makeTask("lex." + ModFile, TaskClass::Lexor,
                         [this, ModBuf] {
                           Lexer Lex(*ModBuf, Comp.Interner, Comp.Diags);
                           Lex.lexAll(RawQueue);
                         }));

  Spawner.spawn(makeTask("split." + ModFile, TaskClass::Splitter, [this] {
    SplitterHooks Hooks;
    Hooks.beginProc = [this](StreamHandle Parent, Symbol Name) {
      return static_cast<StreamHandle>(
          createProcStream(static_cast<ProcStream *>(Parent), Name));
    };
    Hooks.queueOf = [this](StreamHandle Stream) -> TokenBlockQueue & {
      return Stream ? static_cast<ProcStream *>(Stream)->Queue : MainQueue;
    };
    Hooks.endProc = [](StreamHandle Stream, int64_t Tokens) {
      static_cast<ProcStream *>(Stream)->Weight.store(Tokens);
    };
    Splitter Split(TokenBlockQueue::Reader(RawQueue), std::move(Hooks));
    Split.run();
  }));

  Spawner.spawn(makeTask("import." + ModFile, TaskClass::Importer, [this] {
    Importer Imp(TokenBlockQueue::Reader(RawQueue), Comp.Modules,
                 Comp.Interner);
    Merge.setImports(Imp.run());
  }));
  Spawner.spawn(MainParserTask);
  return true;
}

size_t ModulePipeline::procStreamCount() {
  std::lock_guard<std::mutex> Lock(StreamsMutex);
  return ProcStreams.size();
}
