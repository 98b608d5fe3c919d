//===--- SequentialCompiler.cpp - Baseline one-pass compiler ---------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "driver/SequentialCompiler.h"

#include "cache/CachePlanner.h"
#include "cache/CompilationCache.h"
#include "codegen/CodeGenerator.h"
#include "codegen/Merger.h"
#include "lex/Lexer.h"
#include "opt/PassManager.h"
#include "parse/Parser.h"
#include "sched/ExecContext.h"
#include "sema/DeclAnalyzer.h"

using namespace m2c;
using namespace m2c::ast;
using namespace m2c::driver;
using namespace m2c::sema;
using namespace m2c::symtab;

namespace {

/// Recursive state for one sequential compilation.
struct SeqState {
  Compilation &Comp;
  codegen::Merger &Merger;
  const opt::PassManager *Passes = nullptr;
  StatisticSet *OptStats = nullptr;
  std::vector<std::unique_ptr<Scope>> OwnedScopes;
  std::vector<std::unique_ptr<TokenBlockQueue>> Queues;
  std::vector<std::unique_ptr<ast::ASTArena>> Arenas;

  /// Lexes one file into a fresh finished queue; null if the file is
  /// missing.
  TokenBlockQueue *lexFile(const std::string &FileName) {
    const SourceBuffer *Buf = Comp.Files.lookup(FileName);
    if (!Buf)
      return nullptr;
    Queues.push_back(
        std::make_unique<TokenBlockQueue>(FileName, &Comp.TokenBlocks));
    Lexer Lex(*Buf, Comp.Interner, Comp.Diags);
    Lex.lexAll(*Queues.back());
    return Queues.back().get();
  }

  /// Compiles one definition module inline (the registry starter).
  void compileDefModule(Symbol Name, Scope &ModScope) {
    std::string FileName = VirtualFileSystem::defFileName(
        Comp.Interner.spelling(Name));
    TokenBlockQueue *Q = lexFile(FileName);
    if (!Q) {
      Comp.Diags.error(SourceLocation(),
                       "cannot find interface file '" + FileName + "'");
      ModScope.markComplete();
      return;
    }
    Arenas.push_back(std::make_unique<ast::ASTArena>());
    Parser P(TokenBlockQueue::Reader(*Q), *Arenas.back(), Comp.Diags,
             ParserMode::Sequential);
    DefinitionModule Def = P.parseDefinitionModule();
    DeclAnalyzer DA(Comp, ModScope, Name);
    DA.analyzeImports(Def.Imports);
    DA.analyzeDecls(Def.Decls);
    DA.finish();
  }

  /// Analyzes one scope's declarations, then recurses into its procedure
  /// bodies (declarations fully analyzed before any body is, so forward
  /// procedure references behave the same as in the concurrent
  /// compiler).
  void processScope(Scope &Self, Symbol ModName,
                    const std::vector<Decl *> &Decls,
                    const std::vector<ImportClause> *Imports,
                    Scope *OwnInterface = nullptr) {
    struct ChildInfo {
      Scope *ScopePtr = nullptr;
      const SymbolEntry *Entry = nullptr;
    };
    std::vector<ChildInfo> Children;

    DeclAnalyzer DA(Comp, Self, ModName);
    DA.setOwnInterface(OwnInterface);
    ProcStreamHooks Hooks;
    Hooks.childScope = [&](size_t, Symbol Name) -> Scope * {
      OwnedScopes.push_back(std::make_unique<Scope>(
          std::string(Comp.Interner.spelling(Name)), ScopeKind::Procedure,
          &Self, &Comp.Builtins));
      Children.push_back(ChildInfo{OwnedScopes.back().get(), nullptr});
      return OwnedScopes.back().get();
    };
    Hooks.headingDone = [&](size_t Index, Symbol,
                            const SymbolEntry &Entry) {
      Children[Index].Entry = &Entry;
    };
    DA.setProcStreamHooks(std::move(Hooks));
    if (Imports)
      DA.analyzeImports(*Imports);
    DA.analyzeDecls(Decls);
    DA.finish();

    // Bodies after the scope is complete, in declaration order.
    size_t Index = 0;
    for (const Decl *D : Decls) {
      if (D->kind() != DeclKind::Proc && D->kind() != DeclKind::ProcHeading)
        continue;
      size_t MyIndex = Index++;
      if (D->kind() != DeclKind::Proc)
        continue;
      const auto *Proc = static_cast<const ProcDecl *>(D);
      ChildInfo &Child = Children[MyIndex];
      if (!Child.Entry)
        continue; // Redeclaration error already reported.
      if (Comp.Options.Sharing == HeadingSharing::Reprocess) {
        DeclAnalyzer ChildDA(Comp, *Child.ScopePtr, ModName);
        ChildDA.analyzeHeadingInChild(Proc->heading());
      }
      processScope(*Child.ScopePtr, ModName, Proc->decls(), nullptr);
      codegen::CodeGenerator CG(Comp, *Child.ScopePtr, ModName, Passes,
                                OptStats);
      std::string Qual =
          std::string(Comp.Interner.spelling(ModName)) + "." +
          codegen::moduleRelativeName(*Child.Entry, Comp.Interner);
      Merger.addUnit(CG.generateProcedure(
          *Child.Entry, Proc->body(), std::move(Qual),
          codegen::procedureLevel(*Child.ScopePtr), /*Weight=*/0));
    }
  }
};

} // namespace

CompileResult SequentialCompiler::compile(std::string_view ModuleName) {
  CompileResult Result;
  auto Comp = std::make_shared<Compilation>(
      Files, Interner,
      CompilationOptions{Options.Strategy, Options.Sharing});
  Result.Compilation = Comp;

  // The run's pass pipeline and its opt.* counters.
  const opt::PassManager Passes = opt::PassManager::forLevel(Options.Level);
  StatisticSet OptStats;

  // Cache prepass (module granularity: the one-pass compiler has no
  // streams to skip individually, but an unchanged module still replays
  // its whole image without compiling).
  cache::CachePlan Plan;
  if (Options.Cache) {
    cache::CachePlanner Planner(
        Files, Interner, *Options.Cache,
        cache::CacheFingerprint{Options.Strategy, Options.Sharing,
                                Passes.configString(), "seq"},
        Options.Cost);
    Plan = Planner.probeModule(ModuleName);
    if (Plan.ModuleHit) {
      Result.Image = std::move(Plan.Module->Image);
      Result.Success = true;
      Result.StreamCount = static_cast<size_t>(Plan.Module->StreamCount);
      Result.ElapsedUnits = Plan.ProbeUnits;
      Result.SimSeconds = static_cast<double>(Result.ElapsedUnits) /
                          static_cast<double>(Options.Cost.UnitsPerSecond);
      Result.CacheStats = Options.Cache->stats().snapshot();
      return Result;
    }
  }

  sched::SequentialContext Ctx(Options.Cost);
  sched::ScopedContext Installed(Ctx);

  Symbol ModSym = Interner.intern(ModuleName);
  codegen::Merger Merger(ModSym);
  SeqState State{*Comp, Merger, Passes.empty() ? nullptr : &Passes,
                 &OptStats,     {},
                 {},            {}};

  Comp->Modules.setStarter([&State](Symbol Name, Scope &ModScope) {
    State.compileDefModule(Name, ModScope);
  });

  std::string ModFile = VirtualFileSystem::modFileName(ModuleName);
  TokenBlockQueue *Q = State.lexFile(ModFile);
  if (!Q) {
    Comp->Diags.error(SourceLocation(),
                      "cannot find module file '" + ModFile + "'");
    Result.DiagnosticText = Comp->Diags.render(&Files);
    return Result;
  }

  State.Arenas.push_back(std::make_unique<ast::ASTArena>());
  Parser P(TokenBlockQueue::Reader(*Q), *State.Arenas.back(), Comp->Diags,
           ParserMode::Sequential);
  ImplementationModule Mod = P.parseImplementationModule();
  if (Mod.Name != ModSym && !Mod.Name.isEmpty())
    Comp->Diags.warning(Mod.Loc,
                        "module name does not match its file name");

  // The module's own interface (M.def), when present, is the parent
  // scope of the module body: its declarations are visible throughout
  // M.mod (paper section 3).
  Scope *OwnDef = nullptr;
  if (Files.exists(VirtualFileSystem::defFileName(ModuleName)))
    OwnDef = &Comp->Modules.getOrCreate(ModSym, ModuleName);
  Scope ModuleScope(std::string(ModuleName), ScopeKind::Module, OwnDef,
                    &Comp->Builtins);
  State.processScope(ModuleScope, ModSym, Mod.Decls, &Mod.Imports, OwnDef);

  Merger.setGlobalsFrom(ModuleScope, OwnDef);
  std::vector<Symbol> Direct;
  for (const ImportClause &Clause : Mod.Imports) {
    if (!Clause.FromModule.isEmpty())
      Direct.push_back(Clause.FromModule);
    else
      Direct.insert(Direct.end(), Clause.Names.begin(), Clause.Names.end());
  }
  Merger.setImports(std::move(Direct));

  codegen::CodeGenerator CG(*Comp, ModuleScope, ModSym, State.Passes,
                            State.OptStats);
  Merger.addUnit(CG.generateModuleBody(
      Mod.Body, static_cast<int64_t>(P.tokensConsumed())));

  Result.Image = Merger.finalize();
  Result.Success = !Comp->Diags.hasErrors();
  Result.DiagnosticText = Comp->Diags.render(&Files);
  Result.StreamCount = 1 + Comp->Modules.size();

  // Only fully clean compiles become cache entries (count() includes
  // warnings), so a replayed entry never owes anyone a diagnostic.  The
  // store charges into the same context as the compile, so its cost is
  // part of ElapsedUnits.
  if (Options.Cache && Plan.Valid && Comp->Diags.count() == 0)
    Options.Cache->storeModule(Plan.ModuleKey, Plan.ModTextHash, Plan.Deps,
                               Result.Image,
                               static_cast<uint64_t>(Result.StreamCount),
                               Interner);

  Result.ElapsedUnits = Ctx.elapsedUnits() + Plan.ProbeUnits;
  Result.SimSeconds = static_cast<double>(Result.ElapsedUnits) /
                      static_cast<double>(Options.Cost.UnitsPerSecond);
  if (Options.Cache)
    Result.CacheStats = Options.Cache->stats().snapshot();
  Result.OptStats = OptStats.snapshot();
  return Result;
}
