//===--- BuildSession.cpp - Whole-project concurrent builds ---------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "build/BuildSession.h"

#include "build/BuildGraph.h"
#include "build/InterfaceSet.h"
#include "build/ModulePipeline.h"
#include "build/TaskSpawner.h"
#include "cache/CachePlanner.h"
#include "cache/CompilationCache.h"
#include "opt/PassManager.h"
#include "sched/SimulatedExecutor.h"
#include "sched/ThreadedExecutor.h"
#include "sema/Compilation.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace m2c;
using namespace m2c::build;
using namespace m2c::driver;
using namespace m2c::sched;
using namespace m2c::sema;

const ModuleBuild *BuildResult::module(std::string_view Name) const {
  for (const ModuleBuild &M : Modules)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

namespace {
using Clock = std::chrono::steady_clock;

uint64_t wallSince(Clock::time_point From) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           From)
          .count());
}
/// Stores one finished compile back into the cache: every missed stream's
/// unit plus the whole-module entry.  Callers gate on zero diagnostics
/// (only fully clean compiles become entries) and on the plan not having
/// been dropped.  Charges CacheLookup work to the active context.
void storeCacheEntries(cache::CompilationCache &Cache,
                       const cache::CachePlan &Plan,
                       const codegen::ModuleImage &Image,
                       uint64_t StreamCount, const StringInterner &Interner) {
  std::unordered_map<std::string_view, const codegen::CodeUnit *> ByName;
  for (const codegen::CodeUnit &U : Image.Units)
    ByName.emplace(U.QualifiedName, &U);
  for (const cache::StreamPlan &S : Plan.Streams) {
    if (S.Hit)
      continue;
    auto It = ByName.find(S.QualifiedName);
    // Absent unit: the heading was parsed but analysis dropped it (can
    // only happen with diagnostics, which the gate excludes) — skipped
    // defensively anyway.
    if (It != ByName.end())
      Cache.storeStream(S.Key, *It->second, Interner);
  }
  Cache.storeModule(Plan.ModuleKey, Plan.ModTextHash, Plan.Deps, Image,
                    StreamCount, Interner);
}
} // namespace

/// One build's state, shared by discovery and the run after it.
struct BuildSession::Run {
  Run(BuildSession &S, SessionExternals *Ext)
      : Ext(Ext), Cost(S.Options.Cost),
        Threaded(Ext || S.Options.Executor == ExecutorKind::Threaded) {
    if (Ext) {
      Comp = Ext->Comp;
      Result.KeepAlive = Ext->KeepAlive;
    } else {
      Comp = std::make_shared<Compilation>(
          S.Files, S.Interner,
          CompilationOptions{S.Options.Strategy, S.Options.Sharing});
    }
    Result.Compilation = Comp;
  }

  /// Where location-less conditions are reported: the request's engine
  /// under a service, the session's shared engine otherwise.
  DiagnosticsEngine &diags() { return Ext ? LocalDiags : Comp->Diags; }

  /// Runs \p Phase outside the executor under a sequential context and
  /// charges it to the side ledger; returns the virtual units it took.
  template <typename Fn> uint64_t charge(Fn &&Phase) {
    SequentialContext Ctx(Cost);
    ScopedContext Installed(Ctx);
    auto From = Clock::now();
    Phase();
    SideUnits += Ctx.elapsedUnits();
    SideWallNs += wallSince(From);
    return Ctx.elapsedUnits();
  }

  SessionExternals *Ext;
  const CostModel &Cost;
  const bool Threaded;
  std::shared_ptr<Compilation> Comp;
  BuildResult Result;
  /// Request-scoped diagnostics (service mode): location-less conditions
  /// go here instead of the shared engine, and at the end the request's
  /// slice of the shared engine is merged in, so each request renders
  /// exactly what a standalone session would.
  DiagnosticsEngine LocalDiags;
  Clock::time_point Start = Clock::now();
  uint64_t SideUnits = 0;  ///< Discovery + cache work, virtual units.
  uint64_t SideWallNs = 0; ///< The same work in wall time.
  /// build.discovery.units: charged units, or the service's wall ns.
  uint64_t DiscoveryUnits = 0;
};

BuildResult BuildSession::build(const std::vector<std::string> &Roots) {
  return discoverAndRun(Roots, nullptr);
}

BuildResult BuildSession::build(const std::vector<std::string> &Roots,
                                SessionExternals Ext) {
  return discoverAndRun(Roots, &Ext);
}

BuildResult BuildSession::buildModule(std::string_view Module) {
  Run R(*this, nullptr);
  std::vector<Symbol> Modules;
  std::string ModFile = VirtualFileSystem::modFileName(Module);
  if (Files.exists(ModFile))
    Modules.push_back(Interner.intern(Module));
  else
    R.diags().error(SourceLocation(),
                    "cannot find module file '" + ModFile + "'");
  return run(R, Modules, nullptr);
}

BuildResult BuildSession::discoverAndRun(const std::vector<std::string> &Roots,
                                         SessionExternals *Ext) {
  Run R(*this, Ext);

  // Discovery: close over the import graph before anything is scheduled.
  // Charged like any other sequential phase so session times stay honest.
  // The service discovers before admission and hands the graph in.
  BuildGraph Graph;
  if (Ext) {
    Graph = std::move(Ext->Graph);
    R.DiscoveryUnits = Ext->DiscoveryWallNs;
  } else {
    R.DiscoveryUnits = R.charge([&] {
      Graph = BuildGraph::discover(Files, Interner, R.Comp->Builtins, Roots);
    });
  }
  for (const std::string &Root : Roots) {
    const BuildNode *N = Graph.node(Interner.intern(Root));
    if (!N || !N->HasImpl)
      R.diags().error(SourceLocation(),
                      "cannot find module file '" +
                          VirtualFileSystem::modFileName(Root) + "'");
  }

  // Interface cycles can never complete: analysis of each .def waits on
  // the interfaces it imports, so a cycle would deadlock the session.
  // Refuse the whole build with a deterministic diagnostic instead.
  if (!Graph.interfaceCycle().empty()) {
    std::string Message = "import cycle among interfaces:";
    for (size_t I = 0; I < Graph.interfaceCycle().size(); ++I) {
      Message += I == 0 ? " " : " -> ";
      Message += Interner.spelling(Graph.interfaceCycle()[I]);
    }
    R.diags().error(SourceLocation(), std::move(Message));
    R.Result.Success = false;
    R.Result.DiagnosticText = R.diags().render(&Files);
    R.Result.ElapsedUnits = R.Threaded ? R.SideWallNs : R.SideUnits;
    return std::move(R.Result);
  }
  return run(R, Graph.compileOrder(), &Graph);
}

BuildResult BuildSession::run(Run &R, const std::vector<Symbol> &Modules,
                              const BuildGraph *Graph) {
  SessionExternals *Ext = R.Ext;
  Compilation &Comp = *R.Comp;
  BuildResult &Result = R.Result;

  // The run's pass pipeline: one manager shared by every codegen task of
  // every pipeline; counters accumulate in a run-local set and are folded
  // into the service-lifetime sink afterwards.
  const opt::PassManager Passes = opt::PassManager::forLevel(Options.Level);
  const std::string PassConfig = Passes.configString();
  StatisticSet OptStats;

  // Service mode: the request's file set — its own .mod files plus its
  // interface closure's .def files — scopes every later read of the
  // shared diagnostics engine.  Missing interfaces are synthesized here
  // from the graph: the shared InterfaceSet reports them location-less
  // into the shared engine, where a per-file filter cannot see them.
  assert((!Ext || Graph) && "service requests always come with a graph");
  std::unordered_set<uint32_t> RequestFiles;
  if (Ext) {
    for (Symbol Mod : Modules)
      if (const SourceBuffer *Buf = Files.lookup(
              VirtualFileSystem::modFileName(Interner.spelling(Mod))))
        RequestFiles.insert(Buf->Id.index());
    for (Symbol Def : Graph->sessionInterfaces()) {
      std::string FileName =
          VirtualFileSystem::defFileName(Interner.spelling(Def));
      if (const SourceBuffer *Buf = Files.lookup(FileName))
        RequestFiles.insert(Buf->Id.index());
      else
        R.LocalDiags.error(SourceLocation(),
                           "cannot find interface file '" + FileName + "'");
    }
  }

  // Cache prepass, module by module.  Whole-module hits never get a
  // pipeline; everything else carries its plan into the shared run.
  struct PendingModule {
    Symbol Name;
    std::optional<cache::CachePlan> Plan;
  };
  std::vector<PendingModule> Pending;
  for (Symbol Mod : Modules) {
    std::string_view Spelling = Interner.spelling(Mod);
    if (!Options.Cache) {
      Pending.push_back({Mod, std::nullopt});
      continue;
    }
    auto Start = Clock::now();
    cache::CachePlanner Planner(
        Files, Interner, *Options.Cache,
        cache::CacheFingerprint{Options.Strategy, Options.Sharing, PassConfig,
                                "conc"},
        Options.Cost);
    // Service mode hands the planner the module's already-discovered
    // interface closure, replacing the probe's per-interface lex walk
    // with (memoized) hash lookups.  Standalone sessions keep the
    // unassisted probe so their simulated probe units stay as charged.
    std::vector<std::string> ClosureFiles;
    if (Ext) {
      for (Symbol Def : Graph->interfaceClosureSet(Mod))
        ClosureFiles.push_back(
            VirtualFileSystem::defFileName(Interner.spelling(Def)));
    }
    cache::CachePlan Plan =
        Planner.plan(Spelling, Ext ? &ClosureFiles : nullptr);
    R.SideUnits += Plan.ProbeUnits;
    R.SideWallNs += wallSince(Start);
    if (Plan.ModuleHit) {
      ModuleBuild MB;
      MB.Name = std::string(Spelling);
      MB.Image = std::move(Plan.Module->Image);
      MB.FromCache = true;
      MB.StreamCount = static_cast<size_t>(Plan.Module->StreamCount);
      Result.Modules.push_back(std::move(MB));
      continue;
    }
    Pending.push_back({Mod, std::move(Plan)});
  }

  // The shared run: every pending module's pipeline on ONE executor, all
  // interfaces parsed once by one InterfaceSet.
  uint64_t InterfaceStreams = 0;
  uint64_t InterfaceParses = 0;
  uint64_t ProcStreams = 0;
  if (!Pending.empty()) {
    std::unique_ptr<Executor> OwnedExec;
    Executor *Exec = nullptr;
    ThreadedExecutor *Service = Ext ? Ext->Exec : nullptr;
    if (Service) {
      Exec = Service;
    } else {
      if (R.Threaded)
        OwnedExec = std::make_unique<ThreadedExecutor>(Options.Processors,
                                                       Options.Cost);
      else
        OwnedExec = std::make_unique<SimulatedExecutor>(Options.Processors,
                                                        Options.Cost);
      OwnedExec->setActivitySink(Options.Trace);
      Exec = OwnedExec.get();
    }

    std::shared_ptr<void> Tag = Service ? Service->openRequest() : nullptr;
    TaskSpawner Spawner(*Exec, Tag);
    // Setup below runs on this (non-task) thread and can first-touch
    // shared interface streams through the pool's untagged spawner; the
    // scope charges those spawns to this request so awaitRequest() waits
    // for them too.
    std::optional<TaskSpawner::RequestTagScope> TagScope;
    if (Service)
      TagScope.emplace(Tag);
    std::unique_ptr<InterfaceSet> OwnedDefs;
    InterfaceSet *Defs = Ext ? Ext->SharedDefs : nullptr;
    if (!Defs) {
      OwnedDefs = std::make_unique<InterfaceSet>(Comp, Spawner);
      Defs = OwnedDefs.get();
    }
    // Setup replays cached main-stream units; charge that to the cache
    // ledger, not the executor.  Pipelines are wired imports-first so
    // interface streams start before their importers are scheduled.
    std::vector<std::unique_ptr<ModulePipeline>> Pipelines;
    R.charge([&] {
      for (PendingModule &PM : Pending) {
        auto Pipe = std::make_unique<ModulePipeline>(
            Options, Comp, Interner.spelling(PM.Name), Spawner,
            Passes.empty() ? nullptr : &Passes, &OptStats,
            Ext ? &R.LocalDiags : nullptr);
        if (PM.Plan && PM.Plan->Valid)
          Pipe->setPlan(&*PM.Plan);
        Pipe->setup();
        Pipelines.push_back(std::move(Pipe));
      }
    });
    if (Service) {
      // Tasks have been arriving at the serving executor since setup;
      // wait for this request's subgraph, then let the fair share rise.
      Service->awaitRequest(Tag);
      // A shared interface stream first touched by a peer request runs
      // under the peer's tag, but its diagnostics land in .def files this
      // request's slice reads below; settle the whole pool before judging
      // cleanliness so a late interface error is never missed.
      Defs->quiesce();
      Service->closeRequest(Tag);
    } else {
      Exec->run();
    }

    for (size_t I = 0; I < Pipelines.size(); ++I) {
      ModulePipeline &Pipe = *Pipelines[I];
      ModuleBuild MB;
      MB.Name = std::string(Interner.spelling(Pipe.moduleName()));
      MB.Image = Pipe.finalizeImage();
      MB.PlanDropped = Pipe.planDropped();
      // 1 main stream + its procedure streams + its own interface
      // closure, as a one-module run counts them (the session shares def
      // streams, so the session total is smaller than the sum of these).
      MB.StreamCount =
          1 + Pipe.procStreamCount() +
          (Graph ? Graph->interfaceClosure(Pipe.moduleName())
                 : Defs->streamCount());
      ProcStreams += Pipe.procStreamCount();
      Result.Modules.push_back(std::move(MB));
    }

    // Store phase: the gate is session-wide — only a completely clean
    // session stores, so a replayed entry never owes a diagnostic from
    // any module — plus per-module plan integrity.  A service request
    // judges cleanliness over its own file slice of the shared engine (a
    // peer request's broken module must not block this one's stores).
    bool Clean = Ext ? (R.LocalDiags.count() == 0 &&
                        Comp.Diags.countIn(RequestFiles) == 0)
                     : Comp.Diags.count() == 0;
    if (Options.Cache && Clean)
      R.charge([&] {
        for (size_t I = 0; I < Pipelines.size(); ++I) {
          ModulePipeline &Pipe = *Pipelines[I];
          if (!Pipe.plan() || Pipe.planDropped())
            continue;
          const ModuleBuild *MB =
              Result.module(Interner.spelling(Pipe.moduleName()));
          storeCacheEntries(*Options.Cache, *Pipe.plan(), MB->Image,
                            static_cast<uint64_t>(MB->StreamCount),
                            Interner);
        }
      });

    // Under a service these are the shared pool's service-lifetime
    // counters (interfaces are parsed once per generation, not per
    // request); scheduler stats likewise accumulate at service level and
    // are left out of per-request results.
    InterfaceStreams = Defs->streamCount();
    InterfaceParses = Defs->parseCount();
    if (!Service) {
      Result.ElapsedUnits = Exec->elapsedUnits();
      Result.SchedStats = Exec->stats().snapshot();
    }
  }

  // Cached modules were recorded during the prepass, compiled ones after
  // the run; restore imports-first order for the caller.
  {
    std::unordered_map<std::string_view, size_t> OrderIndex;
    for (size_t I = 0; I < Modules.size(); ++I)
      OrderIndex.emplace(Interner.spelling(Modules[I]), I);
    std::stable_sort(Result.Modules.begin(), Result.Modules.end(),
                     [&OrderIndex](const ModuleBuild &A,
                                   const ModuleBuild &B) {
                       return OrderIndex[A.Name] < OrderIndex[B.Name];
                     });
  }

  if (Ext) {
    // Merge the request's slice of the shared engine into the local one
    // (already deduplicated) and render everything in one stable order.
    for (const Diagnostic &D : Comp.Diags.sortedIn(RequestFiles))
      R.LocalDiags.report(D.Severity, D.Loc, D.Message);
    Result.Success = !R.LocalDiags.hasErrors();
    Result.DiagnosticText = R.LocalDiags.render(&Files);
    Result.ElapsedUnits = wallSince(R.Start) + R.DiscoveryUnits;
  } else {
    Result.Success = !Comp.Diags.hasErrors();
    Result.DiagnosticText = Comp.Diags.render(&Files);
    Result.ElapsedUnits += R.Threaded ? R.SideWallNs : R.SideUnits;
  }
  if (!R.Threaded)
    Result.SimSeconds = static_cast<double>(Result.ElapsedUnits) /
                        static_cast<double>(Options.Cost.UnitsPerSecond);
  if (Options.Cache)
    Result.CacheStats = Options.Cache->stats().snapshot();

  Result.BuildStats["build.modules.total"] = Modules.size();
  Result.BuildStats["build.modules.compiled"] = Pending.size();
  Result.BuildStats["build.modules.cached"] = Modules.size() - Pending.size();
  Result.BuildStats["build.interface.streams"] = InterfaceStreams;
  Result.BuildStats["build.interface.parses"] = InterfaceParses;
  Result.BuildStats["build.proc.streams"] = ProcStreams;
  Result.BuildStats["build.discovery.units"] = R.DiscoveryUnits;

  Result.OptStats = OptStats.snapshot();
  if (Ext && Ext->OptStats)
    for (const auto &[Name, Value] : Result.OptStats)
      Ext->OptStats->add(Name, Value);
  return std::move(Result);
}
