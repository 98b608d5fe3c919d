//===--- m2c_cli.cpp - Command-line compiler driver -------------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// A small command-line front end over the library: compiles Modula-2+
// modules from the host file system and optionally links and runs them.
//
//   m2c_cli [options] Module [Module...]
//     -j N           processors (default 4)
//     -seq           use the sequential baseline compiler
//     -sim           use the simulated executor (default: real threads)
//     -dky S         avoidance | pessimistic | skeptical | optimistic
//     -O0|-O1|-O2    middle-end optimization level (default -O0, or the
//                    M2C_OPT_LEVEL environment variable); -O is -O2.
//                    Applies in every mode, including -remote (the level
//                    rides in the BUILD request)
//     -trace         print a WatchTool activity view per compilation
//     -run           link all modules and run the last one
//     -tier0         run the VM as the reference interpreter alone (as
//                    M2C_VM_TIER=tier0 does); by default every unit is
//                    translated to threaded code at load.  Output is
//                    identical either way
//     -dump          print the MCode listing of each compiled unit
//     -c             write each compiled module to Module.mco
//     -cache DIR     keep a persistent compilation cache in DIR
//     -cache-stats   print cache hit/miss counters after each compile
//     -project       treat the positional modules as build-session roots:
//                    discover their import graph and compile every
//                    reachable module under ONE executor (interfaces
//                    parsed once per session)
//     -serve N       build-service mode: the positional argument is a
//                    request manifest (one request per line, root modules
//                    space-separated, '#' comments); N client threads
//                    drain it through ONE BuildService sharing one
//                    executor, one interface pool and tiered caches
//     -remote ADDR   remote-build mode: compile the positional root
//                    modules on a running m2cd instead of in-process.
//                    ADDR is a unix socket path or tcp:HOST:PORT.  The
//                    working directory's .def/.mod files are pushed to
//                    the daemon first (see -no-push); output is byte-
//                    identical to a local -project build.  Composes with
//                    -c, -run, -dump, -stats, -deadline.  With -stats and
//                    no modules, just prints the daemon's counters.
//                    ADDR may equally be an m2cfarm coordinator — the
//                    farm speaks the identical protocol.
//     -farm N        one-shot farm mode: spawn an in-process coordinator
//                    over N m2cd workers sharing the working directory
//                    (and -cache DIR when given), build the positional
//                    roots through it, then drain and reap the workers.
//                    Same surface as -remote; -stats prints the farm's
//                    aggregated worker counters
//     -deadline MS   remote mode: per-request deadline in milliseconds;
//                    an expired request returns DEADLINE_EXCEEDED
//     -retry N       remote mode: on transient failure (daemon absent,
//                    connection lost, overload shed, drain, internal
//                    error) reconnect and resend up to N times with
//                    bounded exponential backoff.  Safe because BUILD
//                    is idempotent (see net/RemoteClient.h).
//     -retry-backoff MS
//                    remote mode: initial backoff before the first
//                    retry, doubled per attempt (default 100)
//     -no-push       remote mode: trust the daemon's own workspace
//                    instead of pushing local sources
//     -stats         print per-session scheduler/cache/build counters
//                    (project mode), merged service counters (serve
//                    mode), or the daemon's counters (remote mode);
//                    with -run, also the vm.* execution-tier counters
//
// Module files are looked up as Module.mod / Module.def in the current
// directory.  A positional argument ending in ".mco" is loaded as a
// precompiled object instead of being compiled.
//
// Remote-mode exit codes distinguish failure classes for scripting:
//   0  success (or the program's own exit code under -run)
//   1  compile failed, or a local post-build step failed
//   2  usage error
//   3  daemon refused or aborted the request (overload, drain, internal)
//   4  deadline expired or request cancelled
//   5  nothing listening at ADDR (connect refused)
//   6  transport or protocol failure (connection lost, bad frames)
//
//===----------------------------------------------------------------------===//

#include "build/BuildSession.h"
#include "cache/CompilationCache.h"
#include "codegen/Linker.h"
#include "codegen/ObjectFile.h"
#include "driver/ConcurrentCompiler.h"
#include "driver/SequentialCompiler.h"
#include "farm/Farm.h"
#include "net/RemoteClient.h"
#include "service/BuildService.h"
#include "trace/ActivityRecorder.h"
#include "vm/VM.h"
#include "vm/VmStats.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include <unistd.h>

using namespace m2c;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: m2c_cli [-j N] [-seq] [-sim] [-dky STRATEGY] "
               "[-O0|-O1|-O2] [-trace] [-run] [-tier0] "
               "[-dump] [-c] [-cache DIR] "
               "[-cache-stats] [-project] [-serve N] [-remote ADDR] "
               "[-farm N] [-deadline MS] [-retry N] [-retry-backoff MS] "
               "[-no-push] [-stats] Module...\n");
  return 2;
}

void printCounters(const char *Heading,
                   const std::map<std::string, uint64_t> &Stats) {
  if (Stats.empty())
    return;
  std::printf("%s:\n", Heading);
  for (const auto &[Counter, Value] : Stats)
    std::printf("  %-28s = %llu\n", Counter.c_str(),
                static_cast<unsigned long long>(Value));
}

/// -project: one build session over all roots, then link/run/dump from
/// the session's images.
int runProject(VirtualFileSystem &Files, StringInterner &Names,
               driver::CompilerOptions Options,
               const std::vector<std::string> &Roots, bool Run, bool Dump,
               bool EmitObjects, bool Stats, bool CacheStats,
               vm::tier::TierMode Tiering) {
  build::BuildSession Session(Files, Names, std::move(Options));
  build::BuildResult R = Session.build(Roots);
  std::fputs(R.DiagnosticText.c_str(), stderr);
  for (const build::ModuleBuild &M : R.Modules)
    std::printf("%-12s: %2zu streams, %2zu units%s%s\n", M.Name.c_str(),
                M.StreamCount, M.Image.Units.size(),
                M.FromCache ? " (cached)" : "",
                M.PlanDropped ? " (plan dropped)" : "");
  if (R.SimSeconds > 0)
    std::printf("session     : %zu modules, %.2f simulated s\n",
                R.Modules.size(), R.SimSeconds);
  else
    std::printf("session     : %zu modules, %.1f ms\n", R.Modules.size(),
                static_cast<double>(R.ElapsedUnits) / 1e6);
  if (Stats) {
    printCounters("build", R.BuildStats);
    printCounters("scheduler", R.SchedStats);
    printCounters("opt", R.OptStats);
  }
  if (Stats || CacheStats)
    printCounters("cache", R.CacheStats);
  if (!R.Success)
    return 1;

  if (Dump)
    for (const build::ModuleBuild &M : R.Modules)
      for (const codegen::CodeUnit &U : M.Image.Units)
        std::printf("%s\n", U.dump(Names).c_str());
  if (EmitObjects)
    for (const build::ModuleBuild &M : R.Modules) {
      std::ofstream Out(M.Name + ".mco", std::ios::binary);
      Out << codegen::writeObjectFile(M.Image, Names);
      std::printf("wrote %s.mco\n", M.Name.c_str());
    }
  if (!Run)
    return 0;

  codegen::Linker Link(Names);
  for (build::ModuleBuild &M : R.Modules)
    Link.addImage(std::move(M.Image));
  codegen::LinkedProgram Program = Link.link();
  if (!Program.ok()) {
    for (const std::string &E : Program.errors())
      std::fprintf(stderr, "link error: %s\n", E.c_str());
    return 1;
  }
  vm::VM Machine(Program, Names, Tiering);
  vm::VM::RunResult Result = Machine.run(Names.intern(Roots.back()));
  std::fputs(Result.Output.c_str(), stdout);
  if (Stats)
    printCounters("vm", vm::globalVmStats().snapshot());
  if (Result.Trapped) {
    std::fprintf(stderr, "runtime trap: %s\n", Result.TrapMessage.c_str());
    return 1;
  }
  return static_cast<int>(Result.ExitCode);
}

/// -serve: N client threads drain a request manifest through one
/// BuildService.  Requests are claimed in manifest order; each client
/// prints one summary line per request it served.
int runServe(VirtualFileSystem &Files, StringInterner &Names,
             const driver::CompilerOptions &Options,
             const std::string &ManifestPath, unsigned Clients,
             const std::string &CacheDir, bool Stats) {
  std::ifstream In(ManifestPath);
  if (!In) {
    std::fprintf(stderr, "cannot read manifest '%s'\n", ManifestPath.c_str());
    return 1;
  }
  std::vector<std::vector<std::string>> Requests;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::vector<std::string> Roots;
    std::string Root;
    while (LS >> Root)
      Roots.push_back(Root);
    if (!Roots.empty())
      Requests.push_back(std::move(Roots));
  }
  if (Requests.empty()) {
    std::fprintf(stderr, "manifest '%s' holds no requests\n",
                 ManifestPath.c_str());
    return 1;
  }

  service::ServiceConfig Config;
  Config.Workers = Options.Processors;
  Config.Strategy = Options.Strategy;
  Config.Sharing = Options.Sharing;
  Config.Level = Options.Level;
  Config.CacheDir = CacheDir;
  service::BuildService Service(Files, Names, Config);

  std::atomic<size_t> Next{0};
  std::atomic<int> Failures{0};
  std::mutex OutM;
  auto Client = [&](unsigned Id) {
    for (;;) {
      size_t I = Next.fetch_add(1);
      if (I >= Requests.size())
        return;
      build::BuildResult R = Service.submit(Requests[I]);
      std::lock_guard<std::mutex> Lock(OutM);
      std::fputs(R.DiagnosticText.c_str(), stderr);
      size_t Cached = 0;
      for (const build::ModuleBuild &M : R.Modules)
        Cached += M.FromCache;
      std::printf("client %u req %zu [%s]: %zu modules (%zu cached), "
                  "%.1f ms%s\n",
                  Id, I, Requests[I].front().c_str(), R.Modules.size(),
                  Cached, static_cast<double>(R.ElapsedUnits) / 1e6,
                  R.Success ? "" : " FAILED");
      if (!R.Success)
        Failures.fetch_add(1);
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < std::max(1u, Clients); ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &T : Threads)
    T.join();
  if (Stats)
    printCounters("service", Service.statsSnapshot());
  return Failures.load() ? 1 : 0;
}

/// Maps a remote failure to the scriptable exit codes documented in the
/// file header: 3 daemon refused/aborted, 4 deadline/cancelled, 5 nothing
/// listening, 6 transport/protocol.
int remoteExitCode(net::ErrorCategory Category) {
  switch (Category) {
  case net::ErrorCategory::Overload:
  case net::ErrorCategory::Draining:
  case net::ErrorCategory::Internal:
    return 3;
  case net::ErrorCategory::Deadline:
  case net::ErrorCategory::Cancelled:
    return 4;
  case net::ErrorCategory::ConnectRefused:
    return 5;
  default:
    return 6;
  }
}

/// -remote: ship the build to a running m2cd (docs/PROTOCOL.md) and
/// render the reply with the same surface as a local -project build —
/// same diagnostics on stderr, same per-module lines, byte-identical
/// .mco files under -c.
int runRemote(StringInterner &Names, const std::string &Address,
              const std::vector<std::string> &Roots, uint32_t DeadlineMs,
              opt::OptLevel Level, bool Push, bool Run, bool Dump,
              bool EmitObjects, bool Stats, vm::tier::TierMode Tiering,
              unsigned Retries, unsigned BackoffMs) {
  std::string Err;
  int Exit = 0;

  if (!Roots.empty()) {
    net::BuildRequestMsg Req;
    Req.RequestId = 1; // Ids are per-connection; each attempt is fresh.
    Req.DeadlineMs = DeadlineMs;
    Req.OptLevel = static_cast<uint8_t>(Level);
    Req.Roots = Roots;
    if (Push) {
      // Mirror local semantics: the working directory's sources define
      // the build, not whatever the daemon was started over.
      for (const auto &Entry : std::filesystem::directory_iterator(".")) {
        if (!Entry.is_regular_file())
          continue;
        std::string Ext = Entry.path().extension().string();
        if (Ext != ".def" && Ext != ".mod")
          continue;
        std::ifstream In(Entry.path(), std::ios::binary);
        if (!In)
          continue;
        std::ostringstream Text;
        Text << In.rdbuf();
        Req.Files.emplace_back(Entry.path().filename().string(), Text.str());
      }
    }

    net::RetryPolicy Policy;
    Policy.MaxRetries = Retries;
    Policy.InitialBackoffMs = BackoffMs;
    Policy.OnBackoff = [](unsigned Attempt, unsigned SleepMs) {
      std::fprintf(stderr, "m2c_cli: remote build attempt %u failed; "
                           "retrying in %u ms\n",
                   Attempt, SleepMs);
      std::this_thread::sleep_for(std::chrono::milliseconds(SleepMs));
    };

    net::BuildResultMsg Result;
    net::RemoteBuildOutcome Outcome =
        net::buildWithRetry(Address, Req, Policy, Result);
    // Which failure class cost the retries: "slow because overloaded"
    // reads differently from "slow because the connection kept dropping".
    if (!Outcome.Retries.empty()) {
      std::string Breakdown;
      for (const auto &[Category, Count] : Outcome.Retries)
        Breakdown += std::string(" ") + net::errorCategoryName(Category) +
                     "=" + std::to_string(Count);
      std::fprintf(stderr, "m2c_cli: retries by category:%s\n",
                   Breakdown.c_str());
    }
    if (!Outcome.Delivered) {
      std::fprintf(stderr, "m2c_cli: %s (%s after %u attempt%s)\n",
                   Outcome.Err.empty() ? "remote build failed"
                                       : Outcome.Err.c_str(),
                   net::errorCategoryName(Outcome.Category), Outcome.Attempts,
                   Outcome.Attempts == 1 ? "" : "s");
      return remoteExitCode(Outcome.Category);
    }
    std::fputs(Result.Diagnostics.c_str(), stderr);
    if (Result.St == net::Status::BuildFailed)
      return 1;
    if (Result.St != net::Status::Ok) {
      // Shed, draining, deadline, cancelled, internal: the daemon refused
      // or abandoned the request; distinguish from a compile failure.
      std::fprintf(stderr, "m2c_cli: remote build %s\n",
                   net::statusName(Result.St));
      return remoteExitCode(Outcome.Category);
    }

    // Decode the shipped objects once; every consumer below reuses them.
    std::vector<codegen::ModuleImage> Images;
    for (const net::ModuleArtifact &M : Result.Modules) {
      std::string DecodeErr;
      auto Image = codegen::readObjectFile(M.Object, Names, DecodeErr);
      if (!Image) {
        std::fprintf(stderr, "m2c_cli: bad object for %s: %s\n",
                     M.Name.c_str(), DecodeErr.c_str());
        return 1;
      }
      std::printf("%-12s: %2u streams, %2zu units%s\n", M.Name.c_str(),
                  M.StreamCount, Image->Units.size(),
                  M.FromCache ? " (cached)" : "");
      Images.push_back(std::move(*Image));
    }
    std::printf("remote      : %zu modules, %.1f ms\n", Result.Modules.size(),
                static_cast<double>(Result.ElapsedNs) / 1e6);

    if (Dump)
      for (const codegen::ModuleImage &Image : Images)
        for (const codegen::CodeUnit &U : Image.Units)
          std::printf("%s\n", U.dump(Names).c_str());
    if (EmitObjects)
      for (const net::ModuleArtifact &M : Result.Modules) {
        std::ofstream Out(M.Name + ".mco", std::ios::binary);
        Out << M.Object;
        std::printf("wrote %s.mco\n", M.Name.c_str());
      }
    if (Run) {
      codegen::Linker Link(Names);
      for (codegen::ModuleImage &Image : Images)
        Link.addImage(std::move(Image));
      codegen::LinkedProgram Program = Link.link();
      if (!Program.ok()) {
        for (const std::string &E : Program.errors())
          std::fprintf(stderr, "link error: %s\n", E.c_str());
        return 1;
      }
      vm::VM Machine(Program, Names, Tiering);
      vm::VM::RunResult RunResult = Machine.run(Names.intern(Roots.back()));
      std::fputs(RunResult.Output.c_str(), stdout);
      if (Stats)
        printCounters("vm", vm::globalVmStats().snapshot());
      if (RunResult.Trapped) {
        std::fprintf(stderr, "runtime trap: %s\n",
                     RunResult.TrapMessage.c_str());
        return 1;
      }
      Exit = static_cast<int>(RunResult.ExitCode);
    }
  }

  if (Stats) {
    // buildWithRetry owns its connections, so stats get their own.
    net::ErrorCategory Category = net::ErrorCategory::None;
    std::unique_ptr<net::RemoteClient> Client =
        net::RemoteClient::open(Address, Err, &Category);
    if (!Client) {
      std::fprintf(stderr, "m2c_cli: %s\n", Err.c_str());
      return remoteExitCode(Category);
    }
    std::map<std::string, uint64_t> Counters;
    if (!Client->stats(Counters, Err)) {
      std::fprintf(stderr, "m2c_cli: %s\n", Err.c_str());
      return remoteExitCode(Client->lastErrorCategory());
    }
    printCounters("daemon", Counters);
  }
  return Exit;
}

} // namespace

int main(int Argc, char **Argv) {
  driver::CompilerOptions Options;
  Options.Executor = driver::ExecutorKind::Threaded;
  Options.Processors = 4;
  bool Sequential = false, Trace = false, Run = false, Dump = false;
  bool EmitObjects = false, CacheStats = false, Project = false;
  bool Stats = false, NoPush = false;
  unsigned ServeClients = 0;
  unsigned FarmWorkers = 0;
  unsigned DeadlineMs = 0;
  unsigned Retries = 0, RetryBackoffMs = 100;
  bool RetryFlagsSeen = false;
  vm::tier::TierMode Tiering = vm::tier::tierModeFromEnv();
  std::string CacheDir, RemoteAddr;
  std::vector<std::string> Modules;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "-j" && I + 1 < Argc) {
      Options.Processors = static_cast<unsigned>(std::atoi(Argv[++I]));
      if (Options.Processors == 0)
        return usage();
    } else if (Arg == "-seq") {
      Sequential = true;
    } else if (Arg == "-sim") {
      Options.Executor = driver::ExecutorKind::Simulated;
    } else if (Arg == "-dky" && I + 1 < Argc) {
      std::string S = Argv[++I];
      if (S == "avoidance")
        Options.Strategy = symtab::DkyStrategy::Avoidance;
      else if (S == "pessimistic")
        Options.Strategy = symtab::DkyStrategy::Pessimistic;
      else if (S == "skeptical")
        Options.Strategy = symtab::DkyStrategy::Skeptical;
      else if (S == "optimistic")
        Options.Strategy = symtab::DkyStrategy::Optimistic;
      else
        return usage();
    } else if (Arg == "-O0") {
      Options.Level = opt::OptLevel::O0;
    } else if (Arg == "-O1") {
      Options.Level = opt::OptLevel::O1;
    } else if (Arg == "-O2" || Arg == "-O") {
      Options.Level = opt::OptLevel::O2;
    } else if (Arg == "-trace") {
      Trace = true;
    } else if (Arg == "-run") {
      Run = true;
    } else if (Arg == "-tier0") {
      Tiering = vm::tier::TierMode::Tier0Only;
    } else if (Arg == "-dump") {
      Dump = true;
    } else if (Arg == "-c") {
      EmitObjects = true;
    } else if (Arg == "-cache" && I + 1 < Argc) {
      CacheDir = Argv[++I];
    } else if (Arg == "-cache-stats") {
      CacheStats = true;
    } else if (Arg == "-project") {
      Project = true;
    } else if (Arg == "-serve" && I + 1 < Argc) {
      ServeClients = static_cast<unsigned>(std::atoi(Argv[++I]));
      if (ServeClients == 0)
        return usage();
    } else if (Arg == "-stats") {
      Stats = true;
    } else if (Arg == "-remote" && I + 1 < Argc) {
      RemoteAddr = Argv[++I];
    } else if (Arg == "-farm" && I + 1 < Argc) {
      int V = std::atoi(Argv[++I]);
      if (V <= 0)
        return usage();
      FarmWorkers = static_cast<unsigned>(V);
    } else if (Arg == "-deadline" && I + 1 < Argc) {
      int V = std::atoi(Argv[++I]);
      if (V <= 0)
        return usage();
      DeadlineMs = static_cast<unsigned>(V);
    } else if (Arg == "-retry" && I + 1 < Argc) {
      int V = std::atoi(Argv[++I]);
      if (V < 0)
        return usage();
      Retries = static_cast<unsigned>(V);
      RetryFlagsSeen = true;
    } else if (Arg == "-retry-backoff" && I + 1 < Argc) {
      int V = std::atoi(Argv[++I]);
      if (V <= 0)
        return usage();
      RetryBackoffMs = static_cast<unsigned>(V);
      RetryFlagsSeen = true;
    } else if (Arg == "-no-push") {
      NoPush = true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage();
    } else {
      Modules.push_back(Arg);
    }
  }
  if (FarmWorkers && !RemoteAddr.empty()) {
    std::fprintf(stderr, "-farm spawns its own coordinator; "
                         "it does not compose with -remote\n");
    return 2;
  }
  // One-shot farm mode: stand up a real coordinator + N worker processes
  // over the working directory, then drive it exactly like -remote (the
  // farm speaks the same protocol, so runRemote needs no farm awareness).
  if (FarmWorkers) {
    if (Modules.empty() && !Stats)
      return usage();
    std::string SockDir =
        "/tmp/m2cfarm." + std::to_string(static_cast<long>(::getpid()));
    std::error_code EC;
    std::filesystem::create_directories(SockDir, EC);
    if (EC) {
      std::fprintf(stderr, "m2c_cli: cannot create '%s': %s\n",
                   SockDir.c_str(), EC.message().c_str());
      return 1;
    }
    farm::FarmConfig FConfig;
    FConfig.UnixSocketPath = SockDir + "/farm.sock";
    FConfig.Workers = FarmWorkers;
    FConfig.Worker.Workspace = ".";
    FConfig.Worker.CacheDir = CacheDir;
    farm::Farm Coordinator(FConfig);
    std::string FarmErr;
    if (!Coordinator.start(FarmErr)) {
      std::fprintf(stderr, "m2c_cli: %s\n", FarmErr.c_str());
      return 1;
    }
    StringInterner RemoteNames;
    int Exit = runRemote(RemoteNames, FConfig.UnixSocketPath, Modules,
                         DeadlineMs, Options.Level, !NoPush, Run, Dump,
                         EmitObjects, Stats, Tiering, Retries,
                         RetryBackoffMs);
    Coordinator.stop();
    std::filesystem::remove_all(SockDir, EC);
    return Exit;
  }
  // Remote mode is self-contained: sources are read straight from the
  // working directory (or trusted on the daemon with -no-push), so the
  // local VFS/compiler setup below is skipped entirely.
  if (!RemoteAddr.empty()) {
    if (Modules.empty() && !Stats)
      return usage();
    StringInterner RemoteNames;
    return runRemote(RemoteNames, RemoteAddr, Modules, DeadlineMs,
                     Options.Level, !NoPush, Run, Dump, EmitObjects, Stats,
                     Tiering, Retries, RetryBackoffMs);
  }
  if (DeadlineMs || NoPush || RetryFlagsSeen) {
    std::fprintf(stderr,
                 "-deadline/-retry/-retry-backoff/-no-push require -remote\n");
    return 2;
  }
  if (Modules.empty())
    return usage();

  // Preload every .def/.mod in the working directory so imports resolve.
  VirtualFileSystem Files;
  StringInterner Names;
  for (const auto &Entry : std::filesystem::directory_iterator(".")) {
    if (!Entry.is_regular_file())
      continue;
    std::string Ext = Entry.path().extension().string();
    if (Ext == ".def" || Ext == ".mod")
      Files.addFromDisk(Entry.path().filename().string());
  }

  if (ServeClients) {
    if (Sequential || Modules.size() != 1) {
      std::fprintf(stderr, "-serve takes one manifest file and uses the "
                           "concurrent compiler\n");
      return 2;
    }
    // The service fronts its own disk tier with a memory tier; CacheDir
    // goes to it rather than through Options.Cache.
    return runServe(Files, Names, Options, Modules.front(), ServeClients,
                    CacheDir, Stats);
  }

  // A persistent on-disk cache: warm entries survive across m2c_cli
  // processes, so rebuilding an unchanged project replays instantly.
  std::unique_ptr<cache::CompilationCache> Cache;
  if (!CacheDir.empty()) {
    Cache = std::make_unique<cache::CompilationCache>(
        std::make_unique<cache::DiskCacheStore>(CacheDir));
    Options.Cache = Cache.get();
  }

  if (Project) {
    if (Sequential) {
      std::fprintf(stderr, "-project uses the concurrent compiler; "
                           "-seq is not supported\n");
      return 2;
    }
    return runProject(Files, Names, std::move(Options), Modules, Run, Dump,
                      EmitObjects, Stats, CacheStats, Tiering);
  }

  codegen::Linker Link(Names);
  std::string RunModule;
  for (const std::string &Module : Modules) {
    if (Module.size() > 4 &&
        Module.compare(Module.size() - 4, 4, ".mco") == 0) {
      // Precompiled object: load and link.
      auto Buf = Files.addFromDisk(Module);
      std::string Text;
      if (Buf) {
        Text = Files.buffer(*Buf).Text;
      } else {
        std::ifstream In(Module, std::ios::binary);
        if (!In) {
          std::fprintf(stderr, "cannot read '%s'\n", Module.c_str());
          return 1;
        }
        std::ostringstream SS;
        SS << In.rdbuf();
        Text = SS.str();
      }
      std::string Error;
      auto Image = codegen::readObjectFile(Text, Names, Error);
      if (!Image) {
        std::fprintf(stderr, "%s: %s\n", Module.c_str(), Error.c_str());
        return 1;
      }
      RunModule = std::string(Names.spelling(Image->ModuleName));
      std::printf("%s: loaded %zu units\n", Module.c_str(),
                  Image->Units.size());
      Link.addImage(std::move(*Image));
      continue;
    }
    RunModule = Module;
    trace::ActivityRecorder Rec;
    Options.Trace = Trace ? &Rec : nullptr;
    driver::CompileResult R;
    if (Sequential) {
      driver::SequentialCompiler C(Files, Names, Options);
      R = C.compile(Module);
    } else {
      driver::ConcurrentCompiler C(Files, Names, Options);
      R = C.compile(Module);
    }
    std::fputs(R.DiagnosticText.c_str(), stderr);
    if (!R.Success)
      return 1;
    if (Options.Executor == driver::ExecutorKind::Simulated)
      std::printf("%s: %zu streams, %zu units, %.2f simulated s\n",
                  Module.c_str(), R.StreamCount, R.Image.Units.size(),
                  R.SimSeconds);
    else
      std::printf("%s: %zu streams, %zu units, %.1f ms\n", Module.c_str(),
                  R.StreamCount, R.Image.Units.size(),
                  static_cast<double>(R.ElapsedUnits) / 1e6);
    if (CacheStats)
      for (const auto &[Counter, Value] : R.CacheStats)
        std::printf("  %s = %llu\n", Counter.c_str(),
                    static_cast<unsigned long long>(Value));
    if (Stats) {
      printCounters("scheduler", R.SchedStats);
      printCounters("opt", R.OptStats);
    }
    if (Trace)
      std::printf("%s%s\n", Rec.renderAscii(100).c_str(),
                  trace::ActivityRecorder::legend().c_str());
    if (Dump)
      for (const codegen::CodeUnit &U : R.Image.Units)
        std::printf("%s\n", U.dump(Names).c_str());
    if (EmitObjects) {
      std::ofstream Out(Module + ".mco", std::ios::binary);
      Out << codegen::writeObjectFile(R.Image, Names);
      std::printf("wrote %s.mco\n", Module.c_str());
    }
    Link.addImage(std::move(R.Image));
  }

  if (!Run)
    return 0;
  codegen::LinkedProgram Program = Link.link();
  if (!Program.ok()) {
    for (const std::string &E : Program.errors())
      std::fprintf(stderr, "link error: %s\n", E.c_str());
    return 1;
  }
  vm::VM Machine(Program, Names, Tiering);
  vm::VM::RunResult Result = Machine.run(Names.intern(RunModule));
  std::fputs(Result.Output.c_str(), stdout);
  if (Stats)
    printCounters("vm", vm::globalVmStats().snapshot());
  if (Result.Trapped) {
    std::fprintf(stderr, "runtime trap: %s\n", Result.TrapMessage.c_str());
    return 1;
  }
  return static_cast<int>(Result.ExitCode);
}
