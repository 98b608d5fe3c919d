//===--- Daemon.cpp - m2cd: the network build daemon ----------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"

#include "codegen/ObjectFile.h"
#include "fault/FaultPlan.h"
#include "vm/VmStats.h"

using namespace m2c;
using namespace m2c::daemon;
using namespace m2c::net;

Daemon::Daemon(VirtualFileSystem &Files, StringInterner &Interner,
               DaemonConfig Config)
    : Files(Files), Interner(Interner), Config(std::move(Config)),
      Service(Files, Interner, this->Config.Service),
      Front(*this, "net",
            this->Config.WorkerMode ? "m2cd/1 worker" : "m2cd/1",
            this->Config, this->Config.MaxConnections,
            this->Config.MaxPendingBuilds) {}

Daemon::~Daemon() { stop(); }

std::map<std::string, uint64_t> Daemon::statsSnapshot() {
  std::map<std::string, uint64_t> Merged = Service.statsSnapshot();
  // The execution-tier counters (vm.*) are present even when the daemon
  // never ran a program, so clients always see the full key set; the
  // injection counters (fault.*) only while a FaultPlan is installed, so
  // production stats stay clean.
  for (const auto &Part : {Front.counters().snapshot(),
                           vm::globalVmStats().snapshot(),
                           fault::statsSnapshot()})
    for (const auto &[Name, Value] : Part)
      Merged[Name] += Value;
  return Merged;
}

//===--- Builds ------------------------------------------------------------===//

void Daemon::build(Server::Request &R, BuildRequestMsg Msg) {
  if (Config.OnBuildStart)
    Config.OnBuildStart(Msg.RequestId);

  // Register pushed sources before discovery (PROTOCOL.md §9); the lock
  // makes concurrent pushes interleave whole-file, nothing finer.
  if (!Msg.Files.empty()) {
    std::lock_guard<std::mutex> Lock(FilesM);
    for (auto &[Name, Text] : Msg.Files)
      Files.addFile(Name, std::move(Text));
    Front.counters().add("net.files.pushed", Msg.Files.size());
  }

  // A failing build thread must never take the daemon (or the connection)
  // down with it: injected faults and any exception escaping the service
  // become a clean BUILD_RESULT carrying Status::Internal, preserving the
  // exactly-one-reply invariant.  Internal is retryable client-side.
  build::BuildResult Result;
  std::string FaultDetail;
  if (M2C_FAULT_HIT("daemon.build").fail()) {
    FaultDetail = "injected fault at daemon.build";
  } else {
    // A deadline or CANCEL that answered first reaches the service
    // through RequestControl, which submit() polls at its checkpoints.
    service::RequestControl Control([&R] { return R.abandoned(); });
    try {
      Result = Service.submit(Msg.Roots, &Control,
                              static_cast<opt::OptLevel>(Msg.OptLevel));
    } catch (const std::exception &E) {
      FaultDetail = E.what();
    }
  }

  if (!FaultDetail.empty()) {
    Front.counters().add("net.requests.faulted");
    BuildResultMsg Out;
    Out.St = Status::Internal;
    Out.Diagnostics = "daemon: build aborted: " + FaultDetail + "\n";
    R.reply(std::move(Out), "requests.failed");
  } else if (Result.Aborted) {
    // A checkpoint early-out: the deadline monitor or a CANCEL already
    // sent this request's reply; nothing was compiled.
  } else {
    BuildResultMsg Out;
    Out.St = Result.Success ? Status::Ok : Status::BuildFailed;
    Out.Diagnostics = Result.DiagnosticText;
    Out.ElapsedNs = Result.ElapsedUnits;
    if (Result.Success)
      for (const build::ModuleBuild &M : Result.Modules) {
        ModuleArtifact A;
        A.Name = M.Name;
        A.FromCache = M.FromCache;
        A.StreamCount = static_cast<uint32_t>(M.StreamCount);
        A.Object = codegen::writeObjectFile(M.Image, Interner);
        Out.Modules.push_back(std::move(A));
      }
    R.reply(std::move(Out),
            Result.Success ? "requests.ok" : "requests.failed");
  }
}

