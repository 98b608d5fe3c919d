//===--- EditMix.cpp - edit_loop and farm_edit: the edit-compile loop -----===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// A generateRequestSet project set at -O0, served by an in-process
// daemon::Daemon on a unix socket (edit_loop) or by a farm::Farm
// coordinator over two `m2cd -worker` processes (farm_edit).  Two clients
// each keep one connection and wait for each reply; each owns half of the
// projects and cycles through them: 3 replays (unchanged rebuilds), then 1
// edit that pushes, in the BUILD's Files, the original text of one module
// plus a procedure unique to this edit.  Replays after an edit rebuild the
// edited state.
//
// Checks: unchanged modules must equal a cold P=1 BuildSession build of
// the original sources; a replay's edited module must equal the previous
// edit's; every edit's module must equal a cold P=1 ConcurrentCompiler
// build of the edited text, checked after the timed loop.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "build/BuildSession.h"
#include "codegen/ObjectFile.h"
#include "daemon/Daemon.h"
#include "driver/ConcurrentCompiler.h"
#include "farm/Farm.h"
#include "net/RemoteClient.h"
#include "workload/WorkloadGenerator.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

using namespace m2c;
using namespace perfbench;

namespace {

constexpr unsigned Clients = 2;
constexpr unsigned ReplaysPerEdit = 3;
/// Edit ids of set-up warm-ups; timed edits count up from 1, so no timed
/// edit can hit an entry a warm-up stored.
constexpr uint64_t WarmupEditBase = 900000000;

using Sources = std::map<std::string, std::string>;
using Images = std::map<std::string, std::string>;

struct ProjectRef {
  std::string Root;
  std::string EditedModule; ///< The last chain module: imports everything.
  std::string BaseText;     ///< Its original .mod text.
  Images Original;          ///< Reference .mco of every module.
};

/// Generated sources, pristine, plus the reference images.
struct Workspace {
  Sources Files;
  std::vector<ProjectRef> Projects;
};

workload::RequestSetSpec specWith(uint32_t GeneratorSeed) {
  workload::RequestSetSpec Spec;
  Spec.Name = "Mix";
  Spec.NumProjects = 4;
  Spec.CommonInterfaces = 4;
  Spec.ModulesPerProject = 5;
  Spec.ProjectInterfaces = 2;
  Spec.Seed = GeneratorSeed;
  return Spec;
}

/// Generates the project set into \p Files; returns the projects (without
/// references) and the pristine sources.
Workspace generate(VirtualFileSystem &Files,
                   const workload::RequestSetSpec &Spec) {
  workload::WorkloadGenerator Gen(Files);
  workload::GeneratedRequestSet Set = Gen.generateRequestSet(Spec);
  Workspace W;
  for (const std::string &Name : Files.names())
    W.Files[Name] = Files.lookup(Name)->Text;
  for (const workload::GeneratedProject &P : Set.Projects) {
    ProjectRef R;
    R.Root = P.Root;
    R.EditedModule = P.Modules[P.Modules.size() - 2];
    R.BaseText = W.Files[R.EditedModule + ".mod"];
    W.Projects.push_back(std::move(R));
  }
  return W;
}

/// Candidate generator seeds tried per workload seed; see chooseSpec().
constexpr unsigned SeedCandidates = 16;

/// The request set for a workload seed.  The generator draws module sizes
/// from its seed; an edit recompiles one module and a replay returns every
/// module's image, so an operation's cost follows those sizes.  Of
/// SeedCandidates generator seeds, keep the one whose set is closest in
/// size to the set of a fixed seed, in the bytes of all sources and in the
/// bytes of the modules the edits touch.  This chooses the inputs; it is
/// not part of set-up.
workload::RequestSetSpec chooseSpec(uint64_t Seed) {
  auto Sizes = [](const workload::RequestSetSpec &Spec) {
    VirtualFileSystem Files;
    Workspace W = generate(Files, Spec);
    double Total = 0, Edited = 0;
    for (const auto &[Name, Text] : W.Files)
      Total += static_cast<double>(Text.size());
    for (const ProjectRef &P : W.Projects)
      Edited += static_cast<double>(P.BaseText.size());
    return std::pair(Total, Edited);
  };
  const auto [Total0, Edited0] = Sizes(specWith(mixSeed(0, 77)));
  workload::RequestSetSpec Best;
  double BestGap = HUGE_VAL;
  for (unsigned J = 0; J < SeedCandidates; ++J) {
    workload::RequestSetSpec Spec = specWith(mixSeed(Seed, 77 + J));
    const auto [Total, Edited] = Sizes(Spec);
    double Gap = std::abs(Total / Total0 - 1) + std::abs(Edited / Edited0 - 1);
    if (Gap < BestGap) {
      BestGap = Gap;
      Best = Spec;
    }
  }
  return Best;
}

/// The original text plus one procedure unique to \p EditId: a body-only
/// change, so only this module recompiles.
std::string withEdit(const std::string &Base, uint64_t EditId) {
  std::string Proc = "PROCEDURE BenchEdit(x: INTEGER): INTEGER;\n"
                     "BEGIN RETURN x * " +
                     std::to_string(3 + EditId % 7) + " + " +
                     std::to_string(EditId) + " END BenchEdit;\n";
  size_t At = Base.rfind("PROCEDURE Work");
  return At == std::string::npos
             ? Base
             : Base.substr(0, At) + Proc + Base.substr(At);
}

void load(VirtualFileSystem &Files, const Sources &S) {
  for (const auto &[Name, Text] : S)
    Files.addFile(Name, Text);
}

driver::CompilerOptions referenceOptions() {
  driver::CompilerOptions O;
  O.Executor = driver::ExecutorKind::Threaded;
  O.Processors = 1;
  O.Level = opt::OptLevel::O0;
  return O;
}

/// Cold P=1 BuildSession images of every project, from pristine sources.
bool computeReferences(Workspace &W, std::string &Err) {
  for (ProjectRef &P : W.Projects) {
    VirtualFileSystem Files;
    load(Files, W.Files);
    StringInterner Interner;
    build::BuildSession Session(Files, Interner, referenceOptions());
    build::BuildResult R = Session.build({P.Root});
    if (!R.Success) {
      Err = "reference build of " + P.Root + " failed";
      return false;
    }
    for (const build::ModuleBuild &M : R.Modules)
      P.Original[M.Name] = codegen::writeObjectFile(M.Image, Interner);
  }
  return true;
}

//===--- Transports -------------------------------------------------------===//

struct Reply {
  bool Ok = false;
  std::string Error;
  std::vector<std::pair<std::string, std::string>> Modules; ///< name, .mco
  double Ms = 0;      ///< The timed exchange.
  double WriteMs = 0; ///< In-process only: rendering .mco after submit.
  uint64_t Compiled = 0;
};

class Transport {
public:
  virtual ~Transport() = default;
  /// One BUILD of \p P's root; pushes \p EditText first when non-null.
  virtual Reply exchange(const ProjectRef &P, const std::string *EditText) = 0;
};

/// A client connection to a daemon or a farm coordinator.
class RemoteTransport final : public Transport {
public:
  explicit RemoteTransport(std::unique_ptr<net::RemoteClient> C)
      : Client(std::move(C)) {}

  Reply exchange(const ProjectRef &P, const std::string *EditText) override {
    net::BuildRequestMsg Req;
    Req.RequestId = Client->nextRequestId();
    Req.OptLevel = 0;
    Req.Roots = {P.Root};
    if (EditText)
      Req.Files.emplace_back(P.EditedModule + ".mod", *EditText);
    net::BuildResultMsg Res;
    std::string Err;
    Clock::time_point T0 = Clock::now();
    bool Sent = Client->build(Req, Res, Err);
    Reply R;
    R.Ms = msSince(T0);
    R.Ok = Sent && Res.St == net::Status::Ok;
    if (!R.Ok)
      R.Error = Sent ? std::string(net::statusName(Res.St)) + ": " +
                           Res.Diagnostics
                     : Err;
    // Keep the first request and reply of each kind for the codec timings.
    auto &Kept = EditText ? FirstEdit : FirstReplay;
    if (!Kept)
      Kept.emplace(Req, Res);
    for (net::ModuleArtifact &M : Res.Modules)
      R.Modules.emplace_back(std::move(M.Name), std::move(M.Object));
    return R;
  }

  using Exchange = std::pair<net::BuildRequestMsg, net::BuildResultMsg>;
  std::optional<Exchange> FirstEdit, FirstReplay;

private:
  std::unique_ptr<net::RemoteClient> Client;
};

/// The same request through BuildService::submit, no wire.  Pushing an
/// edit writes the daemon's file system, as the daemon does for a BUILD
/// that carries Files.
class InProcessTransport final : public Transport {
public:
  InProcessTransport(VirtualFileSystem &Files, StringInterner &Interner,
                     service::BuildService &Service)
      : Files(Files), Interner(Interner), Service(Service) {}

  Reply exchange(const ProjectRef &P, const std::string *EditText) override {
    Clock::time_point T0 = Clock::now();
    if (EditText)
      Files.addFile(P.EditedModule + ".mod", *EditText);
    build::BuildResult Res = Service.submit({P.Root}, nullptr,
                                            opt::OptLevel::O0);
    Clock::time_point T1 = Clock::now();
    Reply R;
    R.Ms = msBetween(T0, T1);
    R.Ok = Res.Success;
    if (!R.Ok)
      R.Error = Res.DiagnosticText;
    for (const build::ModuleBuild &M : Res.Modules)
      R.Modules.emplace_back(M.Name,
                             codegen::writeObjectFile(M.Image, Interner));
    R.WriteMs = msSince(T1);
    R.Compiled = get(Res.BuildStats, "build.modules.compiled");
    return R;
  }

private:
  VirtualFileSystem &Files;
  StringInterner &Interner;
  service::BuildService &Service;
};

//===--- Server memory ----------------------------------------------------===//

/// Operations after which a server's peak memory is read.  A fixed amount
/// of work, not of time: the daemon keeps every pushed file version and
/// fills its memory tier as edits arrive, so a time window would report
/// the host's speed.  A phase that measures memory runs past its time
/// until this many operations have completed.
constexpr uint64_t PeakRssOps = 1000;

/// Fresh processes whose peak memory edit_loop reports the median of.
constexpr unsigned FreshServers = 5;

//===--- The closed loop --------------------------------------------------===//

struct EditRecord {
  size_t Project = 0;
  uint64_t EditId = 0;
  uint64_t Hash = 0; ///< FNV-1a of the edited module's returned .mco.
};

/// What the clients of one phase saw.
struct Phase {
  std::vector<double> Edit, Replay, All;
  double Seconds = 0;
  double CpuMs = 0; ///< The server's CPU time (timed phases only).
  uint64_t Attempted = 0, Failed = 0, Compiled = 0;
  double EditWriteMs = 0, ReplayWriteMs = 0;
  std::vector<EditRecord> Edits;
  std::vector<std::string> Errors;
  /// The client's connection.  A merged phase keeps the first client's,
  /// whose last exchanges the codec timings replay.
  std::unique_ptr<Transport> Conn;

  void merge(Phase &&O) {
    Edit.insert(Edit.end(), O.Edit.begin(), O.Edit.end());
    Replay.insert(Replay.end(), O.Replay.begin(), O.Replay.end());
    All.insert(All.end(), O.All.begin(), O.All.end());
    Edits.insert(Edits.end(), O.Edits.begin(), O.Edits.end());
    Attempted += O.Attempted;
    Failed += O.Failed;
    Compiled += O.Compiled;
    EditWriteMs += O.EditWriteMs;
    ReplayWriteMs += O.ReplayWriteMs;
    for (std::string &E : O.Errors)
      if (Errors.size() < 8)
        Errors.push_back(std::move(E));
  }
  void fail(std::string E) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(std::move(E));
  }
};

/// One server's view of the projects: the edited module's current image.
struct ServerState {
  const Workspace &W;
  std::vector<std::string> Current;
  std::atomic<uint64_t> &NextEdit;

  ServerState(const Workspace &W, std::atomic<uint64_t> &NextEdit)
      : W(W), NextEdit(NextEdit) {
    for (const ProjectRef &P : W.Projects)
      Current.push_back(P.Original.at(P.EditedModule));
  }
};

/// Checks one reply against the references; updates the project's
/// current edited image on an edit.
void check(ServerState &S, size_t Project, const Reply &R,
           const uint64_t *EditId, Phase &Log) {
  const ProjectRef &P = S.W.Projects[Project];
  if (!R.Ok) {
    Log.fail(P.Root + ": " + R.Error);
    return;
  }
  if (R.Modules.size() != P.Original.size()) {
    Log.fail(P.Root + ": module count differs from the reference");
    return;
  }
  for (const auto &[Name, Mco] : R.Modules) {
    if (Name == P.EditedModule) {
      if (EditId) {
        Log.Edits.push_back({Project, *EditId, fnv1a(Mco)});
        S.Current[Project] = Mco;
      } else if (Mco != S.Current[Project]) {
        Log.fail(Name + ": replay differs from the last build");
      }
      continue;
    }
    auto It = P.Original.find(Name);
    if (It == P.Original.end() || It->second != Mco)
      Log.fail(Name + ": differs from the cold P=1 build");
  }
}

/// Runs the mix for \p Seconds with Clients threads, one transport each
/// (made before the clock starts).  With \p Peak, the server's peak memory
/// is read once PeakRssOps operations have completed, and the phase lasts
/// at least that long.  With \p Server, the processes that serve besides
/// this one, the phase also records the CPU time the server used.
Phase runPhase(ServerState &S, double Seconds,
               const std::function<std::unique_ptr<Transport>()> &Make,
               PeakMemory *Peak = nullptr,
               const std::vector<int> *Server = nullptr) {
  Phase Total;
  std::vector<Phase> Logs(Clients);
  for (unsigned C = 0; C < Clients; ++C)
    if (!(Logs[C].Conn = Make())) {
      Total.fail("cannot connect to the server");
      return Total;
    }
  std::atomic<uint64_t> Completed{0};
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));
  auto Client = [&](unsigned C) {
    Phase &Log = Logs[C];
    Transport &T = *Log.Conn;
    std::vector<size_t> Own;
    for (size_t P = C; P < S.W.Projects.size(); P += Clients)
      Own.push_back(P);
    for (uint64_t Cycle = 0;; ++Cycle) {
      size_t Project = Own[Cycle % Own.size()];
      const ProjectRef &P = S.W.Projects[Project];
      for (unsigned Step = 0; Step <= ReplaysPerEdit; ++Step) {
        if (Clock::now() >= Deadline &&
            !(Peak && Completed.load() < PeakRssOps))
          return;
        const bool IsEdit = Step == ReplaysPerEdit;
        uint64_t EditId = IsEdit ? S.NextEdit.fetch_add(1) : 0;
        std::string Text = IsEdit ? withEdit(P.BaseText, EditId) : "";
        Reply R = T.exchange(P, IsEdit ? &Text : nullptr);
        ++Log.Attempted;
        (IsEdit ? Log.Edit : Log.Replay).push_back(R.Ms);
        Log.All.push_back(R.Ms);
        if (Peak && Completed.fetch_add(1) + 1 == PeakRssOps)
          Peak->read();
        Log.Compiled += R.Compiled;
        (IsEdit ? Log.EditWriteMs : Log.ReplayWriteMs) += R.WriteMs;
        check(S, Project, R, IsEdit ? &EditId : nullptr, Log);
      }
    }
  };
  const double Cpu = Server ? cpuMs(*Server) : 0;
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &T : Threads)
    T.join();
  Total.Seconds = msSince(Start) / 1e3;
  if (Server)
    Total.CpuMs = cpuMs(*Server) - Cpu;
  if (Peak)
    Peak->read();
  Total.Conn = std::move(Logs.front().Conn);
  for (Phase &L : Logs)
    Total.merge(std::move(L));
  return Total;
}

/// Set-up warm-up: every project built, edited once and reverted, so the
/// interface pool and the artifact tiers are warm and every project is
/// back at its original text.
bool warmUp(Transport &T, const Workspace &W, std::string &Err) {
  uint64_t Id = WarmupEditBase;
  for (const ProjectRef &P : W.Projects) {
    std::string Edited = withEdit(P.BaseText, Id++);
    const std::string *Pushes[] = {nullptr, &Edited, &P.BaseText};
    for (const std::string *Push : Pushes) {
      Reply R = T.exchange(P, Push);
      if (!R.Ok) {
        Err = "warm-up build of " + P.Root + ": " + R.Error;
        return false;
      }
    }
  }
  return true;
}

/// Checks every recorded edit against a cold P=1 compile of its text,
/// on up to Processors threads.
void verifyEdits(const Workspace &W, const std::vector<EditRecord> &Edits,
                 Phase &Log) {
  std::mutex M;
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    VirtualFileSystem Files;
    load(Files, W.Files);
    for (size_t I; (I = Next.fetch_add(1)) < Edits.size();) {
      const EditRecord &E = Edits[I];
      const ProjectRef &P = W.Projects[E.Project];
      Files.addFile(P.EditedModule + ".mod", withEdit(P.BaseText, E.EditId));
      StringInterner Interner;
      driver::ConcurrentCompiler Compiler(Files, Interner, referenceOptions());
      driver::CompileResult R = Compiler.compile(P.EditedModule);
      bool Same = R.Success &&
                  fnv1a(codegen::writeObjectFile(R.Image, Interner)) == E.Hash;
      if (!Same) {
        std::lock_guard<std::mutex> Lock(M);
        Log.fail(P.EditedModule + ": edit " + std::to_string(E.EditId) +
                 " differs from the cold P=1 build");
      }
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Processors; ++I)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();
}

//===--- Servers ----------------------------------------------------------===//

/// An in-process daemon over its own file system.
struct DaemonRig {
  VirtualFileSystem Files;
  StringInterner Interner;
  std::unique_ptr<daemon::Daemon> Server;
  std::string Socket;

  /// The processes serving besides this one: none.
  std::vector<int> processes() const { return {}; }

  std::unique_ptr<Transport> connect() const {
    std::string Err;
    auto C = net::RemoteClient::open(Socket, Err);
    return C ? std::make_unique<RemoteTransport>(std::move(C)) : nullptr;
  }
};

bool startDaemon(DaemonRig &D, const Sources &S, const std::string &Socket,
                 std::string &Err) {
  load(D.Files, S);
  daemon::DaemonConfig Config;
  Config.UnixSocketPath = Socket;
  Config.Service.Workers = Processors;
  Config.Service.Level = opt::OptLevel::O0;
  Config.MaxPendingBuilds = 64;
  D.Socket = Socket;
  D.Server = std::make_unique<daemon::Daemon>(D.Files, D.Interner, Config);
  return D.Server->start(Err);
}

/// Source generation, daemon start and warm-up: edit_loop's set-up.
std::unique_ptr<DaemonRig> setUpDaemon(const workload::RequestSetSpec &Spec,
                                       unsigned Instance,
                                       Workspace &W, std::string &Err) {
  auto D = std::make_unique<DaemonRig>();
  W = generate(D->Files, Spec);
  std::string Socket = "daemon" + std::to_string(Instance) + ".sock";
  std::filesystem::remove(Socket);
  if (!startDaemon(*D, {}, Socket, Err))
    return nullptr;
  auto T = D->connect();
  if (!T) {
    Err = "cannot connect to the daemon";
    return nullptr;
  }
  if (!warmUp(*T, W, Err))
    return nullptr;
  return D;
}

/// A farm of two m2cd workers over a workspace directory.
struct FarmRig {
  std::unique_ptr<farm::Farm> Coordinator;
  std::string Socket;

  /// The processes serving besides this one: the workers.
  std::vector<int> processes() const {
    std::vector<int> Pids;
    for (unsigned I = 0; I < Coordinator->workerCount(); ++I)
      Pids.push_back(Coordinator->workerPid(I));
    return Pids;
  }

  std::unique_ptr<Transport> connect() const {
    std::string Err;
    auto C = net::RemoteClient::open(Socket, Err);
    return C ? std::make_unique<RemoteTransport>(std::move(C)) : nullptr;
  }
};

std::unique_ptr<FarmRig> setUpFarm(const workload::RequestSetSpec &Spec,
                                   unsigned Instance,
                                   Workspace &W, std::string &Err) {
  VirtualFileSystem Files;
  W = generate(Files, Spec);
  const std::string Dir = "farm" + std::to_string(Instance);
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir + "/ws");
  for (const auto &[Name, Text] : W.Files)
    std::ofstream(Dir + "/ws/" + Name, std::ios::binary) << Text;

  auto F = std::make_unique<FarmRig>();
  farm::FarmConfig Config;
  F->Socket = Dir + "/f.sock";
  Config.UnixSocketPath = F->Socket;
  Config.Workers = 2;
  Config.Worker.Workspace = Dir + "/ws";
  Config.Worker.Jobs = Processors / 2;
  Config.MaxPendingRelays = 64;
  F->Coordinator = std::make_unique<farm::Farm>(Config);
  if (!F->Coordinator->start(Err))
    return nullptr;
  auto T = F->connect();
  if (!T) {
    Err = "cannot connect to the farm";
    return nullptr;
  }
  if (!warmUp(*T, W, Err))
    return nullptr;
  return F;
}

//===--- Reporting --------------------------------------------------------===//

void record(Outcome &Out, Phase &P, bool Timed) {
  if (Timed) {
    for (double Ms : P.Edit)
      Out.Kinds["edit"].push_back(Ms);
    for (double Ms : P.Replay)
      Out.Kinds["replay"].push_back(Ms);
    Out.Ops.insert(Out.Ops.end(), P.All.begin(), P.All.end());
    Out.LoopSeconds += P.Seconds;
    Out.Blocks.push_back({P.All, P.Seconds, P.CpuMs});
  }
  Out.Attempted += P.Attempted;
  for (std::string &E : P.Errors)
    Out.fail(std::move(E));
  // Failures beyond the first few are counted, not logged.
  Out.Failed += P.Failed - std::min<uint64_t>(P.Failed, P.Errors.size());
  P.Errors.clear();
}

/// The timed part of an edit workload: BlockCount phases of equal length,
/// one block each, with the host's speed probed between them while no
/// request is in flight.  \p Peak goes to the first phase.  Returns the
/// edits made, for verification.
std::vector<EditRecord>
runTimed(Outcome &Out, ServerState &S, double Seconds,
         const std::function<std::unique_ptr<Transport>()> &Make,
         PeakMemory *Peak, const std::vector<int> &Server) {
  std::vector<EditRecord> Edits;
  for (unsigned B = 0; B < BlockCount; ++B) {
    if (B > 0) {
      std::vector<double> Host = hostSpeedProbe();
      Out.HostMs.insert(Out.HostMs.end(), Host.begin(), Host.end());
    }
    Phase P = runPhase(S, Seconds / BlockCount, Make, B == 0 ? Peak : nullptr,
                       &Server);
    Edits.insert(Edits.end(), P.Edits.begin(), P.Edits.end());
    record(Out, P, /*Timed=*/true);
  }
  return Edits;
}

/// Mean milliseconds of one call of \p F, over enough calls to resolve it.
template <typename Fn> double meanMs(Fn &&F) {
  constexpr int Reps = 200;
  Clock::time_point T0 = Clock::now();
  for (int I = 0; I < Reps; ++I)
    F();
  return msSince(T0) / Reps;
}

/// Encode/decode cost of one exchange's request and reply frames.
struct Codec {
  double Request = 0, EncodeResult = 0, DecodeResult = 0, ReplyBytes = 0;
};

Codec codecOf(const std::optional<RemoteTransport::Exchange> &Kept) {
  Codec C;
  if (!Kept)
    return C;
  const RemoteTransport::Exchange &X = *Kept;
  net::Frame ResF = net::encode(X.second);
  C.Request = meanMs([&] {
    net::BuildRequestMsg M;
    net::decode(net::encode(X.first), M);
  });
  C.EncodeResult = meanMs([&] { net::encode(X.second); });
  C.DecodeResult = meanMs([&] {
    net::BuildResultMsg M;
    net::decode(ResF, M);
  });
  C.ReplyBytes = static_cast<double>(net::wireBytes(ResF).size());
  return C;
}

/// Codec cost averaged over the mix (3 replays to 1 edit) and per kind.
struct MixCodec {
  Codec Edit, Replay;
  double mean(double Codec::*Field) const {
    return (Edit.*Field + ReplaysPerEdit * (Replay.*Field)) /
           (ReplaysPerEdit + 1);
  }
};

/// Only remote phases are timed for the codec.
MixCodec codecOf(const Phase &P) {
  if (!P.Conn)
    return {};
  auto &T = static_cast<const RemoteTransport &>(*P.Conn);
  return {codecOf(T.FirstEdit), codecOf(T.FirstReplay)};
}

void putCacheRatios(std::map<std::string, double> &L,
                    const std::map<std::string, uint64_t> &Before,
                    const std::map<std::string, uint64_t> &After,
                    double Ops) {
  for (const char *Tier : {"module", "stream", "mem"}) {
    std::string Base = std::string("cache.") + Tier;
    double Hit = static_cast<double>(delta(Before, After, Base + ".hit"));
    // A module entry whose sources changed counts as "invalidated", not
    // "miss"; both are lookups that did not hit.
    double Miss = static_cast<double>(delta(Before, After, Base + ".miss") +
                                      delta(Before, After,
                                            Base + ".invalidated"));
    L[Base + ".hit_ratio"] = ratio(Hit, Hit + Miss);
    L[Base + ".lookups"] = ratio(Hit + Miss, Ops);
  }
  L["service.interface.parses"] =
      ratio(static_cast<double>(
                delta(Before, After, "service.interface.parses")),
            Ops);
  L["service.generations"] =
      static_cast<double>(delta(Before, After, "service.generations"));
}

/// Sets the server up repeatedly (see setUpRepeatedly), then builds the
/// references.  Null, with the failure recorded, if anything failed.
template <typename SetUpFn>
auto setUpServer(const workload::RequestSetSpec &Spec, Outcome &Out,
                 Workspace &W, SetUpFn &&SetUp) {
  std::string Err;
  auto R = setUpRepeatedly(
      [&](unsigned I) { return SetUp(Spec, I, W, Err); },
      [](const auto &Rig) { return Rig.processes(); }, Out.SetupSeconds,
      Out.SetupWallSeconds);
  if (R && !computeReferences(W, Err))
    R.reset();
  if (!R) {
    ++Out.Attempted;
    Out.fail("set-up: " + Err);
    return R;
  }
  for (const ProjectRef &P : W.Projects)
    for (const auto &[Name, Mco] : P.Original)
      Out.McoBytes += static_cast<double>(Mco.size());
  return R;
}

/// edit_loop's memory probe, run in a fresh process: the set-up and the
/// references, then the mix until PeakRssOps operations have completed.
/// Exits 1 on a failure.
void serveOnce(const workload::RequestSetSpec &Spec) {
  Workspace W;
  std::string Err;
  std::unique_ptr<DaemonRig> D = setUpDaemon(Spec, SetupRepeats, W, Err);
  if (!D || !computeReferences(W, Err))
    ::_exit(1);
  std::atomic<uint64_t> NextEdit{1};
  ServerState State(W, NextEdit);
  PeakMemory Peak;
  Phase P = runPhase(State, 0, [&] { return D->connect(); }, &Peak);
  D->Server->stop();
  if (P.Failed)
    ::_exit(1);
}

} // namespace

void perfbench::runEditLoop(const Options &Opts, Outcome &Out) {
  const workload::RequestSetSpec Spec = chooseSpec(Opts.Seed);
  // The daemon runs in this process, so one run's peak would be one
  // allocator layout; fresh processes, forked before this one starts a
  // thread, give a median instead.
  std::vector<double> Peaks;
  for (const FreshRun &R :
       freshRuns(FreshServers, [&] { serveOnce(Spec); }))
    Peaks.push_back(R.PeakMb);
  Out.PeakRssMb = quantile(Peaks, 0.5);

  Workspace W;
  std::unique_ptr<DaemonRig> D = setUpServer(Spec, Out, W, setUpDaemon);
  if (!D)
    return;
  std::atomic<uint64_t> NextEdit{1};
  ServerState State(W, NextEdit);
  auto Remote = [&] { return D->connect(); };

  const double Slice = Opts.Trace ? Opts.Seconds / 3 : Opts.Seconds;
  std::vector<EditRecord> Edits =
      runTimed(Out, State, Slice, Remote, nullptr, D->processes());

  if (Opts.Trace) {
    // The same mix in-process: what the wire adds is the difference.
    Phase Local = runPhase(State, Slice, [&] {
      return std::make_unique<InProcessTransport>(D->Files, D->Interner,
                                                  D->Server->service());
    });

    // Traced remote phase: the recorder on the service's executor, and
    // the service counters around it.  Attached and detached while no
    // request is in flight.
    service::BuildService &Service = D->Server->service();
    BusySink Sink;
    std::map<std::string, uint64_t> Before = Service.statsSnapshot();
    Service.executor().setActivitySink(&Sink);
    Phase Traced = runPhase(State, Slice, Remote);
    Service.executor().setActivitySink(nullptr);
    std::map<std::string, uint64_t> After = Service.statsSnapshot();
    ClassNs Busy = Sink.take();

    const double N = static_cast<double>(Traced.All.size());
    const double BusyMs = static_cast<double>(total(Busy)) / 1e6;
    const double CapacityMs = Processors * Traced.Seconds * 1e3;
    auto &L = Out.Layers;
    putClassBusy(L, Busy, N);
    L["sched.idle_ms"] = (CapacityMs - BusyMs) / N;
    L["sched.utilization"] = ratio(BusyMs, CapacityMs);
    for (const char *K :
         {"sched.steals", "sched.waits.barrier", "sched.requests.deferred"})
      L[K] = static_cast<double>(delta(Before, After, K)) / N;
    putCacheRatios(L, Before, After, N);

    const double LocalN = static_cast<double>(Local.All.size());
    const double LocalEdits = static_cast<double>(Local.Edit.size());
    const double LocalReplays = static_cast<double>(Local.Replay.size());
    L["service.submit_edit_ms"] = quantile(Local.Edit, 0.5);
    L["service.submit_replay_ms"] = quantile(Local.Replay, 0.5);
    L["service.submit_mean_ms"] = mean(Local.All);
    L["build.modules.compiled"] =
        ratio(static_cast<double>(Local.Compiled), LocalN);
    L["codegen.mco_write_ms"] =
        ratio(Local.EditWriteMs + Local.ReplayWriteMs, LocalN);

    MixCodec C = codecOf(Traced);
    const double EditP50 = quantile(Out.Kinds["edit"], 0.5);
    const double ReplayP50 = quantile(Out.Kinds["replay"], 0.5);
    L["net.wire_edit_ms"] = EditP50 - L["service.submit_edit_ms"];
    L["net.wire_replay_ms"] = ReplayP50 - L["service.submit_replay_ms"];
    L["net.remote_mean_ms"] = mean(Out.Ops);
    L["net.wire_overhead"] =
        ratio(L["net.remote_mean_ms"], L["service.submit_mean_ms"]);
    L["net.encode_result_ms"] = C.mean(&Codec::EncodeResult);
    L["net.decode_result_ms"] = C.mean(&Codec::DecodeResult);
    L["net.reply_bytes"] = C.mean(&Codec::ReplyBytes);
    // The parts measured from outside: the in-process submit, the .mco
    // rendering the daemon does for each reply, and the frame codec.
    auto Parts = [&](const Codec &K, double Submit, double Write) {
      return Submit + Write + K.Request + K.EncodeResult + K.DecodeResult;
    };
    L["unexplained.edit_ms"] =
        EditP50 - Parts(C.Edit, L["service.submit_edit_ms"],
                        ratio(Local.EditWriteMs, LocalEdits));
    L["unexplained.replay_ms"] =
        ReplayP50 - Parts(C.Replay, L["service.submit_replay_ms"],
                          ratio(Local.ReplayWriteMs, LocalReplays));
    L["trace.overhead"] =
        ratio(quantile(Traced.All, 0.5), quantile(Out.Ops, 0.5));

    Edits.insert(Edits.end(), Local.Edits.begin(), Local.Edits.end());
    Edits.insert(Edits.end(), Traced.Edits.begin(), Traced.Edits.end());
    record(Out, Local, false);
    record(Out, Traced, false);
  }
  D->Server->stop();

  Phase Verify;
  verifyEdits(W, Edits, Verify);
  record(Out, Verify, false);
}

void perfbench::runFarmEdit(const Options &Opts, Outcome &Out) {
  Workspace W;
  std::unique_ptr<FarmRig> F =
      setUpServer(chooseSpec(Opts.Seed), Out, W, setUpFarm);
  if (!F)
    return;
  std::atomic<uint64_t> NextEdit{1};
  ServerState State(W, NextEdit);
  auto Remote = [&] { return F->connect(); };

  const double Slice = Opts.Trace ? Opts.Seconds / 3 : Opts.Seconds;
  // The farm's memory is the coordinator's (this process) plus its
  // workers'.
  const std::vector<int> Workers = F->processes();
  PeakMemory Peak(Workers);
  std::vector<EditRecord> Edits =
      runTimed(Out, State, Slice, Remote, &Peak, Workers);
  Out.PeakRssMb = Peak.read();

  if (Opts.Trace) {
    // The workers are other processes, so the traced phase reads the
    // coordinator's aggregated STATS (farm.* plus every worker's
    // counters) around the same mix.
    std::map<std::string, uint64_t> Before = F->Coordinator->aggregatedStats();
    Phase Traced = runPhase(State, Slice, Remote);
    std::map<std::string, uint64_t> After = F->Coordinator->aggregatedStats();
    F->Coordinator->stop();
    F.reset();

    // The edit_loop configuration on the same inputs: the farm's relay
    // cost is the difference.
    DaemonRig D;
    std::string Err;
    Phase Direct;
    if (startDaemon(D, W.Files, "direct.sock", Err)) {
      auto T = D.connect();
      if (T && warmUp(*T, W, Err)) {
        ServerState Fresh(W, NextEdit);
        Direct = runPhase(Fresh, Slice, [&] { return D.connect(); });
      } else {
        Out.fail("direct daemon warm-up: " + Err);
      }
      D.Server->stop();
    } else {
      Out.fail("direct daemon: " + Err);
    }

    const double N = static_cast<double>(Traced.All.size());
    auto &L = Out.Layers;
    putCacheRatios(L, Before, After, N);
    for (const char *K :
         {"sched.steals", "sched.waits.barrier", "sched.requests.deferred"})
      L[K] = static_cast<double>(delta(Before, After, K)) / N;
    auto Counter = [&](const char *K) {
      return static_cast<double>(delta(Before, After, K));
    };
    L["farm.affinity_ratio"] = ratio(Counter("farm.requests.affinity"),
                                     Counter("farm.requests.received"));
    L["farm.pool.reuse_ratio"] =
        ratio(Counter("farm.pool.reused"),
              Counter("farm.pool.reused") + Counter("farm.pool.opened"));
    L["farm.requests.failover"] = Counter("farm.requests.failover");

    MixCodec C = codecOf(Traced);
    const double EditP50 = quantile(Out.Kinds["edit"], 0.5);
    const double ReplayP50 = quantile(Out.Kinds["replay"], 0.5);
    const double DirectEdit = quantile(Direct.Edit, 0.5);
    const double DirectReplay = quantile(Direct.Replay, 0.5);
    L["farm.relay_edit_ms"] = EditP50 - DirectEdit;
    L["farm.relay_replay_ms"] = ReplayP50 - DirectReplay;
    L["net.remote_mean_ms"] = mean(Out.Ops);
    L["net.encode_result_ms"] = C.mean(&Codec::EncodeResult);
    L["net.decode_result_ms"] = C.mean(&Codec::DecodeResult);
    L["net.reply_bytes"] = C.mean(&Codec::ReplyBytes);
    // The relay adds one more hop: its frame codec is the part measured
    // from outside.
    auto Hop = [](const Codec &K) {
      return K.Request + K.EncodeResult + K.DecodeResult;
    };
    L["unexplained.edit_ms"] = L["farm.relay_edit_ms"] - Hop(C.Edit);
    L["unexplained.replay_ms"] = L["farm.relay_replay_ms"] - Hop(C.Replay);
    L["trace.overhead"] =
        ratio(quantile(Traced.All, 0.5), quantile(Out.Ops, 0.5));

    Edits.insert(Edits.end(), Traced.Edits.begin(), Traced.Edits.end());
    Edits.insert(Edits.end(), Direct.Edits.begin(), Direct.Edits.end());
    record(Out, Traced, false);
    record(Out, Direct, false);
  }
  if (F)
    F->Coordinator->stop();

  Phase Verify;
  verifyEdits(W, Edits, Verify);
  record(Out, Verify, false);
}
