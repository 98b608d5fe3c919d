//===--- DaemonTest.cpp - Network build daemon tests -----------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// The daemon's correctness bar extends the service's: a build shipped over
// the docs/PROTOCOL.md wire must be byte-identical to a cold standalone
// BuildSession — and the wire itself must stay sane under truncated
// frames, oversized frames, unknown message types, expiring deadlines,
// cancellation racing completion, overload shed and graceful drain.
//
// All tests run the Daemon in-process against real unix-domain (and one
// TCP) sockets; determinism for the shed/cancel/drain races comes from
// DaemonConfig::OnBuildStart holding build threads on a gate.  The
// front-door cases (FrontDoorTest) run twice: against a daemon, and
// against a 1-worker farm coordinator, which answers through the same
// net::Server and must answer alike.
//
//===----------------------------------------------------------------------===//

#include "build/BuildSession.h"
#include "codegen/ObjectFile.h"
#include "daemon/Daemon.h"
#include "farm/Farm.h"
#include "net/Protocol.h"
#include "net/RemoteClient.h"
#include "net/Socket.h"
#include "workload/WorkloadGenerator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include <unistd.h>

using namespace m2c;

namespace {

/// A one-shot gate: build threads park in wait() until the test open()s.
class Gate {
public:
  void open() {
    {
      std::lock_guard<std::mutex> Lock(M);
      IsOpen = true;
    }
    Cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait(Lock, [&] { return IsOpen; });
  }

private:
  std::mutex M;
  std::condition_variable Cv;
  bool IsOpen = false;
};

struct DaemonFixture {
  VirtualFileSystem Files;
  StringInterner Interner;
  std::string SocketPath;

  DaemonFixture() {
    static std::atomic<unsigned> Counter{0};
    SocketPath = (std::filesystem::temp_directory_path() /
                  ("m2cd-test-" + std::to_string(::getpid()) + "-" +
                   std::to_string(Counter.fetch_add(1)) + ".sock"))
                     .string();
  }
  ~DaemonFixture() {
    std::error_code EC;
    std::filesystem::remove(SocketPath, EC);
  }

  daemon::DaemonConfig config() {
    daemon::DaemonConfig Config;
    Config.UnixSocketPath = SocketPath;
    Config.Service.Workers = 4;
    return Config;
  }

  workload::GeneratedRequestSet makeRequestSet(unsigned Projects = 3,
                                               unsigned Repeats = 1) {
    workload::RequestSetSpec Spec;
    Spec.NumProjects = Projects;
    Spec.RequestsPerProject = Repeats;
    Spec.CommonInterfaces = 3;
    Spec.ModulesPerProject = 3;
    Spec.ProjectInterfaces = 2;
    workload::WorkloadGenerator Gen(Files);
    return Gen.generateRequestSet(Spec);
  }

  /// Cold standalone reference over the SAME sources: what the wire's
  /// artifacts must equal, byte for byte.  BUILD requests carry their own
  /// OptLevel (default 0), so the reference pins the matching level rather
  /// than inheriting the ambient M2C_OPT_LEVEL default.
  build::BuildResult standalone(const std::vector<std::string> &Roots,
                                opt::OptLevel Level = opt::OptLevel::O0) {
    driver::CompilerOptions Options;
    Options.Executor = driver::ExecutorKind::Threaded;
    Options.Processors = 4;
    Options.Level = Level;
    build::BuildSession Session(Files, Interner, std::move(Options));
    return Session.build(Roots);
  }

  /// Connects raw and completes the HELLO/WELCOME handshake — for tests
  /// that then need to misbehave below the RemoteClient abstraction.
  net::Socket rawHandshake() {
    std::string Err;
    net::Socket S = net::Socket::connectUnix(SocketPath, Err);
    EXPECT_TRUE(S.valid()) << Err;
    EXPECT_TRUE(S.sendFrame(net::encode(net::HelloMsg{})));
    net::Frame F;
    EXPECT_EQ(S.recvFrame(F), net::Socket::RecvStatus::Ok);
    EXPECT_EQ(F.Type, net::MsgType::Welcome);
    return S;
  }

  static uint64_t stat(const std::map<std::string, uint64_t> &Stats,
                       const std::string &Name) {
    auto It = Stats.find(Name);
    return It == Stats.end() ? 0 : It->second;
  }

  /// Polls \p Snapshot until counter \p Name reaches \p AtLeast; some
  /// events (e.g. a truncated frame) are counted by the reader thread
  /// after the client already observed their TCP-level effect.
  static bool waitForCounter(
      const std::function<std::map<std::string, uint64_t>()> &Snapshot,
      const std::string &Name, uint64_t AtLeast) {
    for (int I = 0; I < 500; ++I) {
      if (stat(Snapshot(), Name) >= AtLeast)
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }
};

//===--- Wire-format unit tests (no socket) -------------------------------===//

TEST(DaemonTest, ProtocolMessagesRoundTrip) {
  net::BuildRequestMsg Build;
  Build.RequestId = 0x1122334455667788ull;
  Build.DeadlineMs = 1500;
  Build.OptLevel = 2;
  Build.Roots = {"Report", "Stats"};
  Build.Files = {{"Report.mod", "MODULE Report; END Report."},
                 {"Empty.def", ""}};
  net::BuildRequestMsg Build2;
  ASSERT_TRUE(net::decode(net::encode(Build), Build2));
  EXPECT_EQ(Build2.RequestId, Build.RequestId);
  EXPECT_EQ(Build2.DeadlineMs, Build.DeadlineMs);
  EXPECT_EQ(Build2.OptLevel, Build.OptLevel);
  EXPECT_EQ(Build2.Roots, Build.Roots);
  EXPECT_EQ(Build2.Files, Build.Files);

  // An out-of-range level is malformed, not clamped.
  Build.OptLevel = 3;
  EXPECT_FALSE(net::decode(net::encode(Build), Build2));

  net::BuildResultMsg Result;
  Result.RequestId = 7;
  Result.St = net::Status::BuildFailed;
  Result.Diagnostics = "Report.mod:1:8: error: something\n";
  Result.ElapsedNs = 123456789;
  Result.Modules.push_back({"Stacks", true, 5, std::string("\x00\x01MCO", 5)});
  net::BuildResultMsg Result2;
  ASSERT_TRUE(net::decode(net::encode(Result), Result2));
  EXPECT_EQ(Result2.RequestId, Result.RequestId);
  EXPECT_EQ(Result2.St, Result.St);
  EXPECT_EQ(Result2.Diagnostics, Result.Diagnostics);
  EXPECT_EQ(Result2.ElapsedNs, Result.ElapsedNs);
  ASSERT_EQ(Result2.Modules.size(), 1u);
  EXPECT_EQ(Result2.Modules[0].Name, "Stacks");
  EXPECT_TRUE(Result2.Modules[0].FromCache);
  EXPECT_EQ(Result2.Modules[0].StreamCount, 5u);
  EXPECT_EQ(Result2.Modules[0].Object, Result.Modules[0].Object);

  net::StatsResultMsg Stats;
  Stats.Counters = {{"net.requests.ok", 3}, {"sched.tasks.total", 19}};
  net::StatsResultMsg Stats2;
  ASSERT_TRUE(net::decode(net::encode(Stats), Stats2));
  EXPECT_EQ(Stats2.Counters, Stats.Counters);

  net::ErrorMsg Error{net::Status::FrameTooLarge, "frame of 99 MiB"};
  net::ErrorMsg Error2;
  ASSERT_TRUE(net::decode(net::encode(Error), Error2));
  EXPECT_EQ(Error2.St, Error.St);
  EXPECT_EQ(Error2.Detail, Error.Detail);
}

TEST(DaemonTest, DecodersRejectTrailingBytesAndWrongTypes) {
  net::Frame F = net::encode(net::CancelMsg{42});
  F.Payload.push_back('\0'); // One stray byte: must be refused whole.
  net::CancelMsg M;
  EXPECT_FALSE(net::decode(F, M));

  net::Frame Hello = net::encode(net::HelloMsg{});
  net::CancelMsg NotACancel;
  EXPECT_FALSE(net::decode(Hello, NotACancel));

  net::Frame Short = net::encode(net::CancelMsg{42});
  Short.Payload.resize(4); // Half a u64.
  EXPECT_FALSE(net::decode(Short, M));
}

//===--- The headline acceptance test -------------------------------------===//

TEST(DaemonTest, RemoteBuildMatchesStandaloneByteForByte) {
  DaemonFixture F;
  workload::GeneratedRequestSet Set = F.makeRequestSet();

  daemon::Daemon Server(F.Files, F.Interner, F.config());
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  auto Client = net::RemoteClient::open(F.SocketPath, Err);
  ASSERT_NE(Client, nullptr) << Err;

  // Byte-identity is asserted per optimization level: the request's
  // OptLevel byte must select the same pipeline a standalone session
  // runs at that level.
  for (opt::OptLevel Level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
    for (const workload::GeneratedProject &P : Set.Projects) {
      build::BuildResult Reference = F.standalone({P.Root}, Level);
      ASSERT_TRUE(Reference.Success) << Reference.DiagnosticText;

      net::BuildRequestMsg Req;
      Req.RequestId = Client->nextRequestId();
      Req.OptLevel = static_cast<uint8_t>(Level);
      Req.Roots = {P.Root};
      net::BuildResultMsg Result;
      ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
      ASSERT_EQ(Result.St, net::Status::Ok) << Result.Diagnostics;

      // Same diagnostics, same modules, same .mco bytes.
      EXPECT_EQ(Result.Diagnostics, Reference.DiagnosticText);
      ASSERT_EQ(Result.Modules.size(), Reference.Modules.size());
      std::map<std::string, std::string> ReferenceBytes;
      for (const build::ModuleBuild &M : Reference.Modules)
        ReferenceBytes[M.Name] = codegen::writeObjectFile(M.Image, F.Interner);
      for (const net::ModuleArtifact &M : Result.Modules) {
        auto It = ReferenceBytes.find(M.Name);
        ASSERT_NE(It, ReferenceBytes.end()) << M.Name;
        EXPECT_EQ(M.Object, It->second)
            << M.Name << ": remote image differs from cold standalone build"
            << " at " << opt::optLevelName(Level);
      }
    }
  }
  Server.stop();
}

TEST(DaemonTest, RemoteBuildOverTcpLoopback) {
  DaemonFixture F;
  workload::GeneratedRequestSet Set = F.makeRequestSet(1);
  daemon::DaemonConfig Config = F.config();
  Config.UnixSocketPath.clear();
  Config.EnableTcp = true;
  Config.TcpPort = 0; // Ephemeral; read back from the daemon.

  daemon::Daemon Server(F.Files, F.Interner, Config);
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;
  ASSERT_NE(Server.tcpPort(), 0);

  auto Client = net::RemoteClient::open(
      "tcp:127.0.0.1:" + std::to_string(Server.tcpPort()), Err);
  ASSERT_NE(Client, nullptr) << Err;
  ASSERT_TRUE(Client->ping(Err)) << Err;

  net::BuildRequestMsg Req;
  Req.RequestId = Client->nextRequestId();
  Req.Roots = {Set.Projects.front().Root};
  net::BuildResultMsg Result;
  ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
  EXPECT_EQ(Result.St, net::Status::Ok) << Result.Diagnostics;
  EXPECT_FALSE(Result.Modules.empty());
  Server.stop();
}

TEST(DaemonTest, PushedFilesDefineTheBuild) {
  // The daemon starts over an EMPTY workspace; everything the build needs
  // arrives inline in the BUILD frame (PROTOCOL.md §9).
  DaemonFixture F;
  daemon::Daemon Server(F.Files, F.Interner, F.config());
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  auto Client = net::RemoteClient::open(F.SocketPath, Err);
  ASSERT_NE(Client, nullptr) << Err;

  net::BuildRequestMsg Req;
  Req.RequestId = Client->nextRequestId();
  Req.Roots = {"Hello"};
  Req.Files = {{"Hello.mod", "MODULE Hello;\n"
                             "BEGIN WriteString('hi'); WriteLn\n"
                             "END Hello.\n"}};
  net::BuildResultMsg Result;
  ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
  EXPECT_EQ(Result.St, net::Status::Ok) << Result.Diagnostics;
  ASSERT_EQ(Result.Modules.size(), 1u);
  EXPECT_EQ(Result.Modules[0].Name, "Hello");

  // A later push of the same name replaces it (last writer wins).
  net::BuildRequestMsg Req2;
  Req2.RequestId = Client->nextRequestId();
  Req2.Roots = {"Hello"};
  Req2.Files = {{"Hello.mod", "MODULE Hello;\n"
                              "BEGIN this is not Modula\n"
                              "END Hello.\n"}};
  net::BuildResultMsg Result2;
  ASSERT_TRUE(Client->build(Req2, Result2, Err)) << Err;
  EXPECT_EQ(Result2.St, net::Status::BuildFailed);
  EXPECT_FALSE(Result2.Diagnostics.empty());
  Server.stop();
}

TEST(DaemonTest, BuildFailureCarriesStandaloneDiagnostics) {
  DaemonFixture F;
  F.Files.addFile("Broken.mod", "MODULE Broken;\n"
                                "BEGIN x := ;\n"
                                "END Broken.\n");
  build::BuildResult Reference = F.standalone({"Broken"});
  ASSERT_FALSE(Reference.Success);

  daemon::Daemon Server(F.Files, F.Interner, F.config());
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;
  auto Client = net::RemoteClient::open(F.SocketPath, Err);
  ASSERT_NE(Client, nullptr) << Err;

  net::BuildRequestMsg Req;
  Req.RequestId = Client->nextRequestId();
  Req.Roots = {"Broken"};
  net::BuildResultMsg Result;
  ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
  EXPECT_EQ(Result.St, net::Status::BuildFailed);
  EXPECT_EQ(Result.Diagnostics, Reference.DiagnosticText);
  EXPECT_TRUE(Result.Modules.empty());
  Server.stop();
}

//===--- The front door, daemon and farm alike -----------------------------===//

/// The server behind each front-door test, by parameter: an in-process
/// daemon, or a 1-worker farm coordinator relaying to a real m2cd
/// process.  Both answer through the one net::Server, so the handshake,
/// frame-level and cancel answers must be the same; only the counter
/// prefix differs.
class FrontDoorTest : public ::testing::TestWithParam<std::string> {
protected:
  ~FrontDoorTest() override {
    Hold.open(); // A failed assertion must not leave stop() waiting.
    Daemon.reset();
    Farm.reset();
    std::error_code EC;
    std::filesystem::remove_all(F.SocketPath + ".d", EC);
  }

  bool isFarm() const { return GetParam() == "farm"; }

  /// Starts the server.  \p HoldFirstBuild parks the first BUILD: on
  /// the daemon's gate until release(), inside the farm's worker process
  /// for a second (an injected delay).
  void start(bool HoldFirstBuild = false) {
    std::string Err;
    if (!isFarm()) {
      daemon::DaemonConfig Config = F.config();
      if (HoldFirstBuild)
        Config.OnBuildStart = [this](uint64_t) {
          if (Started.fetch_add(1) == 0)
            Hold.wait();
        };
      Daemon = std::make_unique<daemon::Daemon>(F.Files, F.Interner, Config);
      ASSERT_TRUE(Daemon->start(Err)) << Err;
      return;
    }
    farm::FarmConfig Config;
    Config.UnixSocketPath = F.SocketPath;
    Config.Workers = 1;
    Config.Worker.Workspace = F.SocketPath + ".d"; // Builds push sources.
    Config.Worker.Jobs = 1;
    if (HoldFirstBuild)
      Config.Worker.Env = {{"M2C_FAULTS", "daemon.build=delay:1000ms@1"}};
    Farm = std::make_unique<farm::Farm>(Config);
    ASSERT_TRUE(Farm->start(Err)) << Err;
  }

  /// Waits until the held first BUILD is parked.  A farm's needs no
  /// wait: its worker holds it for a second, far longer than the
  /// coordinator takes to read the frames the test sends after it.
  void awaitHeld() {
    while (!isFarm() && Started.load() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  void release() { Hold.open(); }

  void stop() {
    if (Daemon)
      Daemon->stop();
    if (Farm)
      Farm->stop();
  }

  std::map<std::string, uint64_t> stats() {
    return Daemon ? Daemon->statsSnapshot() : Farm->statsSnapshot();
  }

  /// This server's own counter \p Name: "net.<Name>" or "farm.<Name>".
  std::string name(const std::string &Name) const {
    return (isFarm() ? "farm." : "net.") + Name;
  }
  uint64_t counter(const std::string &Name) {
    return DaemonFixture::stat(stats(), name(Name));
  }
  bool waitForCounter(const std::string &Name, uint64_t AtLeast) {
    return DaemonFixture::waitForCounter([this] { return stats(); },
                                         name(Name), AtLeast);
  }

  /// A BUILD of a one-line module pushed inline, so that a farm's worker
  /// process sees the same source as the in-process daemon.
  static net::BuildRequestMsg tinyBuild(net::RemoteClient &Client) {
    net::BuildRequestMsg Req;
    Req.RequestId = Client.nextRequestId();
    Req.Roots = {"Tiny"};
    Req.Files = {{"Tiny.mod", "MODULE Tiny; BEGIN END Tiny.\n"}};
    return Req;
  }

  DaemonFixture F;
  Gate Hold;
  std::atomic<int> Started{0};
  std::unique_ptr<daemon::Daemon> Daemon;
  std::unique_ptr<farm::Farm> Farm;
};

INSTANTIATE_TEST_SUITE_P(Server, FrontDoorTest,
                         ::testing::Values("daemon", "farm"),
                         [](const auto &Info) { return Info.param; });

TEST_P(FrontDoorTest, VersionMismatchIsRefused) {
  start();
  std::string Err;
  net::Socket S = net::Socket::connectUnix(F.SocketPath, Err);
  ASSERT_TRUE(S.valid()) << Err;
  ASSERT_TRUE(S.sendFrame(net::encode(net::HelloMsg{99, 99})));
  net::Frame Reply;
  ASSERT_EQ(S.recvFrame(Reply), net::Socket::RecvStatus::Ok);
  ASSERT_EQ(Reply.Type, net::MsgType::Error);
  net::ErrorMsg E;
  ASSERT_TRUE(net::decode(Reply, E));
  EXPECT_EQ(E.St, net::Status::UnsupportedVersion);
  // The server hangs up after the refusal.
  EXPECT_EQ(S.recvFrame(Reply), net::Socket::RecvStatus::Closed);
  stop();
}

TEST_P(FrontDoorTest, FirstFrameMustBeHello) {
  start();
  std::string Err;
  net::Socket S = net::Socket::connectUnix(F.SocketPath, Err);
  ASSERT_TRUE(S.valid()) << Err;
  ASSERT_TRUE(S.sendFrame(net::encodePing(1)));
  net::Frame Reply;
  ASSERT_EQ(S.recvFrame(Reply), net::Socket::RecvStatus::Ok);
  net::ErrorMsg E;
  ASSERT_TRUE(net::decode(Reply, E));
  EXPECT_EQ(E.St, net::Status::Malformed);
  EXPECT_TRUE(waitForCounter("frames.malformed", 1));
  stop();
}

TEST_P(FrontDoorTest, TruncatedFrameIsCountedAndIsolated) {
  start();
  {
    net::Socket S = F.rawHandshake();
    // Announce a 100-byte PING, deliver only 3 bytes, hang up mid-frame.
    std::string Partial = net::wireBytes(net::encodePing(7)).substr(0, 8);
    Partial[0] = 100; // Rewrite the length prefix (little-endian low byte).
    ASSERT_TRUE(S.sendAll(Partial.data(), Partial.size()));
    S.close();
  }
  EXPECT_TRUE(waitForCounter("frames.truncated", 1));

  // The damage is confined to that connection: a well-behaved client on a
  // fresh one still builds.
  std::string Err;
  auto Client = net::RemoteClient::open(F.SocketPath, Err);
  ASSERT_NE(Client, nullptr) << Err;
  net::BuildResultMsg Result;
  ASSERT_TRUE(Client->build(tinyBuild(*Client), Result, Err)) << Err;
  EXPECT_EQ(Result.St, net::Status::Ok) << Result.Diagnostics;
  stop();
}

TEST_P(FrontDoorTest, OversizedFrameIsRefused) {
  start();
  net::Socket S = F.rawHandshake();
  // A length prefix past the 64 MiB cap; no payload need follow.
  uint32_t Huge = net::MaxFrameBytes + 1;
  unsigned char Prefix[4] = {static_cast<unsigned char>(Huge & 0xFF),
                             static_cast<unsigned char>((Huge >> 8) & 0xFF),
                             static_cast<unsigned char>((Huge >> 16) & 0xFF),
                             static_cast<unsigned char>((Huge >> 24) & 0xFF)};
  ASSERT_TRUE(S.sendAll(Prefix, sizeof(Prefix)));
  net::Frame Reply;
  ASSERT_EQ(S.recvFrame(Reply), net::Socket::RecvStatus::Ok);
  net::ErrorMsg E;
  ASSERT_TRUE(net::decode(Reply, E));
  EXPECT_EQ(E.St, net::Status::FrameTooLarge);
  EXPECT_EQ(S.recvFrame(Reply), net::Socket::RecvStatus::Closed);
  EXPECT_TRUE(waitForCounter("frames.toolarge", 1));
  stop();
}

TEST_P(FrontDoorTest, UnknownMessageTypeKeepsConnectionUsable) {
  start();
  net::Socket S = F.rawHandshake();
  net::Frame Bogus;
  Bogus.Type = static_cast<net::MsgType>(0x33);
  Bogus.Payload = "whatever";
  ASSERT_TRUE(S.sendFrame(Bogus));
  net::Frame Reply;
  ASSERT_EQ(S.recvFrame(Reply), net::Socket::RecvStatus::Ok);
  net::ErrorMsg E;
  ASSERT_TRUE(net::decode(Reply, E));
  EXPECT_EQ(E.St, net::Status::UnknownType);

  // Same connection, next frame: still served.
  ASSERT_TRUE(S.sendFrame(net::encodePing(99)));
  ASSERT_EQ(S.recvFrame(Reply), net::Socket::RecvStatus::Ok);
  ASSERT_EQ(Reply.Type, net::MsgType::Pong);
  net::PingMsg Pong;
  ASSERT_TRUE(net::decode(Reply, Pong));
  EXPECT_EQ(Pong.Token, 99u);
  EXPECT_EQ(counter("frames.unknown"), 1u);
  stop();
}

TEST_P(FrontDoorTest, CancelRacingCompletionRepliesExactlyOnce) {
  start(/*HoldFirstBuild=*/true);
  std::string Err;
  auto Client = net::RemoteClient::open(F.SocketPath, Err);
  ASSERT_NE(Client, nullptr) << Err;
  net::BuildRequestMsg Req = tinyBuild(*Client);
  uint64_t Id = Req.RequestId;
  ASSERT_TRUE(Client->startBuild(Req, Err)) << Err;
  awaitHeld();

  ASSERT_TRUE(Client->cancel(Id));
  net::BuildResultMsg Result;
  ASSERT_TRUE(Client->awaitResult(Id, Result, Err)) << Err;
  EXPECT_EQ(Result.St, net::Status::Cancelled);
  release(); // The held build finds the request abandoned and stays mute.

  // CANCEL for an id that is no longer in flight is a silent no-op.
  ASSERT_TRUE(Client->cancel(Id));
  EXPECT_TRUE(waitForCounter("cancels.unknown", 1));

  net::BuildResultMsg Result2;
  ASSERT_TRUE(Client->build(tinyBuild(*Client), Result2, Err)) << Err;
  EXPECT_EQ(Result2.St, net::Status::Ok) << Result2.Diagnostics;

  EXPECT_EQ(counter("requests.cancelled"), 1u);
  EXPECT_EQ(counter("requests.ok"), 1u);
  stop();
}

//===--- Deadlines, cancellation, shed, drain ------------------------------===//

TEST(DaemonTest, DeadlineExpiryMidBuildRepliesAndDaemonStaysHealthy) {
  DaemonFixture F;
  F.Files.addFile("Tiny.mod", "MODULE Tiny; BEGIN END Tiny.\n");
  Gate Hold;
  daemon::DaemonConfig Config = F.config();
  std::atomic<int> Started{0};
  Config.OnBuildStart = [&](uint64_t) {
    if (Started.fetch_add(1) == 0) // Hold only the first build.
      Hold.wait();
  };
  daemon::Daemon Server(F.Files, F.Interner, Config);
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  auto Client = net::RemoteClient::open(F.SocketPath, Err);
  ASSERT_NE(Client, nullptr) << Err;
  net::BuildRequestMsg Req;
  Req.RequestId = Client->nextRequestId();
  Req.DeadlineMs = 30; // Expires while the build is parked on the gate.
  Req.Roots = {"Tiny"};
  net::BuildResultMsg Result;
  ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
  EXPECT_EQ(Result.St, net::Status::DeadlineExceeded);

  Hold.open(); // Let the parked thread run into its abandonment check.

  // Exactly one reply happened, and the daemon still serves.
  net::BuildRequestMsg Req2;
  Req2.RequestId = Client->nextRequestId();
  Req2.Roots = {"Tiny"};
  net::BuildResultMsg Result2;
  ASSERT_TRUE(Client->build(Req2, Result2, Err)) << Err;
  EXPECT_EQ(Result2.St, net::Status::Ok) << Result2.Diagnostics;
  auto Stats = Server.statsSnapshot();
  EXPECT_EQ(DaemonFixture::stat(Stats, "net.requests.deadline"), 1u);
  EXPECT_EQ(DaemonFixture::stat(Stats, "net.requests.ok"), 1u);
  Server.stop();
}

TEST(DaemonTest, OverloadShedsWithRejectedOverload) {
  DaemonFixture F;
  F.Files.addFile("Tiny.mod", "MODULE Tiny; BEGIN END Tiny.\n");
  Gate Hold;
  daemon::DaemonConfig Config = F.config();
  Config.MaxPendingBuilds = 1; // The held build fills the whole queue.
  std::atomic<int> Started{0};
  Config.OnBuildStart = [&](uint64_t) {
    if (Started.fetch_add(1) == 0)
      Hold.wait();
  };
  daemon::Daemon Server(F.Files, F.Interner, Config);
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  auto ClientA = net::RemoteClient::open(F.SocketPath, Err);
  ASSERT_NE(ClientA, nullptr) << Err;
  uint64_t HeldId = ClientA->nextRequestId();
  net::BuildRequestMsg Held;
  Held.RequestId = HeldId;
  Held.Roots = {"Tiny"};
  ASSERT_TRUE(ClientA->startBuild(Held, Err)) << Err;
  while (Started.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // The queue is provably full now: the next BUILD must shed immediately.
  auto ClientB = net::RemoteClient::open(F.SocketPath, Err);
  ASSERT_NE(ClientB, nullptr) << Err;
  net::BuildRequestMsg Shed;
  Shed.RequestId = ClientB->nextRequestId();
  Shed.Roots = {"Tiny"};
  net::BuildResultMsg ShedResult;
  ASSERT_TRUE(ClientB->build(Shed, ShedResult, Err)) << Err;
  EXPECT_EQ(ShedResult.St, net::Status::RejectedOverload);

  Hold.open();
  net::BuildResultMsg HeldResult;
  ASSERT_TRUE(ClientA->awaitResult(HeldId, HeldResult, Err)) << Err;
  EXPECT_EQ(HeldResult.St, net::Status::Ok) << HeldResult.Diagnostics;

  auto Stats = Server.statsSnapshot();
  EXPECT_EQ(DaemonFixture::stat(Stats, "net.requests.shed"), 1u);
  Server.stop();
}

TEST(DaemonTest, DrainFinishesInFlightRefusesNewAndLeavesNoTempFiles) {
  DaemonFixture F;
  F.Files.addFile("Tiny.mod", "MODULE Tiny; BEGIN END Tiny.\n");
  std::string CacheDir =
      (std::filesystem::temp_directory_path() /
       ("m2cd-drain-cache-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(CacheDir);

  Gate Hold;
  daemon::DaemonConfig Config = F.config();
  Config.Service.CacheDir = CacheDir;
  std::atomic<int> Started{0};
  Config.OnBuildStart = [&](uint64_t) {
    if (Started.fetch_add(1) == 0)
      Hold.wait();
  };
  daemon::Daemon Server(F.Files, F.Interner, Config);
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  auto Client = net::RemoteClient::open(F.SocketPath, Err);
  ASSERT_NE(Client, nullptr) << Err;
  uint64_t HeldId = Client->nextRequestId();
  net::BuildRequestMsg Held;
  Held.RequestId = HeldId;
  Held.Roots = {"Tiny"};
  ASSERT_TRUE(Client->startBuild(Held, Err)) << Err;
  while (Started.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  Server.requestDrain();
  ASSERT_TRUE(Server.draining());

  // New connections are turned away at the door...
  EXPECT_EQ(net::RemoteClient::open(F.SocketPath, Err), nullptr);
  // ...new BUILDs on existing connections answer DRAINING...
  net::BuildRequestMsg Late;
  Late.RequestId = Client->nextRequestId();
  Late.Roots = {"Tiny"};
  ASSERT_TRUE(Client->startBuild(Late, Err)) << Err;
  net::BuildResultMsg LateResult;
  ASSERT_TRUE(Client->awaitResult(Late.RequestId, LateResult, Err)) << Err;
  EXPECT_EQ(LateResult.St, net::Status::Draining);
  // ...but STATS and PING are still served.
  ASSERT_TRUE(Client->ping(Err)) << Err;
  std::map<std::string, uint64_t> Counters;
  ASSERT_TRUE(Client->stats(Counters, Err)) << Err;
  EXPECT_GE(DaemonFixture::stat(Counters, "net.connections.draining"), 1u);

  // The in-flight build is finished, not dropped.
  Hold.open();
  net::BuildResultMsg HeldResult;
  ASSERT_TRUE(Client->awaitResult(HeldId, HeldResult, Err)) << Err;
  EXPECT_EQ(HeldResult.St, net::Status::Ok) << HeldResult.Diagnostics;

  Server.stop();
  // Drain left no half-written artifacts behind: the disk tier's
  // temp-then-rename files must all be gone.
  if (std::filesystem::exists(CacheDir)) {
    for (const auto &Entry : std::filesystem::directory_iterator(CacheDir)) {
      EXPECT_EQ(Entry.path().filename().string().find(".tmp"),
                std::string::npos)
          << "leftover partial cache entry: " << Entry.path();
    }
  }
  std::filesystem::remove_all(CacheDir);
}

TEST(DaemonTest, ClientKilledMidBuildIsSurvivedAndCounted) {
  // The peer-reset case -retry exists for: the client vanishes while its
  // build runs.  The reply write must fail quietly (MSG_NOSIGNAL — no
  // SIGPIPE, m2cd also ignores it belt-and-braces), be counted, and leave
  // the daemon fully serving.
  DaemonFixture F;
  F.Files.addFile("Tiny.mod", "MODULE Tiny; BEGIN END Tiny.\n");
  Gate Hold;
  daemon::DaemonConfig Config = F.config();
  std::atomic<int> Started{0};
  Config.OnBuildStart = [&](uint64_t) {
    if (Started.fetch_add(1) == 0)
      Hold.wait();
  };
  daemon::Daemon Server(F.Files, F.Interner, Config);
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  {
    net::Socket S = F.rawHandshake();
    net::BuildRequestMsg Req;
    Req.RequestId = 1;
    Req.Roots = {"Tiny"};
    ASSERT_TRUE(S.sendFrame(net::encode(Req)));
    while (Started.load() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Die without reading the reply — a kill -9'd client, in effect.
    S.close();
  }
  Hold.open();
  EXPECT_TRUE(F.waitForCounter([&] { return Server.statsSnapshot(); },
                                "net.replies.sendfailed", 1));

  // The daemon is unharmed: a fresh client's build completes normally.
  auto Client = net::RemoteClient::open(F.SocketPath, Err);
  ASSERT_NE(Client, nullptr) << Err;
  net::BuildRequestMsg Req2;
  Req2.RequestId = Client->nextRequestId();
  Req2.Roots = {"Tiny"};
  net::BuildResultMsg Result2;
  ASSERT_TRUE(Client->build(Req2, Result2, Err)) << Err;
  EXPECT_EQ(Result2.St, net::Status::Ok) << Result2.Diagnostics;
  auto Stats = Server.statsSnapshot();
  // The abandoned request still completed and was counted as a build.
  EXPECT_EQ(DaemonFixture::stat(Stats, "net.requests.ok"), 2u);
  EXPECT_EQ(DaemonFixture::stat(Stats, "net.replies.sendfailed"), 1u);
  Server.stop();
}

TEST(DaemonTest, StatsExportsServiceSchedulerAndCacheCounters) {
  DaemonFixture F;
  F.Files.addFile("Tiny.mod", "MODULE Tiny; BEGIN END Tiny.\n");
  daemon::Daemon Server(F.Files, F.Interner, F.config());
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  auto Client = net::RemoteClient::open(F.SocketPath, Err);
  ASSERT_NE(Client, nullptr) << Err;
  net::BuildRequestMsg Req;
  Req.RequestId = Client->nextRequestId();
  Req.Roots = {"Tiny"};
  net::BuildResultMsg Result;
  ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
  ASSERT_EQ(Result.St, net::Status::Ok) << Result.Diagnostics;

  // The wire's view must carry all three counter families the issue
  // names: net.* (daemon), sched.requests.* (scheduler), cache.mem.*
  // (memory artifact tier) — and match the in-process snapshot.
  std::map<std::string, uint64_t> Counters;
  ASSERT_TRUE(Client->stats(Counters, Err)) << Err;
  EXPECT_EQ(DaemonFixture::stat(Counters, "net.requests.ok"), 1u);
  EXPECT_EQ(DaemonFixture::stat(Counters, "net.connections.accepted"), 1u);
  EXPECT_GE(DaemonFixture::stat(Counters, "sched.requests.opened"), 1u);
  EXPECT_GE(DaemonFixture::stat(Counters, "sched.requests.closed"), 1u);
  EXPECT_GE(DaemonFixture::stat(Counters, "cache.mem.store"), 1u);
  EXPECT_GE(DaemonFixture::stat(Counters, "service.requests.submitted"), 1u);

  std::map<std::string, uint64_t> Local = Server.statsSnapshot();
  for (const auto &[Name, Value] : Counters) {
    if (Name.rfind("net.", 0) != 0) { // net.* moves with our own traffic.
      EXPECT_EQ(Local.at(Name), Value) << Name;
    }
  }
  Server.stop();
}

TEST(DaemonTest, WorkerModeAdvertisesItselfInWelcome) {
  // PROTOCOL.md §14: a farm coordinator's readiness probe tells the
  // worker it spawned apart from an unrelated daemon that happens to own
  // the socket path by the WELCOME server string alone.  Everything else
  // about a worker is an ordinary daemon.
  DaemonFixture F;
  F.Files.addFile("Tiny.mod", "MODULE Tiny; BEGIN END Tiny.\n");
  daemon::DaemonConfig Config = F.config();
  Config.WorkerMode = true;
  daemon::Daemon Server(F.Files, F.Interner, Config);
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;

  auto Client = net::RemoteClient::open(F.SocketPath, Err);
  ASSERT_NE(Client, nullptr) << Err;
  EXPECT_EQ(Client->serverName(), "m2cd/1 worker");

  // Worker mode changes the banner, not the service: builds still work.
  net::BuildRequestMsg Req;
  Req.RequestId = Client->nextRequestId();
  Req.Roots = {"Tiny"};
  net::BuildResultMsg Result;
  ASSERT_TRUE(Client->build(Req, Result, Err)) << Err;
  EXPECT_EQ(Result.St, net::Status::Ok) << Result.Diagnostics;
  Server.stop();
}

} // namespace
