//===--- m2cd.cpp - network build daemon executable -----------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// The long-lived build daemon: serves docs/PROTOCOL.md over a unix-domain
// socket (and optionally TCP) until SIGTERM/SIGINT, then drains — finishes
// every in-flight build, refuses new work, exits 0.
//
//   m2cd -socket PATH [options]
//     -socket PATH   unix-domain socket to listen on
//     -tcp PORT      additionally listen on 127.0.0.1:PORT (0 = ephemeral,
//                    the chosen port is printed)
//     -C DIR         workspace: preload every .def/.mod under DIR
//                    (default "."); clients may also push sources inline
//     -j N           workers of the shared executor (default 4)
//     -dky S         avoidance | pessimistic | skeptical | optimistic
//     -cache DIR     persistent disk cache below the in-memory tier
//     -max-active N  concurrently *running* requests (FIFO beyond; default 8)
//     -max-pending N queued-or-running bound; beyond it BUILDs are shed
//                    with REJECTED_OVERLOAD (default 16)
//     -max-conns N   concurrent connections; beyond it accepts are shed
//                    (default 32)
//     -mem-tier BYTES in-memory cache tier budget (default 64 MiB) — farm
//                    workers run with a fixed budget so a worker is a
//                    provisionable unit
//     -pool-cap N    bound on distinct .def files one shared-interface
//                    generation may pool (default unbounded); exceeding it
//                    rotates the generation
//     -worker        farm worker mode: WELCOME advertises "m2cd/1 worker"
//                    so the spawning coordinator's readiness probe can
//                    tell its worker from an unrelated daemon
//
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace m2c;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: m2cd -socket PATH [-tcp PORT] [-C DIR] [-j N] "
               "[-dky STRATEGY] [-cache DIR] [-max-active N] "
               "[-max-pending N] [-max-conns N] [-mem-tier BYTES] "
               "[-pool-cap N] [-worker]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  daemon::DaemonConfig Config;
  std::string Workspace = ".";
  bool HaveListener = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto IntArg = [&](unsigned &Out) {
      if (I + 1 >= Argc)
        return false;
      int V = std::atoi(Argv[++I]);
      if (V <= 0)
        return false;
      Out = static_cast<unsigned>(V);
      return true;
    };
    if (Arg == "-socket" && I + 1 < Argc) {
      Config.UnixSocketPath = Argv[++I];
      HaveListener = true;
    } else if (Arg == "-tcp" && I + 1 < Argc) {
      int Port = std::atoi(Argv[++I]);
      if (Port < 0 || Port > 65535)
        return usage();
      Config.EnableTcp = true;
      Config.TcpPort = static_cast<uint16_t>(Port);
      HaveListener = true;
    } else if (Arg == "-C" && I + 1 < Argc) {
      Workspace = Argv[++I];
    } else if (Arg == "-j") {
      if (!IntArg(Config.Service.Workers))
        return usage();
    } else if (Arg == "-dky" && I + 1 < Argc) {
      std::string S = Argv[++I];
      if (S == "avoidance")
        Config.Service.Strategy = symtab::DkyStrategy::Avoidance;
      else if (S == "pessimistic")
        Config.Service.Strategy = symtab::DkyStrategy::Pessimistic;
      else if (S == "skeptical")
        Config.Service.Strategy = symtab::DkyStrategy::Skeptical;
      else if (S == "optimistic")
        Config.Service.Strategy = symtab::DkyStrategy::Optimistic;
      else
        return usage();
    } else if (Arg == "-cache" && I + 1 < Argc) {
      Config.Service.CacheDir = Argv[++I];
    } else if (Arg == "-max-active") {
      if (!IntArg(Config.Service.MaxActiveRequests))
        return usage();
    } else if (Arg == "-max-pending") {
      if (!IntArg(Config.MaxPendingBuilds))
        return usage();
    } else if (Arg == "-max-conns") {
      if (!IntArg(Config.MaxConnections))
        return usage();
    } else if (Arg == "-mem-tier" && I + 1 < Argc) {
      long long Bytes = std::atoll(Argv[++I]);
      if (Bytes < 0)
        return usage();
      Config.Service.MemoryTierBytes = static_cast<size_t>(Bytes);
    } else if (Arg == "-pool-cap") {
      if (!IntArg(Config.Service.MaxPooledInterfaces))
        return usage();
    } else if (Arg == "-worker") {
      Config.WorkerMode = true;
    } else {
      return usage();
    }
  }
  if (!HaveListener)
    return usage();

  VirtualFileSystem Files;
  StringInterner Names;
  size_t Preloaded = 0;
  std::error_code EC;
  for (const auto &Entry :
       std::filesystem::directory_iterator(Workspace, EC)) {
    if (!Entry.is_regular_file())
      continue;
    std::string Ext = Entry.path().extension().string();
    if (Ext != ".def" && Ext != ".mod")
      continue;
    // Register under the bare file name — module lookup is by
    // "Module.def"/"Module.mod", not by path.
    std::ifstream In(Entry.path(), std::ios::binary);
    if (!In)
      continue;
    std::ostringstream Text;
    Text << In.rdbuf();
    Files.addFile(Entry.path().filename().string(), Text.str());
    ++Preloaded;
  }
  if (EC) {
    std::fprintf(stderr, "m2cd: cannot read workspace '%s': %s\n",
                 Workspace.c_str(), EC.message().c_str());
    return 1;
  }

  daemon::Daemon Server(Files, Names, Config);
  std::string Err;
  if (!Server.start(Err)) {
    std::fprintf(stderr, "m2cd: %s\n", Err.c_str());
    return 1;
  }
  if (!Config.UnixSocketPath.empty())
    std::printf("m2cd: listening on %s\n", Config.UnixSocketPath.c_str());
  if (Config.EnableTcp)
    std::printf("m2cd: listening on tcp:127.0.0.1:%u\n", Server.tcpPort());
  std::printf("m2cd: workspace '%s' (%zu files), %u workers, "
              "%u max-active, %u max-pending, %u max-conns\n",
              Workspace.c_str(), Preloaded, Config.Service.Workers,
              Config.Service.MaxActiveRequests, Config.MaxPendingBuilds,
              Config.MaxConnections);
  std::fflush(stdout);

  net::waitForTermination();

  std::printf("m2cd: draining (finishing in-flight builds)\n");
  std::fflush(stdout);
  Server.stop();
  std::printf("m2cd: bye\n");
  return 0;
}
