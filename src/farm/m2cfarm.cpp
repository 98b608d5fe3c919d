//===--- m2cfarm.cpp - build farm coordinator executable ------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// The multi-process build farm coordinator: spawns N `m2cd -worker`
// processes over one shared workspace and disk cache, serves the ordinary
// docs/PROTOCOL.md wire protocol to clients, and relays every BUILD to a
// worker picked by module-graph affinity.  SIGTERM/SIGINT drains: every
// in-flight relay gets its reply, then the drain cascades as SIGTERM to
// the workers.
//
//   m2cfarm -socket PATH [options]
//     -socket PATH   unix-domain socket clients connect to; worker sockets
//                    live under PATH.d/
//     -tcp PORT      additionally listen on 127.0.0.1:PORT (0 = ephemeral,
//                    the chosen port is printed)
//     -workers N     worker m2cd processes (default 2)
//     -m2cd PATH     worker executable (default: auto-resolve next to this
//                    binary, then $M2C_M2CD, then PATH)
//     -C DIR         workspace every worker preloads (default ".")
//     -cache DIR     shared content-addressed disk cache — the farm's
//                    cross-worker artifact reuse; strongly recommended
//     -worker-j N    executor threads per worker (default 2)
//     -mem-tier BYTES per-worker in-memory cache tier budget
//     -pool-cap N    per-worker shared-interface pool bound
//     -spill N       in-flight relays on a worker before its affinity
//                    shard spills to the least-loaded sibling (default 4)
//     -max-conns N   concurrent client connections (default 64)
//     -max-pending N queued-or-running relays farm-wide; beyond it BUILDs
//                    are shed with REJECTED_OVERLOAD (default 64)
//
//===----------------------------------------------------------------------===//

#include "farm/Farm.h"

#include <cstdio>
#include <cstdlib>

using namespace m2c;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: m2cfarm -socket PATH [-tcp PORT] [-workers N] "
               "[-m2cd PATH] [-C DIR] [-cache DIR] [-worker-j N] "
               "[-mem-tier BYTES] [-pool-cap N] [-spill N] [-max-conns N] "
               "[-max-pending N]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  farm::FarmConfig Config;
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
    } else if (Arg == "-workers") {
      if (!IntArg(Config.Workers))
        return usage();
    } else if (Arg == "-m2cd" && I + 1 < Argc) {
      Config.Worker.M2cdPath = Argv[++I];
    } else if (Arg == "-C" && I + 1 < Argc) {
      Config.Worker.Workspace = Argv[++I];
    } else if (Arg == "-cache" && I + 1 < Argc) {
      Config.Worker.CacheDir = Argv[++I];
    } else if (Arg == "-worker-j") {
      if (!IntArg(Config.Worker.Jobs))
        return usage();
    } else if (Arg == "-mem-tier" && I + 1 < Argc) {
      long long Bytes = std::atoll(Argv[++I]);
      if (Bytes < 0)
        return usage();
      Config.Worker.MemTierBytes = static_cast<size_t>(Bytes);
    } else if (Arg == "-pool-cap") {
      if (!IntArg(Config.Worker.PoolCap))
        return usage();
    } else if (Arg == "-spill") {
      if (!IntArg(Config.SpillThreshold))
        return usage();
    } else if (Arg == "-max-conns") {
      if (!IntArg(Config.MaxConnections))
        return usage();
    } else if (Arg == "-max-pending") {
      if (!IntArg(Config.MaxPendingRelays))
        return usage();
    } else {
      return usage();
    }
  }
  if (!HaveListener)
    return usage();

  farm::Farm Coordinator(Config);
  std::string Err;
  if (!Coordinator.start(Err)) {
    std::fprintf(stderr, "m2cfarm: %s\n", Err.c_str());
    return 1;
  }
  if (!Config.UnixSocketPath.empty())
    std::printf("m2cfarm: listening on %s\n", Config.UnixSocketPath.c_str());
  if (Config.EnableTcp)
    std::printf("m2cfarm: listening on tcp:127.0.0.1:%u\n",
                Coordinator.tcpPort());
  std::printf("m2cfarm: %u workers over workspace '%s'%s%s\n",
              Coordinator.workerCount(), Config.Worker.Workspace.c_str(),
              Config.Worker.CacheDir.empty() ? "" : ", shared cache ",
              Config.Worker.CacheDir.c_str());
  std::fflush(stdout);

  net::waitForTermination();

  std::printf("m2cfarm: draining (finishing in-flight relays)\n");
  std::fflush(stdout);
  Coordinator.stop();
  std::printf("m2cfarm: bye\n");
  return 0;
}
