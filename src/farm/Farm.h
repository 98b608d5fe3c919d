//===--- Farm.h - affinity-sharded multi-process build farm -----*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-process scaling rung above the daemon (DESIGN.md §15): a
/// coordinator that relays every BUILD to one of N `m2cd -worker`
/// processes over pooled upstream connections.  It is the relay backend
/// of the same net::Server front door the daemon uses, so the farm is a
/// composition layer, not a new protocol — a client cannot tell a
/// coordinator from a daemon (same frames, same invariants, same
/// deadlines, same exactly-one-BUILD_RESULT guarantee).
///
/// Routing: requests shard by module-graph affinity — a hash of the
/// request's sorted root set, which over one shared workspace uniquely
/// identifies the root-module closure — so each worker keeps seeing the
/// same projects and its SharedInterfacePool and memory cache tier stay
/// hot for exactly its shard.  A saturated shard spills to the
/// least-loaded worker; correctness is unaffected (any worker can build
/// anything) and the artifacts the spill target misses in memory it
/// finds in the shared content-addressed DiskCacheStore, which its
/// sibling already populated.
///
/// Failure handling: a worker that dies (crash, OOM-kill, injected
/// fault) takes its in-flight relays' connections with it; each such
/// relay fails over to the remaining workers via net::buildWithRetry
/// with jittered backoff — safe because BUILD is idempotent
/// (RemoteClient.h) — while the health thread respawns the dead worker
/// on the same socket path.  Clients observe nothing but latency.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_FARM_FARM_H
#define M2C_FARM_FARM_H

#include "farm/WorkerProcess.h"
#include "net/ClientPool.h"
#include "net/RemoteClient.h"
#include "net/Server.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace m2c::farm {

/// Everything configurable about one coordinator, beyond where it
/// listens.
struct FarmConfig : net::ListenConfig {
  unsigned Workers = 2; ///< Worker process count (the farm's N).
  /// The fixed worker unit: every worker runs this spec; the
  /// coordinator fills SocketPath per worker under WorkerDir.
  WorkerSpec Worker;
  /// Directory for worker sockets; empty derives "<UnixSocketPath>.d"
  /// or a /tmp directory when only TCP is configured.  Kept short:
  /// sun_path is ~107 bytes.
  std::string WorkerDir;

  unsigned MaxConnections = 64;
  /// Relays queued-or-running farm-wide; beyond it BUILDs are shed with
  /// REJECTED_OVERLOAD exactly like a daemon's MaxPendingBuilds.
  unsigned MaxPendingRelays = 64;
  /// In-flight relays on a worker before its shard spills to the
  /// least-loaded sibling.
  unsigned SpillThreshold = 4;

  /// Failover policy for relays whose worker failed mid-exchange: the
  /// sibling rotation runs under this jittered backoff.  MaxRetries
  /// here is attempts *across* workers, not per worker.
  net::RetryPolicy Retry = {/*MaxRetries=*/5, /*InitialBackoffMs=*/20,
                            /*MaxBackoffMs=*/500, /*Jitter=*/0.5,
                            /*JitterSeed=*/0, /*OnBackoff=*/nullptr};

  unsigned ReadyTimeoutMs = 30000; ///< Spawn-to-handshake budget.
  unsigned HealthIntervalMs = 100; ///< Liveness poll cadence.
  bool AutoRespawn = true;         ///< Respawn dead workers.
};

/// One running coordinator: owns the worker processes, their connection
/// pools, and all protocol threads.  A library class for the same
/// reason Daemon is: tests and benches run farms in-process against
/// real sockets and real worker processes.
class Farm : private net::Server::Backend {
public:
  Farm(FarmConfig Config);
  ~Farm() override;
  Farm(const Farm &) = delete;
  Farm &operator=(const Farm &) = delete;

  /// Spawns the workers, waits for their readiness handshakes, binds
  /// the client listeners and starts serving.  False + \p Err on any
  /// failure (everything already spawned is torn down).
  bool start(std::string &Err);

  /// Enters drain: refuse new connections and BUILDs, finish in-flight
  /// relays.  Workers keep running — they are what finishes the
  /// in-flight work.  Idempotent.
  void requestDrain() { Front.requestDrain(); }

  bool draining() const { return Front.draining(); }

  /// Drains, waits for every in-flight relay's reply, tears down the
  /// protocol threads, then cascades SIGTERM to the workers and reaps
  /// them (SIGKILL after a grace period).  Idempotent.
  void stop();

  /// The TCP listener's bound port (after start()); 0 if TCP is off.
  uint16_t tcpPort() const { return Front.tcpPort(); }

  unsigned workerCount() const { return static_cast<unsigned>(Slots.size()); }
  pid_t workerPid(unsigned I);

  /// Chaos/testing hook: SIGKILL worker \p I (the health thread will
  /// respawn it if AutoRespawn).  False if \p I is out of range.
  bool killWorker(unsigned I);

  /// The farm's own counters (farm.*) plus pool usage.
  std::map<std::string, uint64_t> statsSnapshot();

  /// What a STATS request answers: every reachable worker's counters
  /// summed together, plus statsSnapshot().  Cross-process aggregation
  /// happens here and nowhere else.
  std::map<std::string, uint64_t> aggregatedStats();

  /// Deterministic affinity: FNV-1a over the sorted root set, mod \p N.
  /// Over one shared workspace the sorted roots uniquely identify the
  /// request's module-graph closure, so equal closures always land on
  /// the same worker.
  static unsigned affinityShard(const std::vector<std::string> &Roots,
                                unsigned N);

private:
  /// One worker slot: the process (respawned in place), its connection
  /// pool (address never changes), and its load.
  struct WorkerSlot {
    std::string SocketPath;
    std::unique_ptr<net::ClientPool> Pool;
    std::atomic<unsigned> InFlight{0};
    std::mutex ProcM; ///< Guards Proc (health thread vs stop/kill).
    std::unique_ptr<WorkerProcess> Proc;
  };

  bool spawnWorker(WorkerSlot &Slot, std::string &Err);
  /// SIGKILLs and reaps every worker still running: after a failed
  /// start, and after stop()'s SIGTERM grace period.
  void killWorkers();
  void healthLoop();

  /// Relays one admitted BUILD: the routed worker over its pool, then
  /// failover across the siblings.
  void build(net::Server::Request &R, net::BuildRequestMsg Msg) override;
  std::map<std::string, uint64_t> stats() override {
    return aggregatedStats();
  }

  /// Picks the worker for a fresh relay: the affinity shard unless its
  /// in-flight load is at SpillThreshold and a strictly less loaded
  /// sibling exists.  Returns the worker index; \p Spilled reports
  /// which path was taken.
  unsigned routeWorker(unsigned Shard, bool &Spilled);

  const FarmConfig Config;

  std::vector<std::unique_ptr<WorkerSlot>> Slots;
  std::thread HealthThread;
  std::atomic<bool> StopHealth{false};
  std::mutex HealthM;                ///< Pairs with HealthCv only.
  std::condition_variable HealthCv;  ///< Wakes healthLoop() on stop().

  bool Started = false, Stopped = false;

  /// Last member: destroyed (and so stopped) before the worker slots.
  net::Server Front;
};

} // namespace m2c::farm

#endif // M2C_FARM_FARM_H
