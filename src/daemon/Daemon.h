//===--- Daemon.h - m2cd: the network build daemon --------------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The build backend of the network front end (DESIGN.md §11): a
/// net::Server speaks the docs/PROTOCOL.md frame protocol on a
/// unix-domain and/or TCP listener — handshake, admission and shed,
/// deadlines, cancellation, drain — and hands every admitted BUILD to
/// this class, which registers its pushed files and compiles it on the
/// one shared service::BuildService executor and artifact tiers.  STATS
/// answers the service counters merged with the server's net.* set.
///
/// The Daemon is a library class so tests can run it in-process against
/// real sockets; the `m2cd` executable (m2cd.cpp) is a thin main over
/// it that adds SIGTERM-to-drain wiring and workspace preloading.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_DAEMON_DAEMON_H
#define M2C_DAEMON_DAEMON_H

#include "net/Server.h"
#include "service/BuildService.h"

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

namespace m2c::daemon {

/// Everything configurable about one daemon instance, beyond where it
/// listens.
struct DaemonConfig : net::ListenConfig {
  service::ServiceConfig Service;

  /// Connections allowed concurrently; beyond this, accepts are answered
  /// ERROR REJECTED_OVERLOAD and closed (PROTOCOL.md §10).
  unsigned MaxConnections = 32;
  /// Builds queued-or-running daemon-wide; beyond this, BUILDs are
  /// answered BUILD_RESULT REJECTED_OVERLOAD — the 429-style shed that
  /// keeps the service's FIFO turnstile from growing an unbounded line.
  unsigned MaxPendingBuilds = 16;

  /// Farm worker mode (PROTOCOL.md §14): the WELCOME server string
  /// becomes "m2cd/1 worker", which is how a coordinator's readiness
  /// probe distinguishes the worker it spawned from some unrelated
  /// daemon squatting on the same socket path.  Protocol semantics are
  /// otherwise identical — a worker is a complete daemon.
  bool WorkerMode = false;

  /// Test instrumentation: called on the build thread after the pending
  /// slot is claimed, before the service submit.  Lets DaemonTest hold
  /// builds on a latch to make shed/cancel/drain races deterministic.
  std::function<void(uint64_t RequestId)> OnBuildStart;
};

/// One running daemon: owns the BuildService and the net::Server in
/// front of it.
class Daemon : private net::Server::Backend {
public:
  Daemon(VirtualFileSystem &Files, StringInterner &Interner,
         DaemonConfig Config);
  ~Daemon() override;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// The front door's life cycle (net::Server): start() binds the
  /// listeners and serves; requestDrain() refuses new work (PROTOCOL.md
  /// §12; `m2cd` calls it on SIGTERM); stop() drains, delivers every
  /// in-flight reply and tears down, and is also run by the destructor.
  bool start(std::string &Err) { return Front.start(Err); }
  void requestDrain() { Front.requestDrain(); }
  bool draining() const { return Front.draining(); }
  void stop() { Front.stop(); }
  /// The TCP listener's bound port (after start()); 0 if TCP is off.
  uint16_t tcpPort() const { return Front.tcpPort(); }

  /// Service counters merged with the daemon's net.* set — what a STATS
  /// request returns.
  std::map<std::string, uint64_t> statsSnapshot();

  service::BuildService &service() { return Service; }

private:
  void build(net::Server::Request &R, net::BuildRequestMsg Msg) override;
  std::map<std::string, uint64_t> stats() override { return statsSnapshot(); }

  VirtualFileSystem &Files;
  StringInterner &Interner;
  const DaemonConfig Config;
  service::BuildService Service;

  /// Writes into the shared VirtualFileSystem (pushed BUILD files) are
  /// serialized so two requests' pushes interleave whole-file.
  std::mutex FilesM;

  /// Last member: destroyed (and so stopped) before the service.
  net::Server Front;
};

} // namespace m2c::daemon

#endif // M2C_DAEMON_DAEMON_H
