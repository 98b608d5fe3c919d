//===--- Server.h - the one client-facing protocol front door ---*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server side of docs/PROTOCOL.md, written once for every process
/// that answers clients (DESIGN.md §11): `m2cd` and the `m2cfarm`
/// coordinator differ only in what happens to an admitted BUILD, so
/// everything else lives here — listeners with connection shedding, the
/// HELLO/WELCOME handshake, the frame loop and its answers to malformed,
/// truncated, oversized and unknown frames, admission (drain gate and
/// pending-build shed), the per-request exactly-one-BUILD_RESULT claim,
/// deadlines, CANCEL, build-thread reaping, drain and stop.
///
/// What to do with an admitted BUILD is a Backend: daemon::Daemon
/// compiles it, farm::Farm relays it to a worker.  The backend answers
/// through Request::reply(); a deadline or CANCEL that answers first
/// abandons the request, which the backend observes as abandoned().
///
/// Threading: one poll()-based accept thread per listener, one reader
/// thread per connection, one (joinable, reaped) thread per admitted
/// BUILD running Backend::build, and one deadline-monitor thread.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_NET_SERVER_H
#define M2C_NET_SERVER_H

#include "net/Protocol.h"
#include "net/Socket.h"
#include "support/Statistic.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace m2c::net {

/// Where a server listens; DaemonConfig and FarmConfig extend it.
struct ListenConfig {
  std::string UnixSocketPath; ///< Empty: no unix listener.
  bool EnableTcp = false;
  uint16_t TcpPort = 0; ///< 0 with EnableTcp: ephemeral (see tcpPort()).
};

class Server {
  struct Connection;

public:
  /// One admitted BUILD.  Shared by its build thread, the connection
  /// reader (CANCEL) and the deadline monitor; whoever claims the reply
  /// first sends the one BUILD_RESULT.
  class Request {
  public:
    /// True once the one BUILD_RESULT has been sent; before the backend
    /// replies, that means a deadline or CANCEL abandoned the request.
    bool abandoned() const { return Replied.load(std::memory_order_acquire); }

    /// Sends \p M (under the client's request id) as the one BUILD_RESULT,
    /// counting "<prefix>.<Outcome>".  False, counting
    /// "<prefix>.requests.abandoned", if a reply was already sent.
    bool reply(BuildResultMsg M, const char *Outcome);

  private:
    friend class Server;
    Request(Server &Owner, uint64_t Id, std::shared_ptr<Connection> Conn)
        : Owner(Owner), Id(Id), Conn(std::move(Conn)) {}
    /// The one-reply claim: sends \p M, counting "<prefix>.<Outcome>",
    /// if no reply was sent yet.
    bool claim(BuildResultMsg M, const char *Outcome);

    Server &Owner;
    const uint64_t Id;
    const std::shared_ptr<Connection> Conn;
    std::atomic<bool> Replied{false};
  };

  /// What a server does with the requests only it can answer.
  class Backend {
  public:
    virtual ~Backend() = default;
    /// Runs one admitted BUILD on its own thread.  Answers through
    /// R.reply(); may return without replying only once R.abandoned().
    virtual void build(Request &R, BuildRequestMsg Msg) = 0;
    /// The counters a STATS request answers.
    virtual std::map<std::string, uint64_t> stats() = 0;
  };

  /// \p Prefix names this server's counters ("net" gives
  /// "net.requests.ok"); \p Banner is the WELCOME server string.
  /// Connections beyond \p MaxConnections are refused at accept, BUILDs
  /// beyond \p MaxPending queued-or-running are shed (PROTOCOL.md §10).
  Server(Backend &B, std::string Prefix, std::string Banner,
         ListenConfig Listen, unsigned MaxConnections, unsigned MaxPending);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the listeners and starts serving.  False + \p Err on a
  /// missing or unbindable listener.
  bool start(std::string &Err);

  /// Enters drain (PROTOCOL.md §12): refuse new connections and new
  /// BUILDs, keep serving STATS/PING and every admitted build.
  /// Idempotent.
  void requestDrain() { Draining.store(true, std::memory_order_relaxed); }

  bool draining() const { return Draining.load(std::memory_order_relaxed); }

  /// Drains, waits for every admitted build's reply to be delivered,
  /// then tears all threads down.  Idempotent; called by the destructor.
  void stop();

  /// The TCP listener's bound port (after start()); 0 if TCP is off.
  uint16_t tcpPort() const { return TcpListener.port(); }

  /// This server's counters; backends add theirs to the same set.
  StatisticSet &counters() { return Stats; }

private:
  using Clock = std::chrono::steady_clock;

  struct Connection {
    Socket Sock;
    std::mutex WriteM; ///< Serializes frames onto the socket.
    std::atomic<bool> ReaderDone{false};
    std::mutex ReqM;
    std::map<uint64_t, std::shared_ptr<Request>> InFlight;
  };

  void count(const char *Name) { Stats.add(Prefix + "." + Name); }

  void acceptLoop(Listener &L);
  void serveConnection(const std::shared_ptr<Connection> &Conn);
  bool handshake(Connection &Conn);
  /// Answers one frame; false if the connection must close.
  bool serveFrame(const std::shared_ptr<Connection> &Conn, const Frame &F);
  bool handleBuild(const std::shared_ptr<Connection> &Conn,
                   BuildRequestMsg Msg);
  void handleCancel(Connection &Conn, const CancelMsg &Msg);
  void monitorLoop();

  /// Sends \p F on \p Conn; a failed send is counted and dropped (the
  /// reader sees EOF and winds the connection down).
  void sendFrame(Connection &Conn, const Frame &F);
  /// Sends ERROR \p St, counting "<prefix>.<Counter>" when given.
  void sendError(Connection &Conn, Status St, const std::string &Detail,
                 const char *Counter = nullptr);

  /// Joins finished build threads; \p All also joins running ones.
  void reapBuildThreads(bool All);

  Backend &B;
  const std::string Prefix, Banner;
  const ListenConfig Listen;
  const unsigned MaxConnections, MaxPending;
  StatisticSet Stats;

  Listener UnixListener, TcpListener;
  std::vector<std::thread> AcceptThreads;
  std::thread MonitorThread;

  std::atomic<bool> Draining{false};
  std::atomic<bool> Stopping{false};
  bool Started = false, Stopped = false;

  std::mutex ConnsM;
  /// Connections and their reader threads, reaped once ReaderDone.
  std::vector<std::pair<std::shared_ptr<Connection>, std::thread>> Conns;

  /// Builds queued-or-running (the shed bound) and their joinable
  /// threads, paired with a done flag for opportunistic reaping.
  unsigned PendingBuilds = 0; ///< Guarded by BuildsM.
  std::mutex BuildsM;
  std::condition_variable BuildsCv;
  std::vector<std::pair<std::shared_ptr<std::atomic<bool>>, std::thread>>
      BuildThreads;

  std::mutex DeadlineM;
  std::condition_variable DeadlineCv;
  std::multimap<Clock::time_point, std::weak_ptr<Request>> Deadlines;
};

/// Blocks until SIGTERM or SIGINT, with SIGPIPE ignored: what a server
/// executable (m2cd, m2cfarm) does between start() and its drain.
void waitForTermination();

} // namespace m2c::net

#endif // M2C_NET_SERVER_H
