//===--- Server.cpp - the one client-facing protocol front door -----------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"

#include <csignal>

using namespace m2c;
using namespace m2c::net;

namespace {
volatile std::sig_atomic_t TermRequested = 0;
void onTerm(int) { TermRequested = 1; }
} // namespace

void m2c::net::waitForTermination() {
  std::signal(SIGTERM, onTerm);
  std::signal(SIGINT, onTerm);
  // Belt and braces against peer resets: every send already uses
  // MSG_NOSIGNAL, but any other write to a dead client fd (stdio over a
  // pipe, future code paths) must degrade to EPIPE, never kill a server.
  std::signal(SIGPIPE, SIG_IGN);
  while (!TermRequested)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

Server::Server(Backend &B, std::string Prefix, std::string Banner,
               ListenConfig Listen, unsigned MaxConnections,
               unsigned MaxPending)
    : B(B), Prefix(std::move(Prefix)), Banner(std::move(Banner)),
      Listen(std::move(Listen)), MaxConnections(MaxConnections),
      MaxPending(MaxPending) {}

Server::~Server() { stop(); }

bool Server::start(std::string &Err) {
  if (Started) {
    Err = "server already started";
    return false;
  }
  if (Listen.UnixSocketPath.empty() && !Listen.EnableTcp) {
    Err = "no listener configured (need a unix socket path and/or TCP)";
    return false;
  }
  if (!Listen.UnixSocketPath.empty()) {
    UnixListener = Listener::unixDomain(Listen.UnixSocketPath, Err);
    if (!UnixListener.valid())
      return false;
  }
  if (Listen.EnableTcp) {
    TcpListener = Listener::tcp(Listen.TcpPort, Err);
    if (!TcpListener.valid())
      return false;
  }
  Started = true;
  MonitorThread = std::thread([this] { monitorLoop(); });
  if (UnixListener.valid())
    AcceptThreads.emplace_back([this] { acceptLoop(UnixListener); });
  if (TcpListener.valid())
    AcceptThreads.emplace_back([this] { acceptLoop(TcpListener); });
  return true;
}

void Server::stop() {
  if (!Started || Stopped)
    return;
  Stopped = true;
  requestDrain();

  // Finish in-flight: every admitted BUILD's one reply must be delivered
  // before any socket is torn down (PROTOCOL.md §12).  Admission holds
  // BuildsM and re-checks Draining under it, so once the predicate holds
  // under the lock no further build can appear.
  {
    std::unique_lock<std::mutex> Lock(BuildsM);
    BuildsCv.wait(Lock, [this] { return PendingBuilds == 0; });
    reapBuildThreads(/*All=*/true);
  }

  // Join the accept loops before touching the listener fds: each loop
  // polls with a 100ms timeout and rechecks Stopping, so closing the fd
  // out from under a blocked poll()/accept() is never necessary.
  Stopping.store(true, std::memory_order_relaxed);
  for (std::thread &T : AcceptThreads)
    T.join();
  AcceptThreads.clear();
  UnixListener.close();
  TcpListener.close();

  // Wake connection readers blocked in recv and join them.
  {
    std::lock_guard<std::mutex> Lock(ConnsM);
    for (auto &[Conn, Thread] : Conns) {
      Conn->Sock.shutdownBoth();
      Thread.join();
    }
    Conns.clear();
  }
  {
    std::lock_guard<std::mutex> Lock(DeadlineM);
    Deadlines.clear();
  }
  DeadlineCv.notify_all();
  MonitorThread.join();
}

void Server::sendFrame(Connection &Conn, const Frame &F) {
  std::lock_guard<std::mutex> Lock(Conn.WriteM);
  // MSG_NOSIGNAL means a dead peer can never SIGPIPE the server.
  if (!Conn.Sock.sendFrame(F))
    count("replies.sendfailed");
}

void Server::sendError(Connection &Conn, Status St, const std::string &Detail,
                       const char *Counter) {
  if (Counter)
    count(Counter);
  sendFrame(Conn, encode(ErrorMsg{St, Detail}));
}

//===--- Accepting ---------------------------------------------------------===//

void Server::acceptLoop(Listener &L) {
  while (!Stopping.load(std::memory_order_relaxed)) {
    Socket S;
    switch (L.acceptFor(/*TimeoutMs=*/100, S)) {
    case Listener::AcceptStatus::TimedOut:
      continue;
    case Listener::AcceptStatus::Error:
      return; // Listener closed (stop) or irrecoverably broken.
    case Listener::AcceptStatus::Accepted:
      break;
    }
    if (Draining.load(std::memory_order_relaxed)) {
      count("connections.draining");
      S.sendFrame(encode(ErrorMsg{Status::Draining, "server is draining"}));
      continue; // Socket closes on scope exit.
    }
    std::lock_guard<std::mutex> Lock(ConnsM);
    // Reap connections whose reader already exited: what is left is the
    // live clients the connection bound counts.
    for (size_t I = 0; I < Conns.size();) {
      if (Conns[I].first->ReaderDone.load(std::memory_order_acquire)) {
        Conns[I].second.join();
        Conns.erase(Conns.begin() + static_cast<ptrdiff_t>(I));
      } else {
        ++I;
      }
    }
    if (Conns.size() >= MaxConnections) {
      count("connections.shed");
      S.sendFrame(encode(
          ErrorMsg{Status::RejectedOverload, "connection limit reached"}));
      continue;
    }
    auto Conn = std::make_shared<Connection>();
    Conn->Sock = std::move(S);
    Conns.emplace_back(Conn,
                       std::thread([this, Conn] { serveConnection(Conn); }));
  }
}

//===--- Per-connection protocol -------------------------------------------===//

bool Server::handshake(Connection &Conn) {
  Frame F;
  if (Conn.Sock.recvFrame(F) != Socket::RecvStatus::Ok)
    return false;
  HelloMsg Hello;
  if (!decode(F, Hello)) {
    sendError(Conn, Status::Malformed, "expected HELLO as the first frame",
              "frames.malformed");
    return false;
  }
  if (Hello.MinVersion > ProtocolVersion ||
      Hello.MaxVersion < ProtocolVersion) {
    sendError(Conn, Status::UnsupportedVersion,
              "server implements only version " +
                  std::to_string(ProtocolVersion));
    return false;
  }
  sendFrame(Conn, encode(WelcomeMsg{ProtocolVersion, Banner}));
  count("connections.accepted");
  return true;
}

void Server::serveConnection(const std::shared_ptr<Connection> &Conn) {
  if (handshake(*Conn)) {
    for (;;) {
      Frame F;
      Socket::RecvStatus RS = Conn->Sock.recvFrame(F);
      if (RS == Socket::RecvStatus::Ok) {
        if (!serveFrame(Conn, F))
          break;
        continue;
      }
      if (RS == Socket::RecvStatus::Truncated)
        count("frames.truncated");
      else if (RS == Socket::RecvStatus::TooLarge)
        sendError(*Conn, Status::FrameTooLarge, "frame exceeds 64 MiB",
                  "frames.toolarge");
      else if (RS == Socket::RecvStatus::Malformed)
        sendError(*Conn, Status::Malformed, "zero-length frame",
                  "frames.malformed");
      break; // Closed, Error, or a stream unparseable past this point.
    }
  }
  Conn->Sock.shutdownBoth();
  Conn->ReaderDone.store(true, std::memory_order_release);
}

bool Server::serveFrame(const std::shared_ptr<Connection> &Conn,
                        const Frame &F) {
  switch (F.Type) {
  case MsgType::Build: {
    BuildRequestMsg Msg;
    if (!decode(F, Msg)) {
      sendError(*Conn, Status::Malformed, "undecodable BUILD payload",
                "frames.malformed");
      return false;
    }
    return handleBuild(Conn, std::move(Msg));
  }
  case MsgType::Cancel: {
    CancelMsg Msg;
    if (!decode(F, Msg)) {
      sendError(*Conn, Status::Malformed, "undecodable CANCEL payload",
                "frames.malformed");
      return false;
    }
    handleCancel(*Conn, Msg);
    return true;
  }
  case MsgType::Stats: {
    StatsResultMsg Msg;
    for (const auto &[Name, Value] : B.stats())
      Msg.Counters.emplace_back(Name, Value);
    sendFrame(*Conn, encode(Msg));
    return true;
  }
  case MsgType::Ping: {
    PingMsg Msg;
    if (decode(F, Msg))
      sendFrame(*Conn, encodePong(Msg.Token));
    return true;
  }
  default:
    // Well-formed frame, unknown type: answer and keep going — the
    // framing is still trustworthy (PROTOCOL.md §4).
    sendError(*Conn, Status::UnknownType, "unknown message type",
              "frames.unknown");
    return true;
  }
}

//===--- Builds ------------------------------------------------------------===//

bool Server::handleBuild(const std::shared_ptr<Connection> &Conn,
                         BuildRequestMsg Msg) {
  // Only this reader adds to its connection's InFlight, so an id found
  // absent here stays absent until the insert below.
  bool Duplicate;
  {
    std::lock_guard<std::mutex> Lock(Conn->ReqM);
    Duplicate = Conn->InFlight.count(Msg.RequestId) != 0;
  }
  if (Duplicate) {
    // Duplicate in-flight id: connection-fatal (PROTOCOL.md §5.3).
    sendError(*Conn, Status::Malformed, "request id already in flight",
              "frames.malformed");
    return false;
  }

  // Admission — the drain gate and the shed bound — is decided under
  // BuildsM: stop() waits for PendingBuilds == 0 under the same lock
  // with Draining already set, so a build can never slip in behind the
  // drain's back.
  Status Refusal = Status::Ok;
  {
    std::lock_guard<std::mutex> Lock(BuildsM);
    if (Draining.load(std::memory_order_relaxed))
      Refusal = Status::Draining;
    else if (PendingBuilds >= MaxPending)
      Refusal = Status::RejectedOverload;
    else
      ++PendingBuilds;
  }
  if (Refusal != Status::Ok) {
    count(Refusal == Status::Draining ? "requests.draining" : "requests.shed");
    BuildResultMsg Out;
    Out.RequestId = Msg.RequestId;
    Out.St = Refusal;
    sendFrame(*Conn, encode(Out));
    return true;
  }

  auto R = std::shared_ptr<Request>(new Request(*this, Msg.RequestId, Conn));
  {
    std::lock_guard<std::mutex> Lock(Conn->ReqM);
    Conn->InFlight.emplace(Msg.RequestId, R);
  }
  count("requests.received");

  if (Msg.DeadlineMs > 0) {
    std::lock_guard<std::mutex> Lock(DeadlineM);
    Deadlines.emplace(Clock::now() + std::chrono::milliseconds(Msg.DeadlineMs),
                      R);
    DeadlineCv.notify_all();
  }

  std::lock_guard<std::mutex> Lock(BuildsM);
  reapBuildThreads(/*All=*/false);
  auto Done = std::make_shared<std::atomic<bool>>(false);
  BuildThreads.emplace_back(
      Done, std::thread([this, R, Msg = std::move(Msg), Done]() mutable {
        B.build(*R, std::move(Msg));
        {
          std::lock_guard<std::mutex> Lock(BuildsM);
          --PendingBuilds;
        }
        BuildsCv.notify_all();
        Done->store(true, std::memory_order_release);
      }));
  return true;
}

void Server::handleCancel(Connection &Conn, const CancelMsg &Msg) {
  std::shared_ptr<Request> R;
  {
    std::lock_guard<std::mutex> Lock(Conn.ReqM);
    auto It = Conn.InFlight.find(Msg.RequestId);
    if (It != Conn.InFlight.end())
      R = It->second;
  }
  if (!R) {
    count("cancels.unknown");
    return; // Already completed, or never sent: a no-op (PROTOCOL.md §7).
  }
  BuildResultMsg Out;
  Out.St = Status::Cancelled;
  R->claim(std::move(Out), "requests.cancelled");
}

void Server::monitorLoop() {
  std::unique_lock<std::mutex> Lock(DeadlineM);
  while (!Stopping.load(std::memory_order_relaxed)) {
    if (Deadlines.empty()) {
      DeadlineCv.wait_for(Lock, std::chrono::milliseconds(100));
      continue;
    }
    if (Clock::now() < Deadlines.begin()->first) {
      DeadlineCv.wait_until(Lock, Deadlines.begin()->first);
      continue;
    }
    std::shared_ptr<Request> R = Deadlines.begin()->second.lock();
    Deadlines.erase(Deadlines.begin());
    if (!R)
      continue; // Already replied and released.
    Lock.unlock();
    BuildResultMsg Out;
    Out.St = Status::DeadlineExceeded;
    R->claim(std::move(Out), "requests.deadline");
    Lock.lock();
  }
}

void Server::reapBuildThreads(bool All) {
  // Caller holds BuildsM (handleBuild) or no build can be live (stop).
  for (size_t I = 0; I < BuildThreads.size();) {
    if (All || BuildThreads[I].first->load(std::memory_order_acquire)) {
      BuildThreads[I].second.join();
      BuildThreads.erase(BuildThreads.begin() + static_cast<ptrdiff_t>(I));
    } else {
      ++I;
    }
  }
}

//===--- The one-reply claim -----------------------------------------------===//

bool Server::Request::claim(BuildResultMsg M, const char *Outcome) {
  if (Replied.exchange(true, std::memory_order_acq_rel))
    return false;
  M.RequestId = Id;
  // Count before the frame hits the wire: a client that reads its result
  // and immediately asks for STATS must see this outcome reflected.
  Owner.count(Outcome);
  Owner.sendFrame(*Conn, encode(M));
  // The id is reusable the moment its result is on the wire (§5.3).
  std::lock_guard<std::mutex> Lock(Conn->ReqM);
  Conn->InFlight.erase(Id);
  return true;
}

bool Server::Request::reply(BuildResultMsg M, const char *Outcome) {
  if (claim(std::move(M), Outcome))
    return true;
  Owner.count("requests.abandoned");
  return false;
}
