//===--- Socket.h - RAII stream sockets and frame transport -----*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thin RAII wrappers over POSIX stream sockets — unix-domain and TCP —
/// plus whole-frame send/receive in the PROTOCOL.md §2 layout.  Nothing
/// here knows message semantics; that lives in Protocol.h (encoding) and
/// net/Server.cpp / net/RemoteClient.cpp (behaviour).
///
/// Blocking I/O throughout: the server dedicates a thread per connection
/// and a poll()-based accept loop, the client is synchronous by design.
/// SIGPIPE is avoided with MSG_NOSIGNAL, so neither side needs a global
/// signal disposition.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_NET_SOCKET_H
#define M2C_NET_SOCKET_H

#include "net/Protocol.h"

#include <cstdint>
#include <string>

namespace m2c::net {

/// A connected stream socket (move-only RAII over the fd).
class Socket {
public:
  Socket() = default;
  explicit Socket(int Fd) : Fd(Fd) {}
  ~Socket() { close(); }
  Socket(Socket &&O) noexcept : Fd(O.Fd) { O.Fd = -1; }
  Socket &operator=(Socket &&O) noexcept;
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;

  bool valid() const { return Fd >= 0; }

  /// Connects to a unix-domain socket at \p Path.  Invalid socket +
  /// \p Err set on failure.
  static Socket connectUnix(const std::string &Path, std::string &Err);

  /// Connects to TCP \p Host : \p Port (numeric or resolvable host).
  static Socket connectTcp(const std::string &Host, uint16_t Port,
                           std::string &Err);

  /// Sends all of \p Bytes.  False on any error (peer gone, etc.).
  bool sendAll(const void *Bytes, size_t Size);

  /// Serializes and sends one frame.  False on transport error or an
  /// over-cap payload.
  bool sendFrame(const Frame &F);

  /// Outcome of recvFrame: what the stream yielded before a full frame.
  enum class RecvStatus {
    Ok,        ///< F holds a complete frame.
    Closed,    ///< Orderly EOF on a frame boundary.
    Truncated, ///< EOF mid-frame (length prefix or payload cut short).
    TooLarge,  ///< Announced length exceeds \p MaxBytes; nothing consumed
               ///< after the prefix — connection must be abandoned.
    Malformed, ///< Announced length is zero.
    Error,     ///< recv(2) failure.
  };

  /// Receives exactly one frame.
  RecvStatus recvFrame(Frame &F, uint32_t MaxBytes = MaxFrameBytes);

  /// shutdown(2) both directions: any thread blocked in recv on this
  /// socket wakes with EOF.  Used by the server to unblock connection
  /// readers at stop.
  void shutdownBoth();

  void close();

private:
  int Fd = -1;
};

/// A listening socket (unix-domain or TCP) with a poll()-based accept.
class Listener {
public:
  Listener() = default;
  ~Listener();
  Listener(Listener &&O) noexcept;
  Listener &operator=(Listener &&O) noexcept;
  Listener(const Listener &) = delete;
  Listener &operator=(const Listener &) = delete;

  /// Binds and listens on a unix-domain socket at \p Path, replacing any
  /// stale socket file.  Invalid listener + \p Err set on failure.
  static Listener unixDomain(const std::string &Path, std::string &Err);

  /// Binds and listens on TCP 127.0.0.1:\p Port (0 = ephemeral; see
  /// port()).
  static Listener tcp(uint16_t Port, std::string &Err);

  bool valid() const { return Fd >= 0; }

  /// The bound TCP port (resolves ephemeral binds); 0 for unix sockets.
  uint16_t port() const { return Port; }

  enum class AcceptStatus { Accepted, TimedOut, Error };

  /// Waits up to \p TimeoutMs for a connection; on Accepted, \p Out is
  /// the connected socket.  The timeout is what lets the server's accept
  /// loop notice stop/drain flags.
  AcceptStatus acceptFor(int TimeoutMs, Socket &Out);

  void close();

private:
  int Fd = -1;
  uint16_t Port = 0;
  std::string UnixPath; ///< Unlinked on close.
};

} // namespace m2c::net

#endif // M2C_NET_SOCKET_H
