//===--- Socket.cpp - RAII stream sockets and frame transport -------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "net/Socket.h"

#include "fault/FaultPlan.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace m2c;
using namespace m2c::net;

namespace {

std::string errnoText(const char *What) {
  return std::string(What) + ": " + std::strerror(errno);
}

/// Fills \p Addr for the unix-domain socket \p Path; false if the path
/// does not fit sun_path.
bool unixAddress(const std::string &Path, sockaddr_un &Addr,
                 std::string &Err) {
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + Path;
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

} // namespace

//===--- Socket ------------------------------------------------------------===//

Socket &Socket::operator=(Socket &&O) noexcept {
  if (this != &O) {
    close();
    Fd = O.Fd;
    O.Fd = -1;
  }
  return *this;
}

Socket Socket::connectUnix(const std::string &Path, std::string &Err) {
  sockaddr_un Addr{};
  if (!unixAddress(Path, Addr, Err))
    return Socket();
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = errnoText("socket");
    return Socket();
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = errnoText(("connect " + Path).c_str());
    ::close(Fd);
    return Socket();
  }
  return Socket(Fd);
}

Socket Socket::connectTcp(const std::string &Host, uint16_t Port,
                          std::string &Err) {
  addrinfo Hints{};
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  addrinfo *Res = nullptr;
  std::string PortText = std::to_string(Port);
  int Rc = ::getaddrinfo(Host.c_str(), PortText.c_str(), &Hints, &Res);
  if (Rc != 0) {
    Err = "resolve " + Host + ": " + ::gai_strerror(Rc);
    return Socket();
  }
  int Fd = -1;
  for (addrinfo *A = Res; A; A = A->ai_next) {
    Fd = ::socket(A->ai_family, A->ai_socktype, A->ai_protocol);
    if (Fd < 0)
      continue;
    if (::connect(Fd, A->ai_addr, A->ai_addrlen) == 0)
      break;
    ::close(Fd);
    Fd = -1;
  }
  ::freeaddrinfo(Res);
  if (Fd < 0) {
    Err = errnoText(("connect " + Host + ":" + PortText).c_str());
    return Socket();
  }
  return Socket(Fd);
}

bool Socket::sendAll(const void *Bytes, size_t Size) {
  fault::FaultOutcome F = M2C_FAULT_HIT("net.send");
  if (F.fail())
    return false; // Injected transient send error.
  if (F.close()) {
    shutdownBoth(); // Injected peer reset: both sides see the teardown.
    return false;
  }
  const char *P = static_cast<const char *>(Bytes);
  while (Size > 0) {
    ssize_t N = ::send(Fd, P, Size, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

bool Socket::sendFrame(const Frame &F) {
  std::string Bytes = wireBytes(F);
  if (Bytes.empty())
    return false;
  return sendAll(Bytes.data(), Bytes.size());
}

namespace {

/// Reads exactly \p Size bytes.  Returns 1 on success, 0 on clean EOF
/// with zero bytes read, -1 on EOF mid-read or error.
int recvExact(int Fd, void *Bytes, size_t Size, bool &WasError) {
  char *P = static_cast<char *>(Bytes);
  size_t Got = 0;
  WasError = false;
  while (Got < Size) {
    ssize_t N = ::recv(Fd, P + Got, Size - Got, 0);
    if (N == 0)
      return Got == 0 ? 0 : -1;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      WasError = true;
      return -1;
    }
    Got += static_cast<size_t>(N);
  }
  return 1;
}

} // namespace

Socket::RecvStatus Socket::recvFrame(Frame &F, uint32_t MaxBytes) {
  fault::FaultOutcome FO = M2C_FAULT_HIT("net.recv");
  if (FO.fail())
    return RecvStatus::Error; // Injected recv(2) failure.
  if (FO.close()) {
    shutdownBoth(); // Injected connection loss before the next frame.
    return RecvStatus::Closed;
  }
  uint8_t Prefix[4];
  bool WasError = false;
  int Rc = recvExact(Fd, Prefix, sizeof(Prefix), WasError);
  if (Rc == 0)
    return RecvStatus::Closed;
  if (Rc < 0)
    return WasError ? RecvStatus::Error : RecvStatus::Truncated;
  uint32_t Length = 0;
  for (int I = 0; I < 4; ++I)
    Length |= static_cast<uint32_t>(Prefix[I]) << (8 * I);
  if (Length == 0)
    return RecvStatus::Malformed;
  if (Length > MaxBytes)
    return RecvStatus::TooLarge;

  uint8_t Type = 0;
  Rc = recvExact(Fd, &Type, 1, WasError);
  if (Rc <= 0)
    return WasError ? RecvStatus::Error : RecvStatus::Truncated;
  F.Type = static_cast<MsgType>(Type);
  F.Payload.resize(Length - 1);
  if (Length > 1) {
    Rc = recvExact(Fd, F.Payload.data(), F.Payload.size(), WasError);
    if (Rc <= 0)
      return WasError ? RecvStatus::Error : RecvStatus::Truncated;
  }
  return RecvStatus::Ok;
}

void Socket::shutdownBoth() {
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR);
}

void Socket::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

//===--- Listener ----------------------------------------------------------===//

Listener::~Listener() { close(); }

Listener::Listener(Listener &&O) noexcept { *this = std::move(O); }

Listener &Listener::operator=(Listener &&O) noexcept {
  if (this != &O) {
    close();
    Fd = O.Fd;
    Port = O.Port;
    UnixPath = std::move(O.UnixPath);
    O.Fd = -1;
    O.UnixPath.clear();
  }
  return *this;
}

Listener Listener::unixDomain(const std::string &Path, std::string &Err) {
  Listener L;
  sockaddr_un Addr{};
  if (!unixAddress(Path, Addr, Err))
    return L;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = errnoText("socket");
    return L;
  }
  ::unlink(Path.c_str()); // Replace a stale socket file from a dead daemon.
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, 64) != 0) {
    Err = errnoText(("bind " + Path).c_str());
    ::close(Fd);
    return L;
  }
  L.Fd = Fd;
  L.UnixPath = Path;
  return L;
}

Listener Listener::tcp(uint16_t Port, std::string &Err) {
  Listener L;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = errnoText("socket");
    return L;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, 64) != 0) {
    Err = errnoText("bind tcp");
    ::close(Fd);
    return L;
  }
  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
    L.Port = ntohs(Addr.sin_port);
  L.Fd = Fd;
  return L;
}

Listener::AcceptStatus Listener::acceptFor(int TimeoutMs, Socket &Out) {
  pollfd P{Fd, POLLIN, 0};
  int Rc = ::poll(&P, 1, TimeoutMs);
  if (Rc == 0)
    return AcceptStatus::TimedOut;
  if (Rc < 0)
    return errno == EINTR ? AcceptStatus::TimedOut : AcceptStatus::Error;
  int Client = ::accept(Fd, nullptr, nullptr);
  if (Client < 0)
    return errno == EINTR || errno == ECONNABORTED ? AcceptStatus::TimedOut
                                                   : AcceptStatus::Error;
  if (M2C_FAULT_HIT("net.accept").fired()) {
    ::close(Client); // Injected accept failure: the client sees a reset.
    return AcceptStatus::TimedOut;
  }
  Out = Socket(Client);
  return AcceptStatus::Accepted;
}

void Listener::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  if (!UnixPath.empty()) {
    ::unlink(UnixPath.c_str());
    UnixPath.clear();
  }
}
