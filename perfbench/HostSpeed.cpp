//===--- HostSpeed.cpp - How fast the host runs code right now ------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// The benchmark's host is a virtual machine on a shared server.  With no
// steal at all, the CPU time one m2c operation takes has drifted by a third
// within an hour as the neighbours' load on the same cores and memory came
// and went.  A fixed piece of work that does not use m2c, timed in the same
// run, measures that drift, and the gated timings are scaled by it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <thread>

#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;

namespace {

/// Times of the fixed work each thread of a probe takes.
constexpr unsigned ProbeRounds = 25;

/// The fixed work: a pointer chase over a 2 MB random cycle, an
/// open-addressing hash table filled and probed, and 32 K keys sorted.
/// Dependent loads, hashing and branchy comparisons, as in a compiler.
/// Memory is allocated once, so a round's time does not include the
/// kernel's page faults, which vary more than the work.
class FixedWork {
public:
  FixedWork() : Link(1u << 19), Table(1u << 16), Keys(1u << 15), Sorted(Keys) {
    uint64_t X = 0x9E3779B97F4A7C15ull;
    auto Next = [&] {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      return X;
    };
    std::vector<uint32_t> Perm(Link.size());
    for (uint32_t I = 0; I < Perm.size(); ++I)
      Perm[I] = I;
    for (size_t I = Perm.size() - 1; I > 0; --I)
      std::swap(Perm[I], Perm[Next() % (I + 1)]);
    for (size_t I = 0; I < Perm.size(); ++I)
      Link[Perm[I]] = Perm[(I + 1) % Perm.size()];
    for (uint64_t &K : Keys)
      K = Next();
  }

  /// One round; the result keeps the work observable.
  uint64_t run() {
    uint64_t Sum = 0;
    uint32_t P = 0;
    for (size_t I = 0; I < Link.size(); ++I)
      P = Link[P];
    Sum += P;
    std::fill(Table.begin(), Table.end(), 0);
    const uint64_t Mask = Table.size() - 1;
    auto Home = [](uint64_t K) { return (K * 0x9E3779B97F4A7C15ull) >> 40; };
    for (uint64_t K : Keys) {
      uint64_t H = Home(K);
      while (Table[H & Mask])
        ++H;
      Table[H & Mask] = K | 1;
    }
    for (uint64_t K : Keys) {
      uint64_t H = Home(K);
      while (Table[H & Mask] && Table[H & Mask] != (K | 1))
        ++H;
      Sum += H;
    }
    std::copy(Keys.begin(), Keys.end(), Sorted.begin());
    std::sort(Sorted.begin(), Sorted.end());
    return Sum + Sorted[Sorted.size() / 2];
  }

private:
  std::vector<uint32_t> Link;
  std::vector<uint64_t> Table, Keys, Sorted;
};

double threadCpuMs() {
  timespec T{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) * 1e3 +
         static_cast<double>(T.tv_nsec) / 1e6;
}

} // namespace

std::vector<double> perfbench::hostSpeedProbe() {
  // In a fresh process, so this one's memory, threads and allocator stay
  // as they were; on Processors threads at once, as the workloads run.
  int Fds[2];
  if (::pipe(Fds) != 0)
    return {};
  std::fflush(nullptr);
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::close(Fds[0]);
    std::vector<double> Ms(Processors * ProbeRounds);
    std::vector<uint64_t> Sums(Processors);
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < Processors; ++T)
      Threads.emplace_back([&, T] {
        FixedWork W;
        Sums[T] = W.run(); // Warm-up: caches and branch predictors.
        for (unsigned R = 0; R < ProbeRounds; ++R) {
          double T0 = threadCpuMs();
          Sums[T] += W.run();
          Ms[T * ProbeRounds + R] = threadCpuMs() - T0;
        }
      });
    for (std::thread &T : Threads)
      T.join();
    const size_t Bytes = Ms.size() * sizeof(double);
    bool Ok = Sums[0] != 0 &&
              ::write(Fds[1], Ms.data(), Bytes) == static_cast<ssize_t>(Bytes);
    ::_exit(Ok ? 0 : 1);
  }
  ::close(Fds[1]);
  std::vector<double> Ms(Processors * ProbeRounds);
  const size_t Bytes = Ms.size() * sizeof(double);
  size_t Got = 0;
  for (ssize_t N; Pid > 0 && Got < Bytes &&
                  (N = ::read(Fds[0], reinterpret_cast<char *>(Ms.data()) + Got,
                              Bytes - Got)) > 0;)
    Got += static_cast<size_t>(N);
  ::close(Fds[0]);
  int Status = 0;
  if (Pid < 0 || ::waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0 || Got != Bytes)
    return {};
  return Ms;
}
