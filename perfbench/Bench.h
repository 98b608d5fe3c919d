//===--- Bench.h - Shared plumbing of the m2c benchmark ---------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timing, percentiles, the per-TaskClass activity recorder and the
/// per-workload outcome every workload fills in.  The benchmark measures
/// m2c only from outside: it times calls into public functions, attaches
/// a sched::ActivitySink through the public hooks, and takes deltas of the
/// public statistics snapshots.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_PERFBENCH_BENCH_H
#define M2C_PERFBENCH_BENCH_H

#include "sched/ActivitySink.h"
#include "sched/Task.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}
inline double msSince(Clock::time_point From) {
  return msBetween(From, Clock::now());
}

/// CPU time, in ms, that this process (every thread, live or ended) and
/// the processes \p Others have used so far.  The kernel charges a thread
/// only for time it ran, not for time the host took its virtual CPU away
/// (steal), so on a shared host this moves with the work done where wall
/// time moves with the neighbours' load.  A process that is gone counts 0.
inline double cpuMs(const std::vector<int> &Others = {}) {
  auto Read = [](clockid_t Id) {
    timespec T{};
    return ::clock_gettime(Id, &T) == 0
               ? static_cast<double>(T.tv_sec) * 1e3 +
                     static_cast<double>(T.tv_nsec) / 1e6
               : 0.0;
  };
  double Ms = Read(CLOCK_PROCESS_CPUTIME_ID);
  for (int Pid : Others) {
    clockid_t Id;
    if (::clock_getcpuclockid(Pid, &Id) == 0)
      Ms += Read(Id);
  }
  return Ms;
}

/// The processor count of every executor the benchmark configures: the
/// CLI's -j default.  Fixed, not read from the host, so one seed names
/// one workload everywhere.
constexpr unsigned Processors = 4;

/// How often the server and VM workloads repeat their set-up; setup_s is
/// the median.  cold_suite sets up in fresh processes (see freshRuns()).
constexpr unsigned SetupRepeats = 5;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

/// SplitMix64 finalizer: derives independent generator seeds from the
/// workload seed.
inline uint32_t mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ull + Salt + 0x632BE59BD9B4E019ull;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<uint32_t>((Z ^ (Z >> 31)) & 0x7fffffffu) | 1u;
}

inline uint64_t fnv1a(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Bytes)
    H = (H ^ C) * 0x100000001b3ull;
  return H;
}

/// Linear-interpolated quantile (the "R-7" definition) of \p V.
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

inline double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Sums task intervals per TaskClass.  Executors call record() from every
/// worker thread at once, so the accumulators are atomics.
class BusySink final : public m2c::sched::ActivitySink {
public:
  void record(unsigned, const m2c::sched::Task &T, uint64_t Start,
              uint64_t End) override {
    Busy[static_cast<size_t>(T.taskClass())].fetch_add(
        End - Start, std::memory_order_relaxed);
  }
  /// Busy nanoseconds per class since the last take().
  std::array<uint64_t, m2c::sched::NumTaskClasses> take() {
    std::array<uint64_t, m2c::sched::NumTaskClasses> Out{};
    for (size_t I = 0; I < Out.size(); ++I)
      Out[I] = Busy[I].exchange(0, std::memory_order_relaxed);
    return Out;
  }

private:
  std::array<std::atomic<uint64_t>, m2c::sched::NumTaskClasses> Busy{};
};

using ClassNs = std::array<uint64_t, m2c::sched::NumTaskClasses>;

inline void addInto(ClassNs &Sum, const ClassNs &Add) {
  for (size_t I = 0; I < Sum.size(); ++I)
    Sum[I] += Add[I];
}

inline uint64_t total(const ClassNs &C) {
  uint64_t T = 0;
  for (uint64_t X : C)
    T += X;
  return T;
}

/// Per-operation busy milliseconds of each compiler layer, under the
/// layer names of the ledger (lex.busy_ms ... codegen.merge_busy_ms).
void putClassBusy(std::map<std::string, double> &Layers, const ClassNs &Busy,
                  double Ops);

/// Counter deltas between two statistics snapshots.
inline uint64_t delta(const std::map<std::string, uint64_t> &Before,
                      const std::map<std::string, uint64_t> &After,
                      const std::string &Key) {
  auto B = Before.find(Key), A = After.find(Key);
  uint64_t VA = A == After.end() ? 0 : A->second;
  uint64_t VB = B == Before.end() ? 0 : B->second;
  return VA >= VB ? VA - VB : 0;
}

inline uint64_t get(const std::map<std::string, uint64_t> &Stats,
                    const std::string &Key) {
  auto It = Stats.find(Key);
  return It == Stats.end() ? 0 : It->second;
}

/// A run's timed loop is cut into about this many blocks; every timing
/// of the run is the median over its blocks, so a stall of the host that
/// covers a minority of the blocks moves none of them.  The host's speed
/// is probed between blocks (see hostSpeedProbe()).
constexpr unsigned BlockCount = 5;
/// Operations a block needs at least, so its p90 has 10 samples beyond.
constexpr size_t MinBlockOps = 100;

/// One stretch of the timed loop: its operations' latencies, its length
/// and the CPU time the system under test used in it (see cpuMs()).
struct Block {
  std::vector<double> Ms;
  double Seconds = 0;
  double CpuMs = 0;
};

/// CPU ms that each round of a fixed piece of work, unrelated to m2c,
/// took on this host just now: several rounds on each of Processors
/// threads (see HostSpeed.cpp).  Empty if the probe could not run.
std::vector<double> hostSpeedProbe();

/// The median hostSpeedProbe() round on the reference host: a 4-vCPU Xeon
/// VM at 2.1 GHz.  The gated CPU timings are scaled by this over the run's
/// own median, so that they read as on the reference host.
constexpr double ReferenceHostMs = 8.5;

/// Runs whole passes over a workload's input set (\p Pass runs one) until
/// \p Seconds have passed, so every run weighs the inputs alike; returns
/// the loop's seconds.  With \p Blocks, a block closes at the first pass
/// boundary past its share of the time that has MinBlockOps operations; a
/// short last block joins the one before.  Between blocks, the host's
/// speed is probed into \p HostMs, outside the blocks' time.
template <typename PassFn>
double passLoop(double Seconds, PassFn &&Pass,
                std::vector<Block> *Blocks = nullptr,
                std::vector<double> *HostMs = nullptr) {
  Clock::time_point Start = Clock::now(), BlockStart = Start;
  double CpuStart = cpuMs();
  auto Close = [&] {
    Blocks->back().Seconds = msSince(BlockStart) / 1e3;
    double Now = cpuMs();
    Blocks->back().CpuMs = Now - CpuStart;
    CpuStart = Now;
  };
  if (Blocks)
    Blocks->emplace_back();
  do {
    Pass();
    if (Blocks && msSince(BlockStart) >= Seconds * 1e3 / BlockCount &&
        Blocks->back().Ms.size() >= MinBlockOps) {
      Close();
      if (HostMs) {
        std::vector<double> Host = hostSpeedProbe();
        HostMs->insert(HostMs->end(), Host.begin(), Host.end());
        CpuStart = cpuMs();
      }
      BlockStart = Clock::now();
      Blocks->emplace_back();
    }
  } while (msSince(Start) < Seconds * 1e3);
  if (Blocks) {
    Close();
    if (Blocks->size() > 1 && Blocks->back().Ms.size() < MinBlockOps) {
      Block Last = std::move(Blocks->back());
      Blocks->pop_back();
      Blocks->back().Ms.insert(Blocks->back().Ms.end(), Last.Ms.begin(),
                               Last.Ms.end());
      Blocks->back().Seconds += Last.Seconds;
      Blocks->back().CpuMs += Last.CpuMs;
    }
  }
  return msSince(Start) / 1e3;
}

/// What one fresh process that ran a workload's set-up measured.
struct FreshRun {
  double PeakMb = 0;      ///< Peak resident memory (ru_maxrss).
  double CpuSeconds = 0;  ///< User plus system CPU time, steal excluded.
  double WallSeconds = 0; ///< Fork to exit.
};

/// Runs \p Work once in each of \p Count fresh processes, forked while
/// this process is still single-threaded and small, and returns what each
/// measured, or nothing if a child failed (a child fails by exiting
/// non-zero).  One process's peak memory moves by 10 to 20 % with how its
/// threads happened to spread their allocations over malloc arenas, so a
/// peak is only steady as a median over processes.
template <typename Fn>
std::vector<FreshRun> freshRuns(unsigned Count, Fn &&Work) {
  std::vector<FreshRun> Runs;
  for (unsigned I = 0; I < Count; ++I) {
    std::fflush(nullptr);
    Clock::time_point T0 = Clock::now();
    pid_t Pid = ::fork();
    if (Pid == 0) {
      Work();
      ::_exit(0);
    }
    int Status = 0;
    struct rusage Usage {};
    if (Pid < 0 || ::wait4(Pid, &Status, 0, &Usage) != Pid ||
        !WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
      return {};
    auto Seconds = [](const timeval &T) {
      return static_cast<double>(T.tv_sec) +
             static_cast<double>(T.tv_usec) / 1e6;
    };
    Runs.push_back({static_cast<double>(Usage.ru_maxrss) / 1024.0,
                    Seconds(Usage.ru_utime) + Seconds(Usage.ru_stime),
                    msSince(T0) / 1e3});
  }
  return Runs;
}

/// VmHWM of \p Pid (0: this process) in kB, or 0 if unreadable.
inline double highWaterKb(int Pid) {
  std::string Dir = Pid ? "/proc/" + std::to_string(Pid) : "/proc/self";
  std::FILE *F = std::fopen((Dir + "/status").c_str(), "r");
  if (!F)
    return 0;
  char Line[256];
  double Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Kb = std::strtod(Line + 6, nullptr);
  std::fclose(F);
  return Kb;
}

/// Peak resident memory of this process plus \p Others from construction
/// to read(): the kernel's high-water mark, reset first.  Memory still
/// held at the reset (a leak of the set-up, say) stays counted, since the
/// reset lowers the mark only to the current resident size.
class PeakMemory {
public:
  explicit PeakMemory(std::vector<int> Others = {}) : Pids(std::move(Others)) {
    Pids.push_back(0); // 0: this process.
    // Writing 5 to clear_refs resets the high-water mark to the current
    // resident size.
    for (int Pid : Pids) {
      std::string Dir = Pid ? "/proc/" + std::to_string(Pid) : "/proc/self";
      if (std::FILE *F = std::fopen((Dir + "/clear_refs").c_str(), "w")) {
        std::fputs("5", F);
        std::fclose(F);
      }
    }
  }
  /// The summed peak in MB; the first call's value is kept.
  double read() {
    std::call_once(Once, [this] {
      double Kb = 0;
      for (int Pid : Pids)
        Kb += highWaterKb(Pid);
      Mb = Kb / 1024.0;
    });
    return Mb;
  }

private:
  std::vector<int> Pids;
  std::once_flag Once;
  double Mb = 0;
};

/// Sets the system up SetupRepeats times, tearing each instance down
/// before the next, and returns the last; \p SetUp(I) builds instance I
/// and returns a pointer, null on failure.  \p CpuSeconds receives the
/// median set-up time in CPU seconds (see cpuMs()): this process's plus
/// that of the processes \p Started(instance) names, which the set-up
/// started.  \p WallSeconds receives the median wall time.
template <typename SetUpFn, typename StartedFn>
auto setUpRepeatedly(SetUpFn &&SetUp, StartedFn &&Started, double &CpuSeconds,
                     double &WallSeconds) {
  std::vector<double> Cpu, Wall;
  decltype(SetUp(0u)) Last;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    Last.reset();
    Clock::time_point T0 = Clock::now();
    double Cpu0 = cpuMs();
    Last = SetUp(I);
    if (!Last)
      break;
    Cpu.push_back((cpuMs(Started(*Last)) - Cpu0) / 1e3);
    Wall.push_back(msSince(T0) / 1e3);
  }
  CpuSeconds = quantile(Cpu, 0.5);
  WallSeconds = quantile(Wall, 0.5);
  return Last;
}

/// What one workload run measured.  Kinds holds per-operation latencies
/// split by kind (compile, edit, replay, run); Ops holds every
/// operation's end-to-end latency, and Blocks the same cut in time.  All
/// come from untraced time only.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors; ///< First few failures, for the log.
  double SetupSeconds = 0;     ///< CPU seconds; see setUpRepeatedly().
  double SetupWallSeconds = 0; ///< The same set-ups' median wall time.
  double LoopSeconds = 0;      ///< Untraced closed-loop wall time.
  std::vector<double> Ops;
  std::vector<Block> Blocks;
  std::map<std::string, std::vector<double>> Kinds;
  double McoBytes = 0;
  double PeakRssMb = 0; ///< See freshRuns() and PeakMemory.
  std::vector<double> HostMs; ///< Host-speed probes between blocks.
  /// Per-layer ledger (traced runs only).
  std::map<std::string, double> Layers;

  void fail(std::string What) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(std::move(What));
  }
  /// Records one untraced operation's latency into Ops and the open block.
  void sample(double Ms) {
    ++Attempted;
    Ops.push_back(Ms);
    if (!Blocks.empty())
      Blocks.back().Ms.push_back(Ms);
  }
};

void runColdSuite(const Options &Opts, Outcome &Out);
void runCompute(const Options &Opts, Outcome &Out);
void runEditLoop(const Options &Opts, Outcome &Out);
void runFarmEdit(const Options &Opts, Outcome &Out);

} // namespace perfbench

#endif // M2C_PERFBENCH_BENCH_H
