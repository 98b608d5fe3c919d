//===--- RunCompute.cpp - run_compute: source to VM result ----------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// Compute-heavy programs written here from seeded templates.  One
// operation compiles a program at -O2 (P=4, fresh interner), writes its
// .mco, links it, constructs a fresh VM with the default tier policy
// (so promotion cost is counted) and runs it.  Each program's output must
// equal the value computed below in C++, without m2c, and its .mco must
// equal the cold P=1 build.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/Linker.h"
#include "codegen/ObjectFile.h"
#include "driver/ConcurrentCompiler.h"
#include "vm/VM.h"
#include "vm/VmStats.h"

#include <memory>
#include <random>
#include <sstream>

using namespace m2c;
using namespace perfbench;

namespace {

struct Program {
  std::string Name;
  std::string Source;
  std::string Expected; ///< The VM output the C++ mirror computes.
};

/// Draws template parameters; deterministic in the seed.
struct Draw {
  std::mt19937 Gen;
  explicit Draw(uint32_t Seed) : Gen(Seed) {}
  int64_t operator()(int64_t Lo, int64_t Hi) {
    return std::uniform_int_distribution<int64_t>(Lo, Hi)(Gen);
  }
};

std::string line(int64_t V) { return std::to_string(V) + "\n"; }

// Every template keeps values non-negative and far below 2^62, so the
// VM's int64 arithmetic and the C++ mirror agree exactly.  The seed moves
// each template's constants within narrow ranges, so a program's run time
// barely depends on the seed while its output does.

/// Collatz step counts over a range: a data-dependent WHILE loop.
Program collatz(const std::string &Name, Draw &D) {
  int64_t Lo = D(10000, 11000), Count = 1500;
  std::ostringstream S;
  S << "MODULE " << Name << ";\nVAR total, k: INTEGER;\n"
    << "PROCEDURE Steps(n: INTEGER): INTEGER;\nVAR s: INTEGER;\nBEGIN\n"
    << "  s := 0;\n  WHILE n # 1 DO\n"
    << "    IF n MOD 2 = 0 THEN n := n DIV 2 ELSE n := 3 * n + 1 END;\n"
    << "    INC(s)\n  END;\n  RETURN s\nEND Steps;\n"
    << "BEGIN\n  total := 0;\n  FOR k := " << Lo << " TO " << Lo + Count - 1
    << " DO total := total + Steps(k) END;\n"
    << "  WriteInt(total, 0); WriteLn\nEND " << Name << ".\n";
  int64_t Total = 0;
  for (int64_t K = Lo; K < Lo + Count; ++K)
    for (int64_t N = K; N != 1; ++Total)
      N = N % 2 == 0 ? N / 2 : 3 * N + 1;
  return {Name, S.str(), line(Total)};
}

/// Repeated sieves over a global array: indexed loads and stores.
Program sieve(const std::string &Name, Draw &D) {
  int64_t Max = D(7000, 7200), Reps = 6, Step = D(100, 120);
  std::ostringstream S;
  S << "MODULE " << Name << ";\nVAR flags: ARRAY [0.." << Max
    << "] OF INTEGER;\n    r, k: INTEGER;\n"
    << "PROCEDURE Sieve(m: INTEGER): INTEGER;\nVAR i, j, s: INTEGER;\n"
    << "BEGIN\n  FOR i := 0 TO m DO flags[i] := 1 END;\n  s := 0;\n"
    << "  FOR i := 2 TO m DO\n    IF flags[i] = 1 THEN\n      s := s + i;\n"
    << "      j := i * i;\n"
    << "      WHILE j <= m DO flags[j] := 0; j := j + i END\n    END\n"
    << "  END;\n  RETURN s\nEND Sieve;\n"
    << "BEGIN\n  r := 0;\n  FOR k := 1 TO " << Reps << " DO\n"
    << "    r := (r * 31 + Sieve(" << Max << " - k * " << Step
    << ")) MOD 1000003\n  END;\n"
    << "  WriteInt(r, 0); WriteLn\nEND " << Name << ".\n";
  int64_t R = 0;
  std::vector<int64_t> Flags(static_cast<size_t>(Max + 1));
  for (int64_t K = 1; K <= Reps; ++K) {
    int64_t M = Max - K * Step, Sum = 0;
    std::fill(Flags.begin(), Flags.begin() + M + 1, 1);
    for (int64_t I = 2; I <= M; ++I)
      if (Flags[static_cast<size_t>(I)]) {
        Sum += I;
        for (int64_t J = I * I; J <= M; J += I)
          Flags[static_cast<size_t>(J)] = 0;
      }
    R = (R * 31 + Sum) % 1000003;
  }
  return {Name, S.str(), line(R)};
}

/// Euclid over a grid: a short hot call inside a nested loop.
Program gcdGrid(const std::string &Name, Draw &D) {
  int64_t N = 90, A = D(3, 97), B = D(3, 97);
  std::ostringstream S;
  S << "MODULE " << Name << ";\nVAR s, i, j: INTEGER;\n"
    << "PROCEDURE Gcd(a, b: INTEGER): INTEGER;\nVAR t: INTEGER;\nBEGIN\n"
    << "  WHILE b # 0 DO t := a MOD b; a := b; b := t END;\n"
    << "  RETURN a\nEND Gcd;\n"
    << "BEGIN\n  s := 0;\n  FOR i := 1 TO " << N << " DO\n"
    << "    FOR j := 1 TO " << N << " DO\n"
    << "      s := s + Gcd(i * " << A << " + j, j * " << B << " + i)\n"
    << "    END\n  END;\n"
    << "  WriteInt(s, 0); WriteLn\nEND " << Name << ".\n";
  int64_t Sum = 0;
  for (int64_t I = 1; I <= N; ++I)
    for (int64_t J = 1; J <= N; ++J) {
      int64_t X = I * A + J, Y = J * B + I;
      while (Y != 0) {
        int64_t T = X % Y;
        X = Y;
        Y = T;
      }
      Sum += X;
    }
  return {Name, S.str(), line(Sum)};
}

/// Naive recursive Fibonacci: call and return dominate.
Program fib(const std::string &Name, Draw &D) {
  int64_t N = 20, Reps = 2, Base = D(1, 1000000);
  std::ostringstream S;
  S << "MODULE " << Name << ";\nVAR r, k: INTEGER;\n"
    << "PROCEDURE Fib(n: INTEGER): INTEGER;\nBEGIN\n"
    << "  IF n < 2 THEN RETURN n END;\n"
    << "  RETURN Fib(n - 1) + Fib(n - 2)\nEND Fib;\n"
    << "BEGIN\n  r := " << Base << ";\n  FOR k := 0 TO " << Reps - 1
    << " DO r := r + Fib(" << N << " - k) END;\n"
    << "  WriteInt(r, 0); WriteLn\nEND " << Name << ".\n";
  auto Fib = [](int64_t X) {
    int64_t A = 0, B = 1;
    for (int64_t I = 0; I < X; ++I) {
      int64_t T = A + B;
      A = B;
      B = T;
    }
    return A;
  };
  int64_t R = Base;
  for (int64_t K = 0; K < Reps; ++K)
    R += Fib(N - K);
  return {Name, S.str(), line(R)};
}

/// A linear congruential generator filling a histogram.
Program histogram(const std::string &Name, Draw &D) {
  int64_t Iters = D(45000, 46000), Mul = D(1000, 30000), Inc = D(1, 9999),
          X0 = D(1, 65520);
  std::ostringstream S;
  S << "MODULE " << Name << ";\nVAR hist: ARRAY [0..63] OF INTEGER;\n"
    << "    x, i, s: INTEGER;\n"
    << "BEGIN\n  FOR i := 0 TO 63 DO hist[i] := 0 END;\n  x := " << X0
    << ";\n  FOR i := 1 TO " << Iters << " DO\n"
    << "    x := (x * " << Mul << " + " << Inc << ") MOD 65521;\n"
    << "    hist[x MOD 64] := hist[x MOD 64] + 1\n  END;\n"
    << "  s := 0;\n  FOR i := 0 TO 63 DO s := (s * 7 + hist[i]) MOD 1000003 "
       "END;\n"
    << "  WriteInt(s, 0); WriteLn\nEND " << Name << ".\n";
  std::vector<int64_t> Hist(64, 0);
  int64_t X = X0;
  for (int64_t I = 1; I <= Iters; ++I) {
    X = (X * Mul + Inc) % 65521;
    ++Hist[static_cast<size_t>(X % 64)];
  }
  int64_t Sum = 0;
  for (int64_t H : Hist)
    Sum = (Sum * 7 + H) % 1000003;
  return {Name, S.str(), line(Sum)};
}

/// Ten programs, two per template, round-robin.
constexpr unsigned NumPrograms = 10;

std::vector<Program> programs(uint64_t Seed) {
  using Template = Program (*)(const std::string &, Draw &);
  const Template Templates[] = {collatz, sieve, gcdGrid, fib, histogram};
  std::vector<Program> Out;
  for (unsigned I = 0; I < NumPrograms; ++I) {
    Draw D(mixSeed(Seed, 1000 + I));
    Out.push_back(Templates[I % 5]("Comp" + std::to_string(I), D));
  }
  return Out;
}

/// One operation's parts, each timed around one public call.
struct Ran {
  bool Compiled = false, Linked = false, Trapped = false;
  std::string Mco, Output;
  double CompileMs = 0, WriteMs = 0, LinkMs = 0, ConstructMs = 0,
         RunMs = 0, RunPartMs = 0, TotalMs = 0;
  uint64_t MakespanNs = 0;
  std::map<std::string, uint64_t> Sched, Opt;
};

Ran compileAndRun(VirtualFileSystem &Files, const Program &P, unsigned Procs,
                  sched::ActivitySink *Sink, bool Execute = true) {
  Ran R;
  Clock::time_point T0 = Clock::now();
  StringInterner Interner;
  driver::CompilerOptions O;
  O.Executor = driver::ExecutorKind::Threaded;
  O.Processors = Procs;
  O.Level = opt::OptLevel::O2;
  O.Trace = Sink;
  driver::ConcurrentCompiler Compiler(Files, Interner, O);
  driver::CompileResult C = Compiler.compile(P.Name);
  Clock::time_point T1 = Clock::now();
  R.Compiled = C.Success;
  R.MakespanNs = C.ElapsedUnits;
  R.Sched = std::move(C.SchedStats);
  R.Opt = std::move(C.OptStats);
  if (!R.Compiled)
    return R;
  R.Mco = codegen::writeObjectFile(C.Image, Interner);
  Clock::time_point T2 = Clock::now();
  R.CompileMs = msBetween(T0, T1);
  R.WriteMs = msBetween(T1, T2);
  if (!Execute)
    return R;

  codegen::Linker Link(Interner);
  Link.addImage(std::move(C.Image));
  codegen::LinkedProgram Linked = Link.link();
  Clock::time_point T3 = Clock::now();
  R.Linked = Linked.ok();
  if (R.Linked) {
    Clock::time_point T4, T5;
    {
      vm::VM Machine(Linked, Interner);
      T4 = Clock::now();
      vm::VM::RunResult Result = Machine.run(Interner.intern(P.Name));
      T5 = Clock::now();
      R.Trapped = Result.Trapped;
      R.Output = std::move(Result.Output);
    }
    R.ConstructMs = msBetween(T3, T4);
    R.RunMs = msBetween(T4, T5);
  }
  Clock::time_point T6 = Clock::now();
  R.LinkMs = msBetween(T2, T3);
  R.RunPartMs = msBetween(T2, T6);
  R.TotalMs = msBetween(T0, T6);
  return R;
}

struct Workspace {
  VirtualFileSystem Files;
  std::vector<Program> Programs;
};

std::unique_ptr<Workspace> generate(uint64_t Seed) {
  auto W = std::make_unique<Workspace>();
  W->Programs = programs(Seed);
  for (const Program &P : W->Programs)
    W->Files.addFile(P.Name + ".mod", P.Source);
  return W;
}

/// Operations after which the peak memory is read: a fixed amount of work
/// in one process, so memory an operation fails to return (the VM's
/// global arrays, say) adds up as it would in a long-lived host of the
/// VM.  A run that has done fewer when its time is up does the rest,
/// untimed, before the figure is read.
constexpr uint64_t PeakRssOps = 400;

/// One compile-and-run of every program.
void pass(Workspace &W) {
  for (const Program &P : W.Programs)
    compileAndRun(W.Files, P, Processors, nullptr);
}

std::unique_ptr<Workspace> setUp(uint64_t Seed) {
  std::unique_ptr<Workspace> W = generate(Seed);
  pass(*W); // Warm-up: first-touch allocation and code paths.
  return W;
}

} // namespace

void perfbench::runCompute(const Options &Opts, Outcome &Out) {
  std::unique_ptr<Workspace> W = setUpRepeatedly(
      [&](unsigned) { return setUp(Opts.Seed); },
      [](const Workspace &) { return std::vector<int>{}; }, Out.SetupSeconds,
      Out.SetupWallSeconds);

  std::vector<std::string> Ref;
  for (const Program &P : W->Programs) {
    Ran R = compileAndRun(W->Files, P, 1, nullptr, /*Execute=*/false);
    if (!R.Compiled)
      Out.fail("reference compile of " + P.Name + " failed");
    Ref.push_back(R.Mco);
    Out.McoBytes += static_cast<double>(R.Mco.size());
  }

  auto Check = [&](size_t I, const Ran &R) {
    const Program &P = W->Programs[I];
    if (!R.Compiled)
      Out.fail(P.Name + ": compile failed");
    else if (R.Mco != Ref[I])
      Out.fail(P.Name + ": .mco differs from the cold P=1 build");
    else if (!R.Linked)
      Out.fail(P.Name + ": link failed");
    else if (R.Trapped)
      Out.fail(P.Name + ": trapped");
    else if (R.Output != P.Expected)
      Out.fail(P.Name + ": output '" + R.Output + "' != expected '" +
               P.Expected + "'");
  };

  const double Untraced = Opts.Trace ? Opts.Seconds / 2 : Opts.Seconds;
  PeakMemory Peak;
  uint64_t Completed = 0;
  Out.LoopSeconds = passLoop(
      Untraced,
      [&] {
        for (size_t I = 0; I < W->Programs.size(); ++I) {
          Ran R = compileAndRun(W->Files, W->Programs[I], Processors, nullptr);
          if (++Completed == PeakRssOps)
            Peak.read();
          Out.sample(R.TotalMs);
          Out.Kinds["compile"].push_back(R.CompileMs + R.WriteMs);
          Out.Kinds["run"].push_back(R.RunPartMs);
          Check(I, R);
        }
      },
      &Out.Blocks, &Out.HostMs);
  for (; Completed < PeakRssOps; ++Completed) {
    size_t I = Completed % W->Programs.size();
    ++Out.Attempted;
    Check(I, compileAndRun(W->Files, W->Programs[I], Processors, nullptr));
  }
  Out.PeakRssMb = Peak.read();
  if (!Opts.Trace)
    return;

  BusySink Sink;
  ClassNs Busy{};
  std::vector<double> Total;
  std::map<std::string, double> Sum;
  std::map<std::string, uint64_t> VmBefore = vm::globalVmStats().snapshot();
  passLoop(Opts.Seconds / 2, [&] {
    for (size_t I = 0; I < W->Programs.size(); ++I) {
      Ran R = compileAndRun(W->Files, W->Programs[I], Processors, &Sink);
      ++Out.Attempted;
      Check(I, R);
      addInto(Busy, Sink.take());
      Total.push_back(R.TotalMs);
      double SpanMs = static_cast<double>(R.MakespanNs) / 1e6;
      Sum["makespan"] += SpanMs;
      Sum["driver.outside_exec_ms"] += R.CompileMs - SpanMs;
      Sum["codegen.mco_write_ms"] += R.WriteMs;
      Sum["codegen.link_ms"] += R.LinkMs;
      Sum["vm.construct_ms"] += R.ConstructMs;
      Sum["vm.run_ms"] += R.RunMs;
      Sum["unexplained.run_ms"] +=
          R.RunPartMs - R.LinkMs - R.ConstructMs - R.RunMs;
      for (const char *K :
           {"sched.steals", "sched.waits.barrier", "sched.requests.deferred"})
        Sum[K] += static_cast<double>(get(R.Sched, K));
      for (const char *K : {"opt.units", "opt.instrs.removed"})
        Sum[K] += static_cast<double>(get(R.Opt, K));
    }
  });
  std::map<std::string, uint64_t> VmAfter = vm::globalVmStats().snapshot();

  const double N = static_cast<double>(Total.size());
  const double Makespan = Sum["makespan"];
  Sum.erase("makespan");
  const double BusyMs = static_cast<double>(total(Busy)) / 1e6;
  auto &L = Out.Layers;
  putClassBusy(L, Busy, N);
  for (const auto &[K, V] : Sum)
    L[K] = V / N;
  // As in cold_suite, the compile's residual is the driver's own time.
  L["unexplained.compile_ms"] = L["driver.outside_exec_ms"];
  L["sched.idle_ms"] = (Processors * Makespan - BusyMs) / N;
  L["sched.utilization"] = ratio(BusyMs, Processors * Makespan);
  for (const char *K :
       {"vm.steps.tier0", "vm.steps.tier1", "vm.dispatch.tier1",
        "vm.tier.promotions", "vm.tier.osr.entries", "vm.tier.deopts"})
    L[K] = static_cast<double>(delta(VmBefore, VmAfter, K)) / N;
  L["vm.tier1_step_share"] =
      ratio(L["vm.steps.tier1"], L["vm.steps.tier0"] + L["vm.steps.tier1"]);
  L["trace.overhead"] =
      ratio(quantile(Total, 0.5), quantile(Out.Ops, 0.5));
}
