//===--- bench_vm_tiering.cpp - Tier-0 vs tier-1 VM throughput -------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// Measures what the threaded-code tier buys on a compute-heavy program
// (WorkloadGenerator::generateCompute, compiled at -O2):
//  * BM_VmTier0 — the reference switch interpreter alone;
//  * BM_VmTier1Warm — fresh VMs over one shared TranslatedProgram:
//    steady-state tier-1 throughput;
//  * BM_VmTier1Cold — fresh VMs that each translate the program at load:
//    what every default run pays;
//  * BM_TranslateAll — translation cost alone.
//
// Before reporting, the program's output is checked byte-identical
// between tier 0 and tier 1 — no numbers from a tier that changes
// observable behaviour — and the measured tier-1 speedup is printed
// (target >= 1.5x) with the cold run's cost over the warm one.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchSupport.h"

#include "vm/VM.h"
#include "vm/tier/Translator.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

using namespace m2c;
using namespace m2c::bench;
using vm::tier::TierMode;
using vm::tier::TranslatedProgram;

namespace {

/// The compute-heavy program, compiled once at -O2 and shared by every
/// benchmark (the VM never mutates the linked program).
struct ComputeProgram {
  StringInterner Interner;
  codegen::LinkedProgram Prog;
  Symbol Main;
  std::string Output; ///< Tier-0 reference output.

  ComputeProgram() {
    VirtualFileSystem Files;
    workload::WorkloadGenerator Gen(Files);
    workload::ComputeSpec Spec;
    Spec.Depth = 2;
    Spec.Fan = 3;
    Spec.LeafProcs = 6;
    Spec.InnerIters = 200;
    Spec.OuterIters = 60;
    workload::GeneratedModule Info = Gen.generateCompute(Spec);

    driver::CompilerOptions Options;
    Options.Executor = driver::ExecutorKind::Threaded;
    Options.Processors = 4;
    Options.Level = opt::OptLevel::O2;
    driver::ConcurrentCompiler C(Files, Interner, Options);
    driver::CompileResult R = C.compile(Info.Name);
    if (!R.Success) {
      std::fprintf(stderr, "compute workload compile failed:\n%s",
                   R.DiagnosticText.c_str());
      std::exit(1);
    }
    codegen::Linker Link(Interner);
    Link.addImage(std::move(R.Image));
    Prog = Link.link();
    if (!Prog.ok()) {
      std::fprintf(stderr, "compute workload link failed\n");
      std::exit(1);
    }
    Main = Interner.intern(Info.Name);

    vm::VM Machine(Prog, Interner, TierMode::Tier0Only);
    vm::VM::RunResult Run = Machine.run(Main, 1'000'000'000);
    if (Run.Trapped) {
      std::fprintf(stderr, "compute workload trapped: %s\n",
                   Run.TrapMessage.c_str());
      std::exit(1);
    }
    Output = Run.Output;
  }

  vm::VM::RunResult runIn(TierMode Mode) {
    vm::VM Machine(Prog, Interner, Mode);
    return Machine.run(Main, 1'000'000'000);
  }

  vm::VM::RunResult
  runOn(const std::shared_ptr<const TranslatedProgram> &Code) {
    vm::VM Machine(Prog, Interner, Code);
    return Machine.run(Main, 1'000'000'000);
  }
};

ComputeProgram &compute() {
  static ComputeProgram P;
  return P;
}

/// One shared translation: steady-state tier 1.
const std::shared_ptr<const TranslatedProgram> &warmCode() {
  static const std::shared_ptr<const TranslatedProgram> Code =
      std::make_shared<const TranslatedProgram>(compute().Prog);
  return Code;
}

void BM_VmTier0(benchmark::State &State) {
  ComputeProgram &P = compute();
  for (auto _ : State) {
    vm::VM::RunResult Run = P.runIn(TierMode::Tier0Only);
    if (Run.Trapped || Run.Output != P.Output)
      State.SkipWithError("tier-0 run diverged");
    benchmark::DoNotOptimize(Run.Output.size());
  }
}
BENCHMARK(BM_VmTier0)->Unit(benchmark::kMillisecond);

void BM_VmTier1Warm(benchmark::State &State) {
  ComputeProgram &P = compute();
  const std::shared_ptr<const TranslatedProgram> &Code = warmCode();
  for (auto _ : State) {
    vm::VM::RunResult Run = P.runOn(Code);
    if (Run.Trapped || Run.Output != P.Output)
      State.SkipWithError("tier-1 run diverged");
    benchmark::DoNotOptimize(Run.Output.size());
  }
}
BENCHMARK(BM_VmTier1Warm)->Unit(benchmark::kMillisecond);

void BM_VmTier1Cold(benchmark::State &State) {
  ComputeProgram &P = compute();
  for (auto _ : State) {
    vm::VM::RunResult Run = P.runIn(TierMode::Tier1);
    if (Run.Trapped || Run.Output != P.Output)
      State.SkipWithError("cold tier-1 run diverged");
    benchmark::DoNotOptimize(Run.Output.size());
  }
}
BENCHMARK(BM_VmTier1Cold)->Unit(benchmark::kMillisecond);

void BM_TranslateAll(benchmark::State &State) {
  ComputeProgram &P = compute();
  size_t Units = 0;
  for (auto _ : State) {
    TranslatedProgram Code(P.Prog);
    Units = Code.translated();
    benchmark::DoNotOptimize(Units);
  }
  State.counters["units"] = static_cast<double>(Units);
}
BENCHMARK(BM_TranslateAll)->Unit(benchmark::kMicrosecond);

/// Best-of-N wall time of one run, for the gate report: in \p Mode, or
/// on \p Code when it is set.
double secondsPerRun(TierMode Mode,
                     const std::shared_ptr<const TranslatedProgram> &Code) {
  ComputeProgram &P = compute();
  double Best = 1e9;
  for (int I = 0; I < 3; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    vm::VM::RunResult Run = Code ? P.runOn(Code) : P.runIn(Mode);
    auto T1 = std::chrono::steady_clock::now();
    if (Run.Trapped)
      return -1;
    Best = std::min(Best, std::chrono::duration<double>(T1 - T0).count());
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  // Gate the numbers: identical output in both tiers.
  ComputeProgram &P = compute();
  vm::VM::RunResult Tier1Run = P.runIn(TierMode::Tier1);
  if (Tier1Run.Trapped || Tier1Run.Output != P.Output) {
    std::fprintf(stderr, "FAIL: tier-1 output differs from tier 0\n");
    return 1;
  }
  double Tier0 = secondsPerRun(TierMode::Tier0Only, nullptr);
  double Warm = secondsPerRun(TierMode::Tier1, warmCode());
  double Cold = secondsPerRun(TierMode::Tier1, nullptr);
  if (Tier0 <= 0 || Warm <= 0 || Cold <= 0) {
    std::fprintf(stderr, "FAIL: gate run trapped\n");
    return 1;
  }
  std::printf("behaviour: output byte-identical across tier0/tier1  OK\n"
              "tier-1 speedup: %.2fx (tier0 %.2f ms, tier1 %.2f ms; "
              "target >= 1.5x)\n"
              "cold/warm tier-1 run: %.3f (cold %.2f ms)\n\n",
              Tier0 / Warm, Tier0 * 1e3, Warm * 1e3, Cold / Warm, Cold * 1e3);
  return runBenchmarksWithJson(argc, argv, "BENCH_vm_tiering.json");
}
