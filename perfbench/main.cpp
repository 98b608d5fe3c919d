//===--- main.cpp - The m2c benchmark: workloads, metrics, result line ----===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//   m2c_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: cold_suite, edit_loop, run_compute, farm_edit.  Each makes
// its inputs from the seed, sets the system up several times, runs a
// closed loop for S seconds, checks every output, and prints a readable
// report followed by one JSON result line (the last line of stdout).
// With --trace 0 the JSON carries the end-to-end metrics, which count CPU
// time rather than wall time (see cpuMs()), scaled by the host's speed
// (see HostSpeed.cpp); with --trace 1 it carries the per-layer ledger,
// wall-clock latencies included.  Metrics appear as
// name: value; run.py checks the names against BENCHMARK.json and adds
// the units.  Exit status is 0 only when every operation succeeded and
// every output matched its reference.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

/// Shortest text that reads back as exactly \p V.
std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, End) : std::string("0");
}

/// CPU ticks of the whole machine from /proc/stat: the time the host took
/// away ("steal") and the total.  Reported, not gated: it tells a noisy
/// run from a slow program.
struct CpuTicks {
  double Steal = 0, Total = 0;
};

CpuTicks cpuTicks() {
  CpuTicks T;
  if (std::FILE *F = std::fopen("/proc/stat", "r")) {
    unsigned long long V[8] = {};
    if (std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                    &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]) == 8) {
      for (unsigned long long X : V)
        T.Total += static_cast<double>(X);
      T.Steal = static_cast<double>(V[7]);
    }
    std::fclose(F);
  }
  return T;
}

int usage() {
  std::fprintf(stderr,
               "usage: m2c_perfbench --workload "
               "cold_suite|edit_loop|run_compute|farm_edit --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

} // namespace

void perfbench::putClassBusy(std::map<std::string, double> &Layers,
                             const ClassNs &Busy, double Ops) {
  using m2c::sched::TaskClass;
  auto Put = [&](const char *Name, TaskClass C) {
    Layers[Name] =
        ratio(static_cast<double>(Busy[static_cast<size_t>(C)]) / 1e6, Ops);
  };
  Put("lex.busy_ms", TaskClass::Lexor);
  Put("split.busy_ms", TaskClass::Splitter);
  Put("split.import_busy_ms", TaskClass::Importer);
  Put("parse.def_busy_ms", TaskClass::DefModParserDecl);
  Put("parse.module_busy_ms", TaskClass::ModuleParserDecl);
  Put("parse.proc_busy_ms", TaskClass::ProcParserDecl);
  Put("codegen.long_busy_ms", TaskClass::LongStmtCodeGen);
  Put("codegen.short_busy_ms", TaskClass::ShortStmtCodeGen);
  Put("codegen.merge_busy_ms", TaskClass::Merge);
}

int main(int Argc, char **Argv) {
  Options Opts;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      Opts.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Value.empty();
    } else if (Flag == "--seconds") {
      Opts.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = End && *End == '\0' && Opts.Seconds > 0;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return usage();
      Opts.Trace = Value == "1";
      HaveTrace = true;
    } else {
      return usage();
    }
  }
  if (Argc % 2 != 1 || !HaveWorkload || !HaveSeed || !HaveSeconds ||
      !HaveTrace)
    return usage();

  void (*Run)(const Options &, Outcome &) =
      Opts.Workload == "cold_suite"    ? runColdSuite
      : Opts.Workload == "edit_loop"   ? runEditLoop
      : Opts.Workload == "run_compute" ? runCompute
      : Opts.Workload == "farm_edit"   ? runFarmEdit
                                       : nullptr;
  if (!Run)
    return usage();

  // The host's speed is probed before and after the workload, and between
  // its blocks.
  std::vector<double> HostMs = hostSpeedProbe();
  Outcome Out;
  const CpuTicks Before = cpuTicks();
  Run(Opts, Out);
  const CpuTicks After = cpuTicks();
  const std::vector<double> HostAfter = hostSpeedProbe();
  if (HostMs.empty() || HostAfter.empty())
    Out.fail("the host's speed was not measured");
  HostMs.insert(HostMs.end(), HostAfter.begin(), HostAfter.end());
  HostMs.insert(HostMs.end(), Out.HostMs.begin(), Out.HostMs.end());
  const double Host = quantile(HostMs, 0.5);
  if (Out.PeakRssMb <= 0)
    Out.fail("peak memory was not measured");
  const double Scale = ratio(ReferenceHostMs, Host);
  const double FailedRatio =
      ratio(static_cast<double>(Out.Failed), static_cast<double>(Out.Attempted));
  // Timings are medians over the run's blocks (see BlockCount).
  std::vector<double> P50, P90, Rate, Cpu;
  for (const Block &B : Out.Blocks) {
    P50.push_back(quantile(B.Ms, 0.5));
    P90.push_back(quantile(B.Ms, 0.9));
    Rate.push_back(ratio(static_cast<double>(B.Ms.size()), B.Seconds));
    Cpu.push_back(ratio(B.CpuMs, static_cast<double>(B.Ms.size())));
  }
  // The gated timings count CPU time, which the host's steal does not
  // inflate, scaled to the reference host's speed; the raw and wall-clock
  // figures beside them are reported, not gated.
  std::map<std::string, double> E2E = {
      {"setup_s", Out.SetupSeconds * Scale},
      {"cpu_ms_per_op", quantile(Cpu, 0.5) * Scale},
      {"peak_rss_mb", Out.PeakRssMb},
      {"mco_bytes", Out.McoBytes},
  };
  std::map<std::string, double> Ungated = {
      {"setup_cpu_raw_s", Out.SetupSeconds},
      {"cpu_ms_per_op_raw", quantile(Cpu, 0.5)},
      {"host.speed_ms", Host},
      {"setup_wall_s", Out.SetupWallSeconds},
      {"op_p50_ms", quantile(P50, 0.5)},
      {"op_p90_ms", quantile(P90, 0.5)},
      {"throughput_rps", quantile(Rate, 0.5)},
      {"host.steal_ratio",
       ratio(After.Steal - Before.Steal, After.Total - Before.Total)},
  };

  // The readable report adds the latency split by operation kind, with
  // "n/a" for a kind this workload does not perform.
  std::printf("\n== %s  seed %llu  %.0f s  trace %d ==\n",
              Opts.Workload.c_str(),
              static_cast<unsigned long long>(Opts.Seed), Opts.Seconds,
              Opts.Trace ? 1 : 0);
  std::printf("  %-22s %14s  CPU s, reference host\n", "setup_s",
              number(E2E["setup_s"]).c_str());
  std::printf("  %-22s %14.4f  CPU ms, reference host (all threads and "
              "worker processes)\n",
              "cpu_ms_per_op", E2E["cpu_ms_per_op"]);
  for (const char *Kind : {"compile", "edit", "replay", "run"}) {
    auto It = Out.Kinds.find(Kind);
    for (double Q : {0.5, 0.9}) {
      std::string Name =
          std::string(Kind) + (Q == 0.5 ? "_p50_ms" : "_p90_ms");
      if (It == Out.Kinds.end() || It->second.empty()) {
        std::printf("  %-22s %14s\n", Name.c_str(), "n/a");
        continue;
      }
      double V = quantile(It->second, Q);
      std::printf("  %-22s %14.4f  ms  (n=%zu)\n", Name.c_str(), V,
                  It->second.size());
      if (Opts.Trace)
        Out.Layers[Name] = V;
    }
  }
  for (const char *Name : {"peak_rss_mb", "mco_bytes"})
    std::printf("  %-22s %14.4f\n", Name, E2E[Name]);
  std::printf("  not gated: unscaled CPU time, host speed, wall clock\n");
  for (const auto &[Name, V] : Ungated) {
    std::printf("  %-22s %14.4f\n", Name.c_str(), V);
    if (Opts.Trace)
      Out.Layers[Name] = V;
  }
  std::printf("  (%zu operations in %zu blocks over %.2f s; CPU ms per op by "
              "block:",
              Out.Ops.size(), Out.Blocks.size(), Out.LoopSeconds);
  for (double C : Cpu)
    std::printf(" %.3f", C);
  std::printf(")\n");
  std::printf("  %-22s %14.6f  (%llu failed / %llu attempted)\n",
              "failed_ratio", FailedRatio,
              static_cast<unsigned long long>(Out.Failed),
              static_cast<unsigned long long>(Out.Attempted));
  for (const std::string &E : Out.Errors)
    std::fprintf(stderr, "FAIL: %s\n", E.c_str());

  // Metric names and values only: run.py checks the names against
  // BENCHMARK.json, which alone holds the units.
  std::string Json = "{\"correct\": ";
  const bool Correct = Out.Failed == 0 && Out.Attempted > 0;
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Out.Attempted);
  Json += ", \"failed\": " + std::to_string(Out.Failed);
  Json += ", \"metrics\": {";
  if (Opts.Trace)
    Out.Layers["failed_ratio"] = FailedRatio;
  bool First = true;
  for (const auto &[Name, V] : Opts.Trace ? Out.Layers : E2E) {
    Json += First ? "" : ", ";
    First = false;
    Json += "\"" + Name + "\": " + number(V);
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
