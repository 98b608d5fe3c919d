//===--- TieringTest.cpp - Tiered-execution equivalence and races -----------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// The tiered VM's contract is that tier choice is *unobservable*: output,
// exit code, trap points and messages, and MaxSteps accounting are
// byte-identical whether a program runs in tier 1 (translated at load,
// the default) or in tier 0, the reference interpreter.  These tests pin
// that contract, sweep the step budget across every fused-group boundary,
// check that each superinstruction is actually emitted (and that the
// trapping shapes are not), and run one translated program from several
// threads at once (the TSan job runs this binary).
//
//===----------------------------------------------------------------------===//

#include "driver/SequentialCompiler.h"
#include "vm/VM.h"
#include "vm/VmStats.h"
#include "vm/tier/Translator.h"
#include "workload/WorkloadGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <tuple>

using namespace m2c;
using vm::tier::BinKind;
using vm::tier::T1Op;
using vm::tier::TierMode;

namespace {

/// Compiles one module and runs it in either tier.
struct TierFixture {
  VirtualFileSystem Files;
  StringInterner Interner;
  codegen::Linker Link{Interner};
  codegen::LinkedProgram Prog;
  Symbol Main;

  void compile(const std::string &Name, const std::string &Source,
               opt::OptLevel Level = opt::defaultOptLevel()) {
    Files.addFile(Name + ".mod", Source);
    compileExisting(Name, Level);
  }

  /// Compiles a module already present in Files (workload generators
  /// write straight into the VFS).
  void compileExisting(const std::string &Name,
                       opt::OptLevel Level = opt::defaultOptLevel()) {
    driver::CompilerOptions Options;
    Options.Level = Level;
    driver::SequentialCompiler C(Files, Interner, Options);
    driver::CompileResult R = C.compile(Name);
    ASSERT_TRUE(R.Success) << R.DiagnosticText;
    Link.addImage(std::move(R.Image));
    Prog = Link.link();
    ASSERT_TRUE(Prog.ok());
    Main = Interner.intern(Name);
  }

  vm::VM::RunResult runWith(TierMode Mode, uint64_t MaxSteps = 100'000'000) {
    vm::VM Machine(Prog, Interner, Mode);
    return Machine.run(Main, MaxSteps);
  }

  /// Every (op, kind, immediate) the translator emits for the program.
  std::multiset<std::tuple<T1Op, uint8_t, int64_t>> emitted() const {
    vm::tier::TranslatedProgram Code(Prog);
    std::multiset<std::tuple<T1Op, uint8_t, int64_t>> Ops;
    for (size_t U = 0; U < Prog.units().size(); ++U) {
      const vm::tier::TierUnit *TU = Code.units()[U];
      EXPECT_NE(TU, nullptr) << "unit " << U << " refused";
      for (uint32_t I = 0; TU && I < TU->NumInstrs; ++I)
        Ops.emplace(TU->Code[I].Op, TU->Code[I].Kind, TU->Code[I].B);
    }
    return Ops;
  }
};

bool hasOp(const std::multiset<std::tuple<T1Op, uint8_t, int64_t>> &Ops,
           T1Op Op) {
  for (const auto &[O, Kind, B] : Ops)
    if (O == Op)
      return true;
  return false;
}

/// True when a fused immediate binop with kind \p K was emitted; \p Forms
/// narrows the search to some of the three fused immediate forms.
bool hasFusedBin(const std::multiset<std::tuple<T1Op, uint8_t, int64_t>> &Ops,
                 BinKind K,
                 std::initializer_list<T1Op> Forms = {
                     T1Op::FusedLIB, T1Op::FusedLIBS, T1Op::FusedIB}) {
  for (const auto &[O, Kind, B] : Ops)
    if (std::find(Forms.begin(), Forms.end(), O) != Forms.end() &&
        Kind == static_cast<uint8_t>(K))
      return true;
  return false;
}

void expectSameResult(const vm::VM::RunResult &A, const vm::VM::RunResult &B,
                      const char *What) {
  EXPECT_EQ(A.Output, B.Output) << What;
  EXPECT_EQ(A.ExitCode, B.ExitCode) << What;
  EXPECT_EQ(A.Trapped, B.Trapped) << What;
  EXPECT_EQ(A.TrapMessage, B.TrapMessage) << What;
}

/// Runs every step budget from 1 to just past the program's full length
/// in both tiers: each must trap at the same point with the same message.
/// This crosses every fused-group boundary, so it exercises the tier-1
/// deopt path (a superinstruction that cannot fit the remaining budget
/// replays in tier 0).
void sweepStepBudgets(TierFixture &F) {
  vm::VM::RunResult Full = F.runWith(TierMode::Tier0Only);
  ASSERT_FALSE(Full.Trapped) << Full.TrapMessage;

  // The exact untrapped step count: the smallest budget that runs to
  // completion under tier 0.
  uint64_t Total = 1;
  while (F.runWith(TierMode::Tier0Only, Total).Trapped)
    ++Total;
  ASSERT_GT(Total, 100u) << "workload too small to cross fusion boundaries";

  for (uint64_t Budget = 1; Budget <= Total + 2; ++Budget) {
    vm::VM::RunResult T0 = F.runWith(TierMode::Tier0Only, Budget);
    vm::VM::RunResult T1 = F.runWith(TierMode::Tier1, Budget);
    EXPECT_EQ(T0.Trapped, T1.Trapped) << "budget " << Budget;
    EXPECT_EQ(T0.TrapMessage, T1.TrapMessage) << "budget " << Budget;
    EXPECT_EQ(T0.Output, T1.Output) << "budget " << Budget;
  }
}

/// One program with every fused shape: INC/DEC of a local (and of the FOR
/// control variable) and of a global, DIV/MOD by a positive literal with
/// and without a store and on a computed value, and IF on a computed value
/// compared with a literal.
const char *const FusedShapes =
    "MODULE T;\nVAR g, h: INTEGER;\n"
    "PROCEDURE Work(n: INTEGER): INTEGER;\n"
    "VAR i, x, y, acc: INTEGER;\n"
    "BEGIN\n"
    "  acc := 0; x := n;\n"
    "  FOR i := 1 TO n DO\n"
    "    INC(x, 3); DEC(x);\n"
    "    IF x MOD 7 = 0 THEN INC(acc) END;\n"
    "    acc := acc + x DIV 4;\n"
    "    y := x DIV 3; x := x MOD 1000;\n"
    "    IF (x + i) = 12 THEN DEC(acc, 2) END;\n"
    "    acc := acc + (x + i) MOD 5 + (y * 2) DIV 3 + (x - i) * 3;\n"
    "    INC(g); DEC(h, 2); acc := acc + y\n"
    "  END;\n"
    "  RETURN acc\n"
    "END Work;\n"
    "BEGIN\n"
    "  g := 0; h := 100;\n"
    "  WriteInt(Work(24), 0); WriteChar(' '); WriteInt(g, 0);\n"
    "  WriteChar(' '); WriteInt(h, 0); WriteLn\nEND T.\n";

//===--- Observable-equivalence gates ---------------------------------------===//

TEST(Tiering, ComputeWorkloadIdenticalAcrossTiers) {
  TierFixture F;
  workload::WorkloadGenerator Gen(F.Files);
  workload::ComputeSpec Spec;
  Spec.Depth = 2;
  Spec.Fan = 2;
  Spec.LeafProcs = 4;
  Spec.InnerIters = 24;
  Spec.OuterIters = 12;
  F.compileExisting(Gen.generateCompute(Spec).Name, opt::OptLevel::O2);

  vm::VM::RunResult T0 = F.runWith(TierMode::Tier0Only);
  ASSERT_FALSE(T0.Trapped) << T0.TrapMessage;
  ASSERT_FALSE(T0.Output.empty());

  // A translator that silently stops fusing the compute program's hot
  // shapes would keep every output right; the counters catch it.
  std::map<std::string, uint64_t> Before = vm::globalVmStats().snapshot();
  expectSameResult(T0, F.runWith(TierMode::Tier1), "tier 1");
  std::map<std::string, uint64_t> After = vm::globalVmStats().snapshot();
  EXPECT_GT(After["vm.tier.fused.groups"], Before["vm.tier.fused.groups"]);
  // Without a step-budget deopt, tier 0 runs nothing.
  EXPECT_EQ(After["vm.tier.deopts"], Before["vm.tier.deopts"]);
  EXPECT_EQ(After["vm.steps.tier0"], Before["vm.steps.tier0"]);
  EXPECT_GT(After["vm.steps.tier1"], Before["vm.steps.tier1"]);
}

TEST(Tiering, StepBudgetSweepIdenticalAcrossTiers) {
  TierFixture F;
  F.compile("T", "MODULE T;\nVAR i, acc, t: INTEGER;\nBEGIN\n"
                 "  acc := 0; t := 1;\n"
                 "  FOR i := 0 TO 15 DO acc := acc + i; t := t + acc END;\n"
                 "  WHILE t > 1 DO t := t DIV 2 END;\n"
                 "  WriteInt(acc + t, 0); WriteLn\nEND T.\n");
  sweepStepBudgets(F);
}

// The same sweep over a program made of the INC/DEC, DIV/MOD-by-literal
// and compare-with-literal superinstructions, compiled at -O2 (constant
// folding turns DEC's negated step into a literal).
TEST(Tiering, FusedShapesStepBudgetSweep) {
  TierFixture F;
  F.compile("T", FusedShapes, opt::OptLevel::O2);
  auto Ops = F.emitted();
  EXPECT_TRUE(hasOp(Ops, T1Op::FusedIncLocal));
  EXPECT_TRUE(hasOp(Ops, T1Op::FusedIncGlobal));
  EXPECT_TRUE(hasOp(Ops, T1Op::FusedICmpBr));
  for (BinKind K : {BinKind::Div, BinKind::Mod})
    EXPECT_TRUE(hasFusedBin(Ops, K, {T1Op::FusedLIB, T1Op::FusedLIBS}))
        << "no fused local-operand binop of kind " << static_cast<int>(K);
  for (BinKind K : {BinKind::Mod, BinKind::Div, BinKind::Mul})
    EXPECT_TRUE(hasFusedBin(Ops, K, {T1Op::FusedIB}))
        << "no fused computed-operand binop of kind " << static_cast<int>(K);
  EXPECT_FALSE(hasOp(Ops, T1Op::IncAddr)) << "an INC/DEC stayed unfused";
  expectSameResult(F.runWith(TierMode::Tier0Only), F.runWith(TierMode::Tier1),
                   "fused shapes");
  sweepStepBudgets(F);
}

// Traps raised inside tier-1 code must report the same tier-0 pc and
// message the interpreter would have.
TEST(Tiering, TrapPointsIdenticalInTier1) {
  const std::string DivTrap =
      "MODULE T;\nVAR i, x: INTEGER;\nBEGIN\n"
      "  x := 0;\n"
      "  FOR i := 0 TO 60 DO x := x + 100 DIV (50 - i) END;\n"
      "  WriteInt(x, 0); WriteLn\nEND T.\n";
  const std::string BoundsTrap =
      "MODULE T;\nVAR a: ARRAY [0..9] OF INTEGER; i: INTEGER;\nBEGIN\n"
      "  FOR i := 0 TO 20 DO a[i] := i END;\n"
      "  WriteInt(a[0], 0); WriteLn\nEND T.\n";
  for (const std::string &Source : {DivTrap, BoundsTrap}) {
    TierFixture F;
    F.compile("T", Source);
    vm::VM::RunResult T0 = F.runWith(TierMode::Tier0Only);
    ASSERT_TRUE(T0.Trapped);
    expectSameResult(T0, F.runWith(TierMode::Tier1), "tier 1");
  }
}

// DIV and MOD by a literal that is not positive can trap (or overflow),
// so they must stay unfused and trap at their own tier-0 pc, whether the
// left operand is a local or a computed value.
TEST(Tiering, NonPositiveLiteralDivisorsStayUnfused) {
  struct Case {
    const char *Expr;
    bool Traps;
  };
  for (const Case &C :
       {Case{"x DIV 0", true}, Case{"x MOD 0", true},
        Case{"x DIV (-1)", false}, Case{"(x + i) DIV 0", true},
        Case{"(x + i) MOD 0", true}, Case{"(x + i) DIV (-1)", false}}) {
    TierFixture F;
    F.compile("T",
              std::string("MODULE T;\nPROCEDURE P(n: INTEGER): INTEGER;\n"
                          "VAR i, x, y: INTEGER;\nBEGIN\n"
                          "  y := 0;\n"
                          "  FOR i := 1 TO n DO x := i; y := y + ") +
                  C.Expr + " END;\n  RETURN y\nEND P;\nBEGIN\n"
                           "  WriteInt(P(5), 0); WriteLn\nEND T.\n",
              opt::OptLevel::O2);
    auto Ops = F.emitted();
    EXPECT_FALSE(hasFusedBin(Ops, BinKind::Div)) << C.Expr;
    EXPECT_FALSE(hasFusedBin(Ops, BinKind::Mod)) << C.Expr;
    vm::VM::RunResult T0 = F.runWith(TierMode::Tier0Only);
    EXPECT_EQ(T0.Trapped, C.Traps) << C.Expr << ": " << T0.TrapMessage;
    expectSameResult(T0, F.runWith(TierMode::Tier1), C.Expr);
  }
}

//===--- Concurrency (the TSan target) --------------------------------------===//

// One TranslatedProgram is immutable once built, so several VMs may run
// it at once from several threads, next to VMs translating their own
// copy; every run must match tier 0.
TEST(Tiering, ConcurrentVmsShareOneTranslatedProgram) {
  TierFixture F;
  workload::WorkloadGenerator Gen(F.Files);
  workload::ComputeSpec Spec;
  Spec.Depth = 2;
  Spec.Fan = 2;
  Spec.LeafProcs = 8;
  Spec.InnerIters = 16;
  Spec.OuterIters = 8;
  F.compileExisting(Gen.generateCompute(Spec).Name);

  const std::string Expected = F.runWith(TierMode::Tier0Only).Output;
  ASSERT_FALSE(Expected.empty());

  auto Shared =
      std::make_shared<const vm::tier::TranslatedProgram>(F.Prog);
  EXPECT_EQ(Shared->translated(), F.Prog.units().size());
  constexpr unsigned Threads = 4;
  constexpr unsigned RunsPerThread = 6;
  std::vector<std::string> Bad[Threads];
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned R = 0; R < RunsPerThread; ++R) {
        vm::VM::RunResult Result;
        if (R % 2 == 0) {
          vm::VM Machine(F.Prog, F.Interner, Shared);
          Result = Machine.run(F.Main);
        } else {
          Result = F.runWith(TierMode::Tier1);
        }
        if (Result.Trapped || Result.Output != Expected)
          Bad[T].push_back(Result.Trapped ? Result.TrapMessage
                                          : Result.Output);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  for (unsigned T = 0; T < Threads; ++T)
    EXPECT_TRUE(Bad[T].empty()) << "thread " << T << ": " << Bad[T].front();
}

//===--- Counters ------------------------------------------------------------===//

TEST(Tiering, CountersFlowThroughGlobalStats) {
  TierFixture F;
  F.compile("T", "MODULE T;\nVAR i, acc: INTEGER;\nBEGIN\n"
                 "  acc := 0;\n"
                 "  FOR i := 0 TO 500 DO acc := acc + i END;\n"
                 "  WriteInt(acc, 0); WriteLn\nEND T.\n");

  std::map<std::string, uint64_t> Before = vm::globalVmStats().snapshot();
  vm::VM::RunResult Run = F.runWith(TierMode::Tier1);
  ASSERT_FALSE(Run.Trapped);
  std::map<std::string, uint64_t> After = vm::globalVmStats().snapshot();

  EXPECT_GE(After["vm.runs"], Before["vm.runs"] + 1);
  EXPECT_GT(After["vm.steps.tier1"], Before["vm.steps.tier1"]);
  EXPECT_GT(After["vm.dispatch.tier1"], Before["vm.dispatch.tier1"]);
  EXPECT_GT(After["vm.tier.promotions"], Before["vm.tier.promotions"]);
  EXPECT_GT(After["vm.tier.instrs"], Before["vm.tier.instrs"]);
  EXPECT_GT(After["vm.tier.arena.bytes"], Before["vm.tier.arena.bytes"]);
  // Fusion pays in dispatches: tier-0-equivalent steps must exceed the
  // dispatches tier 1 actually performed.
  EXPECT_GT(After["vm.steps.tier1"] - Before["vm.steps.tier1"],
            After["vm.dispatch.tier1"] - Before["vm.dispatch.tier1"]);

  // The reference interpreter translates nothing and runs every step.
  Before = After;
  vm::VM::RunResult Ref = F.runWith(TierMode::Tier0Only);
  After = vm::globalVmStats().snapshot();
  EXPECT_EQ(Ref.Output, Run.Output);
  EXPECT_EQ(After["vm.tier.promotions"], Before["vm.tier.promotions"]);
  EXPECT_EQ(After["vm.steps.tier1"], Before["vm.steps.tier1"]);
  EXPECT_GT(After["vm.steps.tier0"], Before["vm.steps.tier0"]);
}

} // namespace
