//===--- PeepholeTest.cpp - Peephole pass tests ------------------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "driver/ConcurrentCompiler.h"
#include "driver/SequentialCompiler.h"
#include "opt/PassManager.h"
#include "vm/VM.h"
#include "workload/WorkloadGenerator.h"

#include <gtest/gtest.h>

using namespace m2c;
using namespace m2c::codegen;

namespace {

/// Builds a raw unit for direct optimizer tests.
CodeUnit makeUnit(std::vector<Instr> Code) {
  CodeUnit U;
  U.Code = std::move(Code);
  return U;
}

Instr I(Opcode Op, int64_t A = 0, int64_t B = 0) {
  return Instr{Op, A, B, 0.0};
}

/// Runs the unit through the -O1 pipeline (the peephole pass alone, via
/// the pass-manager entry point codegen uses) and returns its counters.
std::map<std::string, uint64_t> optimizeUnit(CodeUnit &U) {
  opt::PassManager PM = opt::PassManager::forLevel(opt::OptLevel::O1);
  StatisticSet Stats;
  PM.run(U, &Stats);
  return Stats.snapshot();
}

TEST(Peephole, FoldsConstantArithmetic) {
  CodeUnit U = makeUnit({I(Opcode::PushInt, 6), I(Opcode::PushInt, 7),
                         I(Opcode::MulInt), I(Opcode::Halt, 0)});
  auto S = optimizeUnit(U);
  EXPECT_GE(S["opt.peephole.folded"], 1u);
  ASSERT_EQ(U.Code.size(), 2u);
  EXPECT_EQ(U.Code[0].Op, Opcode::PushInt);
  EXPECT_EQ(U.Code[0].A, 42);
}

TEST(Peephole, FoldsChains) {
  // (2 + 3) * 4 - 1 == 19, folded across rounds.
  CodeUnit U = makeUnit({I(Opcode::PushInt, 2), I(Opcode::PushInt, 3),
                         I(Opcode::AddInt), I(Opcode::PushInt, 4),
                         I(Opcode::MulInt), I(Opcode::PushInt, 1),
                         I(Opcode::SubInt), I(Opcode::Halt, 0)});
  optimizeUnit(U);
  ASSERT_EQ(U.Code.size(), 2u);
  EXPECT_EQ(U.Code[0].A, 19);
}

TEST(Peephole, NeverFoldsDivisionByZero) {
  CodeUnit U = makeUnit({I(Opcode::PushInt, 1), I(Opcode::PushInt, 0),
                         I(Opcode::DivInt), I(Opcode::Halt, 0)});
  optimizeUnit(U);
  // The trapping division must survive.
  ASSERT_EQ(U.Code.size(), 4u);
  EXPECT_EQ(U.Code[2].Op, Opcode::DivInt);
}

TEST(Peephole, FusesCompareWithNot) {
  CodeUnit U = makeUnit({I(Opcode::LoadLocal, 0), I(Opcode::LoadLocal, 1),
                         I(Opcode::CmpEqInt), I(Opcode::NotBool),
                         I(Opcode::JumpIfFalse, 6), I(Opcode::Halt, 1),
                         I(Opcode::Return)});
  auto S = optimizeUnit(U);
  EXPECT_GE(S["opt.peephole.fused"], 1u);
  ASSERT_EQ(U.Code.size(), 6u);
  EXPECT_EQ(U.Code[2].Op, Opcode::CmpNeInt);
  EXPECT_EQ(U.Code[3].Op, Opcode::JumpIfFalse);
  EXPECT_EQ(U.Code[3].A, 5); // target remapped after deletion
}

TEST(Peephole, DropsAddZeroAndMulOne) {
  CodeUnit U = makeUnit({I(Opcode::LoadLocal, 0), I(Opcode::PushInt, 0),
                         I(Opcode::AddInt), I(Opcode::PushInt, 1),
                         I(Opcode::MulInt), I(Opcode::StoreLocal, 1),
                         I(Opcode::Return)});
  optimizeUnit(U);
  ASSERT_EQ(U.Code.size(), 3u);
  EXPECT_EQ(U.Code[0].Op, Opcode::LoadLocal);
  EXPECT_EQ(U.Code[1].Op, Opcode::StoreLocal);
}

TEST(Peephole, ThreadsJumpChains) {
  CodeUnit U = makeUnit({I(Opcode::JumpIfTrue, 2), I(Opcode::Return),
                         I(Opcode::Jump, 4), I(Opcode::Return),
                         I(Opcode::Jump, 6), I(Opcode::Return),
                         I(Opcode::Halt, 0)});
  auto S = optimizeUnit(U);
  EXPECT_GE(S["opt.peephole.threaded"], 1u);
  EXPECT_EQ(U.Code[0].Op, Opcode::JumpIfTrue);
  EXPECT_EQ(U.Code[0].A, 6); // through both hops
}

TEST(Peephole, ConstantConditionBecomesJumpOrFallsThrough) {
  CodeUnit U = makeUnit({I(Opcode::PushInt, 1), I(Opcode::JumpIfTrue, 4),
                         I(Opcode::Halt, 1), I(Opcode::Return),
                         I(Opcode::Halt, 0)});
  optimizeUnit(U);
  ASSERT_GE(U.Code.size(), 1u);
  EXPECT_EQ(U.Code[0].Op, Opcode::Jump);
}

TEST(Peephole, DoesNotFuseAcrossJumpTargets) {
  // Instruction 2 (AddInt) is a jump target: a branch lands between the
  // pushes and the operation, so folding would corrupt that path.
  CodeUnit U = makeUnit({I(Opcode::PushInt, 1), I(Opcode::PushInt, 2),
                         I(Opcode::AddInt), I(Opcode::Return),
                         I(Opcode::Jump, 2)});
  optimizeUnit(U);
  ASSERT_EQ(U.Code.size(), 5u);
  EXPECT_EQ(U.Code[2].Op, Opcode::AddInt);
}

TEST(Peephole, IsIdempotent) {
  CodeUnit U = makeUnit({I(Opcode::PushInt, 2), I(Opcode::PushInt, 3),
                         I(Opcode::AddInt), I(Opcode::NotBool),
                         I(Opcode::Halt, 0)});
  optimizeUnit(U);
  std::vector<Instr> Once = U.Code;
  optimizeUnit(U);
  ASSERT_EQ(U.Code.size(), Once.size());
  for (size_t J = 0; J < Once.size(); ++J) {
    EXPECT_EQ(U.Code[J].Op, Once[J].Op);
    EXPECT_EQ(U.Code[J].A, Once[J].A);
  }
}

//===----------------------------------------------------------------------===//
// Semantics preservation through whole programs
//===----------------------------------------------------------------------===//

std::pair<std::string, size_t> runProgram(VirtualFileSystem &Files,
                                           StringInterner &Interner,
                                           const std::string &Main,
                                           opt::OptLevel Level) {
  driver::CompilerOptions O;
  O.Level = Level;
  O.Processors = 4;
  driver::ConcurrentCompiler C(Files, Interner, O);
  driver::CompileResult R = C.compile(Main);
  EXPECT_TRUE(R.Success) << R.DiagnosticText.substr(0, 800);
  size_t Instrs = 0;
  for (const CodeUnit &U : R.Image.Units)
    Instrs += U.Code.size();
  codegen::Linker Link(Interner);
  Link.addImage(std::move(R.Image));
  codegen::LinkedProgram Prog = Link.link();
  EXPECT_TRUE(Prog.ok());
  vm::VM Machine(Prog, Interner);
  auto Run = Machine.run(Interner.intern(Main));
  EXPECT_FALSE(Run.Trapped) << Run.TrapMessage;
  return {Run.Output, Instrs};
}

TEST(Peephole, PreservesProgramBehaviour) {
  VirtualFileSystem Files;
  StringInterner Interner;
  Files.addFile("P.mod",
                "MODULE P;\n"
                "CONST N = 3 * 4 + 2;\n"
                "VAR i, acc: INTEGER; s: BITSET;\n"
                "PROCEDURE Mix(a, b: INTEGER): INTEGER;\n"
                "BEGIN\n"
                "  IF (a > 0) AND NOT (b = 0) THEN RETURN a * 1 + b + 0 END;\n"
                "  RETURN a - b\n"
                "END Mix;\n"
                "BEGIN\n"
                "  acc := 0;\n"
                "  FOR i := 1 TO N DO acc := acc + Mix(i, N - i) END;\n"
                "  s := {1, 2 + 1};\n"
                "  IF 3 IN s THEN acc := acc + 100 END;\n"
                "  WriteInt(acc, 0); WriteLn\n"
                "END P.\n");
  auto [Plain, PlainSize] =
      runProgram(Files, Interner, "P", opt::OptLevel::O0);
  auto [Optimized, OptSize] =
      runProgram(Files, Interner, "P", opt::OptLevel::O1);
  EXPECT_EQ(Plain, Optimized);
  EXPECT_FALSE(Plain.empty());
  EXPECT_LT(OptSize, PlainSize); // x*1, x+0 and AND/NOT shapes shrank
}

TEST(Peephole, PreservesGeneratedSuiteProgram) {
  workload::ModuleSpec Spec = workload::WorkloadGenerator::paperSuite()[6];
  Spec.WithImplementations = true;
  VirtualFileSystem Files;
  StringInterner Interner;
  workload::GeneratedModule Info =
      workload::WorkloadGenerator(Files).generate(Spec);

  auto BuildAndRun = [&](opt::OptLevel Level) {
    driver::CompilerOptions O;
    O.Level = Level;
    O.Processors = 8;
    codegen::Linker Link(Interner);
    for (size_t K = 0; K < Info.InterfaceCount; ++K) {
      driver::ConcurrentCompiler C(Files, Interner, O);
      auto R = C.compile(Spec.Name + "I" + std::to_string(K));
      EXPECT_TRUE(R.Success);
      Link.addImage(std::move(R.Image));
    }
    driver::ConcurrentCompiler C(Files, Interner, O);
    auto R = C.compile(Spec.Name);
    EXPECT_TRUE(R.Success);
    size_t Instrs = 0;
    for (const CodeUnit &U : R.Image.Units)
      Instrs += U.Code.size();
    Link.addImage(std::move(R.Image));
    codegen::LinkedProgram Prog = Link.link();
    EXPECT_TRUE(Prog.ok());
    vm::VM Machine(Prog, Interner);
    auto Run = Machine.run(Interner.intern(Spec.Name), 50'000'000);
    EXPECT_FALSE(Run.Trapped) << Run.TrapMessage;
    return std::make_pair(Run.Output, Instrs);
  };

  auto [PlainOut, PlainSize] = BuildAndRun(opt::OptLevel::O0);
  auto [OptOut, OptSize] = BuildAndRun(opt::OptLevel::O1);
  EXPECT_EQ(PlainOut, OptOut);
  // Generated code rarely pairs constants (semantic analysis already
  // folds constant expressions), so only require no growth here; the
  // hand-written program above checks actual shrinkage.
  EXPECT_LE(OptSize, PlainSize);
}

} // namespace
