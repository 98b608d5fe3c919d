//===--- VmTest.cpp - MCode machine and runtime-trap tests ------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "driver/SequentialCompiler.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace m2c;

namespace {

struct VmFixture {
  VirtualFileSystem Files;
  StringInterner Interner;

  vm::VM::RunResult run(const std::string &Source,
                        std::vector<int64_t> Input = {}) {
    Files.addFile("T.mod", Source);
    driver::SequentialCompiler C(Files, Interner);
    driver::CompileResult R = C.compile("T");
    EXPECT_TRUE(R.Success) << R.DiagnosticText;
    codegen::Linker Link(Interner);
    Link.addImage(std::move(R.Image));
    codegen::LinkedProgram Prog = Link.link();
    EXPECT_TRUE(Prog.ok());
    vm::VM Machine(Prog, Interner);
    Machine.setInput(std::move(Input));
    return Machine.run(Interner.intern("T"));
  }

  std::string runOk(const std::string &Source,
                    std::vector<int64_t> Input = {}) {
    auto R = run(Source, std::move(Input));
    EXPECT_FALSE(R.Trapped) << R.TrapMessage;
    return R.Output;
  }

  std::string runTrap(const std::string &Source) {
    auto R = run(Source);
    EXPECT_TRUE(R.Trapped) << "expected a trap; output: " << R.Output;
    return R.TrapMessage;
  }
};

TEST(Vm, IntegerArithmetic) {
  VmFixture F;
  EXPECT_EQ(F.runOk("MODULE T;\nVAR x: INTEGER;\nBEGIN\n"
                    "  x := (7 + 3) * 2 - 5;\n"
                    "  WriteInt(x, 0); WriteChar(' ');\n"
                    "  WriteInt(-x DIV 3, 0); WriteChar(' ');\n"
                    "  WriteInt(x MOD 4, 0); WriteChar(' ');\n"
                    "  WriteInt(ABS(-9), 0); WriteLn\nEND T.\n"),
            "15 -5 3 9\n");
}

TEST(Vm, RealArithmeticAndConversions) {
  VmFixture F;
  EXPECT_EQ(F.runOk("MODULE T;\nVAR r: REAL;\nBEGIN\n"
                    "  r := FLOAT(7) / 2.0;\n"
                    "  WriteReal(r, 0); WriteChar(' ');\n"
                    "  WriteInt(TRUNC(r), 0); WriteChar(' ');\n"
                    "  WriteReal(ABS(-1.5), 0); WriteLn\nEND T.\n"),
            "3.5 3 1.5\n");
}

TEST(Vm, CharOperations) {
  VmFixture F;
  EXPECT_EQ(F.runOk("MODULE T;\nVAR c: CHAR;\nBEGIN\n"
                    "  c := CHR(ORD('a') + 1);\n"
                    "  WriteChar(c); WriteChar(CAP(c));\n"
                    "  IF ODD(3) THEN WriteChar('!') END; WriteLn\n"
                    "END T.\n"),
            "bB!\n");
}

TEST(Vm, SetOperations) {
  VmFixture F;
  EXPECT_EQ(
      F.runOk("MODULE T;\nVAR s, t: BITSET; i: INTEGER;\nBEGIN\n"
              "  s := {1, 3, 5}; t := {3, 4};\n"
              "  IF 3 IN s * t THEN WriteChar('a') END;\n"
              "  IF (s + t) = {1, 3, 4, 5} THEN WriteChar('b') END;\n"
              "  IF (s - t) = {1, 5} THEN WriteChar('c') END;\n"
              "  IF (s / t) = {1, 4, 5} THEN WriteChar('d') END;\n"
              "  IF {1} <= s THEN WriteChar('e') END;\n"
              "  IF s >= {1, 3} THEN WriteChar('f') END;\n"
              "  i := 2;\n"
              "  s := {i, i + 2};  (* runtime construction *)\n"
              "  IF (2 IN s) AND (4 IN s) THEN WriteChar('g') END;\n"
              "  WriteLn\nEND T.\n"),
      "abcdefg\n");
}

TEST(Vm, SubrangeAndValChecks) {
  VmFixture F;
  EXPECT_EQ(F.runOk("MODULE T;\n"
                    "TYPE Small = [1..9];\n"
                    "VAR s: Small;\n"
                    "BEGIN s := VAL(Small, 4); WriteInt(s, 0); WriteLn\n"
                    "END T.\n"),
            "4\n");
  EXPECT_NE(F.runTrap("MODULE T;\nTYPE Small = [1..9];\n"
                      "VAR s: Small; x: INTEGER;\n"
                      "BEGIN x := 12; s := x END T.\n")
                .find("outside range"),
            std::string::npos);
}

TEST(Vm, ArrayBoundsTrap) {
  VmFixture F;
  EXPECT_NE(F.runTrap("MODULE T;\n"
                      "VAR a: ARRAY [1..5] OF INTEGER; i: INTEGER;\n"
                      "BEGIN i := 9; a[i] := 1 END T.\n")
                .find("out of bounds"),
            std::string::npos);
}

TEST(Vm, NilDereferenceTrap) {
  VmFixture F;
  EXPECT_NE(F.runTrap("MODULE T;\n"
                      "TYPE P = POINTER TO INTEGER;\nVAR p: P;\n"
                      "BEGIN p^ := 1 END T.\n")
                .find("NIL"),
            std::string::npos);
}

TEST(Vm, CaseWithoutMatchTraps) {
  VmFixture F;
  EXPECT_NE(F.runTrap("MODULE T;\nVAR x: INTEGER;\n"
                      "BEGIN x := 9; CASE x OF 1: x := 0 END END T.\n")
                .find("CASE"),
            std::string::npos);
}

TEST(Vm, FunctionFallingOffEndTraps) {
  VmFixture F;
  EXPECT_NE(F.runTrap("MODULE T;\nVAR x: INTEGER;\n"
                      "PROCEDURE F(c: BOOLEAN): INTEGER;\n"
                      "BEGIN IF c THEN RETURN 1 END END F;\n"
                      "BEGIN x := F(FALSE) END T.\n")
                .find("did not return"),
            std::string::npos);
}

TEST(Vm, DivisionByZeroTraps) {
  VmFixture F;
  EXPECT_NE(F.runTrap("MODULE T;\nVAR x, y: INTEGER;\n"
                      "BEGIN y := 0; x := 5 DIV y END T.\n")
                .find("division by zero"),
            std::string::npos);
}

TEST(Vm, InfiniteLoopHitsStepLimit) {
  VmFixture F;
  F.Files.addFile("T.mod", "MODULE T;\nBEGIN LOOP END END T.\n");
  driver::SequentialCompiler C(F.Files, F.Interner);
  auto R = C.compile("T");
  ASSERT_TRUE(R.Success);
  codegen::Linker Link(F.Interner);
  Link.addImage(std::move(R.Image));
  codegen::LinkedProgram Prog = Link.link();
  ASSERT_TRUE(Prog.ok());
  vm::VM Machine(Prog, F.Interner);
  auto Run = Machine.run(F.Interner.intern("T"), /*MaxSteps=*/10'000);
  EXPECT_TRUE(Run.Trapped);
  EXPECT_NE(Run.TrapMessage.find("step limit"), std::string::npos);
}

// MaxSteps is part of the VM's observable surface, so it must not
// depend on the execution tier: the same budget traps at the same point
// with the same message whether the program interprets or runs
// promoted.  (TieringTest sweeps every budget; this pins the contract
// where the rest of the VM behavior is specified.)
TEST(Vm, StepLimitIdenticalAcrossTiers) {
  VmFixture F;
  F.Files.addFile("T.mod",
                  "MODULE T;\nVAR i, acc: INTEGER;\nBEGIN\n"
                  "  acc := 0;\n"
                  "  FOR i := 0 TO 50 DO acc := acc + i END;\n"
                  "  WriteInt(acc, 0); WriteLn\nEND T.\n");
  driver::SequentialCompiler C(F.Files, F.Interner);
  auto R = C.compile("T");
  ASSERT_TRUE(R.Success);
  codegen::Linker Link(F.Interner);
  Link.addImage(std::move(R.Image));
  codegen::LinkedProgram Prog = Link.link();
  ASSERT_TRUE(Prog.ok());
  auto RunWith = [&](vm::tier::TierMode Mode, uint64_t MaxSteps) {
    vm::VM Machine(Prog, F.Interner, Mode);
    return Machine.run(F.Interner.intern("T"), MaxSteps);
  };
  for (uint64_t Budget : {1u, 7u, 50u, 113u, 200u, 100'000u}) {
    auto T0 = RunWith(vm::tier::TierMode::Tier0Only, Budget);
    auto T1 = RunWith(vm::tier::TierMode::Tier1, Budget);
    EXPECT_EQ(T0.Trapped, T1.Trapped) << "budget " << Budget;
    EXPECT_EQ(T0.TrapMessage, T1.TrapMessage) << "budget " << Budget;
    EXPECT_EQ(T0.Output, T1.Output) << "budget " << Budget;
  }
}

TEST(Vm, VarParametersAliasCaller) {
  VmFixture F;
  EXPECT_EQ(F.runOk("MODULE T;\nVAR a, b: INTEGER;\n"
                    "PROCEDURE Swap(VAR x, y: INTEGER);\n"
                    "VAR t: INTEGER;\n"
                    "BEGIN t := x; x := y; y := t END Swap;\n"
                    "BEGIN\n"
                    "  a := 1; b := 2; Swap(a, b);\n"
                    "  WriteInt(a, 0); WriteInt(b, 0); WriteLn\nEND T.\n"),
            "21\n");
}

TEST(Vm, ValueArraysAreCopied) {
  VmFixture F;
  EXPECT_EQ(F.runOk("MODULE T;\n"
                    "TYPE V = ARRAY [0..2] OF INTEGER;\n"
                    "VAR a: V; r: INTEGER;\n"
                    "PROCEDURE Mangle(v: V): INTEGER;\n"
                    "BEGIN v[0] := 99; RETURN v[0] END Mangle;\n"
                    "BEGIN\n"
                    "  a[0] := 7;\n"
                    "  r := Mangle(a);\n"
                    "  WriteInt(r, 0); WriteInt(a[0], 0); WriteLn\nEND T.\n"),
            "997\n");
}

TEST(Vm, VarArraysAliasCaller) {
  VmFixture F;
  EXPECT_EQ(F.runOk("MODULE T;\n"
                    "TYPE V = ARRAY [0..2] OF INTEGER;\n"
                    "VAR a: V;\n"
                    "PROCEDURE Fill(VAR v: V);\n"
                    "VAR i: INTEGER;\n"
                    "BEGIN FOR i := 0 TO 2 DO v[i] := i * 2 END END Fill;\n"
                    "BEGIN\n"
                    "  Fill(a);\n"
                    "  WriteInt(a[0] + a[1] + a[2], 0); WriteLn\nEND T.\n"),
            "6\n");
}

TEST(Vm, OpenArraysAndHigh) {
  VmFixture F;
  EXPECT_EQ(F.runOk("MODULE T;\n"
                    "TYPE V5 = ARRAY [1..5] OF INTEGER;\n"
                    "VAR v: V5; i: INTEGER;\n"
                    "PROCEDURE Sum(a: ARRAY OF INTEGER): INTEGER;\n"
                    "VAR i, s: INTEGER;\n"
                    "BEGIN\n"
                    "  s := 0;\n"
                    "  FOR i := 0 TO HIGH(a) DO s := s + a[i] END;\n"
                    "  RETURN s\nEND Sum;\n"
                    "BEGIN\n"
                    "  FOR i := 1 TO 5 DO v[i] := i END;\n"
                    "  WriteInt(Sum(v), 0); WriteLn\nEND T.\n"),
            "15\n");
}

TEST(Vm, RecordAssignmentCopies) {
  VmFixture F;
  EXPECT_EQ(F.runOk("MODULE T;\n"
                    "TYPE R = RECORD a, b: INTEGER END;\n"
                    "VAR x, y: R;\n"
                    "BEGIN\n"
                    "  x.a := 1; x.b := 2;\n"
                    "  y := x;\n"
                    "  y.a := 99;\n"
                    "  WriteInt(x.a, 0); WriteInt(y.a, 0); WriteLn\nEND T.\n"),
            "199\n");
}

TEST(Vm, PointersShareCells) {
  VmFixture F;
  EXPECT_EQ(F.runOk("MODULE T;\n"
                    "TYPE P = POINTER TO INTEGER;\n"
                    "VAR p, q: P;\n"
                    "BEGIN\n"
                    "  NEW(p); q := p;\n"
                    "  p^ := 5; q^ := q^ + 1;\n"
                    "  WriteInt(p^, 0);\n"
                    "  DISPOSE(q);\n"
                    "  IF q = NIL THEN WriteChar('n') END;\n"
                    "  WriteLn\nEND T.\n"),
            "6n\n");
}

TEST(Vm, ProcedureValuesAndIndirectCalls) {
  VmFixture F;
  EXPECT_EQ(F.runOk("MODULE T;\n"
                    "TYPE Op = PROCEDURE (INTEGER, INTEGER): INTEGER;\n"
                    "VAR f: Op;\n"
                    "PROCEDURE Add(a, b: INTEGER): INTEGER;\n"
                    "BEGIN RETURN a + b END Add;\n"
                    "PROCEDURE Mul(a, b: INTEGER): INTEGER;\n"
                    "BEGIN RETURN a * b END Mul;\n"
                    "PROCEDURE Apply(g: Op; x: INTEGER): INTEGER;\n"
                    "BEGIN RETURN g(x, x) END Apply;\n"
                    "BEGIN\n"
                    "  f := Add;\n"
                    "  WriteInt(f(2, 3), 0);\n"
                    "  WriteInt(Apply(Mul, 4), 0);\n"
                    "  IF f = Add THEN WriteChar('=') END;\n"
                    "  WriteLn\nEND T.\n"),
            "516=\n");
}

TEST(Vm, StringsIntoCharArrays) {
  VmFixture F;
  EXPECT_EQ(F.runOk("MODULE T;\n"
                    "VAR name: ARRAY [0..15] OF CHAR;\n"
                    "BEGIN\n"
                    "  name := 'Modula';\n"
                    "  WriteString(name); WriteChar('-');\n"
                    "  WriteChar(name[0]);\n"
                    "  WriteLn\nEND T.\n"),
            "Modula-M\n");
}

TEST(Vm, ReadIntConsumesInput) {
  VmFixture F;
  EXPECT_EQ(F.runOk("MODULE T;\nVAR a, b: INTEGER;\n"
                    "BEGIN\n"
                    "  ReadInt(a); ReadInt(b);\n"
                    "  WriteInt(a + b, 0); WriteLn\nEND T.\n",
                    {20, 22}),
            "42\n");
}

TEST(Vm, WriteIntFieldWidth) {
  VmFixture F;
  EXPECT_EQ(F.runOk("MODULE T;\nBEGIN\n"
                    "  WriteInt(7, 4); WriteInt(-7, 4); WriteLn\nEND T.\n"),
            "   7  -7\n");
}

TEST(Vm, MinMaxAndSize) {
  VmFixture F;
  EXPECT_EQ(F.runOk("MODULE T;\n"
                    "TYPE R = [3..9];\n"
                    "     Rec = RECORD a: INTEGER; v: ARRAY [0..3] OF "
                    "INTEGER END;\n"
                    "BEGIN\n"
                    "  WriteInt(MAX(R), 0); WriteInt(MIN(R), 0);\n"
                    "  WriteInt(MAX(BOOLEAN), 0);\n"
                    "  WriteInt(SIZE(Rec), 0);\n"
                    "  WriteLn\nEND T.\n"),
            "9315\n");
}

TEST(Vm, HaltStopsExecution) {
  VmFixture F;
  auto R = F.run("MODULE T;\nBEGIN\n"
                 "  WriteChar('a');\n"
                 "  HALT(3);\n"
                 "  WriteChar('b')\nEND T.\n");
  EXPECT_FALSE(R.Trapped);
  EXPECT_EQ(R.Output, "a");
  EXPECT_EQ(R.ExitCode, 3);
}

TEST(Vm, ModuleInitializationOrderFollowsImports) {
  VmFixture F;
  F.Files.addFile("A.def", "DEFINITION MODULE A;\n"
                           "PROCEDURE Mark(): INTEGER;\nEND A.\n");
  F.Files.addFile("A.mod", "IMPLEMENTATION MODULE A;\n"
                           "PROCEDURE Mark(): INTEGER;\n"
                           "BEGIN RETURN 1 END Mark;\n"
                           "BEGIN (* init runs before importers *) END A.\n");
  F.Files.addFile("B.mod", "MODULE B;\nIMPORT A;\nVAR x: INTEGER;\n"
                           "BEGIN x := A.Mark(); WriteInt(x, 0); WriteLn\n"
                           "END B.\n");
  driver::SequentialCompiler C(F.Files, F.Interner);
  auto RA = C.compile("A");
  ASSERT_TRUE(RA.Success) << RA.DiagnosticText;
  driver::SequentialCompiler C2(F.Files, F.Interner);
  auto RB = C2.compile("B");
  ASSERT_TRUE(RB.Success) << RB.DiagnosticText;
  codegen::Linker Link(F.Interner);
  Link.addImage(std::move(RB.Image));
  Link.addImage(std::move(RA.Image));
  codegen::LinkedProgram Prog = Link.link();
  ASSERT_TRUE(Prog.ok());
  ASSERT_EQ(Prog.initOrder().size(), 2u);
  // A initializes before B regardless of addImage order.
  EXPECT_EQ(Prog.images()[static_cast<size_t>(Prog.initOrder()[0])]
                .ModuleName,
            F.Interner.intern("A"));
  vm::VM Machine(Prog, F.Interner);
  auto Run = Machine.run(F.Interner.intern("B"));
  EXPECT_EQ(Run.Output, "1\n");
}

TEST(Vm, UnresolvedCalleeIsALinkError) {
  VmFixture F;
  F.Files.addFile("Lib.def", "DEFINITION MODULE Lib;\n"
                             "PROCEDURE Go(): INTEGER;\nEND Lib.\n");
  F.Files.addFile("T.mod", "MODULE T;\nIMPORT Lib;\nVAR x: INTEGER;\n"
                           "BEGIN x := Lib.Go() END T.\n");
  driver::SequentialCompiler C(F.Files, F.Interner);
  auto R = C.compile("T");
  ASSERT_TRUE(R.Success) << R.DiagnosticText;
  codegen::Linker Link(F.Interner);
  Link.addImage(std::move(R.Image)); // Lib.mod never compiled/linked
  codegen::LinkedProgram Prog = Link.link();
  EXPECT_FALSE(Prog.ok());
  ASSERT_FALSE(Prog.errors().empty());
  EXPECT_NE(Prog.errors()[0].find("unresolved procedure 'Lib.Go'"),
            std::string::npos);
}

} // namespace
