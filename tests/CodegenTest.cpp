//===--- CodegenTest.cpp - MCode emission tests ------------------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "codegen/ObjectFile.h"
#include "driver/SequentialCompiler.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace m2c;
using namespace m2c::codegen;

namespace {

struct CodegenFixture {
  VirtualFileSystem Files;
  StringInterner Interner;
  ModuleImage Image;

  void compile(const std::string &Source) {
    Files.addFile("T.mod", Source);
    driver::SequentialCompiler C(Files, Interner);
    driver::CompileResult R = C.compile("T");
    ASSERT_TRUE(R.Success) << R.DiagnosticText;
    Image = std::move(R.Image);
  }

  const CodeUnit &unit(const std::string &Qualified) {
    const CodeUnit *U = Image.findUnit(Qualified);
    EXPECT_NE(U, nullptr) << "no unit " << Qualified;
    static CodeUnit Empty;
    return U ? *U : Empty;
  }

  static size_t countOp(const CodeUnit &U, Opcode Op) {
    return static_cast<size_t>(
        std::count_if(U.Code.begin(), U.Code.end(),
                      [Op](const Instr &I) { return I.Op == Op; }));
  }

  static bool hasOp(const CodeUnit &U, Opcode Op) {
    return countOp(U, Op) > 0;
  }
};

TEST(Codegen, SubrangeAssignmentEmitsRangeCheck) {
  CodegenFixture F;
  F.compile("MODULE T;\nTYPE S = [1..9];\nVAR s: S; x: INTEGER;\n"
            "BEGIN x := 5; s := x END T.");
  const CodeUnit &Body = F.unit("T");
  ASSERT_TRUE(F.hasOp(Body, Opcode::CheckRange));
  // x := 5 must NOT range-check (INTEGER target).
  size_t Checks = F.countOp(Body, Opcode::CheckRange);
  EXPECT_EQ(Checks, 1u);
}

TEST(Codegen, ShortCircuitBooleans) {
  CodegenFixture F;
  F.compile("MODULE T;\nVAR a, b, c: BOOLEAN;\n"
            "BEGIN c := a AND b; c := a OR b END T.");
  const CodeUnit &Body = F.unit("T");
  EXPECT_GE(F.countOp(Body, Opcode::JumpIfFalse), 1u); // AND shortcut
  EXPECT_GE(F.countOp(Body, Opcode::JumpIfTrue), 1u);  // OR shortcut
}

TEST(Codegen, ForLoopDirectionPicksComparison) {
  CodegenFixture F;
  F.compile("MODULE T;\nVAR i, s: INTEGER;\nBEGIN\n"
            "  FOR i := 1 TO 5 DO s := s + i END;\n"
            "  FOR i := 5 TO 1 BY -1 DO s := s - i END\nEND T.");
  const CodeUnit &Body = F.unit("T");
  EXPECT_GE(F.countOp(Body, Opcode::CmpLeInt), 1u); // ascending
  EXPECT_GE(F.countOp(Body, Opcode::CmpGeInt), 1u); // descending
  EXPECT_GE(F.countOp(Body, Opcode::IncAddr), 2u);  // both steps
}

TEST(Codegen, StaticLinkHopsForNestedCalls) {
  CodegenFixture F;
  F.compile("MODULE T;\nVAR r: INTEGER;\n"
            "PROCEDURE Outer(): INTEGER;\n"
            "VAR acc: INTEGER;\n"
            "  PROCEDURE Inner1;\n"
            "  BEGIN acc := acc + 1 END Inner1;\n"
            "  PROCEDURE Inner2;\n"
            "  BEGIN Inner1 END Inner2;  (* sibling call: 1 hop *)\n"
            "BEGIN Inner1; Inner2; RETURN acc END Outer;\n"
            "BEGIN r := Outer() END T.");

  // Module body calls Outer: top-level, no static link.
  const CodeUnit &Body = F.unit("T");
  auto FindCall = [&](const CodeUnit &U) -> const Instr * {
    for (const Instr &I : U.Code)
      if (I.Op == Opcode::Call)
        return &I;
    return nullptr;
  };
  const Instr *CallOuter = FindCall(Body);
  ASSERT_NE(CallOuter, nullptr);
  EXPECT_EQ(CallOuter->B, -1);

  // Outer calls Inner1 with its own frame as static link (0 hops).
  const CodeUnit &Outer = F.unit("T.Outer");
  const Instr *CallInner = FindCall(Outer);
  ASSERT_NE(CallInner, nullptr);
  EXPECT_EQ(CallInner->B, 0);

  // Inner2 calls its sibling Inner1: static link is one hop up.
  const CodeUnit &Inner2 = F.unit("T.Outer.Inner2");
  const Instr *Sibling = FindCall(Inner2);
  ASSERT_NE(Sibling, nullptr);
  EXPECT_EQ(Sibling->B, 1);

  // Inner1 stores into Outer's local through the static link.
  const CodeUnit &Inner1 = F.unit("T.Outer.Inner1");
  EXPECT_TRUE(F.hasOp(Inner1, Opcode::LoadEnclosing) ||
              F.hasOp(Inner1, Opcode::StoreEnclosing));
}

TEST(Codegen, ProcedureValuesUsePushProc) {
  CodegenFixture F;
  F.compile("MODULE T;\n"
            "TYPE Fn = PROCEDURE (): INTEGER;\nVAR f: Fn; x: INTEGER;\n"
            "PROCEDURE One(): INTEGER;\nBEGIN RETURN 1 END One;\n"
            "BEGIN f := One; x := f() END T.");
  const CodeUnit &Body = F.unit("T");
  EXPECT_TRUE(F.hasOp(Body, Opcode::PushProc));
  EXPECT_TRUE(F.hasOp(Body, Opcode::CallIndirect));
}

TEST(Codegen, AggregateLocalsAreInitialized) {
  CodegenFixture F;
  F.compile("MODULE T;\n"
            "PROCEDURE P(): INTEGER;\n"
            "VAR v: ARRAY [0..3] OF INTEGER;\n"
            "    r: RECORD a, b: INTEGER END;\n"
            "    n: INTEGER;\n"
            "BEGIN n := 0; RETURN v[0] + r.a + n END P;\n"
            "VAR x: INTEGER;\nBEGIN x := P() END T.");
  const CodeUnit &P = F.unit("T.P");
  // Two aggregates materialize; the scalar local does not.
  EXPECT_EQ(F.countOp(P, Opcode::PushAggregate), 2u);
}

TEST(Codegen, GlobalsResolveToOwningModule) {
  CodegenFixture F;
  F.Files.addFile("Dep.def", "DEFINITION MODULE Dep;\n"
                             "VAR shared: INTEGER;\nEND Dep.");
  F.compile("MODULE T;\nIMPORT Dep;\nVAR mine: INTEGER;\n"
            "BEGIN mine := Dep.shared; Dep.shared := mine END T.");
  const CodeUnit &Body = F.unit("T");
  ASSERT_TRUE(F.hasOp(Body, Opcode::LoadGlobal));
  ASSERT_TRUE(F.hasOp(Body, Opcode::StoreGlobal));
  bool SawDep = false, SawT = false;
  for (const GlobalRef &Ref : Body.Globals) {
    if (F.Interner.spelling(Ref.Module) == "Dep")
      SawDep = true;
    if (F.Interner.spelling(Ref.Module) == "T")
      SawT = true;
  }
  EXPECT_TRUE(SawDep);
  EXPECT_TRUE(SawT);
}

TEST(Codegen, StringPoolDeduplicates) {
  CodegenFixture F;
  F.compile("MODULE T;\nBEGIN\n"
            "  WriteString('hello'); WriteString('world');\n"
            "  WriteString('hello')\nEND T.");
  const CodeUnit &Body = F.unit("T");
  EXPECT_EQ(Body.Strings.size(), 2u);
  EXPECT_EQ(F.countOp(Body, Opcode::PushStr), 3u);
}

TEST(Codegen, CaseWithoutElseTraps) {
  CodegenFixture F;
  F.compile("MODULE T;\nVAR x: INTEGER;\n"
            "BEGIN CASE x OF 1: x := 0 | 2..4: x := 1 END END T.");
  const CodeUnit &Body = F.unit("T");
  EXPECT_TRUE(F.hasOp(Body, Opcode::Trap));
}

TEST(Codegen, CaseWithElseDoesNotTrap) {
  CodegenFixture F;
  F.compile("MODULE T;\nVAR x: INTEGER;\n"
            "BEGIN CASE x OF 1: x := 0 ELSE x := 2 END END T.");
  const CodeUnit &Body = F.unit("T");
  EXPECT_FALSE(F.hasOp(Body, Opcode::Trap));
}

TEST(Codegen, TryExceptSkipsHandlerTryFinallyDoesNot) {
  CodegenFixture F;
  F.compile("MODULE T;\nVAR x: INTEGER;\nBEGIN\n"
            "  TRY x := 1 EXCEPT x := 2 END;\n"
            "  TRY x := 3 FINALLY x := 4 END\nEND T.");
  const CodeUnit &Body = F.unit("T");
  // Exactly one Jump skips the EXCEPT handler; FINALLY handlers run
  // inline so they add none.
  EXPECT_EQ(F.countOp(Body, Opcode::Jump), 1u);
}

TEST(Codegen, ParamDescsMarkVarAndAggregates) {
  CodegenFixture F;
  F.compile("MODULE T;\n"
            "TYPE V = ARRAY [0..3] OF INTEGER;\n"
            "PROCEDURE P(a: INTEGER; VAR b: INTEGER; v: V; "
            "o: ARRAY OF INTEGER);\n"
            "BEGIN b := a + v[0] + o[0] END P;\n"
            "VAR x: INTEGER; vv: V;\n"
            "BEGIN P(1, x, vv, vv) END T.");
  const CodeUnit &P = F.unit("T.P");
  ASSERT_EQ(P.Params.size(), 4u);
  EXPECT_FALSE(P.Params[0].IsVar);
  EXPECT_FALSE(P.Params[0].IsAggregate);
  EXPECT_TRUE(P.Params[1].IsVar);
  EXPECT_FALSE(P.Params[2].IsVar);
  EXPECT_TRUE(P.Params[2].IsAggregate);
  EXPECT_TRUE(P.Params[3].IsAggregate);
}

TEST(Codegen, ExitJumpsForward) {
  CodegenFixture F;
  F.compile("MODULE T;\nVAR x: INTEGER;\n"
            "BEGIN LOOP INC(x); IF x > 3 THEN EXIT END END END T.");
  const CodeUnit &Body = F.unit("T");
  // Every Jump target is within the unit; the EXIT jump lands after the
  // back-edge.
  for (const Instr &I : Body.Code) {
    if (I.Op == Opcode::Jump || I.Op == Opcode::JumpIfFalse ||
        I.Op == Opcode::JumpIfTrue) {
      EXPECT_LE(static_cast<size_t>(I.A), Body.Code.size());
    }
  }
}

TEST(Codegen, FixedArrayHighIsConstantFolded) {
  CodegenFixture F;
  F.compile("MODULE T;\nVAR v: ARRAY [2..8] OF INTEGER; x: INTEGER;\n"
            "BEGIN x := HIGH(v) END T.");
  const CodeUnit &Body = F.unit("T");
  EXPECT_FALSE(F.hasOp(Body, Opcode::ArrayHigh));
  bool Pushed8 = false;
  for (const Instr &I : Body.Code)
    if (I.Op == Opcode::PushInt && I.A == 8)
      Pushed8 = true;
  EXPECT_TRUE(Pushed8);
}

TEST(Codegen, UnitDumpIsReadable) {
  CodegenFixture F;
  F.compile("MODULE T;\n"
            "PROCEDURE Twice(x: INTEGER): INTEGER;\n"
            "BEGIN RETURN x * 2 END Twice;\n"
            "VAR r: INTEGER;\nBEGIN r := Twice(21) END T.");
  std::string Dump = F.unit("T.Twice").dump(F.Interner);
  EXPECT_NE(Dump.find("procedure T.Twice"), std::string::npos);
  EXPECT_NE(Dump.find("MulInt"), std::string::npos);
  EXPECT_NE(Dump.find("ReturnValue"), std::string::npos);
  std::string BodyDump = F.unit("T").dump(F.Interner);
  EXPECT_NE(BodyDump.find("T.Twice"), std::string::npos); // callee name
}

TEST(Codegen, MergedUnitsAreSortedDeterministically) {
  CodegenFixture F;
  F.compile("MODULE T;\n"
            "PROCEDURE Zeta;\nBEGIN END Zeta;\n"
            "PROCEDURE Alpha;\nBEGIN END Alpha;\n"
            "BEGIN Zeta; Alpha END T.");
  ASSERT_EQ(F.Image.Units.size(), 3u);
  EXPECT_TRUE(F.Image.Units[0].IsModuleBody);
  EXPECT_EQ(F.Image.Units[1].QualifiedName, "T.Alpha");
  EXPECT_EQ(F.Image.Units[2].QualifiedName, "T.Zeta");
}

//===----------------------------------------------------------------------===//
// Object-file round trip
//===----------------------------------------------------------------------===//

TEST(ObjectFile, RoundTripsExactly) {
  CodegenFixture F;
  F.Files.addFile("Dep.def", "DEFINITION MODULE Dep;\n"
                             "VAR shared: INTEGER;\n"
                             "PROCEDURE Get(): INTEGER;\nEND Dep.");
  F.compile("MODULE T;\nIMPORT Dep;\n"
            "TYPE R = RECORD a: REAL; v: ARRAY [0..3] OF INTEGER END;\n"
            "VAR r: R; x: INTEGER;\n"
            "PROCEDURE P(q: REAL): REAL;\n"
            "BEGIN RETURN q * 2.5 END P;\n"
            "BEGIN\n"
            "  WriteString('quote \" backslash \\ done');\n"
            "  r.a := P(1.5); x := Dep.Get() + Dep.shared\n"
            "END T.");
  std::string Text = writeObjectFile(F.Image, F.Interner);
  EXPECT_NE(Text.find("MCOBJ 1"), std::string::npos);

  StringInterner Fresh;
  std::string Error;
  auto Read = readObjectFile(Text, Fresh, Error);
  ASSERT_TRUE(Read.has_value()) << Error;

  EXPECT_EQ(Fresh.spelling(Read->ModuleName), "T");
  EXPECT_EQ(Read->GlobalCount, F.Image.GlobalCount);
  EXPECT_EQ(Read->GlobalDescs, F.Image.GlobalDescs);
  ASSERT_EQ(Read->Units.size(), F.Image.Units.size());
  for (size_t I = 0; I < Read->Units.size(); ++I) {
    const CodeUnit &A = F.Image.Units[I];
    const CodeUnit &B = Read->Units[I];
    EXPECT_EQ(A.QualifiedName, B.QualifiedName);
    EXPECT_EQ(A.ProcId, B.ProcId);
    EXPECT_EQ(A.IsModuleBody, B.IsModuleBody);
    EXPECT_EQ(A.FrameSize, B.FrameSize);
    ASSERT_EQ(A.Code.size(), B.Code.size()) << A.QualifiedName;
    for (size_t J = 0; J < A.Code.size(); ++J) {
      EXPECT_EQ(A.Code[J].Op, B.Code[J].Op);
      EXPECT_EQ(A.Code[J].A, B.Code[J].A);
      EXPECT_EQ(A.Code[J].B, B.Code[J].B);
      EXPECT_EQ(A.Code[J].F, B.Code[J].F); // hex-float exactness
    }
    ASSERT_EQ(A.Strings.size(), B.Strings.size());
    for (size_t J = 0; J < A.Strings.size(); ++J)
      EXPECT_EQ(F.Interner.spelling(A.Strings[J]),
                Fresh.spelling(B.Strings[J]));
    ASSERT_EQ(A.Callees.size(), B.Callees.size());
    for (size_t J = 0; J < A.Callees.size(); ++J)
      EXPECT_EQ(F.Interner.spelling(A.Callees[J].Name),
                Fresh.spelling(B.Callees[J].Name));
  }
}

TEST(ObjectFile, ReadImageRunsInTheVm) {
  CodegenFixture F;
  F.compile("MODULE T;\n"
            "PROCEDURE Fib(n: INTEGER): INTEGER;\n"
            "BEGIN\n"
            "  IF n < 2 THEN RETURN n END;\n"
            "  RETURN Fib(n - 1) + Fib(n - 2)\n"
            "END Fib;\n"
            "BEGIN WriteInt(Fib(12), 0); WriteLn END T.");
  std::string Text = writeObjectFile(F.Image, F.Interner);

  StringInterner Fresh;
  std::string Error;
  auto Read = readObjectFile(Text, Fresh, Error);
  ASSERT_TRUE(Read.has_value()) << Error;

  codegen::Linker Link(Fresh);
  Link.addImage(std::move(*Read));
  codegen::LinkedProgram Prog = Link.link();
  ASSERT_TRUE(Prog.ok());
  vm::VM Machine(Prog, Fresh);
  auto Run = Machine.run(Fresh.intern("T"));
  EXPECT_FALSE(Run.Trapped) << Run.TrapMessage;
  EXPECT_EQ(Run.Output, "144\n");
}

TEST(ObjectFile, StringsEndingInBackslashRoundTrip) {
  CodegenFixture F;
  F.compile("MODULE T;\nBEGIN\n"
            "  WriteString('trailing\\'); WriteLn\nEND T.");
  std::string Text = writeObjectFile(F.Image, F.Interner);
  StringInterner Fresh;
  std::string Error;
  auto Read = readObjectFile(Text, Fresh, Error);
  ASSERT_TRUE(Read.has_value()) << Error;
  const CodeUnit *Body = Read->findUnit("T");
  ASSERT_NE(Body, nullptr);
  ASSERT_EQ(Body->Strings.size(), 1u);
  EXPECT_EQ(Fresh.spelling(Body->Strings[0]), "trailing\\");
}

TEST(ObjectFile, LinkerRejectsOutOfRangeOperands) {
  // A syntactically valid .mco with a wild frame-slot operand must be
  // rejected when linked, not crash the interpreter.
  CodegenFixture F;
  F.compile("MODULE T;\nVAR x: INTEGER;\nBEGIN x := 1 END T.");
  std::string Text = writeObjectFile(F.Image, F.Interner);
  // Corrupt a StoreGlobal-style operand: bump every "StoreLocal 0" to a
  // wild slot (textual surgery keeps the file well-formed).
  size_t Pos = Text.find("PushInt 1");
  ASSERT_NE(Pos, std::string::npos);
  // Append a bogus instruction? Simpler: rewrite a LoadLocal/StoreLocal
  // line if present, else skip (the body may use globals only).
  size_t Bad = Text.find("StoreGlobal 0 ");
  if (Bad != std::string::npos)
    Text.replace(Bad, 13, "StoreGlobal 99");
  StringInterner Fresh;
  std::string Error;
  auto Read = readObjectFile(Text, Fresh, Error);
  ASSERT_TRUE(Read.has_value()) << Error;
  codegen::Linker Link(Fresh);
  Link.addImage(std::move(*Read));
  if (Bad != std::string::npos) {
    codegen::LinkedProgram Prog = Link.link();
    EXPECT_FALSE(Prog.ok());
    ASSERT_FALSE(Prog.errors().empty());
    EXPECT_NE(Prog.errors()[0].find("out of range"), std::string::npos)
        << Prog.errors()[0];
  }
}

TEST(ObjectFile, RejectsCorruptInput) {
  StringInterner Names;
  std::string Error;
  EXPECT_FALSE(readObjectFile("not an object file", Names, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(readObjectFile("MCOBJ 1\nMODULE", Names, Error));
  EXPECT_FALSE(
      readObjectFile("MCOBJ 1\nMODULE \"X\"\nGLOBALS", Names, Error));

  // Truncated mid-unit.
  CodegenFixture F;
  F.compile("MODULE T;\nBEGIN WriteLn END T.");
  std::string Text = writeObjectFile(F.Image, F.Interner);
  EXPECT_FALSE(
      readObjectFile(Text.substr(0, Text.size() / 2), Names, Error));
}

} // namespace
