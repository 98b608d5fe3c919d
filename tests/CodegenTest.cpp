//===--- CodegenTest.cpp - MCode emission tests ------------------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "codegen/ObjectFile.h"
#include "codegen/ObjectFileText.h"
#include "driver/SequentialCompiler.h"
#include "vm/VM.h"
#include "workload/WorkloadGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

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

//===----------------------------------------------------------------------===//
// Object-file format pins
//===----------------------------------------------------------------------===//

/// One hand-built image that exercises every field of the .mco format:
/// integer extremes, every real class, every escape, all four param
/// kinds, nested descriptors, and empty lists and spellings.
ModuleImage goldenImage(StringInterner &Names) {
  constexpr int64_t I64Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t I64Max = std::numeric_limits<int64_t>::max();
  constexpr int32_t I32Min = std::numeric_limits<int32_t>::min();
  constexpr int32_t I32Max = std::numeric_limits<int32_t>::max();
  constexpr uint32_t U32Max = std::numeric_limits<uint32_t>::max();
  const std::string Nasty = "q\"b\\n\nc\x01" "d\x7f" "e";

  ModuleImage Image;
  Image.ModuleName = Names.intern("Golden");
  Image.GlobalCount = U32Max;
  Image.Imports = {Names.intern("Dep"), Names.intern(Nasty)};
  Image.GlobalDescs = {0, -1, I32Min, I32Max};
  TypeDesc Record;
  Record.DescKind = TypeDesc::Kind::Record;
  Record.Fields = {0, 2, I32Min};
  TypeDesc Array;
  Array.DescKind = TypeDesc::Kind::Array;
  Array.Count = I64Max;
  Array.Element = 1; // An array of the record above.
  TypeDesc Negative;
  Negative.DescKind = TypeDesc::Kind::Array;
  Negative.Count = I64Min;
  Negative.Element = I32Min;
  Image.Descs = {TypeDesc{}, Record, Array, Negative};
  for (TypeDesc::Kind K : {TypeDesc::Kind::Real, TypeDesc::Kind::Set,
                           TypeDesc::Kind::Pointer, TypeDesc::Kind::ProcVal}) {
    TypeDesc D;
    D.DescKind = K;
    D.Count = -1;
    Image.Descs.push_back(D);
  }

  CodeUnit Body;
  Body.Module = Image.ModuleName;
  Body.QualifiedName = "Golden";
  Body.IsModuleBody = true;
  Body.Weight = I64Min;
  Body.Callees = {CalleeRef{Image.ModuleName, Names.intern("P")},
                  CalleeRef{Names.intern("Dep"), Names.intern(Nasty)}};
  Body.Globals = {GlobalRef{Names.intern("Dep"), I32Min},
                  GlobalRef{Image.ModuleName, I32Max}};
  Body.Descs = {Array, Record};
  Body.Strings = {Names.intern(""), Names.intern(Nasty)};
  const double Reals[] = {0.0,
                          -0.0,
                          0.1,
                          -1e300,
                          1.0,
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  for (double R : Reals) {
    auto Pc = static_cast<int64_t>(Body.Code.size());
    Body.Code.push_back(Instr{Opcode::PushReal, Pc, -1000003 * (Pc + 1), R});
  }
  Body.Code.push_back(Instr{Opcode::PushInt, I64Min, I64Max, 0.0});
  Body.Code.push_back(Instr{Opcode::Trap, -1, 0, 0.0});

  CodeUnit Proc;
  Proc.Module = Image.ModuleName;
  Proc.Name = Names.intern("P");
  Proc.QualifiedName = "Golden.P\\\n\"";
  Proc.ProcId = I32Max;
  Proc.NestLevel = U32Max;
  Proc.FrameSize = U32Max;
  Proc.Weight = I64Max;
  for (bool IsVar : {false, true})
    for (bool IsAggregate : {false, true})
      Proc.Params.push_back(ParamDesc{IsVar, IsAggregate});
  Proc.Code.push_back(Instr{Opcode::Return, 0, 0, 0.0});

  CodeUnit Empty; // Every list empty, every name the empty spelling.
  Empty.Module = Names.intern("");
  Empty.ProcId = I32Min;

  Image.Units = {Body, Proc, Empty};
  return Image;
}

// The expected text of goldenImage(), as rendered by the iostream-based
// writer the format was first defined by.  A codec change that moves one
// byte of any field fails here.
const char *const GoldenText = R"mco(MCOBJ 1
MODULE "Golden"
GLOBALS 4294967295
IMPORTS 2 "Dep" "q\"b\\n\nc\x01d\x7fe"
GDESCS 4 0 -1 -2147483648 2147483647
DESCS 8
DESC 0 0 -1 0
DESC 6 0 -1 3 0 2 -2147483648
DESC 5 9223372036854775807 1 0
DESC 5 -9223372036854775808 -2147483648 0
DESC 1 -1 -1 0
DESC 2 -1 -1 0
DESC 3 -1 -1 0
DESC 4 -1 -1 0
UNITS 3
UNIT "Golden" "Golden" "" -1 1 0 0 -9223372036854775808
PARAMS 0
CALLEES 2
CALLEE "Golden" "P"
CALLEE "Dep" "q\"b\\n\nc\x01d\x7fe"
GLOBALREFS 2
GLOBALREF "Dep" -2147483648
GLOBALREF "Golden" 2147483647
UDESCS 2
DESC 5 9223372036854775807 1 0
DESC 6 0 -1 3 0 2 -2147483648
STRINGS 2
STRING ""
STRING "q\"b\\n\nc\x01d\x7fe"
CODE 11
PushReal 0 -1000003 0x0p+0
PushReal 1 -2000006 -0x0p+0
PushReal 2 -3000009 0x1.999999999999ap-4
PushReal 3 -4000012 -0x1.7e43c8800759cp+996
PushReal 4 -5000015 0x1p+0
PushReal 5 -6000018 0x0.0000000000001p-1022
PushReal 6 -7000021 inf
PushReal 7 -8000024 -inf
PushReal 8 -9000027 nan
PushInt -9223372036854775808 9223372036854775807 0x0p+0
Trap -1 0 0x0p+0
UNIT "Golden.P\\\n\"" "Golden" "P" 2147483647 0 4294967295 4294967295 9223372036854775807
PARAMS 4 . a v va
CALLEES 0
GLOBALREFS 0
UDESCS 0
STRINGS 0
CODE 1
Return 0 0 0x0p+0
UNIT "" "" "" -2147483648 0 0 0 0
PARAMS 0
CALLEES 0
GLOBALREFS 0
UDESCS 0
STRINGS 0
CODE 0
END
)mco";

TEST(ObjectFile, GoldenBytes) {
  StringInterner Names;
  ModuleImage Image = goldenImage(Names);
  std::string Text = writeObjectFile(Image, Names);
  EXPECT_EQ(Text, GoldenText);

  // The parsed image renders the same bytes again.
  StringInterner Fresh;
  std::string Error;
  auto Read = readObjectFile(Text, Fresh, Error);
  ASSERT_TRUE(Read.has_value()) << Error;
  EXPECT_EQ(writeObjectFile(*Read, Fresh), GoldenText);
  EXPECT_EQ(Read->Units[0].Code[1].F, 0.0);
  EXPECT_TRUE(std::signbit(Read->Units[0].Code[1].F)); // -0.0 survives.
  EXPECT_TRUE(std::isnan(Read->Units[0].Code[8].F));

  EXPECT_EQ(writeObjectFile(ModuleImage{}, Names),
            "MCOBJ 1\nMODULE \"\"\nGLOBALS 0\nIMPORTS 0\nGDESCS 0\n"
            "DESCS 0\nUNITS 0\nEND\n");
}

// The append entry points render exactly what writeObjectFile renders,
// after whatever the buffer already holds.
TEST(ObjectFile, AppendEntryPointsMatchWriteObjectFile) {
  StringInterner Names;
  ModuleImage Image = goldenImage(Names);
  std::string Out = "prefix\n";
  appendObjectFile(Out, Image, Names);
  EXPECT_EQ(Out, "prefix\n" + writeObjectFile(Image, Names));

  for (const CodeUnit &U : Image.Units) {
    ModuleImage Wrapper;
    Wrapper.ModuleName = U.Module;
    Wrapper.Units.push_back(U);
    std::string Unit;
    appendUnitObjectFile(Unit, U, Names);
    EXPECT_EQ(Unit, writeObjectFile(Wrapper, Names)) << U.QualifiedName;
  }
}

// write -> read -> write is the identity over the paper's 37-program suite
// and the compute programs, at -O0 and -O2.
TEST(ObjectFile, SuiteRoundTripIsIdentity) {
  VirtualFileSystem Files;
  StringInterner Names;
  workload::WorkloadGenerator Gen(Files);
  std::vector<std::string> Roots;
  for (const workload::ModuleSpec &Spec :
       workload::WorkloadGenerator::paperSuite())
    Roots.push_back(Gen.generate(Spec).Name);
  for (uint32_t Seed : {1u, 7u}) {
    workload::ComputeSpec Spec;
    Spec.Name = "Compute" + std::to_string(Seed);
    Spec.Seed = Seed;
    Roots.push_back(Gen.generateCompute(Spec).Name);
  }
  ASSERT_EQ(Roots.size(), 39u);
  for (opt::OptLevel Level : {opt::OptLevel::O0, opt::OptLevel::O2})
    for (const std::string &Root : Roots) {
      driver::CompilerOptions Options;
      Options.Level = Level;
      driver::SequentialCompiler C(Files, Names, Options);
      driver::CompileResult R = C.compile(Root);
      ASSERT_TRUE(R.Success) << Root << ": " << R.DiagnosticText;
      std::string Text = writeObjectFile(R.Image, Names);
      StringInterner Fresh;
      std::string Error;
      auto Read = readObjectFile(Text, Fresh, Error);
      ASSERT_TRUE(Read.has_value()) << Root << ": " << Error;
      EXPECT_EQ(writeObjectFile(*Read, Fresh), Text) << Root;
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

// The reader is strict: every number must fill its field and fit its
// type, every line must carry exactly its fields, and a count larger than
// the lines that follow fails when the lines run out.
TEST(ObjectFile, RejectsOutOfRangeAndMalformedFields) {
  const std::string Valid = "MCOBJ 1\n"
                            "MODULE \"M\"\n"
                            "GLOBALS 1\n"
                            "IMPORTS 0\n"
                            "GDESCS 1 0\n"
                            "DESCS 1\n"
                            "DESC 0 0 -1 0\n"
                            "UNITS 1\n"
                            "UNIT \"M\" \"M\" \"\" -1 1 0 2 5\n"
                            "PARAMS 1 v\n"
                            "CALLEES 0\n"
                            "GLOBALREFS 1\n"
                            "GLOBALREF \"M\" 0\n"
                            "UDESCS 0\n"
                            "STRINGS 1\n"
                            "STRING \"s\"\n"
                            "CODE 2\n"
                            "PushInt 1 0 0x0p+0\n"
                            "Halt 0 0 0x0p+0\n"
                            "END\n";
  StringInterner Names;
  std::string Error;
  ASSERT_TRUE(readObjectFile(Valid, Names, Error)) << Error;
  EXPECT_EQ(writeObjectFile(*readObjectFile(Valid, Names, Error), Names),
            Valid);

  struct Edit {
    const char *From, *To;
  };
  for (const Edit &E : {
           Edit{"GLOBALS 1", "GLOBALS 4294967296"}, // uint32 overflow
           Edit{"GLOBALS 1", "GLOBALS -1"},
           Edit{"GLOBALS 1", "GLOBALS 1x"},        // trailing junk
           Edit{"GLOBALS 1", "GLOBALS 1 2"},       // extra field
           Edit{"GLOBALS 1", "GLOBALS +1"},
           Edit{"GDESCS 1 0", "GDESCS 1 2147483648"},
           Edit{"GDESCS 1 0", "GDESCS 2 0"},
           Edit{"DESC 0 0 -1 0", "DESC 7 0 -1 0"}, // no such kind
           Edit{"DESC 0 0 -1 0", "DESC 0 0 -1 1"},
           Edit{"DESC 0 0 -1 0", "DESC 0 9223372036854775808 -1 0"},
           Edit{"-1 1 0 2 5", "-1 2 0 2 5"},       // module-body flag
           Edit{"-1 1 0 2 5", "2147483648 1 0 2 5"},
           Edit{"PARAMS 1 v", "PARAMS 1 x"},
           Edit{"PARAMS 1 v", "PARAMS 99999999999 v"},
           Edit{"GLOBALREF \"M\" 0", "GLOBALREF M 0"}, // unquoted name
           Edit{"STRING \"s\"", "STRING \"s\"t"},
           Edit{"STRING \"s\"", "STRING \"\\x4\""}, // short escape
           Edit{"STRING \"s\"", "STRING \"\\xzz\""},
           Edit{"STRING \"s\"", "STRING \"\\q\""},
           Edit{"CODE 2", "CODE 99999999999"},
           Edit{"CODE 2", "CODE 18446744073709551616"},
           Edit{"PushInt 1 0", "PushInt 9223372036854775808 0"},
           Edit{"PushInt 1 0", "PushInt 1 -9223372036854775809"},
           Edit{"PushInt 1 0 0x0p+0", "PushInt 1 0 0x0p+0z"},
           Edit{"PushInt 1 0 0x0p+0", "PushInt 1 0 \"0x0p+0\""},
           // Reals strtod would take but the writer never renders.
           Edit{"PushInt 1 0 0x0p+0", "PushInt 1 0  0x0p+0"},
           Edit{"PushInt 1 0 0x0p+0", "PushInt 1 0 \t0x1p+0"},
           Edit{"PushInt 1 0 0x0p+0", "PushInt 1 0 +0x1p+0"},
           Edit{"PushInt 1 0 0x0p+0", "PushInt 1 0 0X1P+0"},
           Edit{"PushInt 1 0 0x0p+0", "PushInt 1 0 0x2p+0"},
           Edit{"PushInt 1 0 0x0p+0", "PushInt 1 0 1e5"},
           Edit{"PushInt 1 0 0x0p+0", "PushInt 1 0 INF"},
           Edit{"PushInt 1 0 0x0p+0", "PushInt 1 0 nan(1)"},
           Edit{"PushInt 1 0 0x0p+0", "PushInt 1 0 "},
           Edit{"PushInt 1 0 0x0p+0", "NoSuchOp 1 0 0x0p+0"},
       }) {
    std::string Text = Valid;
    size_t At = Text.find(E.From);
    ASSERT_NE(At, std::string::npos) << E.From;
    Text.replace(At, std::strlen(E.From), E.To);
    StringInterner Fresh;
    EXPECT_FALSE(readObjectFile(Text, Fresh, Error)) << E.To;
    EXPECT_FALSE(Error.empty()) << E.To;
  }
}

} // namespace
