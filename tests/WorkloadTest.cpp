//===--- WorkloadTest.cpp - Generator and trace tests ----------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "driver/ConcurrentCompiler.h"
#include "vm/VM.h"
#include "driver/SequentialCompiler.h"
#include "trace/ActivityRecorder.h"
#include "workload/WorkloadGenerator.h"

#include <gtest/gtest.h>

using namespace m2c;
using namespace m2c::driver;
using namespace m2c::workload;

namespace {

TEST(WorkloadGenerator, SuiteHasTableOneShape) {
  auto Suite = WorkloadGenerator::paperSuite();
  ASSERT_EQ(Suite.size(), 37u);

  VirtualFileSystem Files;
  WorkloadGenerator Gen(Files);
  GeneratedModule Min = Gen.generate(Suite.front());
  GeneratedModule Med = Gen.generate(Suite[18]);
  GeneratedModule Max = Gen.generate(Suite.back());

  // Table 1 anchors (generated sizes approximate the byte targets).
  EXPECT_NEAR(static_cast<double>(Min.ModuleBytes), 2371, 2371 * 0.5);
  EXPECT_NEAR(static_cast<double>(Med.ModuleBytes), 13180, 13180 * 0.5);
  EXPECT_NEAR(static_cast<double>(Max.ModuleBytes), 336312, 336312 * 0.5);
  EXPECT_EQ(Min.ProcedureCount, 2u);
  EXPECT_EQ(Med.ProcedureCount, 16u);
  EXPECT_EQ(Max.ProcedureCount, 221u);
  EXPECT_EQ(Min.InterfaceCount, 4u);
  EXPECT_EQ(Med.InterfaceCount, 17u);
  EXPECT_EQ(Max.InterfaceCount, 133u);
  EXPECT_EQ(Min.ImportDepth, 1u);
  EXPECT_EQ(Med.ImportDepth, 5u);
  EXPECT_EQ(Max.ImportDepth, 12u);
}

TEST(WorkloadGenerator, GenerationIsDeterministic) {
  auto Spec = WorkloadGenerator::paperSuite()[5];
  VirtualFileSystem FilesA, FilesB;
  WorkloadGenerator(FilesA).generate(Spec);
  WorkloadGenerator(FilesB).generate(Spec);
  const SourceBuffer *A = FilesA.lookup(Spec.Name + ".mod");
  const SourceBuffer *B = FilesB.lookup(Spec.Name + ".mod");
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(A->Text, B->Text);
}

/// Every generated suite program must compile cleanly.
class SuiteCompiles : public ::testing::TestWithParam<unsigned> {};

TEST_P(SuiteCompiles, Sequentially) {
  auto Suite = WorkloadGenerator::paperSuite();
  const ModuleSpec &Spec = Suite[GetParam()];
  VirtualFileSystem Files;
  StringInterner Interner;
  WorkloadGenerator(Files).generate(Spec);
  SequentialCompiler C(Files, Interner);
  CompileResult R = C.compile(Spec.Name);
  EXPECT_TRUE(R.Success) << R.DiagnosticText.substr(0, 2000);
  EXPECT_GT(R.Image.Units.size(), Spec.NumProcedures);
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, SuiteCompiles,
                         ::testing::Range(0u, 37u));

TEST(WorkloadGenerator, SynthCompilesIdenticallyEverywhere) {
  VirtualFileSystem Files;
  StringInterner Interner;
  GeneratedModule Info =
      WorkloadGenerator(Files).generate(WorkloadGenerator::synthSpec());
  EXPECT_EQ(Info.InterfaceCount, 0u);

  SequentialCompiler Seq(Files, Interner);
  CompileResult SeqR = Seq.compile("Synth");
  ASSERT_TRUE(SeqR.Success) << SeqR.DiagnosticText.substr(0, 2000);

  for (ExecutorKind Exec :
       {ExecutorKind::Simulated, ExecutorKind::Threaded}) {
    CompilerOptions O;
    O.Executor = Exec;
    O.Processors = 4;
    ConcurrentCompiler Conc(Files, Interner, O);
    CompileResult ConcR = Conc.compile("Synth");
    ASSERT_TRUE(ConcR.Success) << ConcR.DiagnosticText.substr(0, 2000);
    ASSERT_EQ(SeqR.Image.Units.size(), ConcR.Image.Units.size());
    for (size_t I = 0; I < SeqR.Image.Units.size(); ++I) {
      EXPECT_EQ(SeqR.Image.Units[I].QualifiedName,
                ConcR.Image.Units[I].QualifiedName);
      EXPECT_EQ(SeqR.Image.Units[I].Code.size(),
                ConcR.Image.Units[I].Code.size());
    }
  }
}

TEST(WorkloadGenerator, MediumSuiteProgramConcurrentEqualsSequential) {
  auto Suite = WorkloadGenerator::paperSuite();
  const ModuleSpec &Spec = Suite[18];
  VirtualFileSystem Files;
  StringInterner Interner;
  WorkloadGenerator(Files).generate(Spec);

  SequentialCompiler Seq(Files, Interner);
  CompileResult SeqR = Seq.compile(Spec.Name);
  ASSERT_TRUE(SeqR.Success) << SeqR.DiagnosticText.substr(0, 2000);

  CompilerOptions O;
  O.Executor = ExecutorKind::Simulated;
  O.Processors = 8;
  ConcurrentCompiler Conc(Files, Interner, O);
  CompileResult ConcR = Conc.compile(Spec.Name);
  ASSERT_TRUE(ConcR.Success) << ConcR.DiagnosticText.substr(0, 2000);

  ASSERT_EQ(SeqR.Image.Units.size(), ConcR.Image.Units.size());
  for (size_t I = 0; I < SeqR.Image.Units.size(); ++I)
    EXPECT_EQ(SeqR.Image.Units[I].QualifiedName,
              ConcR.Image.Units[I].QualifiedName);

  // Concurrency materialized: one stream per procedure plus interfaces.
  EXPECT_GE(ConcR.StreamCount, 1u + Spec.NumProcedures);
  // Speedup over one simulated processor.
  CompilerOptions O1 = O;
  O1.Processors = 1;
  ConcurrentCompiler Conc1(Files, Interner, O1);
  CompileResult OneProc = Conc1.compile(Spec.Name);
  ASSERT_TRUE(OneProc.Success);
  EXPECT_LT(ConcR.ElapsedUnits, OneProc.ElapsedUnits);
}

TEST(ActivityRecorder, RecordsAndRenders) {
  trace::ActivityRecorder Rec;
  auto T1 = sched::makeTask("lex", sched::TaskClass::Lexor, [] {});
  auto T2 = sched::makeTask("cg", sched::TaskClass::LongStmtCodeGen, [] {});
  Rec.record(0, *T1, 0, 500);
  Rec.record(1, *T2, 250, 1000);
  EXPECT_EQ(Rec.makespan(), 1000u);
  EXPECT_NEAR(Rec.utilization(2), (500 + 750) / 2000.0, 1e-9);
  std::string Art = Rec.renderAscii(40);
  EXPECT_NE(Art.find("cpu0"), std::string::npos);
  EXPECT_NE(Art.find("cpu1"), std::string::npos);
  EXPECT_NE(Art.find('L'), std::string::npos);
  EXPECT_NE(Art.find('C'), std::string::npos);
  EXPECT_NE(Art.find('.'), std::string::npos);
}

TEST(ActivityRecorder, CapturesCompilationPhases) {
  VirtualFileSystem Files;
  StringInterner Interner;
  WorkloadGenerator(Files).generate(WorkloadGenerator::paperSuite()[10]);

  trace::ActivityRecorder Rec;
  CompilerOptions O;
  O.Executor = ExecutorKind::Simulated;
  O.Processors = 8;
  O.Trace = &Rec;
  ConcurrentCompiler Conc(Files, Interner, O);
  CompileResult R = Conc.compile("Suite10");
  ASSERT_TRUE(R.Success) << R.DiagnosticText.substr(0, 1000);

  std::string Art = Rec.renderAscii(80);
  // Lexing appears; code generation appears; the picture has 8 rows.
  EXPECT_NE(Art.find('L'), std::string::npos) << Art;
  EXPECT_TRUE(Art.find('C') != std::string::npos ||
              Art.find('c') != std::string::npos)
      << Art;
  EXPECT_NE(Art.find("cpu7"), std::string::npos);
}

TEST(WorkloadGenerator, GeneratedProgramRunsEndToEnd) {
  // The strongest integration test: generate a whole program including
  // implementations of every interface, compile each module separately
  // with the concurrent compiler, link, and execute.
  VirtualFileSystem Files;
  StringInterner Interner;
  workload::ModuleSpec Spec = WorkloadGenerator::paperSuite()[8];
  Spec.WithImplementations = true;
  workload::GeneratedModule Info = WorkloadGenerator(Files).generate(Spec);

  driver::CompilerOptions O;
  O.Processors = 8;
  codegen::Linker Link(Interner);
  for (size_t K = 0; K < Info.InterfaceCount; ++K) {
    std::string Name = Spec.Name + "I" + std::to_string(K);
    driver::ConcurrentCompiler C(Files, Interner, O);
    driver::CompileResult R = C.compile(Name);
    ASSERT_TRUE(R.Success) << Name << ": "
                           << R.DiagnosticText.substr(0, 800);
    Link.addImage(std::move(R.Image));
  }
  driver::ConcurrentCompiler C(Files, Interner, O);
  driver::CompileResult Main = C.compile(Spec.Name);
  ASSERT_TRUE(Main.Success) << Main.DiagnosticText.substr(0, 800);
  Link.addImage(std::move(Main.Image));

  codegen::LinkedProgram Prog = Link.link();
  ASSERT_TRUE(Prog.ok()) << (Prog.errors().empty() ? std::string()
                                                   : Prog.errors()[0]);
  vm::VM Machine(Prog, Interner);
  auto Run = Machine.run(Interner.intern(Spec.Name), /*MaxSteps=*/20'000'000);
  EXPECT_FALSE(Run.Trapped) << Run.TrapMessage;
  // The module body prints an integer and a newline.
  EXPECT_FALSE(Run.Output.empty());
  EXPECT_EQ(Run.Output.back(), '\n');

  // Determinism end to end: a second full build produces the same output.
  VirtualFileSystem Files2;
  StringInterner Interner2;
  WorkloadGenerator(Files2).generate(Spec);
  codegen::Linker Link2(Interner2);
  for (size_t K = 0; K < Info.InterfaceCount; ++K) {
    driver::ConcurrentCompiler CI(Files2, Interner2, O);
    Link2.addImage(
        CI.compile(Spec.Name + "I" + std::to_string(K)).Image);
  }
  driver::ConcurrentCompiler CM(Files2, Interner2, O);
  Link2.addImage(CM.compile(Spec.Name).Image);
  codegen::LinkedProgram Prog2 = Link2.link();
  ASSERT_TRUE(Prog2.ok());
  vm::VM Machine2(Prog2, Interner2);
  auto Run2 = Machine2.run(Interner2.intern(Spec.Name), 20'000'000);
  EXPECT_EQ(Run.Output, Run2.Output);
}

} // namespace
