//===--- quickstart.cpp - m2c in five minutes -------------------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// The smallest complete use of the public API: put a Modula-2+ module in
// the virtual file system, compile it with the concurrent compiler on
// real threads, link the image, and execute it on the MCode machine.
//
//===----------------------------------------------------------------------===//

#include "driver/ConcurrentCompiler.h"
#include "vm/VM.h"

#include <cstdio>

using namespace m2c;

int main() {
  // 1. Compiler input lives in an in-memory file system: a module M is
  //    the pair M.def / M.mod; a program module needs only M.mod.
  VirtualFileSystem Files;
  StringInterner Names;
  Files.addFile("Primes.mod",
                "MODULE Primes;\n"
                "CONST Limit = 50;\n"
                "VAR n: INTEGER;\n"
                "PROCEDURE IsPrime(n: INTEGER): BOOLEAN;\n"
                "VAR d: INTEGER;\n"
                "BEGIN\n"
                "  IF n < 2 THEN RETURN FALSE END;\n"
                "  d := 2;\n"
                "  WHILE d * d <= n DO\n"
                "    IF n MOD d = 0 THEN RETURN FALSE END;\n"
                "    INC(d)\n"
                "  END;\n"
                "  RETURN TRUE\n"
                "END IsPrime;\n"
                "BEGIN\n"
                "  FOR n := 2 TO Limit DO\n"
                "    IF IsPrime(n) THEN WriteInt(n, 4) END\n"
                "  END;\n"
                "  WriteLn\n"
                "END Primes.\n");

  // 2. Compile concurrently on 4 real threads (the paper's experiments
  //    use ExecutorKind::Simulated to model a 1..8-CPU Firefly instead).
  driver::CompilerOptions Options;
  Options.Executor = driver::ExecutorKind::Threaded;
  Options.Processors = 4;
  driver::ConcurrentCompiler Compiler(Files, Names, Options);
  driver::CompileResult Result = Compiler.compile("Primes");
  if (!Result.Success) {
    std::fprintf(stderr, "compilation failed:\n%s",
                 Result.DiagnosticText.c_str());
    return 1;
  }
  std::printf("compiled %zu streams into %zu code units\n",
              Result.StreamCount, Result.Image.Units.size());

  // 3. Link and run.
  codegen::Linker Link(Names);
  Link.addImage(std::move(Result.Image));
  codegen::LinkedProgram Program = Link.link();
  if (!Program.ok()) {
    for (const std::string &E : Program.errors())
      std::fprintf(stderr, "link error: %s\n", E.c_str());
    return 1;
  }
  vm::VM Machine(Program, Names);
  vm::VM::RunResult Run = Machine.run(Names.intern("Primes"));
  if (Run.Trapped) {
    std::fprintf(stderr, "runtime trap: %s\n", Run.TrapMessage.c_str());
    return 1;
  }
  std::printf("program output:%s", Run.Output.c_str());
  return 0;
}
