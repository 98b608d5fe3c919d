//===--- ConcurrentCompiler.cpp - The concurrent compiler ------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "driver/ConcurrentCompiler.h"

#include "build/BuildSession.h"

using namespace m2c;
using namespace m2c::driver;

CompileResult ConcurrentCompiler::compile(std::string_view ModuleName) {
  // The single-module compile is the degenerate session: one module, no
  // discovery.
  build::BuildResult Build =
      build::BuildSession(Files, Interner, Options).buildModule(ModuleName);
  CompileResult Result;
  Result.Success = Build.Success;
  if (!Build.Modules.empty()) {
    Result.Image = std::move(Build.Modules.front().Image);
    Result.StreamCount = Build.Modules.front().StreamCount;
  }
  Result.DiagnosticText = std::move(Build.DiagnosticText);
  Result.ElapsedUnits = Build.ElapsedUnits;
  Result.SimSeconds = Build.SimSeconds;
  Result.SchedStats = std::move(Build.SchedStats);
  Result.CacheStats = std::move(Build.CacheStats);
  Result.OptStats = std::move(Build.OptStats);
  Result.Compilation = std::move(Build.Compilation);
  return Result;
}
