//===--- ConcurrentCompiler.h - The concurrent compiler ---------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The complete concurrent compiler of the paper's Figure 5.  The source
/// module is split into streams — the main module body, one stream per
/// procedure (at any nesting depth), and one stream per directly or
/// indirectly imported definition module — each compiled by a pipeline
/// of tasks under the Supervisor scheduler:
///
///   definition module:   Lexor -> Importer -> Parser/DeclAnalyzer
///   implementation mod.:  Lexor -> {Splitter, Importer} ->
///                          Parser/DeclAnalyzer -> StmtAnalyzer/CodeGen
///   procedure:            Parser/DeclAnalyzer -> StmtAnalyzer/CodeGen
///                          (started after the parent processed the
///                           heading — the section 2.4 avoided event)
///
/// Per-procedure code units are merged by concatenation in any order.
/// The run itself is a one-module build::BuildSession (buildModule).
///
//===----------------------------------------------------------------------===//

#ifndef M2C_DRIVER_CONCURRENTCOMPILER_H
#define M2C_DRIVER_CONCURRENTCOMPILER_H

#include "driver/CompileResult.h"
#include "driver/CompilerOptions.h"
#include "support/VirtualFileSystem.h"

namespace m2c::driver {

/// The concurrent Modula-2+ compiler.
class ConcurrentCompiler {
public:
  ConcurrentCompiler(VirtualFileSystem &Files, StringInterner &Interner,
                     CompilerOptions Options = CompilerOptions())
      : Files(Files), Interner(Interner), Options(std::move(Options)) {}

  /// Compiles module \p ModuleName concurrently on the configured
  /// executor and processor count.
  CompileResult compile(std::string_view ModuleName);

private:
  VirtualFileSystem &Files;
  StringInterner &Interner;
  CompilerOptions Options;
};

} // namespace m2c::driver

#endif // M2C_DRIVER_CONCURRENTCOMPILER_H
