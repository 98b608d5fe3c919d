//===--- CompilerOptions.h - Driver configuration ---------------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#ifndef M2C_DRIVER_COMPILEROPTIONS_H
#define M2C_DRIVER_COMPILEROPTIONS_H

#include "opt/OptLevel.h"
#include "sched/ActivitySink.h"
#include "sched/CostModel.h"
#include "sema/Compilation.h"

namespace m2c::cache {
class CompilationCache;
}

namespace m2c::driver {

/// Which executor carries the concurrent compilation.
enum class ExecutorKind : uint8_t {
  Threaded,  ///< Real std::thread workers (wall-clock timing).
  Simulated, ///< Deterministic discrete-event simulation (virtual time);
             ///< used for the paper's 1..8-processor experiments.
};

/// Everything configurable about one compiler run.
struct CompilerOptions {
  symtab::DkyStrategy Strategy = symtab::DkyStrategy::Skeptical;
  sema::HeadingSharing Sharing = sema::HeadingSharing::CopyEntries;
  /// Middle-end optimization level; names the pass roster run over each
  /// stream's unit independently (see opt/PassManager.h).  The level is
  /// folded into every cache fingerprint.
  opt::OptLevel Level = opt::defaultOptLevel();
  ExecutorKind Executor = ExecutorKind::Simulated;
  unsigned Processors = 1;
  sched::CostModel Cost;

  /// Statement/code-generation tasks for streams above this token count
  /// run in the Long priority class (generated before short ones to avoid
  /// the sequential tail, paper section 2.3.4).
  int64_t LongProcTokens = 350;

  /// Optional processor-activity trace sink (WatchTool reproduction).
  sched::ActivitySink *Trace = nullptr;

  /// Optional stream compilation cache shared across compile() calls (and,
  /// with a disk-backed store, across processes).  Null disables caching.
  cache::CompilationCache *Cache = nullptr;
};

} // namespace m2c::driver

#endif // M2C_DRIVER_COMPILEROPTIONS_H
