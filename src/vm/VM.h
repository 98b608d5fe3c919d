//===--- VM.h - MCode interpreter -------------------------------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interprets a program that codegen::Linker linked from ModuleImages
/// produced by separate compilations.  The paper's compiler emitted VAX
/// code for Topaz; our object format is MCode, and this interpreter is
/// the execution substrate that lets examples and tests run compiled
/// Modula-2+ end to end.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_VM_VM_H
#define M2C_VM_VM_H

#include "codegen/Linker.h"
#include "codegen/MCode.h"
#include "vm/Value.h"

#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace m2c::vm {

namespace tier {
class TranslatedProgram;
struct TierUnit;

/// How a VM executes.
enum class TierMode : uint8_t {
  Tier0Only, ///< The reference interpreter alone.
  Tier1,     ///< Every unit translated to tier 1 at load (the default).
};

/// Tier1, or Tier0Only when the environment sets M2C_VM_TIER=tier0, so
/// the whole test suite can be pinned to the reference interpreter.
TierMode tierModeFromEnv();
} // namespace tier

/// Interprets a codegen::LinkedProgram.
///
/// Execution is tiered (see vm/tier/): the VM translates every unit into
/// pre-decoded threaded code (tier 1) when it is constructed and runs
/// that.  Tier 0, the switch interpreter, is the reference the tiers are
/// tested against; it also finishes an activation when tier 1 stops in
/// front of a fused group the step budget cannot cover, or calls a unit
/// the translator refused.  Observable behavior — output, exit code,
/// trap points and messages, and MaxSteps accounting — is identical
/// across tiers.
class VM {
public:
  /// Interprets \p Prog, linked by codegen::Linker over \p Names.
  VM(const codegen::LinkedProgram &Prog, const StringInterner &Names,
     tier::TierMode Mode = tier::tierModeFromEnv());

  /// Runs on \p Translated, tier-1 code already translated for \p Prog
  /// and possibly shared with other VMs; null runs tier 0 alone.
  VM(const codegen::LinkedProgram &Prog, const StringInterner &Names,
     std::shared_ptr<const tier::TranslatedProgram> Translated);
  ~VM();

  struct RunResult {
    std::string Output;
    int64_t ExitCode = 0;
    bool Trapped = false;
    std::string TrapMessage;
  };

  /// Supplies values for ReadInt calls (consumed in order; exhausted
  /// reads yield 0).
  void setInput(std::vector<int64_t> Input);

  /// Initializes every module (imports first) and runs \p MainModule's
  /// body.  \p MaxSteps bounds execution for tests.
  RunResult run(Symbol MainModule, uint64_t MaxSteps = 100'000'000);

private:
  struct Frame {
    std::vector<Value> Slots;
    Frame *StaticLink = nullptr;
    const codegen::LinkedUnit *Unit = nullptr;
    size_t ReturnPc = 0;
    int32_t ReturnUnit = -1;
    /// Tier-1 index to resume the caller at; set by tier-1 calls only.
    uint32_t ReturnIp = 0;
    size_t StackBase = 0;
  };

  /// Execution state of one executeUnit() activation; defined in
  /// ExecInternal.h, shared by both tier loops.
  struct Exec;

  /// How tier 1 handed control back to executeUnit.
  enum class Flow : uint8_t {
    Done,    ///< Entry unit finished (or Halt).
    Trapped, ///< RunResult carries the trap.
    Tier0,   ///< Tier 0 finishes the activation from (CurUnit, Pc).
  };

  Value defaultValue(const std::vector<codegen::TypeDesc> &Descs,
                     int32_t Index) const;
  Value deepCopy(const Value &V) const;
  /// Assigns \p V into \p SlotRef with Modula-2 value semantics.
  void assignInto(Value &SlotRef, Value V);
  /// Materializes a string constant as a CHAR-array aggregate of length
  /// \p Length (padded with 0C); Length < 0 uses the string length.
  Value stringToArray(Symbol S, int64_t Length) const;

  /// Pushes a fresh frame for \p UnitIndex onto E.Frames.
  Frame &pushFrame(Exec &E, int32_t UnitIndex, Frame *StaticLink,
                   size_t ReturnPc, int32_t ReturnUnit);
  /// Binds call arguments into a fresh callee frame; ArgBase is the stack
  /// offset of the first argument.
  void bindArgs(Exec &E, Frame &Callee, size_t ArgBase);
  /// Executes one CallBuiltin.  On trap, records it against \p TrapPc and
  /// returns false.  Shared by both tiers.
  bool callBuiltin(Exec &E, RunResult &Result, int64_t Builtin, size_t TrapPc);
  /// Records a trap at tier-0 pc \p Pc of \p F's unit.
  void failAt(RunResult &Result, const Frame &F, size_t Pc,
              const std::string &Message);

  bool executeUnit(int32_t UnitIndex, RunResult &Result, uint64_t &Steps,
                   uint64_t MaxSteps);
  /// The tier-0 switch interpreter; runs the activation from (CurUnit,
  /// Pc) to the end.  Returns false on a trap.
  bool runTier0(Exec &E, RunResult &Result, uint64_t &Steps,
                uint64_t MaxSteps);
  /// The tier-1 threaded-code dispatcher (Tier1Exec.cpp); entered at the
  /// start of \p Entry, runs until done/trap, a call into a refused unit,
  /// or a step-budget deopt.
  Flow runTier1(Exec &E, const tier::TierUnit *Entry, RunResult &Result,
                uint64_t &Steps, uint64_t MaxSteps);
  void trap(RunResult &Result, const std::string &Message);

  const codegen::LinkedProgram &Prog;
  const StringInterner &Names;
  std::vector<std::unique_ptr<std::vector<Value>>> Globals; ///< Per module.
  std::vector<int64_t> Input;
  size_t InputPos = 0;

  /// Tier-1 code; null in Tier0Only mode.
  std::shared_ptr<const tier::TranslatedProgram> Translated;
  /// Per-run counters, flushed into globalVmStats() at the end of run().
  uint64_t Tier0Steps = 0;
  uint64_t Tier1Steps = 0;
  uint64_t Tier1Dispatches = 0;
  uint64_t Deopts = 0;
};

} // namespace m2c::vm

#endif // M2C_VM_VM_H
