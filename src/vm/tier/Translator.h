//===--- Translator.h - MCode to tier-1 translation -------------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates linked code units into tier-1 TierUnits: operands are
/// pre-resolved (strings, callees, globals, jump targets), and hot
/// trap-free instruction groups are fused into superinstructions.  A VM
/// translates every unit of its program when it is constructed
/// (translate-on-load); TranslatedProgram holds the result.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_VM_TIER_TRANSLATOR_H
#define M2C_VM_TIER_TRANSLATOR_H

#include "vm/tier/CodeArena.h"
#include "vm/tier/TierUnit.h"

#include <vector>

namespace m2c::vm::tier {

/// Translates unit \p UnitIndex of \p Prog.  Returns an arena-allocated
/// TierUnit, or null when the unit's shape defeats translation (out of
/// range jump targets, oversized code — cannot happen for
/// linker-validated programs); a refused unit runs in tier 0.
const TierUnit *translateUnit(const codegen::LinkedProgram &Prog,
                              int32_t UnitIndex, CodeArena &Arena);

/// The tier-1 code of every unit of one LinkedProgram, translated at
/// construction.  Immutable afterwards, so any number of VMs, on any
/// threads, may run one TranslatedProgram at once; benchmarks share one
/// across fresh VMs to measure steady-state execution.
class TranslatedProgram {
public:
  explicit TranslatedProgram(const codegen::LinkedProgram &Prog);
  TranslatedProgram(const TranslatedProgram &) = delete;
  TranslatedProgram &operator=(const TranslatedProgram &) = delete;

  const codegen::LinkedProgram &program() const { return Prog; }

  /// Unit index to tier-1 code (null for a unit the translator refused).
  const TierUnit *const *units() const { return Units.data(); }
  /// Units translated (all of them, for a linker-validated program).
  size_t translated() const { return Translated; }

private:
  const codegen::LinkedProgram &Prog;
  CodeArena Arena;
  std::vector<const TierUnit *> Units;
  size_t Translated = 0;
};

} // namespace m2c::vm::tier

#endif // M2C_VM_TIER_TRANSLATOR_H
