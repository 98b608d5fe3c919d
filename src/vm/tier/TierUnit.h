//===--- TierUnit.h - Pre-decoded tier-1 code units -------------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tier-1 representation of a procedure: a flattened buffer of
/// operand-specialized TInstr records dispatched with computed goto.
/// Every record names the tier-0 (MCode) pc of the group it heads, which
/// is where traps are reported and where tier 0 takes over.
///
/// Step-accounting contract (what makes MaxSteps tier-independent): every
/// TInstr carries the number of tier-0 instructions it stands for
/// (Cost).  The tier-1 dispatcher charges exactly Cost steps before
/// executing an instruction; if that would cross the step budget it traps
/// at the group head for Cost == 1 (byte-identical to tier 0's trap) or
/// deoptimizes to tier 0 at the group head for fused groups — legal
/// because fused components are all trap-free and none has executed yet,
/// so tier 0 replays the group and traps at the exact tier-0 pc.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_VM_TIER_TIERUNIT_H
#define M2C_VM_TIER_TIERUNIT_H

#include "codegen/Linker.h"
#include "support/StringInterner.h"

#include <cstdint>
#include <type_traits>

namespace m2c::vm::tier {

/// Tier-1 instruction set: every MCode opcode one-to-one (same order, so
/// the cast is the identity translation) plus fused superinstructions.
enum class T1Op : uint16_t {
#define T1OP(Name) Name,
#include "vm/tier/T1Op.def"
};

#define T1OP(Name) +1
constexpr unsigned NumT1Ops = 0
#include "vm/tier/T1Op.def"
    ;

/// Integer operator selector of the fused binop forms.  Div and Mod only
/// ever pair with a positive immediate divisor (trap-free by construction).
enum class BinKind : uint8_t { Add = 0, Sub, Mul, Div, Mod };

/// Comparison selector of the fused compare-and-branch forms.
enum class CmpKind : uint8_t { Eq = 0, Ne, Lt, Le, Gt, Ge };

/// One pre-decoded tier-1 instruction.  Operands are resolved at
/// translation time (see T1Op.def); A/B mirror MCode's 64-bit operand
/// width, C holds branch targets (tier-1 indexes) and third frame slots.
struct TInstr {
  T1Op Op = T1Op::Trap;
  uint8_t Cost = 1;  ///< Tier-0 instructions this entry accounts for.
  uint8_t Kind = 0;  ///< BinKind / CmpKind of fused forms.
  uint8_t Pad = 0;
  uint32_t Pc0 = 0;  ///< Tier-0 pc of the (group) head.
  int64_t A = 0;
  int64_t B = 0;
  int32_t C = 0;
  Symbol Sym;        ///< Pre-resolved string constant (PushStr).
  double F = 0.0;    ///< Real immediate.
};

static_assert(std::is_trivially_destructible_v<TInstr>,
              "TInstrs live in the CodeArena and are never destroyed");

/// A translated procedure.  Everything it points to lives in the arena
/// (or in the immutable LinkedProgram) and never moves.  Execution enters
/// at Code[0]; a call's return address is the tier-1 index after the
/// call (the translator makes every pc-after-call a group head).
struct TierUnit {
  int32_t UnitIndex = -1;
  const codegen::LinkedUnit *LU = nullptr;

  const TInstr *Code = nullptr;
  uint32_t NumInstrs = 0;

  uint32_t FusedGroups = 0;          ///< Superinstructions emitted.
  uint32_t FusedSavedDispatches = 0; ///< Sum of (Cost - 1).
  size_t ArenaBytes = 0;             ///< Arena footprint of this unit.
};

} // namespace m2c::vm::tier

#endif // M2C_VM_TIER_TIERUNIT_H
