//===--- Translator.cpp - MCode to tier-1 translation ----------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
//
// Three passes over the unit's MCode:
//
//  1. Barriers — every pc where control can enter from elsewhere (jump
//     targets and return addresses after calls) must head its own tier-1
//     group, so fusion never spans one.
//  2. Grouping — a greedy left-to-right walk fuses the trap-free shapes
//     the code generator and optimization passes leave behind
//     (load/load/binop/store, load/imm/compare/branch, imm/binop on a
//     computed value, INC/DEC of a local or global, constant stores, local
//     copies, value returns) and maps every other instruction one-to-one.
//  3. Emission — operands are specialized (strings to Symbols, callees to
//     unit indexes, globals to (module, slot), branch targets to tier-1
//     indexes) into one arena reservation holding the TierUnit header and
//     the instruction buffer.
//
// Fusable components are restricted to operations that cannot trap where
// they are fused (LoadLocal/LoadLocalRef/PushInt on linker-validated
// slots, a LoadGlobalRef whose (module, slot) is checked in range here,
// Add/Sub/Mul on integers, DIV/MOD by a positive literal, integer
// comparisons, JumpIfFalse, IncAddr through a fused reference,
// StoreLocal, ReturnValue).  DIV and MOD by anything else stay un-fused
// so their zero-divisor traps keep their exact tier-0 pc.
//
//===----------------------------------------------------------------------===//

#include "vm/tier/Translator.h"

#include "vm/VmStats.h"

#include <cassert>
#include <new>
#include <vector>

using namespace m2c;
using namespace m2c::codegen;
using namespace m2c::vm;
using namespace m2c::vm::tier;

// The 1:1 block of T1Op.def mirrors Opcode.def in order, making the cast
// below the identity translation for un-fused instructions.
static_assert(static_cast<unsigned>(T1Op::PushInt) ==
              static_cast<unsigned>(Opcode::PushInt));
static_assert(static_cast<unsigned>(T1Op::Jump) ==
              static_cast<unsigned>(Opcode::Jump));
static_assert(static_cast<unsigned>(T1Op::Trap) ==
              static_cast<unsigned>(Opcode::Trap));

namespace {

/// The binop of a load/load form: only the operators that cannot trap
/// whatever their operands.
bool binKindOf(Opcode Op, BinKind &K) {
  switch (Op) {
  case Opcode::AddInt:
    K = BinKind::Add;
    return true;
  case Opcode::SubInt:
    K = BinKind::Sub;
    return true;
  case Opcode::MulInt:
    K = BinKind::Mul;
    return true;
  default:
    return false;
  }
}

/// The binop of a load/immediate form: DIV and MOD join when the
/// immediate divisor \p Imm is positive (no zero divisor, no
/// INT64_MIN DIV -1 overflow).
bool immBinKindOf(Opcode Op, int64_t Imm, BinKind &K) {
  if (binKindOf(Op, K))
    return true;
  if (Imm <= 0)
    return false;
  if (Op == Opcode::DivInt)
    K = BinKind::Div;
  else if (Op == Opcode::ModInt)
    K = BinKind::Mod;
  else
    return false;
  return true;
}

bool cmpKindOf(Opcode Op, CmpKind &K) {
  switch (Op) {
  case Opcode::CmpEqInt:
    K = CmpKind::Eq;
    return true;
  case Opcode::CmpNeInt:
    K = CmpKind::Ne;
    return true;
  case Opcode::CmpLtInt:
    K = CmpKind::Lt;
    return true;
  case Opcode::CmpLeInt:
    K = CmpKind::Le;
    return true;
  case Opcode::CmpGtInt:
    K = CmpKind::Gt;
    return true;
  case Opcode::CmpGeInt:
    K = CmpKind::Ge;
    return true;
  default:
    return false;
  }
}

/// One planned tier-1 instruction: the tier-0 pc it heads, what to emit,
/// and how many tier-0 instructions it covers.
struct Group {
  uint32_t Pc = 0;
  T1Op Op = T1Op::Trap;
  uint8_t Len = 1;
  uint8_t Kind = 0;
};

/// True when global reference \p Ref of \p LU names a slot that exists,
/// so accessing it cannot raise tier 0's global-reference traps.
bool globalInRange(const LinkedProgram &Prog, const LinkedUnit &LU,
                   int64_t Ref) {
  if (Ref < 0 || static_cast<size_t>(Ref) >= LU.Globals.size())
    return false;
  const LinkedUnit::GlobalSlot &G = LU.Globals[static_cast<size_t>(Ref)];
  return G.ModuleIndex >= 0 &&
         static_cast<size_t>(G.ModuleIndex) < Prog.images().size() &&
         G.Slot >= 0 &&
         static_cast<uint32_t>(G.Slot) <
             Prog.images()[static_cast<size_t>(G.ModuleIndex)].GlobalCount;
}

} // namespace

const TierUnit *m2c::vm::tier::translateUnit(const LinkedProgram &Prog,
                                             int32_t UnitIndex,
                                             CodeArena &Arena) {
  const LinkedUnit &LU = Prog.units()[static_cast<size_t>(UnitIndex)];
  const CodeUnit &U = *LU.Unit;
  const size_t N = U.Code.size();
  if (N >= (size_t{1} << 28)) // Pc0 must fit uint32 with headroom.
    return nullptr;

  // Pass 1: barriers.  Every jump target and every return address (the
  // pc after a frame-pushing call) must head its own group.
  std::vector<uint8_t> Barrier(N + 1, 0);
  for (size_t Pc = 0; Pc < N; ++Pc) {
    const Instr &In = U.Code[Pc];
    switch (In.Op) {
    case Opcode::Jump:
    case Opcode::JumpIfFalse:
    case Opcode::JumpIfTrue:
      if (In.A < 0 || In.A > static_cast<int64_t>(N))
        return nullptr; // Defensive; the linker validates targets.
      Barrier[static_cast<size_t>(In.A)] = 1;
      break;
    case Opcode::Call:
    case Opcode::CallIndirect:
      Barrier[Pc + 1] = 1;
      break;
    default:
      break;
    }
  }

  // Pass 2: greedy grouping.
  std::vector<Group> Groups;
  Groups.reserve(N + 1);
  std::vector<int32_t> PcMap(N + 1, -1);
  for (size_t Pc = 0; Pc < N;) {
    // How many instructions past Pc can be absorbed before a barrier.
    size_t MaxLen = 1;
    while (MaxLen < 4 && Pc + MaxLen < N && !Barrier[Pc + MaxLen])
      ++MaxLen;

    const Instr &I0 = U.Code[Pc];
    Group G;
    G.Pc = static_cast<uint32_t>(Pc);
    G.Op = static_cast<T1Op>(static_cast<unsigned>(I0.Op));
    G.Len = 1;

    BinKind BK;
    CmpKind CK;
    if (I0.Op == Opcode::LoadLocal) {
      if (MaxLen >= 4 && U.Code[Pc + 1].Op == Opcode::LoadLocal &&
          binKindOf(U.Code[Pc + 2].Op, BK) &&
          U.Code[Pc + 3].Op == Opcode::StoreLocal) {
        G.Op = T1Op::FusedLLBS;
        G.Len = 4;
        G.Kind = static_cast<uint8_t>(BK);
      } else if (MaxLen >= 4 && U.Code[Pc + 1].Op == Opcode::PushInt &&
                 immBinKindOf(U.Code[Pc + 2].Op, U.Code[Pc + 1].A, BK) &&
                 U.Code[Pc + 3].Op == Opcode::StoreLocal) {
        G.Op = T1Op::FusedLIBS;
        G.Len = 4;
        G.Kind = static_cast<uint8_t>(BK);
      } else if (MaxLen >= 4 && U.Code[Pc + 1].Op == Opcode::LoadLocal &&
                 cmpKindOf(U.Code[Pc + 2].Op, CK) &&
                 U.Code[Pc + 3].Op == Opcode::JumpIfFalse) {
        G.Op = T1Op::FusedLLCmpBr;
        G.Len = 4;
        G.Kind = static_cast<uint8_t>(CK);
      } else if (MaxLen >= 4 && U.Code[Pc + 1].Op == Opcode::PushInt &&
                 cmpKindOf(U.Code[Pc + 2].Op, CK) &&
                 U.Code[Pc + 3].Op == Opcode::JumpIfFalse) {
        G.Op = T1Op::FusedLICmpBr;
        G.Len = 4;
        G.Kind = static_cast<uint8_t>(CK);
      } else if (MaxLen >= 3 && U.Code[Pc + 1].Op == Opcode::LoadLocal &&
                 binKindOf(U.Code[Pc + 2].Op, BK)) {
        G.Op = T1Op::FusedLLB;
        G.Len = 3;
        G.Kind = static_cast<uint8_t>(BK);
      } else if (MaxLen >= 3 && U.Code[Pc + 1].Op == Opcode::PushInt &&
                 immBinKindOf(U.Code[Pc + 2].Op, U.Code[Pc + 1].A, BK)) {
        G.Op = T1Op::FusedLIB;
        G.Len = 3;
        G.Kind = static_cast<uint8_t>(BK);
      } else if (MaxLen >= 2 && U.Code[Pc + 1].Op == Opcode::StoreLocal) {
        G.Op = T1Op::FusedCopyLocal;
        G.Len = 2;
      } else if (MaxLen >= 2 && U.Code[Pc + 1].Op == Opcode::ReturnValue) {
        G.Op = T1Op::FusedReturnLocal;
        G.Len = 2;
      }
    } else if (I0.Op == Opcode::PushInt) {
      if (MaxLen >= 2 && U.Code[Pc + 1].Op == Opcode::StoreLocal) {
        G.Op = T1Op::FusedStoreConst;
        G.Len = 2;
      } else if (MaxLen >= 3 && cmpKindOf(U.Code[Pc + 1].Op, CK) &&
                 U.Code[Pc + 2].Op == Opcode::JumpIfFalse) {
        G.Op = T1Op::FusedICmpBr;
        G.Len = 3;
        G.Kind = static_cast<uint8_t>(CK);
      } else if (MaxLen >= 2 &&
                 immBinKindOf(U.Code[Pc + 1].Op, I0.A, BK)) {
        G.Op = T1Op::FusedIB;
        G.Len = 2;
        G.Kind = static_cast<uint8_t>(BK);
      }
    } else if (MaxLen >= 3 && U.Code[Pc + 1].Op == Opcode::PushInt &&
               U.Code[Pc + 2].Op == Opcode::IncAddr) {
      if (I0.Op == Opcode::LoadLocalRef) {
        G.Op = T1Op::FusedIncLocal;
        G.Len = 3;
      } else if (I0.Op == Opcode::LoadGlobalRef &&
                 globalInRange(Prog, LU, I0.A)) {
        G.Op = T1Op::FusedIncGlobal;
        G.Len = 3;
      }
    }

    PcMap[Pc] = static_cast<int32_t>(Groups.size());
    Groups.push_back(G);
    Pc += G.Len;
  }
  // Synthetic terminator: reaching pc == N reproduces tier 0's
  // fell-off-the-end trap (after the same step charge).
  {
    Group G;
    G.Pc = static_cast<uint32_t>(N);
    G.Op = T1Op::FellOff;
    G.Len = 1;
    PcMap[N] = static_cast<int32_t>(Groups.size());
    Groups.push_back(G);
  }

  // Pass 3: emission into one arena reservation.
  const size_t HeaderBytes =
      (sizeof(TierUnit) + alignof(TInstr) - 1) & ~(alignof(TInstr) - 1);
  const size_t CodeBytes = Groups.size() * sizeof(TInstr);
  std::byte *Limit = nullptr;
  std::byte *Base = Arena.reserve(HeaderBytes + CodeBytes, &Limit);

  auto *TU = new (Base) TierUnit();
  auto *Code = reinterpret_cast<TInstr *>(Base + HeaderBytes);

  for (size_t I = 0; I < Groups.size(); ++I) {
    const Group &G = Groups[I];
    TInstr *T = new (&Code[I]) TInstr();
    T->Op = G.Op;
    T->Cost = G.Len;
    T->Kind = G.Kind;
    T->Pc0 = G.Pc;
    if (G.Op == T1Op::FellOff)
      continue;
    const Instr &I0 = U.Code[G.Pc];
    switch (G.Op) {
    case T1Op::FusedLLBS: // LL a; LL b; bin; Store c
      T->A = U.Code[G.Pc].A;
      T->B = U.Code[G.Pc + 1].A;
      T->C = static_cast<int32_t>(U.Code[G.Pc + 3].A);
      break;
    case T1Op::FusedLIBS: // LL a; PushInt k; bin; Store c
      T->A = U.Code[G.Pc].A;
      T->B = U.Code[G.Pc + 1].A;
      T->C = static_cast<int32_t>(U.Code[G.Pc + 3].A);
      break;
    case T1Op::FusedLLCmpBr: // LL a; LL b; cmp; JumpIfFalse t
    case T1Op::FusedLICmpBr: // LL a; PushInt k; cmp; JumpIfFalse t
      T->A = U.Code[G.Pc].A;
      T->B = U.Code[G.Pc + 1].A;
      T->C = PcMap[static_cast<size_t>(U.Code[G.Pc + 3].A)];
      assert(T->C >= 0 && "branch target is not a group head");
      break;
    case T1Op::FusedICmpBr: // PushInt k; cmp; JumpIfFalse t
      T->B = U.Code[G.Pc].A;
      T->C = PcMap[static_cast<size_t>(U.Code[G.Pc + 2].A)];
      assert(T->C >= 0 && "branch target is not a group head");
      break;
    case T1Op::FusedIB: // PushInt k; bin
      T->B = U.Code[G.Pc].A;
      break;
    case T1Op::FusedIncLocal: // LoadLocalRef a; PushInt k; IncAddr
      T->A = U.Code[G.Pc].A;
      T->B = U.Code[G.Pc + 1].A;
      break;
    case T1Op::FusedIncGlobal: { // LoadGlobalRef g; PushInt k; IncAddr
      const LinkedUnit::GlobalSlot &G2 = LU.Globals[static_cast<size_t>(I0.A)];
      T->A = G2.Slot;
      T->B = U.Code[G.Pc + 1].A;
      T->C = G2.ModuleIndex;
      break;
    }
    case T1Op::FusedLLB:
    case T1Op::FusedLIB:
      T->A = U.Code[G.Pc].A;
      T->B = U.Code[G.Pc + 1].A;
      break;
    case T1Op::FusedStoreConst: // PushInt k; Store a
      T->A = U.Code[G.Pc + 1].A;
      T->B = U.Code[G.Pc].A;
      break;
    case T1Op::FusedCopyLocal: // LL a; Store c
      T->A = U.Code[G.Pc].A;
      T->C = static_cast<int32_t>(U.Code[G.Pc + 1].A);
      break;
    case T1Op::FusedReturnLocal: // LL a; ReturnValue
      T->A = U.Code[G.Pc].A;
      break;

    case T1Op::PushStr:
      T->Sym = U.Strings[static_cast<size_t>(I0.A)];
      break;
    case T1Op::PushProc:
    case T1Op::Call:
      // Callee-table index to linked unit index (-1 stays: the unlinked
      // trap fires at run time, exactly like tier 0).
      T->A = LU.Callees[static_cast<size_t>(I0.A)];
      T->B = I0.B;
      break;
    case T1Op::LoadGlobal:
    case T1Op::StoreGlobal:
    case T1Op::LoadGlobalRef: {
      const LinkedUnit::GlobalSlot &G2 = LU.Globals[static_cast<size_t>(I0.A)];
      T->A = G2.ModuleIndex;
      T->B = G2.Slot;
      break;
    }
    case T1Op::Jump:
    case T1Op::JumpIfFalse:
    case T1Op::JumpIfTrue:
      T->C = PcMap[static_cast<size_t>(I0.A)];
      assert(T->C >= 0 && "branch target is not a group head");
      break;
    default:
      T->A = I0.A;
      T->B = I0.B;
      T->F = I0.F;
      break;
    }
    if (G.Len > 1) {
      ++TU->FusedGroups;
      TU->FusedSavedDispatches += G.Len - 1;
    }
  }

  TU->UnitIndex = UnitIndex;
  TU->LU = &LU;
  TU->Code = Code;
  TU->NumInstrs = static_cast<uint32_t>(Groups.size());
  TU->ArenaBytes = HeaderBytes + CodeBytes;

  Arena.commit(Base, Base + HeaderBytes + CodeBytes);
  return TU;
}

TranslatedProgram::TranslatedProgram(const LinkedProgram &Prog)
    : Prog(Prog), Units(Prog.units().size(), nullptr) {
  uint64_t Instrs = 0, Fused = 0, Saved = 0, Bytes = 0;
  for (size_t U = 0; U < Units.size(); ++U) {
    const TierUnit *TU = translateUnit(Prog, static_cast<int32_t>(U), Arena);
    if (!TU)
      continue;
    Units[U] = TU;
    ++Translated;
    Instrs += TU->NumInstrs;
    Fused += TU->FusedGroups;
    Saved += TU->FusedSavedDispatches;
    Bytes += TU->ArenaBytes;
  }
  StatisticSet &S = globalVmStats();
  S.add("vm.tier.promotions", Translated);
  S.add("vm.tier.instrs", Instrs);
  S.add("vm.tier.fused.groups", Fused);
  S.add("vm.tier.fused.saved", Saved);
  S.add("vm.tier.arena.bytes", Bytes);
}
