//===--- ExecInternal.h - Shared interpreter execution state ----*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution state shared by the tier-0 interpreter loop (VM.cpp) and
/// the tier-1 threaded-code dispatcher (Tier1Exec.cpp), plus the small
/// value-view helpers both loops use.  Internal to the vm library.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_VM_EXECINTERNAL_H
#define M2C_VM_EXECINTERNAL_H

#include "vm/VM.h"

#include <deque>

namespace m2c::vm {

/// One executeUnit() activation: the operand stack and frame stack walked
/// by whichever tier currently runs, and the tier-0 resume point (CurUnit,
/// Pc) that tier 1 sets when it hands the activation to tier 0.  Frames
/// live in a deque so Frame references (static links, the tier-1 cached
/// frame pointer) survive pushes.
struct VM::Exec {
  std::vector<Value> Stack;
  std::deque<Frame> Frames;
  int32_t CurUnit = -1;
  size_t Pc = 0;
};

namespace detail {

/// Ordinal-ish view of a value (ints, bools, chars, enum ordinals, sets
/// compare as their bit patterns; uninitialized slots read as zero).
inline int64_t asOrdinal(const Value &V) {
  if (const auto *I = std::get_if<int64_t>(&V))
    return *I;
  if (const auto *S = std::get_if<SetVal>(&V))
    return static_cast<int64_t>(S->Bits);
  return 0;
}

inline double asReal(const Value &V) {
  if (const auto *R = std::get_if<double>(&V))
    return *R;
  return static_cast<double>(asOrdinal(V));
}

inline uint64_t asSet(const Value &V) {
  if (const auto *S = std::get_if<SetVal>(&V))
    return S->Bits;
  return static_cast<uint64_t>(asOrdinal(V));
}

inline void appendPadded(std::string &Out, const std::string &Text,
                         int64_t Width) {
  for (int64_t I = static_cast<int64_t>(Text.size()); I < Width; ++I)
    Out.push_back(' ');
  Out += Text;
}

} // namespace detail

} // namespace m2c::vm

#endif // M2C_VM_EXECINTERNAL_H
