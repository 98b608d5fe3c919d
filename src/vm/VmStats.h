//===--- VmStats.h - Process-global VM runtime counters ---------*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vm.* counter set exported through `-stats` and the daemon STATS
/// reply, next to opt.* and sched.requests.*:
///
///   vm.runs                  completed VM::run() calls
///   vm.steps.tier0           interpreter steps executed by tier 0
///   vm.steps.tier1           tier-0-equivalent steps charged by tier 1
///   vm.dispatch.tier1        tier-1 instructions dispatched (the gap to
///                            vm.steps.tier1 is what fusion saved)
///   vm.tier.promotions       units translated to tier 1 (at VM load)
///   vm.tier.instrs           tier-1 instructions emitted
///   vm.tier.fused.groups     superinstructions emitted
///   vm.tier.fused.saved      dispatches fusion removes per execution
///   vm.tier.arena.bytes      committed tier-1 arena bytes
///   vm.tier.deopts           step-budget deopts into tier 0
///
//===----------------------------------------------------------------------===//

#ifndef M2C_VM_VMSTATS_H
#define M2C_VM_VMSTATS_H

#include "support/Statistic.h"

namespace m2c::vm {

/// The process-global vm.* StatisticSet.  Keys are pre-touched so stats
/// consumers always see the full set, zeros included.
StatisticSet &globalVmStats();

} // namespace m2c::vm

#endif // M2C_VM_VMSTATS_H
