//===--- VM.cpp - MCode interpreter: tier 0 and the tier trampoline --------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "sema/Builtins.h"
#include "vm/ExecInternal.h"
#include "vm/VmStats.h"
#include "vm/tier/Translator.h"

#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace m2c;
using namespace m2c::codegen;
using namespace m2c::vm;
using namespace m2c::vm::detail;

//===----------------------------------------------------------------------===//
// Global vm.* counters and the tier mode
//===----------------------------------------------------------------------===//

StatisticSet &m2c::vm::globalVmStats() {
  static StatisticSet *Set = [] {
    auto *S = new StatisticSet();
    // Pre-touch every exported key so stats consumers (CLI -stats, the
    // daemon STATS reply) always render the full set.
    for (const char *Key :
         {"vm.runs", "vm.steps.tier0", "vm.steps.tier1", "vm.dispatch.tier1",
          "vm.tier.promotions", "vm.tier.instrs", "vm.tier.fused.groups",
          "vm.tier.fused.saved", "vm.tier.arena.bytes", "vm.tier.deopts"})
      S->add(Key, 0);
    return S;
  }();
  return *Set;
}

tier::TierMode tier::tierModeFromEnv() {
  const char *Mode = std::getenv("M2C_VM_TIER");
  return Mode && !std::strcmp(Mode, "tier0") ? TierMode::Tier0Only
                                              : TierMode::Tier1;
}

//===----------------------------------------------------------------------===//
// VM
//===----------------------------------------------------------------------===//

VM::VM(const codegen::LinkedProgram &Prog, const StringInterner &Names,
       tier::TierMode Mode)
    : VM(Prog, Names,
         Mode == tier::TierMode::Tier1
             ? std::make_shared<const tier::TranslatedProgram>(Prog)
             : nullptr) {}

VM::VM(const codegen::LinkedProgram &Prog, const StringInterner &Names,
       std::shared_ptr<const tier::TranslatedProgram> Translated)
    : Prog(Prog), Names(Names), Translated(std::move(Translated)) {
  assert((!this->Translated || &this->Translated->program() == &Prog) &&
         "tier-1 code translated for another program");
  for (const ModuleImage &Image : Prog.images()) {
    auto Frame = std::make_unique<std::vector<Value>>();
    Frame->resize(Image.GlobalCount);
    for (size_t I = 0; I < Image.GlobalDescs.size(); ++I)
      (*Frame)[I] = defaultValue(Image.Descs, Image.GlobalDescs[I]);
    Globals.push_back(std::move(Frame));
  }
}

VM::~VM() = default;

void VM::setInput(std::vector<int64_t> In) {
  Input = std::move(In);
  InputPos = 0;
}

Value VM::defaultValue(const std::vector<TypeDesc> &Descs,
                       int32_t Index) const {
  if (Index < 0 || static_cast<size_t>(Index) >= Descs.size())
    return Value(int64_t{0});
  const TypeDesc &D = Descs[static_cast<size_t>(Index)];
  switch (D.DescKind) {
  case TypeDesc::Kind::Int:
    return Value(int64_t{0});
  case TypeDesc::Kind::Real:
    return Value(0.0);
  case TypeDesc::Kind::Set:
    return Value(SetVal{0});
  case TypeDesc::Kind::Pointer:
    return Value(PtrRef{nullptr});
  case TypeDesc::Kind::ProcVal:
    return Value(ProcVal{-1});
  case TypeDesc::Kind::Array: {
    auto Obj = std::make_shared<Object>();
    Obj->Slots.reserve(static_cast<size_t>(D.Count));
    for (int64_t I = 0; I < D.Count; ++I)
      Obj->Slots.push_back(defaultValue(Descs, D.Element));
    return Value(AggRef{std::move(Obj)});
  }
  case TypeDesc::Kind::Record: {
    auto Obj = std::make_shared<Object>();
    Obj->Slots.reserve(D.Fields.size());
    for (int32_t F : D.Fields)
      Obj->Slots.push_back(defaultValue(Descs, F));
    return Value(AggRef{std::move(Obj)});
  }
  }
  return Value(int64_t{0});
}

Value VM::deepCopy(const Value &V) const {
  if (const auto *Agg = std::get_if<AggRef>(&V)) {
    auto Obj = std::make_shared<Object>();
    Obj->Slots.reserve(Agg->Obj->Slots.size());
    for (const Value &Slot : Agg->Obj->Slots)
      Obj->Slots.push_back(deepCopy(Slot));
    return Value(AggRef{std::move(Obj)});
  }
  return V;
}

Value VM::stringToArray(Symbol S, int64_t Length) const {
  std::string_view Text = Names.spelling(S);
  if (Length < 0)
    Length = static_cast<int64_t>(Text.size());
  auto Obj = std::make_shared<Object>();
  Obj->Slots.reserve(static_cast<size_t>(Length));
  for (int64_t I = 0; I < Length; ++I)
    Obj->Slots.push_back(Value(
        int64_t{I < static_cast<int64_t>(Text.size())
                    ? static_cast<unsigned char>(Text[static_cast<size_t>(I)])
                    : 0}));
  return Value(AggRef{std::move(Obj)});
}

void VM::assignInto(Value &SlotRef, Value V) {
  if (const auto *Str = std::get_if<StrRef>(&V)) {
    // String constant into a character array: copy, zero-padded.
    if (const auto *Agg = std::get_if<AggRef>(&SlotRef)) {
      SlotRef = stringToArray(Str->Str,
                              static_cast<int64_t>(Agg->Obj->Slots.size()));
      return;
    }
    SlotRef = V; // e.g. a string-typed temp
    return;
  }
  if (std::holds_alternative<AggRef>(V)) {
    SlotRef = deepCopy(V);
    return;
  }
  SlotRef = std::move(V);
}

void VM::trap(RunResult &Result, const std::string &Message) {
  Result.Trapped = true;
  Result.TrapMessage = Message;
  Result.ExitCode = 255;
}

void VM::failAt(RunResult &Result, const Frame &F, size_t Pc,
                const std::string &Message) {
  trap(Result, F.Unit->Unit->QualifiedName + " +" + std::to_string(Pc) + ": " +
                   Message);
}

VM::RunResult VM::run(Symbol MainModule, uint64_t MaxSteps) {
  RunResult Result;
  uint64_t Steps = 0;
  // Flush the per-run tier counters into the process-global vm.* set on
  // every exit path (local structs in member functions share the member
  // access of the enclosing function).
  struct StatsFlush {
    VM &V;
    ~StatsFlush() {
      StatisticSet &S = globalVmStats();
      S.add("vm.runs");
      S.add("vm.steps.tier0", V.Tier0Steps);
      S.add("vm.steps.tier1", V.Tier1Steps);
      S.add("vm.dispatch.tier1", V.Tier1Dispatches);
      S.add("vm.tier.deopts", V.Deopts);
      V.Tier0Steps = V.Tier1Steps = V.Tier1Dispatches = V.Deopts = 0;
    }
  } Flusher{*this};
  // Initialize imported modules first, then the main module's body last.
  int32_t MainIndex = -1;
  for (int32_t M : Prog.initOrder())
    if (Prog.images()[static_cast<size_t>(M)].ModuleName == MainModule)
      MainIndex = M;
  if (MainIndex < 0) {
    trap(Result, "main module not linked");
    return Result;
  }
  auto BodyUnitOf = [&](int32_t M) {
    for (size_t U = 0; U < Prog.units().size(); ++U)
      if (Prog.units()[U].ModuleIndex == M &&
          Prog.units()[U].Unit->IsModuleBody)
        return static_cast<int32_t>(U);
    return -1;
  };
  for (int32_t M : Prog.initOrder()) {
    if (M == MainIndex)
      continue; // Main body runs last.
    int32_t UnitIndex = BodyUnitOf(M);
    if (UnitIndex < 0)
      continue;
    if (!executeUnit(UnitIndex, Result, Steps, MaxSteps))
      return Result;
  }
  int32_t MainBody = BodyUnitOf(MainIndex);
  if (MainBody < 0) {
    trap(Result, "main module has no body unit");
    return Result;
  }
  executeUnit(MainBody, Result, Steps, MaxSteps);
  return Result;
}

//===----------------------------------------------------------------------===//
// Tier trampoline
//===----------------------------------------------------------------------===//

VM::Frame &VM::pushFrame(Exec &E, int32_t UnitIndex, Frame *StaticLink,
                         size_t ReturnPc, int32_t ReturnUnit) {
  const codegen::LinkedUnit &LU = Prog.units()[static_cast<size_t>(UnitIndex)];
  E.Frames.emplace_back();
  Frame &F = E.Frames.back();
  F.Unit = &LU;
  F.Slots.resize(LU.Unit->FrameSize);
  F.StaticLink = StaticLink;
  F.ReturnPc = ReturnPc;
  F.ReturnUnit = ReturnUnit;
  F.StackBase = E.Stack.size();
  return F;
}

void VM::bindArgs(Exec &E, Frame &Callee, size_t ArgBase) {
  const CodeUnit &U = *Callee.Unit->Unit;
  for (size_t I = 0; I < U.Params.size(); ++I) {
    Value &Arg = E.Stack[ArgBase + I];
    const ParamDesc &P = U.Params[I];
    if (P.IsVar) {
      Callee.Slots[I] = std::move(Arg); // an Address
    } else if (P.IsAggregate) {
      if (const auto *Str = std::get_if<StrRef>(&Arg))
        Callee.Slots[I] = stringToArray(Str->Str, -1);
      else
        Callee.Slots[I] = deepCopy(Arg);
    } else {
      Callee.Slots[I] = std::move(Arg);
    }
  }
  E.Stack.resize(ArgBase);
  Callee.StackBase = E.Stack.size();
}

bool VM::executeUnit(int32_t EntryUnit, RunResult &Result, uint64_t &Steps,
                     uint64_t MaxSteps) {
  Exec E;
  E.CurUnit = EntryUnit;
  E.Pc = 0;
  pushFrame(E, EntryUnit, nullptr, 0, -1);
  // Tier 1 runs the activation; tier 0 takes over (and finishes it) where
  // tier 1 hands back: a step-budget deopt in front of a fused group, or
  // a call into a unit the translator refused.
  if (const tier::TierUnit *TU =
          Translated ? Translated->units()[EntryUnit] : nullptr) {
    switch (runTier1(E, TU, Result, Steps, MaxSteps)) {
    case Flow::Done:
      return true;
    case Flow::Trapped:
      return false;
    case Flow::Tier0:
      break;
    }
  }
  return runTier0(E, Result, Steps, MaxSteps);
}

//===----------------------------------------------------------------------===//
// Builtins (shared by both tiers)
//===----------------------------------------------------------------------===//

bool VM::callBuiltin(Exec &E, RunResult &Result, int64_t Builtin,
                     size_t TrapPc) {
  auto &Stack = E.Stack;
  auto Pop = [&]() {
    Value V = std::move(Stack.back());
    Stack.pop_back();
    return V;
  };
  auto Fail = [&](const std::string &Message) {
    failAt(Result, E.Frames.back(), TrapPc, Message);
    return false;
  };
  switch (static_cast<sema::BuiltinProc>(Builtin)) {
  case sema::BuiltinProc::WriteInt:
  case sema::BuiltinProc::WriteCard: {
    int64_t Width = asOrdinal(Pop());
    int64_t V = asOrdinal(Pop());
    appendPadded(Result.Output, std::to_string(V), Width);
    break;
  }
  case sema::BuiltinProc::WriteReal: {
    int64_t Width = asOrdinal(Pop());
    double V = asReal(Pop());
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%g", V);
    appendPadded(Result.Output, Buf, Width);
    break;
  }
  case sema::BuiltinProc::WriteChar:
    Result.Output.push_back(static_cast<char>(asOrdinal(Pop())));
    break;
  case sema::BuiltinProc::WriteLn:
    Result.Output.push_back('\n');
    break;
  case sema::BuiltinProc::WriteString: {
    Value V = Pop();
    if (const auto *Str = std::get_if<StrRef>(&V)) {
      Result.Output += Names.spelling(Str->Str);
    } else if (const auto *Agg = std::get_if<AggRef>(&V)) {
      for (const Value &Ch : Agg->Obj->Slots) {
        int64_t C = asOrdinal(Ch);
        if (C == 0)
          break;
        Result.Output.push_back(static_cast<char>(C));
      }
    } else {
      Result.Output.push_back(static_cast<char>(asOrdinal(V)));
    }
    break;
  }
  case sema::BuiltinProc::ReadInt: {
    Value AddrV = Pop();
    const auto *Addr = std::get_if<Address>(&AddrV);
    if (!Addr)
      return Fail("ReadInt of a non-address");
    int64_t V = InputPos < Input.size() ? Input[InputPos++] : 0;
    Addr->slot() = Value(V);
    break;
  }
  default:
    return Fail("unexpected builtin call");
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Tier 0: the switch interpreter (the reference for tier 1)
//===----------------------------------------------------------------------===//

namespace {

/// Accumulates the steps a tier loop executed into a per-tier counter on
/// every exit path.
struct StepAccount {
  uint64_t &Dst;
  const uint64_t &Steps;
  uint64_t Entry;
  StepAccount(uint64_t &Dst, const uint64_t &Steps)
      : Dst(Dst), Steps(Steps), Entry(Steps) {}
  ~StepAccount() { Dst += Steps - Entry; }
};

} // namespace

bool VM::runTier0(Exec &E, RunResult &Result, uint64_t &Steps,
                  uint64_t MaxSteps) {
  auto &Stack = E.Stack;
  auto &Frames = E.Frames;
  int32_t &CurUnit = E.CurUnit;
  size_t &Pc = E.Pc;
  StepAccount Account(Tier0Steps, Steps);

  auto Fail = [&](const std::string &Message) {
    failAt(Result, Frames.back(), Pc, Message);
    return false;
  };
  auto Pop = [&]() {
    Value V = std::move(Stack.back());
    Stack.pop_back();
    return V;
  };

  while (true) {
    if (++Steps > MaxSteps)
      return Fail("step limit exceeded (runaway program?)");
    const CodeUnit &U = *Frames.back().Unit->Unit;
    if (Pc >= U.Code.size())
      return Fail("fell off the end of the code unit");
    const Instr &In = U.Code[Pc];
    Frame &F = Frames.back();
    ++Pc;

    switch (In.Op) {
    case Opcode::PushInt:
      Stack.push_back(Value(In.A));
      break;
    case Opcode::PushReal:
      Stack.push_back(Value(In.F));
      break;
    case Opcode::PushSet:
      Stack.push_back(Value(SetVal{static_cast<uint64_t>(In.A)}));
      break;
    case Opcode::PushNil:
      Stack.push_back(Value(PtrRef{nullptr}));
      break;
    case Opcode::PushStr:
      Stack.push_back(Value(StrRef{U.Strings[static_cast<size_t>(In.A)]}));
      break;
    case Opcode::PushProc: {
      int32_t Target =
          F.Unit->Callees[static_cast<size_t>(In.A)];
      if (Target < 0)
        return Fail("procedure value refers to an unlinked procedure");
      Stack.push_back(Value(ProcVal{Target}));
      break;
    }

    case Opcode::LoadLocal:
      Stack.push_back(F.Slots[static_cast<size_t>(In.A)]);
      break;
    case Opcode::StoreLocal: {
      Value V = Pop();
      assignInto(F.Slots[static_cast<size_t>(In.A)], std::move(V));
      break;
    }
    case Opcode::LoadLocalRef:
      Stack.push_back(Value(Address{&F.Slots[static_cast<size_t>(In.A)],
                                    nullptr, 0}));
      break;

    case Opcode::LoadEnclosing:
    case Opcode::StoreEnclosing:
    case Opcode::LoadEnclosingRef: {
      Frame *Target = &F;
      for (int64_t Hop = 0; Hop < In.B; ++Hop) {
        Target = Target->StaticLink;
        if (!Target)
          return Fail("broken static link chain");
      }
      if (In.A < 0 ||
          static_cast<size_t>(In.A) >= Target->Slots.size())
        return Fail("enclosing frame slot out of range");
      Value &Slot = Target->Slots[static_cast<size_t>(In.A)];
      if (In.Op == Opcode::LoadEnclosing) {
        Stack.push_back(Slot);
      } else if (In.Op == Opcode::StoreEnclosing) {
        Value V = Pop();
        assignInto(Slot, std::move(V));
      } else {
        Stack.push_back(Value(Address{&Slot, nullptr, 0}));
      }
      break;
    }

    case Opcode::LoadGlobal:
    case Opcode::StoreGlobal:
    case Opcode::LoadGlobalRef: {
      const auto &Ref = F.Unit->Globals[static_cast<size_t>(In.A)];
      if (Ref.ModuleIndex < 0)
        return Fail("unresolved global reference");
      auto &ModGlobals = *Globals[static_cast<size_t>(Ref.ModuleIndex)];
      if (static_cast<size_t>(Ref.Slot) >= ModGlobals.size())
        return Fail("global slot out of range");
      Value &Slot = ModGlobals[static_cast<size_t>(Ref.Slot)];
      if (In.Op == Opcode::LoadGlobal) {
        Stack.push_back(Slot);
      } else if (In.Op == Opcode::StoreGlobal) {
        Value V = Pop();
        assignInto(Slot, std::move(V));
      } else {
        Stack.push_back(Value(Address{&Slot, nullptr, 0}));
      }
      break;
    }

    case Opcode::LoadIndirect: {
      Value V = Pop();
      const auto *Addr = std::get_if<Address>(&V);
      if (!Addr)
        return Fail("LoadIndirect on a non-address");
      Stack.push_back(Addr->slot());
      break;
    }
    case Opcode::StoreIndirect: {
      Value V = Pop();
      Value AddrV = Pop();
      const auto *Addr = std::get_if<Address>(&AddrV);
      if (!Addr)
        return Fail("StoreIndirect on a non-address");
      assignInto(Addr->slot(), std::move(V));
      break;
    }
    case Opcode::FieldAddr: {
      Value AddrV = Pop();
      const auto *Addr = std::get_if<Address>(&AddrV);
      if (!Addr)
        return Fail("FieldAddr on a non-address");
      const auto *Agg = std::get_if<AggRef>(&Addr->slot());
      if (!Agg || !Agg->Obj)
        return Fail("field access on a non-record value");
      if (static_cast<size_t>(In.A) >= Agg->Obj->Slots.size())
        return Fail("field index out of range");
      Stack.push_back(Value(Address{nullptr, Agg->Obj,
                                    static_cast<size_t>(In.A)}));
      break;
    }
    case Opcode::IndexAddr: {
      int64_t Index = asOrdinal(Pop());
      Value AddrV = Pop();
      const auto *Addr = std::get_if<Address>(&AddrV);
      if (!Addr)
        return Fail("IndexAddr on a non-address");
      const auto *Agg = std::get_if<AggRef>(&Addr->slot());
      if (!Agg || !Agg->Obj)
        return Fail("indexing a non-array value");
      int64_t Low = In.A;
      int64_t Count = In.B >= 0
                          ? In.B
                          : static_cast<int64_t>(Agg->Obj->Slots.size());
      if (Index < Low || Index >= Low + Count)
        return Fail("array index " + std::to_string(Index) +
                    " out of bounds [" + std::to_string(Low) + ".." +
                    std::to_string(Low + Count - 1) + "]");
      Stack.push_back(Value(
          Address{nullptr, Agg->Obj, static_cast<size_t>(Index - Low)}));
      break;
    }
    case Opcode::DerefAddr: {
      Value V = Pop();
      const auto *Ptr = std::get_if<PtrRef>(&V);
      if (!Ptr)
        return Fail("dereference of a non-pointer value");
      if (!Ptr->Cell)
        return Fail("dereference of NIL");
      Stack.push_back(Value(Address{nullptr, Ptr->Cell, 0}));
      break;
    }

    case Opcode::PushAggregate:
      Stack.push_back(defaultValue(U.Descs, static_cast<int32_t>(In.A)));
      break;
    case Opcode::NewCell: {
      auto Cell = std::make_shared<Object>();
      Cell->Slots.push_back(defaultValue(U.Descs,
                                         static_cast<int32_t>(In.A)));
      Stack.push_back(Value(PtrRef{std::move(Cell)}));
      break;
    }
    case Opcode::DisposeCell: {
      Value AddrV = Pop();
      const auto *Addr = std::get_if<Address>(&AddrV);
      if (!Addr)
        return Fail("DISPOSE of a non-address");
      Addr->slot() = Value(PtrRef{nullptr});
      break;
    }

    case Opcode::AddInt: {
      int64_t B = asOrdinal(Pop()), A = asOrdinal(Pop());
      Stack.push_back(Value(A + B));
      break;
    }
    case Opcode::SubInt: {
      int64_t B = asOrdinal(Pop()), A = asOrdinal(Pop());
      Stack.push_back(Value(A - B));
      break;
    }
    case Opcode::MulInt: {
      int64_t B = asOrdinal(Pop()), A = asOrdinal(Pop());
      Stack.push_back(Value(A * B));
      break;
    }
    case Opcode::DivInt: {
      int64_t B = asOrdinal(Pop()), A = asOrdinal(Pop());
      if (B == 0)
        return Fail("integer division by zero");
      Stack.push_back(Value(A / B));
      break;
    }
    case Opcode::ModInt: {
      int64_t B = asOrdinal(Pop()), A = asOrdinal(Pop());
      if (B == 0)
        return Fail("MOD by zero");
      Stack.push_back(Value(A % B));
      break;
    }
    case Opcode::NegInt:
      Stack.back() = Value(-asOrdinal(Stack.back()));
      break;
    case Opcode::AbsInt: {
      int64_t A = asOrdinal(Stack.back());
      Stack.back() = Value(A < 0 ? -A : A);
      break;
    }
    case Opcode::IncAddr: {
      int64_t Delta = asOrdinal(Pop());
      Value AddrV = Pop();
      const auto *Addr = std::get_if<Address>(&AddrV);
      if (!Addr)
        return Fail("INC/DEC of a non-address");
      Addr->slot() = Value(asOrdinal(Addr->slot()) + Delta);
      break;
    }
    case Opcode::Odd:
      Stack.back() = Value(int64_t{(asOrdinal(Stack.back()) & 1) != 0});
      break;
    case Opcode::Cap: {
      int64_t C = asOrdinal(Stack.back());
      if (C >= 'a' && C <= 'z')
        C = C - 'a' + 'A';
      Stack.back() = Value(C);
      break;
    }

    case Opcode::AddReal: {
      double B = asReal(Pop()), A = asReal(Pop());
      Stack.push_back(Value(A + B));
      break;
    }
    case Opcode::SubReal: {
      double B = asReal(Pop()), A = asReal(Pop());
      Stack.push_back(Value(A - B));
      break;
    }
    case Opcode::MulReal: {
      double B = asReal(Pop()), A = asReal(Pop());
      Stack.push_back(Value(A * B));
      break;
    }
    case Opcode::DivReal: {
      double B = asReal(Pop()), A = asReal(Pop());
      if (B == 0.0)
        return Fail("real division by zero");
      Stack.push_back(Value(A / B));
      break;
    }
    case Opcode::NegReal:
      Stack.back() = Value(-asReal(Stack.back()));
      break;
    case Opcode::AbsReal: {
      double A = asReal(Stack.back());
      Stack.back() = Value(A < 0 ? -A : A);
      break;
    }
    case Opcode::IntToReal:
      Stack.back() = Value(static_cast<double>(asOrdinal(Stack.back())));
      break;
    case Opcode::RealToInt:
      Stack.back() = Value(static_cast<int64_t>(asReal(Stack.back())));
      break;

    case Opcode::SetUnion: {
      uint64_t B = asSet(Pop()), A = asSet(Pop());
      Stack.push_back(Value(SetVal{A | B}));
      break;
    }
    case Opcode::SetDiff: {
      uint64_t B = asSet(Pop()), A = asSet(Pop());
      Stack.push_back(Value(SetVal{A & ~B}));
      break;
    }
    case Opcode::SetIntersect: {
      uint64_t B = asSet(Pop()), A = asSet(Pop());
      Stack.push_back(Value(SetVal{A & B}));
      break;
    }
    case Opcode::SetSymDiff: {
      uint64_t B = asSet(Pop()), A = asSet(Pop());
      Stack.push_back(Value(SetVal{A ^ B}));
      break;
    }
    case Opcode::SetIn: {
      uint64_t Set = asSet(Pop());
      int64_t Elem = asOrdinal(Pop());
      Stack.push_back(Value(
          int64_t{Elem >= 0 && Elem < 64 && ((Set >> Elem) & 1) != 0}));
      break;
    }
    case Opcode::SetAddBit: {
      int64_t Elem = asOrdinal(Pop());
      uint64_t Set = asSet(Pop());
      if (Elem < 0 || Elem > 63)
        return Fail("set element " + std::to_string(Elem) +
                    " out of range 0..63");
      Stack.push_back(Value(SetVal{Set | (uint64_t{1} << Elem)}));
      break;
    }
    case Opcode::SetAddRange: {
      int64_t Hi = asOrdinal(Pop());
      int64_t Lo = asOrdinal(Pop());
      uint64_t Set = asSet(Pop());
      if (Lo < 0 || Hi > 63)
        return Fail("set range out of range 0..63");
      for (int64_t I = Lo; I <= Hi; ++I)
        Set |= uint64_t{1} << I;
      Stack.push_back(Value(SetVal{Set}));
      break;
    }
    case Opcode::SetIncl:
    case Opcode::SetExcl: {
      int64_t Elem = asOrdinal(Pop());
      Value AddrV = Pop();
      const auto *Addr = std::get_if<Address>(&AddrV);
      if (!Addr)
        return Fail("INCL/EXCL of a non-address");
      if (Elem < 0 || Elem > 63)
        return Fail("set element out of range 0..63");
      uint64_t Set = asSet(Addr->slot());
      if (In.Op == Opcode::SetIncl)
        Set |= uint64_t{1} << Elem;
      else
        Set &= ~(uint64_t{1} << Elem);
      Addr->slot() = Value(SetVal{Set});
      break;
    }

#define INT_CMP(OP, EXPR)                                                      \
  case Opcode::OP: {                                                           \
    int64_t B = asOrdinal(Pop()), A = asOrdinal(Pop());                        \
    Stack.push_back(Value(int64_t{(EXPR) ? 1 : 0}));                           \
    break;                                                                     \
  }
      INT_CMP(CmpEqInt, A == B)
      INT_CMP(CmpNeInt, A != B)
      INT_CMP(CmpLtInt, A < B)
      INT_CMP(CmpLeInt, A <= B)
      INT_CMP(CmpGtInt, A > B)
      INT_CMP(CmpGeInt, A >= B)
#undef INT_CMP
#define REAL_CMP(OP, EXPR)                                                     \
  case Opcode::OP: {                                                           \
    double B = asReal(Pop()), A = asReal(Pop());                               \
    Stack.push_back(Value(int64_t{(EXPR) ? 1 : 0}));                           \
    break;                                                                     \
  }
      REAL_CMP(CmpEqReal, A == B)
      REAL_CMP(CmpNeReal, A != B)
      REAL_CMP(CmpLtReal, A < B)
      REAL_CMP(CmpLeReal, A <= B)
      REAL_CMP(CmpGtReal, A > B)
      REAL_CMP(CmpGeReal, A >= B)
#undef REAL_CMP

    case Opcode::CmpEqPtr:
    case Opcode::CmpNePtr: {
      Value B = Pop(), A = Pop();
      auto CellOf = [](const Value &V) -> const void * {
        if (const auto *P = std::get_if<PtrRef>(&V))
          return P->Cell.get();
        if (const auto *P = std::get_if<ProcVal>(&V))
          return reinterpret_cast<const void *>(
              static_cast<uintptr_t>(P->UnitIndex + 1));
        return nullptr;
      };
      bool Eq = CellOf(A) == CellOf(B);
      Stack.push_back(
          Value(int64_t{(In.Op == Opcode::CmpEqPtr) == Eq ? 1 : 0}));
      break;
    }
    case Opcode::NotBool:
      Stack.back() = Value(int64_t{asOrdinal(Stack.back()) == 0 ? 1 : 0});
      break;

    case Opcode::Jump:
    case Opcode::JumpIfFalse:
    case Opcode::JumpIfTrue: {
      if (In.Op == Opcode::JumpIfFalse && asOrdinal(Pop()) != 0)
        break;
      if (In.Op == Opcode::JumpIfTrue && asOrdinal(Pop()) == 0)
        break;
      Pc = static_cast<size_t>(In.A);
      break;
    }

    case Opcode::Call: {
      int32_t Target = F.Unit->Callees[static_cast<size_t>(In.A)];
      if (Target < 0)
        return Fail("call to unlinked procedure");
      Frame *StaticLink = nullptr;
      if (In.B >= 0) {
        StaticLink = &F;
        for (int64_t Hop = 0; Hop < In.B; ++Hop) {
          StaticLink = StaticLink->StaticLink;
          if (!StaticLink)
            return Fail("broken static link chain in call");
        }
      }
      const CodeUnit &Callee =
          *Prog.units()[static_cast<size_t>(Target)].Unit;
      if (Stack.size() < F.StackBase + Callee.Params.size())
        return Fail("call to '" + Callee.QualifiedName +
                    "' with too few arguments on the stack");
      size_t ArgBase = Stack.size() - Callee.Params.size();
      Frame &NF = pushFrame(E, Target, StaticLink, Pc, CurUnit);
      bindArgs(E, NF, ArgBase);
      CurUnit = Target;
      Pc = 0;
      break;
    }
    case Opcode::CallIndirect: {
      size_t Argc = static_cast<size_t>(In.B);
      if (Stack.size() < F.StackBase + Argc + 1)
        return Fail("indirect call with too few stack values");
      size_t ProcPos = Stack.size() - Argc - 1;
      const auto *P = std::get_if<ProcVal>(&Stack[ProcPos]);
      if (!P || P->UnitIndex < 0)
        return Fail("indirect call through an invalid procedure value");
      int32_t Target = P->UnitIndex;
      // Remove the procedure value from under the arguments.
      Stack.erase(Stack.begin() + static_cast<ptrdiff_t>(ProcPos));
      size_t ArgBase = Stack.size() - Argc;
      Frame &NF = pushFrame(E, Target, nullptr, Pc, CurUnit);
      bindArgs(E, NF, ArgBase);
      CurUnit = Target;
      Pc = 0;
      break;
    }

    case Opcode::Return:
    case Opcode::ReturnValue: {
      Value Ret;
      if (In.Op == Opcode::ReturnValue)
        Ret = Pop();
      Stack.resize(F.StackBase);
      size_t ReturnPc = F.ReturnPc;
      int32_t ReturnUnit = F.ReturnUnit;
      Frames.pop_back();
      if (Frames.empty())
        return true; // Entry unit finished.
      if (In.Op == Opcode::ReturnValue)
        Stack.push_back(std::move(Ret));
      CurUnit = ReturnUnit;
      Pc = ReturnPc;
      break;
    }

    case Opcode::CallBuiltin:
      if (!callBuiltin(E, Result, In.A, Pc))
        return false;
      break;

    case Opcode::CheckRange: {
      int64_t V = asOrdinal(Stack.back());
      if (V < In.A || V > In.B)
        return Fail("value " + std::to_string(V) + " outside range " +
                    std::to_string(In.A) + ".." + std::to_string(In.B));
      break;
    }
    case Opcode::ArrayHigh: {
      Value V = Pop();
      if (const auto *Agg = std::get_if<AggRef>(&V)) {
        Stack.push_back(
            Value(static_cast<int64_t>(Agg->Obj->Slots.size()) - 1));
      } else if (const auto *Str = std::get_if<StrRef>(&V)) {
        Stack.push_back(Value(
            static_cast<int64_t>(Names.spelling(Str->Str).size()) -
            1));
      } else {
        return Fail("HIGH of a non-array value");
      }
      break;
    }
    case Opcode::Dup:
      Stack.push_back(Stack.back());
      break;
    case Opcode::Pop:
      Pop();
      break;
    case Opcode::Halt:
      Result.ExitCode = In.A;
      return true;
    case Opcode::Trap:
      switch (In.A) {
      case 1:
        return Fail("no CASE branch matches the selector");
      case 2:
        return Fail("function procedure did not return a value");
      default:
        return Fail("trap " + std::to_string(In.A));
      }
    }
  }
}
