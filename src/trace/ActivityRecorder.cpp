//===--- ActivityRecorder.cpp - WatchTool-style activity traces -----------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "trace/ActivityRecorder.h"

#include <algorithm>
#include <array>
#include <sstream>

using namespace m2c;
using namespace m2c::trace;

void ActivityRecorder::record(unsigned Proc, const sched::Task &T,
                              uint64_t StartUnits, uint64_t EndUnits) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Intervals.push_back(
      ActivityInterval{Proc, T.taskClass(), StartUnits, EndUnits});
}

std::vector<ActivityInterval> ActivityRecorder::intervals() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Intervals;
}

void ActivityRecorder::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Intervals.clear();
}

char ActivityRecorder::classGlyph(sched::TaskClass Class) {
  switch (Class) {
  case sched::TaskClass::Lexor:
    return 'L';
  case sched::TaskClass::Splitter:
    return 'S';
  case sched::TaskClass::Importer:
    return 'I';
  case sched::TaskClass::DefModParserDecl:
    return 'D';
  case sched::TaskClass::ModuleParserDecl:
    return 'M';
  case sched::TaskClass::ProcParserDecl:
    return 'p';
  case sched::TaskClass::LongStmtCodeGen:
    return 'C';
  case sched::TaskClass::ShortStmtCodeGen:
    return 'c';
  case sched::TaskClass::Merge:
    return 'm';
  }
  return '?';
}

std::string ActivityRecorder::legend() {
  return "L=lex S=split I=import D=defmod-parse M=module-parse "
         "p=proc-parse C=codegen(long) c=codegen(short) m=merge .=idle";
}

uint64_t ActivityRecorder::makespan() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t End = 0;
  for (const ActivityInterval &I : Intervals)
    End = std::max(End, I.End);
  return End;
}

double ActivityRecorder::utilization(unsigned Procs) const {
  uint64_t Span = makespan();
  if (Span == 0 || Procs == 0)
    return 0.0;
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Busy = 0;
  for (const ActivityInterval &I : Intervals)
    Busy += I.End - I.Start;
  return static_cast<double>(Busy) /
         (static_cast<double>(Span) * static_cast<double>(Procs));
}

std::string ActivityRecorder::renderAscii(unsigned Width) const {
  std::vector<ActivityInterval> Snapshot = intervals();
  if (Snapshot.empty() || Width == 0)
    return "(no activity recorded)\n";

  unsigned MaxProc = 0;
  uint64_t Span = 0;
  for (const ActivityInterval &I : Snapshot) {
    MaxProc = std::max(MaxProc, I.Proc);
    Span = std::max(Span, I.End);
  }
  if (Span == 0)
    return "(no activity recorded)\n";

  // Per processor and column, the class with the most busy time wins.
  constexpr unsigned NumClasses = sched::NumTaskClasses;
  std::vector<std::array<uint64_t, NumClasses>> Buckets(
      static_cast<size_t>(MaxProc + 1) * Width);
  for (auto &B : Buckets)
    B.fill(0);

  auto ColumnOf = [&](uint64_t Time) {
    return std::min<uint64_t>(Width - 1, Time * Width / Span);
  };
  for (const ActivityInterval &I : Snapshot) {
    uint64_t C0 = ColumnOf(I.Start), C1 = ColumnOf(I.End == 0 ? 0 : I.End - 1);
    for (uint64_t C = C0; C <= C1; ++C) {
      uint64_t ColStart = C * Span / Width;
      uint64_t ColEnd = (C + 1) * Span / Width;
      uint64_t Overlap = std::min(I.End, ColEnd) -
                         std::max(I.Start, ColStart);
      Buckets[I.Proc * Width + C][static_cast<unsigned>(I.Class)] +=
          std::max<uint64_t>(Overlap, 1);
    }
  }

  std::ostringstream OS;
  for (unsigned P = 0; P <= MaxProc; ++P) {
    OS << "cpu" << P << " |";
    for (unsigned C = 0; C < Width; ++C) {
      const auto &B = Buckets[P * Width + C];
      unsigned Best = 0;
      uint64_t BestTime = 0;
      for (unsigned K = 0; K < NumClasses; ++K)
        if (B[K] > BestTime) {
          BestTime = B[K];
          Best = K;
        }
      OS << (BestTime == 0 ? '.'
                           : classGlyph(static_cast<sched::TaskClass>(Best)));
    }
    OS << "|\n";
  }
  return OS.str();
}
