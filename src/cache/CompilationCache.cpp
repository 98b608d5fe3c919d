//===--- CompilationCache.cpp - Content-addressed result cache -------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "cache/CompilationCache.h"

#include "codegen/ObjectFile.h"
#include "codegen/ObjectFileText.h"
#include "sched/ExecContext.h"

using namespace m2c;
using namespace m2c::cache;

namespace {

// Entry headers.  The payload after the header line(s) is a standard
// MCOBJ text object, so entries stay inspectable with the .mco tooling.
constexpr const char *StreamMagic = "MCACHE-S 1";
constexpr const char *ModuleMagic = "MCACHE-M 1";

/// Consumes one line of \p Text (without the newline).
std::string_view takeLine(std::string_view &Text) {
  size_t End = Text.find('\n');
  std::string_view Line = Text.substr(0, End);
  Text.remove_prefix(End == std::string_view::npos ? Text.size() : End + 1);
  return Line;
}

} // namespace

CompilationCache::CompilationCache(std::unique_ptr<CacheStore> Store)
    : Backend(std::move(Store)) {}

std::optional<codegen::CodeUnit>
CompilationCache::lookupStream(const CacheKey &Key, StringInterner &Names) {
  sched::ctx().charge(sched::CostKind::CacheLookup);
  std::optional<std::string> Text = Backend->load(Key.hex());
  if (!Text) {
    Stats.add("cache.stream.miss");
    return std::nullopt;
  }
  std::string_view Rest = *Text;
  if (takeLine(Rest) != StreamMagic) {
    Stats.add("cache.stream.malformed");
    return std::nullopt;
  }
  std::string Error;
  auto Image = codegen::readObjectFile(Rest, Names, Error);
  if (!Image || Image->Units.size() != 1) {
    Stats.add("cache.stream.malformed");
    return std::nullopt;
  }
  Stats.add("cache.stream.hit");
  return std::move(Image->Units.front());
}

void CompilationCache::storeStream(const CacheKey &Key,
                                   const codegen::CodeUnit &Unit,
                                   const StringInterner &Names) {
  sched::ctx().charge(sched::CostKind::CacheLookup);
  // The payload is a single-unit image naming the unit's module.
  std::string Text = StreamMagic;
  Text += '\n';
  codegen::appendUnitObjectFile(Text, Unit, Names);
  Backend->save(Key.hex(), Text);
  Stats.add("cache.stream.store");
}

std::optional<ModuleEntry>
CompilationCache::lookupModule(const CacheKey &Key, StringInterner &Names) {
  sched::ctx().charge(sched::CostKind::CacheLookup);
  std::optional<std::string> Text = Backend->load(Key.hex());
  if (!Text)
    return std::nullopt;
  std::string_view Rest = *Text;
  if (takeLine(Rest) != ModuleMagic) {
    Stats.add("cache.module.malformed");
    return std::nullopt;
  }

  // Each header line is its tag and exactly N unquoted fields, split
  // by the object file's own field rule.
  std::vector<codegen::TextField> F;
  auto Header = [&](std::string_view Tag, size_t N) {
    if (!codegen::splitFields(takeLine(Rest), F) || F.size() != N + 1 ||
        F[0].Raw != Tag)
      return false;
    for (const codegen::TextField &Fd : F)
      if (Fd.Quoted)
        return false;
    return true;
  };

  ModuleEntry Entry;
  size_t NumDeps = 0;
  bool Ok = Header("MODHASH", 1);
  if (Ok)
    Entry.ModTextHash = F[1].Raw;
  Ok = Ok && Header("STREAMS", 1) &&
       codegen::parseNumber(F[1].Raw, Entry.StreamCount) &&
       Header("DEPS", 1) && codegen::parseNumber(F[1].Raw, NumDeps);
  for (size_t I = 0; Ok && I < NumDeps; ++I) {
    Ok = Header("DEP", 2);
    if (Ok)
      Entry.Deps.push_back(
          FileDep{std::string(F[2].Raw), std::string(F[1].Raw)});
  }
  if (!Ok) {
    Stats.add("cache.module.malformed");
    return std::nullopt;
  }

  std::string Error;
  auto Image = codegen::readObjectFile(Rest, Names, Error);
  if (!Image) {
    Stats.add("cache.module.malformed");
    return std::nullopt;
  }
  Entry.Image = std::move(*Image);
  return Entry;
}

void CompilationCache::storeModule(const CacheKey &Key,
                                   const std::string &ModTextHash,
                                   const std::vector<FileDep> &Deps,
                                   const codegen::ModuleImage &Image,
                                   uint64_t StreamCount,
                                   const StringInterner &Names) {
  sched::ctx().charge(sched::CostKind::CacheLookup);
  std::string Text = ModuleMagic;
  Text += "\nMODHASH ";
  Text += ModTextHash;
  Text += "\nSTREAMS ";
  Text += std::to_string(StreamCount);
  Text += "\nDEPS ";
  Text += std::to_string(Deps.size());
  Text += '\n';
  for (const FileDep &Dep : Deps) {
    Text += "DEP ";
    Text += Dep.Hash;
    Text += ' ';
    Text += Dep.Name;
    Text += '\n';
  }
  codegen::appendObjectFile(Text, Image, Names);
  Backend->save(Key.hex(), Text);
  Stats.add("cache.module.store");
}
