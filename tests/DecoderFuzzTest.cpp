//===--- DecoderFuzzTest.cpp - Seeded mutation loop over the decoders ------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
// .mco images and compilation-cache entries are untrusted input: a cache
// directory is shared between processes and an object file can come from
// anywhere.  This loop feeds readObjectFile and CompilationCache's lookups
// with deterministic mutations of real objects and entries (truncations,
// byte flips, deleted quotes, digit runs grown past INT64_MAX, huge
// counts) and asserts three things of every input:
//
//  - decoding never crashes (the sanitizer jobs run this binary);
//  - no single allocation is sized by a count read from the input, only by
//    the input's length;
//  - an accepted input is a fixed point: read(write(read(x))) renders the
//    same bytes as read(x).
//
// The loop is self-contained (a fixed std::mt19937_64 seed) rather than a
// libFuzzer target, so it runs in every ctest.
//
//===----------------------------------------------------------------------===//

#include "cache/CompilationCache.h"
#include "codegen/ObjectFile.h"
#include "driver/SequentialCompiler.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <random>

#include <unistd.h>

using namespace m2c;

//===--- Allocation watch ---------------------------------------------------===//

namespace {
thread_local bool Watching = false;
thread_local size_t LargestAllocation = 0;
} // namespace

// The replacements pair malloc with free; GCC cannot see that every
// operator delete here receives memory from this operator new.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *operator new(size_t Size) {
  if (Watching && Size > LargestAllocation)
    LargestAllocation = Size;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

/// Records the largest single allocation made while it is alive.
class AllocationWatch {
public:
  AllocationWatch() {
    LargestAllocation = 0;
    Watching = true;
  }
  ~AllocationWatch() { Watching = false; }
  size_t largest() const { return LargestAllocation; }
};

/// The most a decoder may allocate at once for \p Input: a small multiple
/// of what it actually read (a line's field table is the widest, about 24
/// bytes per two input bytes, doubled by vector growth).
size_t allocationBound(std::string_view Input) {
  return 32 * Input.size() + 64 * 1024;
}

//===--- Corpus and mutations -----------------------------------------------===//

/// Real objects: a module with an imported interface, procedures, nested
/// records, reals and strings that need escaping.
std::vector<codegen::ModuleImage> compileCorpus(StringInterner &Names) {
  VirtualFileSystem Files;
  Files.addFile("Dep.def", "DEFINITION MODULE Dep;\n"
                           "VAR shared: INTEGER;\n"
                           "PROCEDURE Get(): INTEGER;\nEND Dep.");
  Files.addFile("A.mod",
                "MODULE A;\nIMPORT Dep;\n"
                "TYPE R = RECORD a: REAL; v: ARRAY [0..3] OF INTEGER END;\n"
                "VAR r: R; x: INTEGER;\n"
                "PROCEDURE P(q: REAL; VAR w: R; s: R): REAL;\n"
                "BEGIN RETURN q * 2.5 - 0.1 END P;\n"
                "BEGIN\n"
                "  WriteString('quote \" backslash \\ done');\n"
                "  r.a := P(1.5, r, r); x := Dep.Get() + Dep.shared\n"
                "END A.");
  Files.addFile("B.mod", "MODULE B;\n"
                         "PROCEDURE Fib(n: INTEGER): INTEGER;\n"
                         "BEGIN\n"
                         "  IF n < 2 THEN RETURN n END;\n"
                         "  RETURN Fib(n - 1) + Fib(n - 2) MOD 1000\n"
                         "END Fib;\n"
                         "BEGIN WriteInt(Fib(12), 0); WriteLn END B.");
  std::vector<codegen::ModuleImage> Images;
  for (const char *Name : {"A", "B"}) {
    driver::SequentialCompiler C(Files, Names);
    driver::CompileResult R = C.compile(Name);
    EXPECT_TRUE(R.Success) << R.DiagnosticText;
    Images.push_back(std::move(R.Image));
  }
  return Images;
}

/// Applies one to three deterministic mutations to \p Text.
std::string mutate(std::string Text, std::mt19937_64 &Rng) {
  auto Pick = [&](size_t N) { return N ? static_cast<size_t>(Rng() % N) : 0; };
  auto Positions = [&](auto Pred) {
    std::vector<size_t> Out;
    for (size_t I = 0; I < Text.size(); ++I)
      if (Pred(Text[I]))
        Out.push_back(I);
    return Out;
  };
  for (size_t Round = 0, Rounds = 1 + Pick(3); Round < Rounds; ++Round) {
    switch (Pick(7)) {
    case 0: // Truncate.
      Text.resize(Pick(Text.size() + 1));
      break;
    case 1: // Flip a byte.
      if (!Text.empty())
        Text[Pick(Text.size())] ^= static_cast<char>(1 + Pick(255));
      break;
    case 2: { // Delete a quote.
      auto Quotes = Positions([](char C) { return C == '"'; });
      if (!Quotes.empty())
        Text.erase(Quotes[Pick(Quotes.size())], 1);
      break;
    }
    case 3: { // Grow a digit run past INT64_MAX (and UINT64_MAX).
      auto Digits = Positions([](char C) { return C >= '0' && C <= '9'; });
      if (!Digits.empty())
        Text.insert(Digits[Pick(Digits.size())], "99999999999999999999");
      break;
    }
    case 4: { // A count far beyond the lines that follow it.
      auto Lines = Positions([](char C) { return C == '\n'; });
      if (Lines.empty())
        break;
      size_t Start = Lines[Pick(Lines.size())] + 1;
      size_t Space = Text.find(' ', Start);
      size_t End = Text.find_first_of(" \n", Space + 1);
      if (Space == std::string::npos || End == std::string::npos)
        break;
      Text.replace(Space + 1, End - Space - 1, "99999999999");
      break;
    }
    case 5: { // Drop or duplicate a line.
      auto Lines = Positions([](char C) { return C == '\n'; });
      if (Lines.size() < 2)
        break;
      size_t I = Pick(Lines.size() - 1);
      std::string Line = Text.substr(Lines[I] + 1, Lines[I + 1] - Lines[I]);
      if (Rng() & 1)
        Text.erase(Lines[I] + 1, Line.size());
      else
        Text.insert(Lines[I] + 1, Line);
      break;
    }
    default: { // Insert a byte the grammar cares about.
      static constexpr char Interesting[] = {' ',  '\n', '"', '\\', '-',
                                             'x',  '0',  '9', '\x01', '\x7f'};
      Text.insert(Text.begin() + static_cast<long>(Pick(Text.size() + 1)),
                  Interesting[Pick(sizeof(Interesting))]);
      break;
    }
    }
  }
  return Text;
}

constexpr uint64_t Seed = 0x6d32632d6d636f31; // "m2c-mco1"
constexpr int Iterations = 3000;

/// Accepted/rejected tallies: a loop that only ever hits one side tests
/// nothing.
struct Tally {
  int Accepted = 0;
  int Rejected = 0;
  void expectBothSides(const char *What) const {
    EXPECT_GT(Accepted, 0) << What;
    EXPECT_GT(Rejected, 0) << What;
  }
};

cache::CacheKey keyOf(uint64_t N) { return cache::CacheKey{N, ~N}; }

//===--- The loops ----------------------------------------------------------===//

TEST(DecoderFuzz, ObjectFileImages) {
  StringInterner Names;
  std::vector<std::string> Corpus;
  for (const codegen::ModuleImage &Image : compileCorpus(Names))
    Corpus.push_back(codegen::writeObjectFile(Image, Names));

  std::mt19937_64 Rng(Seed);
  Tally T;
  for (int I = 0; I < Iterations; ++I) {
    std::string Input = mutate(Corpus[I % Corpus.size()], Rng);
    StringInterner First;
    std::string Error;
    std::optional<codegen::ModuleImage> Read;
    {
      AllocationWatch Watch;
      Read = codegen::readObjectFile(Input, First, Error);
      ASSERT_LE(Watch.largest(), allocationBound(Input)) << Input;
    }
    if (!Read) {
      EXPECT_FALSE(Error.empty());
      ++T.Rejected;
      continue;
    }
    ++T.Accepted;
    std::string Once = codegen::writeObjectFile(*Read, First);
    StringInterner Second;
    auto Again = codegen::readObjectFile(Once, Second, Error);
    ASSERT_TRUE(Again.has_value()) << Error << "\n" << Input;
    EXPECT_EQ(codegen::writeObjectFile(*Again, Second), Once) << Input;
  }
  T.expectBothSides("readObjectFile");
}

TEST(DecoderFuzz, CacheModuleEntries) {
  StringInterner Names;
  std::vector<codegen::ModuleImage> Images = compileCorpus(Names);
  cache::CompilationCache Source(std::make_unique<cache::MemoryCacheStore>());
  std::vector<std::string> Corpus;
  for (size_t I = 0; I < Images.size(); ++I) {
    std::vector<cache::FileDep> Deps = {{"Dep", "0123456789abcdef"},
                                        {"Other", "fedcba9876543210"}};
    Source.storeModule(keyOf(I), "00ff00ff00ff00ff", Deps, Images[I],
                       18 + I, Names);
    Corpus.push_back(*Source.store().load(keyOf(I).hex()));
  }

  std::mt19937_64 Rng(Seed + 1);
  Tally T;
  for (int I = 0; I < Iterations; ++I) {
    std::string Input = mutate(Corpus[I % Corpus.size()], Rng);
    cache::CompilationCache Cache(std::make_unique<cache::MemoryCacheStore>());
    Cache.store().save(keyOf(1).hex(), Input);
    StringInterner First;
    std::optional<cache::ModuleEntry> Entry;
    {
      AllocationWatch Watch;
      Entry = Cache.lookupModule(keyOf(1), First);
      ASSERT_LE(Watch.largest(), allocationBound(Input)) << Input;
    }
    if (!Entry) {
      ++T.Rejected;
      continue;
    }
    ++T.Accepted;
    Cache.storeModule(keyOf(2), Entry->ModTextHash, Entry->Deps, Entry->Image,
                      Entry->StreamCount, First);
    std::string Once = *Cache.store().load(keyOf(2).hex());
    StringInterner Second;
    auto Again = Cache.lookupModule(keyOf(2), Second);
    ASSERT_TRUE(Again.has_value()) << Once;
    Cache.storeModule(keyOf(3), Again->ModTextHash, Again->Deps, Again->Image,
                      Again->StreamCount, Second);
    EXPECT_EQ(*Cache.store().load(keyOf(3).hex()), Once) << Input;
  }
  T.expectBothSides("lookupModule");
}

TEST(DecoderFuzz, CacheStreamEntries) {
  StringInterner Names;
  cache::CompilationCache Source(std::make_unique<cache::MemoryCacheStore>());
  std::vector<std::string> Corpus;
  for (const codegen::ModuleImage &Image : compileCorpus(Names))
    for (const codegen::CodeUnit &Unit : Image.Units) {
      cache::CacheKey Key = keyOf(Corpus.size());
      Source.storeStream(Key, Unit, Names);
      Corpus.push_back(*Source.store().load(Key.hex()));
    }

  std::mt19937_64 Rng(Seed + 2);
  Tally T;
  for (int I = 0; I < Iterations; ++I) {
    std::string Input = mutate(Corpus[I % Corpus.size()], Rng);
    cache::CompilationCache Cache(std::make_unique<cache::MemoryCacheStore>());
    Cache.store().save(keyOf(1).hex(), Input);
    StringInterner First;
    std::optional<codegen::CodeUnit> Unit;
    {
      AllocationWatch Watch;
      Unit = Cache.lookupStream(keyOf(1), First);
      ASSERT_LE(Watch.largest(), allocationBound(Input)) << Input;
    }
    if (!Unit) {
      ++T.Rejected;
      continue;
    }
    ++T.Accepted;
    Cache.storeStream(keyOf(2), *Unit, First);
    std::string Once = *Cache.store().load(keyOf(2).hex());
    StringInterner Second;
    auto Again = Cache.lookupStream(keyOf(2), Second);
    ASSERT_TRUE(Again.has_value()) << Once;
    Cache.storeStream(keyOf(3), *Again, Second);
    EXPECT_EQ(*Cache.store().load(keyOf(3).hex()), Once) << Input;
  }
  T.expectBothSides("lookupStream");
}

// The module-entry header is parsed as strictly as the object after it.
TEST(DecoderFuzz, CacheHeadersRejectOutOfRangeFields) {
  StringInterner Names;
  std::vector<codegen::ModuleImage> Images = compileCorpus(Names);
  cache::CompilationCache Cache(std::make_unique<cache::MemoryCacheStore>());
  Cache.storeModule(keyOf(0), "00ff", {{"Dep", "0123"}}, Images[1], 7, Names);
  const std::string Valid = *Cache.store().load(keyOf(0).hex());
  ASSERT_TRUE(Cache.lookupModule(keyOf(0), Names));

  struct Edit {
    const char *From, *To;
  };
  for (const Edit &E : {
           Edit{"STREAMS 7", "STREAMS 18446744073709551616"},
           Edit{"STREAMS 7", "STREAMS 7x"},
           Edit{"STREAMS 7", "STREAMS -7"},
           Edit{"STREAMS 7", "STREAMS"},
           Edit{"DEPS 1", "DEPS 99999999999"},
           Edit{"DEPS 1", "DEPS 99999999999999999999"},
           Edit{"MODHASH 00ff", "MODHASH 00ff extra"},
           Edit{"MODHASH 00ff", "MODHASH  00ff"},
           Edit{"DEP 0123 Dep", "DEP 0123"},
           Edit{"DEP 0123 Dep", "DEPX 0123 Dep"},
       }) {
    std::string Text = Valid;
    size_t At = Text.find(E.From);
    ASSERT_NE(At, std::string::npos) << E.From;
    Text.replace(At, std::strlen(E.From), E.To);
    Cache.store().save(keyOf(1).hex(), Text);
    AllocationWatch Watch;
    EXPECT_FALSE(Cache.lookupModule(keyOf(1), Names)) << E.To;
    EXPECT_LE(Watch.largest(), allocationBound(Text)) << E.To;
  }
}

// The same mutations through a disk store, whose files carry the
// `#mcc1 <hash>` frame: half the inputs mutate the framed file (the frame
// check must reject them without crashing), half mutate the payload and
// re-frame it so the entry reaches the decoder.
TEST(DecoderFuzz, DiskCacheFrames) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() /
                 ("m2c-decoder-fuzz-" + std::to_string(::getpid()));
  StringInterner Names;
  std::vector<std::string> Corpus;
  {
    cache::CompilationCache Source(
        std::make_unique<cache::DiskCacheStore>(Dir.string()));
    for (const codegen::ModuleImage &Image : compileCorpus(Names)) {
      cache::CacheKey Key = keyOf(Corpus.size());
      Source.storeModule(Key, "00ff", {}, Image, 3, Names);
      std::ifstream In(Dir / (Key.hex() + ".mcc"), std::ios::binary);
      Corpus.emplace_back(std::istreambuf_iterator<char>(In),
                          std::istreambuf_iterator<char>());
      ASSERT_EQ(Corpus.back().rfind("#mcc1 ", 0), 0u);
    }
  }

  cache::CompilationCache Cache(
      std::make_unique<cache::DiskCacheStore>(Dir.string()));
  std::mt19937_64 Rng(Seed + 3);
  Tally T;
  for (int I = 0; I < Iterations / 5; ++I) {
    const std::string &Framed = Corpus[static_cast<size_t>(I) % Corpus.size()];
    std::string Input;
    if (I % 2 == 0) {
      Input = mutate(Framed, Rng);
    } else {
      std::string Payload = mutate(Framed.substr(Framed.find('\n') + 1), Rng);
      Input = "#mcc1 " + cache::hashBytes(Payload).hex() + "\n" + Payload;
    }
    std::ofstream(Dir / (keyOf(99).hex() + ".mcc"), std::ios::binary)
        << Input;
    StringInterner First;
    std::optional<cache::ModuleEntry> Entry;
    {
      AllocationWatch Watch;
      Entry = Cache.lookupModule(keyOf(99), First);
      ASSERT_LE(Watch.largest(), allocationBound(Input)) << Input;
    }
    ++(Entry ? T.Accepted : T.Rejected);
  }
  T.expectBothSides("DiskCacheStore::load + lookupModule");
  std::error_code EC;
  fs::remove_all(Dir, EC);
}

} // namespace
