//===--- CodeArena.h - Reserve/commit arena for tier-1 code -----*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arena behind translated tier-1 units, after lambdachine's MCode
/// reserve/commit API: a translator reserves a region up to a returned
/// limit, emits into it, and commits the high-water mark.  Chunks are
/// never freed, reused or moved while the arena lives, so a TierUnit and
/// the instructions it points to stay valid for every VM running them.
///
/// Unlike lambdachine we emit portable pre-decoded instruction records,
/// not executable machine code, so no mprotect dance is needed.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_VM_TIER_CODEARENA_H
#define M2C_VM_TIER_CODEARENA_H

#include <cstddef>
#include <deque>
#include <memory>

namespace m2c::vm::tier {

/// Chunked bump arena with a reserve/commit protocol.  Filled by one
/// thread (the TranslatedProgram constructor), read-only afterwards.
class CodeArena {
public:
  explicit CodeArena(size_t ChunkBytes = 64 * 1024) : ChunkBytes(ChunkBytes) {}
  CodeArena(const CodeArena &) = delete;
  CodeArena &operator=(const CodeArena &) = delete;

  /// Claims at least \p Bytes of storage.  Returns the base and sets
  /// \p Limit one past the claimed region; the caller emits up to Limit
  /// and then calls commit().
  std::byte *reserve(size_t Bytes, std::byte **Limit);

  /// Commits a reservation: \p Top is the first unused byte (Base <= Top
  /// <= Limit).  If the reservation is still the newest in its chunk the
  /// unused tail is returned to the chunk; otherwise the tail is wasted,
  /// never reused — pointer stability is worth more than the bytes.
  void commit(std::byte *Base, std::byte *Top);

private:
  struct Chunk {
    std::unique_ptr<std::byte[]> Mem;
    size_t Cap = 0;
    size_t Used = 0;
  };

  const size_t ChunkBytes;
  std::deque<Chunk> Chunks;
  std::byte *LastClaimBase = nullptr; ///< Newest reservation (trim check).
  std::byte *LastClaimEnd = nullptr;
};

} // namespace m2c::vm::tier

#endif // M2C_VM_TIER_CODEARENA_H
