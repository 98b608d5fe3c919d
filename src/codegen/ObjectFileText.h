//===--- ObjectFileText.h - Internal .mco text entry points -----*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces of the .mco codec for callers that frame an object in a
/// larger text (the compilation cache's entries).  The writer side appends
/// to a caller's buffer instead of returning a fresh string, and one entry
/// point renders a lone unit without first copying it into an image.  The
/// reader side is the codec's field rule, so a framing header is held to
/// the same rule as the object it frames: fields separated by single
/// spaces, and a number that fills its field and fits its type.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_CODEGEN_OBJECTFILETEXT_H
#define M2C_CODEGEN_OBJECTFILETEXT_H

#include "codegen/MCode.h"

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace m2c::codegen {

/// Appends the .mco text of \p Image to \p Out.
void appendObjectFile(std::string &Out, const ModuleImage &Image,
                      const StringInterner &Names);

/// Appends the .mco text of the single-unit image whose ModuleName is
/// \p Unit's module and whose only unit is \p Unit; every other image
/// field is empty.
void appendUnitObjectFile(std::string &Out, const CodeUnit &Unit,
                          const StringInterner &Names);

/// One field of a line: its text (inside the quotes for a quoted field).
struct TextField {
  std::string_view Raw;
  bool Quoted = false;
  bool Escaped = false; ///< Quoted and containing a backslash.
};

/// Splits \p Line into \p Fields (cleared first): fields separated by
/// single spaces, a quoted field running to its unescaped closing quote.
/// False on an empty or unterminated field, or on a character other than
/// a space after a closing quote.
bool splitFields(std::string_view Line, std::vector<TextField> &Fields);

/// Parses all of \p Text as a decimal that fits \p Value.
template <typename T> bool parseNumber(std::string_view Text, T &Value) {
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  return Ec == std::errc() && Ptr == End;
}

} // namespace m2c::codegen

#endif // M2C_CODEGEN_OBJECTFILETEXT_H
