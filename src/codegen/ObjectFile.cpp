//===--- ObjectFile.cpp - Textual MCode object files -----------------------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
//
// Every separately compiled module crosses this codec (compile output,
// cache entries, daemon replies), so both directions avoid iostreams: the
// writer appends into one string with std::to_chars, and the reader splits
// lines into string_view fields and parses them with std::from_chars.
//
// Reals are hex floats.  +0.0, the operand of almost every instruction,
// is the literal "0x0p+0" in both directions; every other value goes
// through %a / strtod, so -0.0, NaN, infinities and subnormals render as
// the format always has.
//
// The reader is strict: a line must carry exactly its fields, a number
// must consume its whole field and fit its type, and a count read from
// the input never sizes an allocation — lists grow as their lines are
// actually read.
//
//===----------------------------------------------------------------------===//

#include "codegen/ObjectFile.h"
#include "codegen/ObjectFileText.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>

using namespace m2c;
using namespace m2c::codegen;

namespace {

constexpr std::string_view Magic = "MCOBJ 1";
constexpr std::string_view PositiveZero = "0x0p+0"; // %a of +0.0

constexpr std::string_view OpcodeNames[] = {
#define OPCODE(Name) #Name,
#include "codegen/Opcode.def"
};

/// Opcode by spelling: open addressing over a cheap hash of the length and
/// three characters, every hit confirmed by a full compare.
class OpcodeTable {
public:
  constexpr OpcodeTable() {
    for (size_t Op = 0; Op < std::size(OpcodeNames); ++Op) {
      size_t H = hash(OpcodeNames[Op]);
      while (!Slots[H].Name.empty())
        H = (H + 1) % NumSlots;
      Slots[H] = {OpcodeNames[Op], static_cast<Opcode>(Op)};
    }
  }

  constexpr bool find(std::string_view Name, Opcode &Op) const {
    if (Name.empty())
      return false;
    for (size_t H = hash(Name);; H = (H + 1) % NumSlots) {
      if (Slots[H].Name.empty())
        return false;
      if (Slots[H].Name == Name) {
        Op = Slots[H].Op;
        return true;
      }
    }
  }

private:
  static constexpr size_t NumSlots = 256; // Over 3x the opcode count.
  static_assert(std::size(OpcodeNames) < NumSlots / 2);

  static constexpr size_t hash(std::string_view Name) {
    auto At = [&](size_t I) { return static_cast<unsigned char>(Name[I]); };
    return (Name.size() * 37 + At(0) * 7 + At(Name.size() / 2) * 3 +
            At(Name.size() - 1)) %
           NumSlots;
  }

  struct Slot {
    std::string_view Name;
    Opcode Op = Opcode::Halt;
  };
  std::array<Slot, NumSlots> Slots{};
};

constexpr OpcodeTable Opcodes;

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

class Writer {
public:
  Writer(std::string &Out, const StringInterner &Names)
      : Out(Out), Names(Names) {}

  void image(Symbol Module, uint32_t GlobalCount,
             std::span<const Symbol> Imports,
             std::span<const int32_t> GlobalDescs,
             std::span<const TypeDesc> Descs,
             std::span<const CodeUnit> Units) {
    size_t Instrs = 0;
    for (const CodeUnit &U : Units)
      Instrs += U.Code.size();
    Out.reserve(Out.size() + 256 + 32 * Instrs);

    Out += Magic;
    Out += "\nMODULE ";
    quoted(Module);
    Out += "\nGLOBALS ";
    num(GlobalCount);
    Out += "\nIMPORTS ";
    num(Imports.size());
    for (Symbol S : Imports) {
      Out += ' ';
      quoted(S);
    }
    Out += "\nGDESCS ";
    num(GlobalDescs.size());
    for (int32_t D : GlobalDescs)
      field(D);
    Out += '\n';
    count("DESCS", Descs.size());
    for (const TypeDesc &D : Descs)
      desc(D);

    count("UNITS", Units.size());
    for (const CodeUnit &U : Units)
      unit(U);
    Out += "END\n";
  }

private:
  template <typename T> void num(T Value) {
    char Buf[24];
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), Value).ptr);
  }

  template <typename T> void field(T Value) {
    Out += ' ';
    num(Value);
  }

  /// "Tag N", the head of a block of N lines.
  void count(std::string_view Tag, size_t N) {
    Out += Tag;
    field(N);
    Out += '\n';
  }

  /// Minimal escaping: \\, \n, \" and \xNN for other control characters.
  void quoted(std::string_view Text) {
    static constexpr char Hex[] = "0123456789abcdef";
    Out += '"';
    for (char Ch : Text) {
      auto C = static_cast<unsigned char>(Ch);
      switch (C) {
      case '\\':
        Out += "\\\\";
        break;
      case '\n':
        Out += "\\n";
        break;
      case '"':
        Out += "\\\"";
        break;
      default:
        if (C < 0x20 || C == 0x7f) {
          Out += "\\x";
          Out += Hex[C >> 4];
          Out += Hex[C & 15];
        } else {
          Out += Ch;
        }
      }
    }
    Out += '"';
  }

  void quoted(Symbol S) { quoted(Names.spelling(S)); }

  void real(double F) {
    if (F == 0.0 && !std::signbit(F)) {
      Out += PositiveZero;
      return;
    }
    char Buf[64];
    int N = std::snprintf(Buf, sizeof(Buf), "%a", F);
    Out.append(Buf, static_cast<size_t>(N));
  }

  void desc(const TypeDesc &D) {
    Out += "DESC ";
    num(static_cast<int>(D.DescKind));
    field(D.Count);
    field(D.Element);
    field(D.Fields.size());
    for (int32_t F : D.Fields)
      field(F);
    Out += '\n';
  }

  void unit(const CodeUnit &U) {
    Out += "UNIT ";
    quoted(U.QualifiedName);
    Out += ' ';
    quoted(U.Module);
    Out += ' ';
    quoted(U.Name);
    field(U.ProcId);
    Out += U.IsModuleBody ? " 1" : " 0";
    field(U.NestLevel);
    field(U.FrameSize);
    field(U.Weight);
    Out += "\nPARAMS ";
    num(U.Params.size());
    for (const ParamDesc &P : U.Params)
      Out += P.IsVar ? (P.IsAggregate ? " va" : " v")
                     : (P.IsAggregate ? " a" : " .");
    Out += '\n';
    count("CALLEES", U.Callees.size());
    for (const CalleeRef &C : U.Callees) {
      Out += "CALLEE ";
      quoted(C.Module);
      Out += ' ';
      quoted(C.Name);
      Out += '\n';
    }
    count("GLOBALREFS", U.Globals.size());
    for (const GlobalRef &G : U.Globals) {
      Out += "GLOBALREF ";
      quoted(G.Module);
      field(G.Slot);
      Out += '\n';
    }
    count("UDESCS", U.Descs.size());
    for (const TypeDesc &D : U.Descs)
      desc(D);
    count("STRINGS", U.Strings.size());
    for (Symbol S : U.Strings) {
      Out += "STRING ";
      quoted(S);
      Out += '\n';
    }
    count("CODE", U.Code.size());
    for (const Instr &I : U.Code) {
      auto Op = static_cast<size_t>(I.Op);
      Out += Op < std::size(OpcodeNames) ? OpcodeNames[Op]
                                         : std::string_view("?");
      field(I.A);
      field(I.B);
      Out += ' ';
      real(I.F);
      Out += '\n';
    }
  }

  std::string &Out;
  const StringInterner &Names;
};

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

int hexDigit(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  if (C >= 'A' && C <= 'F')
    return C - 'A' + 10;
  return -1;
}

bool unescape(std::string_view Text, std::string &Out) {
  Out.clear();
  for (size_t I = 0; I < Text.size(); ++I) {
    if (Text[I] != '\\') {
      Out += Text[I];
      continue;
    }
    if (++I >= Text.size())
      return false;
    switch (Text[I]) {
    case '\\':
      Out += '\\';
      break;
    case 'n':
      Out += '\n';
      break;
    case '"':
      Out += '"';
      break;
    case 'x': {
      if (I + 2 >= Text.size())
        return false;
      int Hi = hexDigit(Text[I + 1]), Lo = hexDigit(Text[I + 2]);
      if (Hi < 0 || Lo < 0)
        return false;
      Out += static_cast<char>(Hi * 16 + Lo);
      I += 2;
      break;
    }
    default:
      return false;
    }
  }
  return true;
}

class Reader {
public:
  Reader(std::string_view Text, StringInterner &Names)
      : Text(Text), Names(Names) {}

  std::optional<ModuleImage> read(std::string &Error) {
    auto Fail = [&](std::string_view Message) {
      Error = "line " + std::to_string(LineNo) + ": ";
      Error += Message;
      return std::nullopt;
    };

    if (!fetchLine() || Line != Magic)
      return Fail("not an MCOBJ file");

    ModuleImage Image;
    if (!line("MODULE", 2) || !sym(1, Image.ModuleName))
      return Fail("bad MODULE line");
    if (!line("GLOBALS", 2) || !num(1, Image.GlobalCount))
      return Fail("bad GLOBALS line");

    size_t N = 0;
    if (!list("IMPORTS", N))
      return Fail("bad IMPORTS line");
    for (size_t J = 0; J < N; ++J)
      if (!sym(2 + J, Image.Imports.emplace_back()))
        return Fail("bad IMPORTS line");

    if (!list("GDESCS", N))
      return Fail("bad GDESCS line");
    for (size_t J = 0; J < N; ++J)
      if (!num(2 + J, Image.GlobalDescs.emplace_back()))
        return Fail("bad GDESCS line");

    if (!line("DESCS", 2) || !num(1, N))
      return Fail("bad DESCS line");
    for (size_t J = 0; J < N; ++J)
      if (!desc(Image.Descs.emplace_back()))
        return Fail("bad DESC line");

    if (!line("UNITS", 2) || !num(1, N))
      return Fail("bad UNITS line");
    for (size_t UI = 0; UI < N; ++UI) {
      if (std::optional<std::string> Message =
              unit(Image.Units.emplace_back()))
        return Fail(*Message);
    }

    if (!fetchLine() || Line != "END")
      return Fail("missing END");
    return Image;
  }

private:
  /// Reads the next line into Line.  False at the end of the input.
  bool fetchLine() {
    if (Pos >= Text.size())
      return false;
    size_t End = Text.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Text.size();
    Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ++LineNo;
    return true;
  }

  /// Reads the next line and splits it into F.  False at the end of the
  /// input or on a malformed line.
  bool nextLine() { return fetchLine() && splitFields(Line, F); }

  /// Reads a line tagged \p Tag with exactly \p Fields fields (tag
  /// included).
  bool line(std::string_view Tag, size_t Fields) {
    return nextLine() && F.size() == Fields && !F[0].Quoted &&
           F[0].Raw == Tag;
  }

  /// Reads a "Tag N item..." line: exactly N items follow the count.
  bool list(std::string_view Tag, size_t &N) {
    return nextLine() && F.size() >= 2 && !F[0].Quoted && F[0].Raw == Tag &&
           num(1, N) && F.size() - 2 == N;
  }

  template <typename T> bool num(size_t I, T &Value) const {
    return !F[I].Quoted && parseNumber(F[I].Raw, Value);
  }

  static bool real(std::string_view Raw, double &Value) {
    if (Raw == PositiveZero) {
      Value = 0.0;
      return true;
    }
    // strtod needs a terminator; every %a rendering fits the buffer.
    char Buf[40];
    if (Raw.empty() || Raw.size() >= sizeof(Buf))
      return false;
    Raw.copy(Buf, Raw.size());
    Buf[Raw.size()] = '\0';
    char *End = nullptr;
    Value = std::strtod(Buf, &End);
    if (End != Buf + Raw.size())
      return false;
    // strtod also takes leading space, '+', decimal and upper-case forms;
    // accept only the writer's own rendering.
    char Canon[64];
    int N = std::snprintf(Canon, sizeof(Canon), "%a", Value);
    return Raw == std::string_view(Canon, static_cast<size_t>(N));
  }

  /// Parses the current line as "Opcode A B F".
  bool instr(Instr &I) const {
    const char *P = Line.data(), *E = P + Line.size();
    size_t Space = Line.find(' ');
    if (Space == std::string_view::npos ||
        !Opcodes.find(Line.substr(0, Space), I.Op))
      return false;
    P += Space + 1;
    for (int64_t *Operand : {&I.A, &I.B}) {
      auto [Next, Ec] = std::from_chars(P, E, *Operand);
      if (Ec != std::errc() || Next == E || *Next != ' ')
        return false;
      P = Next + 1;
    }
    return real(std::string_view(P, static_cast<size_t>(E - P)), I.F);
  }

  /// The unescaped text of quoted field \p I; valid until the next call.
  bool text(size_t I, std::string_view &Out) {
    const TextField &Fd = F[I];
    if (!Fd.Quoted)
      return false;
    if (!Fd.Escaped) {
      Out = Fd.Raw;
      return true;
    }
    if (!unescape(Fd.Raw, Scratch))
      return false;
    Out = Scratch;
    return true;
  }

  bool sym(size_t I, Symbol &S) {
    std::string_view Spelling;
    if (!text(I, Spelling))
      return false;
    S = Names.intern(Spelling);
    return true;
  }

  bool desc(TypeDesc &D) {
    unsigned Kind = 0;
    size_t N = 0;
    if (!nextLine() || F.size() < 5 || F[0].Quoted || F[0].Raw != "DESC" ||
        !num(1, Kind) || Kind > static_cast<unsigned>(TypeDesc::Kind::Record) ||
        !num(2, D.Count) || !num(3, D.Element) || !num(4, N) ||
        F.size() - 5 != N)
      return false;
    D.DescKind = static_cast<TypeDesc::Kind>(Kind);
    for (size_t J = 0; J < N; ++J)
      if (!num(5 + J, D.Fields.emplace_back()))
        return false;
    return true;
  }

  /// Reads one unit; returns the failure message, if any.
  std::optional<std::string> unit(CodeUnit &U) {
    std::string_view Qualified;
    if (!line("UNIT", 9) || !text(1, Qualified))
      return "bad UNIT line";
    U.QualifiedName = Qualified;
    if (!sym(2, U.Module) || !sym(3, U.Name) || !num(4, U.ProcId) ||
        F[5].Quoted || (F[5].Raw != "0" && F[5].Raw != "1") ||
        !num(6, U.NestLevel) || !num(7, U.FrameSize) || !num(8, U.Weight))
      return "bad UNIT line";
    U.IsModuleBody = F[5].Raw == "1";

    size_t N = 0;
    if (!list("PARAMS", N))
      return "bad PARAMS line";
    for (size_t J = 0; J < N; ++J) {
      const TextField &P = F[2 + J];
      if (P.Quoted ||
          (P.Raw != "." && P.Raw != "v" && P.Raw != "a" && P.Raw != "va"))
        return "bad PARAMS line";
      U.Params.push_back(ParamDesc{P.Raw[0] == 'v', P.Raw.back() == 'a'});
    }

    if (!line("CALLEES", 2) || !num(1, N))
      return "bad CALLEES line";
    for (size_t J = 0; J < N; ++J) {
      CalleeRef &C = U.Callees.emplace_back();
      if (!line("CALLEE", 3) || !sym(1, C.Module) || !sym(2, C.Name))
        return "bad CALLEE line";
    }

    if (!line("GLOBALREFS", 2) || !num(1, N))
      return "bad GLOBALREFS line";
    for (size_t J = 0; J < N; ++J) {
      GlobalRef &G = U.Globals.emplace_back();
      if (!line("GLOBALREF", 3) || !sym(1, G.Module) || !num(2, G.Slot))
        return "bad GLOBALREF line";
    }

    if (!line("UDESCS", 2) || !num(1, N))
      return "bad UDESCS line";
    for (size_t J = 0; J < N; ++J)
      if (!desc(U.Descs.emplace_back()))
        return "bad unit DESC line";

    if (!line("STRINGS", 2) || !num(1, N))
      return "bad STRINGS line";
    for (size_t J = 0; J < N; ++J)
      if (!line("STRING", 2) || !sym(1, U.Strings.emplace_back()))
        return "bad STRING line";

    if (!line("CODE", 2) || !num(1, N))
      return "bad CODE line";
    for (size_t J = 0; J < N; ++J) {
      if (!fetchLine())
        return "missing instruction line";
      if (!instr(U.Code.emplace_back()))
        return "bad instruction '" + std::string(Line.substr(0, 48)) + "'";
    }
    return std::nullopt;
  }

  std::string_view Text;
  StringInterner &Names;
  size_t Pos = 0;
  unsigned LineNo = 0;
  std::string_view Line;    ///< The current line.
  std::vector<TextField> F; ///< Its fields.
  std::string Scratch;      ///< Unescaped text of the last escaped field.
};

} // namespace

bool codegen::splitFields(std::string_view Line,
                          std::vector<TextField> &Fields) {
  Fields.clear();
  for (size_t I = 0;; ++I) { // I steps over the separating space.
    TextField Fd;
    size_t E = 0;
    if (I < Line.size() && Line[I] == '"') {
      // A backslash escapes the next character, so an escaped quote (or a
      // trailing escaped backslash) is never taken for the terminator.
      E = I + 1;
      while (E < Line.size() && Line[E] != '"') {
        if (Line[E] == '\\') {
          Fd.Escaped = true;
          ++E;
        }
        ++E;
      }
      if (E >= Line.size())
        return false;
      Fd.Raw = Line.substr(I + 1, E - I - 1);
      Fd.Quoted = true;
      ++E;
    } else {
      E = std::min(Line.find(' ', I), Line.size());
      if (E == I)
        return false;
      Fd.Raw = Line.substr(I, E - I);
    }
    Fields.push_back(Fd);
    if (E == Line.size())
      return true;
    if (Line[E] != ' ')
      return false;
    I = E;
  }
}

void codegen::appendObjectFile(std::string &Out, const ModuleImage &Image,
                               const StringInterner &Names) {
  Writer(Out, Names).image(Image.ModuleName, Image.GlobalCount, Image.Imports,
                           Image.GlobalDescs, Image.Descs, Image.Units);
}

void codegen::appendUnitObjectFile(std::string &Out, const CodeUnit &Unit,
                                   const StringInterner &Names) {
  Writer(Out, Names).image(Unit.Module, 0, {}, {}, {}, {&Unit, 1});
}

std::string codegen::writeObjectFile(const ModuleImage &Image,
                                     const StringInterner &Names) {
  std::string Out;
  appendObjectFile(Out, Image, Names);
  return Out;
}

std::optional<ModuleImage>
codegen::readObjectFile(std::string_view Text, StringInterner &Names,
                        std::string &Error) {
  return Reader(Text, Names).read(Error);
}
