//===- support/JSON.cpp - Minimal JSON value, parser, writer -------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "support/JSON.h"
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace srp;
using namespace srp::json;

void Value::set(const std::string &Key, Value V) {
  K = Kind::Object;
  for (auto &[Name, Existing] : Obj)
    if (Name == Key) {
      Existing = std::move(V);
      return;
    }
  Obj.emplace_back(Key, std::move(V));
}

std::string srp::json::escape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}

std::string Value::dump() const {
  switch (K) {
  case Kind::Null:
    return "null";
  case Kind::Bool:
    return B ? "true" : "false";
  case Kind::Int:
    return std::to_string(I);
  case Kind::Double: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    return Buf;
  }
  case Kind::String: {
    std::string Out = "\"";
    Out += escape(S);
    Out += '"';
    return Out;
  }
  case Kind::Array: {
    std::string Out = "[";
    for (size_t N = 0; N != Arr.size(); ++N) {
      if (N)
        Out += ",";
      Out += Arr[N].dump();
    }
    return Out + "]";
  }
  case Kind::Object: {
    std::string Out = "{";
    for (size_t N = 0; N != Obj.size(); ++N) {
      if (N)
        Out += ",";
      Out += '"';
      Out += escape(Obj[N].first);
      Out += "\":";
      Out += Obj[N].second.dump();
    }
    return Out + "}";
  }
  }
  return "null";
}

namespace {

/// Recursive-descent parser over a byte range. Depth-limited so hostile
/// protocol input cannot blow the stack.
class Parser {
  const char *P;
  const char *End;
  const char *Begin;
  std::string &Err;
  static constexpr unsigned MaxDepth = 64;

  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = "offset " + std::to_string(P - Begin) + ": " + Msg;
    return false;
  }

  void skipWs() {
    while (P != End &&
           (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }

  bool literal(const char *Lit) {
    const char *Q = P;
    while (*Lit) {
      if (Q == End || *Q != *Lit)
        return fail("invalid literal");
      ++Q;
      ++Lit;
    }
    P = Q;
    return true;
  }

  bool parseString(std::string &Out) {
    // Caller consumed the opening quote check; *P == '"'.
    ++P;
    while (P != End && *P != '"') {
      char C = *P;
      if (C != '\\') {
        Out += C;
        ++P;
        continue;
      }
      ++P;
      if (P == End)
        return fail("unterminated escape");
      switch (*P) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (End - P < 5)
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int H = 1; H <= 4; ++H) {
          char X = P[H];
          Code <<= 4;
          if (X >= '0' && X <= '9')
            Code |= unsigned(X - '0');
          else if (X >= 'a' && X <= 'f')
            Code |= unsigned(X - 'a' + 10);
          else if (X >= 'A' && X <= 'F')
            Code |= unsigned(X - 'A' + 10);
          else
            return fail("bad \\u escape");
        }
        // Encode as UTF-8 (no surrogate-pair handling; the protocol
        // only escapes control characters this way).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        P += 4;
        break;
      }
      default:
        return fail("unknown escape");
      }
      ++P;
    }
    if (P == End)
      return fail("unterminated string");
    ++P; // closing quote
    return true;
  }

  bool parseNumber(Value &Out) {
    const char *Start = P;
    if (P != End && *P == '-')
      ++P;
    bool IsDouble = false;
    while (P != End && (std::isdigit(static_cast<unsigned char>(*P)) ||
                        *P == '.' || *P == 'e' || *P == 'E' || *P == '+' ||
                        *P == '-')) {
      if (*P == '.' || *P == 'e' || *P == 'E')
        IsDouble = true;
      ++P;
    }
    std::string Num(Start, P);
    if (Num.empty() || Num == "-")
      return fail("invalid number");
    if (!IsDouble) {
      errno = 0;
      char *NumEnd = nullptr;
      long long V = std::strtoll(Num.c_str(), &NumEnd, 10);
      if (errno == 0 && NumEnd && *NumEnd == '\0') {
        Out = Value::integer(V);
        return true;
      }
    }
    Out = Value::number(std::strtod(Num.c_str(), nullptr));
    return true;
  }

public:
  Parser(const std::string &Text, std::string &Err)
      : P(Text.data()), End(Text.data() + Text.size()), Begin(Text.data()),
        Err(Err) {}

  bool parseValue(Value &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (P == End)
      return fail("unexpected end of input");
    switch (*P) {
    case 'n':
      Out = Value::null();
      return literal("null");
    case 't':
      Out = Value::boolean(true);
      return literal("true");
    case 'f':
      Out = Value::boolean(false);
      return literal("false");
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Value::string(std::move(S));
      return true;
    }
    case '[': {
      ++P;
      Out = Value::array();
      skipWs();
      if (P != End && *P == ']') {
        ++P;
        return true;
      }
      while (true) {
        Value Elem;
        if (!parseValue(Elem, Depth + 1))
          return false;
        Out.push(std::move(Elem));
        skipWs();
        if (P == End)
          return fail("unterminated array");
        if (*P == ',') {
          ++P;
          continue;
        }
        if (*P == ']') {
          ++P;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    case '{': {
      ++P;
      Out = Value::object();
      skipWs();
      if (P != End && *P == '}') {
        ++P;
        return true;
      }
      while (true) {
        skipWs();
        if (P == End || *P != '"')
          return fail("expected member name");
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (P == End || *P != ':')
          return fail("expected ':'");
        ++P;
        Value Member;
        if (!parseValue(Member, Depth + 1))
          return false;
        Out.set(Key, std::move(Member));
        skipWs();
        if (P == End)
          return fail("unterminated object");
        if (*P == ',') {
          ++P;
          continue;
        }
        if (*P == '}') {
          ++P;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    default:
      return parseNumber(Out);
    }
  }

  bool atEnd() {
    skipWs();
    return P == End;
  }
};

} // namespace

bool srp::json::parse(const std::string &Text, Value &Out,
                      std::string &Err) {
  Err.clear();
  Parser P(Text, Err);
  if (!P.parseValue(Out, 0))
    return false;
  if (!P.atEnd()) {
    Err = "trailing garbage after value";
    return false;
  }
  return true;
}
