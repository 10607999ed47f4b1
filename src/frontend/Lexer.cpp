//===- frontend/Lexer.cpp - Mini-C lexer ----------------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"
#include <cctype>
#include <charconv>
#include <unordered_map>

using namespace srp;

const char *srp::tokKindName(TokKind K) {
  switch (K) {
  case TokKind::Eof: return "end of input";
  case TokKind::Ident: return "identifier";
  case TokKind::IntLit: return "integer literal";
  case TokKind::KwInt: return "'int'";
  case TokKind::KwVoid: return "'void'";
  case TokKind::KwIf: return "'if'";
  case TokKind::KwElse: return "'else'";
  case TokKind::KwWhile: return "'while'";
  case TokKind::KwFor: return "'for'";
  case TokKind::KwDo: return "'do'";
  case TokKind::KwReturn: return "'return'";
  case TokKind::KwBreak: return "'break'";
  case TokKind::KwContinue: return "'continue'";
  case TokKind::KwStruct: return "'struct'";
  case TokKind::KwPrint: return "'print'";
  case TokKind::KwGoto: return "'goto'";
  case TokKind::LParen: return "'('";
  case TokKind::RParen: return "')'";
  case TokKind::LBrace: return "'{'";
  case TokKind::RBrace: return "'}'";
  case TokKind::LBracket: return "'['";
  case TokKind::RBracket: return "']'";
  case TokKind::Semi: return "';'";
  case TokKind::Comma: return "','";
  case TokKind::Dot: return "'.'";
  case TokKind::Colon: return "':'";
  case TokKind::Assign: return "'='";
  case TokKind::PlusAssign: return "'+='";
  case TokKind::MinusAssign: return "'-='";
  case TokKind::StarAssign: return "'*='";
  case TokKind::SlashAssign: return "'/='";
  case TokKind::PercentAssign: return "'%='";
  case TokKind::PlusPlus: return "'++'";
  case TokKind::MinusMinus: return "'--'";
  case TokKind::Plus: return "'+'";
  case TokKind::Minus: return "'-'";
  case TokKind::Star: return "'*'";
  case TokKind::Slash: return "'/'";
  case TokKind::Percent: return "'%'";
  case TokKind::Amp: return "'&'";
  case TokKind::AmpAmp: return "'&&'";
  case TokKind::Pipe: return "'|'";
  case TokKind::PipePipe: return "'||'";
  case TokKind::Caret: return "'^'";
  case TokKind::Bang: return "'!'";
  case TokKind::Shl: return "'<<'";
  case TokKind::Shr: return "'>>'";
  case TokKind::EQ: return "'=='";
  case TokKind::NE: return "'!='";
  case TokKind::LT: return "'<'";
  case TokKind::LE: return "'<='";
  case TokKind::GT: return "'>'";
  case TokKind::GE: return "'>='";
  }
  return "?";
}

std::vector<Token> srp::lex(const std::string &Source,
                            std::vector<std::string> &Errors) {
  static const std::unordered_map<std::string, TokKind> Keywords = {
      {"int", TokKind::KwInt},         {"void", TokKind::KwVoid},
      {"if", TokKind::KwIf},           {"else", TokKind::KwElse},
      {"while", TokKind::KwWhile},     {"for", TokKind::KwFor},
      {"do", TokKind::KwDo},           {"return", TokKind::KwReturn},
      {"break", TokKind::KwBreak},     {"continue", TokKind::KwContinue},
      {"struct", TokKind::KwStruct},   {"print", TokKind::KwPrint},
      {"goto", TokKind::KwGoto},
  };

  std::vector<Token> Toks;
  unsigned Line = 1;
  size_t I = 0, E = Source.size();

  auto peek = [&](size_t Off = 0) -> char {
    return I + Off < E ? Source[I + Off] : '\0';
  };
  auto emit = [&](TokKind K, unsigned Len) {
    Toks.push_back({K, "", 0, Line});
    I += Len;
  };

  while (I < E) {
    char C = Source[I];
    if (C == '\n') {
      ++Line;
      ++I;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
      continue;
    }
    // Comments: // to end of line, /* ... */ nested not supported.
    if (C == '/' && peek(1) == '/') {
      while (I < E && Source[I] != '\n')
        ++I;
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      I += 2;
      while (I < E && !(Source[I] == '*' && peek(1) == '/')) {
        if (Source[I] == '\n')
          ++Line;
        ++I;
      }
      if (I < E)
        I += 2;
      else
        Errors.push_back("line " + std::to_string(Line) +
                         ": unterminated block comment");
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t Start = I;
      while (I < E && std::isdigit(static_cast<unsigned char>(Source[I])))
        ++I;
      Token T{TokKind::IntLit, "", 0, Line};
      if (std::from_chars(Source.data() + Start, Source.data() + I,
                          T.IntValue)
              .ec != std::errc())
        Errors.push_back("line " + std::to_string(Line) +
                         ": integer literal '" +
                         Source.substr(Start, I - Start) +
                         "' is out of range");
      Toks.push_back(T);
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = I;
      while (I < E && (std::isalnum(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '_'))
        ++I;
      std::string Word = Source.substr(Start, I - Start);
      auto It = Keywords.find(Word);
      if (It != Keywords.end()) {
        Toks.push_back({It->second, "", 0, Line});
      } else {
        Toks.push_back({TokKind::Ident, Word, 0, Line});
      }
      continue;
    }
    switch (C) {
    case '(': emit(TokKind::LParen, 1); break;
    case ')': emit(TokKind::RParen, 1); break;
    case '{': emit(TokKind::LBrace, 1); break;
    case '}': emit(TokKind::RBrace, 1); break;
    case '[': emit(TokKind::LBracket, 1); break;
    case ']': emit(TokKind::RBracket, 1); break;
    case ';': emit(TokKind::Semi, 1); break;
    case ',': emit(TokKind::Comma, 1); break;
    case '.': emit(TokKind::Dot, 1); break;
    case ':': emit(TokKind::Colon, 1); break;
    case '+':
      if (peek(1) == '+')
        emit(TokKind::PlusPlus, 2);
      else if (peek(1) == '=')
        emit(TokKind::PlusAssign, 2);
      else
        emit(TokKind::Plus, 1);
      break;
    case '-':
      if (peek(1) == '-')
        emit(TokKind::MinusMinus, 2);
      else if (peek(1) == '=')
        emit(TokKind::MinusAssign, 2);
      else
        emit(TokKind::Minus, 1);
      break;
    case '*':
      if (peek(1) == '=')
        emit(TokKind::StarAssign, 2);
      else
        emit(TokKind::Star, 1);
      break;
    case '/':
      if (peek(1) == '=')
        emit(TokKind::SlashAssign, 2);
      else
        emit(TokKind::Slash, 1);
      break;
    case '%':
      if (peek(1) == '=')
        emit(TokKind::PercentAssign, 2);
      else
        emit(TokKind::Percent, 1);
      break;
    case '&':
      if (peek(1) == '&')
        emit(TokKind::AmpAmp, 2);
      else
        emit(TokKind::Amp, 1);
      break;
    case '|':
      if (peek(1) == '|')
        emit(TokKind::PipePipe, 2);
      else
        emit(TokKind::Pipe, 1);
      break;
    case '^': emit(TokKind::Caret, 1); break;
    case '!':
      if (peek(1) == '=')
        emit(TokKind::NE, 2);
      else
        emit(TokKind::Bang, 1);
      break;
    case '<':
      if (peek(1) == '<')
        emit(TokKind::Shl, 2);
      else if (peek(1) == '=')
        emit(TokKind::LE, 2);
      else
        emit(TokKind::LT, 1);
      break;
    case '>':
      if (peek(1) == '>')
        emit(TokKind::Shr, 2);
      else if (peek(1) == '=')
        emit(TokKind::GE, 2);
      else
        emit(TokKind::GT, 1);
      break;
    case '=':
      if (peek(1) == '=')
        emit(TokKind::EQ, 2);
      else
        emit(TokKind::Assign, 1);
      break;
    default:
      Errors.push_back("line " + std::to_string(Line) +
                       ": unexpected character '" + std::string(1, C) + "'");
      ++I;
      break;
    }
  }
  Toks.push_back({TokKind::Eof, "", 0, Line});
  return Toks;
}
