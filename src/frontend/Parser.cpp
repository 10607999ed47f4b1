//===- frontend/Parser.cpp - Mini-C recursive descent parser -------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "frontend/Lexer.h"
#include <cassert>

using namespace srp;
using namespace srp::ast;

namespace {

class Parser {
  std::vector<Token> Toks;
  size_t Pos = 0;
  std::vector<std::string> &Errors;
  /// Nesting level of the construct being parsed (see MaxNestingDepth).
  unsigned Depth = 0;
  /// Set once input nested too deep: parsing skipped to the end of input,
  /// and every later error is a consequence of that skip.
  bool TooDeep = false;

public:
  Parser(std::vector<Token> Toks, std::vector<std::string> &Errors)
      : Toks(std::move(Toks)), Errors(Errors) {}

  Program parse() {
    Program P;
    while (!at(TokKind::Eof)) {
      size_t Before = Pos;
      parseTopLevel(P);
      if (Pos == Before)
        ++Pos; // never loop forever on junk
    }
    return P;
  }

private:
  const Token &cur() const { return Toks[Pos]; }
  const Token &peek(size_t Off = 1) const {
    return Toks[std::min(Pos + Off, Toks.size() - 1)];
  }
  bool at(TokKind K) const { return cur().Kind == K; }
  Token take() { return Toks[Pos++]; }
  bool accept(TokKind K) {
    if (!at(K))
      return false;
    ++Pos;
    return true;
  }

  void error(const std::string &Msg) {
    if (!TooDeep)
      Errors.push_back("line " + std::to_string(cur().Line) + ": " + Msg);
  }

  /// Opens one nesting level. Past MaxNestingDepth it reports the error
  /// once, skips to the end of input (so every loop and recursion above
  /// unwinds at once) and returns false.
  bool enter() {
    if (Depth < MaxNestingDepth) {
      ++Depth;
      return true;
    }
    error("nesting deeper than " + std::to_string(MaxNestingDepth) +
          " levels");
    TooDeep = true;
    Pos = Toks.size() - 1; // the Eof token
    return false;
  }

  /// One nesting level for the lifetime of a parse function.
  struct Level {
    Parser &P;
    const bool Entered;
    explicit Level(Parser &P) : P(P), Entered(P.enter()) {}
    ~Level() {
      if (Entered)
        --P.Depth;
    }
  };

  bool expect(TokKind K, const char *Context) {
    if (accept(K))
      return true;
    error(std::string("expected ") + tokKindName(K) + " " + Context +
          ", found " + tokKindName(cur().Kind));
    return false;
  }

  /// Skips to the next statement boundary after an error.
  void recover() {
    while (!at(TokKind::Eof) && !at(TokKind::Semi) && !at(TokKind::RBrace))
      ++Pos;
    accept(TokKind::Semi);
  }

  void parseTopLevel(Program &P) {
    if (at(TokKind::KwStruct)) {
      parseStruct(P);
      return;
    }
    if (at(TokKind::KwInt) || at(TokKind::KwVoid)) {
      bool ReturnsValue = at(TokKind::KwInt);
      unsigned Line = cur().Line;
      ++Pos;
      if (!at(TokKind::Ident)) {
        error("expected name after type");
        recover();
        return;
      }
      std::string Name = take().Text;
      if (at(TokKind::LParen)) {
        parseFunctionRest(P, Name, ReturnsValue, Line);
        return;
      }
      if (!ReturnsValue) {
        error("global variables must have type int");
        recover();
        return;
      }
      parseGlobalRest(P, Name, Line);
      return;
    }
    error("expected declaration");
    recover();
  }

  void parseGlobalRest(Program &P, std::string Name, unsigned Line) {
    GlobalVar G;
    G.Name = std::move(Name);
    G.Line = Line;
    if (accept(TokKind::LBracket)) {
      if (at(TokKind::IntLit))
        G.ArraySize = static_cast<unsigned>(take().IntValue);
      else
        error("expected array size");
      expect(TokKind::RBracket, "after array size");
    } else if (accept(TokKind::Assign)) {
      bool Neg = accept(TokKind::Minus);
      if (at(TokKind::IntLit))
        G.Init = take().IntValue * (Neg ? -1 : 1);
      else
        error("global initializer must be an integer literal");
    }
    expect(TokKind::Semi, "after global declaration");
    P.Globals.push_back(std::move(G));
  }

  void parseStruct(Program &P) {
    StructVar S;
    S.Line = cur().Line;
    take(); // struct
    if (at(TokKind::Ident))
      S.TypeName = take().Text;
    expect(TokKind::LBrace, "after struct name");
    while (at(TokKind::KwInt)) {
      take();
      StructField Fld;
      if (at(TokKind::Ident))
        Fld.Name = take().Text;
      else
        error("expected field name");
      if (accept(TokKind::Assign)) {
        bool Neg = accept(TokKind::Minus);
        if (at(TokKind::IntLit))
          Fld.Init = take().IntValue * (Neg ? -1 : 1);
        else
          error("field initializer must be an integer literal");
      }
      expect(TokKind::Semi, "after field");
      S.Fields.push_back(std::move(Fld));
    }
    expect(TokKind::RBrace, "after struct fields");
    if (at(TokKind::Ident))
      S.VarName = take().Text;
    else
      error("expected struct variable name");
    expect(TokKind::Semi, "after struct declaration");
    P.Structs.push_back(std::move(S));
  }

  void parseFunctionRest(Program &P, std::string Name, bool ReturnsValue,
                         unsigned Line) {
    auto F = std::make_unique<ast::Function>();
    F->Name = std::move(Name);
    F->ReturnsValue = ReturnsValue;
    F->Line = Line;
    expect(TokKind::LParen, "after function name");
    if (!at(TokKind::RParen)) {
      do {
        if (!expect(TokKind::KwInt, "before parameter name"))
          break;
        if (at(TokKind::Ident))
          F->Params.push_back({take().Text, cur().Line});
        else
          error("expected parameter name");
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen, "after parameters");
    F->Body = parseBlock();
    P.Functions.push_back(std::move(F));
  }

  StmtPtr parseBlock() {
    auto B = std::make_unique<Stmt>(Stmt::Kind::Block, cur().Line);
    if (!expect(TokKind::LBrace, "to open block"))
      return B;
    while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
      size_t Before = Pos;
      if (StmtPtr S = parseStmt())
        B->Body.push_back(std::move(S));
      if (Pos == Before)
        ++Pos;
    }
    expect(TokKind::RBrace, "to close block");
    return B;
  }

  StmtPtr parseStmt() {
    Level L(*this);
    if (!L.Entered)
      return nullptr;
    switch (cur().Kind) {
    case TokKind::LBrace:
      return parseBlock();
    case TokKind::KwInt:
      return parseLocalDecl();
    case TokKind::KwIf:
      return parseIf();
    case TokKind::KwWhile:
      return parseWhile();
    case TokKind::KwDo:
      return parseDoWhile();
    case TokKind::KwFor:
      return parseFor();
    case TokKind::KwReturn: {
      auto S = std::make_unique<Stmt>(Stmt::Kind::Return, cur().Line);
      take();
      if (!at(TokKind::Semi))
        S->Value = parseExpr();
      expect(TokKind::Semi, "after return");
      return S;
    }
    case TokKind::KwBreak: {
      auto S = std::make_unique<Stmt>(Stmt::Kind::Break, cur().Line);
      take();
      expect(TokKind::Semi, "after break");
      return S;
    }
    case TokKind::KwContinue: {
      auto S = std::make_unique<Stmt>(Stmt::Kind::Continue, cur().Line);
      take();
      expect(TokKind::Semi, "after continue");
      return S;
    }
    case TokKind::KwPrint: {
      auto S = std::make_unique<Stmt>(Stmt::Kind::Print, cur().Line);
      take();
      expect(TokKind::LParen, "after print");
      S->Value = parseExpr();
      expect(TokKind::RParen, "after print argument");
      expect(TokKind::Semi, "after print statement");
      return S;
    }
    case TokKind::KwGoto: {
      auto S = std::make_unique<Stmt>(Stmt::Kind::Goto, cur().Line);
      take();
      if (at(TokKind::Ident))
        S->Name = take().Text;
      else
        error("expected label name after goto");
      expect(TokKind::Semi, "after goto");
      return S;
    }
    default:
      // "name:" introduces a label; anything else is a simple statement.
      if (at(TokKind::Ident) && peek().Kind == TokKind::Colon) {
        auto S = std::make_unique<Stmt>(Stmt::Kind::Label, cur().Line);
        S->Name = take().Text;
        take(); // colon
        return S;
      }
      return parseSimpleStmt(/*NeedSemi=*/true);
    }
  }

  StmtPtr parseLocalDecl() {
    auto S = std::make_unique<Stmt>(Stmt::Kind::LocalDecl, cur().Line);
    take(); // int
    if (at(TokKind::Ident))
      S->Name = take().Text;
    else
      error("expected local variable name");
    if (accept(TokKind::Assign))
      S->Init = parseExpr();
    expect(TokKind::Semi, "after local declaration");
    return S;
  }

  StmtPtr parseIf() {
    auto S = std::make_unique<Stmt>(Stmt::Kind::If, cur().Line);
    take();
    expect(TokKind::LParen, "after if");
    S->Cond = parseExpr();
    expect(TokKind::RParen, "after if condition");
    S->Then = parseStmt();
    if (accept(TokKind::KwElse))
      S->Else = parseStmt();
    return S;
  }

  StmtPtr parseWhile() {
    auto S = std::make_unique<Stmt>(Stmt::Kind::While, cur().Line);
    take();
    expect(TokKind::LParen, "after while");
    S->Cond = parseExpr();
    expect(TokKind::RParen, "after while condition");
    S->Then = parseStmt();
    return S;
  }

  StmtPtr parseDoWhile() {
    auto S = std::make_unique<Stmt>(Stmt::Kind::DoWhile, cur().Line);
    take();
    S->Then = parseStmt();
    expect(TokKind::KwWhile, "after do body");
    expect(TokKind::LParen, "after while");
    S->Cond = parseExpr();
    expect(TokKind::RParen, "after condition");
    expect(TokKind::Semi, "after do-while");
    return S;
  }

  StmtPtr parseFor() {
    auto S = std::make_unique<Stmt>(Stmt::Kind::For, cur().Line);
    take();
    expect(TokKind::LParen, "after for");
    if (!at(TokKind::Semi)) {
      S->ForInit = at(TokKind::KwInt) ? parseLocalDecl()
                                      : parseSimpleStmt(/*NeedSemi=*/true);
    } else {
      accept(TokKind::Semi);
    }
    if (!at(TokKind::Semi))
      S->Cond = parseExpr();
    expect(TokKind::Semi, "after for condition");
    if (!at(TokKind::RParen))
      S->ForStep = parseSimpleStmt(/*NeedSemi=*/false);
    expect(TokKind::RParen, "after for clauses");
    S->Then = parseStmt();
    return S;
  }

  /// assignment / ++ / -- / expression statement.
  StmtPtr parseSimpleStmt(bool NeedSemi) {
    unsigned Line = cur().Line;
    ExprPtr Lval = parseUnary();
    if (!Lval)
      return nullptr;

    auto finish = [&](StmtPtr S) {
      if (NeedSemi)
        expect(TokKind::Semi, "after statement");
      return S;
    };

    auto cloneLValue = [&](const Expr &E) { return cloneExpr(E); };

    TokKind K = cur().Kind;
    if (K == TokKind::Assign || K == TokKind::PlusAssign ||
        K == TokKind::MinusAssign || K == TokKind::StarAssign ||
        K == TokKind::SlashAssign || K == TokKind::PercentAssign) {
      take();
      ExprPtr Rhs = parseExpr();
      auto S = std::make_unique<Stmt>(Stmt::Kind::Assign, Line);
      if (K == TokKind::Assign) {
        S->Target = std::move(Lval);
        S->Value = std::move(Rhs);
      } else {
        BinOpKind Op = K == TokKind::PlusAssign    ? BinOpKind::Add
                       : K == TokKind::MinusAssign ? BinOpKind::Sub
                       : K == TokKind::StarAssign  ? BinOpKind::Mul
                       : K == TokKind::SlashAssign ? BinOpKind::Div
                                                   : BinOpKind::Rem;
        auto B = std::make_unique<Expr>(Expr::Kind::Binary, Line);
        B->BinOp = Op;
        B->Lhs = cloneLValue(*Lval);
        B->Rhs = std::move(Rhs);
        S->Target = std::move(Lval);
        S->Value = std::move(B);
      }
      return finish(std::move(S));
    }
    if (K == TokKind::PlusPlus || K == TokKind::MinusMinus) {
      take();
      auto S = std::make_unique<Stmt>(Stmt::Kind::Assign, Line);
      auto B = std::make_unique<Expr>(Expr::Kind::Binary, Line);
      B->BinOp = K == TokKind::PlusPlus ? BinOpKind::Add : BinOpKind::Sub;
      B->Lhs = cloneLValue(*Lval);
      auto One = std::make_unique<Expr>(Expr::Kind::IntLit, Line);
      One->IntValue = 1;
      B->Rhs = std::move(One);
      S->Target = std::move(Lval);
      S->Value = std::move(B);
      return finish(std::move(S));
    }
    // Plain expression statement (typically a call).
    auto S = std::make_unique<Stmt>(Stmt::Kind::ExprStmt, Line);
    S->Value = std::move(Lval);
    return finish(std::move(S));
  }

  /// Deep copy used to desugar compound assignment (x += e becomes
  /// x = x + e, re-evaluating the lvalue; our lvalues are side-effect-free
  /// apart from the index expression, which workloads keep pure).
  ExprPtr cloneExpr(const Expr &E) {
    auto C = std::make_unique<Expr>(E.K, E.Line);
    C->IntValue = E.IntValue;
    C->Name = E.Name;
    C->FieldName = E.FieldName;
    C->UnaryOp = E.UnaryOp;
    C->BinOp = E.BinOp;
    if (E.Lhs)
      C->Lhs = cloneExpr(*E.Lhs);
    if (E.Rhs)
      C->Rhs = cloneExpr(*E.Rhs);
    if (E.IndexExpr)
      C->IndexExpr = cloneExpr(*E.IndexExpr);
    for (const auto &A : E.Args)
      C->Args.push_back(cloneExpr(*A));
    return C;
  }

  //===------------------------------------------------------------------===
  // Expressions (precedence climbing).
  //===------------------------------------------------------------------===

  /// What a token means in binary position: its precedence (higher
  /// binds tighter; -1 when the token is no binary operator) and the node
  /// it builds. '&' in binary position is always bitwise-and; address-of
  /// only occurs in unary position (handled by parseUnary).
  struct BinaryOp {
    int Prec = -1;
    Expr::Kind K = Expr::Kind::Binary;
    BinOpKind Op = BinOpKind::Add;
  };

  static BinaryOp binaryOp(TokKind K) {
    using EK = Expr::Kind;
    switch (K) {
    case TokKind::PipePipe:
      return {0, EK::LogicalOr};
    case TokKind::AmpAmp:
      return {1, EK::LogicalAnd};
    case TokKind::Pipe:
      return {2, EK::Binary, BinOpKind::Or};
    case TokKind::Caret:
      return {3, EK::Binary, BinOpKind::Xor};
    case TokKind::Amp:
      return {4, EK::Binary, BinOpKind::And};
    case TokKind::EQ:
      return {5, EK::Binary, BinOpKind::CmpEQ};
    case TokKind::NE:
      return {5, EK::Binary, BinOpKind::CmpNE};
    case TokKind::LT:
      return {6, EK::Binary, BinOpKind::CmpLT};
    case TokKind::LE:
      return {6, EK::Binary, BinOpKind::CmpLE};
    case TokKind::GT:
      return {6, EK::Binary, BinOpKind::CmpGT};
    case TokKind::GE:
      return {6, EK::Binary, BinOpKind::CmpGE};
    case TokKind::Shl:
      return {7, EK::Binary, BinOpKind::Shl};
    case TokKind::Shr:
      return {7, EK::Binary, BinOpKind::Shr};
    case TokKind::Plus:
      return {8, EK::Binary, BinOpKind::Add};
    case TokKind::Minus:
      return {8, EK::Binary, BinOpKind::Sub};
    case TokKind::Star:
      return {9, EK::Binary, BinOpKind::Mul};
    case TokKind::Slash:
      return {9, EK::Binary, BinOpKind::Div};
    case TokKind::Percent:
      return {9, EK::Binary, BinOpKind::Rem};
    default:
      return {};
    }
  }

  ExprPtr parseExpr() { return parseBinary(0); }

  /// Operands joined by operators of precedence \p MinPrec or tighter,
  /// left-associative. One frame per precedence step, so a parenthesis
  /// costs a few frames of stack, not one per precedence level. Each
  /// operator nests the chain so far one level deeper, until it ends.
  ExprPtr parseBinary(int MinPrec) {
    ExprPtr L = parseUnary();
    unsigned Levels = 0;
    for (BinaryOp B = binaryOp(cur().Kind); B.Prec >= MinPrec && enter();
         B = binaryOp(cur().Kind)) {
      ++Levels;
      auto E = std::make_unique<Expr>(B.K, take().Line);
      E->BinOp = B.Op;
      E->Lhs = std::move(L);
      E->Rhs = parseBinary(B.Prec + 1);
      L = std::move(E);
    }
    Depth -= Levels;
    return L;
  }

  ExprPtr parseUnary() {
    unsigned Line = cur().Line;
    Level L(*this);
    if (!L.Entered)
      return std::make_unique<Expr>(Expr::Kind::IntLit, Line);
    if (accept(TokKind::Minus)) {
      auto E = std::make_unique<Expr>(Expr::Kind::Unary, Line);
      E->UnaryOp = '-';
      E->Lhs = parseUnary();
      return E;
    }
    if (accept(TokKind::Bang)) {
      auto E = std::make_unique<Expr>(Expr::Kind::Unary, Line);
      E->UnaryOp = '!';
      E->Lhs = parseUnary();
      return E;
    }
    if (accept(TokKind::Star)) {
      auto E = std::make_unique<Expr>(Expr::Kind::Unary, Line);
      E->UnaryOp = '*';
      E->Lhs = parseUnary();
      return E;
    }
    if (accept(TokKind::Amp)) {
      auto E = std::make_unique<Expr>(Expr::Kind::AddrOf, Line);
      if (!at(TokKind::Ident)) {
        error("expected variable after '&'");
        return E;
      }
      E->Name = take().Text;
      if (accept(TokKind::Dot)) {
        if (at(TokKind::Ident))
          E->FieldName = take().Text;
        else
          error("expected field name after '.'");
      } else if (accept(TokKind::LBracket)) {
        E->IndexExpr = parseExpr();
        expect(TokKind::RBracket, "after index");
      }
      return E;
    }
    return parsePostfix();
  }

  ExprPtr parsePostfix() {
    unsigned Line = cur().Line;
    if (at(TokKind::IntLit)) {
      auto E = std::make_unique<Expr>(Expr::Kind::IntLit, Line);
      E->IntValue = take().IntValue;
      return E;
    }
    if (accept(TokKind::LParen)) {
      ExprPtr E = parseExpr();
      expect(TokKind::RParen, "after parenthesised expression");
      return E;
    }
    if (!at(TokKind::Ident)) {
      error(std::string("expected expression, found ") +
            tokKindName(cur().Kind));
      auto E = std::make_unique<Expr>(Expr::Kind::IntLit, Line);
      return E;
    }
    std::string Name = take().Text;
    if (accept(TokKind::LParen)) {
      auto E = std::make_unique<Expr>(Expr::Kind::Call, Line);
      E->Name = std::move(Name);
      if (!at(TokKind::RParen)) {
        do
          E->Args.push_back(parseExpr());
        while (accept(TokKind::Comma));
      }
      expect(TokKind::RParen, "after call arguments");
      return E;
    }
    if (accept(TokKind::Dot)) {
      auto E = std::make_unique<Expr>(Expr::Kind::FieldRef, Line);
      E->Name = std::move(Name);
      if (at(TokKind::Ident))
        E->FieldName = take().Text;
      else
        error("expected field name after '.'");
      return E;
    }
    if (accept(TokKind::LBracket)) {
      auto E = std::make_unique<Expr>(Expr::Kind::Index, Line);
      E->Name = std::move(Name);
      E->IndexExpr = parseExpr();
      expect(TokKind::RBracket, "after index");
      return E;
    }
    auto E = std::make_unique<Expr>(Expr::Kind::VarRef, Line);
    E->Name = std::move(Name);
    return E;
  }
};

} // namespace

ast::Program srp::parseProgram(const std::string &Source,
                               std::vector<std::string> &Errors) {
  std::vector<Token> Toks = lex(Source, Errors);
  Parser P(std::move(Toks), Errors);
  return P.parse();
}
