//===- ir/IRParser.cpp - Textual IR parser --------------------------------===//
//
// Part of the srp project: SSA-based scalar register promotion.
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"
#include "ir/Module.h"
#include <cctype>
#include <charconv>
#include <optional>
#include <sstream>
#include <unordered_map>

using namespace srp;

namespace {

/// One token of a line: a word (identifier, possibly dotted), a %value
/// reference, an integer, or a single punctuation character.
struct Tok {
  enum Kind { Word, ValueRef, Int, Punct, End } K = End;
  std::string Text;
  int64_t IntVal = 0;
  char P = 0;
};

class LineLexer {
  const std::string S; // owned: callers often pass temporaries
  size_t I = 0;
  std::string BadLiteral;

public:
  explicit LineLexer(std::string S) : S(std::move(S)) {}

  /// The first integer literal outside the int64 range (lexed as 0).
  const std::string &badLiteral() const { return BadLiteral; }

  Tok next() {
    while (I < S.size() && std::isspace(static_cast<unsigned char>(S[I])))
      ++I;
    if (I >= S.size() || S[I] == ';')
      return {};
    char C = S[I];
    Tok T;
    if (C == '%') {
      ++I;
      size_t Start = I;
      while (I < S.size() && (std::isalnum(static_cast<unsigned char>(S[I])) ||
                              S[I] == '_' || S[I] == '.' || S[I] == '#'))
        ++I;
      T.K = Tok::ValueRef;
      T.Text = S.substr(Start, I - Start);
      return T;
    }
    if (C == '-' || std::isdigit(static_cast<unsigned char>(C))) {
      size_t Start = I;
      if (C == '-')
        ++I;
      if (I >= S.size() || !std::isdigit(static_cast<unsigned char>(S[I]))) {
        // A lone '-' is punctuation (does not occur in valid IR).
        I = Start + 1;
        T.K = Tok::Punct;
        T.P = '-';
        return T;
      }
      while (I < S.size() && std::isdigit(static_cast<unsigned char>(S[I])))
        ++I;
      T.K = Tok::Int;
      if (std::from_chars(S.data() + Start, S.data() + I, T.IntVal).ec !=
              std::errc() &&
          BadLiteral.empty())
        BadLiteral = S.substr(Start, I - Start);
      return T;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = I;
      while (I < S.size() && (std::isalnum(static_cast<unsigned char>(S[I])) ||
                              S[I] == '_' || S[I] == '.' || S[I] == '#'))
        ++I;
      T.K = Tok::Word;
      T.Text = S.substr(Start, I - Start);
      return T;
    }
    ++I;
    T.K = Tok::Punct;
    T.P = C;
    return T;
  }

  /// All tokens of the line.
  std::vector<Tok> all() {
    std::vector<Tok> Out;
    for (Tok T = next(); T.K != Tok::End; T = next())
      Out.push_back(T);
    return Out;
  }
};

class IRParserImpl {
  std::unique_ptr<Module> M = std::make_unique<Module>("parsed");
  std::vector<std::string> &Errors;
  std::vector<std::string> Lines;
  unsigned LineNo = 0;

  // Per-function state.
  Function *F = nullptr;
  std::unordered_map<std::string, Value *> Values;
  std::unordered_map<std::string, BasicBlock *> BlocksByName;
  struct Fixup {
    Instruction *I;
    unsigned OpIdx;
    std::string Name;
    unsigned Line;
  };
  std::vector<Fixup> Fixups;

  void error(const std::string &Msg) {
    Errors.push_back("line " + std::to_string(LineNo) + ": " + Msg);
  }

  std::vector<Tok> tokenize(const std::string &L) {
    LineLexer Lex(L);
    std::vector<Tok> T = Lex.all();
    if (!Lex.badLiteral().empty())
      error("integer literal '" + Lex.badLiteral() + "' is out of range");
    return T;
  }

public:
  explicit IRParserImpl(const std::string &Source,
                        std::vector<std::string> &Errors)
      : Errors(Errors) {
    std::istringstream In(Source);
    std::string L;
    while (std::getline(In, L))
      Lines.push_back(L);
  }

  std::unique_ptr<Module> run() {
    prescanFunctions();
    if (!Errors.empty())
      return nullptr;
    parseTopLevel();
    if (!Errors.empty())
      return nullptr;
    return std::move(M);
  }

private:
  static bool startsWith(const std::string &S, const char *Prefix) {
    return S.rfind(Prefix, 0) == 0;
  }

  static std::string stripped(const std::string &S) {
    size_t B = S.find_first_not_of(" \t");
    if (B == std::string::npos)
      return "";
    size_t E = S.find_last_not_of(" \t\r");
    return S.substr(B, E - B + 1);
  }

  /// First pass: declare every function so calls can reference them in any
  /// order.
  void prescanFunctions() {
    for (LineNo = 1; LineNo <= Lines.size(); ++LineNo) {
      std::string L = stripped(Lines[LineNo - 1]);
      if (!startsWith(L, "func "))
        continue;
      std::vector<Tok> T = tokenize(L);
      // func <type> @ <name> ( %a , %b ) {
      if (T.size() < 4 || T[1].K != Tok::Word) {
        error("malformed function header");
        continue;
      }
      Type RetTy;
      if (T[1].Text == "int")
        RetTy = Type::Int;
      else if (T[1].Text == "void")
        RetTy = Type::Void;
      else {
        error("unknown return type '" + T[1].Text + "'");
        continue;
      }
      size_t Idx = 2;
      if (T[Idx].K == Tok::Punct && T[Idx].P == '@')
        ++Idx;
      if (Idx >= T.size() || T[Idx].K != Tok::Word) {
        error("expected function name");
        continue;
      }
      std::string Name = T[Idx].Text;
      if (M->getFunction(Name)) {
        error("duplicate function '" + Name + "'");
        continue;
      }
      Function *Fn = M->createFunction(Name, RetTy);
      // Parameters: %a, %b between parens.
      for (++Idx; Idx < T.size(); ++Idx)
        if (T[Idx].K == Tok::ValueRef)
          Fn->addArgument(T[Idx].Text);
    }
  }

  void parseTopLevel() {
    for (LineNo = 1; LineNo <= Lines.size(); ++LineNo) {
      std::string L = stripped(Lines[LineNo - 1]);
      if (L.empty() || L[0] == ';')
        continue;
      if (startsWith(L, "global ")) {
        parseGlobal(L);
      } else if (startsWith(L, "func ")) {
        parseFunctionBody();
      } else {
        error("expected 'global' or 'func', found: " + L);
        return;
      }
    }
  }

  void parseGlobal(const std::string &L) {
    std::vector<Tok> T = tokenize(L);
    // global <name> = <int>   |   global <name> [ <int> ]
    if (T.size() < 2 || T[1].K != Tok::Word) {
      error("malformed global");
      return;
    }
    std::string Name = T[1].Text;
    if (M->getGlobal(Name)) {
      error("duplicate global '" + Name + "'");
      return;
    }
    if (T.size() >= 4 && T[2].K == Tok::Punct && T[2].P == '[') {
      if (T[3].K != Tok::Int || T[3].IntVal <= 0) {
        error("bad array size");
        return;
      }
      M->createGlobalArray(Name, static_cast<unsigned>(T[3].IntVal));
      return;
    }
    int64_t Init = 0;
    if (T.size() >= 4 && T[2].K == Tok::Punct && T[2].P == '=' &&
        T[3].K == Tok::Int)
      Init = T[3].IntVal;
    // Dotted names are struct components.
    if (Name.find('.') != std::string::npos)
      M->createField(Name, Init);
    else
      M->createGlobal(Name, Init);
  }

  /// Parses the body between the current "func ... {" line and its "}",
  /// and leaves the cursor on that "}" (at the end of the input when it is
  /// missing): a bad body reports its own error and nothing for the lines
  /// after it.
  void parseFunctionBody() {
    // Re-lex the header to find the function (already declared).
    const unsigned HeaderLine = LineNo;
    std::vector<Tok> T = tokenize(stripped(Lines[LineNo - 1]));
    size_t Idx = 2;
    if (T[Idx].K == Tok::Punct && T[Idx].P == '@')
      ++Idx;
    F = M->getFunction(T[Idx].Text);
    Values.clear();
    BlocksByName.clear();
    Fixups.clear();
    for (unsigned A = 0; A != F->numArgs(); ++A)
      Values[F->arg(A)->name()] = F->arg(A);

    // Find the body extent and pre-create the labelled blocks.
    unsigned BodyStart = LineNo + 1;
    unsigned BodyEnd = BodyStart;
    for (unsigned I = BodyStart; I <= Lines.size(); ++I) {
      std::string L = stripped(Lines[I - 1]);
      if (L == "}") {
        BodyEnd = I;
        break;
      }
      if (I == Lines.size()) {
        error("missing '}' at end of function");
        LineNo = I;
        return;
      }
    }
    parseBlocks(HeaderLine, BodyStart, BodyEnd);
    LineNo = BodyEnd;
  }

  /// The body lines [BodyStart, BodyEnd) of the function at HeaderLine.
  void parseBlocks(unsigned HeaderLine, unsigned BodyStart, unsigned BodyEnd) {
    const size_t ErrorsBefore = Errors.size();
    for (unsigned I = BodyStart; I < BodyEnd; ++I) {
      std::string L = stripped(Lines[I - 1]);
      if (std::optional<std::string> Label = blockLabel(L)) {
        if (BlocksByName.count(*Label)) {
          LineNo = I;
          error("duplicate block label '" + *Label + "'");
          return;
        }
        BlocksByName[*Label] = F->createBlock(*Label);
      }
    }
    // A function without an entry block has no CFG for the pipeline to
    // work on; only API-built modules may hold one (calling it traps).
    if (F->empty()) {
      LineNo = HeaderLine;
      error("function '" + F->name() + "' has no blocks");
      return;
    }

    BasicBlock *Cur = nullptr;
    for (LineNo = BodyStart; LineNo < BodyEnd; ++LineNo) {
      std::string L = stripped(Lines[LineNo - 1]);
      if (L.empty() || L[0] == ';')
        continue;
      if (std::optional<std::string> Label = blockLabel(L)) {
        Cur = BlocksByName[*Label];
        continue;
      }
      if (!Cur) {
        error("instruction before first block label");
        return;
      }
      parseInstruction(L, Cur);
      if (Errors.size() != ErrorsBefore)
        return;
    }
    LineNo = BodyEnd;

    resolveFixups();
    // Every reachable block must be terminated for the CFG to make sense.
    for (BasicBlock *BB : F->blocks())
      if (!BB->terminator()) {
        error("block '" + BB->name() + "' has no terminator");
        return;
      }
  }

  /// "label:" optionally followed by a comment.
  std::optional<std::string> blockLabel(const std::string &L) {
    if (L.empty() || L[0] == ';' || startsWith(L, "func"))
      return std::nullopt;
    size_t Colon = L.find(':');
    if (Colon == std::string::npos || Colon == 0)
      return std::nullopt;
    std::string Head = L.substr(0, Colon);
    for (char C : Head)
      if (!(std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
            C == '.' || C == '#'))
        return std::nullopt;
    // The rest must be empty or a comment.
    std::string Rest = stripped(L.substr(Colon + 1));
    if (!Rest.empty() && Rest[0] != ';')
      return std::nullopt;
    return Head;
  }

  /// Resolves a value operand token; forward references get a placeholder
  /// patched later.
  Value *valueOperand(const Tok &T, Instruction *User, unsigned OpIdx) {
    switch (T.K) {
    case Tok::Int:
      return M->constant(T.IntVal);
    case Tok::Word:
      if (T.Text == "undef")
        return M->undef();
      error("expected value, found '" + T.Text + "'");
      return M->undef();
    case Tok::ValueRef: {
      auto It = Values.find(T.Text);
      if (It != Values.end())
        return It->second;
      Fixups.push_back({User, OpIdx, T.Text, LineNo});
      return M->undef(); // placeholder
    }
    default:
      error("expected value operand");
      return M->undef();
    }
  }

  BasicBlock *blockOperand(const Tok &T) {
    if (T.K != Tok::Word) {
      error("expected block label");
      return nullptr;
    }
    auto It = BlocksByName.find(T.Text);
    if (It == BlocksByName.end()) {
      error("unknown block '" + T.Text + "'");
      return nullptr;
    }
    return It->second;
  }

  MemoryObject *objectOperand(const Tok &T) {
    if (T.K != Tok::Word) {
      error("expected memory object name");
      return nullptr;
    }
    if (MemoryObject *Obj = M->getGlobal(T.Text))
      return Obj;
    error("unknown memory object '" + T.Text + "'");
    return nullptr;
  }

  /// Removes trailing mu(...) / chi(...) annotations from a token list.
  static void dropMuChi(std::vector<Tok> &T) {
    for (size_t I = 0; I < T.size(); ++I) {
      if (T[I].K == Tok::Word && (T[I].Text == "mu" || T[I].Text == "chi")) {
        T.resize(I);
        return;
      }
    }
  }

  static std::optional<BinOpKind> binOpFromName(const std::string &Name) {
    static const std::unordered_map<std::string, BinOpKind> Map = {
        {"add", BinOpKind::Add},     {"sub", BinOpKind::Sub},
        {"mul", BinOpKind::Mul},     {"div", BinOpKind::Div},
        {"rem", BinOpKind::Rem},     {"and", BinOpKind::And},
        {"or", BinOpKind::Or},       {"xor", BinOpKind::Xor},
        {"shl", BinOpKind::Shl},     {"shr", BinOpKind::Shr},
        {"cmpeq", BinOpKind::CmpEQ}, {"cmpne", BinOpKind::CmpNE},
        {"cmplt", BinOpKind::CmpLT}, {"cmple", BinOpKind::CmpLE},
        {"cmpgt", BinOpKind::CmpGT}, {"cmpge", BinOpKind::CmpGE},
    };
    auto It = Map.find(Name);
    return It == Map.end() ? std::nullopt : std::optional(It->second);
  }

  void defineValue(const std::string &Name, Instruction *I) {
    I->setName(Name);
    if (Values.count(Name)) {
      error("redefinition of %" + Name);
      return;
    }
    Values[Name] = I;
  }

  Instruction *append(BasicBlock *BB, std::unique_ptr<Instruction> I) {
    Instruction *Raw = BB->append(std::move(I));
    // Terminators maintain predecessor lists.
    for (BasicBlock *S : Raw->successors())
      S->addPred(BB);
    return Raw;
  }

  void parseInstruction(const std::string &L, BasicBlock *BB) {
    std::vector<Tok> T = tokenize(L);
    dropMuChi(T);
    if (T.empty())
      return; // pure annotation line
    size_t I = 0;

    // Optional result prefix: "%name =" (register) or "name =" where the
    // following opcode is st/memphi (memory-version prefix: ignored).
    std::string ResultName;
    bool HasResult = false;
    if (T.size() >= 2 && T[1].K == Tok::Punct && T[1].P == '=' &&
        T[0].K == Tok::ValueRef) {
      // Could still be an array store "arr[i] = v"; ValueRef excludes it.
      ResultName = T[0].Text;
      HasResult = true;
      I = 2;
    } else if (T.size() >= 2 && T[0].K == Tok::Word && T[1].K == Tok::Punct &&
               T[1].P == '=' && T.size() >= 3 && T[2].K == Tok::Word &&
               (T[2].Text == "st" || T[2].Text == "memphi")) {
      I = 2; // memory-version prefix like "x.2 = st ..."
    }

    if (I >= T.size()) {
      error("empty instruction");
      return;
    }

    // Dispatch on the opcode token.
    if (T[I].K == Tok::Word) {
      const std::string &Op = T[I].Text;

      if (Op == "memphi") // memory-SSA construct: ignored
        return;

      if (auto BK = binOpFromName(Op)) {
        // add <a>, <b>
        if (I + 3 >= T.size()) {
          error("binary operator needs two operands");
          return;
        }
        auto Inst = std::make_unique<BinOpInst>(*BK, M->undef(), M->undef());
        Instruction *Raw = append(BB, std::move(Inst));
        Raw->setOperand(0, valueOperand(T[I + 1], Raw, 0));
        Raw->setOperand(1, valueOperand(T[I + 3], Raw, 1));
        if (HasResult)
          defineValue(ResultName, Raw);
        return;
      }
      if (Op == "ld") {
        // ld [ obj ]
        MemoryObject *Obj =
            I + 2 < T.size() ? objectOperand(T[I + 2]) : nullptr;
        if (!Obj)
          return;
        Instruction *Raw = append(BB, std::make_unique<LoadInst>(Obj));
        if (HasResult)
          defineValue(ResultName, Raw);
        return;
      }
      if (Op == "st") {
        // st [ obj ] , val
        MemoryObject *Obj =
            I + 2 < T.size() ? objectOperand(T[I + 2]) : nullptr;
        if (!Obj || I + 5 >= T.size()) {
          if (Obj)
            error("store needs a value");
          return;
        }
        auto Inst = std::make_unique<StoreInst>(Obj, M->undef());
        Instruction *Raw = append(BB, std::move(Inst));
        Raw->setOperand(0, valueOperand(T[I + 5], Raw, 0));
        return;
      }
      if (Op == "ptrload") {
        if (I + 1 >= T.size()) {
          error("ptrload needs an address");
          return;
        }
        auto Inst = std::make_unique<PtrLoadInst>(M->undef());
        Instruction *Raw = append(BB, std::move(Inst));
        Raw->setOperand(0, valueOperand(T[I + 1], Raw, 0));
        if (HasResult)
          defineValue(ResultName, Raw);
        return;
      }
      if (Op == "ptrstore") {
        if (I + 3 >= T.size()) {
          error("ptrstore needs address and value");
          return;
        }
        auto Inst = std::make_unique<PtrStoreInst>(M->undef(), M->undef());
        Instruction *Raw = append(BB, std::move(Inst));
        Raw->setOperand(0, valueOperand(T[I + 1], Raw, 0));
        Raw->setOperand(1, valueOperand(T[I + 3], Raw, 1));
        return;
      }
      if (Op == "call") {
        // call [@] f ( args )
        size_t J = I + 1;
        if (J < T.size() && T[J].K == Tok::Punct && T[J].P == '@')
          ++J;
        if (J >= T.size() || T[J].K != Tok::Word) {
          error("call needs a function name");
          return;
        }
        Function *Callee = M->getFunction(T[J].Text);
        if (!Callee) {
          error("call to unknown function '" + T[J].Text + "'");
          return;
        }
        std::vector<Tok> Args;
        for (size_t K = J + 1; K < T.size(); ++K)
          if (T[K].K == Tok::Int || T[K].K == Tok::ValueRef ||
              (T[K].K == Tok::Word && T[K].Text == "undef"))
            Args.push_back(T[K]);
        if (Args.size() != Callee->numArgs()) {
          error("call arity mismatch for '" + Callee->name() + "'");
          return;
        }
        std::vector<Value *> Placeholder(Args.size(), M->undef());
        auto Inst = std::make_unique<CallInst>(Callee, Placeholder,
                                               Callee->returnType());
        Instruction *Raw = append(BB, std::move(Inst));
        for (unsigned A = 0; A != Args.size(); ++A)
          Raw->setOperand(A, valueOperand(Args[A], Raw, A));
        if (HasResult)
          defineValue(ResultName, Raw);
        return;
      }
      if (Op == "print") {
        if (I + 1 >= T.size()) {
          error("print needs a value");
          return;
        }
        auto Inst = std::make_unique<PrintInst>(M->undef());
        Instruction *Raw = append(BB, std::move(Inst));
        Raw->setOperand(0, valueOperand(T[I + 1], Raw, 0));
        return;
      }
      if (Op == "br") {
        BasicBlock *Target =
            I + 1 < T.size() ? blockOperand(T[I + 1]) : nullptr;
        if (!Target)
          return;
        append(BB, std::make_unique<BrInst>(Target));
        return;
      }
      if (Op == "condbr") {
        // condbr v , l1 , l2
        if (I + 5 >= T.size()) {
          error("condbr needs condition and two labels");
          return;
        }
        BasicBlock *L1 = blockOperand(T[I + 3]);
        BasicBlock *L2 = blockOperand(T[I + 5]);
        if (!L1 || !L2)
          return;
        auto Inst = std::make_unique<CondBrInst>(M->undef(), L1, L2);
        Instruction *Raw = append(BB, std::move(Inst));
        Raw->setOperand(0, valueOperand(T[I + 1], Raw, 0));
        return;
      }
      if (Op == "ret") {
        if (I + 1 < T.size()) {
          auto Inst = std::make_unique<RetInst>(M->undef());
          Instruction *Raw = append(BB, std::move(Inst));
          Raw->setOperand(0, valueOperand(T[I + 1], Raw, 0));
        } else {
          append(BB, std::make_unique<RetInst>());
        }
        return;
      }
      if (Op == "phi") {
        // phi ( v : label , v : label , ... )
        auto Inst = std::make_unique<PhiInst>(Type::Int);
        auto *Phi = static_cast<PhiInst *>(append(BB, std::move(Inst)));
        unsigned OpIdx = 0;
        for (size_t K = I + 1; K < T.size(); ++K) {
          bool IsVal = T[K].K == Tok::Int || T[K].K == Tok::ValueRef ||
                       (T[K].K == Tok::Word && T[K].Text == "undef");
          if (!IsVal)
            continue;
          // v : label
          if (K + 2 >= T.size() || T[K + 1].P != ':') {
            error("phi operand needs ':label'");
            return;
          }
          BasicBlock *In = blockOperand(T[K + 2]);
          if (!In)
            return;
          Phi->addIncoming(M->undef(), In);
          Phi->setOperand(OpIdx, valueOperand(T[K], Phi, OpIdx));
          ++OpIdx;
          K += 2;
        }
        if (HasResult)
          defineValue(ResultName, Phi);
        return;
      }
      if (Op == "dummyload") {
        MemoryObject *Obj =
            I + 2 < T.size() ? objectOperand(T[I + 2]) : nullptr;
        if (!Obj)
          return;
        append(BB, std::make_unique<DummyLoadInst>(Obj));
        return;
      }
      // "arr [ idx ]" load or "arr [ idx ] = v" store.
      if (I + 1 < T.size() && T[I + 1].K == Tok::Punct && T[I + 1].P == '[') {
        MemoryObject *Obj = objectOperand(T[I]);
        if (!Obj)
          return;
        if (I + 3 >= T.size()) {
          error("array access needs an index");
          return;
        }
        // Find '=' after ']' to distinguish store from load.
        size_t AfterBracket = I + 4; // obj [ idx ] -> next token
        bool IsStore = AfterBracket < T.size() &&
                       T[AfterBracket].K == Tok::Punct &&
                       T[AfterBracket].P == '=';
        if (IsStore) {
          if (AfterBracket + 1 >= T.size()) {
            error("array store needs a value");
            return;
          }
          auto Inst =
              std::make_unique<ArrayStoreInst>(Obj, M->undef(), M->undef());
          Instruction *Raw = append(BB, std::move(Inst));
          Raw->setOperand(0, valueOperand(T[I + 2], Raw, 0));
          Raw->setOperand(1, valueOperand(T[AfterBracket + 1], Raw, 1));
        } else {
          auto Inst = std::make_unique<ArrayLoadInst>(Obj, M->undef());
          Instruction *Raw = append(BB, std::move(Inst));
          Raw->setOperand(0, valueOperand(T[I + 2], Raw, 0));
          if (HasResult)
            defineValue(ResultName, Raw);
        }
        return;
      }
      error("unknown instruction '" + Op + "'");
      return;
    }

    // "&obj" address-of.
    if (T[I].K == Tok::Punct && T[I].P == '&') {
      MemoryObject *Obj =
          I + 1 < T.size() ? objectOperand(T[I + 1]) : nullptr;
      if (!Obj)
        return;
      Obj->setAddressTaken();
      Instruction *Raw = append(BB, std::make_unique<AddrOfInst>(Obj));
      if (HasResult)
        defineValue(ResultName, Raw);
      return;
    }

    // Bare value after '=': a copy. "%t = %v" / "%t = 5".
    if (HasResult &&
        (T[I].K == Tok::Int || T[I].K == Tok::ValueRef ||
         (T[I].K == Tok::Word && T[I].Text == "undef"))) {
      auto Inst = std::make_unique<CopyInst>(M->undef());
      Instruction *Raw = append(BB, std::move(Inst));
      Raw->setOperand(0, valueOperand(T[I], Raw, 0));
      defineValue(ResultName, Raw);
      return;
    }

    error("cannot parse instruction: " + L);
  }

  void resolveFixups() {
    for (const Fixup &Fx : Fixups) {
      auto It = Values.find(Fx.Name);
      if (It == Values.end()) {
        Errors.push_back("line " + std::to_string(Fx.Line) +
                         ": undefined value %" + Fx.Name);
        continue;
      }
      Fx.I->setOperand(Fx.OpIdx, It->second);
    }
  }
};

} // namespace

std::unique_ptr<Module> srp::parseIR(const std::string &Source,
                                     std::vector<std::string> &Errors) {
  return IRParserImpl(Source, Errors).run();
}
