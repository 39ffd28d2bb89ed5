#include "lua/parser.hpp"

#include "lua/arith.hpp"
#include "lua/lexer.hpp"
#include "lua/value.hpp"

namespace mantle::lua {

namespace {

struct BinPriority {
  int left;
  int right;  // smaller right => right-associative
};

bool bin_op_for(Tok t, BinOp& op, BinPriority& pri) {
  switch (t) {
    case Tok::Or: op = BinOp::Or; pri = {1, 1}; return true;
    case Tok::And: op = BinOp::And; pri = {2, 2}; return true;
    case Tok::Lt: op = BinOp::Lt; pri = {3, 3}; return true;
    case Tok::Gt: op = BinOp::Gt; pri = {3, 3}; return true;
    case Tok::Le: op = BinOp::Le; pri = {3, 3}; return true;
    case Tok::Ge: op = BinOp::Ge; pri = {3, 3}; return true;
    case Tok::Ne: op = BinOp::Ne; pri = {3, 3}; return true;
    case Tok::Eq: op = BinOp::Eq; pri = {3, 3}; return true;
    case Tok::Concat: op = BinOp::Concat; pri = {5, 4}; return true;
    case Tok::Plus: op = BinOp::Add; pri = {6, 6}; return true;
    case Tok::Minus: op = BinOp::Sub; pri = {6, 6}; return true;
    case Tok::Star: op = BinOp::Mul; pri = {7, 7}; return true;
    case Tok::Slash: op = BinOp::Div; pri = {7, 7}; return true;
    case Tok::Percent: op = BinOp::Mod; pri = {7, 7}; return true;
    case Tok::Caret: op = BinOp::Pow; pri = {10, 9}; return true;
    default: return false;
  }
}

constexpr int kUnaryPriority = 8;

class Parser {
 public:
  Parser(std::vector<Token> toks, std::string chunk)
      : toks_(std::move(toks)), chunk_(std::move(chunk)) {}

  ChunkPtr run() {
    auto chunk = std::make_shared<Chunk>();
    chunk->name = chunk_;
    chunk->block = parse_block();
    expect(Tok::Eof);
    return chunk;
  }

 private:
  const Token& cur() const { return toks_[pos_]; }
  const Token& ahead() const {
    return pos_ + 1 < toks_.size() ? toks_[pos_ + 1] : toks_.back();
  }
  Token take() { return toks_[pos_++]; }
  bool check(Tok t) const { return cur().kind == t; }
  bool accept(Tok t) {
    if (!check(t)) return false;
    ++pos_;
    return true;
  }
  Token expect(Tok t) {
    if (!check(t))
      fail(std::string("expected '") + tok_name(t) + "', got '" +
           tok_name(cur().kind) + "'");
    return take();
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw LuaError(chunk_ + ":" + std::to_string(cur().line) + ": " + msg);
  }

  static bool block_terminator(Tok t) {
    return t == Tok::Eof || t == Tok::End || t == Tok::Else ||
           t == Tok::Elseif || t == Tok::Until;
  }

  ExprPtr make_expr(Expr::Kind k) {
    auto e = std::make_unique<Expr>();
    e->kind = k;
    e->line = cur().line;
    return e;
  }

  Block parse_block() {
    Block b;
    while (!block_terminator(cur().kind)) {
      if (accept(Tok::Semi)) continue;
      const bool last = check(Tok::Return) || check(Tok::Break);
      b.stmts.push_back(parse_statement());
      if (last) {
        while (accept(Tok::Semi)) {}
        if (!block_terminator(cur().kind))
          fail("'return'/'break' must be the last statement in a block");
        break;
      }
    }
    return b;
  }

  StmtPtr make_stmt(Stmt::Kind k) {
    auto s = std::make_unique<Stmt>();
    s->kind = k;
    s->line = cur().line;
    return s;
  }

  StmtPtr parse_statement() {
    switch (cur().kind) {
      case Tok::If: return parse_if();
      case Tok::While: return parse_while();
      case Tok::Repeat: return parse_repeat();
      case Tok::For: return parse_for();
      case Tok::Do: return parse_do();
      case Tok::Local: return parse_local();
      case Tok::Function: return parse_function_stat();
      case Tok::Return: return parse_return();
      case Tok::Break: {
        auto s = make_stmt(Stmt::Kind::Break);
        take();
        return s;
      }
      default: return parse_expr_stat();
    }
  }

  StmtPtr parse_if() {
    auto s = make_stmt(Stmt::Kind::If);
    expect(Tok::If);
    for (;;) {
      ExprPtr cond = parse_expr();
      expect(Tok::Then);
      Block body = parse_block();
      s->clauses.emplace_back(std::move(cond), std::move(body));
      if (accept(Tok::Elseif)) continue;
      if (accept(Tok::Else)) {
        s->else_body = parse_block();
      }
      expect(Tok::End);
      return s;
    }
  }

  StmtPtr parse_while() {
    auto s = make_stmt(Stmt::Kind::While);
    expect(Tok::While);
    s->e1 = parse_expr();
    expect(Tok::Do);
    s->body = parse_block();
    expect(Tok::End);
    return s;
  }

  StmtPtr parse_repeat() {
    auto s = make_stmt(Stmt::Kind::Repeat);
    expect(Tok::Repeat);
    s->body = parse_block();
    expect(Tok::Until);
    s->e1 = parse_expr();
    return s;
  }

  StmtPtr parse_for() {
    expect(Tok::For);
    std::vector<std::string> names;
    names.push_back(expect(Tok::Name).text);
    if (check(Tok::Assign)) {
      auto s = make_stmt(Stmt::Kind::NumFor);
      s->names = std::move(names);
      take();
      s->e1 = parse_expr();
      expect(Tok::Comma);
      s->e2 = parse_expr();
      if (accept(Tok::Comma)) s->e3 = parse_expr();
      expect(Tok::Do);
      s->body = parse_block();
      expect(Tok::End);
      return s;
    }
    auto s = make_stmt(Stmt::Kind::GenFor);
    while (accept(Tok::Comma)) names.push_back(expect(Tok::Name).text);
    s->names = std::move(names);
    expect(Tok::In);
    s->rhs = parse_exprlist();
    expect(Tok::Do);
    s->body = parse_block();
    expect(Tok::End);
    return s;
  }

  StmtPtr parse_do() {
    auto s = make_stmt(Stmt::Kind::Do);
    expect(Tok::Do);
    s->body = parse_block();
    expect(Tok::End);
    return s;
  }

  StmtPtr parse_local() {
    expect(Tok::Local);
    if (accept(Tok::Function)) {
      // `local function f ...` declares f before the body so it can recurse.
      auto s = make_stmt(Stmt::Kind::Local);
      s->local_function = true;
      const std::string name = expect(Tok::Name).text;
      s->names.push_back(name);
      auto fe = make_expr(Expr::Kind::Function);
      fe->fn = parse_function_body(name);
      s->rhs.push_back(std::move(fe));
      return s;
    }
    auto s = make_stmt(Stmt::Kind::Local);
    s->names.push_back(expect(Tok::Name).text);
    while (accept(Tok::Comma)) s->names.push_back(expect(Tok::Name).text);
    if (accept(Tok::Assign)) s->rhs = parse_exprlist();
    return s;
  }

  StmtPtr parse_function_stat() {
    expect(Tok::Function);
    // funcname: Name {'.' Name} [':' Name]
    auto target = make_expr(Expr::Kind::Name);
    target->str = expect(Tok::Name).text;
    std::string fname = target->str;
    bool is_method = false;
    while (check(Tok::Dot) || check(Tok::Colon)) {
      const bool method = check(Tok::Colon);
      take();
      auto idx = make_expr(Expr::Kind::Index);
      auto key = make_expr(Expr::Kind::String);
      key->str = expect(Tok::Name).text;
      fname += (method ? ":" : ".") + key->str;
      idx->a = std::move(target);
      idx->b = std::move(key);
      target = std::move(idx);
      if (method) {
        is_method = true;
        break;
      }
    }
    auto fe = make_expr(Expr::Kind::Function);
    fe->fn = parse_function_body(fname);
    if (is_method) fe->fn->params.insert(fe->fn->params.begin(), "self");
    auto s = make_stmt(Stmt::Kind::Assign);
    s->lhs.push_back(std::move(target));
    s->rhs.push_back(std::move(fe));
    return s;
  }

  std::shared_ptr<FunctionDef> parse_function_body(const std::string& name) {
    auto def = std::make_shared<FunctionDef>();
    def->name = name.empty() ? "<anonymous>" : name;
    def->line = cur().line;
    expect(Tok::LParen);
    if (!check(Tok::RParen)) {
      for (;;) {
        if (accept(Tok::Ellipsis)) {
          def->is_vararg = true;
          break;
        }
        def->params.push_back(expect(Tok::Name).text);
        if (!accept(Tok::Comma)) break;
      }
    }
    expect(Tok::RParen);
    def->body = parse_block();
    expect(Tok::End);
    return def;
  }

  StmtPtr parse_return() {
    auto s = make_stmt(Stmt::Kind::Return);
    expect(Tok::Return);
    if (!block_terminator(cur().kind) && !check(Tok::Semi))
      s->rhs = parse_exprlist();
    return s;
  }

  StmtPtr parse_expr_stat() {
    ExprPtr e = parse_suffixed();
    if (check(Tok::Assign) || check(Tok::Comma)) {
      auto s = make_stmt(Stmt::Kind::Assign);
      auto check_assignable = [this](const Expr& x) {
        if (x.kind != Expr::Kind::Name && x.kind != Expr::Kind::Index)
          fail("cannot assign to this expression");
      };
      check_assignable(*e);
      s->lhs.push_back(std::move(e));
      while (accept(Tok::Comma)) {
        auto lhs = parse_suffixed();
        check_assignable(*lhs);
        s->lhs.push_back(std::move(lhs));
      }
      expect(Tok::Assign);
      s->rhs = parse_exprlist();
      return s;
    }
    if (e->kind != Expr::Kind::Call && e->kind != Expr::Kind::Method)
      fail("syntax error: expression is not a statement (expected call or assignment)");
    auto s = make_stmt(Stmt::Kind::ExprStat);
    s->rhs.push_back(std::move(e));
    return s;
  }

  std::vector<ExprPtr> parse_exprlist() {
    std::vector<ExprPtr> list;
    list.push_back(parse_expr());
    while (accept(Tok::Comma)) list.push_back(parse_expr());
    return list;
  }

  ExprPtr parse_expr(int limit = 0) {
    ExprPtr left;
    UnOp uop;
    if (check(Tok::Not)) {
      uop = UnOp::Not;
      goto unary;
    }
    if (check(Tok::Minus)) {
      uop = UnOp::Neg;
      goto unary;
    }
    if (check(Tok::Hash)) {
      uop = UnOp::Len;
      goto unary;
    }
    left = parse_simple();
    goto binloop;

  unary: {
    auto u = make_expr(Expr::Kind::Unary);
    take();
    u->uop = uop;
    u->a = parse_expr(kUnaryPriority);
    if (uop == UnOp::Neg && u->a->kind == Expr::Kind::Number) {
      u->kind = Expr::Kind::Number;
      u->number = -u->a->number;
      u->a.reset();
    }
    left = std::move(u);
  }

  binloop:
    for (;;) {
      BinOp op;
      BinPriority pri;
      if (!bin_op_for(cur().kind, op, pri) || pri.left <= limit) break;
      auto bin = make_expr(Expr::Kind::Binary);
      take();
      bin->bop = op;
      bin->b = parse_expr(pri.right);
      bin->a = std::move(left);
      // Fold arithmetic on two literals. Comparison, concat and logic stay
      // for the runtime: they carry type-error and short-circuit semantics.
      if (is_arith(op) && bin->a->kind == Expr::Kind::Number &&
          bin->b->kind == Expr::Kind::Number) {
        bin->kind = Expr::Kind::Number;
        bin->number = arith(op, bin->a->number, bin->b->number);
        bin->a.reset();
        bin->b.reset();
      }
      left = std::move(bin);
    }
    return left;
  }

  ExprPtr parse_simple() {
    switch (cur().kind) {
      case Tok::Nil: {
        auto e = make_expr(Expr::Kind::Nil);
        take();
        return e;
      }
      case Tok::True: {
        auto e = make_expr(Expr::Kind::True);
        take();
        return e;
      }
      case Tok::False: {
        auto e = make_expr(Expr::Kind::False);
        take();
        return e;
      }
      case Tok::Number: {
        auto e = make_expr(Expr::Kind::Number);
        e->number = take().number;
        return e;
      }
      case Tok::String: {
        auto e = make_expr(Expr::Kind::String);
        e->str = take().text;
        return e;
      }
      case Tok::Ellipsis: {
        auto e = make_expr(Expr::Kind::Vararg);
        take();
        return e;
      }
      case Tok::Function: {
        take();
        auto e = make_expr(Expr::Kind::Function);
        e->fn = parse_function_body("");
        return e;
      }
      case Tok::LBrace: return parse_table();
      default: return parse_suffixed();
    }
  }

  ExprPtr parse_primary() {
    if (check(Tok::Name)) {
      auto e = make_expr(Expr::Kind::Name);
      e->str = take().text;
      return e;
    }
    if (accept(Tok::LParen)) {
      ExprPtr e = parse_expr();
      expect(Tok::RParen);
      return e;
    }
    fail(std::string("unexpected symbol '") + tok_name(cur().kind) + "'");
  }

  ExprPtr parse_suffixed() {
    ExprPtr e = parse_primary();
    for (;;) {
      switch (cur().kind) {
        case Tok::Dot: {
          take();
          auto idx = make_expr(Expr::Kind::Index);
          auto key = make_expr(Expr::Kind::String);
          key->str = expect(Tok::Name).text;
          idx->a = std::move(e);
          idx->b = std::move(key);
          e = std::move(idx);
          break;
        }
        case Tok::LBracket: {
          take();
          auto idx = make_expr(Expr::Kind::Index);
          idx->b = parse_expr();
          expect(Tok::RBracket);
          idx->a = std::move(e);
          e = std::move(idx);
          break;
        }
        case Tok::Colon: {
          take();
          auto call = make_expr(Expr::Kind::Method);
          call->str = expect(Tok::Name).text;
          call->list = parse_call_args();
          call->a = std::move(e);
          e = std::move(call);
          break;
        }
        case Tok::LParen:
        case Tok::String:
        case Tok::LBrace: {
          auto call = make_expr(Expr::Kind::Call);
          call->list = parse_call_args();
          call->a = std::move(e);
          e = std::move(call);
          break;
        }
        default:
          return e;
      }
    }
  }

  std::vector<ExprPtr> parse_call_args() {
    std::vector<ExprPtr> args;
    if (check(Tok::String)) {
      auto e = make_expr(Expr::Kind::String);
      e->str = take().text;
      args.push_back(std::move(e));
      return args;
    }
    if (check(Tok::LBrace)) {
      args.push_back(parse_table());
      return args;
    }
    expect(Tok::LParen);
    if (!check(Tok::RParen)) args = parse_exprlist();
    expect(Tok::RParen);
    return args;
  }

  ExprPtr parse_table() {
    auto e = make_expr(Expr::Kind::Table);
    expect(Tok::LBrace);
    while (!check(Tok::RBrace)) {
      if (check(Tok::LBracket)) {
        take();
        ExprPtr key = parse_expr();
        expect(Tok::RBracket);
        expect(Tok::Assign);
        e->fields.emplace_back(std::move(key), parse_expr());
      } else if (check(Tok::Name) && ahead().kind == Tok::Assign) {
        auto key = make_expr(Expr::Kind::String);
        key->str = take().text;
        take();  // '='
        e->fields.emplace_back(std::move(key), parse_expr());
      } else {
        e->list.push_back(parse_expr());
      }
      if (!accept(Tok::Comma) && !accept(Tok::Semi)) break;
    }
    expect(Tok::RBrace);
    return e;
  }

  std::vector<Token> toks_;
  std::string chunk_;
  std::size_t pos_ = 0;
};

}  // namespace

ChunkPtr parse(const std::string& src, const std::string& chunk_name) {
  ChunkPtr chunk = Parser(tokenize(src, chunk_name), chunk_name).run();
  resolve_chunk(*chunk);
  return chunk;
}

}  // namespace mantle::lua
