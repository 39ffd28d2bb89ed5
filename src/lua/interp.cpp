#include "lua/interp.hpp"

#include "lua/arith.hpp"
#include "lua/parser.hpp"

namespace mantle::lua {

Interp::Interp() : globals_(make_table()) { install_stdlib(); }

void Interp::runtime_error(int line, const std::string& msg) const {
  throw LuaError(chunk_name_ + ":" + std::to_string(line) + ": " + msg);
}

void Interp::step(int line) {
  ++steps_used_;
  if (budget_ != 0 && steps_used_ > budget_)
    runtime_error(line, "instruction budget exceeded (possible infinite loop)");
}

// ---------------------------------------------------------------------------
// Frame pool
// ---------------------------------------------------------------------------

FramePtr Interp::acquire_frame(std::size_t slots, FramePtr parent) {
  FramePtr f;
  if (!frame_pool_.empty()) {
    f = std::move(frame_pool_.back());
    frame_pool_.pop_back();
  } else {
    f = std::make_shared<Frame>();
  }
  f->parent = std::move(parent);
  f->slots.resize(slots);  // pooled frames are cleared, so all slots are nil
  return f;
}

void Interp::release_frame(FramePtr& f) {
  // use_count == 1 means no closure captured the frame: recycle it. A
  // captured frame keeps its slots and parent chain alive for the closure.
  if (f.use_count() == 1) {
    f->slots.clear();  // drop value refs, keep capacity
    f->parent.reset();
    frame_pool_.push_back(std::move(f));
  }
  f.reset();
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

CompiledChunk compile(const std::string& src, const std::string& chunk_name) {
  CompiledChunk c;
  try {
    c.chunk = parse(src, chunk_name);
  } catch (const LuaError& e) {
    c.error = e.what();
  }
  return c;
}

CompiledChunk compile_expr(const std::string& expr_src,
                           const std::string& chunk_name) {
  return compile("return (" + expr_src + ")", chunk_name);
}

RunResult Interp::run(const CompiledChunk& cc) {
  RunResult r;
  steps_used_ = 0;
  if (!cc.ok()) {
    r.error = cc.error;
    return r;
  }
  chunk_name_ = cc.chunk->name;
  try {
    FramePtr top = acquire_frame(cc.chunk->frame_slots, nullptr);
    ExecState st = exec_stmts(cc.chunk->block, top);
    release_frame(top);
    r.ok = true;
    if (st.flow == Flow::Return) r.values = std::move(st.ret);
  } catch (const LuaError& e) {
    r.error = e.what();
  }
  return r;
}

RunResult Interp::run(const std::string& src, const std::string& chunk_name) {
  return run(compile(src, chunk_name));
}

RunResult Interp::eval(const std::string& expr_src, const std::string& chunk_name) {
  return run(compile_expr(expr_src, chunk_name));
}

RunResult Interp::call(const Value& fn, std::vector<Value> args) {
  RunResult r;
  if (!fn.is_callable()) {
    r.error = "attempt to call a " + std::string(fn.type_name()) + " value";
    return r;
  }
  steps_used_ = 0;
  try {
    r.values = call_callable(fn.callable(), std::move(args));
    r.ok = true;
  } catch (const LuaError& e) {
    r.error = e.what();
  }
  return r;
}

void Interp::set_global(const std::string& name, Value v) {
  globals_->set_str(name, std::move(v));
}

Value Interp::get_global(const std::string& name) const {
  return globals_->get_str(name);
}

void Interp::set_function(const std::string& name, Callable::Builtin fn) {
  set_global(name, Value(make_builtin(name, std::move(fn))));
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

Interp::ExecState Interp::exec_stmts(const Block& block, const FramePtr& frame) {
  for (const StmtPtr& s : block.stmts) {
    ExecState st = exec_stmt(*s, frame);
    if (st.flow != Flow::Normal) return st;
  }
  return {};
}

Interp::ExecState Interp::exec_block(const Block& block, const FramePtr& frame) {
  if (block.frame_slots < 0) return exec_stmts(block, frame);
  FramePtr inner =
      acquire_frame(static_cast<std::size_t>(block.frame_slots), frame);
  ExecState st = exec_stmts(block, inner);
  release_frame(inner);
  return st;
}

Interp::ExecState Interp::exec_stmt(const Stmt& s, const FramePtr& frame) {
  step(s.line);
  switch (s.kind) {
    case Stmt::Kind::ExprStat:
      eval_multi(*s.rhs[0], frame);
      return {};

    case Stmt::Kind::Assign: {
      std::vector<Value> vals = eval_exprlist(s.rhs, frame);
      vals.resize(s.lhs.size());
      for (std::size_t i = 0; i < s.lhs.size(); ++i)
        assign(*s.lhs[i], std::move(vals[i]), frame);
      return {};
    }

    case Stmt::Kind::Local: {
      std::vector<Value> vals = eval_exprlist(s.rhs, frame);
      vals.resize(s.slots.size());
      for (std::size_t i = 0; i < s.slots.size(); ++i)
        frame->slots[s.slots[i]] = std::move(vals[i]);
      return {};
    }

    case Stmt::Kind::If: {
      for (const auto& [cond, body] : s.clauses) {
        if (eval_expr(*cond, frame).truthy()) return exec_block(body, frame);
      }
      if (s.else_body) return exec_block(*s.else_body, frame);
      return {};
    }

    case Stmt::Kind::While: {
      while (eval_expr(*s.e1, frame).truthy()) {
        step(s.line);
        ExecState st = exec_block(s.body, frame);
        if (st.flow == Flow::Break) break;
        if (st.flow == Flow::Return) return st;
      }
      return {};
    }

    case Stmt::Kind::Repeat: {
      const bool own_frame = s.body.frame_slots >= 0;
      for (;;) {
        step(s.line);
        FramePtr target =
            own_frame
                ? acquire_frame(static_cast<std::size_t>(s.body.frame_slots),
                                frame)
                : frame;
        ExecState st = exec_stmts(s.body, target);
        // `until` sees locals declared in the body (Lua scoping rule).
        const bool done =
            st.flow == Flow::Break ||
            (st.flow == Flow::Normal && eval_expr(*s.e1, target).truthy());
        if (own_frame) release_frame(target);
        if (st.flow == Flow::Return) return st;
        if (done) break;
      }
      return {};
    }

    case Stmt::Kind::NumFor: {
      const Value vstart = eval_expr(*s.e1, frame);
      const Value vstop = eval_expr(*s.e2, frame);
      Value vstep = s.e3 ? eval_expr(*s.e3, frame) : Value(1.0);
      const auto start = vstart.to_number();
      const auto stop = vstop.to_number();
      const auto stepv = vstep.to_number();
      if (!start || !stop || !stepv)
        runtime_error(s.line, "'for' bounds must be numbers");
      if (*stepv == 0.0) runtime_error(s.line, "'for' step is zero");
      const bool own_frame = s.body.frame_slots >= 0;
      for (double i = *start;
           (*stepv > 0.0) ? (i <= *stop) : (i >= *stop); i += *stepv) {
        step(s.line);
        FramePtr target =
            own_frame
                ? acquire_frame(static_cast<std::size_t>(s.body.frame_slots),
                                frame)
                : frame;
        target->slots[s.slots[0]] = Value(i);
        ExecState st = exec_stmts(s.body, target);
        if (own_frame) release_frame(target);
        if (st.flow == Flow::Break) break;
        if (st.flow == Flow::Return) return st;
      }
      return {};
    }

    case Stmt::Kind::GenFor: {
      // for vars in f, s, ctrl do ... end
      std::vector<Value> iter = eval_exprlist(s.rhs, frame);
      iter.resize(3);
      Value fn = iter[0];
      Value state = iter[1];
      Value control = iter[2];
      if (!fn.is_callable())
        runtime_error(s.line, "'for in' iterator is not callable");
      const bool own_frame = s.body.frame_slots >= 0;
      for (;;) {
        step(s.line);
        std::vector<Value> args{state, control};
        std::vector<Value> vals = call_callable(fn.callable(), std::move(args));
        vals.resize(std::max(vals.size(), s.slots.size()));
        if (vals[0].is_nil()) break;
        control = vals[0];
        FramePtr target =
            own_frame
                ? acquire_frame(static_cast<std::size_t>(s.body.frame_slots),
                                frame)
                : frame;
        for (std::size_t i = 0; i < s.slots.size(); ++i)
          target->slots[s.slots[i]] = vals[i];
        ExecState st = exec_stmts(s.body, target);
        if (own_frame) release_frame(target);
        if (st.flow == Flow::Break) break;
        if (st.flow == Flow::Return) return st;
      }
      return {};
    }

    case Stmt::Kind::Do:
      return exec_block(s.body, frame);

    case Stmt::Kind::Return: {
      ExecState st;
      st.flow = Flow::Return;
      st.ret = eval_exprlist(s.rhs, frame);
      return st;
    }

    case Stmt::Kind::Break: {
      ExecState st;
      st.flow = Flow::Break;
      return st;
    }
  }
  return {};
}

void Interp::assign(const Expr& target, Value v, const FramePtr& frame) {
  if (target.kind == Expr::Kind::Name) {
    if (target.ref == Expr::RefKind::Local) {
      walk(frame, target.hops)->slots[target.slot] = std::move(v);
    } else {
      globals_->set_str(target.str, std::move(v));
    }
    return;
  }
  // Index assignment: a[b] = v
  Value obj = eval_expr(*target.a, frame);
  if (!obj.is_table())
    runtime_error(target.line, "attempt to index a " +
                                   std::string(obj.type_name()) + " value");
  // Constant string keys (a.b sugar, a["b"]) skip Value construction.
  if (target.b->kind == Expr::Kind::String) {
    step(target.b->line);
    obj.table()->set_str(target.b->str, std::move(v));
    return;
  }
  Value key = eval_expr(*target.b, frame);
  try {
    obj.table()->set(key, std::move(v));
  } catch (const LuaError& e) {
    runtime_error(target.line, e.what());
  }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

std::vector<Value> Interp::eval_exprlist(const std::vector<ExprPtr>& list,
                                         const FramePtr& frame) {
  std::vector<Value> out;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i + 1 == list.size()) {
      // Last expression expands all of its results.
      std::vector<Value> vals = eval_multi(*list[i], frame);
      for (Value& v : vals) out.push_back(std::move(v));
    } else {
      out.push_back(eval_expr(*list[i], frame));
    }
  }
  return out;
}

std::vector<Value> Interp::eval_multi(const Expr& e, const FramePtr& frame) {
  if (e.kind == Expr::Kind::Call || e.kind == Expr::Kind::Method)
    return eval_call(e, frame);
  return {eval_expr(e, frame)};
}

Value Interp::eval_expr(const Expr& e, const FramePtr& frame) {
  step(e.line);
  switch (e.kind) {
    case Expr::Kind::Nil: return {};
    case Expr::Kind::True: return Value(true);
    case Expr::Kind::False: return Value(false);
    case Expr::Kind::Number: return Value(e.number);
    case Expr::Kind::String: return Value(e.str);
    case Expr::Kind::Vararg:
      runtime_error(e.line, "'...' is not supported outside function calls");

    case Expr::Kind::Name: {
      if (e.ref == Expr::RefKind::Local)
        return walk(frame, e.hops)->slots[e.slot];
      return globals_->get_str(e.str);
    }

    case Expr::Kind::Index: {
      Value obj = eval_expr(*e.a, frame);
      if (!obj.is_table())
        runtime_error(e.line, "attempt to index a " +
                                  std::string(obj.type_name()) + " value" +
                                  (e.a->kind == Expr::Kind::Name
                                       ? " (global '" + e.a->str + "')"
                                       : ""));
      // Constant keys use the string interned in the AST node — no Value
      // (and no std::string) construction per access.
      if (e.b->kind == Expr::Kind::String) {
        step(e.b->line);
        return obj.table()->get_str(e.b->str);
      }
      if (e.b->kind == Expr::Kind::Number) {
        step(e.b->line);
        return obj.table()->get_num(e.b->number);
      }
      Value key = eval_expr(*e.b, frame);
      try {
        return obj.table()->get(key);
      } catch (const LuaError& err) {
        runtime_error(e.line, err.what());
      }
    }

    case Expr::Kind::Call:
    case Expr::Kind::Method: {
      std::vector<Value> vals = eval_call(e, frame);
      return vals.empty() ? Value{} : std::move(vals.front());
    }

    case Expr::Kind::Function: {
      auto c = std::make_shared<Callable>();
      c->name = e.fn->name;
      c->def = e.fn.get();
      c->closure = frame;
      c->owner = e.fn;  // pins the FunctionDef (and its body) alive
      return Value(std::move(c));
    }

    case Expr::Kind::Table: return eval_table(e, frame);
    case Expr::Kind::Binary: return eval_binary(e, frame);
    case Expr::Kind::Unary: return eval_unary(e, frame);
  }
  return {};
}

Value Interp::eval_table(const Expr& e, const FramePtr& frame) {
  TablePtr t = make_table();
  double idx = 1.0;
  for (std::size_t i = 0; i < e.list.size(); ++i) {
    if (i + 1 == e.list.size()) {
      // Trailing call expands into consecutive array slots.
      std::vector<Value> vals = eval_multi(*e.list[i], frame);
      for (Value& v : vals) t->set_num(idx++, std::move(v));
    } else {
      t->set_num(idx++, eval_expr(*e.list[i], frame));
    }
  }
  for (const auto& [k, v] : e.fields) {
    Value key = eval_expr(*k, frame);
    try {
      t->set(key, eval_expr(*v, frame));
    } catch (const LuaError& err) {
      runtime_error(e.line, err.what());
    }
  }
  return Value(std::move(t));
}

double Interp::arith_operand(const Value& v, int line, const char* what) const {
  const auto n = v.to_number();
  if (!n)
    runtime_error(line, std::string("attempt to perform arithmetic on a ") +
                            v.type_name() + " value (" + what + ")");
  return *n;
}

Value Interp::eval_binary(const Expr& e, const FramePtr& frame) {
  // Short-circuit operators return one of their operand values, like Lua.
  if (e.bop == BinOp::And) {
    Value a = eval_expr(*e.a, frame);
    return a.truthy() ? eval_expr(*e.b, frame) : a;
  }
  if (e.bop == BinOp::Or) {
    Value a = eval_expr(*e.a, frame);
    return a.truthy() ? a : eval_expr(*e.b, frame);
  }

  Value a = eval_expr(*e.a, frame);
  Value b = eval_expr(*e.b, frame);

  if (is_arith(e.bop)) {
    const double x = arith_operand(a, e.line, "left operand");
    const double y = arith_operand(b, e.line, "right operand");
    return Value(arith(e.bop, x, y));
  }
  switch (e.bop) {
    case BinOp::Concat: {
      auto piece = [&](const Value& v) -> std::string {
        if (v.is_string()) return v.str();
        if (v.is_number()) return v.to_display_string();
        runtime_error(e.line, std::string("attempt to concatenate a ") +
                                  v.type_name() + " value");
      };
      return Value(piece(a) + piece(b));
    }
    case BinOp::Eq: return Value(a.equals(b));
    case BinOp::Ne: return Value(!a.equals(b));
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge: {
      if (a.is_number() && b.is_number()) {
        const double x = a.number();
        const double y = b.number();
        switch (e.bop) {
          case BinOp::Lt: return Value(x < y);
          case BinOp::Le: return Value(x <= y);
          case BinOp::Gt: return Value(x > y);
          default: return Value(x >= y);
        }
      }
      if (a.is_string() && b.is_string()) {
        const int c = a.str().compare(b.str());
        switch (e.bop) {
          case BinOp::Lt: return Value(c < 0);
          case BinOp::Le: return Value(c <= 0);
          case BinOp::Gt: return Value(c > 0);
          default: return Value(c >= 0);
        }
      }
      runtime_error(e.line, std::string("attempt to compare ") + a.type_name() +
                                " with " + b.type_name());
    }
    default:
      runtime_error(e.line, "internal: unexpected binary operator");
  }
}

Value Interp::eval_unary(const Expr& e, const FramePtr& frame) {
  Value a = eval_expr(*e.a, frame);
  switch (e.uop) {
    case UnOp::Neg: return Value(-arith_operand(a, e.line, "operand"));
    case UnOp::Not: return Value(!a.truthy());
    case UnOp::Len:
      if (a.is_string()) return Value(static_cast<double>(a.str().size()));
      if (a.is_table()) return Value(a.table()->length());
      runtime_error(e.line, std::string("attempt to get length of a ") +
                                a.type_name() + " value");
  }
  return {};
}

std::vector<Value> Interp::eval_call(const Expr& e, const FramePtr& frame) {
  Value fn;
  std::vector<Value> args;
  if (e.kind == Expr::Kind::Method) {
    Value obj = eval_expr(*e.a, frame);
    if (!obj.is_table())
      runtime_error(e.line, "attempt to call method on a " +
                                std::string(obj.type_name()) + " value");
    fn = obj.table()->get_str(e.str);
    args.push_back(std::move(obj));
  } else {
    fn = eval_expr(*e.a, frame);
  }
  for (std::size_t i = 0; i < e.list.size(); ++i) {
    if (i + 1 == e.list.size()) {
      std::vector<Value> vals = eval_multi(*e.list[i], frame);
      for (Value& v : vals) args.push_back(std::move(v));
    } else {
      args.push_back(eval_expr(*e.list[i], frame));
    }
  }
  if (!fn.is_callable()) {
    std::string hint;
    if (e.kind == Expr::Kind::Call && e.a->kind == Expr::Kind::Name)
      hint = " (global '" + e.a->str + "')";
    runtime_error(e.line, "attempt to call a " + std::string(fn.type_name()) +
                              " value" + hint);
  }
  return call_callable(fn.callable(), std::move(args));
}

std::vector<Value> Interp::call_callable(const CallablePtr& fn,
                                         std::vector<Value> args) {
  if (++call_depth_ > kMaxCallDepth) {
    --call_depth_;
    throw LuaError(chunk_name_ + ": call stack overflow in '" + fn->name + "'");
  }
  struct DepthGuard {
    int& d;
    ~DepthGuard() { --d; }
  } guard{call_depth_};

  if (fn->builtin) return fn->builtin(args, *this);

  const FunctionDef& def = *fn->def;
  FramePtr f = acquire_frame(def.frame_slots, fn->closure);
  const std::size_t nparams = def.params.size();  // params are slots 0..n-1
  for (std::size_t i = 0; i < nparams && i < args.size(); ++i)
    f->slots[i] = std::move(args[i]);
  ExecState st = exec_stmts(def.body, f);
  release_frame(f);
  if (st.flow == Flow::Return) return std::move(st.ret);
  return {};
}

std::string check_syntax(const std::string& src, const std::string& chunk_name) {
  try {
    parse(src, chunk_name);
    return "";
  } catch (const LuaError& e) {
    return e.what();
  }
}

}  // namespace mantle::lua
