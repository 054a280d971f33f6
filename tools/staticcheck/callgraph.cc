// Cross-file function index, call graph, and per-function lock-effect
// summaries (DESIGN.md §14). This is the substrate the lock-order and
// blocking-under-lock passes stand on.
//
// The scanner is name-based and deliberately conservative:
//
//   * a definition is `name(params) [quals/annotations/ctor-init] { ... }`
//     at any nesting; the enclosing class is taken from an explicit
//     `Cls::name` qualifier or from lexical enclosure in a class body.
//   * a call site is `name(` where the preceding token is not another
//     identifier (which would make it a declaration) and `name` is not a
//     control-flow keyword.
//   * locks are canonicalized to "Class::member". A bare member name
//     resolves against the enclosing class; `obj->member` resolves
//     through obj's declared member/parameter type; an untyped receiver
//     falls back to the unique class declaring a mutex-like member with
//     that name, and an ambiguous one merges into "::member" (shared
//     identity — conservative, may over-connect).
//   * function-local mutexes get a per-definition identity
//     ("path:name@line::var") so deliberate inversions on locals in one
//     test body are caught without colliding across files.
//
// Known unsoundness (documented in DESIGN.md §14): calls through
// function pointers / std::function are invisible; virtual dispatch is
// approximated by unioning every definition with the callee's name;
// destructor side effects (e.g. `pool_.reset()` joining worker threads)
// are not modeled.
//
// src/common/mutex.h is excluded from the index: it is the lock
// implementation itself, and modeling its internals would alias every
// Mutex onto the wrapped std::mutex member.

#include <algorithm>
#include <cstddef>

#include "staticcheck.h"

namespace staticcheck {

namespace {

bool IsIdent(const Token& t) { return t.kind == TokKind::kIdent; }
bool IsPunct(const Token& t, const char* p) {
  return t.kind == TokKind::kPunct && t.text == p;
}

// Same naive matcher as cpp_scan.cc (kept local; both are tiny).
size_t MatchFwd(const std::vector<Token>& toks, size_t open) {
  const std::string& o = toks[open].text;
  std::string c;
  if (o == "(") c = ")";
  else if (o == "[") c = "]";
  else if (o == "{") c = "}";
  else if (o == "<") c = ">";
  else return toks.size();
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == o) ++depth;
    else if (toks[i].text == c && --depth == 0) return i;
  }
  return toks.size();
}

bool IsKeywordName(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch" || s == "return" || s == "sizeof" || s == "alignof" ||
         s == "decltype" || s == "new" || s == "delete" || s == "throw" ||
         s == "assert" || s == "defined" || s == "alignas" ||
         s == "noexcept" || s == "static_assert" || s == "co_await" ||
         s == "co_return" || s == "co_yield" || s == "typeid";
}

bool IsRaiiLockType(const std::string& s) {
  return s == "MutexLock" || s == "lock_guard" || s == "unique_lock" ||
         s == "scoped_lock";
}

bool IsRequiresMacro(const std::string& s) {
  return s == "REQUIRES" || s == "EXCLUSIVE_LOCKS_REQUIRED";
}

bool IsAcquireMacro(const std::string& s) {
  return s == "ACQUIRE" || s == "EXCLUSIVE_LOCK_FUNCTION";
}

bool IsTrailerAnnotation(const std::string& s) {
  return IsRequiresMacro(s) || IsAcquireMacro(s) || s == "RELEASE" ||
         s == "UNLOCK_FUNCTION" || s == "LOCKS_EXCLUDED" || s == "EXCLUDES" ||
         s == "TRY_ACQUIRE" || s == "NO_THREAD_SAFETY_ANALYSIS" ||
         s == "ASSERT_CAPABILITY" || s == "RETURN_CAPABILITY" ||
         s == "ACQUIRED_BEFORE" || s == "ACQUIRED_AFTER";
}

bool IsMutexTypeName(const std::string& s) {
  return s == "Mutex" || s == "mutex" || s == "shared_mutex" ||
         s == "recursive_mutex" || s == "timed_mutex";
}

// The lock implementation itself is not indexed (see file comment).
bool IsLockInfraFile(const std::string& path) {
  return path == "src/common/mutex.h";
}

struct ClassRange {
  std::string name;
  size_t open, close;  // token indices of the body braces
};

bool IsAnnotationMacroName(const std::string& id) {
  return IsTrailerAnnotation(id) || id == "GUARDED_BY" ||
         id == "PT_GUARDED_BY" || id == "SCOPED_CAPABILITY" ||
         id == "CAPABILITY";
}

// Finds every class/struct body token range (mirrors the head matching
// in FindClasses, which reports lines but not token spans).
std::vector<ClassRange> CollectClassRanges(const SourceFile& f) {
  std::vector<ClassRange> out;
  const auto& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t[i]) || (t[i].text != "class" && t[i].text != "struct")) {
      continue;
    }
    if (i > 0 && IsIdent(t[i - 1]) && t[i - 1].text == "enum") continue;
    size_t j = i + 1;
    while (j < t.size() && IsIdent(t[j]) &&
           IsAnnotationMacroName(t[j].text)) {
      ++j;
      if (j < t.size() && IsPunct(t[j], "(")) j = MatchFwd(t, j) + 1;
    }
    if (j >= t.size() || !IsIdent(t[j])) continue;
    std::string name = t[j].text;
    ++j;
    if (j < t.size() && IsPunct(t[j], "<")) j = MatchFwd(t, j) + 1;
    if (j < t.size() && IsIdent(t[j]) && t[j].text == "final") ++j;
    if (j < t.size() && IsPunct(t[j], ":")) {
      while (j < t.size() && !IsPunct(t[j], "{") && !IsPunct(t[j], ";")) ++j;
    }
    if (j >= t.size() || !IsPunct(t[j], "{")) continue;
    size_t close = MatchFwd(t, j);
    if (close >= t.size()) continue;
    out.push_back({std::move(name), j, close});
  }
  return out;
}

// Innermost class body containing token index `i`, or "".
std::string EnclosingClass(const std::vector<ClassRange>& ranges, size_t i) {
  std::string best;
  size_t best_span = static_cast<size_t>(-1);
  for (const auto& r : ranges) {
    if (i > r.open && i < r.close && r.close - r.open < best_span) {
      best = r.name;
      best_span = r.close - r.open;
    }
  }
  return best;
}

// ------------------------------------------------------ lock resolution

struct ResolveCtx {
  const ConcurrencyModel* model;
  const FunctionDef* fn;                       // function being scanned
  const std::map<std::string, std::string>* param_types;  // name -> class
  const std::set<std::string>* local_mutexes;  // function-local Mutex vars
};

std::string LocalLockId(const FunctionDef& fn, const std::string& var) {
  return fn.path + ":" + fn.name + "@" + std::to_string(fn.line) +
         "::" + var;
}

// Looks up member `member` as a mutex-like member: exactly one declaring
// class -> "Cls::member"; several -> merged "::member"; none -> "".
std::string MutexOwnerFallback(const ConcurrencyModel& m,
                               const std::string& member) {
  auto it = m.mutex_member_owners.find(member);
  if (it == m.mutex_member_owners.end() || it->second.empty()) return "";
  if (it->second.size() == 1) return *it->second.begin() + "::" + member;
  return "::" + member;  // ambiguous: merged identity (conservative)
}

// Resolves a lock expression (token texts, operators included, e.g.
// {"owner_", "->", "stats_mu_"}) to a canonical lock id, or "".
std::string ResolveLockExpr(const ResolveCtx& ctx,
                            const std::vector<std::string>& expr) {
  const ConcurrencyModel& m = *ctx.model;
  const FunctionDef& fn = *ctx.fn;
  // Strip leading address-of / deref.
  size_t b = 0;
  while (b < expr.size() && (expr[b] == "&" || expr[b] == "*")) ++b;
  std::vector<std::string> e(expr.begin() + static_cast<long>(b),
                             expr.end());
  if (e.empty()) return "";

  auto member_of = [&m](const std::string& cls,
                        const std::string& member) -> std::string {
    auto ci = m.class_members.find(cls);
    if (ci != m.class_members.end() && ci->second.count(member)) {
      return cls + "::" + member;
    }
    return "";
  };

  if (e.size() == 1) {
    const std::string& v = e[0];
    if (ctx.local_mutexes->count(v)) return LocalLockId(fn, v);
    if (!fn.cls.empty()) {
      std::string id = member_of(fn.cls, v);
      if (!id.empty()) return id;
    }
    return MutexOwnerFallback(m, v);
  }
  // A::B (scope-qualified: a global or static member).
  if (e.size() == 3 && e[1] == "::") return e[0] + "::" + e[2];
  // Chains: use the last member and its immediate receiver.
  //   this->B        -> enclosing-class member
  //   recv->B, recv.B -> via recv's declared type
  const std::string& memb = e.back();
  const std::string& op = e.size() >= 2 ? e[e.size() - 2] : std::string();
  if (op != "." && op != "->") return "";
  const std::string& recv = e.size() >= 3 ? e[e.size() - 3] : std::string();
  if (recv == "this" && !fn.cls.empty()) {
    std::string id = member_of(fn.cls, memb);
    if (!id.empty()) return id;
  }
  // Receiver typed as a member of the enclosing class, or a parameter.
  std::string recv_type;
  if (!fn.cls.empty()) {
    auto ci = m.class_members.find(fn.cls);
    if (ci != m.class_members.end()) {
      auto mi = ci->second.find(recv);
      if (mi != ci->second.end()) recv_type = mi->second.type;
    }
  }
  if (recv_type.empty()) {
    auto pi = ctx.param_types->find(recv);
    if (pi != ctx.param_types->end()) recv_type = pi->second;
  }
  if (!recv_type.empty()) {
    std::string id = member_of(recv_type, memb);
    if (!id.empty()) return id;
    // Type known but not indexed (opaque/system type): still qualify.
    if (m.class_members.count(recv_type)) return "";
    return recv_type + "::" + memb;
  }
  return MutexOwnerFallback(m, memb);
}

// ------------------------------------------------- definition scanning

// Result of parsing a candidate head at `(`-token `paren`.
struct HeadParse {
  bool is_definition = false;
  size_t body_open = 0;  // valid when is_definition
  size_t after = 0;      // token index to continue scanning from
  std::vector<std::pair<std::string, std::string>> annots;  // macro, arg
};

// Parses the trailer after a parameter list: cv/ref qualifiers,
// annotations, trailing return type, ctor-init list; decides whether a
// body follows. `close` is the `)` of the parameter list.
HeadParse ParseHead(const std::vector<Token>& t, size_t close) {
  HeadParse hp;
  size_t i = close + 1;
  bool saw_colon = false;
  while (i < t.size()) {
    const Token& tok = t[i];
    if (IsIdent(tok)) {
      const std::string& s = tok.text;
      if (s == "const" || s == "override" || s == "final" ||
          s == "mutable" || s == "try") {
        ++i;
        continue;
      }
      if (s == "noexcept") {
        ++i;
        if (i < t.size() && IsPunct(t[i], "(")) i = MatchFwd(t, i) + 1;
        continue;
      }
      if (IsTrailerAnnotation(s)) {
        std::string arg;
        ++i;
        if (i < t.size() && IsPunct(t[i], "(")) {
          size_t m = MatchFwd(t, i);
          for (size_t k = i + 1; k < m && k < t.size(); ++k) {
            if (!arg.empty()) arg += " ";
            arg += t[k].text;
          }
          i = m + 1;
        }
        hp.annots.emplace_back(s, arg);
        continue;
      }
      if (saw_colon) {
        // inside a ctor-init list: member names etc.
        ++i;
        continue;
      }
      break;  // some other identifier: not a definition head
    }
    if (IsPunct(tok, "&")) { ++i; continue; }
    if (IsPunct(tok, "&&")) { ++i; continue; }
    if (IsPunct(tok, "::") && saw_colon) { ++i; continue; }
    if (IsPunct(tok, "->")) {
      // Trailing return type: skip to the '{' / ';' / '=' that ends it.
      ++i;
      while (i < t.size()) {
        if (IsPunct(t[i], "{") || IsPunct(t[i], ";") || IsPunct(t[i], "=")) {
          break;
        }
        if (IsPunct(t[i], "(") || IsPunct(t[i], "[") || IsPunct(t[i], "<")) {
          size_t m = MatchFwd(t, i);
          if (m >= t.size()) return hp;
          i = m + 1;
          continue;
        }
        ++i;
      }
      continue;
    }
    if (IsPunct(tok, ":")) {
      saw_colon = true;  // ctor-init list (a definition if '{' follows it)
      ++i;
      continue;
    }
    if (IsPunct(tok, "(") || IsPunct(tok, "{")) {
      if (IsPunct(tok, "{") && !saw_colon) {
        hp.is_definition = true;
        hp.body_open = i;
        hp.after = i;  // caller scans the body itself
        return hp;
      }
      if (saw_colon) {
        // an initializer's argument group: skip it
        size_t m = MatchFwd(t, i);
        if (m >= t.size()) return hp;
        i = m + 1;
        // after an initializer: ',' continues the list, '{' is the body
        continue;
      }
      return hp;  // '(' with no ctor-init context: not a definition
    }
    if (IsPunct(tok, ",") && saw_colon) { ++i; continue; }
    break;  // ';', '=', ',' outside init list, ... : a declaration
  }
  hp.after = i;
  return hp;
}

// Extracts `name -> type` for parameters whose declared type is a plain
// class (possibly pointer/reference). Template-heavy parameters resolve
// to their innermost argument, mirroring MemberDecl::type.
std::map<std::string, std::string> ParseParams(const std::vector<Token>& t,
                                               size_t open, size_t close) {
  std::map<std::string, std::string> out;
  size_t seg_begin = open + 1;
  int depth = 0;
  for (size_t i = open + 1; i <= close && i < t.size(); ++i) {
    bool at_end = (i == close);
    if (!at_end && t[i].kind == TokKind::kPunct) {
      const std::string& p = t[i].text;
      if (p == "(" || p == "[" || p == "{" || p == "<") {
        size_t m = MatchFwd(t, i);
        if (m < close) {
          i = m;
          continue;
        }
      }
      if (p != ",") continue;
    }
    if (at_end || IsPunct(t[i], ",")) {
      // segment [seg_begin, i): last ident is the name, previous
      // non-qualifier ident is the type.
      std::string name, type;
      for (size_t k = seg_begin; k < i; ++k) {
        if (!IsIdent(t[k])) continue;
        const std::string& s = t[k].text;
        if (s == "const" || s == "volatile" || s == "struct") continue;
        if (!name.empty()) type = name;
        name = s;
      }
      if (!name.empty() && !type.empty()) out[name] = type;
      seg_begin = i + 1;
    }
  }
  (void)depth;
  return out;
}

struct PendingDef {
  FunctionDef def;
  size_t body_open, body_close;
  std::map<std::string, std::string> param_types;
  int file_index;
};

// ------------------------------------------------------- body scanning

struct HeldLock {
  std::string id;
  int depth;   // brace depth the RAII object lives at (0 for .lock())
  bool raii;
};

// Reads the identifier/operator chain ending just before token `i`
// (exclusive), longest suffix of idents joined by '.' / '->' / '::'.
std::vector<std::string> ReceiverChain(const std::vector<Token>& t,
                                       size_t i, size_t lo) {
  std::vector<std::string> rev;
  size_t k = i;
  bool want_ident = true;
  while (k > lo) {
    const Token& tok = t[k - 1];
    if (want_ident) {
      if (!IsIdent(tok) || IsKeywordName(tok.text)) break;
      rev.push_back(tok.text);
      want_ident = false;
    } else {
      if (tok.kind == TokKind::kPunct &&
          (tok.text == "." || tok.text == "->" || tok.text == "::")) {
        rev.push_back(tok.text);
        want_ident = true;
      } else {
        break;
      }
    }
    --k;
  }
  if (want_ident && !rev.empty()) rev.pop_back();  // dangling operator
  std::reverse(rev.begin(), rev.end());
  return rev;
}

// Collects the tokens of one argument group argument (first top-level
// argument inside parens at `open`).
std::vector<std::string> FirstArgTokens(const std::vector<Token>& t,
                                        size_t open, size_t close) {
  std::vector<std::string> out;
  for (size_t i = open + 1; i < close; ++i) {
    if (t[i].kind == TokKind::kPunct) {
      const std::string& p = t[i].text;
      if (p == ",") break;
      if (p == "(" || p == "[" || p == "{" || p == "<") {
        size_t m = MatchFwd(t, i);
        if (m < close) {
          // a nested group inside the first argument: not a plain lock
          // expression; bail.
          return {};
        }
      }
      out.push_back(p);
      continue;
    }
    out.push_back(t[i].text);
  }
  return out;
}

// Lambda body token ranges inside [open, close): a lambda's body runs
// whenever the closure is invoked — often on another thread — so locks
// held at the *creation* site must not leak into it.
std::vector<std::pair<size_t, size_t>> FindLambdaBodies(
    const std::vector<Token>& t, size_t open, size_t close) {
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t i = open + 1; i < close; ++i) {
    if (!IsPunct(t[i], "[")) continue;
    // `[[attr]]` / subscript after an identifier or ')' are not lambdas.
    if (i > 0 && (IsIdent(t[i - 1]) || IsPunct(t[i - 1], "]") ||
                  IsPunct(t[i - 1], ")"))) {
      continue;
    }
    size_t cap_close = MatchFwd(t, i);
    if (cap_close >= close) continue;
    size_t j = cap_close + 1;
    if (j < close && IsPunct(t[j], "(")) {
      size_t p = MatchFwd(t, j);
      if (p >= close) continue;
      j = p + 1;
    }
    // Skip specifiers: mutable, noexcept, trailing return type.
    while (j < close) {
      if (IsIdent(t[j]) &&
          (t[j].text == "mutable" || t[j].text == "noexcept" ||
           t[j].text == "constexpr")) {
        ++j;
        continue;
      }
      if (IsPunct(t[j], "->")) {
        ++j;
        while (j < close && !IsPunct(t[j], "{")) {
          if (IsPunct(t[j], "(") || IsPunct(t[j], "<")) {
            size_t p = MatchFwd(t, j);
            if (p >= close) break;
            j = p + 1;
            continue;
          }
          ++j;
        }
        continue;
      }
      break;
    }
    if (j < close && IsPunct(t[j], "{")) {
      size_t body_close = MatchFwd(t, j);
      if (body_close < close) out.emplace_back(j, body_close);
    }
  }
  return out;
}

void ScanBody(const ConcurrencyModel& m, const SourceFile& f,
              PendingDef* pd) {
  FunctionDef& fn = pd->def;
  const auto& t = f.tokens;

  // Function-local mutex declarations: `Mutex name(...)` / `{...}` / `;`.
  std::set<std::string> local_mutexes;
  for (size_t i = pd->body_open + 1; i + 1 < pd->body_close; ++i) {
    if (!IsIdent(t[i]) || !IsMutexTypeName(t[i].text)) continue;
    if (i > 0 && (IsPunct(t[i - 1], ".") || IsPunct(t[i - 1], "->") ||
                  IsPunct(t[i - 1], "::"))) {
      continue;
    }
    if (IsIdent(t[i + 1]) && !IsKeywordName(t[i + 1].text)) {
      local_mutexes.insert(t[i + 1].text);
    }
  }

  ResolveCtx ctx{&m, &fn, &pd->param_types, &local_mutexes};

  // Lambda bodies: locks held where the closure is *built* are not held
  // where it *runs*, so inside a lambda only locks acquired inside it
  // count. `mask_stack` carries (lambda close index, held-size mask).
  std::vector<std::pair<size_t, size_t>> lambdas =
      FindLambdaBodies(t, pd->body_open, pd->body_close);
  std::vector<std::pair<size_t, size_t>> mask_stack;

  std::vector<HeldLock> held;
  // REQUIRES(mu) seeds the held set for the whole body.
  for (const auto& req : fn.requires_locks) {
    held.push_back({req, 0, false});
  }

  auto held_ids = [&held, &mask_stack]() {
    size_t from = mask_stack.empty() ? 0 : mask_stack.back().second;
    std::vector<std::string> ids;
    for (size_t k = from; k < held.size(); ++k) ids.push_back(held[k].id);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  };

  // RAII guard variable -> lock id, for the condvar-wait exemption with
  // std::unique_lock (`cv.wait_for(lk, ...)` names the guard, not the
  // mutex).
  std::map<std::string, std::string> raii_vars;

  auto record_acq = [&](const std::string& id, int line,
                        const char* how, int depth, bool raii) {
    if (id.empty()) return;
    LockAcq acq;
    acq.lock = id;
    acq.line = line;
    acq.how = how;
    acq.held = held_ids();
    fn.acquires.push_back(std::move(acq));
    held.push_back({id, depth, raii});
  };

  int depth = 1;
  size_t i = pd->body_open + 1;
  while (i < pd->body_close) {
    const Token& tok = t[i];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == "{") {
        for (const auto& lr : lambdas) {
          if (lr.first == i) {
            mask_stack.emplace_back(lr.second, held.size());
            break;
          }
        }
        ++depth;
        ++i;
        continue;
      }
      if (tok.text == "}") {
        --depth;
        held.erase(std::remove_if(held.begin(), held.end(),
                                  [depth](const HeldLock& h) {
                                    return h.raii && h.depth > depth;
                                  }),
                   held.end());
        if (!mask_stack.empty() && mask_stack.back().first == i) {
          mask_stack.pop_back();
        }
        ++i;
        continue;
      }
      ++i;
      continue;
    }
    if (!IsIdent(tok)) { ++i; continue; }
    const std::string& id = tok.text;

    // RAII lock: `MutexLock name(expr[, expr...])`, also std::lock_guard
    // and friends with an optional template argument list.
    if (IsRaiiLockType(id) &&
        !(i > 0 && (IsPunct(t[i - 1], ".") || IsPunct(t[i - 1], "->")))) {
      size_t j = i + 1;
      if (j < pd->body_close && IsPunct(t[j], "<")) {
        size_t mm = MatchFwd(t, j);
        if (mm >= pd->body_close) { ++i; continue; }
        j = mm + 1;
      }
      if (j < pd->body_close && IsIdent(t[j]) &&
          j + 1 < pd->body_close && IsPunct(t[j + 1], "(")) {
        size_t open = j + 1;
        size_t close = MatchFwd(t, open);
        if (close < pd->body_close) {
          // Each top-level comma-separated argument is a lock.
          std::vector<std::string> cur;
          for (size_t k = open + 1; k <= close; ++k) {
            if (k == close || IsPunct(t[k], ",")) {
              std::string lid = ResolveLockExpr(ctx, cur);
              record_acq(lid, t[open].line, id.c_str(), depth, true);
              if (!lid.empty()) raii_vars[t[j].text] = lid;
              cur.clear();
              continue;
            }
            if (IsPunct(t[k], "(") || IsPunct(t[k], "[") ||
                IsPunct(t[k], "{")) {
              size_t mm = MatchFwd(t, k);
              if (mm < close) { k = mm; cur.clear(); continue; }
            }
            cur.push_back(t[k].text);
          }
          i = close + 1;
          continue;
        }
      }
      ++i;
      continue;
    }

    // Direct `expr.lock()` / `expr.unlock()` — the background merger's
    // daemon loop style. try_lock is conditional and ignored.
    if ((id == "lock" || id == "unlock") && i > 0 &&
        (IsPunct(t[i - 1], ".") || IsPunct(t[i - 1], "->")) &&
        i + 1 < pd->body_close && IsPunct(t[i + 1], "(")) {
      std::vector<std::string> chain =
          ReceiverChain(t, i - 1, pd->body_open);
      std::string lid = ResolveLockExpr(ctx, chain);
      if (id == "lock") {
        record_acq(lid, tok.line, "lock()", 0, false);
      } else if (!lid.empty()) {
        for (size_t k = held.size(); k-- > 0;) {
          if (held[k].id == lid) {
            held.erase(held.begin() + static_cast<long>(k));
            break;
          }
        }
      }
      i = MatchFwd(t, i + 1) + 1;
      continue;
    }

    // Call site: ident '(' whose predecessor is not another identifier
    // (`Foo bar(...)` is a declaration, not a call) — except statement
    // keywords, which legitimately precede calls (`return Tick();`).
    bool decl_like = i > 0 && IsIdent(t[i - 1]) &&
                     !(t[i - 1].text == "return" ||
                       t[i - 1].text == "co_return" ||
                       t[i - 1].text == "co_await" ||
                       t[i - 1].text == "co_yield" ||
                       t[i - 1].text == "else" || t[i - 1].text == "do");
    if (i + 1 < pd->body_close && IsPunct(t[i + 1], "(") &&
        !IsKeywordName(id) && !IsAnnotationMacroName(id) && !decl_like) {
      size_t open = i + 1;
      size_t close = MatchFwd(t, open);
      CallSite c;
      c.name = id;
      c.line = tok.line;
      c.held = held_ids();
      if (i >= 2 && IsPunct(t[i - 1], "::") && IsIdent(t[i - 2])) {
        c.qual = t[i - 2].text;
      } else if (i >= 2 &&
                 (IsPunct(t[i - 1], ".") || IsPunct(t[i - 1], "->"))) {
        std::vector<std::string> chain =
            ReceiverChain(t, i - 1, pd->body_open);
        if (!chain.empty()) {
          c.recv = chain.back();
          // Resolve the receiver's declared type here, where the
          // parameter and member maps are in scope.
          if (c.recv == "this") {
            c.recv_type = fn.cls;
          } else {
            if (!fn.cls.empty()) {
              auto ci = m.class_members.find(fn.cls);
              if (ci != m.class_members.end()) {
                auto mi = ci->second.find(c.recv);
                if (mi != ci->second.end()) c.recv_type = mi->second.type;
              }
            }
            if (c.recv_type.empty()) {
              auto pi = pd->param_types.find(c.recv);
              if (pi != pd->param_types.end()) c.recv_type = pi->second;
            }
          }
        }
      }
      if (close < pd->body_close) {
        std::vector<std::string> arg = FirstArgTokens(t, open, close);
        bool plain = !arg.empty();
        for (const auto& s : arg) {
          if (s == "(" || s == ")" || s == "[" || s == "]" || s == "{" ||
              s == "}" || s == ",") {
            plain = false;
          }
        }
        if (plain) {
          if (arg.size() == 1 && raii_vars.count(arg[0])) {
            c.first_arg_lock = raii_vars[arg[0]];  // unique_lock variable
          } else {
            c.first_arg_lock = ResolveLockExpr(ctx, arg);
          }
        }
      }
      fn.calls.push_back(std::move(c));
      ++i;  // scan inside the argument list too (nested calls)
      continue;
    }
    ++i;
  }
}

}  // namespace

// ---------------------------------------------------------- model build

ConcurrencyModel BuildConcurrencyModel(const Analysis& a) {
  ConcurrencyModel m;

  // Pass 1: class member index across every file.
  for (const auto& f : a.files) {
    if (IsLockInfraFile(f.path)) continue;
    for (const auto& cd : FindClasses(f)) {
      auto& members = m.class_members[cd.name];
      for (const auto& mem : cd.members) {
        members.emplace(mem.name, mem);
        if (mem.is_mutex_like) {
          m.mutex_member_owners[mem.name].insert(cd.name);
        }
      }
    }
  }

  // Pass 2: function definitions + annotation harvest from declarations.
  std::vector<PendingDef> pending;
  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      decl_requires;  // (cls, name) -> REQUIRES args from declarations
  std::vector<int> file_of;
  for (size_t fi = 0; fi < a.files.size(); ++fi) {
    const SourceFile& f = a.files[fi];
    if (IsLockInfraFile(f.path)) continue;
    const auto& t = f.tokens;
    std::vector<ClassRange> ranges = CollectClassRanges(f);
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      if (!IsPunct(t[i + 1], "(")) continue;
      if (!IsIdent(t[i]) || IsKeywordName(t[i].text)) continue;
      if (IsAnnotationMacroName(t[i].text)) continue;
      size_t open = i + 1;
      size_t close = MatchFwd(t, open);
      if (close >= t.size()) continue;
      // Member-access calls are never definitions; `::`-qualified heads
      // and type-preceded heads can be.
      std::string qual;
      bool member_access = false;
      if (i >= 2 && IsPunct(t[i - 1], "::") && IsIdent(t[i - 2])) {
        qual = t[i - 2].text;
      } else if (i >= 1 &&
                 (IsPunct(t[i - 1], ".") || IsPunct(t[i - 1], "->"))) {
        member_access = true;
      }
      HeadParse hp = ParseHead(t, close);
      if (!hp.is_definition) {
        // Harvest REQUIRES from declarations so a summary exists even
        // when the annotation lives on the header prototype.
        if (!hp.annots.empty() && !member_access) {
          std::string cls =
              !qual.empty() ? qual : EnclosingClass(ranges, i);
          for (const auto& an : hp.annots) {
            if (IsRequiresMacro(an.first) && !an.second.empty()) {
              decl_requires[{cls, t[i].text}].push_back(an.second);
            }
          }
        }
        continue;
      }
      if (member_access) continue;
      size_t body_close = MatchFwd(t, hp.body_open);
      if (body_close >= t.size()) continue;

      PendingDef pd;
      pd.def.name = t[i].text;
      pd.def.cls = !qual.empty() ? qual : EnclosingClass(ranges, i);
      pd.def.path = f.path;
      pd.def.line = t[i].line;
      pd.body_open = hp.body_open;
      pd.body_close = body_close;
      pd.param_types = ParseParams(t, open, close);
      pd.file_index = static_cast<int>(fi);
      for (const auto& an : hp.annots) {
        if ((IsRequiresMacro(an.first) || IsAcquireMacro(an.first)) &&
            !an.second.empty()) {
          // Stored raw here; canonicalized after the member index and
          // the function list exist (needs the enclosing class).
          pd.def.requires_locks.push_back(
              (IsAcquireMacro(an.first) ? "@acquire " : "") + an.second);
        }
      }
      pending.push_back(std::move(pd));
      file_of.push_back(static_cast<int>(fi));
      // Do not skip the body: nested definitions (lambdas bind to the
      // enclosing function; local structs get their own defs) are found
      // by the same scan.
    }
  }

  // Pass 3: canonicalize annotations and scan bodies.
  for (auto& pd : pending) {
    // Merge REQUIRES harvested from a matching declaration.
    auto di = decl_requires.find({pd.def.cls, pd.def.name});
    if (di != decl_requires.end()) {
      for (const auto& arg : di->second) {
        pd.def.requires_locks.push_back(arg);
      }
    }
    std::set<std::string> local_none;
    ResolveCtx ctx{&m, &pd.def, &pd.param_types, &local_none};
    std::vector<std::string> canon;
    std::vector<std::pair<std::string, bool>> raw;  // (expr, is_acquire)
    for (const auto& r : pd.def.requires_locks) {
      bool is_acq = r.rfind("@acquire ", 0) == 0;
      raw.emplace_back(is_acq ? r.substr(9) : r, is_acq);
    }
    pd.def.requires_locks.clear();
    for (const auto& [expr_text, is_acq] : raw) {
      // Split the annotation argument into tokens on whitespace (the
      // harvest joined them with single spaces).
      std::vector<std::string> expr;
      size_t b = 0;
      while (b < expr_text.size()) {
        size_t e = expr_text.find(' ', b);
        expr.push_back(expr_text.substr(
            b, e == std::string::npos ? std::string::npos : e - b));
        if (e == std::string::npos) break;
        b = e + 1;
      }
      std::string lid = ResolveLockExpr(ctx, expr);
      if (lid.empty()) continue;
      if (is_acq) {
        LockAcq acq;
        acq.lock = lid;
        acq.line = pd.def.line;
        acq.how = "ACQUIRE";
        pd.def.acquires.push_back(std::move(acq));
      } else {
        pd.def.requires_locks.push_back(lid);
      }
    }
    std::sort(pd.def.requires_locks.begin(), pd.def.requires_locks.end());
    pd.def.requires_locks.erase(std::unique(pd.def.requires_locks.begin(),
                                            pd.def.requires_locks.end()),
                                pd.def.requires_locks.end());
    canon.clear();
  }
  for (auto& pd : pending) {
    ScanBody(m, a.files[static_cast<size_t>(pd.file_index)], &pd);
    m.functions.push_back(std::move(pd.def));
  }
  for (size_t i = 0; i < m.functions.size(); ++i) {
    m.by_name[m.functions[i].name].push_back(i);
  }
  return m;
}

std::vector<size_t> ResolveCall(const ConcurrencyModel& m,
                                const FunctionDef& caller,
                                const CallSite& c) {
  auto it = m.by_name.find(c.name);
  if (it == m.by_name.end()) return {};
  const std::vector<size_t>& cands = it->second;

  auto with_cls = [&](const std::string& cls) {
    std::vector<size_t> out;
    for (size_t i : cands) {
      if (m.functions[i].cls == cls) out.push_back(i);
    }
    return out;
  };

  // Explicitly qualified: `Cls::name(...)`.
  if (!c.qual.empty()) {
    std::vector<size_t> exact = with_cls(c.qual);
    if (!exact.empty()) return exact;
    return {};  // a namespace qualifier or an unindexed class: unknown
  }
  // Receiver call: only resolve when the receiver's declared type was
  // visible at the scan (member, parameter, or `this`). An `auto` local
  // or an untyped chain stays unresolved — unioning every `size`/`count`
  // definition in the tree behind it manufactures phantom edges.
  if (!c.recv.empty()) {
    if (c.recv_type.empty()) return {};
    std::vector<size_t> exact = with_cls(c.recv_type);
    if (!exact.empty()) return exact;
    // Known in-tree class but no definition under that exact name: the
    // receiver is an interface (Transport, Codec, ...) — union every
    // member function with this name as the virtual-dispatch
    // approximation. A type we never indexed (std:: containers) resolves
    // to nothing.
    if (m.class_members.count(c.recv_type)) {
      std::vector<size_t> members;
      for (size_t i : cands) {
        if (!m.functions[i].cls.empty()) members.push_back(i);
      }
      return members;
    }
    return {};
  }
  // Unqualified: a method of the caller's own class, else a free
  // function. Never "any member anywhere" — an unqualified name cannot
  // call a method of an unrelated class.
  if (!caller.cls.empty()) {
    std::vector<size_t> own = with_cls(caller.cls);
    if (!own.empty()) return own;
  }
  return with_cls("");
}

}  // namespace staticcheck
