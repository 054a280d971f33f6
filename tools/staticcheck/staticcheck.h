#ifndef SCIDB_TOOLS_STATICCHECK_STATICCHECK_H_
#define SCIDB_TOOLS_STATICCHECK_STATICCHECK_H_

// Self-hosted cross-file static analyzer (DESIGN.md §11). Compiled
// in-tree with no LLVM dependency: a real C++ token scanner (comments,
// strings, raw strings, line splices) feeds four cross-file passes that
// the per-line regex gate could never express —
//
//   layering        #include DAG across src/ modules checked against
//                   tools/staticcheck/layering.manifest; cycles and
//                   undeclared edges fail the build.
//   lock-coverage   every mutable non-atomic data member of a class that
//                   owns a Mutex must be GUARDED_BY/const, closing the
//                   hole where -Werror=thread-safety silently skips
//                   unannotated members.
//   protocol-drift  tracked wire enums (MessageType, ValueTag, ExprTag,
//                   DataType, CodecType, StatusCode) cross-referenced
//                   against every switch and declared dispatch table; a
//                   new enumerator without a handler is a build error
//                   even when a `default:` would swallow -Wswitch.
//   status-flow     (void)-cast discards of calls whose callee returns
//                   Status/Result anywhere in the tree need a same-line
//                   `// status-ignored: <why>` tag.
//   lock-order      whole-program "acquires B while holding A" graph
//                   built over the cross-file call graph; any cycle is
//                   reported with its full witness path (files:lines
//                   through the call chain). Static complement to
//                   TSan's deadlock detector in the TSan build, which
//                   only sees acquisitions that actually execute.
//   blocking-under-lock
//                   a manifest of blocking roots (RPC Call, socket
//                   send/recv, ThreadPool waits, file I/O, sleeps) is
//                   propagated transitively to a "may-block" attribute;
//                   a may-block call made while a Mutex is held is a
//                   diagnostic. Condition-variable waits that release a
//                   held lock (cv.wait(mu_)) are exempt for that lock.
//
// plus the portable per-line rules migrated from tools/lint.py (no-throw,
// no-naked-new, status-ladder, include-guard, metrics-state,
// no-raw-thread, no-raw-socket, net-test-clock, atomic-order).
//
// Suppression: a `NOLINT` on the offending line (optionally scoped,
// `NOLINT(check-a, check-b)`) or a baseline entry (see LoadBaseline).
// Output: human "path:line: [check] message" plus optional SARIF 2.1.0.
//
// This tool intentionally builds as C++17 with the system compiler only;
// being cheap to build is what lets lint.py bootstrap it on bare CI
// runners without a cmake tree.

#include <map>
#include <set>
#include <string>
#include <vector>

namespace staticcheck {

// --------------------------------------------------------------- lexer

enum class TokKind { kIdent, kNumber, kString, kChar, kPunct };

struct Token {
  TokKind kind;
  std::string text;
  int line;  // 1-based physical line of the token's first character
};

// One preprocessor directive (tokens inside directives are not emitted
// into the main token stream; passes that care read these instead).
struct Directive {
  std::string kind;  // "include", "ifndef", "define", "endif", ...
  std::string rest;  // raw text after the kind, comments stripped, trimmed
  int line;
};

struct SourceFile {
  std::string path;  // repo-relative, '/' separators (e.g. "src/net/rpc.h")
  std::string text;  // raw contents

  // Filled by Lex():
  std::vector<std::string> raw_lines;
  // raw_lines with comment bodies and string/char contents blanked,
  // preserving line structure — the view the migrated per-line rules run
  // on (same semantics as the old lint.py strip).
  std::vector<std::string> code_lines;
  std::vector<Token> tokens;
  std::vector<Directive> directives;
};

// Tokenizes f->text into f->tokens / code_lines / directives. Handles
// //-comments (including line-spliced continuations), /* */ comments
// (which do not nest, per the language), string/char literals with
// escapes, raw strings R"delim(...)delim", and backslash-newline splices.
void Lex(SourceFile* f);

// ---------------------------------------------------------- diagnostics

struct Diagnostic {
  std::string path;
  int line = 1;
  std::string check;    // "layering", "lock-coverage", ...
  std::string message;
};

// ------------------------------------------------------ structure scans

struct EnumDef {
  std::string name;  // short name, e.g. "MessageType"
  std::vector<std::string> enumerators;
  std::string path;
  int line;
};

struct SwitchStmt {
  int line;
  // Qualified case labels, e.g. "MessageType::kAck"; unqualified labels
  // are recorded verbatim.
  std::vector<std::string> case_labels;
  bool has_default = false;
};

struct MemberDecl {
  std::string name;
  int line;
  bool is_mutex_like = false;   // Mutex / std::mutex / CondVar / ...
  bool is_safe = false;         // const / atomic / GUARDED_BY / reference
  // Best-effort element/pointee type for call-graph receiver resolution:
  // the innermost template-argument identifier when one exists
  // (`std::unique_ptr<net::RpcClient>` -> "RpcClient"), else the last
  // top-level type identifier (`DistributedArray* owner_` ->
  // "DistributedArray").
  std::string type;
};

struct ClassDef {
  std::string name;
  int line;
  bool owns_mutex = false;  // has a by-value Mutex/std::mutex member
  std::vector<MemberDecl> members;
};

// A `(void)call(...)` style discard.
struct VoidDiscard {
  int line;
  std::string callee;  // first called identifier after the cast
};

std::vector<EnumDef> FindEnums(const SourceFile& f);
std::vector<SwitchStmt> FindSwitches(const SourceFile& f);
std::vector<ClassDef> FindClasses(const SourceFile& f);
// Names of functions declared (anywhere in `f`) returning Status or
// Result<...>, by token pattern `Status name(` / `Result<...> name(`.
void CollectFallibleNames(const SourceFile& f, std::set<std::string>* out);
std::vector<VoidDiscard> FindVoidDiscards(const SourceFile& f);

// ----------------------------------------------- call graph / lock effects

struct Analysis;  // defined below

// One direct lock acquisition inside a function body: a MutexLock /
// lock_guard / unique_lock / scoped_lock RAII site, a direct
// `mu.lock()`, or an ACQUIRE() annotation on the function itself.
struct LockAcq {
  std::string lock;  // canonical id, e.g. "DistributedArray::stats_mu_"
  int line;
  std::string how;                // "MutexLock", "lock()", "ACQUIRE", ...
  std::vector<std::string> held;  // locks already held at this site
};

// One call site inside a function body, with the lock context it runs in.
struct CallSite {
  std::string name;  // callee short name, e.g. "SyncStoredStats"
  std::string qual;  // explicit qualifier for `Qual::name(...)` calls
  std::string recv;  // receiver identifier for obj.name / obj->name calls
  // Declared class of the receiver when the scanner can see it (member
  // or parameter type, "this"); "" when unknown. Calls on receivers of
  // unknown type are NOT resolved — unioning every `size`/`count`
  // definition behind an `auto` local manufactures phantom edges.
  std::string recv_type;
  int line;
  std::vector<std::string> held;  // canonical lock ids held at this call
  // When the first argument is a lock expression that resolves (the
  // condition-variable wait pattern `cv_.wait(mu_)`), its canonical id.
  std::string first_arg_lock;
};

// A function or member-function definition with its lock-effect summary.
struct FunctionDef {
  std::string cls;   // enclosing/qualifying class, "" for free functions
  std::string name;  // short name
  std::string path;
  int line;                               // line of the definition head
  std::vector<LockAcq> acquires;          // direct acquisitions
  std::vector<CallSite> calls;            // direct call sites
  std::vector<std::string> requires_locks;  // REQUIRES/EXCLUSIVE_LOCKS_REQUIRED
};

// Whole-program function index: every definition, indexed by short name,
// plus the class-member info the resolver needs.
struct ConcurrencyModel {
  std::vector<FunctionDef> functions;
  std::map<std::string, std::vector<size_t>> by_name;  // short name -> idx
  // class name -> member name -> (is_mutex_like, declared type)
  std::map<std::string, std::map<std::string, MemberDecl>> class_members;
  // member name -> classes declaring a mutex-like member with that name
  // (the unique-class fallback for untyped receivers).
  std::map<std::string, std::set<std::string>> mutex_member_owners;
};

// Builds the function index + per-function lock-effect summaries over
// every file in `a`. src/common/mutex.h is excluded: it *is* the lock
// implementation, and modeling its internals would alias every Mutex onto
// the wrapped std::mutex member.
ConcurrencyModel BuildConcurrencyModel(const Analysis& a);

// Conservative name+class call resolution (exposed for tests): indices
// into m.functions that call site `c` made from `caller` may target.
std::vector<size_t> ResolveCall(const ConcurrencyModel& m,
                                const FunctionDef& caller,
                                const CallSite& c);

// ------------------------------------------------------------- analysis

struct Config {
  // layering.manifest contents: "module: dep dep ..." lines.
  std::string layering_manifest;
  // protocol.manifest contents: "enum Name" and
  // "dispatch Enum path callee [except members...]" lines.
  std::string protocol_manifest;
  // Baseline contents: "check|path|message" lines.
  std::string baseline;
  // blocking.manifest contents: "root name [cv]" lines naming functions
  // that block by themselves; `cv` marks condition-variable waits whose
  // first argument is the lock they atomically release.
  std::string blocking_manifest;
};

struct Analysis {
  std::vector<SourceFile> files;  // already lexed
  Config config;

  // Filled by RunAnalysis:
  std::vector<Diagnostic> diagnostics;  // after NOLINT + baseline filter
  std::vector<std::string> notes;       // non-fatal (stale baseline, ...)
  size_t stale_baseline = 0;            // count of unused baseline entries
};

// Individual passes (exposed for the test suite).
void RunLayeringPass(const Analysis& a, std::vector<Diagnostic>* out);
void RunLockCoveragePass(const Analysis& a, std::vector<Diagnostic>* out);
void RunProtocolDriftPass(const Analysis& a, std::vector<Diagnostic>* out);
void RunStatusFlowPass(const Analysis& a, std::vector<Diagnostic>* out);
void RunTextualPass(const Analysis& a, std::vector<Diagnostic>* out);
void RunLockOrderPass(const Analysis& a, std::vector<Diagnostic>* out);
void RunBlockingPass(const Analysis& a, std::vector<Diagnostic>* out);

// Runs every pass, then filters NOLINT'd lines and baseline entries and
// sorts by (path, line, check). Returns the number of surviving
// diagnostics (0 = clean).
size_t RunAnalysis(Analysis* a);

// SARIF 2.1.0 document for the (post-filter) diagnostics.
std::string ToSarif(const Analysis& a);
// Human-readable one-per-line report.
std::string ToText(const Analysis& a);

// ---------------------------------------------------------- check registry

// Every check the analyzer can emit, with the prose `--explain` serves
// and SARIF embeds as rule metadata.
struct CheckInfo {
  const char* id;         // "lock-order"
  const char* summary;    // one line, for --list-checks
  const char* rationale;  // one paragraph, for --explain
  const char* example;    // a minimal triggering example
};

const std::vector<CheckInfo>& AllChecks();
const CheckInfo* FindCheck(const std::string& id);  // nullptr if unknown

}  // namespace staticcheck

#endif  // SCIDB_TOOLS_STATICCHECK_STATICCHECK_H_
