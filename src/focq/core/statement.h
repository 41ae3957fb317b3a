// The statement language shared by every front end: the four statement kinds
// check/count/term/update, the batch line grammar, and the one definition of
// what executing a statement means and how its result renders as text.
//
// The paper's three problems — model checking A |= phi, counting |phi(A)|
// (Corollary 5.6) and ground-term evaluation t^A — plus tuple updates
// (DESIGN.md §3e) are the statements. focq_cli --batch, the server's request
// paths, focq_logreplay and the serve client all go through this module, so
// a statement answers with the same text wherever it is run (the
// serial-replay contract of DESIGN.md §3g relies on that).
//
// A statement runs in two steps. PrepareStatement parses the text and checks
// its symbols against the signature; a failure there means malformed input.
// ExecuteStatement evaluates or applies it; a failure there (deadline,
// overflow, an update the structure rejects) is a per-statement error.
#ifndef FOCQ_CORE_STATEMENT_H_
#define FOCQ_CORE_STATEMENT_H_

#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <string_view>

#include "focq/core/api.h"
#include "focq/logic/expr.h"
#include "focq/structure/signature.h"
#include "focq/structure/update.h"
#include "focq/util/status.h"

namespace focq {

/// The four statement kinds. The values are the wire protocol's frame kind
/// bytes (serve/protocol.h), so a statement frame converts by a cast.
enum class StatementKind : std::uint8_t {
  kCheck = 0x01,   // decide A |= phi for a sentence     -> "true" / "false"
  kCount = 0x02,   // the counting problem |phi(A)|      -> decimal
  kTerm = 0x03,    // a ground counting term t^A         -> decimal
  kUpdate = 0x04,  // "insert|delete <symbol> <elem>..." -> "applied" / "noop"
};

/// "check", "count", "term" or "update".
const char* StatementKindName(StatementKind kind);

/// The inverse of StatementKindName; nullopt for any other word.
std::optional<StatementKind> StatementKindFromWord(std::string_view word);

/// One statement as written: its kind and its unparsed text.
struct StatementLine {
  StatementKind kind = StatementKind::kCheck;
  std::string text;
};

/// Reads the batch grammar from a stream, one statement per line. Blank
/// lines and lines whose first non-blank character is '#' are skipped;
/// every other line is "<kind> <text>" — leading blanks, the kind word, one
/// blank or tab, then the text (empty when the line has no separator).
class BatchReader {
 public:
  explicit BatchReader(std::istream& in) : in_(in) {}

  /// The next statement, nullopt at end of input, or InvalidArgument
  /// ("line N: expected 'check', 'count', 'term' or 'update', got 'X'") for
  /// an unknown kind word.
  Result<std::optional<StatementLine>> Next();

  /// 1-based number of the line Next() last read.
  int lineno() const { return lineno_; }

 private:
  std::istream& in_;
  int lineno_ = 0;
};

/// A parsed, symbol-checked statement. Exactly one payload is meaningful:
/// `formula` for check/count, `term` for term, `update` for update.
struct PreparedStatement {
  StatementKind kind = StatementKind::kCheck;
  Formula formula;
  Term term;
  TupleUpdate update;
};

/// Parses `text` as a statement of `kind` against `sig`: ParseFormula or
/// ParseTerm followed by CheckSymbols (unknown symbols and arity mismatches
/// would otherwise abort inside the evaluators), or ParseUpdate. Errors are
/// those of the parser or checker, unchanged.
Result<PreparedStatement> PrepareStatement(StatementKind kind,
                                           const std::string& text,
                                           const Signature& sig);

/// Evaluates a check/count/term statement against `a` with `options` and
/// renders the result: "true"/"false" or the decimal value. Safe to call
/// concurrently over one structure and one shared options.context (the
/// server's snapshot reads). An update fails with kUnsupported: it needs the
/// writable overload.
Result<std::string> ExecuteStatement(const PreparedStatement& statement,
                                     const Structure& a,
                                     const EvalOptions& options);

/// As above, and applies an update to `*a`: through `options.context` when
/// set — repairing its cached artifacts in place, observed through the sinks
/// of `options` — or directly on the structure otherwise. Renders "applied"
/// or "noop".
Result<std::string> ExecuteStatement(const PreparedStatement& statement,
                                     Structure* a, const EvalOptions& options);

}  // namespace focq

#endif  // FOCQ_CORE_STATEMENT_H_
