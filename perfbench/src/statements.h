// Statement streams for the three workloads, the seeded input structures
// they run over, and the one serial statement executor every workload and
// every answer check goes through.
#ifndef PERFBENCH_STATEMENTS_H_
#define PERFBENCH_STATEMENTS_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "focq/core/api.h"
#include "focq/util/rng.h"
#include "spans.h"

namespace perfbench {

/// The four statement kinds of the batch / wire grammar.
enum class Kind { kCheck, kCount, kTerm, kUpdate };

struct Statement {
  Kind kind = Kind::kCount;
  std::string text;
};

/// "check", "count", "term" or "update".
const char* KindWord(Kind kind);

/// A structure over {E/2, R/1}: the undirected graph `family` ("bounded4":
/// random graph of maximum degree 4; "tree": random recursive tree) on `n`
/// vertices, E symmetric, plus a unary R holding on ~30% of the vertices.
/// Returned in the focq text format, so every workload loads it through
/// ReadStructure.
std::string MakeInputText(const std::string& family, std::size_t n,
                          std::uint64_t seed);

/// The paper's ||A|| of a structure in that text format (0 if it does not
/// load).
std::size_t SizeNorm(const std::string& text);

/// Runs one statement through `session` and returns the text the server
/// would answer with ("true", "42", "applied"), or the error. Records the
/// parse and evaluate/apply_update spans on `spans` (may be disabled).
focq::Result<std::string> Execute(focq::Session& session, const Statement& st,
                                  SpanRecorder* spans, std::int64_t op);

/// A parametrised FOC1(P) statement: `text` with {a} and {b} replaced by
/// constants drawn from [a_lo, a_hi] x [b_lo, b_hi]. Every template has
/// width <= 2 and radius <= 2.
struct Template {
  Kind kind;
  const char* text;
  int a_lo, a_hi, b_lo, b_hi;
};

std::string Instantiate(const Template& t, int a, int b);

/// Reads from a template family, cycling through the templates in order
/// (so every run sees the same mix) with seeded constants. With
/// `repeat_share` > 0, that share of reads re-issues an earlier text of the
/// same template; with `unique`, no text is ever issued twice.
class ReadStream {
 public:
  ReadStream(std::vector<Template> family, std::uint64_t seed,
             double repeat_share, bool unique);
  Statement Next();

  std::int64_t repeated() const { return repeated_; }

 private:
  std::vector<Template> family_;
  focq::Rng rng_;
  double repeat_share_;
  bool unique_;
  std::size_t next_template_ = 0;
  std::vector<std::vector<std::string>> used_;  // per template
  std::set<std::string> seen_;
  std::int64_t repeated_ = 0;
};

/// Updates that always change the structure: it tracks the live E and R
/// tuple sets, inserts E tuples that are absent, later deletes exactly the
/// tuples it inserted, and sometimes flips R on a vertex.
class UpdateStream {
 public:
  UpdateStream(const focq::Structure& initial, std::uint64_t seed);
  Statement Next();

 private:
  std::size_t n_;
  focq::Rng rng_;
  std::set<std::pair<std::uint32_t, std::uint32_t>> edges_;
  std::vector<bool> in_r_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pending_deletes_;
};

/// The statement families, one per workload (see workloads.json).
std::vector<Template> ColdFamily();
std::vector<Template> WarmFamily();
std::vector<Template> ServedFamily();

}  // namespace perfbench

#endif  // PERFBENCH_STATEMENTS_H_
