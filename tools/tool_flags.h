// Command-line plumbing shared by focq_cli, focq_serve, focq_logreplay and
// focq_fuzz: argument walking with "--flag V" / "--flag=V" values, strict
// number parsing, the evaluation flags (--engine, --threads, --eps, --delta,
// --approx-seed, --approx-stratify) and structure loading (--edges). Each
// tool keeps its own usage text and exit codes; what a flag means and which
// values it accepts is decided here, once.
#ifndef FOCQ_TOOLS_TOOL_FLAGS_H_
#define FOCQ_TOOLS_TOOL_FLAGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "focq/core/api.h"
#include "focq/structure/structure.h"
#include "focq/util/status.h"

namespace focq {
namespace tools {

/// Walks argv[first..argc). A tool tests the current argument against its
/// switches and value flags in turn and rejects whatever matches none.
class ArgReader {
 public:
  ArgReader(int argc, char** argv, int first)
      : argc_(argc), argv_(argv), next_(first) {}

  /// Moves to the next argument; false once all are consumed.
  bool Next();

  /// True iff the current argument is exactly the switch `name`.
  bool Switch(std::string_view name) const { return arg_ == name; }

  /// True iff the current argument is the value flag `name`, given either
  /// as "--name V" (consuming the following argument) or as "--name=V";
  /// stores V in `*value`. A trailing "--name" with nothing after it also
  /// returns true, with `*value` cleared and missing_value() set.
  bool Value(std::string_view name, std::string* value);

  /// A value flag was the last argument: a usage error.
  bool missing_value() const { return missing_value_; }

 private:
  int argc_;
  char** argv_;
  int next_;
  std::string arg_;
  bool missing_value_ = false;
};

/// Strict parsers: the whole text must be the number, or they return false.
bool ParseNonNegativeInt64(const std::string& text, std::int64_t* out);
/// Digits only: std::stoull alone accepts a leading '-' and wraps, so "-1"
/// would silently become 18446744073709551615.
bool ParseU64(const std::string& text, std::uint64_t* out);
bool ParseDouble(const std::string& text, double* out);

/// The evaluation flags, as given (nullopt: not given, keep the default).
struct EvalFlags {
  std::optional<std::string> engine;  // naive | local | cover | approx
  std::optional<std::string> threads;
  std::optional<std::string> eps;
  std::optional<std::string> delta;
  std::optional<std::string> approx_seed;
  bool approx_stratify = false;

  /// Consumes the current argument if it is one of the evaluation flags.
  bool Read(ArgReader* args);

  /// Parses the flags into `options`, or InvalidArgument with a one-line
  /// diagnostic. Accuracy parameters are validated (ValidateApproxParams)
  /// whatever the engine, so a typo is caught before it silently changes
  /// the contract of a later --engine approx run.
  Status Apply(EvalOptions* options) const;
};

/// Loads `path` as a focq structure file, or as a "u v" edge list when
/// `edges` (the --edges flag).
Result<Structure> LoadStructure(const std::string& path, bool edges);

}  // namespace tools
}  // namespace focq

#endif  // FOCQ_TOOLS_TOOL_FLAGS_H_
