#include "focq/core/statement.h"

#include "focq/logic/fragment.h"
#include "focq/logic/parser.h"

namespace focq {

namespace {

std::string Decimal(CountInt value) {
  return std::to_string(static_cast<long long>(value));
}

std::string UpdateText(bool changed) { return changed ? "applied" : "noop"; }

}  // namespace

const char* StatementKindName(StatementKind kind) {
  switch (kind) {
    case StatementKind::kCheck: return "check";
    case StatementKind::kCount: return "count";
    case StatementKind::kTerm: return "term";
    case StatementKind::kUpdate: return "update";
  }
  return "unknown";
}

std::optional<StatementKind> StatementKindFromWord(std::string_view word) {
  for (StatementKind kind : {StatementKind::kCheck, StatementKind::kCount,
                             StatementKind::kTerm, StatementKind::kUpdate}) {
    if (word == StatementKindName(kind)) return kind;
  }
  return std::nullopt;
}

Result<std::optional<StatementLine>> BatchReader::Next() {
  std::string line;
  while (std::getline(in_, line)) {
    ++lineno_;
    std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    std::size_t split = line.find_first_of(" \t", start);
    std::string word = line.substr(start, split - start);
    std::optional<StatementKind> kind = StatementKindFromWord(word);
    if (!kind.has_value()) {
      return Status::InvalidArgument(
          "line " + std::to_string(lineno_) +
          ": expected 'check', 'count', 'term' or 'update', got '" + word +
          "'");
    }
    return std::optional<StatementLine>(StatementLine{
        *kind, split == std::string::npos ? "" : line.substr(split + 1)});
  }
  return std::optional<StatementLine>();
}

Result<PreparedStatement> PrepareStatement(StatementKind kind,
                                           const std::string& text,
                                           const Signature& sig) {
  PreparedStatement prepared;
  prepared.kind = kind;
  switch (kind) {
    case StatementKind::kCheck:
    case StatementKind::kCount: {
      Result<Formula> formula = ParseFormula(text);
      if (!formula.ok()) return formula.status();
      if (Status symbols = CheckSymbols(*formula, sig); !symbols.ok()) {
        return symbols;
      }
      prepared.formula = std::move(formula).value();
      break;
    }
    case StatementKind::kTerm: {
      Result<Term> term = ParseTerm(text);
      if (!term.ok()) return term.status();
      if (Status symbols = CheckSymbols(*term, sig); !symbols.ok()) {
        return symbols;
      }
      prepared.term = std::move(term).value();
      break;
    }
    case StatementKind::kUpdate: {
      Result<TupleUpdate> update = ParseUpdate(text, sig);
      if (!update.ok()) return update.status();
      prepared.update = std::move(update).value();
      break;
    }
  }
  return prepared;
}

Result<std::string> ExecuteStatement(const PreparedStatement& statement,
                                     const Structure& a,
                                     const EvalOptions& options) {
  switch (statement.kind) {
    case StatementKind::kCheck: {
      Result<bool> holds = ModelCheck(statement.formula, a, options);
      if (!holds.ok()) return holds.status();
      return std::string(*holds ? "true" : "false");
    }
    case StatementKind::kCount: {
      Result<CountInt> count = CountSolutions(statement.formula, a, options);
      if (!count.ok()) return count.status();
      return Decimal(*count);
    }
    case StatementKind::kTerm: {
      Result<CountInt> value = EvaluateGroundTerm(statement.term, a, options);
      if (!value.ok()) return value.status();
      return Decimal(*value);
    }
    case StatementKind::kUpdate:
      break;
  }
  return Status::Unsupported("an update needs a writable structure");
}

Result<std::string> ExecuteStatement(const PreparedStatement& statement,
                                     Structure* a, const EvalOptions& options) {
  if (statement.kind != StatementKind::kUpdate) {
    return ExecuteStatement(statement, *a, options);
  }
  if (options.context == nullptr) {
    Result<bool> changed = ApplyToStructure(a, statement.update);
    if (!changed.ok()) return changed.status();
    return UpdateText(*changed);
  }
  Result<UpdateStats> applied =
      options.context->ApplyUpdate(a, statement.update, options.observer());
  if (!applied.ok()) return applied.status();
  return UpdateText(applied->changed);
}

Result<std::string> Session::Execute(const PreparedStatement& statement) {
  Result<std::string> text =
      mutable_a_ != nullptr ? ExecuteStatement(statement, mutable_a_, options_)
                            : ExecuteStatement(statement, *a_, options_);
  MaybeSampleOpenMetrics();
  return text;
}

}  // namespace focq
