#include "focq/eval/query.h"

#include <algorithm>
#include <set>

#include "focq/eval/naive_eval.h"
#include "focq/logic/build.h"
#include "focq/logic/fragment.h"
#include "focq/logic/printer.h"

namespace focq {

Status Foc1Query::Validate() const {
  std::set<Var> heads(head_vars.begin(), head_vars.end());
  if (heads.size() != head_vars.size()) {
    return Status::InvalidArgument("head variables must be pairwise distinct");
  }
  auto contained = [&heads](const std::vector<Var>& vars) {
    return std::all_of(vars.begin(), vars.end(),
                       [&heads](Var v) { return heads.contains(v); });
  };
  if (!condition.IsValid()) {
    return Status::InvalidArgument("query condition is missing");
  }
  if (!contained(FreeVars(condition))) {
    return Status::InvalidArgument(
        "free variables of the condition must be head variables: " +
        ToString(condition));
  }
  FOCQ_RETURN_IF_ERROR(CheckFOC1(condition.node()));
  for (const Term& t : head_terms) {
    if (!contained(FreeVars(t))) {
      return Status::InvalidArgument(
          "free variables of a head term must be head variables: " +
          ToString(t));
    }
    FOCQ_RETURN_IF_ERROR(CheckFOC1(t.node()));
  }
  return Status::Ok();
}

namespace {

// The candidate-tuple enumeration of EvaluateQueryNaive.
Result<QueryResult> EnumerateRows(const Foc1Query& q, NaiveEvaluator& eval,
                                  const Observer& obs) {
  QueryResult result;
  std::size_t k = q.head_vars.size();
  std::size_t n = eval.structure().universe_size();

  Env env;
  Tuple tuple(k, 0);
  // Recursive enumeration in lexicographic order of the witness tuple.
  // Implemented iteratively with position 0 as the most significant digit.
  auto emit = [&]() -> Status {
    if (obs.ShouldStop()) return obs.progress->DeadlineStatus();
    bool holds = eval.Satisfies(q.condition, &env);
    FOCQ_RETURN_IF_ERROR(eval.status());
    if (!holds) return Status::Ok();
    QueryRow row;
    row.elements = tuple;
    for (const Term& t : q.head_terms) {
      Result<CountInt> v = eval.Evaluate(t, &env);
      if (!v.ok()) return v.status();
      row.counts.push_back(*v);
    }
    result.rows.push_back(std::move(row));
    return Status::Ok();
  };

  if (k == 0) {
    FOCQ_RETURN_IF_ERROR(emit());
    return result;
  }
  if (n == 0) return result;
  for (std::size_t i = 0; i < k; ++i) env.Bind(q.head_vars[i], 0);
  for (;;) {
    FOCQ_RETURN_IF_ERROR(emit());
    // Advance, least significant digit last (keeps rows lexicographic).
    std::size_t pos = k;
    while (pos > 0) {
      --pos;
      if (++tuple[pos] < n) {
        env.Bind(q.head_vars[pos], static_cast<ElemId>(tuple[pos]));
        break;
      }
      tuple[pos] = 0;
      env.Bind(q.head_vars[pos], 0);
      if (pos == 0) return result;
    }
  }
}

}  // namespace

Result<QueryResult> EvaluateQueryNaive(const Foc1Query& q, const Structure& a,
                                       const Observer& obs) {
  FOCQ_RETURN_IF_ERROR(q.Validate());
  NaiveEvaluator eval(a, obs);
  Result<QueryResult> result = EnumerateRows(q, eval, obs);
  obs.Count("naive.tuples_enumerated", eval.tuples_enumerated());
  return result;
}

namespace {

// Rewrites a head term: every count node gets its body wrapped in
// exists x_i ( X_i(x_i) and ... ) for the head variables free in the body.
ExprRef PinHeadVars(const ExprRef& e, const std::vector<Var>& head_vars,
                    const std::vector<std::string>& marker_names) {
  switch (e->kind) {
    case ExprKind::kIntConst:
      return e;
    case ExprKind::kAdd:
    case ExprKind::kMul: {
      Expr copy = *e;
      for (ExprRef& c : copy.children) {
        c = PinHeadVars(c, head_vars, marker_names);
      }
      return std::make_shared<const Expr>(std::move(copy));
    }
    case ExprKind::kCount: {
      Formula body(e->children[0]);
      std::vector<Var> free = FreeVars(body);
      std::vector<Formula> pins;
      std::vector<Var> to_quantify;
      for (std::size_t i = 0; i < head_vars.size(); ++i) {
        // Head variables bound by this count node are not free in the term.
        bool is_binder = std::find(e->vars.begin(), e->vars.end(),
                                   head_vars[i]) != e->vars.end();
        if (is_binder) continue;
        if (std::binary_search(free.begin(), free.end(), head_vars[i])) {
          pins.push_back(Atom(marker_names[i], {head_vars[i]}));
          to_quantify.push_back(head_vars[i]);
        }
      }
      if (to_quantify.empty()) return e;
      pins.push_back(body);
      Formula wrapped = Exists(to_quantify, And(std::move(pins)));
      return Count(e->vars, wrapped).ref();
    }
    default:
      FOCQ_CHECK(false);  // head terms are built from counts, ints, +, *
      return e;
  }
}

}  // namespace

SentencizedQuery SentencizeAt(const Foc1Query& q, const Structure& a,
                              const Tuple& witness) {
  FOCQ_CHECK_EQ(witness.size(), q.head_vars.size());
  SentencizedQuery out{a, Formula(), {}, {}};
  for (std::size_t i = 0; i < q.head_vars.size(); ++i) {
    std::string name = out.structure.signature().FreshName(
        "X_" + VarName(q.head_vars[i]));
    out.structure.AddUnarySymbol(name, {witness[i]});
    out.marker_names.push_back(std::move(name));
  }
  std::vector<Formula> pins;
  for (std::size_t i = 0; i < q.head_vars.size(); ++i) {
    pins.push_back(Atom(out.marker_names[i], {q.head_vars[i]}));
  }
  pins.push_back(q.condition);
  out.sentence = Exists(q.head_vars, And(std::move(pins)));
  for (const Term& t : q.head_terms) {
    out.ground_terms.push_back(
        Term(PinHeadVars(t.ref(), q.head_vars, out.marker_names)));
  }
  return out;
}

}  // namespace focq
