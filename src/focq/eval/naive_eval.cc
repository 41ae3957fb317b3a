#include "focq/eval/naive_eval.h"

#include "focq/logic/build.h"
#include "focq/util/checked_arith.h"
#include "focq/util/thread_pool.h"

namespace focq {

NaiveEvaluator::NaiveEvaluator(const Structure& structure, const Observer& obs)
    : structure_(structure), obs_(obs) {}

SymbolId NaiveEvaluator::ResolveAtom(const Expr& e) {
  auto it = atom_cache_.find(e.symbol_name);
  if (it != atom_cache_.end()) return it->second;
  std::optional<SymbolId> id = structure_.signature().Find(e.symbol_name);
  FOCQ_CHECK(id.has_value());  // unknown relation symbol in atom
  FOCQ_CHECK_EQ(structure_.signature().Arity(*id),
                static_cast<int>(e.vars.size()));
  atom_cache_.emplace(e.symbol_name, *id);
  return *id;
}

const Graph& NaiveEvaluator::GaifmanGraph() {
  if (gaifman_ == nullptr) {
    gaifman_ = std::make_unique<Graph>(BuildGaifmanGraph(structure_));
    explorer_ = std::make_unique<BallExplorer>(*gaifman_);
  }
  return *gaifman_;
}

bool NaiveEvaluator::EvalFormula(const Expr& e, Env* env) {
  switch (e.kind) {
    case ExprKind::kEqual:
      return env->Get(e.vars[0]) == env->Get(e.vars[1]);
    case ExprKind::kAtom: {
      SymbolId id = ResolveAtom(e);
      scratch_tuple_.clear();
      for (Var v : e.vars) scratch_tuple_.push_back(env->Get(v));
      return structure_.Holds(id, scratch_tuple_);
    }
    case ExprKind::kNot:
      return !EvalFormula(*e.children[0], env);
    case ExprKind::kOr:
      for (const ExprRef& c : e.children) {
        if (EvalFormula(*c, env)) return true;
      }
      return false;
    case ExprKind::kAnd:
      for (const ExprRef& c : e.children) {
        if (!EvalFormula(*c, env)) return false;
      }
      return true;
    case ExprKind::kExists: {
      Var y = e.vars[0];
      bool was_bound = env->IsBound(y);
      ElemId old = was_bound ? env->Get(y) : 0;
      bool found = false;
      for (ElemId a = 0; a < structure_.universe_size() && !found; ++a) {
        if (obs_.ShouldStop()) {
          stopped_ = true;
          break;
        }
        env->Bind(y, a);
        ++tuples_enumerated_;
        found = EvalFormula(*e.children[0], env);
      }
      if (was_bound) {
        env->Bind(y, old);
      } else {
        env->Bind(y, 0);
        env->Unbind(y);
      }
      return found;
    }
    case ExprKind::kForall: {
      Var y = e.vars[0];
      bool was_bound = env->IsBound(y);
      ElemId old = was_bound ? env->Get(y) : 0;
      bool all = true;
      for (ElemId a = 0; a < structure_.universe_size() && all; ++a) {
        if (obs_.ShouldStop()) {
          stopped_ = true;
          break;
        }
        env->Bind(y, a);
        ++tuples_enumerated_;
        all = EvalFormula(*e.children[0], env);
      }
      if (was_bound) {
        env->Bind(y, old);
      } else {
        env->Bind(y, 0);
        env->Unbind(y);
      }
      return all;
    }
    case ExprKind::kNumPred: {
      std::vector<CountInt> args;
      args.reserve(e.children.size());
      for (const ExprRef& t : e.children) {
        std::optional<CountInt> v = EvalTerm(*t, env);
        if (!v) {
          // A drained nested count is a deadline, not an overflow; either
          // way the garbage truth value is discarded by the status() check.
          if (!stopped_) overflow_ = true;
          return false;
        }
        args.push_back(*v);
      }
      return e.pred->Holds(args);
    }
    case ExprKind::kTrue:
      return true;
    case ExprKind::kFalse:
      return false;
    case ExprKind::kDistAtom: {
      GaifmanGraph();
      ElemId a = env->Get(e.vars[0]);
      ElemId b = env->Get(e.vars[1]);
      if (a == b) return true;
      const std::vector<VertexId>& ball = explorer_->Explore(a, e.dist_bound);
      for (VertexId v : ball) {
        if (v == b) return true;
      }
      return false;
    }
    default:
      FOCQ_CHECK(false);  // term kind reached formula evaluation
      return false;
  }
}

std::optional<CountInt> NaiveEvaluator::EvalTerm(const Expr& e, Env* env) {
  switch (e.kind) {
    case ExprKind::kIntConst:
      return e.int_value;
    case ExprKind::kAdd: {
      CountInt acc = 0;
      for (const ExprRef& c : e.children) {
        std::optional<CountInt> v = EvalTerm(*c, env);
        if (!v) return std::nullopt;
        std::optional<CountInt> sum = CheckedAdd(acc, *v);
        if (!sum) return std::nullopt;
        acc = *sum;
      }
      return acc;
    }
    case ExprKind::kMul: {
      CountInt acc = 1;
      for (const ExprRef& c : e.children) {
        std::optional<CountInt> v = EvalTerm(*c, env);
        if (!v) return std::nullopt;
        std::optional<CountInt> prod = CheckedMul(acc, *v);
        if (!prod) return std::nullopt;
        acc = *prod;
      }
      return acc;
    }
    case ExprKind::kCount: {
      // |{ a-bar in A^k : (A, beta[a-bar/y-bar]) |= phi }| via an odometer
      // over A^k.
      const std::vector<Var>& ys = e.vars;
      std::vector<bool> was_bound(ys.size());
      std::vector<ElemId> old_value(ys.size());
      for (std::size_t i = 0; i < ys.size(); ++i) {
        was_bound[i] = env->IsBound(ys[i]);
        old_value[i] = was_bound[i] ? env->Get(ys[i]) : 0;
      }
      CountInt count = 0;
      bool ok = true;
      // Iterative odometer over A^k.
      std::size_t k = ys.size();
      std::vector<ElemId> tuple(k, 0);
      std::size_t n = structure_.universe_size();
      // Pre-announce the odometer's n^k candidate tuples (skipped when the
      // count itself overflows int64 — progress is observability only).
      if (obs_.progress != nullptr) {
        CountInt work = 1;
        bool fits = true;
        for (std::size_t i = 0; i < k && fits; ++i) {
          std::optional<CountInt> m =
              CheckedMul(work, static_cast<CountInt>(n));
          fits = m.has_value();
          if (fits) work = *m;
        }
        if (fits) obs_.AddTotal(ProgressPhase::kNaive, work);
      }
      if (k == 0) {
        ++tuples_enumerated_;
        count = EvalFormula(*e.children[0], env) ? 1 : 0;
        obs_.Advance(ProgressPhase::kNaive, 1);
      } else if (n > 0) {
        for (std::size_t i = 0; i < k; ++i) env->Bind(ys[i], 0);
        for (;;) {
          if (obs_.ShouldStop()) {
            stopped_ = true;
            ok = false;
            break;
          }
          ++tuples_enumerated_;
          obs_.Advance(ProgressPhase::kNaive, 1);
          if (EvalFormula(*e.children[0], env)) {
            std::optional<CountInt> next = CheckedAdd(count, 1);
            if (!next) {
              ok = false;
              break;
            }
            count = *next;
          }
          // Advance the odometer.
          std::size_t pos = 0;
          while (pos < k) {
            if (++tuple[pos] < n) {
              env->Bind(ys[pos], tuple[pos]);
              break;
            }
            tuple[pos] = 0;
            env->Bind(ys[pos], 0);
            ++pos;
          }
          if (pos == k) break;
        }
      }
      for (std::size_t i = 0; i < ys.size(); ++i) {
        if (was_bound[i]) {
          env->Bind(ys[i], old_value[i]);
        } else if (env->IsBound(ys[i])) {
          env->Unbind(ys[i]);
        }
      }
      if (!ok) return std::nullopt;
      return count;
    }
    default:
      FOCQ_CHECK(false);  // formula kind reached term evaluation
      return std::nullopt;
  }
}

bool NaiveEvaluator::Satisfies(const Formula& f, Env* env) {
  overflow_ = false;
  stopped_ = false;
  return EvalFormula(f.node(), env);
}

bool NaiveEvaluator::Satisfies(const Formula& sentence) {
  Env env;
  return Satisfies(sentence, &env);
}

bool NaiveEvaluator::Satisfies(
    const Formula& f, const std::vector<std::pair<Var, ElemId>>& binding) {
  Env env;
  for (auto [v, a] : binding) env.Bind(v, a);
  return Satisfies(f, &env);
}

Result<CountInt> NaiveEvaluator::Evaluate(const Term& t, Env* env) {
  overflow_ = false;
  stopped_ = false;
  std::optional<CountInt> v = EvalTerm(t.node(), env);
  FOCQ_RETURN_IF_ERROR(status());
  if (!v) return Status::OutOfRange("counting-term value overflows int64");
  return *v;
}

Status NaiveEvaluator::status() const {
  if (stopped_) return obs_.progress->DeadlineStatus();
  if (overflow_) {
    return Status::OutOfRange(
        "numerical-predicate argument overflows int64");
  }
  return Status::Ok();
}

Result<CountInt> NaiveEvaluator::Evaluate(const Term& ground_term) {
  Env env;
  return Evaluate(ground_term, &env);
}

Result<CountInt> NaiveEvaluator::Evaluate(
    const Term& t, const std::vector<std::pair<Var, ElemId>>& binding) {
  Env env;
  for (auto [v, a] : binding) env.Bind(v, a);
  return Evaluate(t, &env);
}

Result<CountInt> NaiveEvaluator::CountSolutions(const Formula& f) {
  std::vector<Var> free = FreeVars(f);
  Term counter = Count(free, f);
  return Evaluate(counter);
}

Result<CountInt> NaiveEvaluator::CountSolutions(const Formula& f,
                                                int num_threads) {
  const int workers = EffectiveThreads(num_threads);
  std::vector<Var> free = FreeVars(f);
  std::size_t n = structure_.universe_size();
  if (workers <= 1 || free.empty() || n <= 1) return CountSolutions(f);
  // Fan the first free variable out over the universe: each chunk counts the
  // solutions whose x1-component lies in it with a private evaluator, then
  // partial counts reduce in chunk order. Expression trees are immutable
  // during evaluation, so sharing `rest_counter` across workers is safe, and
  // since every partial count is non-negative, overflow occurs iff the
  // serial count overflows.
  std::vector<Var> rest(free.begin() + 1, free.end());
  Term rest_counter = Count(rest, f);
  const std::size_t num_chunks = MakeChunkGrid(n, workers).num_chunks;
  std::vector<CountInt> partial(num_chunks, 0);
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  // Per-worker enumeration tallies, folded back after the join so
  // tuples_enumerated() matches the serial count (ShardedCounter protocol).
  ShardedCounter enumerated(num_chunks);
  ParallelFor(workers, n,
              [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                // Workers share the sink: their odometers advance kNaive and
                // poll the deadline, so granularity matches the serial path.
                NaiveEvaluator worker(structure_, obs_);
                for (std::size_t a = begin; a < end; ++a) {
                  if (obs_.ShouldStop()) return;
                  Env env;
                  env.Bind(free[0], static_cast<ElemId>(a));
                  Result<CountInt> v = worker.Evaluate(rest_counter, &env);
                  if (!v.ok()) {
                    chunk_status[chunk] = v.status();
                    return;
                  }
                  auto sum = CheckedAdd(partial[chunk], *v);
                  if (!sum) {
                    chunk_status[chunk] = Status::OutOfRange(
                        "counting-term value overflows int64");
                    return;
                  }
                  partial[chunk] = *sum;
                }
                enumerated.Add(chunk, worker.tuples_enumerated_);
              });
  // The per-anchor rest-counters enumerate n * n^(k-1) bodies in total,
  // exactly the serial odometer's n^k iterations: no extra term for the
  // fan-out binding itself.
  tuples_enumerated_ += enumerated.Total();
  if (obs_.Cancelled()) {
    return obs_.progress->DeadlineStatus();
  }
  CountInt total = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    if (!chunk_status[c].ok()) return chunk_status[c];
    auto sum = CheckedAdd(total, partial[c]);
    if (!sum) {
      return Status::OutOfRange("counting-term value overflows int64");
    }
    total = *sum;
  }
  return total;
}

}  // namespace focq
