#include "focq/locality/cl_term.h"

#include <algorithm>

#include "focq/util/checked_arith.h"
#include "focq/util/thread_pool.h"

namespace focq {
namespace {

bool BasicEquals(const BasicClTerm& a, const BasicClTerm& b) {
  return a.vars == b.vars && a.unary == b.unary && a.radius == b.radius &&
         a.pattern == b.pattern && ExprEquals(a.kernel.node(), b.kernel.node());
}

}  // namespace

ClTerm ClTerm::Constant(CountInt c) {
  ClTerm t;
  if (c != 0) t.monomials_.push_back(Monomial{c, {}});
  return t;
}

ClTerm ClTerm::FromBasic(BasicClTerm basic) {
  ClTerm t;
  t.basics_.push_back(std::move(basic));
  t.monomials_.push_back(Monomial{1, {0}});
  return t;
}

bool ClTerm::IsGround() const {
  for (const BasicClTerm& b : basics_) {
    if (b.unary) return false;
  }
  return true;
}

int ClTerm::InternBasic(const BasicClTerm& basic) {
  for (std::size_t i = 0; i < basics_.size(); ++i) {
    if (BasicEquals(basics_[i], basic)) return static_cast<int>(i);
  }
  if (basic.unary) {
    // All unary basics of one cl-term must share the free variable, else
    // pointwise evaluation would be ill-defined.
    for (const BasicClTerm& b : basics_) {
      if (b.unary) FOCQ_CHECK_EQ(b.vars[0], basic.vars[0]);
    }
  }
  basics_.push_back(basic);
  return static_cast<int>(basics_.size() - 1);
}

ClTerm ClTerm::Add(const ClTerm& a, const ClTerm& b) {
  ClTerm out = a;
  for (const Monomial& m : b.monomials_) {
    Monomial copy = m;
    for (int& f : copy.factors) f = out.InternBasic(b.basics_[f]);
    std::sort(copy.factors.begin(), copy.factors.end());
    // Merge with an identical monomial if present.
    bool merged = false;
    for (Monomial& existing : out.monomials_) {
      if (existing.factors == copy.factors) {
        auto sum = CheckedAdd(existing.coeff, copy.coeff);
        FOCQ_CHECK(sum.has_value());
        existing.coeff = *sum;
        merged = true;
        break;
      }
    }
    if (!merged) out.monomials_.push_back(std::move(copy));
  }
  // Drop zero monomials.
  out.monomials_.erase(
      std::remove_if(out.monomials_.begin(), out.monomials_.end(),
                     [](const Monomial& m) { return m.coeff == 0; }),
      out.monomials_.end());
  return out;
}

ClTerm ClTerm::Negate(const ClTerm& a) {
  ClTerm out = a;
  for (Monomial& m : out.monomials_) m.coeff = -m.coeff;
  return out;
}

ClTerm ClTerm::Sub(const ClTerm& a, const ClTerm& b) {
  return Add(a, Negate(b));
}

ClTerm ClTerm::Mul(const ClTerm& a, const ClTerm& b) {
  ClTerm out;
  out.basics_ = a.basics_;
  std::vector<int> b_remap(b.basics_.size());
  for (std::size_t i = 0; i < b.basics_.size(); ++i) {
    b_remap[i] = out.InternBasic(b.basics_[i]);
  }
  for (const Monomial& ma : a.monomials_) {
    for (const Monomial& mb : b.monomials_) {
      Monomial prod;
      auto coeff = CheckedMul(ma.coeff, mb.coeff);
      FOCQ_CHECK(coeff.has_value());
      prod.coeff = *coeff;
      prod.factors = ma.factors;
      for (int f : mb.factors) prod.factors.push_back(b_remap[f]);
      std::sort(prod.factors.begin(), prod.factors.end());
      bool merged = false;
      for (Monomial& existing : out.monomials_) {
        if (existing.factors == prod.factors) {
          auto sum = CheckedAdd(existing.coeff, prod.coeff);
          FOCQ_CHECK(sum.has_value());
          existing.coeff = *sum;
          merged = true;
          break;
        }
      }
      if (!merged && prod.coeff != 0) out.monomials_.push_back(std::move(prod));
    }
  }
  out.monomials_.erase(
      std::remove_if(out.monomials_.begin(), out.monomials_.end(),
                     [](const Monomial& m) { return m.coeff == 0; }),
      out.monomials_.end());
  return out;
}

ClTermBallEvaluator::ClTermBallEvaluator(const Structure& structure,
                                         const Graph& gaifman, int num_threads,
                                         const Observer& obs)
    : structure_(structure),
      gaifman_(gaifman),
      num_threads_(EffectiveThreads(num_threads)),
      obs_(obs),
      eval_(structure, gaifman) {}

void ClTermBallEvaluator::FlushExploreDelta(const ExploreStats& before) {
  obs_.Count("clterm.basics_evaluated", 1);
  obs_.Count("clterm.anchors_evaluated",
             explore_stats_.anchors - before.anchors);
  obs_.Count("clterm.balls_fetched", explore_stats_.balls - before.balls);
  obs_.Count("clterm.placements_checked",
             explore_stats_.placements - before.placements);
}

ClosenessOracle& ClTermBallEvaluator::OracleFor(std::uint32_t d) {
  std::unique_ptr<ClosenessOracle>& slot = oracles_[d];
  if (slot == nullptr) slot = std::make_unique<ClosenessOracle>(gaifman_, d);
  return *slot;
}

Result<CountInt> ClTermBallEvaluator::CountAnchored(const BasicClTerm& basic,
                                                    ElemId anchor) {
  const int k = basic.width();
  FOCQ_CHECK_GE(k, 1);
  FOCQ_CHECK(basic.pattern.IsConnected());
  FOCQ_CHECK_EQ(basic.pattern.num_vertices(), k);
  const std::uint32_t sep = basic.Separation();
  ClosenessOracle& oracle = OracleFor(sep);
  ++explore_stats_.anchors;

  // Kernel check helper on a full placement; the first kernel error is
  // kept in `kernel_status`.
  Env env;
  Status kernel_status = Status::Ok();
  auto kernel_holds = [&](const std::vector<ElemId>& elems) {
    ++explore_stats_.placements;
    for (int i = 0; i < k; ++i) env.Bind(basic.vars[i], elems[i]);
    const bool holds = eval_.Satisfies(basic.kernel, &env);
    if (!eval_.status().ok()) kernel_status = eval_.status();
    return holds;
  };

  if (k == 1) {
    std::vector<ElemId> elems = {anchor};
    const bool holds = kernel_holds(elems);
    FOCQ_RETURN_IF_ERROR(kernel_status);
    return holds ? CountInt{1} : CountInt{0};
  }

  // Placement order: BFS over the (connected) pattern from vertex 0, so each
  // new position has an already-placed pattern neighbour to draw candidates
  // from.
  std::vector<int> order = {0};
  std::vector<int> parent(k, -1);
  std::vector<bool> placed_in_order(k, false);
  placed_in_order[0] = true;
  for (std::size_t head = 0; head < order.size(); ++head) {
    int u = order[head];
    for (int v = 0; v < k; ++v) {
      if (!placed_in_order[v] && basic.pattern.HasEdge(u, v)) {
        placed_in_order[v] = true;
        parent[v] = u;
        order.push_back(v);
      }
    }
  }
  FOCQ_CHECK_EQ(order.size(), static_cast<std::size_t>(k));

  std::vector<ElemId> elems(k, 0);
  std::vector<bool> placed(k, false);
  elems[0] = anchor;
  placed[0] = true;
  CountInt count = 0;
  bool overflow = false;

  // Depth-first placement of order[1..k-1].
  auto recurse = [&](auto&& self, int depth) -> void {
    if (overflow) return;
    if (depth == k) {
      const bool holds = kernel_holds(elems);
      if (!kernel_status.ok()) {
        overflow = true;
        return;
      }
      if (holds) {
        auto next = CheckedAdd(count, 1);
        if (!next) {
          overflow = true;
          return;
        }
        count = *next;
      }
      return;
    }
    int pos = order[depth];
    ++explore_stats_.balls;
    // Candidates: the separation-ball of the parent. Copy, since recursive
    // Close() calls may touch the oracle cache of other elements.
    const std::vector<ElemId> candidates = oracle.BallOf(elems[parent[pos]]);
    for (ElemId c : candidates) {
      bool ok = true;
      for (int i = 0; i < k && ok; ++i) {
        if (!placed[i] || i == pos) continue;
        bool close = oracle.Close(elems[i], c);
        if (close != basic.pattern.HasEdge(i, pos)) ok = false;
      }
      if (!ok) continue;
      elems[pos] = c;
      placed[pos] = true;
      self(self, depth + 1);
      placed[pos] = false;
      if (overflow) return;
    }
  };
  recurse(recurse, 1);
  FOCQ_RETURN_IF_ERROR(kernel_status);
  if (overflow) return Status::OutOfRange("cl-term count overflows int64");
  return count;
}

Result<std::vector<CountInt>> ClTermBallEvaluator::EvaluateBasicAll(
    const BasicClTerm& basic) {
  FOCQ_CHECK(basic.unary);
  const std::size_t n = structure_.universe_size();
  const ExploreStats before = explore_stats_;
  std::vector<CountInt> out(n, 0);
  obs_.AddTotal(ProgressPhase::kClTerm, static_cast<std::int64_t>(n));
  // Each chunk gets a serial worker evaluator (the oracle/index caches are
  // not thread-safe) and writes disjoint anchor slots; errors are surfaced
  // in chunk order so failure reporting is deterministic too. Worker
  // exploration tallies land in per-chunk shards and reduce after the join,
  // so the flushed totals are identical for every thread count.
  const std::size_t num_chunks = MakeChunkGrid(n, num_threads_).num_chunks;
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  ShardedCounter anchors(num_chunks), balls(num_chunks),
      placements(num_chunks);
  ParallelFor(num_threads_, n,
              [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                ClTermBallEvaluator worker(structure_, gaifman_);
                for (std::size_t a = begin; a < end; ++a) {
                  if (obs_.ShouldStop()) return;
                  Result<CountInt> c =
                      worker.CountAnchored(basic, static_cast<ElemId>(a));
                  if (!c.ok()) {
                    chunk_status[chunk] = c.status();
                    return;
                  }
                  out[a] = *c;
                  obs_.Advance(ProgressPhase::kClTerm, 1);
                }
                anchors.Add(chunk, worker.explore_stats_.anchors);
                balls.Add(chunk, worker.explore_stats_.balls);
                placements.Add(chunk, worker.explore_stats_.placements);
              });
  if (obs_.Cancelled()) {
    return obs_.progress->DeadlineStatus();
  }
  for (const Status& s : chunk_status) {
    if (!s.ok()) return s;
  }
  explore_stats_.anchors += anchors.Total();
  explore_stats_.balls += balls.Total();
  explore_stats_.placements += placements.Total();
  FlushExploreDelta(before);
  return out;
}

Result<CountInt> ClTermBallEvaluator::EvaluateBasicGround(
    const BasicClTerm& basic) {
  FOCQ_CHECK(!basic.unary);
  return EvaluateGroundBasic(
      basic, [this](const BasicClTerm& b) { return EvaluateBasicAll(b); });
}

Result<CountInt> ClTermBallEvaluator::EvaluateGround(const ClTerm& term) {
  FOCQ_CHECK(term.IsGround());
  Result<std::vector<CountInt>> values = EvaluateAll(term);
  if (!values.ok()) return values.status();
  // Ground terms are element-independent; EvaluateAll returns one slot.
  return (*values)[0];
}

Result<std::vector<CountInt>> ClTermBallEvaluator::EvaluateAll(
    const ClTerm& term) {
  return EvaluateClTerm(
      term, structure_.universe_size(),
      [this](const BasicClTerm& b) { return EvaluateBasicAll(b); });
}

Result<CountInt> EvaluateGroundBasic(const BasicClTerm& basic,
                                     const UnaryBasicEval& unary_all) {
  BasicClTerm unary = basic;
  unary.unary = true;
  Result<std::vector<CountInt>> values = unary_all(unary);
  if (!values.ok()) return values.status();
  // Anchored counts are non-negative, so the sum overflows exactly when the
  // count of tuples does.
  CountInt total = 0;
  for (CountInt v : *values) {
    auto sum = CheckedAdd(total, v);
    if (!sum) return Status::OutOfRange("cl-term count overflows int64");
    total = *sum;
  }
  return total;
}

Result<std::vector<CountInt>> EvaluateClTerm(const ClTerm& term,
                                             std::size_t universe_size,
                                             const UnaryBasicEval& unary_all) {
  // Evaluate every basic factor once: n slots if unary, one if ground.
  std::vector<std::vector<CountInt>> factor_values;
  factor_values.reserve(term.basics().size());
  for (const BasicClTerm& b : term.basics()) {
    if (b.unary) {
      Result<std::vector<CountInt>> v = unary_all(b);
      if (!v.ok()) return v.status();
      factor_values.push_back(std::move(*v));
    } else {
      Result<CountInt> v = EvaluateGroundBasic(b, unary_all);
      if (!v.ok()) return v.status();
      factor_values.push_back({*v});
    }
  }
  return CombineMonomials(term, factor_values,
                          term.IsGround() ? 1 : universe_size);
}

Result<std::vector<CountInt>> CombineMonomials(
    const ClTerm& term, const std::vector<std::vector<CountInt>>& factor_values,
    std::size_t slots) {
  std::vector<CountInt> out(slots, 0);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    CountInt acc = 0;
    for (const ClTerm::Monomial& m : term.monomials()) {
      CountInt prod = m.coeff;
      bool overflow = false;
      for (int f : m.factors) {
        const std::vector<CountInt>& vals = factor_values[f];
        CountInt v = vals.size() == 1 ? vals[0] : vals[slot];
        auto p = CheckedMul(prod, v);
        if (!p) {
          overflow = true;
          break;
        }
        prod = *p;
      }
      if (overflow) return Status::OutOfRange("cl-term value overflows int64");
      auto s = CheckedAdd(acc, prod);
      if (!s) return Status::OutOfRange("cl-term value overflows int64");
      acc = *s;
    }
    out[slot] = acc;
  }
  return out;
}

std::uint32_t RequiredCoverRadius(const BasicClTerm& basic) {
  return static_cast<std::uint32_t>(basic.width()) * basic.Separation();
}

}  // namespace focq
