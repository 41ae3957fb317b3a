#include "focq/locality/cl_term.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "focq/locality/local_eval.h"
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

namespace {

std::uint32_t SlotOf(Var v,
                     const std::vector<std::pair<Var, std::uint32_t>>& scope) {
  for (auto it = scope.rbegin(); it != scope.rend(); ++it) {
    if (it->first == v) return it->second;
  }
  FOCQ_CHECK(false && "kernel variable outside the counted tuple");
  return 0;
}

// The top-level conjuncts of a kernel (nested conjunctions flattened).
void Conjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind != ExprKind::kAnd) {
    out->push_back(&e);
    return;
  }
  for (const ExprRef& c : e.children) Conjuncts(*c, out);
}

}  // namespace

ClTermKernel::ClTermKernel(const BasicClTerm& basic, const Signature& sig)
    : separation_(basic.Separation()) {
  const int k = basic.width();
  FOCQ_CHECK_GE(k, 1);
  FOCQ_CHECK(basic.pattern.IsConnected());
  FOCQ_CHECK_EQ(basic.pattern.num_vertices(), k);

  // Placement order: BFS over the (connected) pattern from vertex 0, so each
  // new position has an already-placed pattern neighbour, its parent.
  std::vector<int> order = {0};
  std::vector<int> parent(k, -1);
  std::vector<bool> seen(k, false);
  seen[0] = true;
  for (std::size_t head = 0; head < order.size(); ++head) {
    const int u = order[head];
    for (int v = 0; v < k; ++v) {
      if (!seen[v] && basic.pattern.HasEdge(u, v)) {
        seen[v] = true;
        parent[v] = u;
        order.push_back(v);
      }
    }
  }
  FOCQ_CHECK_EQ(order.size(), static_cast<std::size_t>(k));
  binding_depth_.assign(k, 0);
  for (int depth = 0; depth < k; ++depth) binding_depth_[order[depth]] = depth;
  ball_radius_.assign(k, 0);

  // The pattern slot of a top-level dist conjunct's other endpoint, if the
  // conjunct links `slot` to a different pattern variable.
  std::vector<const Expr*> conjuncts;
  Conjuncts(basic.kernel.node(), &conjuncts);
  auto partner = [&](const Expr& c, int slot) -> int {
    if (c.kind != ExprKind::kDistAtom) return -1;
    int ends[2] = {-1, -1};
    for (int e = 0; e < 2; ++e) {
      for (int i = 0; i < k; ++i) {
        if (basic.vars[i] == c.vars[e]) ends[e] = i;
      }
    }
    if (ends[0] == slot && ends[1] >= 0 && ends[1] != slot) return ends[1];
    if (ends[1] == slot && ends[0] >= 0 && ends[0] != slot) return ends[0];
    return -1;
  };

  // Candidate sources (the candidate-radius rule of the header comment).
  std::vector<bool> implied(conjuncts.size(), false);
  for (int depth = 1; depth < k; ++depth) {
    const int pos = order[depth];
    Position p;
    p.slot = static_cast<std::uint32_t>(pos);
    p.source = static_cast<std::uint32_t>(parent[pos]);
    p.radius = separation_;
    for (const Expr* c : conjuncts) {
      const int j = partner(*c, pos);
      if (j < 0 || binding_depth_[j] >= static_cast<std::uint32_t>(depth) ||
          !basic.pattern.HasEdge(j, pos) || c->dist_bound >= p.radius) {
        continue;
      }
      p.source = static_cast<std::uint32_t>(j);
      p.radius = c->dist_bound;
    }
    // Drawing from the source's ball implies dist(source, y) <= radius.
    for (std::size_t i = 0; i < conjuncts.size(); ++i) {
      if (partner(*conjuncts[i], pos) == static_cast<int>(p.source) &&
          conjuncts[i]->dist_bound >= p.radius) {
        implied[i] = true;
      }
    }
    for (int earlier = 0; earlier < depth; ++earlier) {
      const int i = order[earlier];
      if (i == static_cast<int>(p.source)) continue;  // close, edge present
      p.tests.emplace_back(static_cast<std::uint32_t>(i),
                           basic.pattern.HasEdge(i, pos));
      NeedBall(static_cast<std::uint32_t>(i), separation_);
    }
    NeedBall(p.source, p.radius);
    positions_.push_back(std::move(p));
  }

  // The kernel minus its implied conjuncts.
  Scope scope;
  for (int i = 0; i < k; ++i) {
    scope.emplace_back(basic.vars[i], static_cast<std::uint32_t>(i));
  }
  std::vector<std::uint32_t> kept;
  for (std::size_t i = 0; i < conjuncts.size(); ++i) {
    if (!implied[i]) kept.push_back(CompileNode(*conjuncts[i], &scope, sig));
  }
  CheapFirst(&kept);
  if (kept.size() == 1) {
    root_ = kept[0];
  } else {
    Node all{.op = kept.empty() ? Op::kTrue : Op::kAnd,
             .first = static_cast<std::uint32_t>(kids_.size()),
             .count = static_cast<std::uint32_t>(kept.size())};
    kids_.insert(kids_.end(), kept.begin(), kept.end());
    root_ = AddNode(all);
  }
}

void ClTermKernel::NeedBall(std::uint32_t slot, std::uint32_t radius) {
  ball_radius_[slot] = std::max(ball_radius_[slot], radius);
}

void ClTermKernel::CheapFirst(std::vector<std::uint32_t>* kids) const {
  std::stable_partition(kids->begin(), kids->end(), [&](std::uint32_t id) {
    const Node& n = nodes_[id];
    return n.op == Op::kTrue || n.op == Op::kFalse || n.op == Op::kEqual ||
           (n.op == Op::kAtom && n.count == 1);
  });
}

std::uint32_t ClTermKernel::AddNode(const Node& node) {
  nodes_.push_back(node);
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

std::uint32_t ClTermKernel::CompileNode(const Expr& e, Scope* scope,
                                        const Signature& sig) {
  switch (e.kind) {
    case ExprKind::kTrue:
      return AddNode({.op = Op::kTrue});
    case ExprKind::kFalse:
      return AddNode({.op = Op::kFalse});
    case ExprKind::kEqual:
      return AddNode({.op = Op::kEqual,
                      .a = SlotOf(e.vars[0], *scope),
                      .b = SlotOf(e.vars[1], *scope)});
    case ExprKind::kAtom: {
      std::optional<SymbolId> id = sig.Find(e.symbol_name);
      if (!id || sig.Arity(*id) != static_cast<int>(e.vars.size())) {
        return AddNode({.op = Op::kUnknownSymbol});
      }
      Node atom{.op = Op::kAtom,
                .symbol = *id,
                .first = static_cast<std::uint32_t>(args_.size()),
                .count = static_cast<std::uint32_t>(e.vars.size())};
      for (Var v : e.vars) args_.push_back(SlotOf(v, *scope));
      max_arity_ = std::max(max_arity_, atom.count);
      return AddNode(atom);
    }
    case ExprKind::kDistAtom: {
      std::uint32_t a = SlotOf(e.vars[0], *scope);
      std::uint32_t b = SlotOf(e.vars[1], *scope);
      if (a == b) return AddNode({.op = Op::kTrue});
      // Read from the ball of the variable bound first: its value, and so
      // its ball, stays put while the other one varies.
      if (binding_depth_[b] < binding_depth_[a]) std::swap(a, b);
      NeedBall(a, e.dist_bound);
      return AddNode({.op = Op::kDist, .a = a, .b = b, .d = e.dist_bound});
    }
    case ExprKind::kNot:
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::vector<std::uint32_t> kids;
      for (const ExprRef& c : e.children) {
        kids.push_back(CompileNode(*c, scope, sig));
      }
      const Op op = e.kind == ExprKind::kNot   ? Op::kNot
                    : e.kind == ExprKind::kAnd ? Op::kAnd
                                               : Op::kOr;
      CheapFirst(&kids);
      Node node{.op = op,
                .first = static_cast<std::uint32_t>(kids_.size()),
                .count = static_cast<std::uint32_t>(kids.size())};
      kids_.insert(kids_.end(), kids.begin(), kids.end());
      return AddNode(node);
    }
    case ExprKind::kExists:
    case ExprKind::kForall: {
      const BallGuard guard = DetectGuard(e);
      Node q{.op = e.kind == ExprKind::kExists ? Op::kExists : Op::kForall,
             .guarded = guard.found,
             .a = static_cast<std::uint32_t>(binding_depth_.size()),
             .d = guard.d};
      if (guard.found) {
        q.b = SlotOf(guard.anchor, *scope);
        NeedBall(q.b, guard.d);
      }
      binding_depth_.push_back(static_cast<std::uint32_t>(scope->size()));
      ball_radius_.push_back(0);
      scope->emplace_back(e.vars[0], q.a);
      const std::uint32_t body = CompileNode(*e.children[0], scope, sig);
      scope->pop_back();
      q.first = static_cast<std::uint32_t>(kids_.size());
      q.count = 1;
      kids_.push_back(body);
      return AddNode(q);
    }
    default:
      // Counting constructs: not FO+, hence never in a cl-term kernel.
      FOCQ_CHECK(false && "cl-term kernel outside FO+");
      return 0;
  }
}

// One anchored count: the kernel program run on one structure and scratch.
class KernelRun {
 public:
  KernelRun(const ClTermKernel& kernel, const Structure& structure,
            const Graph& gaifman, ClTermScratch* scratch,
            ClTermExploreStats* stats)
      : kernel_(kernel),
        structure_(structure),
        gaifman_(gaifman),
        scratch_(*scratch),
        stats_(*stats) {
    const std::size_t slots = kernel.binding_depth_.size();
    if (scratch_.values_.size() < slots) {
      scratch_.values_.resize(slots);
      scratch_.ball_ready_.resize(slots);
      scratch_.balls_.resize(slots);
    }
    if (scratch_.args_.size() < kernel.max_arity_) {
      scratch_.args_.resize(kernel.max_arity_);
    }
  }

  Result<CountInt> Count(ElemId anchor) {
    ++stats_.anchors;
    Assign(0, anchor);
    Place(0);
    if (overflow_) return Status::OutOfRange("cl-term count overflows int64");
    return count_;
  }

 private:
  using Op = ClTermKernel::Op;

  void Assign(std::uint32_t slot, ElemId value) {
    scratch_.values_[slot] = value;
    scratch_.ball_ready_[slot] = 0;
  }

  // The ball around `slot`'s current value, explored on first use.
  const BallExplorer& Ball(std::uint32_t slot) {
    BallExplorer& ball = scratch_.balls_[slot];
    if (scratch_.ball_ready_[slot] == 0) {
      ball.Bind(gaifman_);
      ball.Explore(scratch_.values_[slot], kernel_.ball_radius_[slot]);
      scratch_.ball_ready_[slot] = 1;
    }
    return ball;
  }

  // Depth-first placement of positions_[depth..]; at the end, the kernel.
  void Place(std::size_t depth) {
    if (depth == kernel_.positions_.size()) {
      ++stats_.placements;
      if (!Eval(kernel_.root_)) return;
      if (count_ == std::numeric_limits<CountInt>::max()) {
        overflow_ = true;
        return;
      }
      ++count_;
      return;
    }
    const ClTermKernel::Position& p = kernel_.positions_[depth];
    ++stats_.balls;
    for (ElemId c : Ball(p.source).Within(p.radius)) {
      bool ok = true;
      for (auto [slot, close] : p.tests) {
        if ((Ball(slot).DistanceTo(c) <= kernel_.separation_) != close) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      Assign(p.slot, c);
      Place(depth + 1);
      if (overflow_) return;
    }
  }

  bool Eval(std::uint32_t id) {
    const ClTermKernel::Node& n = kernel_.nodes_[id];
    const std::vector<ElemId>& values = scratch_.values_;
    switch (n.op) {
      case Op::kTrue:
        return true;
      case Op::kFalse:
        return false;
      case Op::kEqual:
        return values[n.a] == values[n.b];
      case Op::kAtom: {
        ElemId* args = scratch_.args_.data();
        for (std::uint32_t i = 0; i < n.count; ++i) {
          args[i] = values[kernel_.args_[n.first + i]];
        }
        return structure_.Holds(n.symbol, TupleSpan(args, n.count));
      }
      case Op::kUnknownSymbol:
        FOCQ_CHECK(false && "kernel atom over a symbol outside the signature");
        return false;
      case Op::kDist:
        return Ball(n.a).DistanceTo(values[n.b]) <= n.d;
      case Op::kNot:
        return !Eval(kernel_.kids_[n.first]);
      case Op::kAnd:
        for (std::uint32_t i = 0; i < n.count; ++i) {
          if (!Eval(kernel_.kids_[n.first + i])) return false;
        }
        return true;
      case Op::kOr:
        for (std::uint32_t i = 0; i < n.count; ++i) {
          if (Eval(kernel_.kids_[n.first + i])) return true;
        }
        return false;
      case Op::kExists:
      case Op::kForall: {
        // Exists stops at the first true body, forall at the first false
        // one. Outside the guard ball the body is false (exists) / true
        // (forall), so the ball is the whole range that can decide.
        const bool decisive = n.op == Op::kExists;
        const std::uint32_t body = kernel_.kids_[n.first];
        if (n.guarded) {
          for (ElemId v : Ball(n.b).Within(n.d)) {
            Assign(n.a, v);
            if (Eval(body) == decisive) return decisive;
          }
        } else {
          for (ElemId v = 0; v < structure_.universe_size(); ++v) {
            Assign(n.a, v);
            if (Eval(body) == decisive) return decisive;
          }
        }
        return !decisive;
      }
    }
    return false;
  }

  const ClTermKernel& kernel_;
  const Structure& structure_;
  const Graph& gaifman_;
  ClTermScratch& scratch_;
  ClTermExploreStats& stats_;
  CountInt count_ = 0;
  bool overflow_ = false;
};

Result<CountInt> ClTermKernel::CountAnchored(const Structure& structure,
                                             const Graph& gaifman,
                                             ElemId anchor,
                                             ClTermScratch* scratch,
                                             ClTermExploreStats* stats) const {
  return KernelRun(*this, structure, gaifman, scratch, stats).Count(anchor);
}

ClTermScratchPool::Lease::Lease(ClTermScratchPool* pool) : pool_(pool) {
  std::lock_guard<std::mutex> lock(pool_->mutex_);
  if (pool_->free_.empty()) {
    scratch_ = std::make_unique<ClTermScratch>();
  } else {
    scratch_ = std::move(pool_->free_.back());
    pool_->free_.pop_back();
  }
}

ClTermScratchPool::Lease::~Lease() {
  std::lock_guard<std::mutex> lock(pool_->mutex_);
  pool_->free_.push_back(std::move(scratch_));
}

ClTermBallEvaluator::ClTermBallEvaluator(const Structure& structure,
                                         const Graph& gaifman, int num_threads,
                                         const Observer& obs)
    : structure_(structure),
      gaifman_(gaifman),
      num_threads_(EffectiveThreads(num_threads)),
      obs_(obs) {}

Result<std::vector<CountInt>> ClTermBallEvaluator::EvaluateBasicAll(
    const BasicClTerm& basic) {
  FOCQ_CHECK(basic.unary);
  const std::size_t n = structure_.universe_size();
  const ClTermKernel kernel(basic, structure_.signature());
  ClTermScratchPool pool;
  std::vector<CountInt> out(n, 0);
  obs_.AddTotal(ProgressPhase::kClTerm, static_cast<std::int64_t>(n));
  // Chunks share the kernel read-only, lease their scratch from the pool and
  // write disjoint anchor slots; errors are surfaced in chunk order so
  // failure reporting is deterministic too. Exploration tallies land in
  // per-chunk shards and reduce after the join, so the flushed totals are
  // identical for every thread count.
  const std::size_t num_chunks = MakeChunkGrid(n, num_threads_).num_chunks;
  std::vector<Status> chunk_status(num_chunks, Status::Ok());
  ShardedCounter anchors(num_chunks), balls(num_chunks),
      placements(num_chunks);
  ParallelFor(num_threads_, n,
              [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                ClTermScratchPool::Lease scratch = pool.Acquire();
                ClTermExploreStats stats;
                for (std::size_t a = begin; a < end; ++a) {
                  if (obs_.ShouldStop()) return;
                  Result<CountInt> c = kernel.CountAnchored(
                      structure_, gaifman_, static_cast<ElemId>(a),
                      scratch.get(), &stats);
                  if (!c.ok()) {
                    chunk_status[chunk] = c.status();
                    return;
                  }
                  out[a] = *c;
                  obs_.Advance(ProgressPhase::kClTerm, 1);
                }
                anchors.Add(chunk, stats.anchors);
                balls.Add(chunk, stats.balls);
                placements.Add(chunk, stats.placements);
              });
  if (obs_.Cancelled()) {
    return obs_.progress->DeadlineStatus();
  }
  for (const Status& s : chunk_status) {
    if (!s.ok()) return s;
  }
  obs_.Count("clterm.basics_evaluated", 1);
  anchors.FlushTo(obs_.metrics, "clterm.anchors_evaluated");
  balls.FlushTo(obs_.metrics, "clterm.balls_fetched");
  placements.FlushTo(obs_.metrics, "clterm.placements_checked");
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
