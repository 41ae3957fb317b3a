#include "statements.h"

#include "focq/graph/generators.h"
#include "focq/logic/fragment.h"
#include "focq/logic/parser.h"
#include "focq/structure/io.h"
#include "focq/structure/update.h"

namespace perfbench {

const char* KindWord(Kind kind) {
  switch (kind) {
    case Kind::kCheck: return "check";
    case Kind::kCount: return "count";
    case Kind::kTerm: return "term";
    case Kind::kUpdate: return "update";
  }
  return "?";
}

std::string MakeInputText(const std::string& family, std::size_t n,
                          std::uint64_t seed) {
  focq::Rng rng(seed);
  focq::Graph g = family == "tree" ? focq::MakeRandomTree(n, &rng)
                                   : focq::MakeRandomBoundedDegree(n, 4, &rng);
  focq::Structure a(focq::Signature({{"E", 2}, {"R", 1}}), n);
  for (auto [u, v] : g.Edges()) {
    a.AddTuple(0, {u, v});
    a.AddTuple(0, {v, u});
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (rng.NextBool(0.3)) a.AddTuple(1, {static_cast<focq::ElemId>(v)});
  }
  return focq::WriteStructure(a);
}

std::size_t SizeNorm(const std::string& text) {
  focq::Result<focq::Structure> a = focq::ReadStructure(text);
  return a.ok() ? a->SizeNorm() : 0;
}

namespace {

std::string CountText(focq::CountInt v) {
  return std::to_string(static_cast<long long>(v));
}

}  // namespace

focq::Result<std::string> Execute(focq::Session& session, const Statement& st,
                                  SpanRecorder* spans, std::int64_t op) {
  const focq::Signature& sig = session.structure().signature();
  if (st.kind == Kind::kUpdate) {
    focq::Result<focq::TupleUpdate> update = [&] {
      Scope parse(spans, "logic.parse", op);
      return focq::ParseUpdate(st.text, sig);
    }();
    if (!update.ok()) return update.status();
    Scope apply(spans, "core.apply_update", op);
    focq::Result<focq::UpdateStats> stats = session.ApplyUpdate(*update);
    if (!stats.ok()) return stats.status();
    return std::string(stats->changed ? "applied" : "noop");
  }
  if (st.kind == Kind::kTerm) {
    focq::Result<focq::Term> term = [&]() -> focq::Result<focq::Term> {
      Scope parse(spans, "logic.parse", op);
      focq::Result<focq::Term> t = focq::ParseTerm(st.text);
      if (!t.ok()) return t;
      if (focq::Status s = focq::CheckSymbols(*t, sig); !s.ok()) return s;
      return t;
    }();
    if (!term.ok()) return term.status();
    Scope eval(spans, "core.evaluate", op);
    focq::Result<focq::CountInt> v = session.EvaluateGroundTerm(*term);
    if (!v.ok()) return v.status();
    return CountText(*v);
  }
  focq::Result<focq::Formula> formula = [&]() -> focq::Result<focq::Formula> {
    Scope parse(spans, "logic.parse", op);
    focq::Result<focq::Formula> f = focq::ParseFormula(st.text);
    if (!f.ok()) return f;
    if (focq::Status s = focq::CheckSymbols(*f, sig); !s.ok()) return s;
    return f;
  }();
  if (!formula.ok()) return formula.status();
  Scope eval(spans, "core.evaluate", op);
  if (st.kind == Kind::kCheck) {
    focq::Result<bool> holds = session.ModelCheck(*formula);
    if (!holds.ok()) return holds.status();
    return std::string(*holds ? "true" : "false");
  }
  focq::Result<focq::CountInt> count = session.CountSolutions(*formula);
  if (!count.ok()) return count.status();
  return CountText(*count);
}

std::string Instantiate(const Template& t, int a, int b) {
  std::string out;
  for (const char* p = t.text; *p != '\0'; ++p) {
    if (p[0] == '{' && (p[1] == 'a' || p[1] == 'b') && p[2] == '}') {
      out += std::to_string(p[1] == 'a' ? a : b);
      p += 2;
    } else {
      out += *p;
    }
  }
  return out;
}

ReadStream::ReadStream(std::vector<Template> family, std::uint64_t seed,
                       double repeat_share, bool unique)
    : family_(std::move(family)),
      rng_(seed),
      repeat_share_(repeat_share),
      unique_(unique),
      used_(family_.size()) {}

Statement ReadStream::Next() {
  const std::size_t ti = next_template_;
  next_template_ = (next_template_ + 1) % family_.size();
  const Template& t = family_[ti];
  std::vector<std::string>& used = used_[ti];
  Statement st{t.kind, {}};
  if (!used.empty() && rng_.NextDouble() < repeat_share_) {
    st.text = used[rng_.NextBelow(used.size())];
  } else {
    // Fresh constants; in unique mode redraw until the text is new (the
    // template ranges are far larger than the texts one run issues).
    for (int attempt = 0; attempt < 1000; ++attempt) {
      const int a = static_cast<int>(rng_.NextInRange(t.a_lo, t.a_hi));
      const int b = static_cast<int>(rng_.NextInRange(t.b_lo, t.b_hi));
      st.text = Instantiate(t, a, b);
      if (!unique_ || !seen_.contains(st.text)) break;
    }
    used.push_back(st.text);
  }
  if (!seen_.insert(st.text).second) ++repeated_;
  return st;
}

UpdateStream::UpdateStream(const focq::Structure& initial, std::uint64_t seed)
    : n_(initial.universe_size()), rng_(seed), in_r_(n_, false) {
  const focq::SymbolId e = *initial.signature().Find("E");
  const focq::SymbolId r = *initial.signature().Find("R");
  for (const focq::Tuple& t : initial.relation(e).tuples()) {
    edges_.insert({t[0], t[1]});
  }
  for (const focq::Tuple& t : initial.relation(r).tuples()) in_r_[t[0]] = true;
}

Statement UpdateStream::Next() {
  const double coin = rng_.NextDouble();
  auto pair_text = [](const char* verb,
                      std::pair<std::uint32_t, std::uint32_t> p) {
    return std::string(verb) + " E " + std::to_string(p.first) + " " +
           std::to_string(p.second);
  };
  if (coin < 0.2) {
    const std::uint32_t x = static_cast<std::uint32_t>(rng_.NextBelow(n_));
    const bool was = in_r_[x];
    in_r_[x] = !was;
    return {Kind::kUpdate,
            std::string(was ? "delete" : "insert") + " R " + std::to_string(x)};
  }
  if (!pending_deletes_.empty() &&
      (coin < 0.6 || pending_deletes_.size() > 4)) {
    const auto p = pending_deletes_.front();
    pending_deletes_.erase(pending_deletes_.begin());
    edges_.erase(p);
    return {Kind::kUpdate, pair_text("delete", p)};
  }
  std::pair<std::uint32_t, std::uint32_t> p;
  do {
    p = {static_cast<std::uint32_t>(rng_.NextBelow(n_)),
         static_cast<std::uint32_t>(rng_.NextBelow(n_))};
  } while (p.first == p.second || edges_.contains(p));
  edges_.insert(p);
  pending_deletes_.push_back(p);
  return {Kind::kUpdate, pair_text("insert", p)};
}

// Constants only change answers, not the work: each template costs about
// the same for every draw, so runs with different seeds stay comparable.
std::vector<Template> ColdFamily() {
  return {
      {Kind::kCount, "@ge1(#(y). (E(x, y) & R(y)) * {a} - {b})", 1, 9, 0, 40},
      {Kind::kTerm, "#(x). (R(x) & @ge1(#(y). (E(x, y)) - {a})) + {b}", 1, 4,
       0, 999},
      {Kind::kCheck,
       "exists x. @ge1(#(y). (dist(x, y) <= 2 & R(y)) * {b} - {a})", 1, 12, 1,
       20},
      {Kind::kCount,
       "@ge1(#(y). (E(x, y) & @eq(#(z). (E(y, z)), {a})) * {b} - 1)", 1, 4, 1,
       99},
      {Kind::kTerm, "#(x). (@leq(#(y). (dist(x, y) <= 1 & R(y)), {a})) * {b}",
       0, 5, 1, 999},
  };
}

// Radius 1 only: on random recursive trees the radius-2 clusters depend so
// much on where the hubs fall that one such template set the tail and the
// throughput of a run by itself, and those swung by 50% from seed to seed.
std::vector<Template> WarmFamily() {
  return {
      {Kind::kCount, "@ge1(#(y). (E(x, y) & R(y)) * {a} - {b})", 1, 9, 0, 40},
      {Kind::kTerm, "#(x). (R(x) & @ge1(#(y). (E(x, y)) - {a})) + {b}", 1, 4,
       0, 999},
      {Kind::kCount,
       "@ge1(#(y). (E(x, y) & @eq(#(z). (E(y, z)), {a})) * {b} - 1)", 1, 4, 1,
       99},
      {Kind::kCheck, "exists x. @ge1(#(y). (E(x, y) & R(y)) * {b} - {a})", 1,
       12, 1, 20},
      {Kind::kCount, "@leq(#(y). (E(x, y)) * {b}, {a})", 0, 60, 1, 9},
      {Kind::kTerm, "#(x, y). (E(x, y) & R(x) & R(y)) * {b} + {a}", 0, 99, 1,
       9},
      {Kind::kCount, "R(x) & @leq(#(y). (E(x, y) & R(y)) * {b}, {a})", 0, 60,
       1, 9},
      {Kind::kCheck, "exists x. (R(x) & @eq(#(y). (E(x, y)) * {b}, {a}))", 1,
       99, 1, 9},
  };
}

std::vector<Template> ServedFamily() {
  return {
      {Kind::kCount, "@ge1(#(y). (E(x, y) & R(y)) - {a})", 1, 2, 0, 0},
      {Kind::kTerm, "#(x). (R(x) & @ge1(#(y). (E(x, y)) - {a}))", 1, 3, 0, 0},
      {Kind::kCheck, "exists x. @ge1(#(y). (dist(x, y) <= 2 & R(y)) - {a})", 5,
       8, 0, 0},
      {Kind::kCount, "@ge1(#(y). (E(x, y) & @eq(#(z). (E(y, z)), {a})) - 1)",
       2, 3, 0, 0},
      {Kind::kTerm, "#(x, y). (E(x, y) & R(x) & R(y))", 0, 0, 0, 0},
      {Kind::kCount, "@leq(#(y). (E(x, y)), {a})", 1, 2, 0, 0},
  };
}

}  // namespace perfbench
