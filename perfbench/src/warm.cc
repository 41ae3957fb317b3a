// warm_cover_updates: one closed-loop caller on one long-lived Session with
// the sparse-cover term engine. 7 of 8 statements are reads (about half of
// them repeat an earlier text); every 8th is an update that changes the
// structure, so cover repair and invalidation run between reads.
#include <memory>
#include <optional>

#include "bench.h"
#include "focq/structure/io.h"
#include "focq/util/thread_pool.h"
#include "stats.h"
#include "statements.h"

namespace perfbench {
namespace {

constexpr int kUpdateEvery = 8;

// The live state of the workload: the structure and the Session over it.
struct Live {
  std::optional<focq::Structure> a;
  std::unique_ptr<focq::Session> session;
};

// Loads the input, builds the Session and primes its caches by running one
// read of every template (so the Gaifman graph and each cover exist).
bool SetUp(const std::string& text, const focq::EvalOptions& opts,
           SpanRecorder* spans, Live* live, Outcome* out) {
  {
    Scope load(spans, "structure.load", -1);
    focq::Result<focq::Structure> loaded = focq::ReadStructure(text);
    if (!loaded.ok()) {
      out->Problem("input does not load: " + loaded.status().ToString());
      return false;
    }
    live->a.emplace(std::move(loaded).value());
  }
  {
    Scope create(spans, "core.session_create", -1);
    live->session = std::make_unique<focq::Session>(&*live->a, opts);
  }
  for (const Template& t : WarmFamily()) {
    Statement st{t.kind, Instantiate(t, t.a_lo, t.b_lo)};
    focq::Result<std::string> r = Execute(*live->session, st, spans, -1);
    if (!r.ok()) {
      out->Problem("priming '" + st.text +
                   "' failed: " + r.status().ToString());
      return false;
    }
  }
  return true;
}

void TearDown(SpanRecorder* spans, Live* live) {
  Scope teardown(spans, "structure.teardown", -1);
  live->session.reset();
  live->a.reset();
}

struct PassResult {
  std::vector<Statement> statements;
  std::vector<focq::Result<std::string>> answers;
  std::vector<double> read_ms, update_ms;
  std::int64_t from_ns = 0, to_ns = 0;
  PoolSnapshot pool_before, pool_after;
  focq::EvalMetrics counters_before;
  double peak_rss_mb = 0;
  std::int64_t repeated_reads = 0;
};

PassResult Pass(const Config& cfg, const std::string& text, int threads,
                Instruments* ins, std::vector<double>* setup_s, Outcome* out) {
  PassResult r;
  SpanRecorder* spans = &ins->spans;
  const focq::EvalOptions opts =
      MakeEvalOptions(focq::TermEngine::kSparseCover, threads, ins);
  Live live;
  for (int rep = 0; rep < kSetUps; ++rep) {
    if (live.session != nullptr) TearDown(spans, &live);
    const std::int64_t t0 = NowNs();
    if (!SetUp(text, opts, spans, &live, out)) return r;
    if (setup_s != nullptr) setup_s->push_back(Ms(t0, NowNs()) / 1e3);
  }
  ReadStream reads(WarmFamily(), cfg.seed * 7919 + 2, /*repeat_share=*/0.5,
                   /*unique=*/true);
  UpdateStream updates(*live.a, cfg.seed * 7919 + 3);
  if (ins->enabled) r.counters_before = ins->metrics.Snapshot();
  r.pool_before = TakePoolSnapshot();
  r.from_ns = NowNs();
  const std::int64_t deadline =
      r.from_ns + static_cast<std::int64_t>(cfg.seconds * 1e9);
  for (std::int64_t op = 0; NowNs() < deadline; ++op) {
    const bool is_update = op % kUpdateEvery == kUpdateEvery - 1;
    Statement st = is_update ? updates.Next() : reads.Next();
    const std::int64_t t0 = NowNs();
    const int op_span = spans->Begin("op", op);
    focq::Result<std::string> answer = Execute(*live.session, st, spans, op);
    spans->End(op_span);
    (is_update ? r.update_ms : r.read_ms).push_back(Ms(t0, NowNs()));
    r.statements.push_back(std::move(st));
    r.answers.push_back(std::move(answer));
  }
  r.to_ns = NowNs();
  r.pool_after = TakePoolSnapshot();
  r.peak_rss_mb = PeakRssMb();
  r.repeated_reads = reads.repeated();
  TearDown(spans, &live);
  return r;
}

// Answer check, outside the timed region: the stream is replayed through a
// fresh single-thread Session over a fresh copy of the input (warm == cold,
// and thread independence). Every update is applied and checked; a seeded
// half of the reads is evaluated and compared -- a serial replay of all of
// them would take about three times the measured window.
void Check(const Config& cfg, const std::string& text, const PassResult& r,
           Outcome* out) {
  focq::Result<focq::Structure> loaded = focq::ReadStructure(text);
  if (!loaded.ok()) {
    out->Problem("replay input does not load");
    return;
  }
  focq::Structure b = std::move(loaded).value();
  focq::Session serial(
      &b, MakeEvalOptions(focq::TermEngine::kSparseCover, 1, nullptr));
  SpanRecorder none(false);
  std::int64_t checked = 0;
  for (std::size_t i = 0; i < r.statements.size(); ++i) {
    const Statement& st = r.statements[i];
    const focq::Result<std::string>& got = r.answers[i];
    out->attempted += 1;
    if (st.kind != Kind::kUpdate && (i + cfg.seed) % 2 != 0) {
      if (!got.ok()) {
        out->failed += 1;
        out->Problem("statement " + std::to_string(i) + " failed: " +
                     got.status().ToString());
      }
      continue;
    }
    ++checked;
    focq::Result<std::string> want = Execute(serial, st, &none, -1);
    if (!got.ok() || !want.ok() || *want != *got) {
      out->failed += 1;
      out->Problem("statement " + std::to_string(i) + " '" + st.text +
                   "': warm answer " +
                   (got.ok() ? *got : got.status().ToString()) +
                   " != replay answer " +
                   (want.ok() ? *want : want.status().ToString()));
    } else if (st.kind == Kind::kUpdate && *got != "applied") {
      out->failed += 1;
      out->Problem("update '" + st.text + "' did not change the structure");
    }
  }
  out->Line("answer check: " + std::to_string(checked) + " of " +
            std::to_string(r.statements.size()) +
            " statements (every update) replayed through a fresh "
            "num_threads=1 Session");
}

}  // namespace

Outcome RunWarm(const Config& cfg) {
  Outcome out;
  const std::size_t n = static_cast<std::size_t>(cfg.Num("n"));
  const int threads = static_cast<int>(cfg.Num("threads"));
  const std::string text = MakeInputText("tree", n, cfg.seed);

  std::vector<double> setup_s;
  Instruments off(false);
  PassResult plain = Pass(cfg, text, threads, &off, &setup_s, &out);
  if (!out.problems.empty()) return out;
  CheckThreadContract(threads, plain.pool_before, plain.pool_after, &out);
  Check(cfg, text, plain, &out);
  const double reads = static_cast<double>(plain.read_ms.size());
  out.Line("warm_cover_updates: random recursive tree n=" + std::to_string(n) +
           " ||A||=" + std::to_string(SizeNorm(text)) +
           ", kLocal/kSparseCover, num_threads=" + std::to_string(threads) +
           "; " + std::to_string(plain.read_ms.size()) + " reads (" +
           std::to_string(plain.repeated_reads) + " repeated texts), " +
           std::to_string(plain.update_ms.size()) + " updates");
  ReportLatencies("read latency", plain.read_ms, &out);
  ReportLatencies("update latency (Session::ApplyUpdate)", plain.update_ms,
                  &out);
  const double p50 = Median(plain.read_ms);
  out.Set("setup_s", Median(setup_s), "s");
  out.Set("op_p50_ms", p50, "ms");
  out.Set("op_tail_ms", TailPercentile(plain.read_ms).value, "ms");
  out.Set("ops_per_s", reads / (Ms(plain.from_ns, plain.to_ns) / 1e3), "op/s");
  out.Set("update_p50_ms", Median(plain.update_ms), "ms");
  out.Set("peak_rss_mb", plain.peak_rss_mb, "MB");
  if (!cfg.trace) return out;

  Instruments ins(true);
  PassResult traced = Pass(cfg, text, threads, &ins, nullptr, &out);
  if (!out.problems.empty()) return out;
  Check(cfg, text, traced, &out);
  const focq::EvalMetrics after = ins.metrics.Snapshot();
  if (after.counters.contains("update.noops") &&
      after.counters.at("update.noops") != 0) {
    out.Problem("update.noops = " +
                std::to_string(after.counters.at("update.noops")));
  }
  LayerInputs in;
  in.ins = &ins;
  in.program = ProgramSpans(ins.trace, ins.trace_epoch_ns);
  in.from_ns = traced.from_ns;
  in.to_ns = traced.to_ns;
  in.reads = static_cast<std::int64_t>(traced.read_ms.size());
  in.updates = static_cast<std::int64_t>(traced.update_ms.size());
  // Additive counters over the measured window; high-water marks, and the
  // cover totals behind clusters-per-cover, over the whole pass (the covers
  // are built in set-up).
  in.counters = after;
  for (auto& [name, v] : in.counters.counters) {
    auto it = traced.counters_before.counters.find(name);
    const bool whole_pass = name.rfind("mem.", 0) == 0 ||
                            name == "ctx.cache.bytes" ||
                            name == "cover.clusters" || name == "cover.builds";
    if (it != traced.counters_before.counters.end() && !whole_pass) {
      v -= it->second;
    }
  }
  in.pool_before = traced.pool_before;
  in.pool_after = traced.pool_after;
  {
    focq::Result<focq::Structure> copy_source = focq::ReadStructure(text);
    if (copy_source.ok()) in.copy_ms = TimeCopies(*copy_source, 5, &ins.spans);
  }
  AddLayerMetrics(in, &out);
  out.Set("op.unattributed_share",
          UnattributedShare(ins.spans.spans(), in.program, in.from_ns,
                            in.to_ns),
          "fraction");
  out.Set("obs.trace_overhead_pct",
          100.0 * (Ratio(Median(traced.read_ms), p50, 1.0) - 1.0), "%");
  WriteChromeTrace(cfg, ins.spans.spans(), ins.trace_epoch_ns,
                   ins.trace.ToChromeTracing(), &out);
  return out;
}

}  // namespace perfbench
