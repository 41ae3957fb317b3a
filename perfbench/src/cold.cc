// cold_oneshot: one closed-loop caller; every op loads the structure from
// its serialisation, builds a fresh Session, runs one never-repeated
// statement and tears everything down -- the paper's one-shot setting, where
// no artifact or plan cache can help.
#include <memory>
#include <optional>

#include "bench.h"
#include "focq/structure/io.h"
#include "focq/util/thread_pool.h"
#include "stats.h"
#include "statements.h"

namespace perfbench {
namespace {

struct PassResult {
  std::vector<Statement> statements;
  std::vector<focq::Result<std::string>> answers;
  std::vector<double> latency_ms;
  std::int64_t from_ns = 0, to_ns = 0;
  PoolSnapshot pool_before, pool_after;
  double peak_rss_mb = 0;
};

PassResult Pass(const Config& cfg, const std::string& text, int threads,
                Instruments* ins) {
  PassResult r;
  ReadStream reads(ColdFamily(), cfg.seed * 7919 + 1, /*repeat_share=*/0.0,
                   /*unique=*/true);
  const focq::EvalOptions opts =
      MakeEvalOptions(focq::TermEngine::kBall, threads, ins);
  SpanRecorder* spans = &ins->spans;
  r.pool_before = TakePoolSnapshot();
  r.from_ns = NowNs();
  const std::int64_t deadline =
      r.from_ns + static_cast<std::int64_t>(cfg.seconds * 1e9);
  for (std::int64_t op = 0; NowNs() < deadline; ++op) {
    Statement st = reads.Next();
    const std::int64_t t0 = NowNs();
    const int op_span = spans->Begin("op", op);
    std::optional<focq::Structure> a;
    focq::Result<std::string> answer = focq::Status::Internal("not run");
    {
      Scope load(spans, "structure.load", op);
      focq::Result<focq::Structure> loaded = focq::ReadStructure(text);
      if (loaded.ok()) a.emplace(std::move(loaded).value());
      else answer = loaded.status();
    }
    if (a.has_value()) {
      std::unique_ptr<focq::Session> session;
      {
        Scope create(spans, "core.session_create", op);
        session = std::make_unique<focq::Session>(*a, opts);
      }
      answer = Execute(*session, st, spans, op);
      Scope teardown(spans, "structure.teardown", op);
      session.reset();
      a.reset();
    }
    spans->End(op_span);
    r.latency_ms.push_back(Ms(t0, NowNs()));
    r.statements.push_back(std::move(st));
    r.answers.push_back(std::move(answer));
  }
  r.to_ns = NowNs();
  r.pool_after = TakePoolSnapshot();
  r.peak_rss_mb = PeakRssMb();
  return r;
}

// Answer check, outside the timed region: a seeded half of the ops is
// re-run through a serial (num_threads = 1) Session and must agree.
void Check(const Config& cfg, const focq::Structure& checker,
           const PassResult& r, Outcome* out) {
  focq::Session serial(checker,
                       MakeEvalOptions(focq::TermEngine::kBall, 1, nullptr));
  SpanRecorder none(false);
  std::int64_t checked = 0;
  for (std::size_t i = 0; i < r.statements.size(); ++i) {
    out->attempted += 1;
    const focq::Result<std::string>& got = r.answers[i];
    if (!got.ok()) {
      out->failed += 1;
      out->Problem("op " + std::to_string(i) + " failed: " +
                   got.status().ToString());
      continue;
    }
    if ((i + cfg.seed) % 2 != 0) continue;
    ++checked;
    focq::Result<std::string> want =
        Execute(serial, r.statements[i], &none, -1);
    if (!want.ok() || *want != *got) {
      out->failed += 1;
      out->Problem("op " + std::to_string(i) + " '" + r.statements[i].text +
                   "': 4-thread answer " + *got + " != serial answer " +
                   (want.ok() ? *want : want.status().ToString()));
    }
  }
  out->Line("answer check: " + std::to_string(checked) + " of " +
            std::to_string(r.statements.size()) +
            " ops re-run serially (num_threads=1)");
}

}  // namespace

Outcome RunCold(const Config& cfg) {
  Outcome out;
  const std::size_t n = static_cast<std::size_t>(cfg.Num("n"));
  const int threads = static_cast<int>(cfg.Num("threads"));

  // Set-up: generate and serialise the input (the Session is per op here).
  std::vector<double> setup_s;
  std::string text;
  for (int rep = 0; rep < kSetUps; ++rep) {
    const std::int64_t t0 = NowNs();
    text = MakeInputText("bounded4", n, cfg.seed);
    focq::ThreadPool::Shared();
    setup_s.push_back(Ms(t0, NowNs()) / 1e3);
  }
  focq::Result<focq::Structure> checker = focq::ReadStructure(text);
  if (!checker.ok()) {
    out.Problem("input does not load: " + checker.status().ToString());
    return out;
  }
  out.Line("cold_oneshot: bounded-degree (max 4) n=" + std::to_string(n) +
           " ||A||=" + std::to_string(checker->SizeNorm()) +
           ", kLocal/kBall, num_threads=" + std::to_string(threads));

  Instruments off(false);
  PassResult plain = Pass(cfg, text, threads, &off);
  CheckThreadContract(threads, plain.pool_before, plain.pool_after, &out);
  Check(cfg, *checker, plain, &out);
  const double p50 = Median(plain.latency_ms);
  ReportLatencies("op latency (load .. teardown)", plain.latency_ms, &out);
  out.Set("setup_s", Median(setup_s), "s");
  out.Set("op_p50_ms", p50, "ms");
  out.Set("op_tail_ms", TailPercentile(plain.latency_ms).value, "ms");
  out.Set("ops_per_s",
          static_cast<double>(plain.latency_ms.size()) /
              (Ms(plain.from_ns, plain.to_ns) / 1e3),
          "op/s");
  out.Set("peak_rss_mb", plain.peak_rss_mb, "MB");
  if (!cfg.trace) return out;

  Instruments ins(true);
  PassResult traced = Pass(cfg, text, threads, &ins);
  Check(cfg, *checker, traced, &out);
  LayerInputs in;
  in.ins = &ins;
  in.program = ProgramSpans(ins.trace, ins.trace_epoch_ns);
  in.from_ns = traced.from_ns;
  in.to_ns = traced.to_ns;
  in.reads = static_cast<std::int64_t>(traced.statements.size());
  in.counters = ins.metrics.Snapshot();
  in.pool_before = traced.pool_before;
  in.pool_after = traced.pool_after;
  in.copy_ms = TimeCopies(*checker, 5, &ins.spans);
  AddLayerMetrics(in, &out);
  out.Set("op.unattributed_share",
          UnattributedShare(ins.spans.spans(), in.program, in.from_ns,
                            in.to_ns),
          "fraction");
  out.Set("obs.trace_overhead_pct",
          100.0 * (Ratio(Median(traced.latency_ms), p50, 1.0) - 1.0), "%");
  WriteChromeTrace(cfg, ins.spans.spans(), ins.trace_epoch_ns,
                   ins.trace.ToChromeTracing(), &out);
  return out;
}

}  // namespace perfbench
