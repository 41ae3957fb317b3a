#include "bench.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>

#include "focq/util/thread_pool.h"
#include "stats.h"

namespace perfbench {

double Config::Num(const std::string& key) const {
  auto it = params.find(key);
  if (it == params.end()) {
    std::fprintf(stderr, "perfbench: missing workload parameter '%s'\n",
                 key.c_str());
    std::exit(2);
  }
  return std::stod(it->second);
}

focq::EvalOptions MakeEvalOptions(focq::TermEngine term_engine, int threads,
                                  Instruments* ins) {
  focq::EvalOptions o;
  o.engine = focq::Engine::kLocal;
  o.term_engine = term_engine;
  o.num_threads = threads;
  o.metrics = ins == nullptr ? nullptr : ins->metrics_sink();
  o.trace = ins == nullptr ? nullptr : ins->trace_sink();
  return o;
}

PoolSnapshot TakePoolSnapshot() {
  focq::ThreadPool& pool = focq::ThreadPool::Shared();
  const focq::ThreadPool::Stats s = pool.GetStats();
  return {.tasks = s.tasks_submitted,
          .steals = s.steals,
          .busy_ns = s.busy_ns,
          .at_ns = NowNs(),
          .workers = pool.num_workers()};
}

void CheckThreadContract(int threads, const PoolSnapshot& before,
                         const PoolSnapshot& after, Outcome* out) {
  if (threads != 1 && after.tasks <= before.tasks) {
    out->Problem("thread contract: num_threads=" + std::to_string(threads) +
                 " but the shared pool ran no tasks");
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string Fmt(double v, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name, std::int64_t from_ns,
                                std::int64_t to_ns) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name && s.start_ns >= from_ns && s.start_ns < to_ns) {
      out.push_back(Ms(s.start_ns, s.end_ns));
    }
  }
  return out;
}

std::int64_t Counter(const focq::EvalMetrics& m, const std::string& name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

}  // namespace

void ReportLatencies(const std::string& label,
                     const std::vector<double>& samples_ms, Outcome* out) {
  const Tail tail = TailPercentile(samples_ms);
  const Quartiles q = ComputeQuartiles(samples_ms);
  out->Line(label + ": n=" + std::to_string(samples_ms.size()) +
            " p50=" + Fmt(Median(samples_ms)) + " ms q1=" + Fmt(q.q1) +
            " q3=" + Fmt(q.q3) + " tail=p" + Fmt(tail.percentile, 1) + "=" +
            Fmt(tail.value) + " ms" +
            (tail.valid ? "" : " (fewer than 11 samples: tail is the max)"));
}

void AddLayerMetrics(const LayerInputs& in, Outcome* out) {
  const std::vector<Span>& bench = in.ins->spans.spans();
  const std::map<std::string, LayerTime> prog =
      SelfTimes(in.program, in.from_ns, in.to_ns);
  auto layer = [&](const std::string& name) {
    auto it = prog.find(name);
    return it == prog.end() ? LayerTime{} : it->second;
  };
  const double reads = static_cast<double>(in.reads);
  // Program span time per read op, in ms.
  auto self_ms = [&](const std::string& name) {
    return Ratio(static_cast<double>(layer(name).self_ns) / 1e6, reads);
  };
  auto total_ms = [&](const std::string& name) {
    return Ratio(static_cast<double>(layer(name).total_ns) / 1e6, reads);
  };
  const focq::EvalMetrics& c = in.counters;
  auto count = [&](const std::string& name) {
    return static_cast<double>(Counter(c, name));
  };
  auto per_read = [&](const std::string& name) {
    return Ratio(count(name), reads);
  };
  // Median duration of a benchmark span; load and teardown happen per op on
  // cold_oneshot and in set-up elsewhere, so they are taken over the pass.
  auto median_ms = [&](const std::string& name, std::int64_t from_ns,
                       std::int64_t to_ns) {
    return Median(DurationsMs(bench, name, from_ns, to_ns));
  };
  constexpr std::int64_t kAll = INT64_MAX;

  // structure
  out->Set("structure.load_ms", median_ms("structure.load", 0, kAll), "ms");
  out->Set("structure.teardown_ms", median_ms("structure.teardown", 0, kAll),
           "ms");
  out->Set("structure.copy_ms", Median(in.copy_ms), "ms");
  out->Set("structure.working_copy_bytes", count("mem.structure.bytes"),
           "bytes");
  out->Set("structure.gaifman_ms", total_ms("gaifman_build"), "ms");

  // logic + core/plan
  out->Set("logic.parse_us",
           1000.0 * median_ms("logic.parse", in.from_ns, in.to_ns), "us");
  const LayerTime compile = layer("compile");
  out->Set("plan.compile_us",
           Ratio(static_cast<double>(compile.total_ns) / 1e3,
                 static_cast<double>(compile.count)),
           "us");
  const double compilations = count("plan.compilations");
  out->Set("plan.compilations", Ratio(compilations, reads), "count");
  out->Set("plan.layers", Ratio(count("plan.layers"), compilations), "count");
  out->Set("plan.basic_cl_terms",
           Ratio(count("plan.basic_cl_terms"), compilations), "count");

  // core/evaluator + locality, per read op
  out->Set("evaluator.materialize_ms", self_ms("materialize_layers"), "ms");
  out->Set("evaluator.layer0_ms", self_ms("layer_0"), "ms");
  out->Set("evaluator.layer1_ms", self_ms("layer_1"), "ms");
  out->Set("evaluator.residual_ms", self_ms("residual_eval"), "ms");
  out->Set("cl_term.eval_ms", self_ms("cl_term_eval"), "ms");
  for (const char* name : {"clterm.anchors_evaluated", "clterm.balls_fetched",
                           "clterm.placements_checked"}) {
    out->Set(name, per_read(name), "count");
  }

  // cover (kSparseCover only)
  const bool cover_engine = count("cover_eval.clusters_materialized") > 0;
  out->Set("cover.build_ms", total_ms("cover_build"), "ms");
  out->Set("cover.clusters",
           Ratio(count("cover.clusters"), count("cover.builds")), "count");
  out->Set("cover_eval.ms", cover_engine ? self_ms("cl_term_eval") : 0.0,
           "ms");
  for (const char* name :
       {"cover_eval.clusters_materialized", "cover_eval.cluster_elements"}) {
    out->Set(name, per_read(name), "count");
  }

  // core/context
  const double hits = count("ctx.cache.hits");
  out->Set("context.hit_ratio",
           Ratio(hits, hits + count("ctx.cache.misses")), "fraction");
  out->Set("context.repair_ms",
           Ratio(static_cast<double>(layer("update_repair").total_ns) / 1e6,
                 static_cast<double>(in.updates)),
           "ms");
  const double repairs = count("update.repairs");
  double invalidated = 0;
  for (const auto& [name, v] : c.counters) {
    if (name.rfind("cache.invalidated.", 0) == 0) {
      invalidated += static_cast<double>(v);
    }
  }
  out->Set("context.repair_ratio", Ratio(repairs, repairs + invalidated),
           "fraction");
  out->Set("context.cache_bytes", count("ctx.cache.bytes"), "bytes");

  // util/thread_pool, per op over the measured window
  const PoolSnapshot& a = in.pool_before;
  const PoolSnapshot& b = in.pool_after;
  const double ops = in.pool_ops > 0 ? static_cast<double>(in.pool_ops) : reads;
  const double busy_ns = static_cast<double>(b.busy_ns - a.busy_ns);
  out->Set("pool.tasks", Ratio(static_cast<double>(b.tasks - a.tasks), ops),
           "count");
  out->Set("pool.steals", Ratio(static_cast<double>(b.steals - a.steals), ops),
           "count");
  out->Set("pool.busy_ms", Ratio(busy_ns / 1e6, ops), "ms");
  out->Set("pool.utilisation",
           Ratio(busy_ns, static_cast<double>(b.workers) *
                              static_cast<double>(b.at_ns - a.at_ns)),
           "fraction");
}

double UnattributedShare(const std::vector<Span>& bench,
                         const std::vector<Span>& program, std::int64_t from_ns,
                         std::int64_t to_ns) {
  std::vector<std::int64_t> attributed(bench.size(), 0);
  for (const Span& s : bench) {
    if (s.parent < 0 || bench[s.parent].name != "op") continue;
    attributed[s.parent] +=
        s.name == "core.evaluate" || s.name == "core.apply_update"
            ? CoveredNs(program, s.start_ns, s.end_ns)
            : s.end_ns - s.start_ns;
  }
  double wall = 0, covered = 0;
  for (std::size_t i = 0; i < bench.size(); ++i) {
    const Span& s = bench[i];
    if (s.name != "op" || s.start_ns < from_ns || s.start_ns >= to_ns) continue;
    wall += static_cast<double>(s.end_ns - s.start_ns);
    covered += static_cast<double>(attributed[i]);
  }
  return Ratio(wall - covered, wall);
}

std::vector<double> TimeCopies(const focq::Structure& a, int reps,
                               SpanRecorder* spans) {
  std::vector<double> out;
  for (int i = 0; i < reps; ++i) {
    std::optional<focq::Structure> copy;  // destroyed outside the timing
    const std::int64_t t0 = NowNs();
    {
      Scope s(spans, "structure.copy", -1);
      copy.emplace(a);
    }
    out.push_back(Ms(t0, NowNs()));
  }
  return out;
}

void WriteChromeTrace(const Config& cfg, const std::vector<Span>& bench,
                      std::int64_t epoch_ns,
                      const std::string& program_chrome_json, Outcome* out) {
  const std::string path = cfg.out_dir + "/trace_" + cfg.workload + ".json";
  std::ofstream f(path);
  f << ChromeTrace(bench, epoch_ns, program_chrome_json);
  if (!f) {
    out->Problem("could not write " + path);
    return;
  }
  out->Line("chrome://tracing file: " + path);
}

}  // namespace perfbench
