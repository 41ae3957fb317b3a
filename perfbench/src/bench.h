// Shared plumbing of the three workloads: run configuration, the result a
// workload hands back, the instruments a traced pass installs, and the
// per-layer table every workload reports.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "focq/core/api.h"
#include "focq/obs/metrics.h"
#include "focq/obs/trace.h"
#include "spans.h"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // where a traced run writes its chrome://tracing file
  std::map<std::string, std::string> params;  // from workloads.json

  /// A required numeric parameter; aborts the run when absent.
  double Num(const std::string& key) const;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload run hands back: metrics by name, human-readable report
/// lines, and the outcome of every answer check.
struct Outcome {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> report;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  // failed checks; non-empty = incorrect

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Line(const std::string& text) { report.push_back(text); }
  void Problem(const std::string& text) { problems.push_back(text); }
};

/// The sinks a traced pass installs: the benchmark's own spans plus the
/// program's existing MetricsSink / TraceSink. An untraced pass installs
/// none of them.
struct Instruments {
  explicit Instruments(bool on) : enabled(on), spans(on) {}
  Instruments(const Instruments&) = delete;
  Instruments& operator=(const Instruments&) = delete;

  focq::MetricsSink* metrics_sink() { return enabled ? &metrics : nullptr; }
  focq::TraceSink* trace_sink() { return enabled ? &trace : nullptr; }

  bool enabled;
  SpanRecorder spans;
  focq::MetricsSink metrics;
  std::int64_t trace_epoch_ns = NowNs();  // read just before `trace` exists
  focq::TraceSink trace;
};

/// Set-ups per pass; setup_s is their median and the last one is kept.
inline constexpr int kSetUps = 5;

/// Evaluation options, every field set by name: a positional initialiser
/// once silently turned a thread count into an approximation parameter.
focq::EvalOptions MakeEvalOptions(focq::TermEngine term_engine, int threads,
                                  Instruments* ins);

/// Shared-pool counters, to prove a parallel configuration ran in parallel
/// and to report pool work per op.
struct PoolSnapshot {
  std::int64_t tasks = 0;
  std::int64_t steals = 0;
  std::int64_t busy_ns = 0;
  std::int64_t at_ns = 0;
  int workers = 0;
};
PoolSnapshot TakePoolSnapshot();

/// The thread-contract guard: a run with num_threads != 1 must have
/// submitted pool tasks. Records a problem otherwise.
void CheckThreadContract(int threads, const PoolSnapshot& before,
                         const PoolSnapshot& after, Outcome* out);

/// Peak resident memory of this process, in MB.
double PeakRssMb();

/// Milliseconds between two steady-clock readings.
inline double Ms(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

/// The latency summary every closed-loop workload prints: median, tail
/// (highest percentile with >= 10 samples beyond it) and quartiles.
void ReportLatencies(const std::string& label,
                     const std::vector<double>& samples_ms, Outcome* out);

/// Inputs of the per-layer table of one traced pass.
struct LayerInputs {
  const Instruments* ins = nullptr;
  std::vector<Span> program;  // ProgramSpans(ins->trace, ...)
  std::int64_t from_ns = 0;   // the measured window
  std::int64_t to_ns = 0;
  std::int64_t reads = 0;     // read statements evaluated in the window
  std::int64_t updates = 0;   // updates applied in the window
  focq::EvalMetrics counters;
  PoolSnapshot pool_before, pool_after;
  std::int64_t pool_ops = 0;    // denominator of the pool metrics; 0: reads
  std::vector<double> copy_ms;  // timed Structure copies
};

/// Fills the layer metrics shared by all workloads (structure, logic,
/// plan, evaluator, locality, cover, context, pool) into `out`.
void AddLayerMetrics(const LayerInputs& in, Outcome* out);

/// op.unattributed_share for closed-loop ops: the share of "op" span time
/// not covered by a benchmark span or, inside evaluate/apply_update, by a
/// program phase span.
double UnattributedShare(const std::vector<Span>& bench,
                         const std::vector<Span>& program,
                         std::int64_t from_ns, std::int64_t to_ns);

/// Times `reps` copies of `a` with the public copy constructor (the
/// executor's per-query working copy has no span of its own).
std::vector<double> TimeCopies(const focq::Structure& a, int reps,
                               SpanRecorder* spans);

/// Writes the chrome://tracing file of a traced pass and notes its path.
void WriteChromeTrace(const Config& cfg, const std::vector<Span>& bench,
                      std::int64_t epoch_ns,
                      const std::string& program_chrome_json, Outcome* out);

Outcome RunCold(const Config& cfg);
Outcome RunWarm(const Config& cfg);
Outcome RunServed(const Config& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
