// One way to observe a phase of the Theorem 6.10 pipeline (compile, marker
// layers, cl-terms by balls or covers, Hanf typing, residual):
//
//   * Observer — the four optional sinks (metrics, trace, explain, progress)
//     plus the explain node the current work is charged under, as one small
//     value. Built once per public entry point (EvalOptions::observer()) and
//     passed by const reference through every engine layer. Its helpers are
//     null-safe, so call sites need no sink guards.
//   * Phase — one RAII scope doing all of a phase's bookkeeping: the trace
//     span (with the sink installed as the thread's ParallelFor observer, so
//     chunk slices land on worker lanes), the flight recorder's phase
//     enter/exit events, and the explain attribution — a fresh child node of
//     the caller's node, or an existing (pre-registered) node — charged with
//     the scope's wall time and flat-counter deltas. observer() hands callees
//     the same sinks with the phase's node, so attribution nests naturally.
//
// Cost with every sink null and the recorder off: a branch per scope and no
// allocation. Installing sinks never changes results; counters and node
// attribution are thread-count independent (obs/metrics.h, obs/explain.h),
// span timings are wall clock.
#ifndef FOCQ_OBS_OBSERVER_H_
#define FOCQ_OBS_OBSERVER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "focq/obs/explain.h"
#include "focq/obs/metrics.h"
#include "focq/obs/progress.h"
#include "focq/obs/trace.h"

namespace focq {

/// The sinks observing one evaluation (none owned; each may be null) and the
/// explain node (-1: none) that nodes created beneath it hang from.
struct Observer {
  MetricsSink* metrics = nullptr;
  TraceSink* trace = nullptr;
  ExplainSink* explain = nullptr;
  int node = -1;
  ProgressSink* progress = nullptr;

  void Count(std::string_view name, std::int64_t delta) const {
    if (metrics != nullptr) metrics->AddCounter(name, delta);
  }
  void Max(std::string_view name, std::int64_t value) const {
    if (metrics != nullptr) metrics->MaxCounter(name, value);
  }
  void Value(std::string_view name, const ValueStats& stats) const {
    if (metrics != nullptr) metrics->MergeValue(name, stats);
  }
  /// A memory high-water mark: the flat `name` counter and the bytes of the
  /// explain node.
  void Bytes(std::string_view name, std::int64_t bytes) const {
    Max(name, bytes);
    if (explain != nullptr) explain->RecordBytes(node, bytes);
  }

  // Live progress and cooperative cancellation (obs/progress.h).
  void AddTotal(ProgressPhase phase, std::int64_t delta) const {
    if (progress != nullptr) progress->AddTotal(phase, delta);
  }
  void Advance(ProgressPhase phase, std::int64_t delta) const {
    if (progress != nullptr) progress->Advance(phase, delta);
  }
  /// The chunk-boundary poll: true once the hard deadline has expired.
  bool ShouldStop() const {
    return progress != nullptr && progress->ShouldStop();
  }
  /// True when a hard deadline cancelled the call; the caller then returns
  /// progress->DeadlineStatus().
  bool Cancelled() const {
    return progress != nullptr && progress->cancelled();
  }
};

/// RAII phase scope. An empty `span` opens no span (and records no flight
/// events); a node id of -1 or a null explain sink attributes nothing:
///   Phase build(obs, "cover_build", "artifact", "sparse cover r=2");
///   Phase layer(obs, "layer_0", ids.layers[0]);
class Phase {
 public:
  /// Times the existing explain node `node` (-1: none) under span `span`.
  Phase(const Observer& parent, std::string_view span, int node = -1);
  /// Creates a child node (kind, label) of parent.node and times it.
  Phase(const Observer& parent, std::string_view span, const char* kind,
        std::string label);
  ~Phase();

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  /// The parent's sinks, with this phase's node (if any) as `node`.
  const Observer& observer() const { return obs_; }

 private:
  void Open(std::string_view span, int node);

  Observer obs_;
  int timed_node_ = -1;
  std::int64_t start_ns_ = 0;
  std::map<std::string, std::int64_t> counters_before_;
  bool traced_ = false;
  ParallelForObserver* previous_observer_ = nullptr;
  // Non-empty iff the flight recorder was enabled at entry: with every sink
  // null, the only case a phase allocates (phase-grained, off every hot
  // path).
  std::string recorded_span_;
};

}  // namespace focq

#endif  // FOCQ_OBS_OBSERVER_H_
