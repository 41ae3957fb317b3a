// Hierarchical wall-clock phase tracing for the Theorem 6.10 pipeline:
// compile -> per-layer materialisation -> cover construction -> per-cluster /
// per-anchor cl-term evaluation -> Hanf typing -> removal surgery -> residual
// formula. Spans nest; the finished tree exports as nested JSON and as
// chrome://tracing events (load the file in chrome://tracing or Perfetto).
//
// Spans are opened and closed on the coordinating thread only — parallel
// bodies are covered by the span enclosing their ParallelFor — so one sink
// observes one strictly nested span stack. Spans are opened by a Phase
// (obs/observer.h). In addition, the sink implements ParallelForObserver:
// while a traced Phase is live its sink is installed as the calling thread's
// observer, so every chunk a ParallelFor runs under the
// span is recorded as a worker *slice* with the real pool-worker lane. The
// Chrome export then shows the coordinator's span track (tid 0) plus one
// track per pool worker instead of a single flat lane.
//
// The sink itself is mutex-guarded: span tracing is phase-grained and slice
// recording is chunk-grained, never per-item, so the lock is off every hot
// path. Timings, slice-to-lane assignment and slice counts per lane all
// depend on scheduling and are *not* part of the determinism contract
// (unlike metrics counters); only the total slice count per ParallelFor —
// the chunk count of its grid — is deterministic.
#ifndef FOCQ_OBS_TRACE_H_
#define FOCQ_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "focq/util/thread_pool.h"

namespace focq {

/// One completed span: [start_ns, start_ns + duration_ns) relative to the
/// sink's epoch, with nested children in start order.
struct TraceSpan {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
  std::vector<TraceSpan> children;
};

/// One chunk of a ParallelFor executed while a span was open, attributed to
/// the pool-worker lane that ran it (tid 0: the coordinating thread).
struct WorkerSlice {
  std::string span_name;  // the innermost open span when the chunk ran
  int tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
};

/// Collects a forest of nested spans plus per-worker chunk slices.
class TraceSink : public ParallelForObserver {
 public:
  TraceSink();

  /// Opens a span as a child of the innermost open span.
  void Begin(std::string name);

  /// Closes the innermost open span. A surplus End() (no span open) is a
  /// tolerated no-op: an unbalanced caller loses attribution but can never
  /// crash the process or corrupt the finished span forest.
  void End();

  /// The completed roots (open spans are excluded until their End).
  std::vector<TraceSpan> Spans() const;

  /// Chunk slices recorded via the ParallelForObserver hook, in recording
  /// order (scheduling-dependent).
  std::vector<WorkerSlice> Slices() const;

  /// Total wall time per span name, summed over the whole forest — the
  /// "per-phase wall time" table of the metrics export.
  std::map<std::string, std::int64_t> AggregateNanos() const;

  /// Nested export:
  ///   {"spans": [{"name":..,"start_ns":..,"duration_ns":..,
  ///               "children":[...]}, ...]}
  std::string ToJson() const;

  /// chrome://tracing / Perfetto export: thread_name metadata ("M") events
  /// naming each lane, the span forest as complete ("X") events on the
  /// coordinator lane (tid 0), and one "X" event per ParallelFor chunk on
  /// the lane of the worker that ran it:
  ///   {"traceEvents": [{"name":"thread_name","ph":"M",...},
  ///                    {"name":..,"ph":"X","pid":0,"tid":<lane>,
  ///                     "ts":<us>,"dur":<us>}, ...]}
  std::string ToChromeTracing() const;

  /// ParallelForObserver: records one chunk execution as a WorkerSlice named
  /// after the innermost open span ("parallel_for" when none is open).
  /// Called from worker threads; thread-safe.
  void RecordChunk(int worker_tid, std::size_t chunk, std::int64_t start_ns,
                   std::int64_t duration_ns) override;

  /// Records one completed span on an explicit lane — the cross-thread seam
  /// focq_serve stitches request lifecycles with: reader decode on the
  /// reader lane, queue/gate waits on the dispatcher lane, pool execution on
  /// the real worker lane. Unlike Begin/End there is no nesting contract, so
  /// any thread may call it concurrently; `start_ns` is absolute steady-clock
  /// time (the same clock Begin/End read), converted to the sink's epoch
  /// internally. Exported as plain "X" events on lane `tid` (no ".chunk"
  /// suffix).
  void RecordSpanAt(std::string name, int tid, std::int64_t start_ns,
                    std::int64_t duration_ns);

  /// Names a lane in the Chrome export ("dispatcher", "reader-3", ...);
  /// unnamed lanes keep the default coordinator / pool-worker-N labels.
  void NameLane(int tid, std::string name);

  /// Spans recorded via RecordSpanAt, in recording order.
  std::vector<WorkerSlice> LaneSpans() const;

 private:
  std::int64_t NowNs() const;

  mutable std::mutex mutex_;
  std::int64_t epoch_ns_ = 0;
  std::vector<TraceSpan> roots_;
  // Open spans, outermost first. Parked in a side stack (not in roots_) so
  // Spans()/exports never see half-open spans.
  std::vector<TraceSpan> open_;
  std::vector<WorkerSlice> slices_;
  std::vector<WorkerSlice> lane_spans_;
  std::map<int, std::string> lane_names_;
};

}  // namespace focq

#endif  // FOCQ_OBS_TRACE_H_
