#include "focq/obs/observer.h"

#include <chrono>

#include "focq/obs/recorder.h"

namespace focq {
namespace {

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Phase::Phase(const Observer& parent, std::string_view span, int node)
    : obs_(parent) {
  if (node >= 0) obs_.node = node;
  Open(span, node);
}

Phase::Phase(const Observer& parent, std::string_view span, const char* kind,
             std::string label)
    : obs_(parent) {
  int node = -1;
  if (parent.explain != nullptr) {
    node = parent.explain->NewNode(parent.node, kind, std::move(label));
    obs_.node = node;
  }
  Open(span, node);
}

void Phase::Open(std::string_view span, int node) {
  if (obs_.explain != nullptr && node >= 0) {
    timed_node_ = node;
    start_ns_ = NowNanos();
    if (obs_.metrics != nullptr) {
      counters_before_ = obs_.metrics->Snapshot().counters;
    }
  }
  if (span.empty()) return;
  // The flight recorder sees phases even on untraced paths, at one relaxed
  // load + branch when it is disabled.
  FlightRecorder& recorder = FlightRecorder::Global();
  if (recorder.enabled()) {
    recorded_span_.assign(span);  // span names can be transient strings
    recorder.Record(FlightEventKind::kPhaseEnter, span);
  }
  if (obs_.trace != nullptr) {
    obs_.trace->Begin(std::string(span));
    previous_observer_ = SetParallelForObserver(obs_.trace);
    traced_ = true;
  }
}

Phase::~Phase() {
  if (traced_) {
    SetParallelForObserver(previous_observer_);
    obs_.trace->End();
  }
  if (!recorded_span_.empty()) {
    FlightRecord(FlightEventKind::kPhaseExit, recorded_span_);
  }
  if (timed_node_ < 0) return;
  obs_.explain->AddDuration(timed_node_, NowNanos() - start_ns_);
  if (obs_.metrics == nullptr) return;
  // Charge the flat-counter deltas observed across the scope to the node.
  // Only positive growth is attributed: Reset() or other non-monotone sink
  // use inside the scope simply contributes nothing. Nested phases therefore
  // carry inclusive counters, mirroring their inclusive durations.
  for (const auto& [name, value] : obs_.metrics->Snapshot().counters) {
    auto it = counters_before_.find(name);
    std::int64_t before = it == counters_before_.end() ? 0 : it->second;
    std::int64_t delta = value - before;
    if (delta > 0) obs_.explain->AddCounter(timed_node_, name, delta);
  }
}

}  // namespace focq
