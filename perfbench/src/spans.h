// In-memory spans the benchmark records around every public call it makes
// (load, session/server create, parse, evaluate, update, teardown, send,
// receive), the program's own TraceSink phases converted to the same form,
// per-name self time, and the chrome://tracing export.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "focq/obs/trace.h"

namespace perfbench {

/// Steady-clock nanoseconds: the clock focq::TraceSink reads too.
std::int64_t NowNs();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // absolute steady-clock time
  std::int64_t end_ns = 0;
  int parent = -1;            // index into the same span list; -1 for roots
  std::int64_t op = -1;       // per-op id; -1 outside ops (set-up)
  int lane = 0;               // chrome://tracing thread lane
};

/// Records nested spans from one thread. A disabled recorder records
/// nothing, so untraced runs pay one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled).
  int Begin(std::string_view name, std::int64_t op);
  void End(int id);

  /// Adds a finished span with an explicit parent and lane.
  int Add(Span span);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII wrapper around Begin/End.
class Scope {
 public:
  Scope(SpanRecorder* recorder, std::string_view name, std::int64_t op)
      : recorder_(recorder), id_(recorder->Begin(name, op)) {}
  ~Scope() { recorder_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// Converts the program's span forest to absolute-time spans (parents
/// preserved), given the steady-clock time the sink was created at.
std::vector<Span> ProgramSpans(const focq::TraceSink& sink,
                               std::int64_t sink_epoch_ns);

struct LayerTime {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;  // total minus the time children cover
};

/// Per-name count, total and self time over the spans that start inside
/// [from_ns, to_ns).
std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans,
                                           std::int64_t from_ns,
                                           std::int64_t to_ns);

/// Sum of the durations of the program's root spans that lie inside
/// [from_ns, to_ns]: the part of a public call the program attributes.
std::int64_t CoveredNs(const std::vector<Span>& program, std::int64_t from_ns,
                       std::int64_t to_ns);

/// chrome://tracing JSON: the benchmark's spans on pid 1 (one tid per
/// lane), followed by the events of `program_chrome_json` (a
/// TraceSink::ToChromeTracing document, pid 0) spliced in. Times are
/// relative to `epoch_ns`, which should be the program sink's epoch.
std::string ChromeTrace(const std::vector<Span>& spans, std::int64_t epoch_ns,
                        const std::string& program_chrome_json);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
