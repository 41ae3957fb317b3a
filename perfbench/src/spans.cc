#include "spans.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "focq/obs/metrics.h"

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(std::string_view name, std::int64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::string(name);
  span.start_ns = NowNs();
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int id) {
  if (id < 0) return;
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int SpanRecorder::Add(Span span) {
  if (!enabled_) return -1;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

namespace {

void Flatten(const focq::TraceSpan& span, std::int64_t epoch, int parent,
             std::vector<Span>* out) {
  Span s;
  s.name = span.name;
  s.start_ns = epoch + span.start_ns;
  s.end_ns = s.start_ns + span.duration_ns;
  s.parent = parent;
  out->push_back(std::move(s));
  const int self = static_cast<int>(out->size()) - 1;
  for (const focq::TraceSpan& child : span.children) {
    Flatten(child, epoch, self, out);
  }
}

}  // namespace

std::vector<Span> ProgramSpans(const focq::TraceSink& sink,
                               std::int64_t sink_epoch_ns) {
  std::vector<Span> out;
  for (const focq::TraceSpan& root : sink.Spans()) {
    Flatten(root, sink_epoch_ns, -1, &out);
  }
  return out;
}

std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans,
                                           std::int64_t from_ns,
                                           std::int64_t to_ns) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.start_ns < from_ns || s.start_ns >= to_ns) continue;
    LayerTime& t = out[s.name];
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += s.end_ns - s.start_ns - child_ns[i];
  }
  return out;
}

std::int64_t CoveredNs(const std::vector<Span>& program, std::int64_t from_ns,
                       std::int64_t to_ns) {
  std::int64_t covered = 0;
  for (const Span& s : program) {
    if (s.parent < 0 && s.start_ns >= from_ns && s.end_ns <= to_ns) {
      covered += s.end_ns - s.start_ns;
    }
  }
  return covered;
}

std::string ChromeTrace(const std::vector<Span>& spans, std::int64_t epoch_ns,
                        const std::string& program_chrome_json) {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  std::set<int> lanes;
  for (const Span& s : spans) lanes.insert(s.lane);
  for (int lane : lanes) {
    sep();
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(lane) + ", \"args\": {\"name\": ";
    focq::AppendJsonString(
        &out, lane == 0 ? "benchmark" : "generator-" + std::to_string(lane));
    out += "}}";
  }
  for (const Span& s : spans) {
    sep();
    out += "{\"name\": ";
    focq::AppendJsonString(&out, s.name);
    out += ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(s.lane) +
           ", \"ts\": " + std::to_string((s.start_ns - epoch_ns) / 1000.0) +
           ", \"dur\": " + std::to_string((s.end_ns - s.start_ns) / 1000.0) +
           ", \"args\": {\"op\": " + std::to_string(s.op) + "}}";
  }
  // Splice the program's events (between its outer '[' and ']').
  const std::size_t open = program_chrome_json.find('[');
  const std::size_t close = program_chrome_json.rfind(']');
  if (open != std::string::npos && close != std::string::npos &&
      close > open + 1) {
    std::string events =
        program_chrome_json.substr(open + 1, close - open - 1);
    if (events.find('{') != std::string::npos) {
      sep();
      out += events;
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
