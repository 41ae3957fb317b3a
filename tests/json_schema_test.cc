// Golden-schema regression test for the observability JSON documents shipped
// by `focq_cli --metrics-json` / `--trace-json` (composed in
// focq/obs/json_export.h). External dashboards consume these files, so the
// key set and value types are a compatibility contract: loosening or
// renaming a key must fail here first.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "focq/core/api.h"
#include "focq/graph/generators.h"
#include "focq/logic/build.h"
#include "focq/obs/benchdiff.h"
#include "focq/obs/json_export.h"
#include "focq/structure/encode.h"

namespace focq {
namespace {

// A minimal JSON reader, just enough to validate document *shape*. Values
// are objects, arrays, strings, numbers or booleans; no escapes beyond the
// ones the exporters emit (\" \\ \n \t and \u00xx).
struct Json {
  enum Kind { kObject, kArray, kString, kNumber, kBool } kind;
  std::map<std::string, Json> object;
  std::vector<Json> array;
  std::string string;
  double number = 0;
  bool boolean = false;

  bool Has(const std::string& key) const { return object.count(key) > 0; }
  const Json& At(const std::string& key) const { return object.at(key); }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json Parse() {
    Json v = ParseValue();
    Skip();
    EXPECT_EQ(pos_, text_.size()) << "trailing bytes after JSON document";
    return v;
  }

 private:
  void Skip() {
    while (pos_ < text_.size() && std::isspace(
               static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    Skip();
    EXPECT_LT(pos_, text_.size()) << "unexpected end of JSON";
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void Expect(char c) {
    EXPECT_EQ(Peek(), c) << "at byte " << pos_;
    ++pos_;
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;  // keep escaped char verbatim
      out += text_[pos_++];
    }
    Expect('"');
    return out;
  }

  Json ParseValue() {
    Json v;
    switch (Peek()) {
      case '{': {
        v.kind = Json::kObject;
        Expect('{');
        if (Peek() != '}') {
          while (true) {
            std::string key = ParseString();
            Expect(':');
            v.object.emplace(key, ParseValue());
            if (Peek() != ',') break;
            Expect(',');
          }
        }
        Expect('}');
        return v;
      }
      case '[': {
        v.kind = Json::kArray;
        Expect('[');
        if (Peek() != ']') {
          while (true) {
            v.array.push_back(ParseValue());
            if (Peek() != ',') break;
            Expect(',');
          }
        }
        Expect(']');
        return v;
      }
      case '"':
        v.kind = Json::kString;
        v.string = ParseString();
        return v;
      case 't':
      case 'f':
        v.kind = Json::kBool;
        v.boolean = text_[pos_] == 't';
        pos_ += v.boolean ? 4 : 5;
        return v;
      default: {
        v.kind = Json::kNumber;
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
          ++pos_;
        }
        EXPECT_GT(pos_, start) << "not a JSON value at byte " << start;
        v.number = std::stod(text_.substr(start, pos_ - start));
        return v;
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// Produces one real evaluation's sinks: metrics + trace of a pipeline run
// that exercises counting terms (so counters and spans are non-empty).
void RunInstrumented(MetricsSink* metrics, TraceSink* trace) {
  Structure a = EncodeGraph(MakeGrid(4, 4));
  Var x = VarNamed("jsx"), y = VarNamed("jsy");
  Formula phi = Ge1(Sub(Count({y}, Atom("E", {x, y})), Int(2)));
  EvalOptions options;
  options.engine = Engine::kLocal;
  options.metrics = metrics;
  options.trace = trace;
  Phase root(options.observer(), "query_eval");
  Result<CountInt> n = CountSolutions(phi, a, options);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
}

void ExpectIntegerMap(const Json& v, const std::string& label) {
  ASSERT_EQ(v.kind, Json::kObject) << label;
  for (const auto& [key, value] : v.object) {
    EXPECT_EQ(value.kind, Json::kNumber) << label << "." << key;
  }
}

TEST(JsonSchema, MetricsDocument) {
  MetricsSink metrics;
  TraceSink trace;
  RunInstrumented(&metrics, &trace);
  std::string text = ComposeMetricsJson(metrics.Snapshot(), trace);
  Json doc = Parser(text).Parse();

  // The contract: exactly these four top-level keys.
  ASSERT_EQ(doc.kind, Json::kObject);
  EXPECT_EQ(doc.object.size(), 4u);
  ASSERT_TRUE(doc.Has("counters"));
  ASSERT_TRUE(doc.Has("values"));
  ASSERT_TRUE(doc.Has("phase_ns"));
  ASSERT_TRUE(doc.Has("pool"));

  ExpectIntegerMap(doc.At("counters"), "counters");
  EXPECT_FALSE(doc.At("counters").object.empty());

  const Json& values = doc.At("values");
  ASSERT_EQ(values.kind, Json::kObject);
  for (const auto& [name, stats] : values.object) {
    ASSERT_EQ(stats.kind, Json::kObject) << "values." << name;
    EXPECT_EQ(stats.object.size(), 8u) << "values." << name;
    for (const char* key :
         {"count", "sum", "min", "max", "mean", "p50", "p95", "p99"}) {
      ASSERT_TRUE(stats.Has(key)) << "values." << name << "." << key;
      EXPECT_EQ(stats.At(key).kind, Json::kNumber);
    }
  }

  ExpectIntegerMap(doc.At("phase_ns"), "phase_ns");
  EXPECT_TRUE(doc.At("phase_ns").Has("query_eval"));

  const Json& pool = doc.At("pool");
  ASSERT_EQ(pool.kind, Json::kObject);
  EXPECT_EQ(pool.object.size(), 5u);
  for (const char* key :
       {"workers", "tasks_submitted", "tasks_executed", "steals", "busy_ns"}) {
    ASSERT_TRUE(pool.Has(key)) << "pool." << key;
    EXPECT_EQ(pool.At(key).kind, Json::kNumber) << "pool." << key;
  }
}

void ExpectSpanShape(const Json& span) {
  ASSERT_EQ(span.kind, Json::kObject);
  for (const char* key : {"name", "start_ns", "duration_ns", "children"}) {
    ASSERT_TRUE(span.Has(key)) << "span." << key;
  }
  EXPECT_EQ(span.At("name").kind, Json::kString);
  EXPECT_EQ(span.At("start_ns").kind, Json::kNumber);
  EXPECT_EQ(span.At("duration_ns").kind, Json::kNumber);
  ASSERT_EQ(span.At("children").kind, Json::kArray);
  for (const Json& child : span.At("children").array) ExpectSpanShape(child);
}

TEST(JsonSchema, TraceDocument) {
  MetricsSink metrics;
  TraceSink trace;
  RunInstrumented(&metrics, &trace);
  Json doc = Parser(ComposeTraceJson(trace)).Parse();

  ASSERT_EQ(doc.kind, Json::kObject);
  EXPECT_EQ(doc.object.size(), 2u);
  ASSERT_TRUE(doc.Has("spans"));
  ASSERT_TRUE(doc.Has("traceEvents"));

  const Json& spans = doc.At("spans");
  ASSERT_EQ(spans.kind, Json::kArray);
  ASSERT_FALSE(spans.array.empty());
  for (const Json& span : spans.array) ExpectSpanShape(span);
  EXPECT_EQ(spans.array[0].At("name").string, "query_eval");

  const Json& events = doc.At("traceEvents");
  ASSERT_EQ(events.kind, Json::kArray);
  ASSERT_FALSE(events.array.empty());
  bool saw_complete = false;
  for (const Json& event : events.array) {
    ASSERT_EQ(event.kind, Json::kObject);
    ASSERT_TRUE(event.Has("ph"));
    const std::string& ph = event.At("ph").string;
    if (ph == "M") {
      // Thread-name metadata for the worker lanes.
      EXPECT_EQ(event.At("name").string, "thread_name");
      for (const char* key : {"pid", "tid", "args"}) {
        ASSERT_TRUE(event.Has(key)) << "traceEvent." << key;
      }
      ASSERT_TRUE(event.At("args").Has("name"));
      continue;
    }
    EXPECT_EQ(ph, "X");
    saw_complete = true;
    for (const char* key : {"name", "pid", "tid", "ts", "dur"}) {
      ASSERT_TRUE(event.Has(key)) << "traceEvent." << key;
    }
  }
  EXPECT_TRUE(saw_complete);
}

void ExpectExplainNodeShape(const Json& node) {
  ASSERT_EQ(node.kind, Json::kObject);
  EXPECT_EQ(node.object.size(), 8u);
  for (const char* key : {"id", "parent", "duration_ns", "bytes_peak"}) {
    ASSERT_TRUE(node.Has(key)) << "node." << key;
    EXPECT_EQ(node.At(key).kind, Json::kNumber) << "node." << key;
  }
  for (const char* key : {"kind", "label"}) {
    ASSERT_TRUE(node.Has(key)) << "node." << key;
    EXPECT_EQ(node.At(key).kind, Json::kString) << "node." << key;
  }
  ASSERT_TRUE(node.Has("counters"));
  ExpectIntegerMap(node.At("counters"), "node.counters");
  ASSERT_TRUE(node.Has("children"));
  ASSERT_EQ(node.At("children").kind, Json::kArray);
  for (const Json& child : node.At("children").array) {
    ExpectExplainNodeShape(child);
  }
}

TEST(JsonSchema, ExplainDocument) {
  Structure a = EncodeGraph(MakeGrid(4, 4));
  Var x = VarNamed("jex"), y = VarNamed("jey");
  Formula phi = Ge1(Sub(Count({y}, Atom("E", {x, y})), Int(2)));
  MetricsSink metrics;
  ExplainSink explain;
  EvalOptions options;
  options.engine = Engine::kLocal;
  options.metrics = &metrics;
  options.explain = &explain;
  Result<CountInt> n = CountSolutions(phi, a, options);
  ASSERT_TRUE(n.ok()) << n.status().ToString();

  std::string text = ComposeExplainJson(explain.Snapshot());
  Json doc = Parser(text).Parse();

  ASSERT_EQ(doc.kind, Json::kObject);
  EXPECT_EQ(doc.object.size(), 1u);
  ASSERT_TRUE(doc.Has("explain"));
  const Json& body = doc.At("explain");
  ASSERT_EQ(body.kind, Json::kObject);
  EXPECT_EQ(body.object.size(), 2u);
  ASSERT_TRUE(body.Has("analyzed"));
  EXPECT_EQ(body.At("analyzed").kind, Json::kBool);
  EXPECT_TRUE(body.At("analyzed").boolean);
  ASSERT_TRUE(body.Has("nodes"));
  ASSERT_EQ(body.At("nodes").kind, Json::kArray);
  ASSERT_FALSE(body.At("nodes").array.empty());
  for (const Json& node : body.At("nodes").array) {
    ExpectExplainNodeShape(node);
    EXPECT_EQ(node.At("parent").number, -1) << "top-level nodes are roots";
  }
}

// Two hand-written Google-Benchmark documents: one row regresses past the
// threshold, one counter drifts, one benchmark appears, one disappears, and
// an aggregate (_mean) row must be ignored.
constexpr char kBenchBase[] = R"({
  "context": {"date": "2026-01-01"},
  "benchmarks": [
    {"name": "BM_A/64", "run_type": "iteration", "iterations": 100,
     "real_time": 10.0, "cpu_time": 9.0, "time_unit": "ms",
     "clusters": 5.0, "tuples": 100.0},
    {"name": "BM_Gone", "run_type": "iteration", "iterations": 10,
     "real_time": 1.0, "cpu_time": 1.0, "time_unit": "ms"}
  ]
})";

constexpr char kBenchCurrent[] = R"({
  "benchmarks": [
    {"name": "BM_A/64", "run_type": "iteration", "iterations": 100,
     "real_time": 20.0, "cpu_time": 18.0, "time_unit": "ms",
     "clusters": 7.0, "tuples": 100.0},
    {"name": "BM_A/64_mean", "run_type": "aggregate", "real_time": 20.0,
     "cpu_time": 18.0, "time_unit": "ms"},
    {"name": "BM_New", "run_type": "iteration", "iterations": 10,
     "real_time": 2.0, "cpu_time": 2.0, "time_unit": "ms"}
  ]
})";

TEST(JsonSchema, BenchdiffReport) {
  Result<BenchRun> base = ParseBenchJson(kBenchBase);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  Result<BenchRun> current = ParseBenchJson(kBenchCurrent);
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  EXPECT_EQ(base->rows.size(), 2u);
  EXPECT_EQ(current->rows.size(), 2u) << "aggregate rows must be dropped";
  ASSERT_FALSE(base->rows.empty());
  EXPECT_EQ(base->rows[0].counters.size(), 2u)
      << "iterations/cpu_time are bookkeeping, not counters";

  BenchDiffReport report = DiffBenchRuns(*base, *current);
  EXPECT_EQ(report.compared.size(), 1u);
  EXPECT_EQ(report.NumRegressions(), 1u);
  EXPECT_EQ(report.NumImprovements(), 0u);
  EXPECT_EQ(report.NumCounterChanges(), 1u);
  ASSERT_EQ(report.added.size(), 1u);
  EXPECT_EQ(report.added[0], "BM_New");
  ASSERT_EQ(report.removed.size(), 1u);
  EXPECT_EQ(report.removed[0], "BM_Gone");
  ASSERT_FALSE(report.compared.empty());
  EXPECT_DOUBLE_EQ(report.compared[0].time_ratio, 2.0);
  ASSERT_EQ(report.compared[0].counter_changes.count("clusters"), 1u);

  Json doc = Parser(report.ToJson()).Parse();
  ASSERT_EQ(doc.kind, Json::kObject);
  ASSERT_TRUE(doc.Has("benchdiff"));
  const Json& body = doc.At("benchdiff");
  ASSERT_EQ(body.kind, Json::kObject);
  EXPECT_EQ(body.object.size(), 9u);
  for (const char* key : {"time_threshold", "counter_threshold", "compared",
                          "regressions", "improvements", "counter_changes"}) {
    ASSERT_TRUE(body.Has(key)) << "benchdiff." << key;
    EXPECT_EQ(body.At(key).kind, Json::kNumber) << "benchdiff." << key;
  }
  EXPECT_EQ(body.At("regressions").number, 1);
  for (const char* key : {"added", "removed", "entries"}) {
    ASSERT_TRUE(body.Has(key)) << "benchdiff." << key;
    ASSERT_EQ(body.At(key).kind, Json::kArray) << "benchdiff." << key;
  }
  ASSERT_EQ(body.At("entries").array.size(), 1u);
  const Json& entry = body.At("entries").array[0];
  EXPECT_EQ(entry.object.size(), 8u);
  for (const char* key :
       {"name", "base_time", "current_time", "time_unit", "time_ratio",
        "regression", "improvement", "counter_changes"}) {
    ASSERT_TRUE(entry.Has(key)) << "entry." << key;
  }
  EXPECT_TRUE(entry.At("regression").boolean);
  ASSERT_TRUE(entry.At("counter_changes").Has("clusters"));
  const Json& change = entry.At("counter_changes").At("clusters");
  EXPECT_DOUBLE_EQ(change.At("base").number, 5.0);
  EXPECT_DOUBLE_EQ(change.At("current").number, 7.0);

  // The markdown report carries the same verdicts.
  std::string md = report.ToMarkdown();
  EXPECT_NE(md.find("**regression**"), std::string::npos);
  EXPECT_NE(md.find("BM_New"), std::string::npos);
  EXPECT_NE(md.find("BM_Gone"), std::string::npos);
  EXPECT_NE(md.find("clusters"), std::string::npos);

  // Self-compare: no regressions, exit-0 posture for the CI smoke job.
  BenchDiffReport self = DiffBenchRuns(*base, *base);
  EXPECT_EQ(self.NumRegressions(), 0u);
  EXPECT_EQ(self.NumCounterChanges(), 0u);
  EXPECT_EQ(self.compared.size(), 2u);
}

}  // namespace
}  // namespace focq
