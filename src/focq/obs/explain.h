// EXPLAIN / EXPLAIN ANALYZE: the compiled Theorem 6.10 plan materialised as
// a stable tree of PlanNodes, with per-node attribution of wall time,
// deterministic pipeline counters and memory high-water marks (see DESIGN.md,
// "Observability — plan attribution").
//
// The tree is the unit of attribution: every instrumentation site that used
// to report only a flat phase name now also charges a plan-node id, so the
// report answers "which layer / which cl-term / which cover burned the time
// and the bytes" instead of only "how much in total".
//
// Contract with the concurrency model:
//   * Nodes are created and written only from the coordinating thread (the
//     same fan-out-boundary discipline MetricsSink follows), so per-node
//     *counters* and *bytes* are input-determined and bit-identical for
//     every num_threads. Durations are wall clock and explicitly outside the
//     determinism contract.
//   * Counter attribution rides on the flat MetricsSink: a Phase
//     (obs/observer.h) timing a node snapshots the counters on entry and
//     charges the positive deltas to its node on exit. Nested phases
//     therefore produce *inclusive* counters, mirroring the inclusive
//     durations: a parent's numbers cover its children's.
//   * Everything is null-safe: a null ExplainSink (or node id -1) makes every
//     call a no-op, so evaluation without --explain-analyze costs one branch.
#ifndef FOCQ_OBS_EXPLAIN_H_
#define FOCQ_OBS_EXPLAIN_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "focq/obs/metrics.h"

namespace focq {

/// One node of the materialised plan: a query, a compiled plan, a layer, a
/// marker relation, a cl-term argument, the residual formula/term, or a
/// cached artifact build (Gaifman graph, cover, sphere typing).
struct PlanNode {
  int id = -1;
  int parent = -1;  // -1: a root of the forest
  std::string kind;
  std::string label;
  std::vector<int> children;  // in creation (= evaluation) order
};

/// What EXPLAIN ANALYZE attributes to one node. Counters and bytes_peak are
/// deterministic (identical for every num_threads); duration_ns is wall
/// clock. All three are inclusive of the node's children.
struct NodeProfile {
  std::int64_t duration_ns = 0;
  std::int64_t bytes_peak = 0;
  std::map<std::string, std::int64_t> counters;
};

/// An immutable snapshot of a sink: the plan forest plus one profile per
/// node. `analyzed` is false for plain EXPLAIN (tree only, nothing measured).
struct ExplainReport {
  bool analyzed = false;
  std::vector<PlanNode> nodes;      // indexed by PlanNode::id
  std::vector<NodeProfile> profiles;

  /// The box-drawn plan tree the CLI prints: one line per node with kind,
  /// label, and (when analyzed) duration / peak bytes / counters.
  std::string ToText() const;
};

/// Collects a plan forest and per-node attribution. Thread-safe (a mutex per
/// operation), but by the contract above only the coordinating thread writes
/// on the hot path, so the lock is uncontended.
class ExplainSink {
 public:
  /// Creates a node under `parent` (-1 for a new root) and returns its id.
  /// Ids are assigned sequentially in creation order, which is deterministic
  /// because only the coordinating thread creates nodes.
  int NewNode(int parent, std::string kind, std::string label);

  /// profiles[node].counters[name] += delta. No-op when node < 0.
  void AddCounter(int node, std::string_view name, std::int64_t delta);

  /// profiles[node].counters[name] = max(current, value). No-op on node < 0.
  void MaxCounter(int node, std::string_view name, std::int64_t value);

  /// High-water of bytes attributed to `node` (structure expansions,
  /// artifact footprints). No-op when node < 0.
  void RecordBytes(int node, std::int64_t bytes);

  /// profiles[node].duration_ns += ns; marks the report analyzed.
  void AddDuration(int node, std::int64_t ns);

  ExplainReport Snapshot() const;

 private:
  mutable std::mutex mutex_;
  ExplainReport data_;
};

}  // namespace focq

#endif  // FOCQ_OBS_EXPLAIN_H_
