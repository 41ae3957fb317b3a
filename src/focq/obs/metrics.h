// Pipeline metrics: low-overhead named counters and value distributions for
// the Theorem 6.10 evaluation pipeline (see DESIGN.md, "Observability").
//
// Contract with the concurrency model:
//   * A MetricsSink is only ever touched from the coordinating thread, at
//     fan-out boundaries (before/after a ParallelFor), never from inside a
//     parallel body. Parallel loops accumulate into a ShardedCounter (one
//     padded slot per chunk of the same chunk grid the loop runs over) and
//     flush the chunk-ordered total after the join.
//   * Counter totals are sums over items, so for deterministic quantities
//     (layers, clusters, anchors, sphere types, tuples) the aggregated value
//     is identical for every num_threads — the same bit-identical guarantee
//     the results themselves carry. Scheduling-dependent quantities (pool
//     tasks, steals, busy time) are reported as such and excluded from the
//     determinism contract.
//   * Everything is null-safe: every instrumentation site records through
//     the Observer helpers (obs/observer.h), which guard on the sink
//     pointer, so evaluation with no sink installed costs one branch.
#ifndef FOCQ_OBS_METRICS_H_
#define FOCQ_OBS_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace focq {

/// Distribution summary of a recorded value stream (cluster sizes, per-type
/// populations, ...): count/sum/min/max plus a fixed log2 bucket histogram
/// that supports order-independent quantile estimates without storing
/// samples. Bucket 0 holds v <= 0; bucket i (1 <= i < kNumBuckets-1) holds
/// 2^(i-1) <= v < 2^i; the last bucket holds everything above. Bucket counts
/// are plain sums, so — unlike a sampling reservoir — the histogram (and
/// every quantile read off it) is bit-identical regardless of recording
/// order, merge grouping or thread count.
struct ValueStats {
  static constexpr int kNumBuckets = 33;

  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::array<std::int64_t, kNumBuckets> buckets{};

  /// The bucket `v` falls into.
  static int BucketIndex(std::int64_t v) {
    if (v <= 0) return 0;
    int i = 1;
    while (i < kNumBuckets - 1 && v >= (std::int64_t{1} << i)) ++i;
    return i;
  }

  /// Inclusive upper bound of bucket `i` (the OpenMetrics `le` boundary);
  /// the last bucket is unbounded and reported as +Inf by the exporter.
  static std::int64_t BucketUpperBound(int i) {
    return i == 0 ? 0 : (std::int64_t{1} << i) - 1;
  }

  void Record(std::int64_t v) {
    if (count == 0) {
      min = max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    ++count;
    sum += v;
    ++buckets[BucketIndex(v)];
  }

  /// Folds another summary in. count/sum/min/max/buckets are all
  /// order-independent reductions, so merging pre-aggregated batches yields
  /// exactly the stats of recording every sample individually — which is
  /// what lets hot loops aggregate locally and touch the sink once per
  /// batch.
  void Merge(const ValueStats& other) {
    if (other.count == 0) return;
    if (count == 0) {
      *this = other;
      return;
    }
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
    count += other.count;
    sum += other.sum;
    for (int i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
  }

  /// Arithmetic mean of the recorded samples; 0 for an empty stream.
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Estimated q-quantile (q in [0, 1]) read off the log2 histogram: the
  /// rank's bucket is located exactly, the position inside it interpolated
  /// linearly, and the estimate clamped to the exact [min, max] envelope —
  /// so p50/p95/p99 are within a factor of 2 of the true order statistic
  /// and exact whenever the bucket is degenerate (single-valued streams,
  /// small values). Deterministic for every recording order.
  double Quantile(double q) const;

  friend bool operator==(const ValueStats& a, const ValueStats& b) {
    return a.count == b.count && a.sum == b.sum && a.min == b.min &&
           a.max == b.max && a.buckets == b.buckets;
  }
};

/// An immutable snapshot of a sink: what EvaluateQuery & friends hand back
/// and what the CLI serialises.
struct EvalMetrics {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, ValueStats> values;

  /// {"counters": {name: value, ...},
  ///  "values": {name: {"count":..,"sum":..,"min":..,"max":..,"mean":..,
  ///                    "p50":..,"p95":..,"p99":..}, ...}}
  std::string ToJson() const;
};

/// Collects counters and value distributions. Thread-safe (a mutex per
/// operation), but by the contract above only the coordinating thread ever
/// calls it on the hot path, so the lock is uncontended.
class MetricsSink {
 public:
  /// counters[name] += delta.
  void AddCounter(std::string_view name, std::int64_t delta);

  /// counters[name] = max(counters[name], value) — for high-water marks
  /// (max cover degree, max cluster size) that must merge deterministically.
  void MaxCounter(std::string_view name, std::int64_t value);

  /// Folds one sample into the distribution for `name`.
  void RecordValue(std::string_view name, std::int64_t value);

  /// Folds a pre-aggregated batch of samples into the distribution for
  /// `name`; bit-identical to RecordValue per sample (see ValueStats::Merge)
  /// at one lock/lookup per batch instead of one per sample.
  void MergeValue(std::string_view name, const ValueStats& stats);

  /// Reads one counter (0 when never touched). Mainly for tests/benches.
  std::int64_t Counter(std::string_view name) const;

  EvalMetrics Snapshot() const;
  void Reset();

 private:
  mutable std::mutex mutex_;
  EvalMetrics data_;
};

/// Per-chunk counter shards for ParallelFor bodies. Size it with the chunk
/// count of the grid the loop runs over; each chunk adds only to its own
/// (cache-line-padded) slot, so there is no sharing and no synchronisation;
/// Total() reduces in slot order. The sum is chunking-independent, so
/// flushed totals match the serial count bit for bit.
class ShardedCounter {
 public:
  explicit ShardedCounter(std::size_t num_shards)
      : slots_(num_shards == 0 ? 1 : num_shards) {}

  void Add(std::size_t shard, std::int64_t delta) {
    slots_[shard].value += delta;
  }

  std::int64_t Total() const {
    std::int64_t total = 0;
    for (const Slot& s : slots_) total += s.value;
    return total;
  }

  /// AddCounter(name, Total()) when a sink is installed; no-op otherwise.
  void FlushTo(MetricsSink* sink, std::string_view name) const;

 private:
  struct alignas(64) Slot {
    std::int64_t value = 0;
  };
  std::vector<Slot> slots_;
};

/// Appends `text` to `out` as a quoted, escaped JSON string. Shared by the
/// metrics/trace serialisers and the CLI.
void AppendJsonString(std::string* out, std::string_view text);

}  // namespace focq

#endif  // FOCQ_OBS_METRICS_H_
