// Flight recorder: a process-wide, lock-free, fixed-size ring buffer of
// structured events for postmortems of the Theorem 6.10 pipeline. The
// existing observability seams (Phase enter/exit, EvalContext
// cache hit/miss/repair, ParallelFor fan-out, progress/deadline watchdog)
// feed it when it is enabled; the last N events can then be dumped on
// demand, when a query blows its soft deadline, or from the FOCQ_CHECK
// crash hook — a postmortem without paying full-trace overhead.
//
// Cost model:
//   * Disabled (the default): every feed point is one relaxed atomic load
//     and a predicted-not-taken branch. No allocation, no locks.
//   * Enabled: one relaxed fetch_add to claim a slot plus relaxed stores of
//     the event fields. No locks, no allocation on the record path (event
//     names are interned once into a fixed table).
//
// Concurrency: Record() may be called from any thread. Slots are arrays of
// relaxed atomics, so concurrent writers that lap each other on the ring can
// interleave field-wise — a torn slot shows mixed fields from two events.
// That is acceptable for a postmortem buffer (readers use the per-slot
// sequence number to spot it) and keeps the path free of synchronisation.
// Snapshot()/Dump() are best-effort reads of whatever is in the ring.
//
// Determinism contract: recording events never changes results — feed
// points only observe. Event order and content depend on scheduling and are
// NOT part of the determinism contract (like trace slices, unlike metrics
// counters).
#ifndef FOCQ_OBS_RECORDER_H_
#define FOCQ_OBS_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace focq {

/// What happened. Keep in sync with FlightEventKindName().
enum class FlightEventKind : int {
  kPhaseEnter = 0,  // Phase span opened (name: span)
  kPhaseExit,       // Phase span closed (name: span)
  kCacheHit,        // EvalContext served an artifact from cache
  kCacheMiss,       // EvalContext built an artifact (a: footprint bytes)
  kRepair,          // ApplyUpdate repaired/invalidated artifacts
  kParallelFor,     // a ParallelFor fanned out (a: items, b: chunks)
  kProgress,        // watchdog progress checkpoint (a: done, b: total)
  kDeadlineSoft,    // soft deadline expired (a: elapsed ms, b: budget ms)
  kDeadlineHard,    // hard deadline expired — query is being cancelled
  kMark,            // free-form marker (CLI statement boundaries, tests)
};

const char* FlightEventKindName(FlightEventKind kind);

/// One recorded event. `name` points into the recorder's intern table and
/// stays valid for the process lifetime.
struct FlightEvent {
  std::uint64_t seq = 0;      // global record order (claim order)
  std::int64_t ts_ns = 0;     // steady-clock ns since Enable()
  int tid = 0;                // pool-worker lane (0: coordinating thread)
  FlightEventKind kind = FlightEventKind::kMark;
  const char* name = "";      // interned label (phase, artifact, counter)
  std::int64_t a = 0;         // kind-specific payload
  std::int64_t b = 0;         // kind-specific payload
};

/// The ring buffer. One process-wide instance (Global()) so feed points
/// buried in the engines need no plumbing; tests may construct their own.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder every built-in feed point targets.
  static FlightRecorder& Global();

  /// Allocates the ring (capacity rounded up to a power of two) and starts
  /// accepting events. Also installs the FOCQ_CHECK crash hook that dumps
  /// the global recorder to stderr before abort. Idempotent; a second call
  /// with a different capacity re-allocates and clears.
  void Enable(std::size_t capacity = kDefaultCapacity);

  /// Stops accepting events. The ring contents stay readable.
  void Disable();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records one event if enabled; near-free no-op otherwise. `name` is
  /// interned (first occurrence copies it into a fixed table), so callers
  /// may pass transient strings, but the set of distinct names should be
  /// small and bounded — past the table capacity names collapse to "...".
  void Record(FlightEventKind kind, std::string_view name, std::int64_t a = 0,
              std::int64_t b = 0);

  /// Best-effort copy of the ring contents in claim order (oldest surviving
  /// event first). Events being written concurrently may appear torn.
  std::vector<FlightEvent> Snapshot() const;

  /// Human-readable dump, one event per line, oldest first:
  ///   seq=412 t=+0.001203s tid=2 CACHE_MISS cover_build a=18320 b=0
  std::string Dump() const;

  /// Total events ever recorded (claims), including overwritten ones.
  std::uint64_t total_recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const { return capacity_; }

  /// Drops all buffered events (keeps the ring allocated and enabled).
  void Clear();

 private:
  // Field-wise atomic slot: concurrent laps interleave but never race.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::int64_t> ts_ns{0};
    std::atomic<int> tid{0};
    std::atomic<int> kind{0};
    std::atomic<const char*> name{""};
    std::atomic<std::int64_t> a{0};
    std::atomic<std::int64_t> b{0};
    std::atomic<bool> valid{false};
  };

  std::int64_t NowNs() const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> head_{0};
  std::size_t capacity_ = 0;      // power of two; mask_ = capacity_ - 1
  std::size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::int64_t epoch_ns_ = 0;
};

/// Feed-point helper: records into the global recorder iff it is enabled.
/// This is the one-liner the engines and sinks call; when the recorder is
/// disabled it compiles down to a relaxed load + branch.
inline void FlightRecord(FlightEventKind kind, std::string_view name,
                         std::int64_t a = 0, std::int64_t b = 0) {
  FlightRecorder& rec = FlightRecorder::Global();
  if (rec.enabled()) rec.Record(kind, name, a, b);
}

}  // namespace focq

#endif  // FOCQ_OBS_RECORDER_H_
