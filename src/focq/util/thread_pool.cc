#include "focq/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "focq/util/check.h"

namespace focq {

namespace {

// Enough chunks per worker that dynamic claiming absorbs skewed per-item
// costs (a few huge BFS balls next to many tiny ones) without making the
// per-chunk bookkeeping visible.
constexpr std::size_t kChunksPerWorker = 8;

// The calling thread's chunk observer (installed by a traced Phase in obs) and
// this thread's pool-worker lane (set once in WorkerLoop).
thread_local ParallelForObserver* tls_observer = nullptr;
thread_local int tls_worker_tid = 0;

std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ParallelForObserver* SetParallelForObserver(ParallelForObserver* observer) {
  ParallelForObserver* previous = tls_observer;
  tls_observer = observer;
  return previous;
}

ParallelForObserver* CurrentParallelForObserver() { return tls_observer; }

int CurrentWorkerTid() { return tls_worker_tid; }

int HardwareThreads() {
  unsigned int n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int EffectiveThreads(int num_threads) {
  if (num_threads == 0) return HardwareThreads();
  return std::max(1, num_threads);
}

ChunkGrid MakeChunkGrid(std::size_t n, int workers) {
  ChunkGrid grid;
  grid.n = n;
  std::size_t target = static_cast<std::size_t>(EffectiveThreads(workers)) *
                       kChunksPerWorker;
  grid.num_chunks = std::max<std::size_t>(1, std::min(n, target));
  return grid;
}

ThreadPool::ThreadPool(int num_workers) {
  num_workers = std::max(1, num_workers);
  queues_.reserve(num_workers);
  worker_stats_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
    worker_stats_.push_back(std::make_unique<WorkerStats>());
  }
  workers_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  FOCQ_CHECK(task != nullptr);
  std::size_t target =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  {
    // Taking the sleep mutex orders this submission against any worker that
    // just found nothing and is about to wait, closing the lost-wakeup gap.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  wake_.notify_one();
}

bool ThreadPool::FindTask(int self, std::function<void()>* task) {
  // Own queue first (front: submission order)...
  {
    WorkerQueue& q = *queues_[self];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.tasks.empty()) {
      *task = std::move(q.tasks.front());
      q.tasks.pop_front();
      return true;
    }
  }
  // ... then steal from the back of the others.
  const int n = static_cast<int>(queues_.size());
  for (int d = 1; d < n; ++d) {
    WorkerQueue& q = *queues_[(self + d) % n];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (!q.tasks.empty()) {
      *task = std::move(q.tasks.back());
      q.tasks.pop_back();
      steals_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

ThreadPool::Stats ThreadPool::GetStats() const {
  Stats stats;
  stats.tasks_submitted = tasks_submitted_.load(std::memory_order_relaxed);
  stats.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  stats.steals = steals_.load(std::memory_order_relaxed);
  stats.worker_busy_ns.reserve(worker_stats_.size());
  for (const auto& w : worker_stats_) {
    std::int64_t ns = w->busy_ns.load(std::memory_order_relaxed);
    stats.worker_busy_ns.push_back(ns);
    stats.busy_ns += ns;
  }
  return stats;
}

void ThreadPool::WorkerLoop(int self) {
  tls_worker_tid = self + 1;  // lane 0 is reserved for callers
  for (;;) {
    std::function<void()> task;
    if (FindTask(self, &task)) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      auto start = std::chrono::steady_clock::now();
      task();
      auto elapsed = std::chrono::steady_clock::now() - start;
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      worker_stats_[self]->busy_ns.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count(),
          std::memory_order_relaxed);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    wake_.wait(lock, [&] {
      return stop_ || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_ && pending_.load(std::memory_order_acquire) == 0) return;
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(HardwareThreads());
  return *pool;
}

namespace {
std::atomic<ParallelForHook> g_parallel_for_hook{nullptr};
}  // namespace

ParallelForHook SetParallelForHook(ParallelForHook hook) {
  return g_parallel_for_hook.exchange(hook);
}

void ParallelFor(int num_threads, std::size_t n,
                 const ParallelChunkBody& body) {
  if (n == 0) return;
  const int workers = EffectiveThreads(num_threads);
  ChunkGrid grid = MakeChunkGrid(n, workers);
  if (workers > 1 && grid.num_chunks > 1) {
    if (ParallelForHook hook =
            g_parallel_for_hook.load(std::memory_order_relaxed)) {
      hook(n, grid.num_chunks);
    }
  }
  // The observer of the calling thread covers this whole fan-out: helper
  // tasks report to it from their own threads (RecordChunk is thread-safe).
  ParallelForObserver* observer = tls_observer;
  if (workers <= 1 || grid.num_chunks <= 1) {
    for (std::size_t c = 0; c < grid.num_chunks; ++c) {
      auto [begin, end] = grid.Bounds(c);
      if (observer != nullptr) {
        std::int64_t start = SteadyNowNs();
        body(c, begin, end);
        observer->RecordChunk(tls_worker_tid, c, start, SteadyNowNs() - start);
      } else {
        body(c, begin, end);
      }
    }
    return;
  }

  // Shared by the caller and the helper tasks; helpers that wake up after
  // the loop finished see an exhausted chunk counter and exit without
  // touching the (by then possibly dead) caller frame.
  struct State {
    ParallelChunkBody body;
    ChunkGrid grid;
    ParallelForObserver* observer = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable all_done;
  };
  auto state = std::make_shared<State>();
  state->body = body;
  state->grid = grid;
  state->observer = observer;

  auto drain = [](const std::shared_ptr<State>& s) {
    for (;;) {
      std::size_t c = s->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= s->grid.num_chunks) return;
      auto [begin, end] = s->grid.Bounds(c);
      if (s->observer != nullptr) {
        std::int64_t start = SteadyNowNs();
        s->body(c, begin, end);
        s->observer->RecordChunk(tls_worker_tid, c, start,
                                 SteadyNowNs() - start);
      } else {
        s->body(c, begin, end);
      }
      if (s->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          s->grid.num_chunks) {
        std::lock_guard<std::mutex> lock(s->mutex);
        s->all_done.notify_all();
      }
    }
  };

  ThreadPool& pool = ThreadPool::Shared();
  const std::size_t helpers =
      std::min<std::size_t>(static_cast<std::size_t>(workers) - 1,
                            grid.num_chunks - 1);
  for (std::size_t i = 0; i < helpers; ++i) {
    pool.Submit([state, drain] { drain(state); });
  }
  drain(state);  // the caller participates; guarantees progress when nested

  std::unique_lock<std::mutex> lock(state->mutex);
  state->all_done.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) >= grid.num_chunks;
  });
}

}  // namespace focq
