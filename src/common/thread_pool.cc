#include "common/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "common/metrics.h"

namespace mural {

namespace {

Gauge* QueueDepthGauge() {
  static Gauge* g =
      MetricsRegistry::Global().GetGauge("exec.thread_pool.queue_depth");
  return g;
}

Counter* TasksRunCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("exec.thread_pool.tasks_run");
  return c;
}

Counter* MorselsRunCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("exec.morsels_run");
  return c;
}

/// Morsels per input.  Enough that DOP strips claiming from one counter
/// finish close together (the last claims are about 1/128 of the input),
/// few enough that the per-morsel context clone, slot and hand-off stay
/// small next to the morsel's work.
constexpr size_t kTargetMorsels = 128;

/// Units per morsel: ceil(count / kTargetMorsels), at least one.
size_t MorselSize(size_t count) {
  return std::max<size_t>(1, (count + kTargetMorsels - 1) / kTargetMorsels);
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

// Shutdown() joins workers; std::thread::join is statically throwing, but
// every join here is guarded by joinable(), and if one threw anyway the
// right outcome for a pool dying mid-teardown is std::terminate.
// NOLINTNEXTLINE(bugprone-exception-escape)
ThreadPool::~ThreadPool() { Shutdown(); }

std::future<Status> ThreadPool::Submit(Task task) {
  // The wrapper funnels any escaping exception into the Status channel so
  // workers never unwind across the queue (which would std::terminate).
  std::packaged_task<Status()> wrapped([task = std::move(task)] {
    try {
      return task();
    } catch (const std::exception& e) {
      return Status::Internal(std::string("task threw: ") + e.what());
    } catch (...) {
      return Status::Internal("task threw a non-std exception");
    }
  });
  std::future<Status> future = wrapped.get_future();
  {
    MutexLock lock(mu_);
    if (shutdown_) {
      std::promise<Status> aborted;
      aborted.set_value(Status::Aborted("thread pool is shut down"));
      return aborted.get_future();
    }
    queue_.push_back(std::move(wrapped));
    QueueDepthGauge()->Add(1);
  }
  cv_.NotifyOne();
  return future;
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<Status()> task;
    {
      MutexLock lock(mu_);
      // Explicit predicate loop (not the cv.wait(lock, pred) overload): the
      // thread-safety analysis cannot see that a predicate lambda runs with
      // the lock held, whereas this loop body visibly does.
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      QueueDepthGauge()->Add(-1);
    }
    TasksRunCounter()->Increment();
    task();  // result flows through the packaged_task's future
  }
}

size_t ThreadPool::HardwareConcurrency() {
  // std::thread::hardware_concurrency counts the machine's CPUs and ignores
  // the affinity mask (taskset, cpusets); the mask is what DOP can use.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  const size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

size_t MorselCount(size_t count) {
  const size_t size = MorselSize(count);
  return (count + size - 1) / size;
}

Status ParallelMorsels(
    ThreadPool* pool, size_t count, int dop,
    const std::function<Status(size_t morsel_index, size_t begin,
                               size_t end)>& fn) {
  if (count == 0) return Status::OK();
  const size_t morsel_size = MorselSize(count);
  const size_t num_morsels = MorselCount(count);
  // A function of count alone, independent of DOP and scheduling — the
  // metrics-determinism tests rely on this.
  MorselsRunCounter()->Add(num_morsels);

  // Strips claim morsels from one shared counter, so a strip that finishes
  // early takes more morsels instead of idling while a slow one works
  // through a fixed share.  A failed morsel stops all further claims.
  struct StripResult {
    size_t morsel;  // the failing morsel; num_morsels when none failed
    Status status;
  };
  std::atomic<size_t> next_morsel{0};
  std::atomic<bool> failed{false};
  auto run_strip = [&, num_morsels]() -> StripResult {
    while (!failed.load(std::memory_order_relaxed)) {
      const size_t m = next_morsel.fetch_add(1, std::memory_order_relaxed);
      if (m >= num_morsels) break;
      const size_t begin = m * morsel_size;
      const size_t end = std::min(count, begin + morsel_size);
      Status status = fn(m, begin, end);
      if (!status.ok()) {
        failed.store(true, std::memory_order_relaxed);
        return {m, std::move(status)};
      }
    }
    return {num_morsels, Status::OK()};
  };

  // Fewer than two units per strip runs inline: waking the pool's workers
  // costs more than they save there (on a 4-vCPU VM, a 3-page Psi scan at
  // DOP 4 took 12 us inline and 22 us on three strips).
  const size_t strips =
      count < 2 * static_cast<size_t>(std::max(dop, 1))
          ? 1
          : std::min<size_t>(static_cast<size_t>(dop), num_morsels);
  if (pool == nullptr || strips <= 1) return run_strip().status;

  // Strip 0 runs on the calling thread so a dop-way loop occupies only
  // dop - 1 pool workers (and still makes progress on a saturated pool).
  std::vector<std::future<Status>> futures;
  std::vector<StripResult> results(strips, {num_morsels, Status::OK()});
  futures.reserve(strips - 1);
  for (size_t s = 1; s < strips; ++s) {
    futures.push_back(pool->Submit([&run_strip, &results, s] {
      results[s] = run_strip();
      return Status::OK();
    }));
  }
  results[0] = run_strip();
  Status pool_error = Status::OK();
  for (std::future<Status>& future : futures) {
    Status status = future.get();
    if (pool_error.ok() && !status.ok()) pool_error = std::move(status);
  }
  // The lowest-numbered failing morsel's error, whichever strip ran it.
  StripResult* first = &results[0];
  for (StripResult& r : results) {
    if (r.morsel < first->morsel) first = &r;
  }
  if (!first->status.ok()) return std::move(first->status);
  return pool_error;
}

}  // namespace mural
