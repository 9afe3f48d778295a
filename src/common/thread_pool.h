// ThreadPool: the engine's only sanctioned source of threads.
//
// A fixed set of workers drains a FIFO task queue; tasks are
// Status-returning closures and their results come back through
// std::future<Status>, so the engine's no-exceptions error model survives
// the thread boundary (a task that *does* throw — e.g. a std::bad_alloc
// escaping a standard-library call — is converted to Status::Internal by
// the submission wrapper rather than calling std::terminate).
//
// All intra-query parallelism (morsel-driven Psi scans and joins, the
// parallel stress harness) is built on this pool; bare std::thread outside
// common/ is rejected by mural_lint's no-bare-thread rule.  ParallelMorsels
// is the one place that decides how an input is cut into morsels.

#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace mural {

/// A fixed-size worker pool executing Status-returning tasks.
class ThreadPool {
 public:
  using Task = std::function<Status()>;

  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);

  /// Shuts down (drains queued tasks, joins workers).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Schedules `task` for execution.  The returned future yields the
  /// task's Status; if the task throws, the exception is converted to
  /// Status::Internal.  After Shutdown the future is immediately ready
  /// with Status::Aborted.
  [[nodiscard]] std::future<Status> Submit(Task task);

  /// Stops accepting tasks, runs everything already queued, and joins the
  /// workers.  Idempotent; also called by the destructor.
  void Shutdown();

  /// The degree of parallelism the hardware supports: the CPUs this process
  /// may run on (so `taskset -c 0` yields 1), >= 1 even when the runtime
  /// reports 0.
  static size_t HardwareConcurrency();

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar cv_;
  std::deque<std::packaged_task<Status()>> queue_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  // Filled once in the constructor and joined in Shutdown; never resized
  // while workers run, so num_threads() may read it without the lock.
  std::vector<std::thread> workers_;  // lint: unguarded(immutable set after construction; Shutdown joins before destruction)
};

/// The number of morsels ParallelMorsels splits `count` units into: about
/// kTargetMorsels (see thread_pool.cc), at least one unit each, and a
/// function of `count` alone — never of DOP or scheduling — so the morsel
/// layout and the `exec.morsels_run` counter are the same at every DOP.
/// Callers size their per-morsel slots with it.
size_t MorselCount(size_t count);

/// Morsel-driven parallel loop: partitions [0, count) into MorselCount(count)
/// equal morsels (the last one may be shorter) and processes them with
/// `dop` concurrent strips on `pool`.  Morsel m covers the same range
/// whichever strip runs it; strips claim the next unclaimed morsel from a
/// shared counter, so a fast strip takes more morsels.  Callers that write
/// results into a per-morsel slot get bit-identical output regardless of
/// scheduling.
///
/// `fn(morsel_index, begin, end)` is invoked once per morsel, concurrently
/// across strips but sequentially within one strip.  Runs inline on the
/// calling thread when `pool` is null, `dop` <= 1, or `count` < 2 * `dop`
/// (the same morsels, one strip).  A failed morsel stops further claims;
/// the call returns the error of the lowest-numbered failing morsel.
[[nodiscard]] Status ParallelMorsels(
    ThreadPool* pool, size_t count, int dop,
    const std::function<Status(size_t morsel_index, size_t begin,
                               size_t end)>& fn);

}  // namespace mural
