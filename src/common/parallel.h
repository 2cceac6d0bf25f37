// Deterministic fork-join parallelism for the construction pipeline.
//
// parallel_for(n, grain, fn) splits the index range [0, n) into fixed-size
// shards of `grain` indices and runs fn(begin, end) once per shard on a
// process-wide worker pool. Shard boundaries depend only on n and grain —
// never on the thread count — so any data laid out per index (adjacency
// rows, matrix rows) is written identically at every thread count, and
// builders that derive per-index RNG streams (Rng::fork) produce
// byte-identical output serial or parallel.
//
// Thread count is a process-wide setting: set_parallel_threads(n), with
// n == 0 meaning std::thread::hardware_concurrency(). With an effective
// count of 1 (or n <= grain) parallel_for degrades to a single inline
// fn(0, n) call on the calling thread — the exact serial code path, with
// no pool, no atomics and no synchronization.
//
// Exceptions thrown by fn are captured on the worker, the remaining shards
// are abandoned, and the first captured exception is rethrown on the
// calling thread once every in-flight shard has settled. The pool itself
// is crash-only: it is created lazily on first parallel use and lives for
// the remainder of the process (rebuilt only when the thread count
// changes).
#ifndef CANON_COMMON_PARALLEL_H
#define CANON_COMMON_PARALLEL_H

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace canon {

/// Effective worker count used by parallel_for (>= 1).
int parallel_threads();

/// Sets the process-wide worker count; 0 restores the default
/// (hardware_concurrency). Not safe to call while a parallel_for is
/// running on another thread.
void set_parallel_threads(int n);

/// A dependency-free fixed-size worker pool executing one sharded job at a
/// time. parallel_for uses one process-wide instance; standalone pools are
/// only needed by tests.
class ThreadPool {
 public:
  /// Spawns `workers - 1` threads (the submitting thread participates in
  /// every job, so a pool of size 1 spawns nothing). Requires workers >= 1.
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return spawned_ + 1; }

  /// Runs shard(i) for every i in [0, shard_count), distributing shards
  /// dynamically over the pool plus the calling thread. Returns when all
  /// shards have settled; rethrows the first captured exception. One job
  /// at a time: not reentrant, callers must not overlap invocations.
  void for_shards(std::size_t shard_count,
                  const std::function<void(std::size_t)>& shard);

 private:
  void worker_loop();
  /// Claims and runs shards until the job is drained; records the first
  /// exception and skips the remaining shards after a failure.
  void drain_job();

  std::mutex mutex_;
  std::condition_variable work_cv_;   // signals a new job generation
  std::condition_variable done_cv_;   // signals busy_ reaching 0
  std::vector<std::thread> threads_;
  int spawned_ = 0;

  // Current-job state, all guarded by mutex_ (shard claims included: the
  // per-claim critical section is trivial next to any real shard body).
  std::uint64_t generation_ = 0;
  std::size_t next_shard_ = 0;
  std::size_t shard_count_ = 0;
  const std::function<void(std::size_t)>* shard_fn_ = nullptr;
  int busy_ = 0;
  std::exception_ptr error_;
  bool stopping_ = false;
};

/// See the file comment. `grain` is the number of indices per shard
/// (minimum 1); pick it so one shard amortizes scheduling but still yields
/// many shards per worker for load balancing.
void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace canon

#endif  // CANON_COMMON_PARALLEL_H
