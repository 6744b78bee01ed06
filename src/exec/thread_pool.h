#ifndef JIM_EXEC_THREAD_POOL_H_
#define JIM_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace jim::exec {

/// A fixed-size fork-join pool with one job slot. `threads` is the *total*
/// parallelism of a ParallelFor: the pool spawns `threads - 1` workers and
/// the calling thread claims chunks alongside them, so `ThreadPool(1)` owns
/// no threads at all and runs everything inline (the serial reference path
/// the parity tests pin the parallel results against). Thread-safe; no
/// loop may be running when it is destroyed.
class ThreadPool {
 public:
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + the calling thread), always ≥ 1.
  size_t threads() const { return workers_.size() + 1; }

  /// Runs `body(i, chunk)` for every i in [0, n), blocking until all calls
  /// have returned. Work is split *statically* into min(threads(), n)
  /// contiguous chunks; `chunk` is the id of the chunk owning i, which lets
  /// callers pin per-chunk scratch state without locks. A call that finds
  /// the slot taken — another thread's loop, or a chunk body re-entering
  /// this pool — runs every chunk itself, in chunk order, so no call ever
  /// waits on another caller's loop.
  ///
  /// Determinism: the index → chunk assignment depends only on (n,
  /// threads()), never on scheduling or on whether the loop ran inline, so
  /// results written by index are bitwise-identical at any thread count.
  /// Exceptions thrown by `body` end their chunk; the first one (in chunk
  /// order) is rethrown after every chunk has finished.
  void ParallelFor(size_t n,
                   const std::function<void(size_t index, size_t chunk)>& body);

 private:
  struct Job;

  void WorkerLoop();

  std::mutex mutex_;
  /// Workers wait here for a new `generation_` (or `stopping_`).
  std::condition_variable wake_;
  /// The publishing caller waits here for its joined workers to leave.
  std::condition_variable left_;
  /// The job slot, guarded by mutex_: the published loop, null between
  /// loops.
  Job* job_ = nullptr;
  uint64_t generation_ = 0;
  bool stopping_ = false;
  /// Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace jim::exec

#endif  // JIM_EXEC_THREAD_POOL_H_
