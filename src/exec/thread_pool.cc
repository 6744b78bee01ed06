#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <vector>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace jim::exec {

using Body = std::function<void(size_t index, size_t chunk)>;

/// One ParallelFor's chunks. Lives on the calling thread's stack; while it
/// is published, the caller clears the slot only once every joined worker
/// has left.
struct ThreadPool::Job {
  /// Runs chunk j, which owns the index range [j*n/chunks, (j+1)*n/chunks).
  void Run(size_t j) {
    try {
      const size_t end = (j + 1) * n / chunks;
      for (size_t i = j * n / chunks; i < end; ++i) body(i, j);
    } catch (...) {
      failures[j] = std::current_exception();
    }
  }

  /// Claims and runs chunks until none is left.
  void ClaimAndRun() {
    size_t j;
    while ((j = next.fetch_add(1)) < chunks) Run(j);
  }

  /// Rethrows the lowest failing chunk's exception, whatever the schedule.
  void RethrowFirstFailure() const {
    for (const std::exception_ptr& failure : failures) {
      if (failure) std::rethrow_exception(failure);
    }
  }

  const Body& body;
  const size_t n;
  const size_t chunks;
  /// Chunk j's exception, written only by the thread that ran chunk j.
  std::vector<std::exception_ptr> failures;
  /// Next unclaimed chunk id.
  std::atomic<size_t> next{0};
  /// Workers currently claiming chunks (guarded by the pool's mutex_).
  size_t joined = 0;
};

ThreadPool::ThreadPool(size_t threads) {
  const size_t workers = threads > 1 ? threads - 1 : 0;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  JIM_COUNT(obs::kCounterExecPoolsCreated);
  JIM_COUNT_N(obs::kCounterExecWorkersSpawned, workers);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [&] { return stopping_ || generation_ != seen; });
    if (stopping_) return;
    seen = generation_;
    Job* job = job_;
    // A late waker (every chunk claimed) stays out: no one waits on it.
    if (job == nullptr || job->next.load() >= job->chunks) continue;
    ++job->joined;
    lock.unlock();
    job->ClaimAndRun();
    lock.lock();
    if (--job->joined == 0) left_.notify_one();
  }
}

void ThreadPool::ParallelFor(size_t n, const Body& body) {
  if (n == 0) return;
  const size_t chunks = std::min(threads(), n);
  JIM_COUNT(obs::kCounterExecParallelForCalls);
  JIM_COUNT_N(obs::kCounterExecParallelForChunks, chunks);
  JIM_OBSERVE(obs::kHistExecParallelForItems, n);

  Job job{body, n, chunks, std::vector<std::exception_ptr>(chunks)};
  bool published = false;
  if (chunks > 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (job_ == nullptr) {
      job_ = &job;
      ++generation_;
      published = true;
    }
  }
  if (published) {
    wake_.notify_all();
    job.ClaimAndRun();
    // Every chunk was claimed by this thread (done) or by a joined worker,
    // so once none is joined the loop is complete.
    std::unique_lock<std::mutex> lock(mutex_);
    left_.wait(lock, [&job] { return job.joined == 0; });
    job_ = nullptr;
  } else {
    // One chunk, or the slot is taken (another caller's loop, or this loop
    // re-entered from a chunk body): the same chunks, in order, right here.
    for (size_t j = 0; j < chunks; ++j) job.Run(j);
  }
  job.RethrowFirstFailure();
}

}  // namespace jim::exec
