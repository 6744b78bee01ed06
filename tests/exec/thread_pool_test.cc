#include "exec/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace jim::exec {
namespace {

TEST(ThreadPoolTest, ThreadsCountsTheCallingThread) {
  EXPECT_EQ(ThreadPool(1).threads(), 1u);
  EXPECT_EQ(ThreadPool(4).threads(), 4u);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    for (size_t n : {0u, 1u, 2u, 7u, 100u}) {
      std::vector<std::atomic<int>> visits(n);
      pool.ParallelFor(n, [&visits](size_t i, size_t) { ++visits[i]; });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(visits[i].load(), 1) << "threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ChunkAssignmentIsDeterministic) {
  // The index → chunk map depends only on (n, threads): contiguous ranges,
  // ascending, chunk count = min(threads, n). Run it twice and against the
  // closed form.
  ThreadPool pool(3);
  const size_t n = 10;
  for (int round = 0; round < 2; ++round) {
    std::vector<size_t> chunk_of(n);
    pool.ParallelFor(n, [&chunk_of](size_t i, size_t chunk) {
      chunk_of[i] = chunk;
    });
    // Chunk j owns exactly the contiguous range [j*n/chunks, (j+1)*n/chunks).
    for (size_t j = 0; j < 3; ++j) {
      for (size_t i = j * n / 3; i < (j + 1) * n / 3; ++i) {
        EXPECT_EQ(chunk_of[i], j) << "i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ResultsLandByIndexRegardlessOfThreadCount) {
  std::vector<long> reference;
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<long> out(1000);
    pool.ParallelFor(out.size(), [&out](size_t i, size_t) {
      out[i] = static_cast<long>(i * i + 1);
    });
    if (reference.empty()) {
      reference = out;
    } else {
      EXPECT_EQ(out, reference) << "threads=" << threads;
    }
  }
  EXPECT_EQ(std::accumulate(reference.begin(), reference.end(), 0L),
            332833500L + 1000L);
}

TEST(ThreadPoolTest, ExceptionsPropagateToTheCaller) {
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.ParallelFor(100,
                         [](size_t i, size_t) {
                           if (i == 37) throw std::runtime_error("boom 37");
                         }),
        std::runtime_error);
    // The pool survives a throwing loop and keeps working.
    std::atomic<int> count{0};
    pool.ParallelFor(10, [&count](size_t, size_t) { ++count; });
    EXPECT_EQ(count.load(), 10);
  }
}

TEST(ThreadPoolTest, FirstFailingChunkWinsDeterministically) {
  // Two chunks throw; the rethrown exception is the lowest chunk's, not a
  // scheduling accident.
  ThreadPool pool(4);
  try {
    pool.ParallelFor(4, [](size_t i, size_t chunk) {
      (void)i;
      if (chunk == 1 || chunk == 3) {
        throw std::runtime_error("chunk " + std::to_string(chunk));
      }
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 1");
  }
}

TEST(ThreadPoolTest, ReuseAcrossManyRounds) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(17, [&total](size_t i, size_t) {
      total += static_cast<long>(i);
    });
  }
  EXPECT_EQ(total.load(), 200L * (16 * 17 / 2));
}

TEST(ThreadPoolTest, ConcurrentParallelForsFromManyThreads) {
  // Independent ParallelFor calls may share one pool; each tracks its own
  // completion. Drive the shared pool from several caller threads at once.
  ThreadPool shared(4);
  std::vector<std::thread> callers;
  std::vector<long> sums(6, 0);
  for (size_t t = 0; t < sums.size(); ++t) {
    callers.emplace_back([&shared, &sums, t] {
      long local = 0;
      std::mutex m;
      shared.ParallelFor(100, [&](size_t i, size_t) {
        std::lock_guard<std::mutex> lock(m);
        local += static_cast<long>(i + t);
      });
      sums[t] = local;
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (size_t t = 0; t < sums.size(); ++t) {
    EXPECT_EQ(sums[t], 4950L + 100L * static_cast<long>(t));
  }
}

TEST(ThreadPoolTest, ParallelForOnABusyPoolRunsInline) {
  // While one loop holds the pool (both its chunks blocked), a second
  // caller's loop must not wait for it: it runs every chunk itself, in
  // chunk order, with the same chunk ids a parallel run would see. The
  // waits are bounded, so a pool that queues the second loop behind the
  // first fails here instead of hanging.
  ThreadPool pool(2);
  std::mutex mutex;
  std::condition_variable changed;
  size_t entered = 0;
  bool release = false;
  std::thread holder([&] {
    pool.ParallelFor(2, [&](size_t, size_t) {
      std::unique_lock<std::mutex> lock(mutex);
      ++entered;
      changed.notify_all();
      changed.wait(lock, [&] { return release; });
    });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(changed.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return entered == 2; }));
  }

  const size_t n = 7;
  std::vector<size_t> chunk_of(n);
  std::vector<std::thread::id> ran_on(n);
  std::promise<std::thread::id> caller;
  std::future<std::thread::id> finished = caller.get_future();
  std::thread second([&] {
    pool.ParallelFor(n, [&](size_t i, size_t chunk) {
      chunk_of[i] = chunk;
      ran_on[i] = std::this_thread::get_id();
    });
    caller.set_value(std::this_thread::get_id());
  });
  const bool completed = finished.wait_for(std::chrono::seconds(5)) ==
                         std::future_status::ready;
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  changed.notify_all();
  holder.join();
  second.join();

  ASSERT_TRUE(completed) << "ParallelFor waited on another caller's loop";
  const std::thread::id caller_id = finished.get();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(chunk_of[i], i < 3 ? 0u : 1u) << "i=" << i;
    EXPECT_EQ(ran_on[i], caller_id) << "i=" << i;
  }
}

TEST(ThreadPoolTest, NestedParallelForOnTheSamePoolRunsInline) {
  // A chunk body may re-enter its own pool: the inner loop finds the slot
  // taken and runs inline, with the chunking of an outer-level call.
  ThreadPool pool(4);
  std::vector<std::vector<size_t>> inner_chunks(8, std::vector<size_t>(10));
  pool.ParallelFor(8, [&](size_t i, size_t) {
    pool.ParallelFor(10, [&](size_t k, size_t chunk) {
      inner_chunks[i][k] = chunk;
    });
  });
  for (size_t i = 0; i < 8; ++i) {
    for (size_t k = 0; k < 10; ++k) {
      // Chunk j owns [j*10/4, (j+1)*10/4): {0,1} {2,3,4} {5,6} {7,8,9}.
      const size_t expected = k < 2 ? 0 : k < 5 ? 1 : k < 7 ? 2 : 3;
      EXPECT_EQ(inner_chunks[i][k], expected) << "i=" << i << " k=" << k;
    }
  }

  // The inline path rethrows the lowest failing chunk, like the parallel
  // one.
  std::vector<std::string> errors(4);
  pool.ParallelFor(4, [&](size_t i, size_t) {
    try {
      pool.ParallelFor(4, [](size_t, size_t chunk) {
        if (chunk == 1 || chunk == 3) {
          throw std::runtime_error("chunk " + std::to_string(chunk));
        }
      });
    } catch (const std::runtime_error& e) {
      errors[i] = e.what();
    }
  });
  EXPECT_EQ(errors, std::vector<std::string>(4, "chunk 1"));
}

}  // namespace
}  // namespace jim::exec
