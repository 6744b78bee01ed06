#ifndef JIM_UTIL_STOPWATCH_H_
#define JIM_UTIL_STOPWATCH_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace jim::util {

/// Monotonic wall-clock stopwatch used by session tracing and benches.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Elapsed time since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Waits on `cv` until `done()` holds or `micros` have passed; returns
/// done(). The timed wait for code that may not name a clock (serve/).
template <typename Done>
bool WaitForMicros(std::condition_variable& cv,
                   std::unique_lock<std::mutex>& lock, int64_t micros,
                   Done done) {
  return cv.wait_for(lock, std::chrono::microseconds(micros), done);
}

}  // namespace jim::util

#endif  // JIM_UTIL_STOPWATCH_H_
