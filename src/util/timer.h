// Wall-clock timing for the speedup experiments (Tables 2-4 / Figs 14-16).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace mpcgs {

/// Monotonic wall-clock stopwatch.
class Timer {
  public:
    Timer() : start_(Clock::now()) {}

    void reset() { start_ = Clock::now(); }

    /// Elapsed seconds since construction or last reset().
    double seconds() const {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    // Every elapsed-time figure the tools and benches report rides on this
    // clock; a non-monotonic source (NTP step, suspend) would surface as
    // negative phase durations. tests/util_test.cc checks monotonicity.
    static_assert(Clock::is_steady, "Timer requires a monotonic clock");
    Clock::time_point start_;
};

/// Accumulates time across start/stop intervals (for phase breakdowns).
class PhaseTimer {
  public:
    void start() { t_.reset(); running_ = true; }
    void stop() {
        if (running_) total_ += t_.seconds();
        running_ = false;
    }
    double totalSeconds() const { return total_; }
    void reset() { total_ = 0.0; running_ = false; }

  private:
    Timer t_;
    double total_ = 0.0;
    bool running_ = false;
};

/// Human-readable duration, e.g. "1.24 s" or "312 ms".
std::string formatDuration(double seconds);

}  // namespace mpcgs
