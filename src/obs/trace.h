// Phase tracing — Chrome trace_event ("X" complete events) spans for the
// coarse phases of a run: EM iterations, GMH iterations (region / fan-out
// / draw), SMC passes and generations (with their propose / flush /
// resample sub-phases), pool launches, online updates, serve jobs. The JSON written by --trace-out loads directly in
// chrome://tracing and Perfetto; spans recorded on one thread nest by
// timestamp containment, so per-generation SMC spans appear under their
// pass/EM-iteration parents without any explicit nesting.
//
// Arming follows the metrics registry's pattern: a global recorder pointer
// checked with one relaxed load per span — unarmed spans are a no-op and
// never read the clock. Span name/category must be string LITERALS (the
// recorder stores the pointers; pre-sized event storage means steady-state
// recording allocates nothing until the event cap). Tracing never touches
// an RNG stream, so traced runs stay bitwise identical to untraced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mpcgs::obs {

class TraceRecorder {
  public:
    /// Reserves `capacity` events up front; recording beyond it drops
    /// events (counted, reported in the JSON) instead of reallocating.
    explicit TraceRecorder(std::size_t capacity = 1 << 18);

    /// Append one complete event. `name`/`cat` must outlive the recorder
    /// (string literals at every call site). Thread-safe.
    void record(const char* name, const char* cat, std::uint64_t tsUs,
                std::uint64_t durUs);

    /// Microseconds since recorder construction (the trace time origin).
    std::uint64_t nowUs() const;

    std::size_t eventCount() const;
    std::uint64_t droppedEvents() const;

    /// {"traceEvents":[{"name":...,"ph":"X","ts":...,"dur":...,...},...]}
    std::string toJson() const;

    /// Write toJson() to `path`; the obs.emit fail point and real I/O
    /// failures surface as IoError (exit code 6).
    void writeFile(const std::string& path) const;

  private:
    struct Event {
        const char* name;
        const char* cat;
        std::uint64_t tsUs;
        std::uint64_t durUs;
        std::uint32_t tid;
    };

    std::chrono::steady_clock::time_point t0_;
    mutable std::mutex mu_;
    std::vector<Event> events_;
    std::size_t capacity_;
    std::uint64_t dropped_ = 0;
};

/// Install `recorder` as the process-wide span target (nullptr disarms).
/// The caller keeps ownership and must outlive every span.
void armTrace(TraceRecorder* recorder);
TraceRecorder* activeTrace();

/// RAII span: captures the clock on construction, records a complete event
/// on destruction. No-op (no clock read) when tracing is unarmed.
class TraceSpan {
  public:
    TraceSpan(const char* name, const char* cat);
    ~TraceSpan();
    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

  private:
    TraceRecorder* rec_;
    const char* name_;
    const char* cat_;
    std::uint64_t t0Us_ = 0;
};

}  // namespace mpcgs::obs
