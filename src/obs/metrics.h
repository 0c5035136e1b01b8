// Runtime metrics registry — lock-free named counters, gauges, and
// fixed-bucket latency histograms for the whole stack (pool, likelihood
// backends, MCMC, SMC, serve).
//
// Design mirrors util/failpoint.h: every instrumentation site is compiled
// into the binary permanently but costs one relaxed atomic load plus a
// branch while the registry is unarmed, so production runs that never pass
// --metrics-out pay nothing measurable. When armed:
//
//   * Counters increment into PER-THREAD SHARDS drawn from a fixed static
//     pool — a single-writer relaxed load/store pair per increment, so the
//     hot path has zero atomic RMW contention and zero heap allocation
//     (tests/zero_alloc_test.cc runs its windows with the registry armed).
//     snapshot() folds the shards on the read side.
//   * Gauges are last-write-wins doubles; by convention they are only set
//     from serial sections (the same rule the fail points follow), so the
//     relaxed store is race-free in practice and benign otherwise.
//   * Histograms use power-of-two microsecond buckets (le 1, 2, 4, ...,
//     2^24 ~ 16.8 s, +Inf) — bucket selection is a bit scan, no search, no
//     floats — and track their largest observation, which is what a
//     quantile landing in the +Inf bucket reports.
//
// Instrumentation NEVER touches an RNG stream and never branches on
// sampler state, so arming the registry cannot perturb any estimate: the
// bitwise thread-invariance and checkpoint/resume-identity suites run with
// metrics on (tests/obs_test.cc).
//
// The metric name taxonomy (emitted by toJson/toPrometheus):
//   pool.*   thread-pool launches, steals, park/wake, launch latency
//   lik.*    backend flushes and their time, combine ops, matrices
//            requested/computed
//   mcmc.*   sampler steps/accepts/swaps, GMH propose/likelihood time,
//            R-hat and pooled-ESS gauges
//   smc.*    generations, propose/resample time, resamples, ESS
//            trajectory, logZ increments
//   serve.*  per-job-type latency, accepted/rejected jobs, checkpointing
//
// Counters named *_ns are cumulative phase times in nanoseconds, added by
// a PhaseTimer around the phase.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace mpcgs::obs {

// Fixed compile-time metric sets: names live in kCounterNames /
// kGaugeNames / kHistogramNames (metrics.cc), index-aligned with these
// enums. A fixed set is what makes allocation-free per-thread shards
// possible; adding a metric is one enum entry plus one name.
enum class Counter : std::uint32_t {
    PoolLaunches,
    PoolChunksStolen,
    PoolParks,
    PoolWakes,
    LikFlushes,
    LikCombineOps,
    LikMatricesRequested,
    LikMatricesComputed,
    LikFlushNs,
    McmcSteps,
    McmcAccepted,
    McmcSwapsProposed,
    McmcSwapsAccepted,
    McmcProposeNs,
    McmcLikelihoodNs,
    SmcGenerations,
    SmcProposeNs,
    SmcResamples,
    SmcResampleNs,
    SmcOnlineUpdates,
    SmcOnlineRefreshes,
    SmcRejuvenationAccepts,
    ServeJobsAccepted,
    ServeJobsRejected,
    ServeUpdatesAccepted,
    ServeCheckpointWrites,
    kCount
};

enum class Gauge : std::uint32_t {
    McmcRhat,
    McmcPooledEss,
    SmcEssFraction,
    SmcMinEssFraction,
    SmcStepLogZ,
    SmcLogZ,
    SmcOnlineLogZIncrement,
    kCount
};

enum class Histogram : std::uint32_t {
    PoolLaunchLatencyUs,
    ServeAddSequenceUs,
    ServeEstimateUs,
    ServeLogzUs,
    ServeSnapshotUs,
    ServeMetricsUs,
    ServeShutdownUs,
    ServeCheckpointWriteUs,
    kCount
};

inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kGaugeCount = static_cast<std::size_t>(Gauge::kCount);
inline constexpr std::size_t kHistogramCount =
    static_cast<std::size_t>(Histogram::kCount);
/// Buckets 0..24 hold values <= 2^i microseconds; bucket 25 is +Inf.
inline constexpr std::size_t kHistogramBuckets = 26;

namespace detail {

/// One thread's private slice of the registry. Cells are single-writer:
/// only the owning thread stores, so increments are a relaxed load + store
/// (no RMW, no lock prefix; a histogram max takes a relaxed CAS only when
/// an observation raises it); snapshot() reads them relaxed from the
/// folding thread — every ordering is benign for monotonic counters.
struct alignas(64) Shard {
    std::atomic<std::uint64_t> counters[kCounterCount];
    std::atomic<std::uint64_t> hist[kHistogramCount][kHistogramBuckets];
    std::atomic<std::uint64_t> histSumUs[kHistogramCount];
    std::atomic<std::uint64_t> histMaxUs[kHistogramCount];
};

extern std::atomic<bool> gArmed;
extern std::atomic<std::uint64_t> gGauges[kGaugeCount];  ///< bit_cast doubles
extern std::atomic<bool> gGaugeSet[kGaugeCount];

/// Claim (or recall) this thread's shard from the static pool; returns
/// nullptr once the pool is exhausted (increments are then dropped and
/// counted — see Snapshot::droppedThreads). Never allocates.
Shard* shard();

inline void bump(std::atomic<std::uint64_t>& cell, std::uint64_t n) {
    cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

}  // namespace detail

/// True while any consumer armed the registry. Sites are free to skip
/// work (e.g. a clock read) that only feeds metrics.
inline bool armed() { return detail::gArmed.load(std::memory_order_relaxed); }

/// Add `n` to a counter. Unarmed: one relaxed load + branch.
inline void add(Counter c, std::uint64_t n = 1) {
    if (!armed()) return;
    if (detail::Shard* s = detail::shard())
        detail::bump(s->counters[static_cast<std::size_t>(c)], n);
}

/// Set a gauge (last write wins; serial sections only by convention).
inline void set(Gauge g, double value) {
    if (!armed()) return;
    detail::gGauges[static_cast<std::size_t>(g)].store(
        std::bit_cast<std::uint64_t>(value), std::memory_order_relaxed);
    detail::gGaugeSet[static_cast<std::size_t>(g)].store(true,
                                                         std::memory_order_relaxed);
}

/// Record one histogram observation in microseconds.
inline void observe(Histogram h, std::uint64_t us) {
    if (!armed()) return;
    detail::Shard* s = detail::shard();
    if (!s) return;
    const std::size_t hi = static_cast<std::size_t>(h);
    std::size_t b = us <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(us - 1));
    if (b >= kHistogramBuckets) b = kHistogramBuckets - 1;
    detail::bump(s->hist[hi][b], 1);
    detail::bump(s->histSumUs[hi], us);
    std::atomic<std::uint64_t>& max = s->histMaxUs[hi];
    std::uint64_t seen = max.load(std::memory_order_relaxed);
    while (us > seen &&
           !max.compare_exchange_weak(seen, us, std::memory_order_relaxed)) {
    }
}

/// Adds the wall time of its scope, in nanoseconds, to a *_ns counter.
/// Reads the clock only while the registry is armed; allocates nothing.
class PhaseTimer {
  public:
    explicit PhaseTimer(Counter c) : c_(c), on_(armed()) {
        if (on_) t0_ = std::chrono::steady_clock::now();
    }
    ~PhaseTimer() {
        if (on_)
            add(c_, static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0_)
                            .count()));
    }
    PhaseTimer(const PhaseTimer&) = delete;
    PhaseTimer& operator=(const PhaseTimer&) = delete;

  private:
    Counter c_;
    bool on_;
    std::chrono::steady_clock::time_point t0_;
};

/// Arm / disarm the registry process-wide. Shards persist across
/// arm/disarm cycles; disarm only stops new recording.
void arm();
void disarm();

/// Zero every shard, gauge, and drop counter (tests, bench row isolation).
/// Call from a quiescent point — concurrent writers would race the zeroing.
void reset();

/// Folded read-side view of the registry.
struct MetricsSnapshot {
    std::uint64_t counters[kCounterCount] = {};
    double gauges[kGaugeCount] = {};
    bool gaugeSet[kGaugeCount] = {};
    std::uint64_t hist[kHistogramCount][kHistogramBuckets] = {};
    std::uint64_t histSumUs[kHistogramCount] = {};
    std::uint64_t histMaxUs[kHistogramCount] = {};  ///< largest observation
    std::uint64_t droppedThreads = 0;  ///< threads that exhausted the shard pool

    std::uint64_t counter(Counter c) const {
        return counters[static_cast<std::size_t>(c)];
    }
    std::uint64_t histCount(Histogram h) const;
    /// Upper-bound quantile estimate from the bucket boundaries: the `le`
    /// bound of the bucket holding quantile q, or the largest observation
    /// when that bucket is +Inf; 0 when empty.
    std::uint64_t histQuantileUs(Histogram h, double q) const;
};

MetricsSnapshot snapshot();

const char* counterName(Counter c);
const char* gaugeName(Gauge g);
const char* histogramName(Histogram h);

/// Flat single-level JSON object: every counter, every set gauge, and
/// count/sum/p50/p90/p99 per non-empty histogram. Parses with
/// serve/json_mini (no nesting) and python -c json.loads alike.
std::string toJson(const MetricsSnapshot& snap);

/// Prometheus text exposition format (# TYPE lines, _bucket{le=...},
/// _sum/_count), metric names mangled mpcgs_<name with . -> _>.
std::string toPrometheus(const MetricsSnapshot& snap);

/// Snapshot and write the flat JSON to `path`. The obs.emit fail point and
/// every real open/write failure surface as IoError (exit code 6) — losing
/// the metrics of a finished run is an operational fault, not a warning.
void writeMetricsFile(const std::string& path);

}  // namespace mpcgs::obs
