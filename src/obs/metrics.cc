#include "obs/metrics.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "util/error.h"
#include "util/failpoint.h"

namespace mpcgs::obs {
namespace {

/// Index-aligned with the enums in metrics.h; a static_assert per table
/// keeps them honest.
constexpr const char* kCounterNames[] = {
    "pool.launches",
    "pool.chunks_stolen",
    "pool.parks",
    "pool.wakes",
    "lik.flushes",
    "lik.combine_ops",
    "lik.matrices_requested",
    "lik.matrices_computed",
    "lik.flush_ns",
    "mcmc.steps",
    "mcmc.accepted",
    "mcmc.swaps_proposed",
    "mcmc.swaps_accepted",
    "mcmc.propose_ns",
    "mcmc.likelihood_ns",
    "smc.generations",
    "smc.propose_ns",
    "smc.resamples",
    "smc.resample_ns",
    "smc.online_updates",
    "smc.online_refreshes",
    "smc.rejuvenation_accepts",
    "serve.jobs_accepted",
    "serve.jobs_rejected",
    "serve.updates_accepted",
    "serve.checkpoint_writes",
};
static_assert(std::size(kCounterNames) == kCounterCount);

constexpr const char* kGaugeNames[] = {
    "mcmc.rhat",
    "mcmc.pooled_ess",
    "smc.ess_fraction",
    "smc.min_ess_fraction",
    "smc.step_logz",
    "smc.logz",
    "smc.online_logz_increment",
};
static_assert(std::size(kGaugeNames) == kGaugeCount);

constexpr const char* kHistogramNames[] = {
    "pool.launch_latency_us",
    "serve.job_latency_us.add_sequence",
    "serve.job_latency_us.estimate",
    "serve.job_latency_us.logz",
    "serve.job_latency_us.snapshot",
    "serve.job_latency_us.metrics",
    "serve.job_latency_us.shutdown",
    "serve.checkpoint_write_us",
};
static_assert(std::size(kHistogramNames) == kHistogramCount);

/// Static shard pool: wide enough for any pool the tools construct (the
/// bench sweeps stop at 8 threads; hardware_concurrency on the CI runners
/// is single digits). A thread arriving after exhaustion drops its
/// increments and is counted in droppedThreads.
constexpr std::size_t kMaxShards = 64;
detail::Shard gShards[kMaxShards];
std::atomic<std::size_t> gShardCount{0};
std::atomic<std::uint64_t> gDroppedThreads{0};

thread_local detail::Shard* tlShard = nullptr;

}  // namespace

namespace detail {

std::atomic<bool> gArmed{false};
std::atomic<std::uint64_t> gGauges[kGaugeCount] = {};
std::atomic<bool> gGaugeSet[kGaugeCount] = {};

Shard* shard() {
    if (tlShard) return tlShard;
    const std::size_t i = gShardCount.fetch_add(1, std::memory_order_relaxed);
    if (i >= kMaxShards) {
        gShardCount.store(kMaxShards, std::memory_order_relaxed);
        gDroppedThreads.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    tlShard = &gShards[i];
    return tlShard;
}

}  // namespace detail

void arm() { detail::gArmed.store(true, std::memory_order_relaxed); }
void disarm() { detail::gArmed.store(false, std::memory_order_relaxed); }

void reset() {
    const std::size_t used =
        std::min(gShardCount.load(std::memory_order_relaxed), kMaxShards);
    for (std::size_t s = 0; s < used; ++s) {
        detail::Shard& sh = gShards[s];
        for (std::size_t c = 0; c < kCounterCount; ++c)
            sh.counters[c].store(0, std::memory_order_relaxed);
        for (std::size_t h = 0; h < kHistogramCount; ++h) {
            for (std::size_t b = 0; b < kHistogramBuckets; ++b)
                sh.hist[h][b].store(0, std::memory_order_relaxed);
            sh.histSumUs[h].store(0, std::memory_order_relaxed);
            sh.histMaxUs[h].store(0, std::memory_order_relaxed);
        }
    }
    for (std::size_t g = 0; g < kGaugeCount; ++g) {
        detail::gGauges[g].store(0, std::memory_order_relaxed);
        detail::gGaugeSet[g].store(false, std::memory_order_relaxed);
    }
    gDroppedThreads.store(0, std::memory_order_relaxed);
}

std::uint64_t MetricsSnapshot::histCount(Histogram h) const {
    const std::size_t hi = static_cast<std::size_t>(h);
    std::uint64_t n = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) n += hist[hi][b];
    return n;
}

std::uint64_t MetricsSnapshot::histQuantileUs(Histogram h, double q) const {
    const std::size_t hi = static_cast<std::size_t>(h);
    const std::uint64_t total = histCount(h);
    if (total == 0) return 0;
    const double target = q * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        seen += hist[hi][b];
        if (static_cast<double>(seen) >= target)
            return b < kHistogramBuckets - 1 ? (std::uint64_t{1} << b) : histMaxUs[hi];
    }
    return histMaxUs[hi];
}

MetricsSnapshot snapshot() {
    MetricsSnapshot out;
    const std::size_t used =
        std::min(gShardCount.load(std::memory_order_relaxed), kMaxShards);
    for (std::size_t s = 0; s < used; ++s) {
        const detail::Shard& sh = gShards[s];
        for (std::size_t c = 0; c < kCounterCount; ++c)
            out.counters[c] += sh.counters[c].load(std::memory_order_relaxed);
        for (std::size_t h = 0; h < kHistogramCount; ++h) {
            for (std::size_t b = 0; b < kHistogramBuckets; ++b)
                out.hist[h][b] += sh.hist[h][b].load(std::memory_order_relaxed);
            out.histSumUs[h] += sh.histSumUs[h].load(std::memory_order_relaxed);
            out.histMaxUs[h] = std::max(out.histMaxUs[h],
                                        sh.histMaxUs[h].load(std::memory_order_relaxed));
        }
    }
    for (std::size_t g = 0; g < kGaugeCount; ++g) {
        out.gaugeSet[g] = detail::gGaugeSet[g].load(std::memory_order_relaxed);
        out.gauges[g] = std::bit_cast<double>(
            detail::gGauges[g].load(std::memory_order_relaxed));
    }
    out.droppedThreads = gDroppedThreads.load(std::memory_order_relaxed);
    return out;
}

const char* counterName(Counter c) {
    return kCounterNames[static_cast<std::size_t>(c)];
}
const char* gaugeName(Gauge g) { return kGaugeNames[static_cast<std::size_t>(g)]; }
const char* histogramName(Histogram h) {
    return kHistogramNames[static_cast<std::size_t>(h)];
}

std::string toJson(const MetricsSnapshot& snap) {
    std::string out = "{";
    char buf[128];
    const auto emit = [&](const std::string& key, const std::string& value) {
        if (out.size() > 1) out += ',';
        out += '"';
        out += key;  // taxonomy names need no escaping
        out += "\":";
        out += value;
    };
    for (std::size_t c = 0; c < kCounterCount; ++c) {
        std::snprintf(buf, sizeof buf, "%" PRIu64, snap.counters[c]);
        emit(kCounterNames[c], buf);
    }
    for (std::size_t g = 0; g < kGaugeCount; ++g) {
        if (!snap.gaugeSet[g]) continue;
        std::snprintf(buf, sizeof buf, "%.17g", snap.gauges[g]);
        emit(kGaugeNames[g], buf);
    }
    for (std::size_t h = 0; h < kHistogramCount; ++h) {
        const auto hh = static_cast<Histogram>(h);
        const std::uint64_t n = snap.histCount(hh);
        if (n == 0) continue;
        const std::string base = kHistogramNames[h];
        std::snprintf(buf, sizeof buf, "%" PRIu64, n);
        emit(base + ".count", buf);
        std::snprintf(buf, sizeof buf, "%" PRIu64, snap.histSumUs[h]);
        emit(base + ".sum", buf);
        std::snprintf(buf, sizeof buf, "%" PRIu64, snap.histQuantileUs(hh, 0.50));
        emit(base + ".p50", buf);
        std::snprintf(buf, sizeof buf, "%" PRIu64, snap.histQuantileUs(hh, 0.90));
        emit(base + ".p90", buf);
        std::snprintf(buf, sizeof buf, "%" PRIu64, snap.histQuantileUs(hh, 0.99));
        emit(base + ".p99", buf);
    }
    if (snap.droppedThreads > 0) {
        std::snprintf(buf, sizeof buf, "%" PRIu64, snap.droppedThreads);
        emit("obs.dropped_threads", buf);
    }
    out += '}';
    return out;
}

namespace {

/// pool.launch_latency_us -> mpcgs_pool_launch_latency_us
std::string promName(const char* name) {
    std::string out = "mpcgs_";
    for (const char* p = name; *p; ++p) out += *p == '.' ? '_' : *p;
    return out;
}

}  // namespace

std::string toPrometheus(const MetricsSnapshot& snap) {
    std::string out;
    char buf[160];
    for (std::size_t c = 0; c < kCounterCount; ++c) {
        const std::string n = promName(kCounterNames[c]);
        out += "# TYPE " + n + " counter\n";
        std::snprintf(buf, sizeof buf, "%s %" PRIu64 "\n", n.c_str(),
                      snap.counters[c]);
        out += buf;
    }
    for (std::size_t g = 0; g < kGaugeCount; ++g) {
        if (!snap.gaugeSet[g]) continue;
        const std::string n = promName(kGaugeNames[g]);
        out += "# TYPE " + n + " gauge\n";
        std::snprintf(buf, sizeof buf, "%s %.17g\n", n.c_str(), snap.gauges[g]);
        out += buf;
    }
    for (std::size_t h = 0; h < kHistogramCount; ++h) {
        if (snap.histCount(static_cast<Histogram>(h)) == 0) continue;
        const std::string n = promName(kHistogramNames[h]);
        out += "# TYPE " + n + " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
            cum += snap.hist[h][b];
            if (b < kHistogramBuckets - 1)
                std::snprintf(buf, sizeof buf, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                              n.c_str(), std::uint64_t{1} << b, cum);
            else
                std::snprintf(buf, sizeof buf, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n",
                              n.c_str(), cum);
            out += buf;
        }
        std::snprintf(buf, sizeof buf, "%s_sum %" PRIu64 "\n%s_count %" PRIu64 "\n",
                      n.c_str(), snap.histSumUs[h], n.c_str(), cum);
        out += buf;
    }
    return out;
}

void writeMetricsFile(const std::string& path) {
    if (const auto hit = MPCGS_FAILPOINT("obs.emit"); hit.fired()) {
        if (hit.action == failpoint::Action::Errno)
            throw IoError("metrics write " + path + ": " +
                          std::strerror(hit.errnum) + " (errno " +
                          std::to_string(hit.errnum) + ")");
        throw InjectedFaultError("obs.emit");
    }
    const std::string body = toJson(snapshot()) + "\n";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) throw IoError("metrics open " + path + ": " + std::strerror(errno));
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    if (std::fclose(f) != 0 || !ok)
        throw IoError("metrics write " + path + ": " + std::strerror(errno));
}

}  // namespace mpcgs::obs
