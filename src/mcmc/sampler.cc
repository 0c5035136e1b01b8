#include "mcmc/sampler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "coalescent/structured.h"
#include "core/numeric_guard.h"
#include "core/supervisor.h"
#include "mcmc/checkpoint.h"
#include "par/kernel.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/stats.h"

namespace mpcgs {
namespace {

/// Serial-section guardrail of SamplerRun: checks the newest
/// log-posterior of every chain in `monitor` after a tick. The
/// mcmc.logpost fail point (evaluated once per call — deterministic tick
/// counting) can poison chain 0's value or throw directly.
void guardTickLogPosts(const SamplerNumericGuard& guard, const Sampler& sampler,
                       const ConvergenceMonitor& monitor, std::uint64_t tick,
                       std::uint32_t locus) {
    if (!guard.enabled) return;
    const auto hit = MPCGS_FAILPOINT("mcmc.logpost");
    if (hit.fired() && hit.action != failpoint::Action::Nan)
        throw InjectedFaultError("mcmc.logpost");
    for (std::uint32_t c = 0; c < monitor.chainCount(); ++c) {
        const auto& trace = monitor.trace(c);
        if (trace.empty()) continue;
        double v = trace.back();
        if (c == 0 && hit.action == failpoint::Action::Nan)
            v = std::numeric_limits<double>::quiet_NaN();
        if (std::isfinite(v)) continue;
        NumericFaultContext ctx;
        ctx.where = "mcmc.logpost";
        ctx.value = v;
        ctx.theta = guard.theta;
        ctx.seed = guard.seed;
        ctx.tick = tick;
        ctx.chain = c;
        ctx.genealogy = genealogySummary(sampler.continuation());
        ctx.detail = "phase: " + guard.phase + "\nlocus: " + std::to_string(locus);
        raiseNumericFault(ctx);
    }
}

/// Calls f(section name, participant) for every snapshot section of the
/// slots, in snapshot order: the samplers, the sinks, the monitors.
template <class F>
void forEachSection(const std::vector<RunSlot>& slots, F&& f) {
    for (const RunSlot& s : slots) f("sampler" + s.suffix, *s.sampler);
    for (const RunSlot& s : slots)
        if (s.sink) f("sink" + s.suffix, *s.sink);
    for (const RunSlot& s : slots) f("monitor" + s.suffix, *s.monitor);
}

}  // namespace

void SampleSink::consume(const StructuredGenealogy& g, const SampleTag& tag) {
    consume(g.tree(), tag);
}

void ConvergenceMonitor::beginRun(std::uint32_t chains) {
    if (chains > traces_.size()) traces_.resize(chains);
}

void ConvergenceMonitor::consume(const Genealogy&, const SampleTag& tag) {
    traces_[tag.chain].push_back(tag.logPosterior);
}

std::size_t ConvergenceMonitor::minChainLength() const {
    std::size_t n = std::numeric_limits<std::size_t>::max();
    for (const auto& t : traces_) n = std::min(n, t.size());
    return traces_.empty() ? 0 : n;
}

std::size_t ConvergenceMonitor::totalSamples() const {
    std::size_t n = 0;
    for (const auto& t : traces_) n += t.size();
    return n;
}

double ConvergenceMonitor::rhat() const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    if (traces_.empty()) return kInf;
    if (traces_.size() == 1) {
        // Split-R-hat: compare the two halves of the (windowed) chain.
        const auto& t = traces_.front();
        const std::size_t n = std::min(t.size(), kDiagnosticWindow);
        const std::size_t half = n / 2;
        if (half < 2) return kInf;
        const auto tail = t.end() - static_cast<std::ptrdiff_t>(n);
        return gelmanRubin({std::vector<double>(tail, tail + static_cast<std::ptrdiff_t>(half)),
                            std::vector<double>(t.end() - static_cast<std::ptrdiff_t>(half),
                                                t.end())});
    }
    const std::size_t n = std::min(minChainLength(), kDiagnosticWindow);
    if (n < 2) return kInf;
    std::vector<std::vector<double>> windows;
    windows.reserve(traces_.size());
    for (const auto& t : traces_)
        windows.emplace_back(t.end() - static_cast<std::ptrdiff_t>(n), t.end());
    return gelmanRubin(windows);
}

double ConvergenceMonitor::pooledEss() const {
    double ess = 0.0;
    for (const auto& t : traces_) {
        if (t.size() < 2) continue;
        const std::size_t n = std::min(t.size(), kDiagnosticWindow);
        const std::span<const double> window(t.data() + (t.size() - n), n);
        const double windowEss = effectiveSampleSize(window);
        // tau estimated on the window, ESS = n_total / tau.
        ess += windowEss * (static_cast<double>(t.size()) / static_cast<double>(n));
    }
    return ess;
}

void ConvergenceMonitor::save(CheckpointWriter& w) const {
    w.u64(traces_.size());
    for (const auto& t : traces_) w.doubles(t);
}

void ConvergenceMonitor::load(CheckpointReader& r) {
    const std::uint64_t chains = r.u64();
    if (chains > r.remaining() / sizeof(std::uint64_t))  // every trace carries a length word
        throw CheckpointError("corrupt snapshot: implausible chain count");
    traces_.assign(chains, {});
    for (auto& t : traces_) t = r.doubles();
}

bool StoppingRule::satisfied(const ConvergenceMonitor& m, double* rhatOut,
                             double* essOut) const {
    if (!enabled()) return false;
    if (m.minChainLength() < minSamplesPerChain) return false;
    // Evaluate both diagnostics up front (when needed for a criterion or a
    // report slot), so callers always see the full picture even when the
    // first criterion already fails.
    double r = 0.0;
    double e = 0.0;
    if (rhatBelow > 0.0 || rhatOut) {
        r = m.rhat();
        if (rhatOut) *rhatOut = r;
    }
    if (essAtLeast > 0.0 || essOut) {
        e = m.pooledEss();
        if (essOut) *essOut = e;
    }
    if (rhatBelow > 0.0 && !(r < rhatBelow)) return false;
    if (essAtLeast > 0.0 && !(e >= essAtLeast)) return false;
    return true;
}

SamplerRun::SamplerRun(std::vector<RunSlot> slots, Config cfg)
    : slots_(std::move(slots)), cfg_(std::move(cfg)) {
    require(!slots_.empty(), "SamplerRun: no slots");
    for (const RunSlot& s : slots_)
        require(s.sampler && s.monitor, "SamplerRun: every slot needs a sampler and a monitor");
    sampleDone_.assign(slots_.size(), 0);
    stopped_.assign(slots_.size(), 0);
}

void SamplerRun::save(CheckpointWriter& w) const {
    w.u64(burnDone_);
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        w.u64(sampleDone_[s]);
        w.u32(stopped_[s]);
    }
    forEachSection(slots_, [&](const std::string& name, const auto& part) {
        w.beginSection(name);
        part.save(w);
    });
}

void SamplerRun::load(CheckpointReader& r) {
    try {
        burnDone_ = std::min<std::size_t>(r.u64(), cfg_.burnInTicks);
        for (std::size_t s = 0; s < slots_.size(); ++s) {
            sampleDone_[s] = std::min<std::uint64_t>(r.u64(), cfg_.sampleTicks);
            stopped_[s] = r.u32() != 0 ? 1 : 0;
        }
        forEachSection(slots_, [&](const std::string& name, auto& part) {
            r.enterSection(name);
            part.load(r);
        });
    } catch (const CheckpointError& e) {
        throw ResumeError(e.what());
    }
}

std::vector<SamplerRunReport> SamplerRun::execute() {
    const std::size_t n = slots_.size();

    // Per-slot sink pipelines: the slot's sink (if any) + convergence monitor.
    std::vector<FanoutSink> fanouts(n);
    for (std::size_t s = 0; s < n; ++s) {
        fanouts[s].add(slots_[s].sink);
        fanouts[s].add(slots_[s].monitor);
        fanouts[s].beginRun(slots_[s].sampler->chainCount());
    }

    const std::size_t ckptEvery =
        cfg_.checkpointInterval > 0
            ? cfg_.checkpointInterval
            : std::max<std::size_t>(1, (cfg_.burnInTicks + cfg_.sampleTicks) / 16);
    const std::size_t checkEvery = std::max<std::size_t>(1, cfg_.sampleTicks / 64);

    std::size_t sinceCkpt = 0;
    const auto maybeCheckpoint = [&](bool force) {
        if (!cfg_.checkpoint) return;
        if (!force && ++sinceCkpt < ckptEvery) return;
        sinceCkpt = 0;
        cfg_.checkpoint(*this);
    };
    // Cooperative stop: polled at every tick boundary, in the serial
    // section between rounds, so an interrupt always lands on a consistent
    // state; the forced final checkpoint makes `--resume` continue
    // bitwise-identically.
    const auto checkStop = [&](const char* where) {
        if (!cfg_.stopRequested || !cfg_.stopRequested()) return;
        maybeCheckpoint(true);
        throw InterruptedError(std::string("stop requested during ") + where +
                                   " — progress checkpointed at the tick boundary",
                               static_cast<bool>(cfg_.checkpoint));
    };

    while (burnDone_ < cfg_.burnInTicks) {
        checkStop("burn-in");
        launchChains(cfg_.pool, n, [&](std::size_t s) { slots_[s].sampler->tick(nullptr); });
        ++burnDone_;
        maybeCheckpoint(burnDone_ == cfg_.burnInTicks);
    }

    std::vector<SamplerRunReport> reports(n);
    for (std::size_t s = 0; s < n; ++s) {
        if (!stopped_[s]) continue;
        // Resumed from a snapshot taken after this slot's rule fired:
        // re-derive its diagnostics from the restored monitor, sample no
        // further.
        reports[s].stoppedEarly = true;
        cfg_.stopping.satisfied(*slots_[s].monitor, &reports[s].rhat, &reports[s].ess);
    }

    const auto slotActive = [&](std::size_t s) {
        return !stopped_[s] && sampleDone_[s] < cfg_.sampleTicks;
    };
    const auto anyActive = [&] {
        for (std::size_t s = 0; s < n; ++s)
            if (slotActive(s)) return true;
        return false;
    };

    while (anyActive()) {
        checkStop("sampling");
        launchChains(cfg_.pool, n, [&](std::size_t s) {
            if (!slotActive(s)) return;
            slots_[s].sampler->tick(&fanouts[s]);
            ++sampleDone_[s];
        });
        for (std::size_t s = 0; s < n; ++s)
            guardTickLogPosts(cfg_.numeric, *slots_[s].sampler, *slots_[s].monitor,
                              sampleDone_[s], static_cast<std::uint32_t>(s));
        // Serialized barrier section: per-slot stopping checks at each
        // slot's own cadence. A slot that satisfies its rule latches
        // stopped and freezes; the others keep sampling.
        bool fired = false;
        if (cfg_.stopping.enabled()) {
            for (std::size_t s = 0; s < n; ++s) {
                if (stopped_[s] || sampleDone_[s] % checkEvery != 0) continue;
                if (cfg_.stopping.satisfied(*slots_[s].monitor, &reports[s].rhat,
                                            &reports[s].ess)) {
                    reports[s].stoppedEarly = true;
                    stopped_[s] = 1;
                    fired = true;
                }
            }
        }
        // A stop that ends the phase leaves its snapshot to the forced one
        // below instead of writing the same state twice.
        if (fired && !anyActive()) break;
        maybeCheckpoint(false);
    }
    // Capped slots report the diagnostics at the cap (not at the last
    // periodic check), which also keeps a run resumed from an at-cap
    // snapshot consistent with its uninterrupted counterpart.
    if (cfg_.stopping.enabled())
        for (std::size_t s = 0; s < n; ++s)
            if (!reports[s].stoppedEarly)
                cfg_.stopping.satisfied(*slots_[s].monitor, &reports[s].rhat,
                                        &reports[s].ess);
    // Phase-end snapshot (forced), covering the final round and the case
    // where every slot was already complete on entry.
    maybeCheckpoint(true);

    for (std::size_t s = 0; s < n; ++s) {
        reports[s].samples = slots_[s].monitor->totalSamples();
        reports[s].ticks = sampleDone_[s];
    }
    return reports;
}

}  // namespace mpcgs
