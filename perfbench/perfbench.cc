// perfbench — the workload process of the mpcgs end-to-end benchmark.
//
//   perfbench gen <workload> --dir DIR [--smoke]
//       Simulate the workload's inputs from the fixed data seed (a
//       coalescent tree, then F84 sequences, as in §6.1) and write them as
//       PHYLIP files.
//   perfbench run <workload> --seed N --dir DIR --seconds S --trace 0|1
//                 [--smoke]
//       Run one workload on DIR's inputs through the library's public
//       entry points with a pool of min(4, nproc) threads. Prints
//       "metric <name> <value> <unit>" lines, then one JSON summary line
//       (operations attempted, repeat and thread-invariance failures, the
//       outputs run.py checks, every metric).
//   perfbench peak <workload> --seed N --dir DIR [--smoke]
//       One operation of the workload in a process of its own, reporting
//       its peak RSS in the same format.
//
// Workloads:
//   gmh_em      estimateTheta with the GMH sampler (Alg. 1, M = N).
//   smc_theta   estimateThetaSmc: theta-hat plus the 1.92-unit interval.
//
// --trace 0 measures the end-to-end metrics with the benchmark's spans
// off. --trace 1 is the separate per-layer run: it arms the metrics
// registry and an obs::TraceRecorder, records spans around every public
// call it makes, runs the layer probes (with 1-thread reruns) and writes
// the spans at exit. perfbench/run.py builds this program, drives it and
// checks its outputs.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "coalescent/simulator.h"
#include "core/driver.h"
#include "core/smc_estimator.h"
#include "core/support_interval.h"
#include "lik/locus_likelihoods.h"
#include "lik/site_pattern.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "rng/mt19937.h"
#include "serve/json_mini.h"
#include "serve/serve.h"
#include "seq/dataset.h"
#include "seq/phylip.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "smc/online_update.h"
#include "smc/smc_sampler.h"
#include "util/build_info.h"
#include "util/error.h"
#include "util/options.h"

namespace {

using namespace mpcgs;
using Clock = std::chrono::steady_clock;

/// Generating theta of the simulated data, and every estimator's driving
/// value.
constexpr double kTheta = 1.0;
/// Inference model of every workload (the estimators' default).
const char* const kModel = "F81";
/// Set-ups timed per gmh_em / smc_theta run; the median is reported.
constexpr int kSetups = 41;
/// Operations before this many seconds of a run are checked but not timed:
/// on a 4-vCPU KVM host a fresh process's first gmh_em estimates ran up to
/// 30% slower than its later ones.
constexpr double kWarmUpSeconds = 3.0;
/// Seed of the SMC pass and of the warm state's streams (the library
/// default). --seed seeds only the GMH chain, whose draws leave the work
/// unchanged (every proposal set is evaluated in full): the SMC estimate's
/// pass count follows its pass seed (solve_s spread 46% over five seeds),
/// and the online update's refresh decisions follow the particle streams.
constexpr std::uint64_t kSeed = 20160408;
/// Seed of the simulated data, fixed for the same reason: over ten data
/// sets of one shape, smc_theta took 144 to 328 filter passes. This seed's
/// draw is typical of every workload's shape: each tree's total length lies
/// within 12% of its expectation theta * H_{n-1}.
constexpr std::uint32_t kDataSeed = 8;

double secondsSince(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool sameBits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double median(std::vector<double> v) {
    if (v.empty()) throw Error("perfbench: median of no samples");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// --- workload shapes -------------------------------------------------------

struct Shape {
    int tips = 0;               ///< sequences
    std::size_t length = 0;     ///< sites per sequence
    std::size_t emIterations = 0;  ///< gmh_em
    std::size_t samples = 0;       ///< gmh_em: samples per EM iteration
    std::size_t proposals = 0;     ///< gmh_em: N = M
    /// smc_theta's cloud, and the per-layer SMC pass and online probes of
    /// every workload.
    std::size_t particles = 0;
};

Shape shapeFor(const std::string& workload, bool smoke) {
    if (workload == "gmh_em")
        return smoke ? Shape{.tips = 8, .length = 200, .emIterations = 1, .samples = 512,
                             .proposals = 8, .particles = 16}
                     : Shape{.tips = 24, .length = 2000, .emIterations = 4, .samples = 4000,
                             .proposals = 32, .particles = 64};
    if (workload == "smc_theta")
        return smoke ? Shape{.tips = 6, .length = 100, .particles = 32}
                     : Shape{.tips = 10, .length = 400, .particles = 256};
    throw ConfigError("perfbench: unknown workload '" + workload + "' (gmh_em | smc_theta)");
}

// --- the benchmark's own spans ---------------------------------------------

/// A span around one of the benchmark's calls into the library. It records
/// only while the traced run has its obs::TraceRecorder armed; spans on one
/// thread nest by timestamp containment, which gives each its parent.
obs::TraceSpan span(const char* name) { return obs::TraceSpan(name, "perfbench"); }

/// Wall seconds of one call, inside a span named after it.
template <class F>
double timed(const char* name, F&& f) {
    const obs::TraceSpan s = span(name);
    const auto t0 = Clock::now();
    f();
    return secondsSince(t0);
}

// --- host contention ----------------------------------------------------------

/// Ticks of all CPUs from the first line of /proc/stat: the total, and the
/// part the hypervisor stole (zeros where the file is unreadable).
struct CpuTicks {
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
};

CpuTicks cpuTicks() {
    std::ifstream f("/proc/stat");
    std::string label;
    f >> label;
    CpuTicks t;
    std::uint64_t v = 0;
    for (int field = 0; field < 8 && (f >> v); ++field) {  // user .. steal
        t.total += v;
        if (field == 7) t.steal = v;
    }
    return t;
}

/// One timed operation: wall seconds, and the share of all CPU time the
/// hypervisor stole while it ran.
struct Sample {
    double seconds = 0.0;
    double steal = 0.0;
};

double stealShare(const CpuTicks& a, const CpuTicks& b) {
    return b.total > a.total
               ? static_cast<double>(b.steal - a.steal) / static_cast<double>(b.total - a.total)
               : 0.0;
}

template <class F>
Sample measured(const char* name, F&& f) {
    const CpuTicks a = cpuTicks();
    const double seconds = timed(name, std::forward<F>(f));
    return {seconds, stealShare(a, cpuTicks())};
}

/// Median wall time over the less contended half (at least 3) of a run's
/// operations. On a shared host other tenants steal CPU time in bursts of
/// about a second; a burst that slows a few operations then barely moves
/// the figure.
double quietMedian(std::vector<Sample> v) {
    std::stable_sort(v.begin(), v.end(),
                     [](const Sample& a, const Sample& b) { return a.steal < b.steal; });
    const std::size_t keep = std::min(v.size(), std::max<std::size_t>(3, (v.size() + 1) / 2));
    std::vector<double> seconds;
    for (std::size_t i = 0; i < keep; ++i) seconds.push_back(v[i].seconds);
    return median(seconds);
}

void printContention(const char* what, const std::vector<Sample>& v) {
    std::vector<double> steal;
    for (const Sample& s : v) steal.push_back(100.0 * s.steal);
    std::printf("samples %s %zu, steal %% median %.3g max %.3g\n", what, v.size(), median(steal),
                *std::max_element(steal.begin(), steal.end()));
}

// --- the report -------------------------------------------------------------

struct Report {
    std::vector<std::tuple<std::string, double, std::string>> metrics;
    std::vector<std::pair<std::string, std::string>> outputs;
    std::size_t attempted = 0;
    std::size_t repeatFailures = 0;      ///< operations that did not reproduce the first
    std::size_t invarianceFailures = 0;  ///< 1-thread probes that differ from the pool's

    /// A value derived from a registry counter that no longer exists is NaN:
    /// it prints as absent and stays out of the result.
    void metric(const std::string& name, double value, const std::string& unit) {
        if (std::isnan(value)) {
            std::printf("absent %s\n", name.c_str());
            return;
        }
        metrics.emplace_back(name, value, unit);
        std::printf("metric %s %s %s\n", name.c_str(), num(value).c_str(), unit.c_str());
    }
    void output(const std::string& key, double value) { outputs.emplace_back(key, num(value)); }
    /// Count one operation; `reproduced` is its bitwise repeat check.
    void operation(bool reproduced) {
        ++attempted;
        if (!reproduced) ++repeatFailures;
    }
    void invariance(const char* probe, bool equal) {
        std::printf("check thread_invariance %s %s\n", probe, equal ? "ok" : "FAILED");
        if (!equal) ++invarianceFailures;
    }

    void print() const {
        std::string s = "{\"attempted\":" + std::to_string(attempted) +
                        ",\"repeat_failures\":" + std::to_string(repeatFailures) +
                        ",\"invariance_failures\":" + std::to_string(invarianceFailures) +
                        ",\"outputs\":{";
        for (std::size_t i = 0; i < outputs.size(); ++i)
            s += (i ? "," : "") + json_mini::quote(outputs[i].first) + ":" + outputs[i].second;
        s += "},\"metrics\":{";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const auto& [name, value, unit] = metrics[i];
            s += (i ? "," : "") + json_mini::quote(name) + ":{\"value\":" + num(value) +
                 ",\"unit\":" + json_mini::quote(unit) + "}";
        }
        s += "}}";
        std::printf("%s\n", s.c_str());
    }
};

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Registry counters by name from the flat JSON export; a counter a later
/// version deletes reads as absent (NaN), not as 0.
class Registry {
  public:
    static Registry capture() {
        Registry r;
        for (const auto& [key, value] : json_mini::parse(obs::toJson(obs::snapshot())))
            if (value.kind == json_mini::Value::Kind::Number) r.values_[key] = value.num;
        return r;
    }
    double operator[](const std::string& name) const {
        const auto it = values_.find(name);
        return it == values_.end() ? std::nan("") : it->second;
    }

  private:
    std::map<std::string, double> values_;
};

/// num / den, 0 for a zero base, NaN (absent) when either is.
double ratio(double num, double den) { return den > 0 ? num / den : std::isnan(den) ? den : 0.0; }

// --- inputs -----------------------------------------------------------------

struct Paths {
    std::string dir;
    std::string data() const { return dir + "/data.phy"; }
    std::string probe() const { return dir + "/probe.mpck"; }
    std::string spans(const std::string& w) const { return dir + "/spans-" + w + ".json"; }
};

/// One draw from the fixed data seed: the genealogy, then every
/// substitution.
int cmdGen(const std::string& workload, const Paths& paths, bool smoke) {
    const Shape shape = shapeFor(workload, smoke);
    Mt19937 rng(kDataSeed);
    const Genealogy tree = simulateCoalescent(shape.tips, kTheta, rng);
    const Alignment aln =
        simulateSequences(tree, *makeF84(2.0, kUniformFreqs), {shape.length, 1.0}, rng);
    writePhylipFile(paths.data(), aln);
    std::printf("input %s: %d sequences x %zu bp, %zu patterns\n", workload.c_str(), shape.tips,
                shape.length, SitePatterns(aln).patternCount());
    return 0;
}

// --- per-operation calls ----------------------------------------------------

struct Loaded {
    Dataset dataset;
    std::unique_ptr<ThreadPool> pool;
};

/// One gmh_em / smc_theta set-up: read and validate the input file, build
/// the Dataset, start the pool.
double setUp(const Paths& paths, unsigned threads, Loaded& out) {
    out.pool.reset();  // the previous pool's teardown is not set-up work
    const obs::TraceSpan sp = span("set_up");
    const auto t0 = Clock::now();
    Dataset ds = [&] {
        const obs::TraceSpan s = span("Dataset::fromFiles");
        Dataset d = Dataset::fromFiles({paths.data()});
        d.validate();
        return d;
    }();
    auto pool = [&] {
        const obs::TraceSpan s = span("ThreadPool");
        return std::make_unique<ThreadPool>(threads);
    }();
    const double seconds = secondsSince(t0);
    out.dataset = std::move(ds);
    out.pool = std::move(pool);
    return seconds;
}

MpcgsOptions gmhOptions(const Shape& shape, std::uint64_t seed) {
    MpcgsOptions o;
    o.theta0 = kTheta;
    o.emIterations = shape.emIterations;
    o.samplesPerIteration = shape.samples;
    o.strategy = Strategy::Gmh;
    o.gmhProposals = shape.proposals;
    o.gmhSamplesPerSet = shape.proposals;  // Alg. 1: M = N
    o.seed = seed;
    return o;
}

struct Estimate {
    double theta = 0.0;
    double lower = 0.0;
    double upper = 0.0;
    double logL = 0.0;
    double seconds = 0.0;  ///< wall time of the estimator call alone

    bool operator==(const Estimate& o) const {
        return sameBits(theta, o.theta) && sameBits(lower, o.lower) &&
               sameBits(upper, o.upper) && sameBits(logL, o.logL);
    }
};

Estimate gmhEstimate(const Dataset& ds, const MpcgsOptions& o, ThreadPool* pool,
                     MpcgsResult* full = nullptr) {
    Estimate e;
    MpcgsResult res;
    e.seconds = timed("estimateTheta", [&] { res = estimateTheta(ds, o, pool); });
    const obs::TraceSpan sp = span("supportInterval");
    const SupportInterval si = supportInterval(finalPooledLikelihood(res), res.theta, 1.92,
                                               1e4, pool);
    e.theta = res.theta;
    e.lower = si.lower;
    e.upper = si.upper;
    e.logL = si.logLAtMle;
    if (full) *full = std::move(res);
    return e;
}

SmcOptions smcOptions(std::size_t particles) {
    SmcOptions o;
    o.particles = particles;
    o.scheme = ResamplingScheme::Systematic;
    o.essThreshold = 0.5;
    return o;
}

Estimate smcEstimate(const Dataset& ds, const Shape& shape, ThreadPool* pool) {
    SmcEstimateOptions o;
    o.theta0 = kTheta;
    o.smc = smcOptions(shape.particles);
    o.seed = kSeed;
    SmcEstimateResult res;
    Estimate e;
    e.seconds = timed("estimateThetaSmc", [&] { res = estimateThetaSmc(ds, o, pool); });
    e.theta = res.theta;
    e.lower = res.support.lower;
    e.upper = res.support.upper;
    e.logL = res.logZAtMax;
    return e;
}

void outputEstimate(Report& rep, const Estimate& e) {
    rep.output("theta", e.theta);
    rep.output("lower", e.lower);
    rep.output("upper", e.upper);
    rep.output("log_l", e.logL);
}

// --- untraced runs: end-to-end metrics --------------------------------------

struct RunConfig {
    std::string workload;
    Shape shape;
    Paths paths;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    unsigned threads = 1;
};

/// Warm up with `warm` until kWarmUpSeconds have passed since `start` (the
/// caller's first, reference operation began), then repeat `op` until the
/// run's time is spent, at least `minReps` times.
template <class W, class F>
void repeatFor(Clock::time_point start, double seconds, std::size_t minReps, W&& warm, F&& op) {
    while (secondsSince(start) < kWarmUpSeconds) warm();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < minReps || secondsSince(t0) < seconds; ++i) op();
}

std::vector<double> timedSetUps(const RunConfig& cfg, Loaded& loaded) {
    std::vector<double> s;
    for (int i = 0; i < kSetups; ++i) s.push_back(setUp(cfg.paths, cfg.threads, loaded));
    return s;
}

void runGmh(const RunConfig& cfg, Report& rep) {
    Loaded loaded;
    const std::vector<double> setups = timedSetUps(cfg, loaded);
    const MpcgsOptions o = gmhOptions(cfg.shape, cfg.seed);
    const auto start = Clock::now();
    const Estimate first = gmhEstimate(loaded.dataset, o, loaded.pool.get());
    rep.operation(true);
    std::vector<Sample> solves, esteps;
    const auto warm = [&] {
        rep.operation(gmhEstimate(loaded.dataset, o, loaded.pool.get()) == first);
    };
    repeatFor(start, cfg.seconds, 3, warm, [&] {
        MpcgsResult res;
        Estimate e;
        const Sample s = measured("estimate", [&] {
            e = gmhEstimate(loaded.dataset, o, loaded.pool.get(), &res);
        });
        rep.operation(e == first);
        solves.push_back({e.seconds, s.steal});
        esteps.push_back({res.samplingSeconds / static_cast<double>(res.history.size()), s.steal});
    });
    outputEstimate(rep, first);
    rep.metric("setup_s", median(setups), "s");
    rep.metric("solve_s", quietMedian(solves), "s");
    rep.metric("update_p50_ms", 1e3 * quietMedian(esteps), "ms");
    printContention("estimates", solves);
}

void runSmc(const RunConfig& cfg, Report& rep) {
    Loaded loaded;
    const std::vector<double> setups = timedSetUps(cfg, loaded);
    // The first estimate also counts the estimator's filter passes.
    const auto start = Clock::now();
    obs::arm();
    obs::reset();
    const Estimate first = smcEstimate(loaded.dataset, cfg.shape, loaded.pool.get());
    std::printf("info filter passes per estimate %g\n",
                Registry::capture()["smc.generations"] / (cfg.shape.tips - 1));
    obs::disarm();
    rep.operation(true);
    // The estimator's update step: one filter pass at theta-hat, a few
    // after every estimate so the passes spread over the run.
    const LocusLikelihoods liks(loaded.dataset, kModel);
    const SmcOptions so = smcOptions(cfg.shape.particles);
    const auto pass = [&] {
        return runSmcPass(liks.at(0), first.theta, so, kSeed, loaded.pool.get()).logZ;
    };
    const double firstLogZ = pass();
    rep.operation(true);
    std::vector<Sample> solves, passes;
    const auto warm = [&] {
        rep.operation(smcEstimate(loaded.dataset, cfg.shape, loaded.pool.get()) == first);
    };
    repeatFor(start, cfg.seconds, 3, warm, [&] {
        Estimate e;
        const Sample s = measured("estimate", [&] {
            e = smcEstimate(loaded.dataset, cfg.shape, loaded.pool.get());
        });
        rep.operation(e == first);
        solves.push_back({e.seconds, s.steal});
        for (int i = 0; i < 16; ++i) {
            double logZ = 0.0;
            passes.push_back(measured("runSmcPass", [&] { logZ = pass(); }));
            rep.operation(sameBits(logZ, firstLogZ));
        }
    });
    outputEstimate(rep, first);
    rep.output("pass_log_z", firstLogZ);
    rep.metric("setup_s", median(setups), "s");
    rep.metric("solve_s", quietMedian(solves), "s");
    rep.metric("update_p50_ms", 1e3 * quietMedian(passes), "ms");
    printContention("estimates", solves);
    printContention("filter passes", passes);
}

// --- traced run: per-layer metrics ------------------------------------------

/// Repeat `f` at least `minReps` times and for at least `minSeconds`;
/// returns each call's wall seconds.
template <class F>
std::vector<double> sample(const char* name, int minReps, double minSeconds, F&& f) {
    std::vector<double> s;
    const auto t0 = Clock::now();
    while (static_cast<int>(s.size()) < minReps || secondsSince(t0) < minSeconds)
        s.push_back(timed(name, f));
    return s;
}

std::string addSequenceJob(const Sequence& s) {
    json_mini::Writer w;
    w.str("job", "add_sequence").str("name", s.name()).str("sequence", s.toString());
    return w.finish();
}

struct LayerProbes {
    double evalUs = 0.0;
    double passMs = 0.0;
    double passSerialS = 0.0;  ///< 1-thread rerun of the pass
    double updateMs = 0.0;
    double updateSerialS = 0.0;
    double checkpointMs = 0.0;
    double checkpointKb = 0.0;
    double readUs = 0.0;
    double serveOverheadMs = 0.0;  ///< add_sequence job - update - checkpoint
};

/// The layer probes every traced run makes on its own workload's inputs:
/// lik (one serial likelihood on the UPGMA start tree), smc (one filter
/// pass; one online addSequence on a warm state) and serve (the same
/// update as a job, checkpoint writes, reads). The SMC pass and the online
/// update are rerun on a 1-thread pool and must agree bitwise.
LayerProbes probeLayers(const RunConfig& cfg, const Alignment& aln, double passTheta,
                        OnlineState warm, const Sequence& added, ThreadPool& pool,
                        Report& rep) {
    LayerProbes p;
    ThreadPool serial(1);
    const LocusLikelihoods liks(Dataset::single(aln), kModel);
    const DataLikelihood& lik = liks.at(0);

    const Genealogy start = initialGenealogy(aln, kTheta);
    double sink = 0.0;
    p.evalUs = 1e6 * median(sample("DataLikelihood::logLikelihood", 9, 0.2,
                                   [&] { sink += lik.logLikelihood(start); }));

    const SmcOptions so = smcOptions(cfg.shape.particles);
    double poolLogZ = 0.0, serialLogZ = 0.0;
    const auto pass = [&](ThreadPool& on, double& logZ) {
        logZ = runSmcPass(lik, passTheta, so, kSeed, &on).logZ;
    };
    timed("runSmcPass", [&] { pass(pool, poolLogZ); });  // warm-up
    p.passMs = 1e3 * median(sample("runSmcPass", 5, 0.5, [&] { pass(pool, poolLogZ); }));
    p.passSerialS = timed("runSmcPass.serial", [&] { pass(serial, serialLogZ); });
    rep.invariance("runSmcPass", sameBits(poolLogZ, serialLogZ));

    // The online update alone, and the same update as a serve job on a fresh
    // session, in pairs so that the job's overhead is a paired difference.
    const OnlineOptions oo;
    const std::string ckpt = cfg.paths.probe();
    const std::string job = addSequenceJob(added);
    OnlineState updated;
    std::vector<double> updates, overheads;
    for (int i = 0; i < 5; ++i) {
        updated = warm;
        const double update = timed("OnlineSmcUpdater::addSequence", [&] {
            OnlineSmcUpdater(updated, oo, &pool).addSequence(added);
        });
        ServeSession session = [&] {
            const obs::TraceSpan s = span("ServeSession");
            return ServeSession(warm, ckpt, oo, &pool);
        }();
        const double served =
            timed("handleLine.add_sequence", [&] { session.handleLine(job); });
        updates.push_back(update);
        overheads.push_back(served - update);
    }
    p.updateMs = 1e3 * median(updates);
    OnlineState serialUpdated = warm;
    p.updateSerialS = timed("OnlineSmcUpdater::addSequence.serial", [&] {
        OnlineSmcUpdater(serialUpdated, oo, &serial).addSequence(added);
    });
    rep.invariance("addSequence", sameBits(updated.logZ, serialUpdated.logZ));

    p.checkpointMs = 1e3 * median(sample("saveOnlineState", 9, 0.2,
                                         [&] { saveOnlineState(ckpt, updated); }));
    p.checkpointKb = static_cast<double>(std::filesystem::file_size(ckpt)) / 1024.0;
    p.serveOverheadMs = 1e3 * median(overheads) - p.checkpointMs;

    ServeSession session(updated, ckpt, oo, &pool);
    std::vector<double> reads;
    for (int k = 0; k < 50; ++k)
        for (const char* read : {"{\"job\":\"estimate\"}", "{\"job\":\"logz\"}"})
            reads.push_back(timed("handleLine.read", [&] { session.handleLine(read); }));
    p.readUs = 1e6 * median(reads);
    if (!std::isfinite(sink)) throw NumericError("perfbench: non-finite likelihood probe");
    return p;
}

/// Counts of one traced operation, by registry name.
void reportCounts(Report& rep, const Registry& op, int tips) {
    const auto count = [&](const char* metric, const char* counter) {
        rep.metric(metric, op[counter], "count");
    };
    count("lik.flushes", "lik.flushes");
    count("lik.combine_ops", "lik.combine_ops");
    count("lik.matrices_computed", "lik.matrices_computed");
    rep.metric("lik.matrix_dedup",
               ratio(op["lik.matrices_computed"], op["lik.matrices_requested"]), "ratio");
    count("smc.generations", "smc.generations");
    rep.metric("smc.resample_rate", ratio(op["smc.resamples"], op["smc.generations"]),
               "ratio");
    rep.metric("core.smc_passes", op["smc.generations"] / (tips - 1), "count");
    count("smc.online_refreshes", "smc.online_refreshes");
    count("smc.rejuvenation_accepts", "smc.rejuvenation_accepts");
    count("par.launches", "pool.launches");
    count("par.parks", "pool.parks");
    count("par.wakes", "pool.wakes");
    count("par.steals", "pool.chunks_stolen");
}

/// The traced operation of each workload, run untraced and traced twice
/// each (alternating) after a warm-up; the first traced one's registry
/// delta gives the counts.
struct TracedOps {
    std::vector<double> plain, traced;
    Registry counts;
};

template <class Op>
TracedOps traceOps(obs::TraceRecorder& recorder, Op&& op) {
    TracedOps t;
    for (int i = 0; i < 2; ++i) {
        obs::armTrace(nullptr);
        obs::disarm();
        t.plain.push_back(op());
        obs::armTrace(&recorder);
        obs::arm();
        if (i == 0) obs::reset();
        t.traced.push_back(op());
        if (i == 0) t.counts = Registry::capture();
    }
    return t;
}

void reportCommon(Report& rep, const LayerProbes& p, const TracedOps& ops, double mcmcSteps,
                  double mcmcAccepted, const MpcgsResult& gmh, unsigned threads,
                  double efficiency, int tips) {
    reportCounts(rep, ops.counts, tips);
    const double estep = gmh.samplingSeconds;
    std::size_t samples = 0;
    for (const EmIterationRecord& it : gmh.history) samples += it.samples;
    const double opMs = 1e3 * median(ops.plain);
    rep.metric("core.mstep_ms",
               1e3 * (gmh.totalSeconds - gmh.samplingSeconds) /
                   static_cast<double>(gmh.history.size()),
               "ms");
    rep.metric("mcmc.estep_s", estep, "s");
    rep.metric("mcmc.samples_per_s", static_cast<double>(samples) / estep, "1/s");
    rep.metric("mcmc.steps", mcmcSteps, "count");
    rep.metric("mcmc.move_rate", ratio(mcmcAccepted, mcmcSteps), "ratio");
    rep.metric("lik.eval_us", p.evalUs, "us");
    rep.metric("lik.share", mcmcSteps * p.evalUs * 1e-6 / (threads * estep), "ratio");
    rep.metric("smc.pass_ms", p.passMs, "ms");
    rep.metric("smc.pass_share", ops.counts["smc.generations"] / (tips - 1) * p.passMs / opMs,
               "ratio");
    rep.metric("smc.update_ms", p.updateMs, "ms");
    rep.metric("serve.checkpoint_ms", p.checkpointMs, "ms");
    rep.metric("serve.checkpoint_kb", p.checkpointKb, "KB");
    rep.metric("serve.read_us", p.readUs, "us");
    rep.metric("serve.overhead_ms", p.serveOverheadMs, "ms");
    rep.metric("par.efficiency", efficiency, "ratio");
    rep.metric("obs.traced_overhead", median(ops.traced) / median(ops.plain) - 1.0, "ratio");
}

/// Hold the alignment's last sequence out and bootstrap a warm online
/// state over the rest: the state the online probe adds it to.
std::pair<OnlineState, Sequence> probeState(const RunConfig& cfg, const Alignment& aln,
                                            ThreadPool& pool) {
    const auto& seqs = aln.sequences();
    const Alignment base({seqs.begin(), seqs.end() - 1});
    const obs::TraceSpan s = span("initOnlineState");
    return {initOnlineState(base, kTheta, smcOptions(cfg.shape.particles), kModel,
                            kSeed, &pool),
            seqs.back()};
}

/// GMH layer numbers for workloads that do not run GMH themselves: one
/// small estimate on the workload's data, its registry delta alone.
std::tuple<MpcgsResult, double, double> gmhProbe(const Dataset& ds, std::uint64_t seed,
                                                 ThreadPool& pool) {
    Shape small{.emIterations = 1, .samples = 2048, .proposals = 32};
    obs::reset();
    MpcgsResult res;
    gmhEstimate(ds, gmhOptions(small, seed), &pool, &res);
    const Registry r = Registry::capture();
    return {std::move(res), r["mcmc.steps"], r["mcmc.accepted"]};
}

void tracedRun(const RunConfig& cfg, Report& rep) {
    static obs::TraceRecorder recorder;  // outlives every span of the run
    obs::armTrace(&recorder);
    obs::arm();
    const int tips = cfg.shape.tips;
    Loaded loaded;
    setUp(cfg.paths, cfg.threads, loaded);
    ThreadPool& pool = *loaded.pool;
    const Dataset& ds = loaded.dataset;
    const Alignment& aln = ds.locus(0).alignment;
    const bool gmhWorkload = cfg.workload == "gmh_em";
    const MpcgsOptions go = gmhOptions(cfg.shape, cfg.seed);
    const auto estimate = [&](MpcgsResult* full) {
        return gmhWorkload ? gmhEstimate(ds, go, &pool, full)
                           : smcEstimate(ds, cfg.shape, &pool);
    };
    const Estimate first = estimate(nullptr);
    rep.operation(true);
    MpcgsResult tracedGmh;
    bool haveTraced = false;
    const TracedOps ops = traceOps(recorder, [&] {
        MpcgsResult res;
        const Estimate e = estimate(&res);
        rep.operation(e == first);
        if (obs::activeTrace() && !haveTraced) {
            tracedGmh = std::move(res);
            haveTraced = true;
        }
        return e.seconds;
    });
    auto [warm, added] = probeState(cfg, aln, pool);
    const LayerProbes p = probeLayers(cfg, aln, first.theta, std::move(warm), added, pool, rep);
    double efficiency = 0.0;
    outputEstimate(rep, first);
    if (gmhWorkload) {
        // One GMH EM iteration at pool width and on one thread.
        MpcgsOptions one = go;
        one.emIterations = 1;
        ThreadPool serial(1);
        const Estimate wide = gmhEstimate(ds, one, &pool);
        const Estimate narrow = gmhEstimate(ds, one, &serial);
        rep.invariance("estimateTheta (1 EM iteration)", wide == narrow);
        efficiency = narrow.seconds / (cfg.threads * wide.seconds);
        reportCommon(rep, p, ops, ops.counts["mcmc.steps"], ops.counts["mcmc.accepted"],
                     tracedGmh, cfg.threads, efficiency, tips);
    } else {
        efficiency = p.passSerialS / (cfg.threads * 1e-3 * p.passMs);
        const auto [gmh, steps, accepted] = gmhProbe(ds, cfg.seed, pool);
        reportCommon(rep, p, ops, steps, accepted, gmh, cfg.threads, efficiency, tips);
    }
    obs::armTrace(nullptr);
    recorder.writeFile(cfg.paths.spans(cfg.workload));
}

/// Peak RSS of one operation in a process of its own, with glibc's mmap
/// threshold pinned at its initial 128 KiB: every large block is then
/// mapped on allocation and unmapped on free, so the peak follows the live
/// data. Under glibc's default, dynamic threshold it followed the order in
/// which threads freed large blocks (smc_theta 79-102 MB over four runs).
/// The timed runs keep the default: with the pin, each SMC pass mapped and
/// faulted in its slot arena anew, and smc_theta's solve_s rose by half.
int cmdPeak(const RunConfig& cfg) {
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    Report rep;
    Loaded loaded;
    setUp(cfg.paths, cfg.threads, loaded);
    if (cfg.workload == "gmh_em")
        gmhEstimate(loaded.dataset, gmhOptions(cfg.shape, cfg.seed), loaded.pool.get());
    else
        smcEstimate(loaded.dataset, cfg.shape, loaded.pool.get());
    rep.operation(true);
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    rep.print();
    return 0;
}

int cmdRun(const RunConfig& cfg, bool traced) {
    std::printf("host threads %u simd_doubles %d build_type %s\n", cfg.threads,
                simdWidthDoubles(), buildType());
    Report rep;
    if (traced) {
        tracedRun(cfg, rep);
    } else if (cfg.workload == "gmh_em") {
        runGmh(cfg, rep);
    } else {
        runSmc(cfg, rep);
    }
    // The allocator's state beside the numbers: under glibc's default
    // threshold, large blocks come from the heap or from fresh mappings.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("info timed process: peak rss %.1f MB, minor faults %ld\n",
                static_cast<double>(ru.ru_maxrss) / 1024.0, ru.ru_minflt);
    rep.print();
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const Options opts = Options::parse(argc, argv);
        const auto& pos = opts.positional();
        if (pos.size() != 2 || (pos[0] != "gen" && pos[0] != "run" && pos[0] != "peak")) {
            std::fprintf(stderr,
                         "usage: perfbench gen <workload> --dir DIR [--smoke]\n"
                         "       perfbench run <workload> --seed N --dir DIR --seconds S "
                         "--trace 0|1 [--smoke]\n"
                         "       perfbench peak <workload> --seed N --dir DIR [--smoke]\n");
            return 2;
        }
        RunConfig cfg;
        cfg.workload = pos[1];
        const bool smoke = opts.getBool("smoke", false);
        cfg.shape = shapeFor(cfg.workload, smoke);
        cfg.paths = {opts.get("dir", ".")};
        if (pos[0] == "gen") return cmdGen(cfg.workload, cfg.paths, smoke);
        cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed", 1));
        cfg.seconds = opts.getDouble("seconds", 10.0);
        cfg.threads = std::min(4u, hardwareThreads());
        if (pos[0] == "peak") return cmdPeak(cfg);
        return cmdRun(cfg, opts.getInt("trace", 0) != 0);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
