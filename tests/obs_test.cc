// The observability layer (src/obs/): registry no-op-when-unarmed and
// cross-thread counter folding, histogram bucket/quantile math (the +Inf
// bucket reports the max), the JSON and Prometheus emitters, the trace
// recorder's Chrome trace_event format, the SMC generation's and the GMH
// iteration's sub-phase spans and phase-time counters, the MH step's
// phase-time counters, obs.emit fault semantics — and the layer's
// central promise: arming metrics NEVER perturbs an estimate (bitwise
// logZ and theta-hat equality armed vs unarmed, and thread-count
// invariance with metrics on).
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "core/driver.h"
#include "lik/felsenstein.h"
#include "lik/lik_backend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "serve/json_mini.h"
#include "smc/smc_sampler.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace mpcgs {
namespace {

class ObsTest : public ::testing::Test {
  protected:
    void SetUp() override {
        obs::disarm();
        obs::reset();
        failpoint::reset();
    }
    void TearDown() override {
        obs::disarm();
        obs::reset();
        failpoint::reset();
    }

    static std::string tempPath(const std::string& name) {
        return ::testing::TempDir() + name;
    }
};

TEST_F(ObsTest, UnarmedRegistryRecordsNothing) {
    ASSERT_FALSE(obs::armed());
    obs::add(obs::Counter::PoolLaunches, 100);
    obs::set(obs::Gauge::SmcLogZ, -12.5);
    obs::observe(obs::Histogram::PoolLaunchLatencyUs, 42);
    const obs::MetricsSnapshot snap = obs::snapshot();
    EXPECT_EQ(snap.counter(obs::Counter::PoolLaunches), 0u);
    EXPECT_FALSE(snap.gaugeSet[static_cast<std::size_t>(obs::Gauge::SmcLogZ)]);
    EXPECT_EQ(snap.histCount(obs::Histogram::PoolLaunchLatencyUs), 0u);
}

TEST_F(ObsTest, ArmedCountersFoldAcrossThreadShards) {
    obs::arm();
    constexpr int kThreads = 6;
    constexpr std::uint64_t kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                obs::add(obs::Counter::LikCombineOps);
        });
    for (auto& t : threads) t.join();
    obs::add(obs::Counter::LikFlushes, 3);  // plus the main thread's shard
    const obs::MetricsSnapshot snap = obs::snapshot();
    EXPECT_EQ(snap.counter(obs::Counter::LikCombineOps), kThreads * kPerThread);
    EXPECT_EQ(snap.counter(obs::Counter::LikFlushes), 3u);
}

TEST_F(ObsTest, GaugesAreLastWriteWinsAndFlagged) {
    obs::arm();
    obs::set(obs::Gauge::McmcRhat, 1.5);
    obs::set(obs::Gauge::McmcRhat, 1.0071);
    obs::set(obs::Gauge::SmcLogZ, -321.25);
    const obs::MetricsSnapshot snap = obs::snapshot();
    EXPECT_TRUE(snap.gaugeSet[static_cast<std::size_t>(obs::Gauge::McmcRhat)]);
    EXPECT_EQ(snap.gauges[static_cast<std::size_t>(obs::Gauge::McmcRhat)], 1.0071);
    EXPECT_EQ(snap.gauges[static_cast<std::size_t>(obs::Gauge::SmcLogZ)], -321.25);
    EXPECT_FALSE(snap.gaugeSet[static_cast<std::size_t>(obs::Gauge::McmcPooledEss)]);
}

TEST_F(ObsTest, HistogramBucketsAndQuantilesFollowPowerOfTwoBounds) {
    obs::arm();
    const auto h = obs::Histogram::ServeEstimateUs;
    // 0 and 1 land in bucket 0 (le 1); 2 in bucket 1; 3,4 in bucket 2; a
    // huge value clamps into the +Inf bucket.
    obs::observe(h, 0);
    obs::observe(h, 1);
    obs::observe(h, 2);
    obs::observe(h, 3);
    obs::observe(h, 4);
    obs::observe(h, std::uint64_t{1} << 40);
    const obs::MetricsSnapshot snap = obs::snapshot();
    const std::size_t hi = static_cast<std::size_t>(h);
    EXPECT_EQ(snap.hist[hi][0], 2u);
    EXPECT_EQ(snap.hist[hi][1], 1u);
    EXPECT_EQ(snap.hist[hi][2], 2u);
    EXPECT_EQ(snap.hist[hi][obs::kHistogramBuckets - 1], 1u);
    EXPECT_EQ(snap.histCount(h), 6u);
    EXPECT_EQ(snap.histSumUs[hi], 10u + (std::uint64_t{1} << 40));

    // Quantiles report the le bound of the covering bucket: the 3rd of 6
    // observations sits in bucket 1 (le 2), the last in +Inf (which reports
    // the largest observation rather than inventing a bound).
    EXPECT_EQ(snap.histQuantileUs(h, 0.50), 2u);
    EXPECT_EQ(snap.histQuantileUs(h, 0.75), 4u);
    EXPECT_EQ(snap.histMaxUs[hi], std::uint64_t{1} << 40);
    EXPECT_EQ(snap.histQuantileUs(h, 1.00), snap.histMaxUs[hi]);
    EXPECT_EQ(snap.histQuantileUs(obs::Histogram::ServeLogzUs, 0.5), 0u);  // empty
}

TEST_F(ObsTest, QuantilesAboveTheTopBucketReportTheMaxNeverTheSum) {
    obs::arm();
    const auto h = obs::Histogram::PoolLaunchLatencyUs;
    const std::size_t hi = static_cast<std::size_t>(h);
    constexpr std::uint64_t kTop = std::uint64_t{1} << (obs::kHistogramBuckets - 2);
    // 100 fast observations, then two beyond the top finite bucket from
    // two threads (two shards): p99 lands in +Inf.
    for (int i = 0; i < 100; ++i) obs::observe(h, 10);
    std::thread a([&] { obs::observe(h, kTop + 5); });
    std::thread b([&] { obs::observe(h, 3 * kTop); });
    a.join();
    b.join();
    const obs::MetricsSnapshot snap = obs::snapshot();
    EXPECT_EQ(kTop, std::uint64_t{1} << 24);  // top finite bucket ~16.8 s
    EXPECT_EQ(snap.hist[hi][obs::kHistogramBuckets - 1], 2u);
    EXPECT_EQ(snap.histMaxUs[hi], 3 * kTop);  // folded across shards
    EXPECT_EQ(snap.histQuantileUs(h, 0.99), snap.histMaxUs[hi]);
    EXPECT_NE(snap.histQuantileUs(h, 0.99), snap.histSumUs[hi]);
    EXPECT_EQ(snap.histQuantileUs(h, 0.50), 16u);
    const auto obj = json_mini::parse(obs::toJson(snap));
    EXPECT_EQ(json_mini::getNumber(obj, "pool.launch_latency_us.p99"),
              static_cast<double>(3 * kTop));
    obs::reset();
    EXPECT_EQ(obs::snapshot().histMaxUs[hi], 0u);
}

TEST_F(ObsTest, ResetZeroesEverything) {
    obs::arm();
    obs::add(obs::Counter::SmcGenerations, 7);
    obs::set(obs::Gauge::SmcEssFraction, 0.5);
    obs::observe(obs::Histogram::ServeLogzUs, 9);
    obs::reset();
    const obs::MetricsSnapshot snap = obs::snapshot();
    EXPECT_EQ(snap.counter(obs::Counter::SmcGenerations), 0u);
    EXPECT_FALSE(snap.gaugeSet[static_cast<std::size_t>(obs::Gauge::SmcEssFraction)]);
    EXPECT_EQ(snap.histCount(obs::Histogram::ServeLogzUs), 0u);
    EXPECT_EQ(snap.droppedThreads, 0u);
}

TEST_F(ObsTest, JsonEmissionIsFlatAndParseable) {
    obs::arm();
    obs::add(obs::Counter::PoolLaunches, 11);
    obs::set(obs::Gauge::SmcLogZ, -42.5);
    obs::observe(obs::Histogram::PoolLaunchLatencyUs, 100);
    const std::string json = obs::toJson(obs::snapshot());
    // Single-level object: the protocol's own minimal parser accepts it.
    const auto obj = json_mini::parse(json);
    EXPECT_EQ(json_mini::getNumber(obj, "pool.launches"), 11.0);
    EXPECT_EQ(json_mini::getNumber(obj, "smc.logz"), -42.5);
    EXPECT_EQ(json_mini::getNumber(obj, "pool.launch_latency_us.count"), 1.0);
    EXPECT_EQ(json_mini::getNumber(obj, "pool.launch_latency_us.sum"), 100.0);
    EXPECT_EQ(json_mini::getNumber(obj, "pool.launch_latency_us.p50"), 128.0);
    // Unset gauges and empty histograms stay out of the object entirely.
    EXPECT_FALSE(json_mini::has(obj, "mcmc.rhat"));
    EXPECT_FALSE(json_mini::has(obj, "serve.checkpoint_write_us.count"));
    // Every counter appears even at zero — dashboards need stable keys.
    EXPECT_EQ(json_mini::getNumber(obj, "serve.jobs_rejected"), 0.0);
}

TEST_F(ObsTest, PrometheusExpositionMatchesTheTextFormat) {
    obs::arm();
    obs::add(obs::Counter::LikMatricesComputed, 5);
    obs::set(obs::Gauge::McmcRhat, 1.01);
    obs::observe(obs::Histogram::ServeSnapshotUs, 3);
    obs::observe(obs::Histogram::ServeSnapshotUs, 3000000);  // le 2^22 bucket
    const std::string text = obs::toPrometheus(obs::snapshot());
    EXPECT_NE(text.find("# TYPE mpcgs_lik_matrices_computed counter\n"
                        "mpcgs_lik_matrices_computed 5\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("# TYPE mpcgs_mcmc_rhat gauge"), std::string::npos);
    EXPECT_NE(text.find("# TYPE mpcgs_serve_job_latency_us_snapshot histogram"),
              std::string::npos);
    EXPECT_NE(text.find("mpcgs_serve_job_latency_us_snapshot_bucket{le=\"4\"} 1\n"),
              std::string::npos)
        << text;
    // Buckets are cumulative and the +Inf bucket equals _count.
    EXPECT_NE(text.find("mpcgs_serve_job_latency_us_snapshot_bucket{le=\"+Inf\"} 2\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("mpcgs_serve_job_latency_us_snapshot_count 2\n"), std::string::npos);
    EXPECT_NE(text.find("mpcgs_serve_job_latency_us_snapshot_sum 3000003\n"), std::string::npos);
}

TEST_F(ObsTest, MetricsFileRoundTripsThroughDisk) {
    obs::arm();
    obs::add(obs::Counter::SmcResamples, 4);
    const std::string path = tempPath("obs_metrics.json");
    obs::writeMetricsFile(path);
    std::ifstream in(path);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const auto obj = json_mini::parse(body);
    EXPECT_EQ(json_mini::getNumber(obj, "smc.resamples"), 4.0);
    std::remove(path.c_str());
}

TEST_F(ObsTest, EmitFaultsSurfaceAsTypedErrors) {
    // Injected errno: an operational I/O fault (exit taxonomy slot 6).
    failpoint::configure("obs.emit=once:errno=ENOSPC");
    try {
        obs::writeMetricsFile(tempPath("obs_fault.json"));
        FAIL() << "armed obs.emit did not surface";
    } catch (const IoError& e) {
        EXPECT_NE(std::string(e.what()).find("No space left"), std::string::npos);
    }
    // Default action: the generic injected-fault error.
    failpoint::configure("obs.emit=once");
    EXPECT_THROW(obs::writeMetricsFile(tempPath("obs_fault.json")),
                 InjectedFaultError);
    failpoint::reset();
    // A real unwritable path is the same IoError, no fail point needed.
    EXPECT_THROW(obs::writeMetricsFile("/nonexistent_dir_mpcgs/m.json"), IoError);
}

TEST_F(ObsTest, TraceRecorderEmitsChromeTraceEvents) {
    obs::TraceRecorder rec(8);
    rec.record("alpha", "pool", 10, 5);
    rec.record("beta", "smc", 20, 2);
    EXPECT_EQ(rec.eventCount(), 2u);
    EXPECT_EQ(rec.droppedEvents(), 0u);
    const std::string json = rec.toJson();
    EXPECT_EQ(json.find("{\"traceEvents\":["), 0u) << json;
    EXPECT_NE(json.find("{\"name\":\"alpha\",\"cat\":\"pool\",\"ph\":\"X\","
                        "\"ts\":10,\"dur\":5,\"pid\":1,"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

    const std::string path = tempPath("obs_trace.json");
    rec.writeFile(path);
    EXPECT_TRUE(std::ifstream(path).good());
    std::remove(path.c_str());
}

TEST_F(ObsTest, TraceRecorderDropsBeyondCapacityAndReportsIt) {
    obs::TraceRecorder rec(2);
    rec.record("a", "t", 0, 1);
    rec.record("b", "t", 1, 1);
    rec.record("c", "t", 2, 1);  // over capacity: dropped, not reallocated
    EXPECT_EQ(rec.eventCount(), 2u);
    EXPECT_EQ(rec.droppedEvents(), 1u);
    EXPECT_NE(rec.toJson().find("\"mpcgsDroppedEvents\":1"), std::string::npos);
}

TEST_F(ObsTest, TraceSpansRecordOnlyWhileArmed) {
    { const obs::TraceSpan unarmed("ghost", "test"); }  // no recorder: no-op
    obs::TraceRecorder rec(8);
    obs::armTrace(&rec);
    {
        const obs::TraceSpan outer("outer", "test");
        const obs::TraceSpan inner("inner", "test");
    }
    obs::armTrace(nullptr);
    { const obs::TraceSpan after("after", "test"); }  // disarmed again
    EXPECT_EQ(rec.eventCount(), 2u);
    const std::string json = rec.toJson();
    EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
    EXPECT_EQ(json.find("\"name\":\"ghost\""), std::string::npos);
    EXPECT_EQ(json.find("\"name\":\"after\""), std::string::npos);
}

namespace {

struct SpanEvent {
    std::string name;
    std::uint64_t ts = 0, dur = 0;
    unsigned tid = 0;
};

/// The complete events of TraceRecorder::toJson(), in order.
std::vector<SpanEvent> parseSpans(const std::string& json) {
    std::vector<SpanEvent> out;
    const std::string key = "{\"name\":\"";
    for (std::size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at + 1)) {
        const std::size_t nameBegin = at + key.size();
        SpanEvent e;
        e.name = json.substr(nameBegin, json.find('"', nameBegin) - nameBegin);
        const char* rest = json.c_str() + json.find("\"ts\":", nameBegin);
        EXPECT_EQ(std::sscanf(rest, "\"ts\":%" SCNu64 ",\"dur\":%" SCNu64
                                    ",\"pid\":1,\"tid\":%u",
                              &e.ts, &e.dur, &e.tid),
                  3);
        out.push_back(e);
    }
    return out;
}

}  // namespace

TEST_F(ObsTest, SmcGenerationsTraceTheirSubPhases) {
    Mt19937 rng(11);
    const Genealogy truth = simulateCoalescent(6, 1.0, rng);
    const auto gen = makeF84(2.0, kUniformFreqs);
    const Alignment aln = simulateSequences(truth, *gen, {120, 1.0}, rng);
    const F81Model model(kUniformFreqs);
    const DataLikelihood lik(aln, model);
    SmcOptions opts;
    opts.particles = 32;
    opts.essThreshold = 1.0;  // resample after every event but the last

    obs::TraceRecorder rec;
    obs::armTrace(&rec);
    const SmcPassResult res = runSmcPass(lik, 1.0, opts, 5);
    obs::armTrace(nullptr);
    ASSERT_EQ(res.resamples, 4u);

    const std::vector<SpanEvent> spans = parseSpans(rec.toJson());
    std::vector<const SpanEvent*> generations;
    for (const SpanEvent& e : spans)
        if (e.name == "smc_generation") generations.push_back(&e);
    ASSERT_EQ(generations.size(), 5u);
    std::size_t propose = 0, flush = 0, resample = 0;
    for (const SpanEvent& e : spans) {
        if (e.name != "smc_propose" && e.name != "smc_flush" && e.name != "smc_resample")
            continue;
        propose += e.name == "smc_propose";
        flush += e.name == "smc_flush";
        resample += e.name == "smc_resample";
        bool nested = false;
        for (const SpanEvent* g : generations)
            nested = nested || (g->tid == e.tid && g->ts <= e.ts &&
                                e.ts + e.dur <= g->ts + g->dur);
        EXPECT_TRUE(nested) << e.name << " at " << e.ts << " outside every smc_generation";
    }
    EXPECT_EQ(propose, 5u);
    EXPECT_EQ(flush, 5u);
    EXPECT_EQ(resample, res.resamples);
}

TEST_F(ObsTest, ArmedSmcPassesRecordTheirPhaseTimes) {
    Mt19937 rng(11);
    const Genealogy truth = simulateCoalescent(6, 1.0, rng);
    const auto gen = makeF84(2.0, kUniformFreqs);
    const Alignment aln = simulateSequences(truth, *gen, {120, 1.0}, rng);
    const F81Model model(kUniformFreqs);
    const DataLikelihood lik(aln, model);
    SmcOptions opts;
    opts.particles = 64;
    opts.essThreshold = 1.0;  // resample after every event but the last
    ThreadPool pool(2);

    obs::arm();
    const auto t0 = std::chrono::steady_clock::now();
    const SmcPassResult res = runSmcPass(lik, 1.0, opts, 5, &pool);
    const auto wallNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    const obs::MetricsSnapshot snap = obs::snapshot();
    ASSERT_EQ(res.resamples, 4u);

    const std::uint64_t propose = snap.counter(obs::Counter::SmcProposeNs);
    const std::uint64_t flush = snap.counter(obs::Counter::LikFlushNs);
    const std::uint64_t resample = snap.counter(obs::Counter::SmcResampleNs);
    EXPECT_GT(propose, 0u);
    EXPECT_GT(flush, 0u);
    EXPECT_GT(resample, 0u);
    // Disjoint phases of one pass on its calling thread.
    EXPECT_LE(propose + flush + resample, wallNs);
}

TEST_F(ObsTest, ArmedGmhEstimateRecordsItsPhases) {
    Mt19937 rng(13);
    const Genealogy truth = simulateCoalescent(8, 1.0, rng);
    const auto gen = makeF84(2.0, kUniformFreqs);
    const Alignment aln = simulateSequences(truth, *gen, {200, 1.0}, rng);
    MpcgsOptions o;
    o.theta0 = 0.5;
    o.emIterations = 2;
    o.samplesPerIteration = 160;
    o.gmhProposals = 8;
    o.gmhSamplesPerSet = 8;
    o.seed = 3;
    ThreadPool pool(2);

    const double unarmedTheta = estimateTheta(aln, o, &pool).theta;
    obs::TraceRecorder rec;
    obs::arm();
    obs::armTrace(&rec);
    const double armedTheta = estimateTheta(aln, o, &pool).theta;
    obs::armTrace(nullptr);
    const obs::MetricsSnapshot snap = obs::snapshot();
    EXPECT_EQ(std::memcmp(&unarmedTheta, &armedTheta, sizeof(double)), 0)
        << unarmedTheta << " vs " << armedTheta;

    // One gmh_region, gmh_fanout and gmh_draw span per GMH iteration, each
    // inside its EM iteration's span on the sampler's thread.
    const std::vector<SpanEvent> spans = parseSpans(rec.toJson());
    std::vector<const SpanEvent*> emIterations;
    for (const SpanEvent& e : spans)
        if (e.name == "em_iteration") emIterations.push_back(&e);
    ASSERT_EQ(emIterations.size(), 2u);
    std::size_t region = 0, fanout = 0, draw = 0;
    for (const SpanEvent& e : spans) {
        if (e.name != "gmh_region" && e.name != "gmh_fanout" && e.name != "gmh_draw") continue;
        region += e.name == "gmh_region";
        fanout += e.name == "gmh_fanout";
        draw += e.name == "gmh_draw";
        bool nested = false;
        for (const SpanEvent* it : emIterations)
            nested = nested || (it->tid == e.tid && it->ts <= e.ts &&
                                e.ts + e.dur <= it->ts + it->dur);
        EXPECT_TRUE(nested) << e.name << " at " << e.ts << " outside every em_iteration";
    }
    EXPECT_GT(region, 0u);
    EXPECT_EQ(fanout, region);
    EXPECT_EQ(draw, region);
    EXPECT_GT(snap.counter(obs::Counter::McmcProposeNs), 0u);
    EXPECT_GT(snap.counter(obs::Counter::McmcLikelihoodNs), 0u);
}

TEST_F(ObsTest, ArmedMhEstimateRecordsItsPhases) {
    // Serial MH times each step's proposal and its scoring, the arena's
    // evaluations included, and arming the counters moves no bit of the
    // estimate.
    Mt19937 rng(17);
    const Genealogy truth = simulateCoalescent(8, 1.0, rng);
    const auto gen = makeF84(2.0, kUniformFreqs);
    const Alignment aln = simulateSequences(truth, *gen, {200, 1.0}, rng);
    MpcgsOptions o;
    o.theta0 = 0.5;
    o.emIterations = 1;
    o.samplesPerIteration = 300;
    o.strategy = Strategy::SerialMh;
    o.seed = 5;
    ThreadPool pool(2);

    const double unarmedTheta = estimateTheta(aln, o, &pool).theta;
    obs::arm();
    const double armedTheta = estimateTheta(aln, o, &pool).theta;
    const obs::MetricsSnapshot snap = obs::snapshot();
    EXPECT_EQ(std::memcmp(&unarmedTheta, &armedTheta, sizeof(double)), 0)
        << unarmedTheta << " vs " << armedTheta;
    EXPECT_GT(snap.counter(obs::Counter::McmcProposeNs), 0u);
    EXPECT_GT(snap.counter(obs::Counter::McmcLikelihoodNs), 0u);
}

// --- the central guarantee: metrics never perturb an estimate ----------

namespace {

DataLikelihood makeLik(Alignment& store) {
    Mt19937 rng(307);
    const Genealogy truth = simulateCoalescent(14, 1.0, rng);
    const auto gen = makeF84(2.0, kUniformFreqs);
    store = simulateSequences(truth, *gen, {200, 1.0}, rng);
    static const F81Model model(kUniformFreqs);
    return DataLikelihood(store, model);
}

double runFilterLogZ(const DataLikelihood& lik, ThreadPool* pool) {
    SmcOptions opts;
    opts.particles = 64;
    opts.backend = LikBackendKind::Batched;
    const auto backend = makeLikelihoodBackend(opts.backend, lik);
    SmcFilter filter(*backend, 1.0, opts, 29, pool);
    while (!filter.done()) filter.step();
    return filter.logZ();
}

}  // namespace

TEST_F(ObsTest, ArmingMetricsKeepsSmcLogZBitwiseIdentical) {
    Alignment data;
    const DataLikelihood lik = makeLik(data);

    obs::disarm();
    const double unarmedLogZ = runFilterLogZ(lik, nullptr);

    obs::arm();
    const double armedLogZ = runFilterLogZ(lik, nullptr);
    const obs::MetricsSnapshot snap = obs::snapshot();
    // The armed run actually recorded (this test would be vacuous against
    // a registry that never turned on).
    EXPECT_GT(snap.counter(obs::Counter::SmcGenerations), 0u);
    EXPECT_GT(snap.counter(obs::Counter::LikMatricesComputed), 0u);

    // Bitwise, not approximate: instrumentation touches no RNG stream.
    EXPECT_EQ(std::memcmp(&unarmedLogZ, &armedLogZ, sizeof(double)), 0)
        << unarmedLogZ << " vs " << armedLogZ;
}

TEST_F(ObsTest, ArmedRunsStayThreadCountInvariant) {
    Alignment data;
    const DataLikelihood lik = makeLik(data);
    obs::arm();
    const double serialLogZ = runFilterLogZ(lik, nullptr);
    ThreadPool pool(4);
    const double pooledLogZ = runFilterLogZ(lik, &pool);
    EXPECT_EQ(std::memcmp(&serialLogZ, &pooledLogZ, sizeof(double)), 0)
        << serialLogZ << " vs " << pooledLogZ;
}

}  // namespace
}  // namespace mpcgs
