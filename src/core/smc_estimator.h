// SMC-based inference drivers — the `--algo smc|pmmh` pipelines.
//
// estimateThetaSmc: the SMC marginal-likelihood curve theta -> log Zhat
// (per-locus particle clouds summed into a pooled logZ) maximized with the
// same Algorithm-2 machinery as the MCMC-EM path and bracketed by the same
// support-interval search, with the step and tolerance settings matched to
// a Monte Carlo curve — an independent inference paradigm whose point
// estimate cross-validates the MCMC answer (tests/statistical_qa_test.cc).
//
// runPmmh: particle-marginal MH over theta through the unified sampler
// runtime — PmmhSampler as the single slot of a SamplerRun, with parallel
// chains, streaming sinks, R-hat/ESS convergence stopping and periodic
// 'PSMC' (format v4) snapshots; kill + --resume continues bitwise-identically, and a resumed
// run may extend the sample horizon (the cap is deliberately outside the
// snapshot fingerprint).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/supervisor.h"
#include "core/support_interval.h"
#include "par/thread_pool.h"
#include "seq/dataset.h"
#include "smc/pmmh.h"
#include "smc/smc_sampler.h"

namespace mpcgs {

struct SmcEstimateOptions {
    double theta0 = 1.0;
    SmcOptions smc;
    std::uint64_t seed = 20160408;
    std::string substModel = "F81";
    int curvePoints = 0;  ///< export the logZ curve on [theta/20, theta*20]

    // Checkpoint/resume (format v5). The logZ curve is a deterministic
    // function of theta under common random numbers, so the snapshot is
    // simply the memo of evaluated (theta, logZ) pairs: on resume the
    // deterministic maximizer re-traverses the same theta sequence,
    // replays the memo bitwise, and goes live at the first unseen theta.
    std::string checkpointPath;
    std::size_t checkpointIntervalEvals = 0;  ///< evals between snapshots (0 = auto)
    bool resume = false;

    /// Optional run supervision (core/supervisor.h); same semantics as
    /// MpcgsOptions::supervisor. Not owned.
    const RunSupervisor* supervisor = nullptr;
};

struct SmcEstimateResult {
    double theta = 0.0;       ///< maximizer of the pooled logZ curve
    double logZAtMax = 0.0;   ///< pooled log marginal likelihood there
    SupportInterval support;  ///< 1.92-unit drop interval on the logZ curve
    std::vector<std::pair<double, double>> curve;  ///< when curvePoints > 0
    /// Distinct theta the curve was evaluated at, each one filter pass per
    /// locus; points replayed from a snapshot count.
    std::size_t passes = 0;
    double totalSeconds = 0.0;
};

/// Maximize the pooled SMC marginal likelihood over theta. `pool`
/// parallelizes the particle blocks of every pass; results are bitwise
/// identical for any pool width.
SmcEstimateResult estimateThetaSmc(const Dataset& dataset, const SmcEstimateOptions& opts,
                                   ThreadPool* pool = nullptr);

struct PmmhEstimateOptions {
    double theta0 = 1.0;
    PmmhOptions pmmh;
    std::size_t samples = 2000;           ///< theta draws summed over chains
    std::size_t burnInFraction1000 = 100; ///< burn-in as permille of the tick cap
    std::string substModel = "F81";
    double stopRhat = 0.0;
    double stopEss = 0.0;
    std::string checkpointPath;
    std::size_t checkpointIntervalTicks = 0;
    bool resume = false;

    /// Optional run supervision (core/supervisor.h); same semantics as
    /// MpcgsOptions::supervisor. Not owned.
    const RunSupervisor* supervisor = nullptr;
};

struct PmmhEstimateResult {
    double posteriorMean = 0.0;
    double posteriorSd = 0.0;
    double q025 = 0.0;   ///< central 95% credible interval bounds + median
    double median = 0.0;
    double q975 = 0.0;
    double acceptRate = 0.0;
    std::size_t samples = 0;
    double rhat = 0.0;
    double ess = 0.0;
    bool stoppedEarly = false;
    double totalSeconds = 0.0;
    std::vector<double> thetaChainMajor;  ///< pooled posterior draws, chain-major
};

/// Run PMMH over theta through the sampler runtime. `pool` runs the chain
/// axis, and a single chain's particle blocks; results are bitwise
/// identical for any pool width.
PmmhEstimateResult runPmmh(const Dataset& dataset, const PmmhEstimateOptions& opts,
                           ThreadPool* pool = nullptr);

}  // namespace mpcgs
