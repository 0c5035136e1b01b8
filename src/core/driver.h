// The mpcgs program flow (Fig 11): Expectation-Maximization over theta,
// generalized to a Dataset of L independent loci sharing theta.
//
//   read sequence data (L loci) -> seed RNG -> per-locus UPGMA initial
//   genealogies scaled by mu_l * theta0 -> repeat { burn-in in parallel;
//   sampling in parallel (each locus its own chain set); pooled MLE of
//   theta over sum_l log L_l; replace driving value } -> final estimate.
//
// Every E-step runs through the unified sampler runtime: estimateTheta
// builds one Sampler per locus (core/samplers.h) and drives them as the
// slots of one SamplerRun — streaming locus/chain-tagged samples into per-locus
// summary sinks and convergence monitors, optionally stopping early once
// EVERY locus meets the R-hat/ESS rule, and optionally snapshotting the
// full per-locus state (checkpoint v2) for bitwise-identical resume.
// A single alignment is the L = 1 special case and reproduces the
// pre-dataset pipeline bitwise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/genealogy_problem.h"
#include "core/locus_problem.h"
#include "core/mle.h"
#include "core/posterior.h"
#include "core/samplers.h"
#include "core/supervisor.h"
#include "par/thread_pool.h"
#include "seq/alignment.h"
#include "seq/dataset.h"
#include "util/options.h"

namespace mpcgs {

struct MpcgsOptions {
    double theta0 = 1.0;            ///< driving value (2nd CLI argument)
    std::size_t emIterations = 4;   ///< outer EM loop count (Fig 11's N)
    std::size_t samplesPerIteration = 4000;  ///< genealogy samples per E-step (M)
    std::size_t burnInFraction1000 = 100;    ///< burn-in as permille of samples

    Strategy strategy = Strategy::Gmh;

    // GMH geometry (Alg 1): N proposals per set, M index draws per set.
    // Algorithm 1 draws M = N samples per proposal set, which keeps the
    // posterior-evaluation count per sample at (N+1)/M ~ 1, matching the
    // serial MH baseline's work per sample.
    std::size_t gmhProposals = 32;
    std::size_t gmhSamplesPerSet = 32;

    // MultiChain geometry.
    std::size_t chains = 4;

    // HeatedMh geometry: temperature ladder (first entry must be 1.0).
    std::vector<double> temperatures{1.0, 1.3, 1.8, 3.0};

    std::uint64_t seed = 20160408;  ///< thesis defense date, why not
    bool compressPatterns = true;
    std::string substModel = "F81"; ///< inference model (Eq. 20)

    // Convergence-driven stopping (0 disables each criterion): end an
    // E-step before the sample cap once cross-chain R-hat of the
    // log-posterior falls below stopRhat AND pooled ESS reaches stopEss.
    double stopRhat = 0.0;          ///< e.g. 1.01
    double stopEss = 0.0;           ///< e.g. 400

    // Checkpoint/resume: with a non-empty path, snapshots are written
    // periodically during sampling and at every EM boundary; with resume,
    // estimateTheta continues from the snapshot at `checkpointPath` and
    // produces the bitwise-identical final estimate of an uninterrupted
    // run.
    std::string checkpointPath;
    std::size_t checkpointIntervalTicks = 0;  ///< ticks between snapshots (0 = auto)
    bool resume = false;

    /// Optional run supervision (core/supervisor.h): cooperative
    /// SIGTERM/SIGINT + wall-time stops polled at tick and EM boundaries
    /// (the run checkpoints and raises InterruptedError), and
    /// checkpoint-write retry with exponential backoff. Not owned.
    const RunSupervisor* supervisor = nullptr;
};

/// Throws ConfigError on nonsensical option combinations (non-positive
/// theta0, zero EM iterations or samples, empty temperature ladder or a
/// ladder not starting at 1.0, zero chains, zero GMH geometry, burn-in
/// permille above 1000, resume without a checkpoint path). Called by
/// estimateTheta and by the CLI right after parsing, so misconfiguration
/// fails loudly before any sampling starts.
void validateOptions(const MpcgsOptions& opts);

/// Hard-reject mode-specific CLI flags passed to a run mode they do not
/// apply to (e.g. --ess-threshold with --algo mcmc, --strategy with --algo
/// smc). `mode` is one of "mcmc" | "smc" | "pmmh" | "structured"
/// (--populations). Throws ConfigError naming the flag and the modes it
/// applies to — the tools map that onto exit code 2. A silently ignored
/// flag is worse than a loud rejection: the user believes it took effect.
void validateAlgoFlags(const Options& opts, const std::string& mode);

struct EmIterationRecord {
    double thetaBefore = 0.0;
    double thetaAfter = 0.0;
    double logLAtMax = 0.0;     ///< pooled log relative likelihood at the estimate
    double seconds = 0.0;       ///< wall time of the E-step (sampling)
    double moveRate = 0.0;      ///< GMH move rate / MH acceptance / MC^3 swap rate
    std::size_t samples = 0;    ///< samples summed over loci
    double rhat = 0.0;          ///< worst (largest) per-locus R-hat (0 = never checked)
    double ess = 0.0;           ///< smallest per-locus pooled ESS
    bool stoppedEarly = false;  ///< EVERY locus's stopping rule fired before the cap
};

/// Per-locus slice of the final E-step: enough to rebuild that locus's
/// relative-likelihood curve and, summed, the pooled curve the final
/// M-step maximized.
struct LocusFinal {
    std::string name;
    double mutationScale = 1.0;
    double drivingTheta = 0.0;  ///< mu_l * (final driving theta)
    std::vector<IntervalSummary> summaries;
};

struct MpcgsResult {
    double theta = 0.0;
    std::vector<EmIterationRecord> history;
    double totalSeconds = 0.0;
    double samplingSeconds = 0.0;  ///< E-step time only (speedup metric)

    /// Interval summaries of the final EM iteration's samples plus the
    /// driving value they were generated under — locus 0's slice, which
    /// for a single-locus run is the whole story (Fig 5 exports, support
    /// intervals). Multi-locus consumers use `loci`/finalPooledLikelihood.
    std::vector<IntervalSummary> finalSummaries;
    double finalDrivingTheta = 0.0;

    /// One entry per locus, in dataset order.
    std::vector<LocusFinal> loci;
};

/// The pooled relative-likelihood curve of the final EM iteration,
/// rebuilt from the per-locus result sections (support intervals, curve
/// exports). Works for any locus count.
PooledRelativeLikelihood finalPooledLikelihood(const MpcgsResult& result);

/// Full estimation pipeline over a multi-locus dataset: each locus runs
/// its own chain set, the M-step maximizes the pooled curve. `pool`
/// parallelizes whatever the run can use it for — the loci axis when
/// L > 1; GMH proposal fan-out, multi-chain rounds, MC^3 sweeps and
/// pattern blocks when L == 1 — plus the M-step curve evaluations.
/// nullptr (or a 1-thread pool) runs serially — the baseline
/// configuration of §6.2. Results are bitwise identical for any pool
/// width.
MpcgsResult estimateTheta(const Dataset& dataset, const MpcgsOptions& opts,
                          ThreadPool* pool = nullptr);

/// Single-alignment convenience wrapper: the L = 1 dataset case, bitwise
/// identical to the pre-dataset single-alignment pipeline.
MpcgsResult estimateTheta(const Alignment& aln, const MpcgsOptions& opts,
                          ThreadPool* pool = nullptr);

/// The initial genealogy of §5.1.3: UPGMA over raw pairwise differences,
/// scaled to the expected coalescent height under theta0.
Genealogy initialGenealogy(const Alignment& aln, double theta0);

}  // namespace mpcgs
