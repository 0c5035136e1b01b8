// Full estimation pipeline for the two-population structured coalescent
// (Fig 11 generalized): EM over (theta_1..theta_K, M_kl).
//
//   read alignment + per-sequence deme assignment -> seeded prior draw of
//   an initial labelled genealogy -> repeat { burn-in; sample labelled
//   genealogies with the migration-aware chains; profile M-step over the
//   structured relative likelihood; replace driving values } -> final
//   estimate + per-parameter support intervals.
//
// The E-step runs through the unified sampler runtime: one SamplerRun slot
// holding LockstepChains<StructuredMhProblem> (core/lockstep_chains.h) with
// a StructuredSummarySink + ConvergenceMonitor, so convergence-driven early
// stopping and checkpoint/resume (format v3) work exactly as in the
// single-population driver; results are bitwise invariant to the thread
// count and a mid-run kill + resume continues bitwise-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "coalescent/structured.h"
#include "core/structured_problem.h"
#include "core/supervisor.h"
#include "core/support_interval.h"
#include "par/thread_pool.h"
#include "seq/alignment.h"

namespace mpcgs {

struct StructuredOptions {
    MigrationModel init;            ///< driving start (thetas + migration rates)
    std::size_t emIterations = 4;
    std::size_t samplesPerIteration = 4000;  ///< labelled samples per E-step
    std::size_t burnInFraction1000 = 100;    ///< burn-in as permille of samples
    std::size_t chains = 4;                  ///< lockstep MH chains
    double pathRefreshProb = 0.25;  ///< labels-only move share of proposals
    std::uint64_t seed = 20160408;
    std::string substModel = "F81";

    // Convergence-driven stopping (0 disables each criterion).
    double stopRhat = 0.0;
    double stopEss = 0.0;

    // Checkpoint/resume (format v3); same semantics as MpcgsOptions.
    std::string checkpointPath;
    std::size_t checkpointIntervalTicks = 0;
    bool resume = false;

    /// Optional run supervision (core/supervisor.h); same semantics as
    /// MpcgsOptions::supervisor. Not owned.
    const RunSupervisor* supervisor = nullptr;
};

/// Throws ConfigError on nonsensical combinations (invalid migration
/// model, fewer than 2 demes, zero iterations/samples/chains, burn-in
/// permille above 1000, resume without a checkpoint path).
void validateStructuredOptions(const StructuredOptions& opts);

struct StructuredEmRecord {
    MigrationModel before;
    MigrationModel after;
    double logLAtMax = 0.0;
    double seconds = 0.0;
    double moveRate = 0.0;
    std::size_t samples = 0;
    double rhat = 0.0;
    double ess = 0.0;
    bool stoppedEarly = false;
};

struct StructuredResult {
    MigrationModel estimate;
    std::vector<StructuredEmRecord> history;
    double totalSeconds = 0.0;
    double samplingSeconds = 0.0;

    /// Final E-step summaries plus the driving model they were sampled
    /// under — enough to rebuild the relative-likelihood surface.
    std::vector<StructuredSummary> finalSummaries;
    MigrationModel finalDriving;

    /// Conditional support interval per flattened coordinate (see
    /// core/structured_problem.h for the coordinate order).
    std::vector<SupportInterval> support;
};

/// Estimate (theta_k, M_kl) from one alignment whose sequence i lives in
/// deme tipDemes[i]. `pool` parallelizes the chain rounds and the M-step
/// curve evaluations; results are bitwise identical for any pool width.
StructuredResult estimateStructured(const Alignment& aln, const std::vector<int>& tipDemes,
                                    const StructuredOptions& opts,
                                    ThreadPool* pool = nullptr);

}  // namespace mpcgs
