#include "core/growth_estimator.h"

#include <cmath>

#include "core/driver.h"
#include "core/locus_problem.h"
#include "core/mle.h"
#include "lik/locus_likelihoods.h"
#include "mcmc/gmh.h"
#include "par/kernel.h"
#include "util/error.h"
#include "util/timer.h"

namespace mpcgs {

GrowthRelativeLikelihood::GrowthRelativeLikelihood(
    std::vector<std::vector<CoalInterval>> samples, GrowthParams driving)
    : samples_(std::move(samples)), driving_(driving) {
    require(!samples_.empty(), "GrowthRelativeLikelihood: no samples");
    logPriorAtDriving_.reserve(samples_.size());
    for (const auto& ivs : samples_)
        logPriorAtDriving_.push_back(
            logGrowthCoalescentPrior(std::span<const CoalInterval>(ivs), driving_));
}

double GrowthRelativeLikelihood::logL(const GrowthParams& p, ThreadPool* pool) const {
    require(p.theta > 0.0, "GrowthRelativeLikelihood: theta must be positive");
    std::vector<double> terms(samples_.size());
    forEachIndex(pool, samples_.size(), [&](std::size_t i) {
        terms[i] = logGrowthCoalescentPrior(std::span<const CoalInterval>(samples_[i]), p) -
                   logPriorAtDriving_[i];
    });
    return blockReduceLogSumExp(pool, terms, 256) -
           std::log(static_cast<double>(samples_.size()));
}

PooledGrowthRelativeLikelihood::PooledGrowthRelativeLikelihood(std::vector<LocusTerm> loci)
    : loci_(std::move(loci)) {
    require(!loci_.empty(), "PooledGrowthRelativeLikelihood: no loci");
    for (const LocusTerm& t : loci_)
        require(t.mutationScale > 0.0,
                "PooledGrowthRelativeLikelihood: mutation scale must be positive");
}

double PooledGrowthRelativeLikelihood::logL(const GrowthParams& p, ThreadPool* pool) const {
    double sum = 0.0;
    for (const LocusTerm& t : loci_)
        sum += t.rl.logL(GrowthParams{p.theta * t.mutationScale, p.growth}, pool);
    return sum;
}

GrowthMleResult maximizeGrowthParams(const PooledGrowthRelativeLikelihood& rl,
                                     GrowthParams start, double growthLo, double growthHi,
                                     ThreadPool* pool) {
    GrowthMleResult out;
    GrowthParams cur = start;
    double curLogL = rl.logL(cur, pool);
    for (int sweep = 0; sweep < 30; ++sweep) {
        ++out.sweeps;
        // Theta sweep in log space around the current value, then a growth
        // sweep on the bounded interval; each takes its final bracket's
        // midpoint.
        const GoldenSection thetaSweep = goldenSectionMax(
            [&](double lt) {
                return rl.logL(GrowthParams{std::exp(lt), cur.growth}, pool);
            },
            std::log(cur.theta) - 3.0, std::log(cur.theta) + 3.0, 1e-7, 299);
        cur.theta = std::exp(0.5 * (thetaSweep.lo + thetaSweep.hi));
        const GoldenSection growthSweep = goldenSectionMax(
            [&](double g) { return rl.logL(GrowthParams{cur.theta, g}, pool); }, growthLo,
            growthHi, 1e-7, 299);
        cur.growth = 0.5 * (growthSweep.lo + growthSweep.hi);
        const double next = rl.logL(cur, pool);
        if (next - curLogL < 1e-10) {
            curLogL = next;
            out.converged = true;
            break;
        }
        curLogL = next;
    }
    out.params = cur;
    out.logL = curLogL;
    return out;
}

GrowthEstimateResult estimateThetaAndGrowth(const Dataset& dataset,
                                            const GrowthEstimateOptions& opts,
                                            ThreadPool* pool) {
    if (opts.driving.theta <= 0.0)
        throw ConfigError("estimateThetaAndGrowth: driving theta must be positive");
    dataset.validate();
    for (const Locus& locus : dataset.loci())
        if (locus.alignment.sequenceCount() < 3)
            throw ConfigError("estimateThetaAndGrowth: locus '" + locus.name +
                              "' needs at least 3 sequences (GMH)");

    Timer total;
    const std::size_t L = dataset.locusCount();
    const LocusLikelihoods liks(dataset, "F81");

    GrowthEstimateResult result;
    GrowthParams driving = opts.driving;
    std::vector<Genealogy> current;
    current.reserve(L);
    for (const Locus& locus : dataset.loci())
        current.push_back(
            initialGenealogy(locus.alignment, driving.theta * locus.mutationScale));

    for (std::size_t em = 0; em < opts.emIterations; ++em) {
        result.history.push_back(driving);
        const std::uint64_t emSeed = opts.seed + em * 0x9E3779B97F4A7C15ull;

        // E-step: one GMH chain set per locus, run in locus order. Each
        // locus's sampler parallelizes its proposal fan-out on the pool, so
        // the pool stays busy without nesting parallel sections.
        std::vector<PooledGrowthRelativeLikelihood::LocusTerm> terms;
        terms.reserve(L);
        for (std::size_t l = 0; l < L; ++l) {
            const Locus& locus = dataset.locus(l);
            const GrowthParams locusDriving{driving.theta * locus.mutationScale,
                                            driving.growth};
            const GrowthGenealogyProblem problem(liks.at(l), locusDriving);
            GmhOptions gopt;
            gopt.numProposals = opts.gmhProposals;
            gopt.samplesPerIteration = opts.gmhProposals;
            gopt.seed = locusStreamSeed(emSeed, l);
            GmhSampler<GrowthGenealogyProblem> sampler(problem, gopt, pool);

            const std::size_t iters = (opts.samplesPerIteration + gopt.samplesPerIteration - 1) /
                                      gopt.samplesPerIteration;
            std::vector<std::vector<CoalInterval>> samples;
            samples.reserve(iters * gopt.samplesPerIteration);
            current[l] = sampler.run(std::move(current[l]), iters / 10 + 1, iters,
                                     [&](const Genealogy& g) { samples.push_back(g.intervals()); });
            terms.push_back({GrowthRelativeLikelihood(std::move(samples), locusDriving),
                             locus.mutationScale, locus.name});
        }

        // Pooled M-step over sum_l log L_l(mu_l theta, g).
        const PooledGrowthRelativeLikelihood rl(std::move(terms));
        const GrowthMleResult mle =
            maximizeGrowthParams(rl, driving, opts.growthLo, opts.growthHi, pool);
        driving = mle.params;
    }

    result.params = driving;
    result.seconds = total.seconds();
    return result;
}

GrowthEstimateResult estimateThetaAndGrowth(const Alignment& aln,
                                            const GrowthEstimateOptions& opts,
                                            ThreadPool* pool) {
    return estimateThetaAndGrowth(Dataset::single(aln), opts, pool);
}

}  // namespace mpcgs
