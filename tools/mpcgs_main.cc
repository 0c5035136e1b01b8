// mpcgs — multi-proposal coalescent genealogy sampler (§5.1.1), extended
// to multi-locus datasets sharing theta and to the two-population
// structured coalescent (per-deme thetas + migration rates).
//
// Usage mirrors the paper's proof of concept:
//   mpcgs <seqdata.phy> [<more-loci...>] <init_theta> [--loci-manifest M]
//         [--threads N] [--strategy gmh|mh|multichain|heated]
//         [--samples M] [--em K] [--proposals N] [--seed S] [--curve out.csv]
//         [--populations K --pop-map F]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "core/driver.h"
#include "core/smc_estimator.h"
#include "core/structured_estimator.h"
#include "core/supervisor.h"
#include "core/support_interval.h"
#include "mcmc/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "seq/dataset.h"
#include "serve/json_mini.h"
#include "serve/serve.h"
#include "serve/trace_sink.h"
#include "util/build_info.h"
#include "util/failpoint.h"
#include "util/options.h"
#include "util/timer.h"

namespace {

void usage(const char* prog) {
    std::fprintf(stderr,
                 "usage: %s <seqdata...> <init_theta> [options]\n"
                 "  every positional argument but the last is a locus file\n"
                 "  (.phy | .nex/.nxs | .fa/.fasta); loci share one theta\n"
                 "  --loci-manifest F  read loci from a manifest file instead/as well:\n"
                 "                     one '<file> [name=N] [rate=R] [pop=F]' per line\n"
                 "  --threads N        worker threads (default: hardware)\n"
                 "  --algo A           mcmc (default) | smc | pmmh\n"
                 "  --strategy S       gmh | mh | multichain | heated (default gmh,\n"
                 "                     mcmc algo only)\n"
                 "  --samples M        genealogy samples per locus per EM iteration"
                 " (default 4000)\n"
                 "  --em K             EM iterations (default 4)\n"
                 "  --proposals N      GMH proposals per set (default 32)\n"
                 "  --set-samples M    GMH samples per proposal set (default 8)\n"
                 "  --chains P         chains for multichain strategy (default 4)\n"
                 "  --model NAME       inference model: F81 (default), JC69, HKY85, F84\n"
                 "  --seed S           RNG seed\n"
                 "  --curve FILE       write the final pooled likelihood curve as CSV\n"
                 "  --stop-rhat R      stop an E-step early once every locus's cross-chain\n"
                 "                     R-hat < R (e.g. 1.01; 0 disables)\n"
                 "  --stop-ess N       ... and pooled effective sample size >= N\n"
                 "  --checkpoint FILE  write restart snapshots to FILE during sampling\n"
                 "  --checkpoint-interval T  ticks between snapshots (default: auto)\n"
                 "  --resume           continue from the snapshot at --checkpoint FILE\n"
                 "                     (an unreadable snapshot falls back to a fresh run)\n"
                 "  --resume-policy P  strict | fallback (default): strict exits with code 4\n"
                 "                     instead of restarting when the snapshot is unreadable\n"
                 "  --max-wall-time S  checkpoint and stop cleanly (exit 3) after S seconds\n"
                 "  --failpoints SPEC  arm fault-injection points, e.g.\n"
                 "                     'checkpoint.fsync=once:errno=ENOSPC;mcmc.logpost=after(3)'\n"
                 "                     (also read from $MPCGS_FAILPOINTS)\n"
                 "  --metrics-out FILE write a flat JSON metrics snapshot (pool.* lik.*\n"
                 "                     mcmc.* smc.* serve.* taxonomy) on clean exit;\n"
                 "                     arms the registry (never perturbs any RNG stream)\n"
                 "  --trace-out FILE   record phase spans (EM and GMH iterations, SMC\n"
                 "                     generations, pool launches, serve jobs) and write\n"
                 "                     Chrome trace_event JSON on clean exit\n"
                 "                     (chrome://tracing)\n"
                 "  --print-config     print build type, SIMD width, git describe, the\n"
                 "                     thread default and the likelihood backends, then\n"
                 "                     exit\n"
                 "exit codes: 0 ok, 1 error, 2 usage, 3 interrupted (checkpointed),\n"
                 "            4 resume failed (strict), 5 numeric fault, 6 checkpoint I/O\n"
                 "sequential Monte Carlo (--algo smc|pmmh):\n"
                 "  --particles N      particles per cloud (default 1024 smc, 256 pmmh)\n"
                 "  --resampling R     multinomial | stratified | systematic (default) |\n"
                 "                     residual\n"
                 "  --ess-threshold F  resample when ESS < F * particles (default 0.5)\n"
                 "  --lik-backend B    likelihood execution backend: batched (default) |\n"
                 "                     arena; scheduling only — samples and logZ are\n"
                 "                     bitwise identical across backends\n"
                 "  --pmmh-sigma S     log-normal random-walk sd over theta (default 0.4)\n"
                 "                     (pmmh reuses --samples, --chains, --stop-*,\n"
                 "                     --checkpoint/--resume)\n"
                 "structured (two-population migration) mode:\n"
                 "  --populations K    infer per-deme thetas + migration rates (K = 2)\n"
                 "  --pop-map F        per-sequence population file: '<seq> <pop>' lines\n"
                 "                     (or assign via the manifest's pop= column)\n"
                 "  --mig-init M       initial migration rate guess (default 1.0)\n"
                 "  --path-refresh P   labels-only move share of proposals (default 0.25)\n"
                 "online inference & serving (subcommands):\n"
                 "  %s online-init <seqdata> <theta> --state FILE\n"
                 "                     run one SMC pass over the data and save the warm\n"
                 "                     posterior to FILE (--particles/--resampling/\n"
                 "                     --ess-threshold/--lik-backend/--model/--seed apply)\n"
                 "  %s serve --state FILE (--socket PATH | --port P [--host H])\n"
                 "                     serve newline-delimited JSON jobs (add_sequence |\n"
                 "                     estimate | logz | metrics | snapshot | shutdown)\n"
                 "                     against the warm posterior; checkpoints FILE after\n"
                 "                     every update\n"
                 "                     [--ess-threshold F] [--rejuvenation-sweeps K]\n"
                 "                     [--trace FILE] [--threads N] [--max-wall-time S]\n"
                 "  %s serve-send (--socket PATH | --port P [--host H]) '<json>'...\n"
                 "                     send job lines to a running daemon ('-' reads\n"
                 "                     stdin) and print the replies\n",
                 prog, prog, prog, prog);
}

/// --resume against a missing/corrupt snapshot falls back to a fresh run
/// with a clear message instead of dying (the snapshot may have been
/// truncated by a crash or copied half-way — exactly when a restart
/// matters most). The drivers raise ResumeError for unreadable snapshots
/// at ANY payload depth, so deep truncation falls back too; incompatible
/// -but-readable snapshots (ConfigError) and mid-run WRITE failures still
/// fail loudly — silently discarding a healthy snapshot would be worse
/// than stopping.
template <class Run>
auto withResumeFallback(bool& resumeFlag, bool strict, Run&& run) {
    try {
        return run();
    } catch (const mpcgs::ResumeError& e) {
        // --resume-policy strict: an unreadable snapshot is fatal (exit 4)
        // instead of silently costing the whole run again.
        if (!resumeFlag || strict) throw;
        std::fprintf(stderr, "mpcgs: cannot resume — %s; starting fresh\n", e.what());
        resumeFlag = false;
        return run();
    }
}

bool strictResumePolicy(const mpcgs::Options& opts) {
    const std::string policy = opts.get("resume-policy", "fallback");
    if (policy != "strict" && policy != "fallback")
        throw mpcgs::ConfigError("unknown --resume-policy '" + policy +
                                 "' (expected strict|fallback)");
    return policy == "strict";
}

/// The structured (two-population) pipeline: locus 0's alignment with its
/// per-sequence deme assignment, EM over (theta_1, theta_2, M_12, M_21).
int runStructured(const mpcgs::Dataset& ds, const mpcgs::Options& opts, double theta0,
                  mpcgs::ThreadPool& pool, unsigned threads,
                  const mpcgs::RunSupervisor* supervisor) {
    using namespace mpcgs;
    const long long populations = opts.getInt("populations", 0);
    if (populations != 2) {
        std::fprintf(stderr, "mpcgs: --populations currently supports exactly 2 demes\n");
        return 2;
    }
    // Flags that don't apply to structured mode were already hard-rejected
    // by validateAlgoFlags in main().
    if (ds.locusCount() != 1) {
        std::fprintf(stderr,
                     "mpcgs: structured mode currently analyzes a single locus "
                     "(%zu given)\n",
                     ds.locusCount());
        return 2;
    }
    const Locus& locus = ds.locus(0);
    if (locus.populations.empty()) {
        std::fprintf(stderr,
                     "mpcgs: structured mode needs per-sequence population "
                     "assignments; pass --pop-map or a manifest pop= column\n");
        return 2;
    }
    if (ds.populationCount() != 2) {
        std::fprintf(stderr, "mpcgs: pop-map assigns %d populations, need exactly 2\n",
                     ds.populationCount());
        return 2;
    }

    StructuredOptions so;
    so.init = MigrationModel(2, theta0, opts.getDouble("mig-init", 1.0));
    so.emIterations = static_cast<std::size_t>(opts.getInt("em", 4));
    so.samplesPerIteration = static_cast<std::size_t>(opts.getInt("samples", 4000));
    so.chains = static_cast<std::size_t>(opts.getInt("chains", 4));
    so.pathRefreshProb = opts.getDouble("path-refresh", 0.25);
    so.seed = static_cast<std::uint64_t>(opts.getInt("seed", 20160408));
    so.substModel = opts.get("model", "F81");
    so.stopRhat = opts.getDouble("stop-rhat", 0.0);
    so.stopEss = opts.getDouble("stop-ess", 0.0);
    so.checkpointPath = opts.get("checkpoint", "");
    so.checkpointIntervalTicks =
        static_cast<std::size_t>(opts.getInt("checkpoint-interval", 0));
    so.resume = opts.getBool("resume", false);
    so.supervisor = supervisor;
    validateStructuredOptions(so);

    int inDeme0 = 0;
    for (const int d : locus.populations) inDeme0 += d == 0 ? 1 : 0;
    std::printf("mpcgs structured: locus %s, %zu sequences x %zu bp, demes %s=%d %s=%zu, "
                "theta0=%.4g, threads=%u\n",
                locus.name.c_str(), locus.alignment.sequenceCount(),
                locus.alignment.length(), ds.populationNames()[0].c_str(), inDeme0,
                ds.populationNames()[1].c_str(), locus.populations.size() - inDeme0,
                theta0, threads);

    const StructuredResult res = withResumeFallback(so.resume, strictResumePolicy(opts), [&] {
        return estimateStructured(locus.alignment, locus.populations, so, &pool);
    });

    for (std::size_t i = 0; i < res.history.size(); ++i) {
        const auto& h = res.history[i];
        std::printf("  EM %zu: (th1 %.4g, th2 %.4g, M12 %.4g, M21 %.4g) -> "
                    "(th1 %.4g, th2 %.4g, M12 %.4g, M21 %.4g)\n"
                    "        logL %.4g, %zu samples, move rate %.2f, %s%s\n",
                    i + 1, h.before.theta[0], h.before.theta[1], h.before.rate(0, 1),
                    h.before.rate(1, 0), h.after.theta[0], h.after.theta[1],
                    h.after.rate(0, 1), h.after.rate(1, 0), h.logLAtMax, h.samples,
                    h.moveRate, formatDuration(h.seconds).c_str(),
                    h.stoppedEarly ? "  [converged early]" : "");
        if (h.rhat > 0.0)
            std::printf("        convergence: R-hat %.4f, pooled ESS %.0f\n", h.rhat, h.ess);
    }
    std::printf("final structured estimate (total %s, sampling %s):\n",
                formatDuration(res.totalSeconds).c_str(),
                formatDuration(res.samplingSeconds).c_str());
    for (int c = 0; c < structuredCoordinateCount(2); ++c) {
        const auto& si = res.support[static_cast<std::size_t>(c)];
        std::printf("  %-8s %.6g   approx. 95%% support [%.6g, %.6g]%s\n",
                    structuredCoordinateName(2, c).c_str(),
                    getStructuredCoordinate(res.estimate, c), si.lower, si.upper,
                    (si.lowerBounded && si.upperBounded) ? "" : " (open-ended)");
    }
    return 0;
}

/// End-of-run likelihood-backend summary from the metrics registry
/// (lik.* taxonomy; --metrics-out / --trace-out arm it). Its callers run
/// filter passes only, where requested vs computed is what cherries save:
/// their two bit-equal branch lengths share one matrix per category.
void printLikSummary() {
    using namespace mpcgs;
    if (!obs::armed()) return;
    const obs::MetricsSnapshot snap = obs::snapshot();
    const auto requested = snap.counter(obs::Counter::LikMatricesRequested);
    const auto computed = snap.counter(obs::Counter::LikMatricesComputed);
    const double shared =
        requested == 0
            ? 0.0
            : 100.0 * (1.0 - static_cast<double>(computed) / static_cast<double>(requested));
    std::printf("likelihood backend: %llu flushes, %llu combine ops, %llu of %llu "
                "transition matrices computed (sharing saved %.1f%%)\n",
                static_cast<unsigned long long>(snap.counter(obs::Counter::LikFlushes)),
                static_cast<unsigned long long>(snap.counter(obs::Counter::LikCombineOps)),
                static_cast<unsigned long long>(computed),
                static_cast<unsigned long long>(requested), shared);
}

/// --algo smc: maximize the pooled SMC marginal likelihood log Zhat(theta)
/// directly (no EM loop — the curve itself is the estimator).
int runSmcAlgo(const mpcgs::Dataset& ds, const mpcgs::Options& opts, double theta0,
               mpcgs::ThreadPool& pool, unsigned threads,
               const mpcgs::RunSupervisor* supervisor) {
    using namespace mpcgs;
    // One-shot curve maximization: no chains, no EM loop. Flags that don't
    // apply were already hard-rejected by validateAlgoFlags in main().
    SmcEstimateOptions so;
    so.theta0 = theta0;
    so.smc.particles = static_cast<std::size_t>(opts.getInt("particles", 1024));
    so.smc.scheme = parseResamplingScheme(opts.get("resampling", "systematic"));
    so.smc.essThreshold = opts.getDouble("ess-threshold", 0.5);
    so.smc.backend =
        parseLikBackend(opts.get("lik-backend", likBackendName(kDefaultLikBackend)));
    so.seed = static_cast<std::uint64_t>(opts.getInt("seed", 20160408));
    so.substModel = opts.get("model", "F81");
    if (opts.has("curve")) so.curvePoints = 81;
    so.checkpointPath = opts.get("checkpoint", "");
    so.checkpointIntervalEvals =
        static_cast<std::size_t>(opts.getInt("checkpoint-interval", 0));
    so.resume = opts.getBool("resume", false);
    so.supervisor = supervisor;

    std::printf("mpcgs smc: %zu loci, %zu particles, %s resampling, %s likelihood "
                "backend, theta0=%.4g, threads=%u\n",
                ds.locusCount(), so.smc.particles,
                resamplingSchemeName(so.smc.scheme).c_str(),
                likBackendName(so.smc.backend), theta0, threads);
    const SmcEstimateResult res = withResumeFallback(
        so.resume, strictResumePolicy(opts), [&] { return estimateThetaSmc(ds, so, &pool); });
    std::printf("SMC theta estimate: %.6g  (pooled log marginal likelihood %.4g, %s)\n",
                res.theta, res.logZAtMax, formatDuration(res.totalSeconds).c_str());
    std::printf("approx. 95%% support interval: [%.6g, %.6g]%s\n", res.support.lower,
                res.support.upper,
                (res.support.lowerBounded && res.support.upperBounded) ? ""
                                                                       : " (open-ended)");
    if (const auto curveFile = opts.get("curve")) {
        std::ofstream f(*curveFile);
        f << "theta,logZ\n";
        for (const auto& [theta, lz] : res.curve) f << theta << ',' << lz << '\n';
        std::printf("SMC marginal-likelihood curve written to %s\n", curveFile->c_str());
    }
    printLikSummary();
    return 0;
}

/// --algo pmmh: particle-marginal MH posterior over theta through the
/// unified sampler runtime (parallel chains, convergence stopping,
/// checkpoint/resume).
int runPmmhAlgo(const mpcgs::Dataset& ds, const mpcgs::Options& opts, double theta0,
                mpcgs::ThreadPool& pool, unsigned threads,
                const mpcgs::RunSupervisor* supervisor) {
    using namespace mpcgs;
    PmmhEstimateOptions po;
    po.theta0 = theta0;
    po.samples = static_cast<std::size_t>(opts.getInt("samples", 2000));
    po.pmmh.chains = static_cast<std::size_t>(opts.getInt("chains", 2));
    po.pmmh.proposalSigma = opts.getDouble("pmmh-sigma", 0.4);
    po.pmmh.seed = static_cast<std::uint64_t>(opts.getInt("seed", 20160408));
    po.pmmh.smc.particles = static_cast<std::size_t>(opts.getInt("particles", 256));
    po.pmmh.smc.scheme = parseResamplingScheme(opts.get("resampling", "systematic"));
    po.pmmh.smc.essThreshold = opts.getDouble("ess-threshold", 0.5);
    po.pmmh.smc.backend =
        parseLikBackend(opts.get("lik-backend", likBackendName(kDefaultLikBackend)));
    po.substModel = opts.get("model", "F81");
    po.stopRhat = opts.getDouble("stop-rhat", 0.0);
    po.stopEss = opts.getDouble("stop-ess", 0.0);
    po.checkpointPath = opts.get("checkpoint", "");
    po.checkpointIntervalTicks =
        static_cast<std::size_t>(opts.getInt("checkpoint-interval", 0));
    po.resume = opts.getBool("resume", false);
    po.supervisor = supervisor;

    std::printf("mpcgs pmmh: %zu loci, %zu chains x %zu particles, %s resampling, "
                "%s likelihood backend, theta0=%.4g, threads=%u\n",
                ds.locusCount(), po.pmmh.chains, po.pmmh.smc.particles,
                resamplingSchemeName(po.pmmh.smc.scheme).c_str(),
                likBackendName(po.pmmh.smc.backend), theta0, threads);
    const PmmhEstimateResult res = withResumeFallback(
        po.resume, strictResumePolicy(opts), [&] { return runPmmh(ds, po, &pool); });
    std::printf("PMMH posterior over theta (%zu samples, accept rate %.2f, %s)%s:\n",
                res.samples, res.acceptRate, formatDuration(res.totalSeconds).c_str(),
                res.stoppedEarly ? "  [converged early]" : "");
    std::printf("  mean %.6g  sd %.4g\n  95%% credible interval [%.6g, %.6g], "
                "median %.6g\n",
                res.posteriorMean, res.posteriorSd, res.q025, res.q975, res.median);
    if (res.rhat > 0.0)
        std::printf("  convergence: R-hat %.4f, pooled ESS %.0f\n", res.rhat, res.ess);
    printLikSummary();
    return 0;
}

mpcgs::ServeEndpoint endpointFromOptions(const mpcgs::Options& opts) {
    mpcgs::ServeEndpoint ep;
    ep.unixPath = opts.get("socket", "");
    ep.host = opts.get("host", "127.0.0.1");
    ep.port = static_cast<int>(opts.getInt("port", 0));
    if (ep.unixPath.empty() && !opts.has("port"))
        throw mpcgs::ConfigError("serve: pass --socket PATH or --port N");
    return ep;
}

mpcgs::OnlineOptions onlineOptionsFrom(const mpcgs::Options& opts) {
    mpcgs::OnlineOptions oo;
    oo.essThreshold = opts.getDouble("ess-threshold", 0.5);
    oo.scheme = mpcgs::parseResamplingScheme(opts.get("resampling", "systematic"));
    oo.backend = mpcgs::parseLikBackend(
        opts.get("lik-backend", mpcgs::likBackendName(mpcgs::kDefaultLikBackend)));
    oo.rejuvenationSweeps =
        static_cast<std::size_t>(opts.getInt("rejuvenation-sweeps", 1));
    return oo;
}

/// mpcgs online-init <seqdata> <theta> --state FILE: cold-start a warm
/// posterior (one full SMC pass) and save it for `mpcgs serve`.
int runOnlineInit(const mpcgs::Options& opts) {
    using namespace mpcgs;
    if (opts.positional().size() != 3) {
        std::fprintf(stderr, "usage: %s online-init <seqdata> <theta> --state FILE\n",
                     opts.programName().c_str());
        return 2;
    }
    const auto statePath = opts.get("state");
    if (!statePath) throw ConfigError("online-init: --state FILE is required");
    const Dataset ds = Dataset::fromFiles({opts.positional()[1]});
    const double theta0 = std::stod(opts.positional()[2]);

    SmcOptions smc;
    smc.particles = static_cast<std::size_t>(opts.getInt("particles", 1024));
    smc.scheme = parseResamplingScheme(opts.get("resampling", "systematic"));
    smc.essThreshold = opts.getDouble("ess-threshold", 0.5);
    smc.backend =
        parseLikBackend(opts.get("lik-backend", likBackendName(kDefaultLikBackend)));
    const auto seed = static_cast<std::uint64_t>(opts.getInt("seed", 20160408));
    const unsigned threads =
        static_cast<unsigned>(opts.getInt("threads", hardwareThreads()));
    ThreadPool pool(threads);

    const OnlineState st = initOnlineState(ds.locus(0).alignment, theta0, smc,
                                           opts.get("model", "F81"), seed, &pool);
    saveOnlineState(*statePath, st);
    std::printf("mpcgs online-init: %zu sequences x %zu bp, %zu particles, "
                "logZ %.6g, theta estimate %.6g, ESS %.2f\n",
                st.alignment.sequenceCount(), st.alignment.length(),
                st.particles.size(), st.logZ, onlineThetaEstimate(st),
                onlineEssFraction(st));
    std::printf("warm posterior written to %s\n", statePath->c_str());
    return 0;
}

/// mpcgs serve --state FILE: load the warm posterior and serve jobs until
/// shutdown (exit 0) or SIGTERM/--max-wall-time (snapshot, exit 3).
int runServe(const mpcgs::Options& opts, std::unique_ptr<mpcgs::RunSupervisor>& supervisor) {
    using namespace mpcgs;
    const auto statePath = opts.get("state");
    if (!statePath) throw ConfigError("serve: --state FILE is required");
    const ServeEndpoint ep = endpointFromOptions(opts);

    OnlineState st = loadOnlineState(*statePath);
    const unsigned threads =
        static_cast<unsigned>(opts.getInt("threads", hardwareThreads()));
    ThreadPool pool(threads);

    RunSupervisor::Config svCfg;
    svCfg.maxWallSeconds = opts.getDouble("max-wall-time", 0.0);
    supervisor = std::make_unique<RunSupervisor>(svCfg);

    // The daemon always counts (serve.* job/latency metrics back the
    // `metrics` protocol job); instrumentation never touches an RNG
    // stream, so live introspection cannot perturb the posterior.
    obs::arm();

    std::unique_ptr<CsvTraceSink> trace;
    if (const auto tracePath = opts.get("trace"))
        trace = std::make_unique<CsvTraceSink>(*tracePath);

    std::printf("mpcgs serve: warm posterior from %s — %zu sequences x %zu bp, "
                "%zu particles, %llu updates so far, logZ %.6g, threads=%u\n",
                statePath->c_str(), st.alignment.sequenceCount(), st.alignment.length(),
                st.particles.size(), static_cast<unsigned long long>(st.updates),
                st.logZ, threads);
    std::fflush(stdout);

    ServeSession session(std::move(st), *statePath, onlineOptionsFrom(opts), &pool,
                         supervisor.get(), trace.get());
    runServeLoop(session, ep);
    std::printf("mpcgs serve: clean shutdown after %llu jobs (%llu updates, logZ %.6g)\n",
                static_cast<unsigned long long>(session.jobsHandled()),
                static_cast<unsigned long long>(session.state().updates),
                session.state().logZ);
    return 0;
}

/// mpcgs serve-send: thin protocol client for tooling and CI smokes.
int runServeSend(const mpcgs::Options& opts) {
    using namespace mpcgs;
    const ServeEndpoint ep = endpointFromOptions(opts);
    std::vector<std::string> lines(opts.positional().begin() + 1, opts.positional().end());
    if (lines.empty()) {
        std::fprintf(stderr, "usage: %s serve-send (--socket PATH | --port P) '<json>'...\n",
                     opts.programName().c_str());
        return 2;
    }
    if (lines.size() == 1 && lines[0] == "-") {
        lines.clear();
        for (std::string line; std::getline(std::cin, line);)
            if (!line.empty()) lines.push_back(line);
    }
    for (const std::string& line : lines) {
        const std::string reply = serveSendLine(ep, line);
        // A prometheus-format metrics reply embeds the text exposition
        // escaped in its "text" field; print it unescaped so the output
        // pipes straight into a scrape file.
        try {
            const json_mini::Object obj = json_mini::parse(reply);
            if (json_mini::has(obj, "format") && json_mini::has(obj, "text") &&
                json_mini::getString(obj, "format") == "prometheus") {
                std::fputs(json_mini::getString(obj, "text").c_str(), stdout);
                continue;
            }
        } catch (const ParseError&) {
            // Not a flat object (or not JSON at all): print verbatim below.
        }
        std::printf("%s\n", reply.c_str());
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace mpcgs;
    const Options opts = Options::parse(argc, argv);
    if (opts.has("print-config")) {
        std::fputs(buildConfigSummary().c_str(), stdout);
        std::printf("lik backends:    arena, batched (default %s; --lik-backend)\n",
                    likBackendName(kDefaultLikBackend));
        return 0;
    }
    const std::string subcmd =
        opts.positional().empty() ? std::string() : opts.positional().front();
    const bool isSubcommand =
        subcmd == "serve" || subcmd == "online-init" || subcmd == "serve-send";
    const bool haveManifest = opts.has("loci-manifest");
    // Without a manifest at least one locus file plus theta0 is required;
    // with one, theta0 alone suffices.
    if (!isSubcommand && opts.positional().size() < (haveManifest ? 1u : 2u)) {
        usage(argv[0]);
        return 2;
    }

    std::unique_ptr<RunSupervisor> supervisor;
    try {
        // Fault injection arms before anything can fail: the env var first,
        // then --failpoints (later specs override earlier ones per point).
        failpoint::configureFromEnv();
        if (const auto spec = opts.get("failpoints")) failpoint::configure(*spec);

        // Observability arms next, before any instrumented code runs. The
        // registry/recorder never touch an RNG stream, so results are
        // bitwise identical with or without these flags; files are written
        // on clean exit only (an interrupted run keeps exit 3 semantics).
        const auto metricsOut = opts.get("metrics-out");
        const auto traceOut = opts.get("trace-out");
        std::unique_ptr<obs::TraceRecorder> traceRec;
        if (metricsOut || traceOut) obs::arm();
        if (traceOut) {
            traceRec = std::make_unique<obs::TraceRecorder>();
            obs::armTrace(traceRec.get());
        }
        const auto finishObs = [&](int rc) {
            if (traceRec) obs::armTrace(nullptr);
            if (metricsOut) obs::writeMetricsFile(*metricsOut);
            if (traceOut) traceRec->writeFile(*traceOut);
            return rc;
        };

        if (subcmd == "online-init") return finishObs(runOnlineInit(opts));
        if (subcmd == "serve") return finishObs(runServe(opts, supervisor));
        if (subcmd == "serve-send") return runServeSend(opts);

        MpcgsOptions mo;
        mo.theta0 = std::stod(opts.positional().back());
        mo.samplesPerIteration = static_cast<std::size_t>(opts.getInt("samples", 4000));
        mo.emIterations = static_cast<std::size_t>(opts.getInt("em", 4));
        mo.gmhProposals = static_cast<std::size_t>(opts.getInt("proposals", 32));
        mo.gmhSamplesPerSet = static_cast<std::size_t>(opts.getInt("set-samples", 8));
        mo.chains = static_cast<std::size_t>(opts.getInt("chains", 4));
        mo.seed = static_cast<std::uint64_t>(opts.getInt("seed", 20160408));
        mo.substModel = opts.get("model", "F81");

        const std::string strat = opts.get("strategy", "gmh");
        if (strat == "gmh")
            mo.strategy = Strategy::Gmh;
        else if (strat == "mh")
            mo.strategy = Strategy::SerialMh;
        else if (strat == "multichain")
            mo.strategy = Strategy::MultiChain;
        else if (strat == "heated")
            mo.strategy = Strategy::HeatedMh;
        else {
            std::fprintf(stderr, "unknown strategy '%s'\n", strat.c_str());
            return 2;
        }

        mo.stopRhat = opts.getDouble("stop-rhat", 0.0);
        mo.stopEss = opts.getDouble("stop-ess", 0.0);
        mo.checkpointPath = opts.get("checkpoint", "");
        mo.checkpointIntervalTicks =
            static_cast<std::size_t>(opts.getInt("checkpoint-interval", 0));
        mo.resume = opts.getBool("resume", false);

        const std::string algo = opts.get("algo", "mcmc");
        if (algo != "mcmc" && algo != "smc" && algo != "pmmh") {
            std::fprintf(stderr, "unknown algo '%s' (expected mcmc|smc|pmmh)\n",
                         algo.c_str());
            return 2;
        }
        if (algo != "mcmc" && opts.has("populations")) {
            std::fprintf(stderr, "mpcgs: --algo %s does not support --populations\n",
                         algo.c_str());
            return 2;
        }

        // Reject nonsense at parse time, before any data is read: value
        // errors first, then flags that do not apply to the selected run
        // mode (exit 2, not a silently ignored flag).
        if (algo == "mcmc" && !opts.has("populations")) validateOptions(mo);
        validateAlgoFlags(opts, opts.has("populations") ? "structured" : algo);

        // Manifest loci first (their rates/names are explicit), then the
        // positional files — whose derived names dedupe against the
        // manifest's the same way colliding file stems do.
        Dataset ds;
        if (haveManifest) ds = Dataset::fromManifest(*opts.get("loci-manifest"));
        const std::vector<std::string> files(opts.positional().begin(),
                                             opts.positional().end() - 1);
        if (!files.empty()) {
            const Dataset extra = Dataset::fromFiles(files);
            for (const Locus& locus : extra.loci()) {
                Locus merged = locus;
                const auto taken = [&](const std::string& n) {
                    for (const Locus& existing : ds.loci())
                        if (existing.name == n) return true;
                    return false;
                };
                for (int n = 2; taken(merged.name); ++n)
                    merged.name = locus.name + "." + std::to_string(n);
                ds.add(std::move(merged));
            }
        }
        if (const auto popMap = opts.get("pop-map")) ds.applyPopMap(readPopMap(*popMap));
        ds.validate();

        const unsigned threads =
            static_cast<unsigned>(opts.getInt("threads", hardwareThreads()));
        ThreadPool pool(threads);

        // One supervisor per run: SIGTERM/SIGINT and --max-wall-time feed
        // the cooperative stop flag every estimator polls at tick and EM
        // boundaries (checkpoint, then exit 3).
        RunSupervisor::Config svCfg;
        svCfg.maxWallSeconds = opts.getDouble("max-wall-time", 0.0);
        supervisor = std::make_unique<RunSupervisor>(svCfg);
        mo.supervisor = supervisor.get();

        if (opts.has("populations"))
            return finishObs(
                runStructured(ds, opts, mo.theta0, pool, threads, supervisor.get()));
        if (algo == "smc")
            return finishObs(
                runSmcAlgo(ds, opts, mo.theta0, pool, threads, supervisor.get()));
        if (algo == "pmmh")
            return finishObs(
                runPmmhAlgo(ds, opts, mo.theta0, pool, threads, supervisor.get()));

        std::printf("mpcgs: %zu loci, %zu total sites, theta0=%.4g, strategy=%s, threads=%u\n",
                    ds.locusCount(), ds.totalSites(), mo.theta0, strat.c_str(), threads);
        for (const Locus& locus : ds.loci()) {
            const std::string rate =
                locus.mutationScale == 1.0
                    ? ""
                    : "  (rate " + std::to_string(locus.mutationScale) + ")";
            std::printf("  locus %-16s %zu sequences x %zu bp%s\n", locus.name.c_str(),
                        locus.alignment.sequenceCount(), locus.alignment.length(),
                        rate.c_str());
        }

        const MpcgsResult res = withResumeFallback(
            mo.resume, strictResumePolicy(opts), [&] { return estimateTheta(ds, mo, &pool); });

        for (std::size_t i = 0; i < res.history.size(); ++i) {
            const auto& h = res.history[i];
            std::printf("  EM %zu: theta %.5g -> %.5g  (logL %.4g, %zu samples, "
                        "move rate %.2f, %s)%s\n",
                        i + 1, h.thetaBefore, h.thetaAfter, h.logLAtMax, h.samples,
                        h.moveRate, formatDuration(h.seconds).c_str(),
                        h.stoppedEarly ? "  [converged early]" : "");
            if (h.rhat > 0.0)
                std::printf("        convergence: worst R-hat %.4f, min pooled ESS %.0f\n",
                            h.rhat, h.ess);
        }
        std::printf("final theta estimate: %.6g  (total %s, sampling %s)\n", res.theta,
                    formatDuration(res.totalSeconds).c_str(),
                    formatDuration(res.samplingSeconds).c_str());

        // Approximate 95% support interval from the final pooled curve.
        if (!res.finalSummaries.empty()) {
            const PooledRelativeLikelihood rl = finalPooledLikelihood(res);
            const SupportInterval si = supportInterval(rl, res.theta, 1.92, 1e4, &pool);
            std::printf("approx. 95%% support interval: [%.6g, %.6g]%s\n", si.lower, si.upper,
                        (si.lowerBounded && si.upperBounded) ? "" : " (open-ended)");
        }

        if (const auto curveFile = opts.get("curve")) {
            const PooledRelativeLikelihood rl = finalPooledLikelihood(res);
            std::ofstream f(*curveFile);
            f << "theta,logL\n";
            for (const auto& [theta, ll] : rl.curve(res.theta / 20, res.theta * 20, 81, &pool))
                f << theta << ',' << ll << '\n';
            std::printf("pooled likelihood curve written to %s\n", curveFile->c_str());
        }
        return finishObs(0);
    } catch (const InterruptedError& e) {
        const std::string reason = supervisor ? supervisor->stopReason() : "";
        std::fprintf(stderr, "mpcgs: %s%s%s%s\n", e.what(), reason.empty() ? "" : " (",
                     reason.c_str(), reason.empty() ? "" : ")");
        if (e.checkpointWritten())
            std::fprintf(stderr,
                         "mpcgs: a final snapshot was written — rerun with --resume to "
                         "continue from it\n");
        return kExitInterrupted;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mpcgs: %s\n", e.what());
        return exitCodeFor(e);
    }
}
