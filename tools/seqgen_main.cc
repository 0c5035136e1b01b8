// seqgen — sequence evolution along a Newick tree (the seq-gen substitute,
// §6.1). Reads trees on stdin, writes PHYLIP on stdout.
//
//   seqgen --model F84 --kappa 2.0 --length 200 --scale 1.0 --seed S < trees
//
// mirrors `seq-gen -mF84 -l 200 -s 1.0 < treefile`.
//
// Multi-locus mode simulates L independent coalescent loci under one
// shared theta (no input trees; each locus draws its own genealogy):
//
//   seqgen --loci L --tips N --theta T [--length ...] [--out PREFIX]
//
// Per-locus RNG streams are derived via SplitMix64 from --seed, so any
// locus subset is reproducible independently of the others. With --out,
// locus l is written to <PREFIX>locus<l>.phy and a dataset manifest to
// <PREFIX>manifest.txt (ready for `mpcgs --loci-manifest`); without it,
// the alignments are written to stdout back to back.
// Two-deme mode simulates a structured (two-population migration)
// coalescent and writes the alignment plus a pop-map file ready for
// `mpcgs --populations 2 --pop-map`:
//
//   seqgen --demes N1,N2 --thetas T1,T2 --mig M12[,M21] [--length ...]
//          [--out PREFIX]
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "coalescent/simulator.h"
#include "coalescent/structured.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "phylo/newick.h"
#include "rng/mt19937.h"
#include "rng/splitmix.h"
#include "seq/phylip.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "core/supervisor.h"
#include "util/build_info.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/options.h"

namespace {

std::unique_ptr<mpcgs::SubstModel> makeGeneratorModel(const std::string& name, double kappa,
                                                      const mpcgs::BaseFreqs& pi) {
    using namespace mpcgs;
    if (name == "F84") return makeF84(kappa, pi);
    if (name == "HKY85") return makeHky85(kappa, pi);
    if (name == "K80") return makeK80(kappa);
    if (name == "JC69") return makeJc69();
    if (name == "F81") return std::make_unique<F81Model>(pi);
    return nullptr;
}

/// Parse "a" or "a,b" into exactly `want` doubles (a single value repeats).
std::vector<double> parsePair(const std::string& text, std::size_t want) {
    std::vector<double> out;
    std::istringstream in(text);
    std::string field;
    while (std::getline(in, field, ',')) {
        std::size_t used = 0;
        double v = 0.0;
        try {
            v = std::stod(field, &used);
        } catch (const std::exception&) {
            used = 0;
        }
        if (used != field.size())
            throw mpcgs::ConfigError("seqgen: bad numeric field '" + field + "'");
        out.push_back(v);
    }
    if (out.size() == 1) out.resize(want, out[0]);
    if (out.size() != want)
        throw mpcgs::ConfigError("seqgen: expected " + std::to_string(want) +
                                 " comma-separated values in '" + text + "'");
    return out;
}

/// Two-deme structured workload: one labelled genealogy, sequences evolved
/// on its tree, pop-map emitted next to the alignment.
int runTwoDeme(const mpcgs::Options& opts, const mpcgs::SubstModel& model,
               const mpcgs::SeqGenOptions& so, std::uint64_t seed) {
    using namespace mpcgs;
    const auto counts = parsePair(*opts.get("demes"), 2);
    for (const double c : counts)
        if (!(c >= 1.0) || c != std::floor(c) || c > 1e6) {
            std::fprintf(stderr,
                         "seqgen: --demes needs two positive integer tip counts\n");
            return 2;
        }
    const int n1 = static_cast<int>(counts[0]);
    const int n2 = static_cast<int>(counts[1]);
    const auto thetas = parsePair(opts.get("thetas", opts.get("theta", "1.0")), 2);
    const auto migs = parsePair(opts.get("mig", "1.0"), 2);
    MigrationModel m(2, 1.0, 1.0);
    m.theta = thetas;
    m.setRate(0, 1, migs[0]);
    m.setRate(1, 0, migs[1]);
    m.validate();

    std::vector<int> demes;
    std::vector<std::string> names;
    for (int i = 0; i < n1 + n2; ++i) {
        demes.push_back(i < n1 ? 0 : 1);
        names.push_back((i < n1 ? "p1s" : "p2s") + std::to_string(i < n1 ? i + 1 : i - n1 + 1));
    }

    Mt19937 rng = Mt19937::fromSplitMix(splitMix64At(seed, 2));
    StructuredGenealogy g = simulateStructuredCoalescent(demes, m, rng);
    g.tree().setTipNames(names);
    const Alignment aln = simulateSequences(g.tree(), model, so, rng);

    if (const auto prefix = opts.get("out")) {
        const std::string alnFile = *prefix + "twodeme.phy";
        const std::string popFile = *prefix + "popmap.txt";
        writePhylipFile(alnFile, aln);
        std::ofstream pop(popFile);
        if (!pop) {
            std::fprintf(stderr, "seqgen: cannot write pop-map at prefix '%s'\n",
                         prefix->c_str());
            return 1;
        }
        pop << "# two-deme simulation: theta=(" << m.theta[0] << ',' << m.theta[1]
            << ") M=(" << m.rate(0, 1) << ',' << m.rate(1, 0) << ") seed=" << seed
            << " migrations=" << g.migrationCount() << '\n';
        for (std::size_t i = 0; i < names.size(); ++i)
            pop << names[i] << ' ' << (demes[i] == 0 ? "pop1" : "pop2") << '\n';
        std::fprintf(stderr,
                     "seqgen: wrote %d+%d two-deme sequences to %s, pop-map to %s "
                     "(%zu migration events on the true genealogy)\n",
                     n1, n2, alnFile.c_str(), popFile.c_str(), g.migrationCount());
    } else {
        writePhylip(std::cout, aln);
        std::fprintf(stderr,
                     "seqgen: two-deme alignment on stdout; use --out PREFIX to also "
                     "write the pop-map file\n");
    }
    return 0;
}

/// Every flag seqgen reads. Any other flag exits 2 before any file is
/// written.
constexpr const char* kFlags[] = {
    "demes", "kappa", "length", "loci", "metrics-out", "mig", "model", "out",
    "print-config", "scale", "seed", "theta", "thetas", "tips", "trace-out"};

/// The flags each mode reads: the tree mode only the shared ones, the
/// other two theirs as well. A flag of another mode exits 2 just as early.
constexpr const char* kTreeFlags[] = {"kappa", "length", "metrics-out", "model",
                                      "print-config", "scale", "seed", "trace-out"};
constexpr const char* kLociFlags[] = {"kappa", "length", "metrics-out", "model",
                                      "print-config", "scale", "seed", "trace-out",
                                      "loci", "out", "theta", "tips"};
constexpr const char* kDemesFlags[] = {"kappa", "length", "metrics-out", "model",
                                       "print-config", "scale", "seed", "trace-out",
                                       "demes", "mig", "out", "theta", "thetas"};

}  // namespace

int main(int argc, char** argv) {
    using namespace mpcgs;
    const Options opts = Options::parse(argc, argv);
    try {
        opts.requireKnown(kFlags);
        if (opts.has("demes"))
            opts.requireKnown(kDemesFlags, "--demes mode");
        else if (opts.has("loci"))
            opts.requireKnown(kLociFlags, "--loci mode");
        else
            opts.requireKnown(kTreeFlags, "the tree mode (trees on stdin)");
        if (opts.has("print-config")) {
            std::fputs(buildConfigSummary().c_str(), stdout);
            return 0;
        }
        failpoint::configureFromEnv();
        // Shared observability surface (src/obs/): same flags, taxonomy and
        // obs.emit fault semantics as mpcgs, emitted on clean exit.
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
        const std::string modelName = opts.get("model", "F84");
        const double kappa = opts.getDouble("kappa", 2.0);
        SeqGenOptions so;
        so.length = opts.getCount("length", 200);
        if (so.length == 0) throw ConfigError("--length must be positive");
        so.scale = opts.getDouble("scale", 1.0);
        const auto seed = static_cast<std::uint64_t>(opts.getInt("seed", 42));

        // seq-gen draws base frequencies from its defaults when not given
        // data; use uniform frequencies unless overridden.
        const BaseFreqs pi = kUniformFreqs;
        const auto model = makeGeneratorModel(modelName, kappa, pi);
        if (!model) {
            std::fprintf(stderr, "seqgen: unknown model '%s'\n", modelName.c_str());
            return 2;
        }

        if (opts.has("demes")) return finishObs(runTwoDeme(opts, *model, so, seed));

        if (opts.has("loci")) {
            const std::size_t loci = opts.getCount("loci", 0);
            if (loci == 0) throw ConfigError("--loci must be positive");
            const int tips = static_cast<int>(opts.getCount("tips", 0, 1000000));
            const double theta = opts.getDouble("theta", 0.0);
            if (tips < 2 || theta <= 0.0) {
                std::fprintf(stderr,
                             "seqgen: --loci needs --tips >= 2 and --theta > 0\n");
                return 2;
            }
            const auto prefix = opts.get("out");
            std::ofstream manifest;
            if (prefix) {
                manifest.open(*prefix + "manifest.txt");
                if (!manifest) {
                    std::fprintf(stderr, "seqgen: cannot write manifest at prefix '%s'\n",
                                 prefix->c_str());
                    return 1;
                }
                manifest << "# " << loci << " loci simulated under shared theta=" << theta
                         << " (seqgen --loci)\n";
            }
            for (std::size_t l = 0; l < loci; ++l) {
                // Independent, counter-addressable stream per locus: locus
                // l's data does not depend on how many loci are simulated.
                Mt19937 rng = Mt19937::fromSplitMix(splitMix64At(seed, l));
                const Genealogy g = simulateCoalescent(tips, theta, rng);
                const Alignment aln = simulateSequences(g, *model, so, rng);
                if (prefix) {
                    const std::string name = "locus" + std::to_string(l);
                    const std::string file = *prefix + name + ".phy";
                    writePhylipFile(file, aln);
                    // Manifest entries are relative to the manifest's own
                    // directory, which the locus files share by construction.
                    manifest << std::filesystem::path(file).filename().string()
                             << " name=" << name << " rate=1.0\n";
                } else {
                    writePhylip(std::cout, aln);
                }
            }
            if (prefix)
                std::fprintf(stderr, "seqgen: wrote %zu loci + manifest at prefix '%s'\n",
                             loci, prefix->c_str());
            return finishObs(0);
        }

        Mt19937 rng(static_cast<std::uint32_t>(seed));
        std::string line;
        while (std::getline(std::cin, line)) {
            if (line.find(';') == std::string::npos) continue;
            const Genealogy g = fromNewick(line);
            const Alignment aln = simulateSequences(g, *model, so, rng);
            writePhylip(std::cout, aln);
        }
        return finishObs(0);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "seqgen: %s\n", e.what());
        return exitCodeFor(e);
    }
}
