// Checkpoint robustness: truncated and version-bumped MPCK snapshots must
// produce a diagnosable CheckpointError (never a crash, hang or silent
// misread), v1-v4 snapshots stay readable and resumable under the v5
// reader, and structured payload corruption is caught by label validation.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coalescent/simulator.h"
#include "coalescent/structured.h"
#include "core/driver.h"
#include "core/smc_estimator.h"
#include "core/structured_estimator.h"
#include "core/supervisor.h"
#include "mcmc/checkpoint.h"
#include "phylo/tree.h"
#include "rng/mt19937.h"
#include "seq/seqgen.h"
#include "seq/subst_model.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace mpcgs {
namespace {

std::string tempPath(const std::string& name) { return ::testing::TempDir() + name; }

std::vector<char> slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::vector<char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A realistic snapshot body: a genealogy, an RNG stream and a few scalars.
std::string writeSample(const std::string& name) {
    const std::string path = tempPath(name);
    Mt19937 rng(5);
    const Genealogy g = simulateCoalescent(6, 1.0, rng);
    CheckpointWriter w(path);
    w.u64(42);
    writeGenealogy(w, g);
    writeRng(w, rng);
    w.f64(3.25);
    w.commit();
    return path;
}

TEST(CheckpointHardeningTest, EveryTruncationIsDiagnosable) {
    const std::string path = writeSample("hardening_full.mpck");
    const std::vector<char> bytes = slurp(path);
    ASSERT_GT(bytes.size(), 16u);

    const std::string cut = tempPath("hardening_cut.mpck");
    // Walk a spread of truncation points including the header boundary and
    // the final byte; every one must raise CheckpointError — either at
    // open (header gone) or on the first read past the cut.
    for (std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{4},
                             std::size_t{7}, std::size_t{8}, std::size_t{9},
                             bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
        dump(cut, std::vector<char>(bytes.begin(),
                                    bytes.begin() + static_cast<std::ptrdiff_t>(keep)));
        EXPECT_THROW(
            {
                CheckpointReader r(cut);
                r.u64();
                readGenealogy(r);
                Mt19937 rng(1);
                readRng(r, rng);
                r.f64();
            },
            CheckpointError)
            << "truncated to " << keep << " bytes";
    }
    std::remove(path.c_str());
    std::remove(cut.c_str());
}

TEST(CheckpointHardeningTest, FutureVersionIsRejectedWithTheVersionInTheMessage) {
    const std::string path = tempPath("hardening_future.mpck");
    {
        CheckpointWriter w(path, kCheckpointVersion + 1);
        w.u64(1);
        w.commit();
    }
    try {
        CheckpointReader r(path);
        FAIL() << "future format version was accepted";
    } catch (const CheckpointError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::to_string(kCheckpointVersion + 1)), std::string::npos)
            << "message should name the offending version: " << what;
    }
    std::remove(path.c_str());
}

TEST(CheckpointHardeningTest, AllSupportedVersionsStillOpen) {
    // v3 readers must keep accepting v1 and v2 files (read-compat is how
    // old runs resume after an upgrade).
    for (std::uint32_t v = kCheckpointMinVersion; v <= kCheckpointVersion; ++v) {
        const std::string path = tempPath("hardening_v" + std::to_string(v) + ".mpck");
        {
            CheckpointWriter w(path, v);
            w.u64(7);
            w.str("payload");
            w.commit();
        }
        CheckpointReader r(path);
        EXPECT_EQ(r.version(), v);
        EXPECT_EQ(r.u64(), 7u);
        EXPECT_EQ(r.str(), "payload");
        std::remove(path.c_str());
    }
}

TEST(CheckpointHardeningTest, ResumeFromTruncatedSnapshotRaisesResumeError) {
    // The driver distinguishes unreadable-snapshot READS (ResumeError, so
    // the CLI can fall back to a fresh run) from config mismatches and
    // write failures (still fatal). Exercise the real estimateTheta path.
    Mt19937 rng(3);
    const Genealogy g = simulateCoalescent(6, 1.0, rng);
    SeqGenOptions so;
    so.length = 120;
    const auto model = makeF84(2.0, kUniformFreqs);
    const Alignment aln = simulateSequences(g, *model, so, rng);

    const std::string path = tempPath("hardening_resume.mpck");
    MpcgsOptions opts;
    opts.theta0 = 1.0;
    opts.emIterations = 2;
    opts.samplesPerIteration = 200;
    opts.strategy = Strategy::SerialMh;
    opts.seed = 77;
    opts.checkpointPath = path;
    opts.checkpointIntervalTicks = 5;
    estimateTheta(aln, opts);

    std::vector<char> bytes = slurp(path);
    ASSERT_GT(bytes.size(), 32u);
    dump(path, std::vector<char>(bytes.begin(),
                                 bytes.begin() + static_cast<std::ptrdiff_t>(
                                                     bytes.size() / 2)));
    // Two-generation retention would rescue a truncated latest via .prev;
    // remove it so this test exercises the no-generation-left path.
    std::remove((path + ".prev").c_str());
    opts.resume = true;
    EXPECT_THROW(estimateTheta(aln, opts), ResumeError);

    // A config mismatch on a READABLE snapshot must NOT become a
    // ResumeError (silently discarding a healthy snapshot would be worse).
    dump(path, bytes);
    opts.seed = 78;  // fingerprint mismatch
    try {
        estimateTheta(aln, opts);
        FAIL() << "incompatible snapshot was accepted";
    } catch (const ResumeError&) {
        FAIL() << "config mismatch must stay fatal, not fall back";
    } catch (const ConfigError&) {
        // expected
    }
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
}

/// A realistic SECTIONED (v5) snapshot: two sections of mixed payloads.
std::string writeSectionedSample(const std::string& name) {
    const std::string path = tempPath(name);
    Mt19937 rng(5);
    const Genealogy g = simulateCoalescent(6, 1.0, rng);
    CheckpointWriter w(path);
    w.beginSection("alpha");
    w.u64(42);
    writeGenealogy(w, g);
    w.beginSection("beta");
    writeRng(w, rng);
    w.f64(3.25);
    w.commit();
    return path;
}

/// Reload a writeSectionedSample snapshot through the full sectioned read
/// path (header, frames, names, CRCs, payload parses).
void readSectionedSample(const std::string& path) {
    CheckpointReader r(path);
    r.enterSection("alpha");
    if (r.u64() != 42) throw CheckpointError("payload mismatch in 'alpha'");
    readGenealogy(r);
    r.enterSection("beta");
    Mt19937 rng(1);
    readRng(r, rng);
    r.f64();
}

TEST(CheckpointHardeningTest, EverySingleByteFlipInAV5SnapshotIsDetected) {
    const std::string path = writeSectionedSample("hardening_crc.mpck");
    ASSERT_EQ(verifySnapshot(path), kCheckpointVersion);
    EXPECT_NO_THROW(readSectionedSample(path));
    const std::vector<char> bytes = slurp(path);

    // Flip one byte at a time across the entire file. Wherever the flip
    // lands — header, frame marker, section name, length word, stored CRC
    // or payload — the sectioned reload must raise CheckpointError, never
    // succeed silently and never crash.
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
        std::vector<char> mutated = bytes;
        mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5A);
        dump(path, mutated);
        EXPECT_THROW(readSectionedSample(path), CheckpointError)
            << "flip at byte " << pos << " went undetected";
    }
    std::remove(path.c_str());
}

TEST(CheckpointHardeningTest, PayloadCorruptionIsReportedAsAChecksumMismatch) {
    const std::string path = writeSectionedSample("hardening_crc_msg.mpck");
    std::vector<char> bytes = slurp(path);
    // Corrupt deep inside the first (largest) section's payload, well past
    // the header and frame metadata.
    const std::size_t pos = bytes.size() / 2;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0xFF);
    dump(path, bytes);
    try {
        verifySnapshot(path);
        FAIL() << "payload corruption passed verification";
    } catch (const CheckpointError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
        EXPECT_NE(what.find("section '"), std::string::npos)
            << "message should name the corrupt section: " << what;
    }
    std::remove(path.c_str());
}

TEST(CheckpointHardeningTest, CorruptLatestFallsBackToThePrevGeneration) {
    // Two commits to the same path leave the older generation at .prev.
    const std::string path = writeSectionedSample("hardening_prev.mpck");
    {
        Mt19937 rng(5);
        const Genealogy g = simulateCoalescent(6, 1.0, rng);
        CheckpointWriter w(path);
        w.beginSection("alpha");
        w.u64(42);
        writeGenealogy(w, g);
        w.beginSection("beta");
        writeRng(w, rng);
        w.f64(3.25);
        w.commit();
    }
    const std::string prev = path + ".prev";
    ASSERT_TRUE(checkpointExists(prev)) << "second commit should rotate a .prev";
    ASSERT_EQ(verifySnapshot(prev), kCheckpointVersion);

    // Corrupt the LATEST generation only; selection must fall back to
    // .prev with a warning on stderr, and the fallback must be readable.
    std::vector<char> bytes = slurp(path);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
    dump(path, bytes);
    ::testing::internal::CaptureStderr();
    const std::string chosen = pickResumeSnapshot(path);
    const std::string warning = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(chosen, prev);
    EXPECT_NE(warning.find("falling back"), std::string::npos) << warning;
    EXPECT_NO_THROW(readSectionedSample(chosen));

    // Both generations corrupt: ResumeError naming both failures.
    std::vector<char> prevBytes = slurp(prev);
    prevBytes[prevBytes.size() / 2] =
        static_cast<char>(prevBytes[prevBytes.size() / 2] ^ 0xFF);
    dump(prev, prevBytes);
    EXPECT_THROW(pickResumeSnapshot(path), ResumeError);

    std::remove(path.c_str());
    std::remove(prev.c_str());
}

TEST(CheckpointHardeningTest, EmptySnapshotGetsADistinctMessage) {
    // A 0-byte file is what an interrupted write or a full disk leaves
    // behind; the message must say so rather than "not a snapshot".
    const std::string path = tempPath("hardening_empty.mpck");
    { std::ofstream out(path, std::ios::binary | std::ios::trunc); }
    try {
        CheckpointReader r(path);
        FAIL() << "empty snapshot was accepted";
    } catch (const CheckpointError& e) {
        EXPECT_NE(std::string(e.what()).find("empty"), std::string::npos) << e.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointHardeningTest, GarbageMagicIsRejected) {
    const std::string path = tempPath("hardening_magic.mpck");
    {
        std::ofstream out(path, std::ios::binary);
        out << "definitely not a snapshot, longer than one header";
    }
    EXPECT_THROW(CheckpointReader r(path), CheckpointError);
    std::remove(path.c_str());
}

/// Rewrite the v5 snapshot at `path` in the unframed layout of format
/// `version`: the header stamped with that version, then every section's
/// payload in order. Older builds wrote exactly this stream.
void stripFrames(const std::string& path, std::uint32_t version) {
    const std::vector<char> framed = slurp(path);
    std::vector<char> flat(framed.begin(), framed.begin() + 8);
    std::memcpy(flat.data() + 4, &version, sizeof version);
    std::size_t pos = 8;
    const auto word = [&](std::size_t at) {
        std::uint64_t v = 0;
        std::memcpy(&v, framed.data() + at, sizeof v);
        return static_cast<std::size_t>(v);
    };
    while (pos < framed.size()) {
        const std::size_t nameLen = word(pos + 4);  // after the 'SECT' marker
        const std::size_t payloadLen = word(pos + 12 + nameLen);
        const std::size_t payload = pos + 12 + nameLen + 8 + 4;  // length, CRC
        flat.insert(flat.end(), framed.begin() + static_cast<std::ptrdiff_t>(payload),
                    framed.begin() + static_cast<std::ptrdiff_t>(payload + payloadLen));
        pos = payload + payloadLen;
    }
    dump(path, flat);
    std::remove((path + ".prev").c_str());
}

/// Runs `run` under a supervisor whose stop request fires after `polls`
/// quiet polls (one per tick), so the run is interrupted mid-sampling with
/// a snapshot of the tick boundary.
template <class Run>
void interruptAfter(int polls, Run run) {
    failpoint::configure("supervisor.stop=after(" + std::to_string(polls) + ")");
    RunSupervisor::Config cfg;
    cfg.handleSignals = false;
    const RunSupervisor sv(cfg);
    EXPECT_THROW(run(&sv), InterruptedError);
    failpoint::reset();
}

Alignment smallAlignment(std::uint32_t seed, int tips = 6) {
    Mt19937 rng(seed);
    const Genealogy g = simulateCoalescent(tips, 1.0, rng);
    SeqGenOptions so;
    so.length = 120;
    return simulateSequences(g, *makeF84(2.0, kUniformFreqs), so, rng);
}

TEST(CheckpointHardeningTest, FrameStrippedMidRunSnapshotsResumeBitwise) {
    // A mid-run v5 snapshot with its frames stripped is the stream that
    // format v2 (multi-locus), v3 (structured) and v4 (PMMH) builds wrote;
    // resuming it must finish exactly like the uninterrupted run.
    {
        SCOPED_TRACE("2-locus multichain as v2");
        Dataset ds;
        ds.add(Locus{"locus0", smallAlignment(21), 1.0, {}});
        ds.add(Locus{"locus1", smallAlignment(22), 0.5, {}});
        MpcgsOptions o;
        o.theta0 = 0.5;
        o.emIterations = 2;
        o.samplesPerIteration = 200;
        o.strategy = Strategy::MultiChain;
        o.chains = 2;
        o.seed = 23;
        const MpcgsResult full = estimateTheta(ds, o);

        MpcgsOptions part = o;
        part.checkpointPath = tempPath("strip_v2.mpck");
        part.checkpointIntervalTicks = 5;
        interruptAfter(60, [&](const RunSupervisor* sv) {
            part.supervisor = sv;
            estimateTheta(ds, part);
        });
        stripFrames(part.checkpointPath, 2);

        MpcgsOptions rest = o;
        rest.checkpointPath = part.checkpointPath;
        rest.resume = true;
        const MpcgsResult resumed = estimateTheta(ds, rest);
        EXPECT_EQ(resumed.theta, full.theta);
        ASSERT_EQ(resumed.history.size(), full.history.size());
        for (std::size_t i = 0; i < full.history.size(); ++i)
            EXPECT_EQ(resumed.history[i].thetaAfter, full.history[i].thetaAfter);
        std::remove(rest.checkpointPath.c_str());
    }
    {
        SCOPED_TRACE("structured as v3");
        Mt19937 rng(43);
        const std::vector<int> demes{0, 0, 0, 1, 1, 1};
        const StructuredGenealogy g =
            simulateStructuredCoalescent(demes, MigrationModel(2, 1.0, 0.5), rng);
        SeqGenOptions so;
        so.length = 150;
        const Alignment aln = simulateSequences(g.tree(), *makeF84(2.0, kUniformFreqs), so, rng);
        StructuredOptions o;
        o.init = MigrationModel(2, 1.0, 1.0);
        o.emIterations = 2;
        o.samplesPerIteration = 150;
        o.chains = 2;
        o.seed = 4242;
        const StructuredResult full = estimateStructured(aln, demes, o);

        StructuredOptions part = o;
        part.checkpointPath = tempPath("strip_v3.mpck");
        part.checkpointIntervalTicks = 5;
        interruptAfter(40, [&](const RunSupervisor* sv) {
            part.supervisor = sv;
            estimateStructured(aln, demes, part);
        });
        stripFrames(part.checkpointPath, 3);

        StructuredOptions rest = o;
        rest.checkpointPath = part.checkpointPath;
        rest.resume = true;
        const StructuredResult resumed = estimateStructured(aln, demes, rest);
        EXPECT_EQ(resumed.estimate, full.estimate);
        ASSERT_EQ(resumed.history.size(), full.history.size());
        for (std::size_t i = 0; i < full.history.size(); ++i)
            EXPECT_EQ(resumed.history[i].after, full.history[i].after);
        std::remove(rest.checkpointPath.c_str());
    }
    {
        SCOPED_TRACE("PMMH as v4");
        Dataset ds;
        ds.add(Locus{"locus0", smallAlignment(3), 1.0, {}});
        PmmhEstimateOptions o;
        o.samples = 40;
        o.pmmh.chains = 2;
        o.pmmh.smc.particles = 32;
        o.pmmh.seed = 23;
        const PmmhEstimateResult full = runPmmh(ds, o);

        PmmhEstimateOptions part = o;
        part.checkpointPath = tempPath("strip_v4.mpck");
        part.checkpointIntervalTicks = 3;
        interruptAfter(8, [&](const RunSupervisor* sv) {
            part.supervisor = sv;
            runPmmh(ds, part);
        });
        stripFrames(part.checkpointPath, 4);

        PmmhEstimateOptions rest = o;
        rest.checkpointPath = part.checkpointPath;
        rest.resume = true;
        const PmmhEstimateResult resumed = runPmmh(ds, rest);
        EXPECT_EQ(resumed.thetaChainMajor, full.thetaChainMajor);
        std::remove(rest.checkpointPath.c_str());
    }
}

TEST(CheckpointHardeningTest, CorruptStructuredPayloadIsRejected) {
    Mt19937 rng(11);
    const MigrationModel m(2, 1.0, 0.5);
    std::vector<int> demes{0, 0, 1, 1};
    const StructuredGenealogy g = simulateStructuredCoalescent(demes, m, rng);

    // Out-of-range deme count at read time: labels beyond K fail validation.
    const std::string path = tempPath("hardening_structured.mpck");
    {
        CheckpointWriter w(path);
        writeStructuredGenealogy(w, g);
        w.commit();
    }
    bool hasDemeOne = false;
    for (NodeId id = 0; id < g.tree().nodeCount(); ++id) hasDemeOne |= g.deme(id) == 1;
    ASSERT_TRUE(hasDemeOne);
    {
        CheckpointReader r(path);
        EXPECT_THROW(readStructuredGenealogy(r, 1), CheckpointError);
    }
    {
        CheckpointReader r(path);
        EXPECT_NO_THROW(readStructuredGenealogy(r, 2));
    }

    // Flip one migration-event count length word to an absurd value: the
    // reader must reject before allocating.
    std::vector<char> bytes = slurp(path);
    // Genealogy payload first; the deme words follow; corrupt the final
    // 8 bytes (the last branch's event count or an event field) to 2^62.
    for (int i = 1; i <= 8; ++i)
        bytes[bytes.size() - static_cast<std::size_t>(i)] = static_cast<char>(0x40 + i);
    dump(path, bytes);
    CheckpointReader r(path);
    EXPECT_THROW(readStructuredGenealogy(r, 2), CheckpointError);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace mpcgs
