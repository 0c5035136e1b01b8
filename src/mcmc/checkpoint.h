// Versioned binary snapshots of sampler runtime state (checkpoint/resume).
//
// A checkpoint captures everything a run needs for bitwise-identical
// continuation: chain genealogies, log-posteriors, full RNG states, sweep
// and sample counters, the streamed summaries collected so far and the
// convergence-monitor traces. The writer stages into `<path>.tmp` and
// renames on commit, so a crash mid-write never clobbers the previous
// snapshot. On commit the previous snapshot (when one exists) is kept as
// `<path>.prev` until the new one is durable — pickResumeSnapshot() falls
// back to it when the latest generation is corrupt.
//
// Format: little-endian host-native binary. Header = magic 'MPCK' (u32) +
// format version (u32). Through v4 the rest is a flat sequence of
// primitives written and read in lockstep by the owning components
// (driver context, sampler state, sink contents). v5 wraps that same
// primitive stream into named, CRC-32C-checksummed sections:
//
//   frame := marker 'SECT' (u32) | name (str) | payload length (u64)
//          | crc32c(payload) (u32) | payload bytes
//
// Writers open sections with beginSection(); readers enter them with
// enterSection(), which verifies the checksum before handing out a single
// payload byte and names the damaged section on mismatch. Both calls are
// no-ops on pre-v5 files, so owner read paths stay version-agnostic.
// Snapshots are not portable across architectures with different
// endianness or double format — they are restart files, not an
// interchange format.
//
// Every resumable run kind's snapshot opens with its fingerprint: the run
// configuration, encoded by that kind's one fingerprint() function. A
// resume encodes it again at the file's version and compares the bytes
// (fingerprintMatches). A mismatch, or a snapshot of another kind, is a
// ConfigError (exit 2), and the file is never overwritten. Bytes differ
// from `==` only for ±0 and NaN: -0 does not resume a +0 snapshot, and
// NaN would match its own bits (the CLI rejects NaN).
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "util/error.h"

namespace mpcgs {

class Dataset;
class Genealogy;
class Mt19937;
class StructuredGenealogy;

/// Corrupt, truncated, or incompatible snapshot file; also raised by the
/// writer on I/O failures (message carries the failing operation and
/// strerror detail).
class CheckpointError : public Error {
  public:
    explicit CheckpointError(const std::string& what)
        : Error("checkpoint error: " + what) {}

  protected:
    struct AlreadyFormatted {};
    CheckpointError(AlreadyFormatted, const std::string& what) : Error(what) {}
};

/// A snapshot that could not be READ back during resume (missing,
/// truncated, or corrupt at any depth of the payload). Distinct from
/// plain CheckpointError so callers can fall back to a fresh run on
/// unreadable snapshots while mid-run WRITE failures stay fatal. Takes
/// the inner error's already-formatted message verbatim.
class ResumeError : public CheckpointError {
  public:
    explicit ResumeError(const std::string& formatted)
        : CheckpointError(AlreadyFormatted{}, formatted) {}
};

inline constexpr std::uint32_t kCheckpointMagic = 0x4B43504Du;  // "MPCK"
/// Current format: v5 frames the payload into named sections, each
/// guarded by a CRC-32C over its bytes, so single-bit corruption is
/// detected and attributed before any state is parsed. v4 added the
/// 'PSMC' section — particle-marginal MH (PMMH) sampler payloads
/// (per-chain theta, logZ, genealogy, RNG stream, pass-seed counter and
/// theta trace; src/smc/pmmh.h). v3 added deme-labelled
/// (structured-coalescent) genealogy payloads — node demes and per-branch
/// migration events. v2 snapshots carry per-locus payloads (genealogies,
/// RNG streams, sinks, monitors) for multi-locus runs; v1 is the original
/// single-locus layout. All older versions are still readable; the reader
/// exposes the file's version so owners can branch on layout.
inline constexpr std::uint32_t kCheckpointVersion = 5;
inline constexpr std::uint32_t kCheckpointMinVersion = 1;
/// Marker word opening every v5 section frame ("SECT").
inline constexpr std::uint32_t kSectionMarker = 0x54434553u;

/// Snapshot primitives encoded into an in-memory byte buffer. The writer
/// stages every section in one; a run kind's fingerprint is one.
class CheckpointEncoder {
  public:
    void u32(std::uint32_t v) { raw(&v, sizeof v); }
    void u64(std::uint64_t v) { raw(&v, sizeof v); }
    void f64(double v) { raw(&v, sizeof v); }
    void str(const std::string& s) {
        u64(s.size());
        raw(s.data(), s.size());
    }
    void doubles(std::span<const double> xs) {
        u64(xs.size());
        raw(xs.data(), xs.size() * sizeof(double));
    }

    const std::vector<char>& bytes() const { return bytes_; }

  protected:
    void raw(const void* data, std::size_t bytes);

    std::vector<char> bytes_;
};

class CheckpointWriter : public CheckpointEncoder {
  public:
    /// Opens `<path>.tmp` and writes the header. Nothing becomes visible at
    /// `path` until commit(). `version` is the header format stamp — always
    /// the current version outside of compatibility tests.
    explicit CheckpointWriter(std::string path,
                              std::uint32_t version = kCheckpointVersion);
    ~CheckpointWriter();

    CheckpointWriter(const CheckpointWriter&) = delete;
    CheckpointWriter& operator=(const CheckpointWriter&) = delete;

    /// Start a named section: subsequent primitives are buffered and
    /// flushed as one checksummed frame when the next section begins or
    /// commit() runs. No-op when the writer's format version predates v5,
    /// so owners call it unconditionally. Primitives written outside any
    /// section (as the primitive-roundtrip tests do) go to the stream
    /// unframed, exactly like pre-v5 files.
    void beginSection(const std::string& name);

    /// Write `f` as the snapshot's fingerprint section.
    void fingerprint(const CheckpointEncoder& f);

    /// Flush and atomically rename the staging file onto `path`. When a
    /// snapshot already exists at `path` it is preserved as `<path>.prev`
    /// (two-generation retention) before the rename.
    void commit();

  private:
    void rawToStream(const void* data, std::size_t bytes);
    void flushStaged();
    [[noreturn]] void fail(const std::string& op, const std::string& target,
                           int errnum);

    std::string path_;
    std::ofstream out_;
    std::uint32_t version_ = kCheckpointVersion;
    bool committed_ = false;
    bool inSection_ = false;
    std::string sectionName_;
};

class CheckpointReader {
  public:
    /// Opens `path` and validates the header. Throws CheckpointError when
    /// the file is missing, empty (a distinct message — the signature of an
    /// interrupted or out-of-space write), truncated, or has the wrong
    /// magic or an unsupported version (outside [kCheckpointMinVersion,
    /// kCheckpointVersion]).
    explicit CheckpointReader(const std::string& path);

    /// Format version stamped in the header (1 = single-locus layouts,
    /// 2 = per-locus payloads, 3 = structured-genealogy payloads,
    /// 4 = PMMH 'PSMC' sections, 5 = checksummed section frames).
    std::uint32_t version() const { return version_; }

    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    std::string str();
    std::vector<double> doubles();

    /// Enter the next section frame, verifying its CRC-32C and that its
    /// name matches `expected`. Throws CheckpointError naming the damaged
    /// or mismatched section. No-op on pre-v5 files, so owner read paths
    /// call it unconditionally; any unread tail of the previous section is
    /// discarded.
    void enterSection(const std::string& expected);

    /// Compare the stored fingerprint with `f` byte for byte: a v5+ file's
    /// whole fingerprint section, an older file's next f.bytes().size()
    /// bytes. A v5+ file that opens with another section is a snapshot of
    /// another kind and raises ConfigError.
    bool fingerprintMatches(const CheckpointEncoder& f);

    /// Advance to the next section frame, verify its CRC-32C, and position
    /// the reader inside it; returns the section's name, or "" at
    /// end-of-file (verifySnapshot's walk). Only meaningful on v5+ files.
    std::string nextSection();

    /// Bytes left in the current section (or in the file, outside any
    /// section). Length fields read from the snapshot are validated
    /// against this before any allocation, so a corrupt length word raises
    /// CheckpointError instead of a huge allocation.
    std::uint64_t remaining();
    void requireRemaining(std::uint64_t bytes);

  private:
    void raw(void* data, std::size_t bytes);
    void rawFromStream(void* data, std::size_t bytes);

    std::string path_;
    std::ifstream in_;
    std::uint64_t fileSize_ = 0;
    std::uint32_t version_ = kCheckpointVersion;
    bool inSection_ = false;
    std::string sectionName_;
    std::vector<char> section_;
    std::size_t sectionPos_ = 0;
};

/// True when a snapshot file exists at `path`.
bool checkpointExists(const std::string& path);

/// Walk `path`'s section frames and verify every CRC without parsing any
/// payload. Throws CheckpointError naming the first damaged section (or
/// describing the structural fault). Pre-v5 files carry no checksums;
/// verification succeeds after the header check alone. Returns the file's
/// format version.
std::uint32_t verifySnapshot(const std::string& path);

/// Choose the snapshot generation to resume from: `path` when it
/// verifies, else `<path>.prev` (with a stderr warning) when that
/// verifies. Throws ResumeError when neither generation is usable,
/// carrying both failure messages.
std::string pickResumeSnapshot(const std::string& path);

/// The locus roster that closes the multi-locus fingerprints: locus count,
/// then name, sequence count, length and mutation scale per locus.
void writeLocusRoster(CheckpointEncoder& f, const Dataset& ds);

// Serialization helpers for the two composite types every sampler state
// contains. Node times and tip names round-trip exactly, so a restored
// genealogy compares equal (operator==) to the saved one.
void writeGenealogy(CheckpointWriter& w, const Genealogy& g);
Genealogy readGenealogy(CheckpointReader& r);

void writeRng(CheckpointWriter& w, const Mt19937& rng);
void readRng(CheckpointReader& r, Mt19937& rng);

/// Deme-labelled genealogy payload (format v3): the plain genealogy
/// followed by per-node demes and per-branch migration events. The read
/// side validates label consistency for `demeCount` demes, so a corrupt
/// or mislabelled snapshot raises CheckpointError before any sampling.
void writeStructuredGenealogy(CheckpointWriter& w, const StructuredGenealogy& g);
StructuredGenealogy readStructuredGenealogy(CheckpointReader& r, int demeCount);

}  // namespace mpcgs
