#include "mcmc/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "coalescent/structured.h"
#include "phylo/tree.h"
#include "rng/mt19937.h"
#include "seq/dataset.h"
#include "util/crc32c.h"
#include "util/failpoint.h"

namespace mpcgs {
namespace {

/// ": <strerror> (errno N)" when errnum is set, empty otherwise — appended
/// to every I/O failure message so ENOSPC reads as ENOSPC, not as a bare
/// "write failed".
std::string errnoSuffix(int errnum) {
    if (errnum == 0) return "";
    return std::string(": ") + std::strerror(errnum) + " (errno " +
           std::to_string(errnum) + ")";
}

/// Evaluate an I/O fail point. On a hit the site fails exactly like a real
/// fault: `errnum` carries the injected errno (0 for a plain error).
bool injected(const char* point, int& errnum) {
    const auto hit = MPCGS_FAILPOINT(point);
    if (!hit.fired()) return false;
    errnum = hit.action == failpoint::Action::Errno ? hit.errnum : 0;
    return true;
}

std::string hex32(std::uint32_t v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08X", v);
    return buf;
}

constexpr const char* kFingerprintSection = "fingerprint";

}  // namespace

void CheckpointEncoder::raw(const void* data, std::size_t bytes) {
    const char* p = static_cast<const char*>(data);
    bytes_.insert(bytes_.end(), p, p + bytes);
}

CheckpointWriter::CheckpointWriter(std::string path, std::uint32_t version)
    : path_(std::move(path)), version_(version) {
    if (int e = 0; injected("checkpoint.open", e))
        fail("open", path_ + ".tmp", e);
    errno = 0;
    out_.open(path_ + ".tmp", std::ios::binary | std::ios::trunc);
    if (!out_) fail("open", path_ + ".tmp", errno);
    try {
        rawToStream(&kCheckpointMagic, sizeof kCheckpointMagic);
        rawToStream(&version_, sizeof version_);
    } catch (...) {
        // The destructor never runs when the constructor throws — remove
        // the staging file here so no .tmp litter survives a header fault.
        out_.close();
        std::remove((path_ + ".tmp").c_str());
        throw;
    }
}

CheckpointWriter::~CheckpointWriter() {
    if (!committed_) {
        out_.close();
        std::remove((path_ + ".tmp").c_str());
    }
}

void CheckpointWriter::fail(const std::string& op, const std::string& target,
                            int errnum) {
    throw CheckpointError(op + " failed for '" + target + "'" + errnoSuffix(errnum));
}

void CheckpointWriter::rawToStream(const void* data, std::size_t bytes) {
    if (int e = 0; injected("checkpoint.write", e))
        fail("write", path_ + ".tmp", e);
    errno = 0;
    out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
    if (!out_) fail("write", path_ + ".tmp", errno);
}

void CheckpointWriter::beginSection(const std::string& name) {
    if (version_ < 5) return;
    flushStaged();
    inSection_ = true;
    sectionName_ = name;
}

void CheckpointWriter::fingerprint(const CheckpointEncoder& f) {
    beginSection(kFingerprintSection);
    raw(f.bytes().data(), f.bytes().size());
}

void CheckpointWriter::flushStaged() {
    if (inSection_) {
        // Frame fields go straight to the stream, ahead of the payload.
        const std::uint32_t marker = kSectionMarker;
        rawToStream(&marker, sizeof marker);
        const std::uint64_t nameLen = sectionName_.size();
        rawToStream(&nameLen, sizeof nameLen);
        rawToStream(sectionName_.data(), sectionName_.size());
        const std::uint64_t payloadLen = bytes_.size();
        rawToStream(&payloadLen, sizeof payloadLen);
        const std::uint32_t crc = crc32c(bytes_.data(), bytes_.size());
        rawToStream(&crc, sizeof crc);
        rawToStream(bytes_.data(), bytes_.size());
    } else if (!bytes_.empty()) {
        rawToStream(bytes_.data(), bytes_.size());
    }
    inSection_ = false;
    bytes_.clear();
}

namespace {

/// Force `path`'s data (or, for a directory, its entries) to stable
/// storage. Without this, journaling filesystems with delayed allocation
/// can persist the rename before the staged file's blocks, leaving an
/// empty snapshot after a power loss.
bool syncPath(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
#else
    (void)path;
    return true;
#endif
}

}  // namespace

void CheckpointWriter::commit() {
    flushStaged();
    out_.flush();
    out_.close();
    if (!out_) fail("flush", path_ + ".tmp", errno);
    if (int e = 0; injected("checkpoint.fsync", e))
        fail("fsync", path_ + ".tmp", e);
    errno = 0;
    if (!syncPath(path_ + ".tmp")) fail("fsync", path_ + ".tmp", errno);
    if (int e = 0; injected("checkpoint.rename", e)) fail("rename", path_, e);
    // Two-generation retention: the previous snapshot survives as
    // `<path>.prev` until the one we are about to publish is durable.
    // Best-effort — a fresh run has no previous generation.
    std::error_code ec;
    if (std::filesystem::exists(path_, ec) && !ec) {
        std::error_code ignored;
        std::filesystem::rename(path_, path_ + ".prev", ignored);
    }
    ec.clear();
    std::filesystem::rename(path_ + ".tmp", path_, ec);
    if (ec)
        throw CheckpointError("rename to '" + path_ + "' failed: " + ec.message() +
                              " (errno " + std::to_string(ec.value()) + ")");
    // Best effort: make the rename itself durable (not every filesystem
    // supports fsync on a directory handle).
    syncPath(std::filesystem::path(path_).has_parent_path()
                 ? std::filesystem::path(path_).parent_path().string()
                 : std::string("."));
    committed_ = true;
}

CheckpointReader::CheckpointReader(const std::string& path) : path_(path) {
    if (int e = 0; injected("checkpoint.read.open", e))
        throw CheckpointError("cannot open '" + path + "'" + errnoSuffix(e));
    errno = 0;
    in_.open(path, std::ios::binary | std::ios::ate);
    if (!in_) throw CheckpointError("cannot open '" + path + "'" + errnoSuffix(errno));
    fileSize_ = static_cast<std::uint64_t>(in_.tellg());
    if (fileSize_ == 0)
        throw CheckpointError("'" + path +
                              "' is empty (0 bytes) — the snapshot write was likely "
                              "interrupted or the disk was full");
    in_.seekg(0);
    if (u32() != kCheckpointMagic) throw CheckpointError("'" + path + "' is not a snapshot");
    version_ = u32();
    if (version_ < kCheckpointMinVersion || version_ > kCheckpointVersion)
        throw CheckpointError("'" + path + "' has format version " + std::to_string(version_) +
                              ", supported: " + std::to_string(kCheckpointMinVersion) + ".." +
                              std::to_string(kCheckpointVersion));
}

void CheckpointReader::rawFromStream(void* data, std::size_t bytes) {
    if (int e = 0; injected("checkpoint.read", e))
        throw CheckpointError("read failed for '" + path_ + "'" + errnoSuffix(e));
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
    if (in_.gcount() != static_cast<std::streamsize>(bytes))
        throw CheckpointError("truncated snapshot '" + path_ + "'");
}

void CheckpointReader::raw(void* data, std::size_t bytes) {
    if (inSection_) {
        if (bytes > section_.size() - sectionPos_)
            throw CheckpointError("truncated section '" + sectionName_ + "' in '" +
                                  path_ + "'");
        std::memcpy(data, section_.data() + sectionPos_, bytes);
        sectionPos_ += bytes;
    } else {
        rawFromStream(data, bytes);
    }
}

std::uint32_t CheckpointReader::u32() {
    std::uint32_t v;
    raw(&v, sizeof v);
    return v;
}

std::uint64_t CheckpointReader::u64() {
    std::uint64_t v;
    raw(&v, sizeof v);
    return v;
}

double CheckpointReader::f64() {
    double v;
    raw(&v, sizeof v);
    return v;
}

std::uint64_t CheckpointReader::remaining() {
    if (inSection_) return section_.size() - sectionPos_;
    const auto pos = static_cast<std::uint64_t>(in_.tellg());
    return pos > fileSize_ ? 0 : fileSize_ - pos;
}

void CheckpointReader::requireRemaining(std::uint64_t bytes) {
    if (bytes > remaining()) throw CheckpointError("corrupt snapshot: length exceeds file");
}

std::string CheckpointReader::str() {
    const std::uint64_t n = u64();
    requireRemaining(n);
    std::string s(n, '\0');
    raw(s.data(), s.size());
    return s;
}

std::vector<double> CheckpointReader::doubles() {
    const std::uint64_t n = u64();
    // Divide rather than multiply: n * sizeof(double) could wrap.
    if (n > remaining() / sizeof(double))
        throw CheckpointError("corrupt snapshot: length exceeds file");
    std::vector<double> xs(n);
    raw(xs.data(), xs.size() * sizeof(double));
    return xs;
}

std::string CheckpointReader::nextSection() {
    // Any unread tail of the previous section is discarded; the stream is
    // already positioned at the next frame because enterSection() consumed
    // the whole payload up front.
    inSection_ = false;
    if (remaining() == 0) return std::string();
    const std::uint32_t marker = u32();
    if (marker != kSectionMarker)
        throw CheckpointError("'" + path_ +
                              "': expected a section frame but found marker " +
                              hex32(marker) + " — snapshot is corrupt");
    const std::string name = str();
    const std::uint64_t len = u64();
    const std::uint32_t storedCrc = u32();
    requireRemaining(len);
    section_.resize(len);
    if (len > 0) rawFromStream(section_.data(), len);
    const std::uint32_t actualCrc = crc32c(section_.data(), len);
    if (actualCrc != storedCrc)
        throw CheckpointError("'" + path_ + "': checksum mismatch in section '" + name +
                              "' (stored " + hex32(storedCrc) + ", computed " +
                              hex32(actualCrc) + ") — snapshot is corrupt");
    sectionName_ = name;
    sectionPos_ = 0;
    inSection_ = true;
    return name;
}

void CheckpointReader::enterSection(const std::string& expected) {
    if (version_ < 5) return;
    const std::string name = nextSection();
    if (name.empty())
        throw CheckpointError("'" + path_ + "': expected section '" + expected +
                              "' but the snapshot ended");
    if (name != expected)
        throw CheckpointError("'" + path_ + "': expected section '" + expected +
                              "' but found '" + name + "'");
}

bool CheckpointReader::fingerprintMatches(const CheckpointEncoder& f) {
    const std::vector<char>& expected = f.bytes();
    if (version_ >= 5) {
        // A healthy first section of another name is a snapshot of another
        // kind: refused, where an unreadable one would be started over.
        const std::string name = nextSection();
        if (name.empty()) throw CheckpointError("'" + path_ + "' holds no section");
        if (name != kFingerprintSection)
            throw ConfigError("resume: '" + path_ +
                              "' is not a checkpoint of this run kind (it opens with section '" +
                              name + "')");
        if (remaining() != expected.size()) return false;
    } else if (remaining() < expected.size()) {
        return false;
    }
    std::vector<char> stored(expected.size());
    raw(stored.data(), stored.size());
    return stored == expected;
}

bool checkpointExists(const std::string& path) {
    std::error_code ec;
    return std::filesystem::exists(path, ec) && !ec;
}

std::uint32_t verifySnapshot(const std::string& path) {
    CheckpointReader r(path);
    // Pre-v5 files carry no checksums — the header check above is all the
    // verification available without parsing.
    if (r.version() >= 5)
        while (!r.nextSection().empty()) {}
    return r.version();
}

std::string pickResumeSnapshot(const std::string& path) {
    std::string firstFault;
    try {
        verifySnapshot(path);
        return path;
    } catch (const CheckpointError& e) {
        firstFault = e.what();
    }
    const std::string prev = path + ".prev";
    if (checkpointExists(prev)) {
        try {
            verifySnapshot(prev);
            std::fprintf(stderr,
                         "mpcgs: warning: %s; falling back to previous snapshot "
                         "generation '%s'\n",
                         firstFault.c_str(), prev.c_str());
            return prev;
        } catch (const CheckpointError& e2) {
            throw ResumeError(firstFault + "; previous generation '" + prev +
                              "' is also unusable: " + e2.what());
        }
    }
    throw ResumeError(firstFault);
}

void writeLocusRoster(CheckpointEncoder& f, const Dataset& ds) {
    f.u64(ds.locusCount());
    for (const Locus& locus : ds.loci()) {
        f.str(locus.name);
        f.u64(locus.alignment.sequenceCount());
        f.u64(locus.alignment.length());
        f.f64(locus.mutationScale);
    }
}

void writeGenealogy(CheckpointWriter& w, const Genealogy& g) {
    w.u64(static_cast<std::uint64_t>(g.tipCount()));
    w.u64(static_cast<std::uint64_t>(g.nodeCount()));
    w.u64(static_cast<std::uint64_t>(g.root()));
    for (NodeId id = 0; id < g.nodeCount(); ++id) {
        const TreeNode& n = g.node(id);
        w.u64(static_cast<std::uint64_t>(n.parent));
        w.u64(static_cast<std::uint64_t>(n.child[0]));
        w.u64(static_cast<std::uint64_t>(n.child[1]));
        w.f64(n.time);
    }
    w.u64(g.tipNames().size());
    for (const auto& name : g.tipNames()) w.str(name);
}

Genealogy readGenealogy(CheckpointReader& r) {
    const std::uint64_t tips64 = r.u64();
    const std::uint64_t nodes64 = r.u64();
    // Validate against the bytes actually present (4 u64-sized fields per
    // node) before allocating anything from untrusted lengths.
    if (tips64 < 2 || nodes64 != 2 * tips64 - 1 ||
        nodes64 > r.remaining() / (4 * sizeof(std::uint64_t)))
        throw CheckpointError("corrupt snapshot: implausible genealogy shape");
    const auto tips = static_cast<int>(tips64);
    const auto nodes = static_cast<int>(nodes64);
    Genealogy g(tips);
    if (g.nodeCount() != nodes) throw CheckpointError("genealogy node count mismatch");
    // Every node reference must land inside the arena (or be kNoNode)
    // before anything traverses the restored tree.
    const auto nodeRef = [nodes](std::uint64_t raw) {
        const auto id = static_cast<NodeId>(static_cast<std::int64_t>(raw));
        if (id != kNoNode && (id < 0 || id >= nodes))
            throw CheckpointError("corrupt snapshot: genealogy node index out of range");
        return id;
    };
    g.setRoot(nodeRef(r.u64()));
    for (NodeId id = 0; id < nodes; ++id) {
        TreeNode& n = g.node(id);
        n.parent = nodeRef(r.u64());
        n.child[0] = nodeRef(r.u64());
        n.child[1] = nodeRef(r.u64());
        n.time = r.f64();
    }
    try {
        g.validate();
    } catch (const Error& e) {
        throw CheckpointError(std::string("corrupt snapshot: ") + e.what());
    }
    const std::uint64_t names = r.u64();
    if (names > r.remaining() / sizeof(std::uint64_t))  // every name carries a length word
        throw CheckpointError("corrupt snapshot: implausible tip name count");
    if (names > 0) {
        std::vector<std::string> tipNames(names);
        for (auto& name : tipNames) name = r.str();
        g.setTipNames(std::move(tipNames));
    }
    return g;
}

void writeStructuredGenealogy(CheckpointWriter& w, const StructuredGenealogy& g) {
    writeGenealogy(w, g.tree());
    const int nodes = g.tree().nodeCount();
    for (NodeId id = 0; id < nodes; ++id) w.u32(static_cast<std::uint32_t>(g.deme(id)));
    for (NodeId id = 0; id < nodes; ++id) {
        const auto& events = g.branchEvents(id);
        w.u64(events.size());
        for (const MigrationEvent& e : events) {
            w.f64(e.time);
            w.u32(static_cast<std::uint32_t>(e.toDeme));
        }
    }
}

StructuredGenealogy readStructuredGenealogy(CheckpointReader& r, int demeCount) {
    StructuredGenealogy g(readGenealogy(r));
    const int nodes = g.tree().nodeCount();
    for (NodeId id = 0; id < nodes; ++id) g.setDeme(id, static_cast<int>(r.u32()));
    for (NodeId id = 0; id < nodes; ++id) {
        const std::uint64_t n = r.u64();
        // Each event occupies one f64 + one u32 in the stream.
        if (n > r.remaining() / (sizeof(double) + sizeof(std::uint32_t)))
            throw CheckpointError("corrupt snapshot: implausible migration event count");
        auto& events = g.branchEvents(id);
        events.resize(n);
        for (MigrationEvent& e : events) {
            e.time = r.f64();
            e.toDeme = static_cast<int>(r.u32());
        }
    }
    try {
        g.validate(demeCount);
    } catch (const Error& e) {
        throw CheckpointError(std::string("corrupt snapshot: ") + e.what());
    }
    return g;
}

void writeRng(CheckpointWriter& w, const Mt19937& rng) {
    std::uint32_t words[Mt19937::kStateWords];
    rng.saveState(words);
    for (const std::uint32_t word : words) w.u32(word);
}

void readRng(CheckpointReader& r, Mt19937& rng) {
    std::uint32_t words[Mt19937::kStateWords];
    for (std::uint32_t& word : words) word = r.u32();
    // The cursor indexes the 624-word state; N itself means "twist before
    // the next draw". Anything larger is corruption.
    if (words[Mt19937::kStateWords - 1] >= Mt19937::kStateWords)
        throw CheckpointError("corrupt snapshot: RNG cursor out of range");
    rng.loadState(words);
}

}  // namespace mpcgs
