#include "smc/particle_cloud.h"

#include <cmath>

#include "rng/splitmix.h"
#include "util/error.h"
#include "util/logspace.h"

namespace mpcgs {

ParticleCloud::ParticleCloud(std::size_t n, SlotArena& arena, int tipCount,
                             std::uint64_t passSeed, ThreadPool* pool)
    : arena_(arena),
      tipCount_(static_cast<std::size_t>(tipCount)),
      hostRng_(Mt19937::fromSplitMix(splitMix64At(passSeed, 0))) {
    // Slot pool: shared tips + one write-once internal region per particle.
    arena_.resizeSlots(tipCount_ + n * (tipCount_ - 1));
    merges_.resize(n * (tipCount_ - 1));

    // One shared template: the initial forest is identical for every
    // particle (all tips uncoalesced, referencing the shared tip slots),
    // so the tip vectors are filled once.
    Particle init;
    init.slots.reserve(tipCount_);
    init.rootLogL.resize(tipCount_);
    for (int t = 0; t < tipCount; ++t) {
        init.slots.push_back(static_cast<Slot>(t));
        arena_.tipInit(static_cast<Slot>(t), t, &init.rootLogL[t]);
    }
    logL0_ = 0.0;
    for (int t = 0; t < tipCount; ++t) logL0_ += init.rootLogL[t];

    // Both particle arrays start at full-forest capacity, so resampling's
    // handle copies never reallocate.
    particles_.assign(n, init);
    next_.assign(n, init);
    // Each stream depends only on (passSeed, slot), so seeding them is a
    // launch like any other per-slot work.
    slotRngs_.assign(n, Mt19937(Mt19937::Unseeded{}));
    forEachIndex(
        pool, n,
        [&](std::size_t i) {
            slotRngs_[i].reseedSplitMix(splitMix64At(passSeed, i + 1));
        },
        /*grain=*/16);
    logW_.ensure(n);
    const double uniform = -std::log(static_cast<double>(n));
    for (std::size_t i = 0; i < n; ++i) logW_.data()[i] = uniform;
    probs_.assign(n, 1.0 / static_cast<double>(n));
}

Genealogy ParticleCloud::genealogy(std::size_t p) const {
    const Particle& pt = particles_[p];
    require(pt.lineageCount() == 1, "genealogy: particle is still a forest");
    Genealogy g(static_cast<int>(tipCount_));
    g.setTipNames(arena_.tipNames());
    // Every internal slot reachable from the root is one coalescence of
    // this particle's ancestry; link its children in merge order.
    std::vector<Slot> pending{pt.slots.front()};
    while (!pending.empty()) {
        const Slot s = pending.back();
        pending.pop_back();
        if (s < tipCount_) continue;
        const MergeRecord& m = merges_[s - tipCount_];
        const NodeId id = nodeOf(s);
        g.node(id).time = m.time;
        g.link(id, nodeOf(m.childA));
        g.link(id, nodeOf(m.childB));
        pending.push_back(m.childA);
        pending.push_back(m.childB);
    }
    g.setRoot(nodeOf(pt.slots.front()));
    return g;
}

double ParticleCloud::normalizeWeights() {
    const std::span<double> w = logWeights();
    const double logSum = logNormalize(w, probs_);
    for (double& x : w) x -= logSum;
    return logSum;
}

void ParticleCloud::resample(ResamplingScheme scheme) {
    const std::size_t n = particles_.size();
    resampleAncestors(scheme, probs_, hostRng_, ancestry_);

    // Every slot a particle references was written at an earlier event and
    // is never written again this pass, so the handles ARE the state:
    // offspring share their ancestor's slots.
    for (std::size_t i = 0; i < n; ++i) next_[i] = particles_[ancestry_[i]];
    particles_.swap(next_);

    const double uniform = -std::log(static_cast<double>(n));
    for (double& x : logWeights()) x = uniform;
    probs_.assign(n, 1.0 / static_cast<double>(n));
}

}  // namespace mpcgs
