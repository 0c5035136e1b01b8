#include "lik/partials_buffer.h"

namespace mpcgs {

void PartialsBuffer::ensure(std::size_t nCategories, std::size_t nTips,
                            std::size_t nInternals, std::size_t stride) {
    const bool sameShape = nCategories == categories && nTips == tips &&
                           nInternals == internals && stride == patternStride;
    if (!sameShape) primed = false;
    categories = nCategories;
    tips = nTips;
    internals = nInternals;
    patternStride = stride;

    partialsData.ensure(nCategories * nInternals * stride * 4);
    scaleData.ensure(nCategories * nInternals * stride);
    tmat.resize(nCategories * nodeCount());
}

}  // namespace mpcgs
