#include "core/genealogy_problem.h"

#include "util/error.h"

namespace mpcgs {

MhGenealogyProblem::MhGenealogyProblem(const DataLikelihood& lik, double theta)
    : RegionPosterior(lik), theta_(theta) {
    if (theta <= 0.0) throw ConfigError("MhGenealogyProblem: theta must be positive");
}

GmhGenealogyProblem::GmhGenealogyProblem(const DataLikelihood& lik, double theta)
    : NeighborhoodGmhProblem(lik, theta) {
    if (theta <= 0.0) throw ConfigError("GmhGenealogyProblem: theta must be positive");
}

}  // namespace mpcgs
