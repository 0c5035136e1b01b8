#include "core/genealogy_problem.h"

#include "util/error.h"

namespace mpcgs {

GenealogyPosterior::GenealogyPosterior(const DataLikelihood& lik, double theta)
    : lik_(lik), theta_(theta) {
    if (theta <= 0.0) throw ConfigError("GenealogyPosterior: theta must be positive");
}

double GenealogyPosterior::logPosterior(const Genealogy& g) const {
    return lik_.logLikelihood(g) + logCoalescentPrior(g, theta_);
}

double GenealogyPosterior::logDataLikelihood(const Genealogy& g) const {
    return lik_.logLikelihood(g);
}

GmhGenealogyProblem::GmhGenealogyProblem(const DataLikelihood& lik, double theta)
    : NeighborhoodGmhProblem(lik, theta) {
    if (theta <= 0.0) throw ConfigError("GmhGenealogyProblem: theta must be positive");
}

}  // namespace mpcgs
