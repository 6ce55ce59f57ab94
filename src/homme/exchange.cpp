#include "homme/exchange.hpp"

#include <stdexcept>
#include <string>

#include "homme/dss.hpp"

namespace homme {

void MeshExchange::dss_levels(std::span<double* const> fields, int nlev) {
  homme::dss_levels(mesh_, fields, nlev);
}

void MeshExchange::dss_vector_levels(std::span<double* const> u1,
                                     std::span<double* const> u2, int nlev) {
  homme::dss_vector_levels(mesh_, u1, u2, nlev);
}

std::size_t MeshExchange::dss_scratch() const {
  return static_cast<std::size_t>(mesh_.nnodes());
}

obs::Track* MeshExchange::open_track(obs::Tracer* t) {
  return t != nullptr ? &t->track("dycore", 0, 0) : nullptr;
}

net::Rank& RankExchange::bound() const {
  if (rank_ == nullptr) {
    throw std::logic_error("RankExchange: DSS on rank " +
                           std::to_string(bx_.rank()) +
                           " without a bound net::Rank");
  }
  return *rank_;
}

void RankExchange::dss_levels(std::span<double* const> fields, int nlev) {
  bx_.dss_levels(bound(), fields, nlev, mode_);
}

void RankExchange::dss_vector_levels(std::span<double* const> u1,
                                     std::span<double* const> u2, int nlev) {
  bx_.dss_vector_levels(bound(), u1, u2, nlev, mode_);
}

obs::Track* RankExchange::open_track(obs::Tracer* t) {
  obs::Track* trk =
      t != nullptr
          ? &t->track("rank" + std::to_string(bx_.rank()), bx_.rank(), 0)
          : nullptr;
  bx_.set_track(trk);
  return trk;
}

}  // namespace homme
