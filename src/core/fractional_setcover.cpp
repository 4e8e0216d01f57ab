#include "core/fractional_setcover.h"

#include "util/check.h"

namespace minrej {

FractionalSetCover::FractionalSetCover(const SetSystem& system,
                                       FractionalConfig config)
    : system_(system), view_(system), demand_(system.element_count(), 0) {
  config.unit_costs = system.unit_costs();
  // Zero-copy binding: the engine reads capacities straight from the
  // substrate (capacity = degree) and phase-1 edge lists are the
  // substrate's own arena spans.  Phase 1 lands every edge exactly at
  // capacity, so no weight moves yet.
  admission_ =
      std::make_unique<FractionalAdmission>(system_.substrate(), config);
  for (SetId s = 0; s < static_cast<SetId>(view_.phase1_count()); ++s) {
    admission_->on_request(view_.phase1_edges(s), view_.phase1_cost(s));
  }
}

void FractionalSetCover::on_element(ElementId j) {
  MINREJ_REQUIRE(j < system_.element_count(), "element out of range");
  MINREJ_REQUIRE(
      demand_[j] < static_cast<std::int64_t>(system_.degree(j)),
      "element requested more times than it has covering sets — infeasible");
  ++demand_[j];
  // Phase-2 arrival: a single-edge must-accept span.
  admission_->on_request(view_.element_edges(j), 1.0, /*must_accept=*/true);
}

double FractionalSetCover::fraction(SetId s) const {
  MINREJ_REQUIRE(s < system_.set_count(), "set id out of range");
  // Phase-1 requests received wrapper ids 0..m-1 in order.
  return admission_->weight(static_cast<RequestId>(s));
}

double FractionalSetCover::coverage(ElementId j) const {
  MINREJ_REQUIRE(j < system_.element_count(), "element out of range");
  double total = 0.0;
  for (SetId s : system_.sets_of(j)) total += fraction(s);
  return total;
}

std::int64_t FractionalSetCover::demand(ElementId j) const {
  MINREJ_REQUIRE(j < demand_.size(), "element out of range");
  return demand_[j];
}

}  // namespace minrej
