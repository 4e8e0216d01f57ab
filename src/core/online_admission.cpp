#include "core/online_admission.h"

#include <algorithm>
#include <cmath>

namespace minrej {

OnlineAdmissionAlgorithm::OnlineAdmissionAlgorithm(const Graph& graph)
    : graph_(graph), usage_(graph.edge_count(), 0) {}

RequestState OnlineAdmissionAlgorithm::state(RequestId id) const {
  MINREJ_REQUIRE(id < states_.size(), "unknown request id");
  return states_[id];
}

bool OnlineAdmissionAlgorithm::would_overflow(const Request& request) const {
  for (EdgeId e : request.edges) {
    MINREJ_REQUIRE(e < graph_.edge_count(), "request edge out of range");
    if (usage_[e] + 1 > graph_.capacity(e)) return true;
  }
  return false;
}

void OnlineAdmissionAlgorithm::apply_rejection(RequestId id) {
  MINREJ_CHECK(states_[id] == RequestState::kAccepted,
               "preempting a request that is not accepted");
  MINREJ_CHECK(!requests_[id].must_accept,
               "algorithm attempted to preempt a must_accept request");
  states_[id] = RequestState::kRejected;
  rejected_cost_ += requests_[id].cost;
  ++rejected_count_;
  for (EdgeId e : requests_[id].edges) --usage_[e];
}

ArrivalResult OnlineAdmissionAlgorithm::process(const Request& request) {
  MINREJ_REQUIRE(!request.edges.empty(), "empty request");
  // isfinite rejects ±inf (which would poison rejected_cost_ forever); the
  // > 0 comparison rejects NaN as well as non-positive costs.
  MINREJ_REQUIRE(std::isfinite(request.cost) && request.cost > 0.0,
                 "request cost must be positive and finite");
  for (EdgeId e : request.edges) {
    MINREJ_REQUIRE(e < graph_.edge_count(), "request edge out of range");
  }

  const auto id = static_cast<RequestId>(requests_.size());
  requests_.push_back(request);
  // Provisional state; fixed up below from the subclass decision.
  states_.push_back(RequestState::kRejected);

  ArrivalResult result = handle(id, request);

  // Apply preemptions first (they free capacity for the arrival).
  // Deduplicate defensively; preempting twice would corrupt usage.
  std::sort(result.preempted.begin(), result.preempted.end());
  result.preempted.erase(
      std::unique(result.preempted.begin(), result.preempted.end()),
      result.preempted.end());
  for (RequestId victim : result.preempted) {
    MINREJ_CHECK(victim < id, "cannot preempt a future request");
    apply_rejection(victim);
  }

  if (result.accepted) {
    states_[id] = RequestState::kAccepted;
    for (EdgeId e : request.edges) {
      ++usage_[e];
      MINREJ_CHECK(usage_[e] <= graph_.capacity(e),
                   "capacity violated after acceptance — algorithm bug");
    }
  } else {
    MINREJ_CHECK(!request.must_accept,
                 "algorithm rejected a must_accept request");
    states_[id] = RequestState::kRejected;
    rejected_cost_ += request.cost;
    ++rejected_count_;
  }
  return result;
}

}  // namespace minrej
