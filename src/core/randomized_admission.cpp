#include "core/randomized_admission.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace minrej {

RandomizedAdmission::RandomizedAdmission(const Graph& graph,
                                         RandomizedConfig config)
    : OnlineAdmissionAlgorithm(graph), config_(config),
      frac_(graph,
            [&] {
              FractionalConfig fc = config.fractional;
              fc.unit_costs = config.unit_costs;
              return fc;
            }()),
      rng_(config.seed),
      edge_requests_(graph.edge_count(), 0),
      edge_capped_(graph.edge_count(), false) {
  const double m = static_cast<double>(graph.edge_count());
  const double c =
      static_cast<double>(std::max<std::int64_t>(1, graph.max_capacity()));
  if (config_.unit_costs) {
    factor_ = config_.factor.value_or(4.0);
    log_ = std::max(1.0, std::log2(m));
  } else {
    factor_ = config_.factor.value_or(12.0);
    log_ = std::max(1.0, std::log2(m * c));
  }
  MINREJ_REQUIRE(factor_ > 0.0, "factor must be positive");
  // §3 guard: |REQ_e| < 4mc².
  const double cap = 4.0 * m * c * c;
  cap_ = cap > 1e18 ? static_cast<std::int64_t>(1e18)
                    : static_cast<std::int64_t>(cap);
}

std::string RandomizedAdmission::name() const {
  return config_.unit_costs ? "randomized-unweighted" : "randomized-weighted";
}

std::optional<RequestId> RandomizedAdmission::pick_victim(
    EdgeId e, RequestId arriving, const std::vector<bool>& marked) {
  std::vector<RequestId> candidates;
  for (RequestId i = 0; i < arriving; ++i) {
    if (!is_accepted(i) || stored_request(i).must_accept) continue;
    if (static_cast<std::size_t>(i) < marked.size() && marked[i]) continue;
    const auto& edges = stored_request(i).edges;
    if (!std::binary_search(edges.begin(), edges.end(), e)) continue;
    candidates.push_back(i);
  }
  if (candidates.empty()) return std::nullopt;
  switch (config_.victim_policy) {
    case VictimPolicy::kRandom:
      return candidates[rng_.index(candidates.size())];
    case VictimPolicy::kCheapest: {
      RequestId best = candidates.front();
      for (RequestId i : candidates) {
        if (stored_request(i).cost < stored_request(best).cost) best = i;
      }
      return best;
    }
    case VictimPolicy::kMaxWeight:
      break;
  }
  RequestId best = candidates.front();
  double best_weight = -1.0;
  for (RequestId i : candidates) {
    const double w = frac_.weight(i);
    if (w > best_weight) {
      best_weight = w;
      best = i;
    }
  }
  return best;
}

ArrivalResult RandomizedAdmission::handle(RequestId id,
                                          const Request& request) {
  // Step 1: fractional weight augmentations.
  // Every arrival reaches the fractional layer, so its record ids are the
  // base request ids.
  const FractionalAdmission::Arrival frac_arrival = frac_.on_request(request);

  ArrivalResult result;
  std::vector<bool> reject_now;  // sparse set over delta ids
  auto mark_reject = [&](RequestId i) {
    if (i == id) {
      result.accepted = false;  // provisional; id handled at the end
      reject_now.resize(std::max<std::size_t>(reject_now.size(), i + 1));
      reject_now[i] = true;
    } else if (is_accepted(i) && !stored_request(i).must_accept) {
      reject_now.resize(std::max<std::size_t>(reject_now.size(), i + 1));
      if (!reject_now[i]) {
        reject_now[i] = true;
        result.preempted.push_back(i);
      }
    }
  };

  bool arriving_rejected = false;
  auto reject_arriving = [&] { arriving_rejected = true; };

  // §3 cap on |REQ_e|: once an edge has seen 4mc² requests, reject
  // everything on it (2-competitive by the paper's argument) and keep
  // rejecting future arrivals through it.
  if (config_.edge_request_cap && !request.must_accept) {
    bool capped = false;
    for (EdgeId e : request.edges) {
      ++edge_requests_[e];
      if (edge_requests_[e] >= cap_) {
        if (!edge_capped_[e]) {
          edge_capped_[e] = true;
          for (RequestId i = 0; i < id; ++i) {
            if (is_accepted(i) && !stored_request(i).must_accept &&
                std::binary_search(stored_request(i).edges.begin(),
                                   stored_request(i).edges.end(), e)) {
              mark_reject(i);
            }
          }
        }
        capped = true;
      }
    }
    if (capped) reject_arriving();
  }

  // R_small classification rejects integrally too.
  if (frac_arrival.cost_class == CostClass::kAutoRejected) {
    reject_arriving();
  }

  // Steps 2 and 3 over the requests whose weights grew this arrival.
  const double threshold = weight_threshold();
  for (const FractionalEngine::Delta& d : frac_arrival.deltas) {
    if (config_.step2_threshold && frac_.weight(d.id) >= threshold) {
      // Step 2: deterministic threshold rejection.
      if (d.id == id) reject_arriving();
      else mark_reject(d.id);
      continue;
    }
    // Step 3: randomized rejection with probability F·δ·L.
    if (!config_.step3_random) continue;
    const double p = std::min(1.0, factor_ * d.delta * log_);
    if (rng_.bernoulli(p)) {
      if (d.id == id) reject_arriving();
      else mark_reject(d.id);
    }
  }

  if (arriving_rejected && !request.must_accept) {
    result.accepted = false;
    return result;
  }

  // Step 4: feasibility check for the arriving request against the usage
  // that will remain after the preemptions above.
  auto effective_usage = [&](EdgeId e) {
    std::int64_t u = edge_usage()[e];
    for (RequestId v : result.preempted) {
      const auto& ve = stored_request(v).edges;
      if (std::binary_search(ve.begin(), ve.end(), e)) --u;
    }
    return u;
  };

  for (EdgeId e : request.edges) {
    while (effective_usage(e) + 1 > graph().capacity(e)) {
      if (!request.must_accept &&
          frac_arrival.cost_class != CostClass::kAutoAccepted) {
        // Ordinary request: step 4 rejects it.
        result.accepted = false;
        return result;
      }
      // Auto-accepted / must-accept arrival: preempt the largest-weight
      // accepted request on the overloaded edge.
      const std::optional<RequestId> victim = pick_victim(e, id, reject_now);
      if (!victim) {
        MINREJ_REQUIRE(!request.must_accept,
                       "must_accept arrival cannot fit: no preemptable "
                       "request on an overloaded edge");
        result.accepted = false;
        return result;
      }
      mark_reject(*victim);
    }
  }

  result.accepted = true;
  return result;
}

}  // namespace minrej
