// randomized_admission.h — the randomized online algorithm of paper §3.
//
// Runs the fractional algorithm of §2 underneath and rounds its monotone
// weights online:
//   1. perform the weight augmentations of the fractional algorithm;
//   2. reject every request whose weight reaches 1/(F·L);
//   3. for every request whose weight grew by δ this arrival, reject it
//      with probability F·δ·L;
//   4. if the arriving request still cannot be accepted (some edge would
//      exceed capacity), reject it; otherwise accept.
//
// Weighted case (Theorem 3):  F = 12, L = log2(mc)  → O(log²(mc)).
// Unweighted case (Theorem 4): F = 4,  L = log2(m)   → O(log m · log c).
//
// Deviations needed to make the integral algorithm total (both discussed
// in DESIGN.md §4.2):
//   * auto-accepted (R_big) and must-accept arrivals that would overflow an
//     edge preempt the accepted request with the largest fractional weight
//     there (the paper treats big requests as always acceptable because
//     fractionally they are; integrally a victim must be named);
//   * the §3 guard "|REQ_e| < 4mc²" is enforced: once an edge accumulates
//     that many requests, everything on it is rejected (2-competitive by
//     the paper's argument).
#pragma once

#include <cstdint>
#include <optional>

#include "core/fractional_admission.h"
#include "core/online_admission.h"
#include "util/rng.h"

namespace minrej {

/// Which accepted request step 4 preempts when a must-accept/auto-accepted
/// arrival needs room.  The paper's analysis rounds fractional weights, so
/// the largest-weight victim is the canonical choice; the alternatives
/// exist for the E12 ablation.
enum class VictimPolicy : std::uint8_t { kMaxWeight, kRandom, kCheapest };

struct RandomizedConfig {
  /// Unweighted mode (all costs 1): threshold/probability factor F = 4 and
  /// L = log2 m, per Theorem 4.  Weighted mode: F = 12, L = log2(mc).
  bool unit_costs = false;
  /// Override for the factor F.  The paper's constants (12 / 4) come from
  /// the Chernoff argument and are loose in practice; E2/E3 also report a
  /// calibrated F to expose the asymptotic shape on small instances.
  std::optional<double> factor;
  /// Underlying fractional algorithm configuration.
  FractionalConfig fractional;
  /// Enforce the |REQ_e| < 4mc² guard of §3 (on by default).
  bool edge_request_cap = true;
  /// Ablation switches (E12): disable the deterministic threshold
  /// rejection (step 2) or the randomized rejection (step 3).  With both
  /// off the algorithm degenerates to greedy-no-preempt — the weights are
  /// computed but never acted upon.
  bool step2_threshold = true;
  bool step3_random = true;
  VictimPolicy victim_policy = VictimPolicy::kMaxWeight;
  std::uint64_t seed = 1;
};

/// The §3 randomized rounding algorithm, weighted or unweighted.
class RandomizedAdmission : public OnlineAdmissionAlgorithm {
 public:
  RandomizedAdmission(const Graph& graph, RandomizedConfig config = {});

  std::string name() const override;

  /// The underlying fractional state (tests and experiments).
  const FractionalAdmission& fractional() const noexcept { return frac_; }

  /// Rejection threshold 1/(F·L) currently in force.
  double weight_threshold() const noexcept { return 1.0 / (factor_ * log_); }

  /// Cumulative §2 weight-augmentation steps of the underlying fractional
  /// algorithm (all phases).
  std::uint64_t augmentation_steps() const noexcept override {
    return frac_.augmentations();
  }

  bool snapshot_supported() const noexcept override { return true; }

 protected:
  ArrivalResult handle(RequestId id, const Request& request) override;
  void save_extra(SnapshotWriter& w) const override;
  void load_extra(SnapshotReader& r) override;

 private:
  /// Accepted, preemptable victim on edge e that is not already marked for
  /// rejection this arrival (or nullopt), chosen by the configured
  /// VictimPolicy.  Non-const: the kRandom policy draws from the rng.
  std::optional<RequestId> pick_victim(EdgeId e, RequestId arriving,
                                       const std::vector<bool>& marked);

  RandomizedConfig config_;
  FractionalAdmission frac_;
  Rng rng_;
  double factor_ = 12.0;
  double log_ = 1.0;
  std::vector<std::int64_t> edge_requests_;  // |REQ_e| for the §3 cap
  std::vector<bool> edge_capped_;            // edge hit the 4mc² guard
  std::int64_t cap_ = 0;
};

}  // namespace minrej
