// fractional_setcover.h — the fractional online set cover solution the
// paper's technique description starts from ("We start with an online
// fractional solution which is monotone increasing during the algorithm.
// Then, the fractional solution is converted into a randomized
// algorithm.").
//
// Obtained exactly the way the paper obtains everything set-cover-shaped:
// through the §4 reduction.  x_S is the rejected fraction f of set S's
// phase-1 request; the §2 covering invariant on edge e_j translates to
//     Σ_{S ∋ j} min(x_S, 1)  ≥  demand_j      after every arrival of j
// (a valid fractional multicover — the identity is proved in the test
// suite's FractionalSetCover.CoverIdentity and follows from
// |ALIVE_{e_j}| = alive-sets + demand_j and capacity = degree_j).
//
// The reduction is bound through ReductionView (DESIGN.md §7.4): the §2
// wrapper and engine bind directly to the SetSystem's CSR substrate
// (capacity = degree via CoveringSubstrateTraits) and phase-1/phase-2
// arrivals stream through FractionalAdmission's span path — no graph, no
// request copies.  tests/substrate_test.cpp holds it decision-identical to
// FractionalAdmission run over the materialized build_reduction image.
//
// Useful on its own (fractional solutions are deterministic and cheap)
// and as the reference the randomized rounding is validated against.
#pragma once

#include <memory>

#include "core/fractional_admission.h"
#include "core/reduction.h"
#include "setcover/set_system.h"

namespace minrej {

/// Deterministic fractional OSCR via the §4 reduction over the §2 engine.
class FractionalSetCover {
 public:
  explicit FractionalSetCover(const SetSystem& system,
                              FractionalConfig config = {});

  /// Presents one more arrival of element j.
  void on_element(ElementId j);

  const SetSystem& system() const noexcept { return system_; }

  /// x_S ∈ [0, 1]: the fraction of set S bought so far (monotone).
  double fraction(SetId s) const;

  /// Σ_S min(x_S, 1) · cost_S — the fractional objective.
  double fractional_cost() const noexcept {
    return admission_->fractional_cost();
  }

  /// Σ_{S ∋ j} min(x_S, 1) — fractional coverage of element j.
  double coverage(ElementId j) const;

  std::int64_t demand(ElementId j) const;

  /// Cumulative §2 weight-augmentation steps underneath the reduction.
  std::uint64_t augmentations() const noexcept {
    return admission_->augmentations();
  }

  /// The underlying admission algorithm (tests).
  const FractionalAdmission& admission() const noexcept {
    return *admission_;
  }

 private:
  const SetSystem& system_;
  ReductionView view_;
  std::unique_ptr<FractionalAdmission> admission_;
  std::vector<std::int64_t> demand_;
};

}  // namespace minrej
