// Tests for the CSR covering substrate (core/covering_instance.h), the
// SetSystem facade over it, the zero-copy §4 ReductionView, and the
// engine's compile-time substrate binding (DESIGN.md §7).
//
// The two load-bearing suites are differential: FractionalSetCover over
// ReductionView must be *decision-identical* to FractionalAdmission over
// the materialized reduction (build_reduction) on randomized set systems
// (including repeated arrivals), and the engine
// bound to a CoveringInstance (capacity = degree) must behave exactly like
// the engine bound to the reduction's star graph.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/covering_instance.h"
#include "core/fractional_admission.h"
#include "core/fractional_engine.h"
#include "core/fractional_setcover.h"
#include "core/naive_engine.h"
#include "core/online_admission.h"
#include "core/online_setcover.h"
#include "core/randomized_admission.h"
#include "core/reduction.h"
#include "core/substrate_traits.h"
#include "setcover/generators.h"
#include "sim/runner.h"
#include "sim/workloads.h"
#include "test_util.h"
#include "util/rng.h"

namespace minrej {
namespace {

// ---------------------------------------------------------------------------
// CoveringInstance: structure, both incidence directions, capacity modes
// ---------------------------------------------------------------------------

TEST(CoveringInstance, HotRowsAreThirtyTwoBytes) {
  // Compile-time guaranteed (static_assert in the header); restated here
  // so a layout regression fails a named test, not just the build.
  EXPECT_EQ(sizeof(CoveringRow), 32u);
  EXPECT_EQ(sizeof(CoveringCol), 32u);
}

TEST(CoveringInstance, BothDirectionsIndexTheSameIncidence) {
  CoveringInstance::Builder builder(4);
  const std::vector<std::uint32_t> r0{0, 2}, r1{1, 2, 3}, r2{2};
  builder.add_row(r0, 1.0).add_row(r1, 2.0).add_row(r2, 1.0);
  const CoveringInstance ci =
      std::move(builder).build_degree_capacities();

  ASSERT_EQ(ci.row_count(), 3u);
  ASSERT_EQ(ci.col_count(), 4u);
  EXPECT_EQ(ci.entry_count(), 6u);

  EXPECT_EQ(std::vector<std::uint32_t>(ci.cols_of(1).begin(),
                                       ci.cols_of(1).end()),
            r1);
  // Transpose: column 2 is in every row, column 0 only in row 0.
  EXPECT_EQ(std::vector<std::uint32_t>(ci.rows_of(2).begin(),
                                       ci.rows_of(2).end()),
            (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(std::vector<std::uint32_t>(ci.rows_of(0).begin(),
                                       ci.rows_of(0).end()),
            (std::vector<std::uint32_t>{0}));

  // Degree-capacity binding: capacity == degree, flat span matches.
  EXPECT_EQ(ci.col_capacity(2), 3);
  EXPECT_EQ(ci.col_degree(2), 3u);
  EXPECT_EQ(ci.capacities()[2], 3);
  EXPECT_EQ(ci.max_capacity(), 3);
  EXPECT_FALSE(ci.unit_costs());
  EXPECT_DOUBLE_EQ(ci.total_cost(), 4.0);
}

TEST(CoveringInstance, ExplicitCapacitiesBinding) {
  CoveringInstance::Builder builder(2);
  builder.add_row(std::vector<std::uint32_t>{0, 1}, 1.0);
  const std::vector<std::int64_t> caps{5, 7};
  const CoveringInstance ci =
      std::move(builder).build_with_capacities(caps);
  EXPECT_EQ(ci.col_capacity(0), 5);
  EXPECT_EQ(ci.col_capacity(1), 7);
  EXPECT_EQ(ci.max_capacity(), 7);
}

TEST(CoveringInstance, BuilderRejectsBadRows) {
  CoveringInstance::Builder b1(2);
  EXPECT_THROW(b1.add_row(std::vector<std::uint32_t>{}, 1.0),
               InvalidArgument);
  EXPECT_THROW(b1.add_row(std::vector<std::uint32_t>{2}, 1.0),
               InvalidArgument);  // column out of range
  EXPECT_THROW(b1.add_row(std::vector<std::uint32_t>{1, 0}, 1.0),
               InvalidArgument);  // unsorted
  EXPECT_THROW(b1.add_row(std::vector<std::uint32_t>{0, 0}, 1.0),
               InvalidArgument);  // duplicate
  EXPECT_THROW(b1.add_row(std::vector<std::uint32_t>{0}, 0.0),
               InvalidArgument);  // non-positive cost
  CoveringInstance::Builder empty(3);
  EXPECT_THROW(std::move(empty).build_degree_capacities(), InvalidArgument);
}

TEST(CoveringInstance, AdmissionInstanceBulkBuild) {
  Rng rng(5);
  AdmissionInstance inst =
      make_star_workload(6, 3, 40, 3, CostModel::spread(1.0, 4.0), rng);
  const CoveringInstance ci = make_covering_substrate(inst);
  ASSERT_EQ(ci.row_count(), inst.request_count());
  ASSERT_EQ(ci.col_count(), inst.graph().edge_count());
  for (RequestId i = 0; i < inst.request_count(); ++i) {
    const Request& r = inst.request(i);
    EXPECT_EQ(std::vector<EdgeId>(ci.cols_of(i).begin(), ci.cols_of(i).end()),
              r.edges);
    EXPECT_DOUBLE_EQ(ci.row_cost(i), r.cost);
    EXPECT_EQ(ci.row_must_accept(i), r.must_accept);
  }
  for (EdgeId e = 0; e < inst.graph().edge_count(); ++e) {
    EXPECT_EQ(ci.col_capacity(e), inst.graph().capacity(e));
    EXPECT_EQ(static_cast<std::int64_t>(ci.col_degree(e)),
              inst.edge_load()[e]);
  }
}

// ---------------------------------------------------------------------------
// SetSystem facade: CSR round-trip
// ---------------------------------------------------------------------------

void expect_same_system(const SetSystem& a, const SetSystem& b) {
  ASSERT_EQ(a.element_count(), b.element_count());
  ASSERT_EQ(a.set_count(), b.set_count());
  EXPECT_EQ(a.unit_costs(), b.unit_costs());
  EXPECT_DOUBLE_EQ(a.total_cost(), b.total_cost());
  for (SetId s = 0; s < a.set_count(); ++s) {
    EXPECT_EQ(std::vector<ElementId>(a.elements_of(s).begin(),
                                     a.elements_of(s).end()),
              std::vector<ElementId>(b.elements_of(s).begin(),
                                     b.elements_of(s).end()));
    EXPECT_DOUBLE_EQ(a.cost(s), b.cost(s));
  }
  for (ElementId j = 0; j < a.element_count(); ++j) {
    EXPECT_EQ(std::vector<SetId>(a.sets_of(j).begin(), a.sets_of(j).end()),
              std::vector<SetId>(b.sets_of(j).begin(), b.sets_of(j).end()));
    EXPECT_EQ(a.degree(j), b.degree(j));
  }
}

TEST(SetSystemSubstrate, CsrRoundTrip) {
  Rng rng(7);
  const SetSystem original = with_random_costs(
      random_uniform_system(14, 11, 4, 3, rng), 1.0, 8.0, rng);
  // Rebuild a SetSystem from the original's substrate (a copy of it) and
  // compare every public observable.
  const SetSystem rebuilt = SetSystem::from_substrate(
      original.element_count(), original.substrate());
  expect_same_system(original, rebuilt);
}

TEST(SetSystemSubstrate, FacadeMatchesNestedConstruction) {
  // The facade accessors must return exactly what the nested-vector input
  // described (sorted, deduplicated).
  SetSystem sys(4, {{2, 0, 2}, {1, 3}, {3, 1, 0}}, {2.0, 1.0, 4.0});
  EXPECT_EQ(std::vector<ElementId>(sys.elements_of(0).begin(),
                                   sys.elements_of(0).end()),
            (std::vector<ElementId>{0, 2}));
  EXPECT_EQ(std::vector<SetId>(sys.sets_of(3).begin(), sys.sets_of(3).end()),
            (std::vector<SetId>{1, 2}));
  EXPECT_EQ(sys.degree(0), 2u);
  EXPECT_DOUBLE_EQ(sys.cost(2), 4.0);
  EXPECT_DOUBLE_EQ(sys.total_cost(), 7.0);
  EXPECT_FALSE(sys.unit_costs());
  // Degree-capacity identity on the substrate (the §4 invariant).
  for (ElementId j = 0; j < 4; ++j) {
    EXPECT_EQ(sys.substrate().col_capacity(j),
              static_cast<std::int64_t>(sys.degree(j)));
  }
}

TEST(SetSystemSubstrate, FromSubstrateRejectsNonDegreeCapacities) {
  CoveringInstance::Builder builder(2);
  builder.add_row(std::vector<std::uint32_t>{0, 1}, 1.0);
  const std::vector<std::int64_t> caps{5, 7};  // not the degrees
  CoveringInstance ci = std::move(builder).build_with_capacities(caps);
  EXPECT_THROW(SetSystem::from_substrate(2, std::move(ci)), InvalidArgument);
}

// ---------------------------------------------------------------------------
// ReductionView vs the materialized reduction: structure
// ---------------------------------------------------------------------------

TEST(ReductionView, MirrorsMaterializedReduction) {
  Rng rng(11);
  const SetSystem sys = with_random_costs(
      random_uniform_system(10, 8, 3, 2, rng), 1.0, 4.0, rng);
  const ReductionView view(sys);
  const ReductionInstance mat = build_reduction(sys);

  ASSERT_EQ(view.edge_count(), mat.graph.edge_count());
  ASSERT_EQ(view.phase1_count(), mat.phase1.size());
  for (EdgeId e = 0; e < view.edge_count(); ++e) {
    EXPECT_EQ(view.capacity(e), mat.graph.capacity(e));
  }
  for (SetId s = 0; s < view.phase1_count(); ++s) {
    EXPECT_EQ(std::vector<EdgeId>(view.phase1_edges(s).begin(),
                                  view.phase1_edges(s).end()),
              mat.phase1[s].edges);
    EXPECT_DOUBLE_EQ(view.phase1_cost(s), mat.phase1[s].cost);
    EXPECT_FALSE(mat.phase1[s].must_accept);
  }
  for (ElementId j = 0; j < view.edge_count(); ++j) {
    const Request a = view.element_request(j);
    const Request b = mat.element_request(j);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_TRUE(a.must_accept);
    EXPECT_EQ(a.must_accept, b.must_accept);
    EXPECT_EQ(std::vector<EdgeId>(view.element_edges(j).begin(),
                                  view.element_edges(j).end()),
              (std::vector<EdgeId>{j}));
  }
  // The view's realized star graph is the materialized graph.
  test::expect_same_graph(view.star_graph(), mat.graph);
}

TEST(ReductionView, RejectsZeroDegreeElements) {
  SetSystem sys(3, {{0}, {1}});  // element 2 uncovered
  EXPECT_THROW(ReductionView{sys}, InvalidArgument);
  EXPECT_THROW(build_reduction(sys), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Decision identity: view-backed FractionalSetCover vs the materialized
// reduction
// ---------------------------------------------------------------------------

/// Runs the same arrival sequence through FractionalSetCover (bound to the
/// substrate through ReductionView) and through the oracle built here from
/// the materialized reduction — FractionalAdmission over build_reduction's
/// star graph, fed its phase-1 Request copies, then one phase-2 element
/// request per arrival — and asserts identical observable state after
/// every arrival.  Exact equality on purpose: both paths drive the same
/// engine arithmetic over the same capacities, so any divergence is a real
/// reduction bug.
void expect_view_matches_materialized(const SetSystem& sys,
                                      const std::vector<ElementId>& arrivals) {
  FractionalSetCover via_view(sys);
  const ReductionInstance red = build_reduction(sys);
  FractionalConfig cfg;
  cfg.unit_costs = sys.unit_costs();
  FractionalAdmission via_mat(red.graph, cfg);
  for (const Request& r : red.phase1) via_mat.on_request(r);
  for (std::size_t t = 0; t < arrivals.size(); ++t) {
    const ElementId j = arrivals[t];
    via_view.on_element(j);
    via_mat.on_request(red.element_request(j));
    EXPECT_DOUBLE_EQ(via_view.fractional_cost(), via_mat.fractional_cost())
        << "arrival " << t;
    EXPECT_EQ(via_view.augmentations(), via_mat.augmentations())
        << "arrival " << t;
    for (SetId s = 0; s < sys.set_count(); ++s) {
      EXPECT_DOUBLE_EQ(via_view.fraction(s),
                       via_mat.weight(static_cast<RequestId>(s)))
          << "arrival " << t << " set " << s;
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "view and materialized reduction diverged at arrival " << t;
    }
  }
}

TEST(ReductionDifferential, UnitCostRandomSystemsWithRepetitions) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(100 + seed);
    SetSystem sys = random_uniform_system(12, 9, 4, 3, rng);
    const auto arrivals = arrivals_each_k_times(12, 3, true, rng);
    expect_view_matches_materialized(sys, arrivals);
  }
}

TEST(ReductionDifferential, WeightedRandomSystems) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(200 + seed);
    SetSystem sys = with_random_costs(
        random_uniform_system(10, 8, 3, 2, rng), 1.0, 16.0, rng);
    const auto arrivals = arrivals_each_k_times(10, 2, true, rng);
    expect_view_matches_materialized(sys, arrivals);
  }
}

TEST(ReductionDifferential, ZipfArrivalsOnPowerLawSystem) {
  Rng rng(31);
  SetSystem sys = power_law_system(24, 20, 1.3, 2, rng);
  const auto arrivals = arrivals_zipf(sys, 48, 1.1, rng);
  ASSERT_FALSE(arrivals.empty());
  expect_view_matches_materialized(sys, arrivals);
}

// ---------------------------------------------------------------------------
// Decision identity: the randomized rounding layer over the view
// ---------------------------------------------------------------------------

TEST(ReductionDifferential, RandomizedRoundingMatchesMaterializedFeed) {
  // ReductionSetCover (view-backed) must take the same decisions as the
  // §3 algorithm fed the materialized reduction by hand — same star, same
  // arrival stream, same seed, so the random streams align step for step.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(300 + seed);
    SetSystem sys = random_uniform_system(12, 9, 4, 3, rng);
    const auto arrivals = arrivals_each_k_times(12, 2, true, rng);

    RandomizedConfig cfg;
    cfg.unit_costs = sys.unit_costs();
    cfg.seed = 900 + seed;
    ReductionSetCover via_view(sys, cfg);

    const ReductionInstance mat = build_reduction(sys);
    RandomizedAdmission manual(mat.graph, cfg);
    for (const Request& r : mat.phase1) manual.process(r);

    for (ElementId j : arrivals) {
      const auto added = via_view.on_element(j);
      const ArrivalResult res = manual.process(mat.element_request(j));
      std::vector<SetId> manual_added(res.preempted.begin(),
                                      res.preempted.end());
      EXPECT_EQ(added, manual_added) << "seed " << seed;
    }
    EXPECT_DOUBLE_EQ(via_view.cost(), [&] {
      double cost = 0.0;
      for (SetId s = 0; s < sys.set_count(); ++s) {
        if (!manual.is_accepted(s)) cost += sys.cost(s);
      }
      return cost;
    }());
  }
}

// ---------------------------------------------------------------------------
// Engine substrate binding: CoveringInstance vs the equivalent star graph
// ---------------------------------------------------------------------------

TEST(EngineSubstrateBinding, CoveringInstanceEqualsDegreeStarGraph) {
  Rng rng(17);
  const SetSystem sys = random_uniform_system(10, 8, 3, 2, rng);
  const Graph star = Graph::star(sys.substrate().capacities());

  static_assert(CoveringSubstrateTraits<CoveringInstance>::kCapacityIsDegree);
  static_assert(!CoveringSubstrateTraits<Graph>::kCapacityIsDegree);

  FlatFractionalEngine bound_substrate(sys.substrate(), 0.25);
  FlatFractionalEngine bound_graph(star, 0.25);
  NaiveFractionalEngine bound_naive(sys.substrate(), 0.25);

  // Phase 1 (sets as requests), then overload each element once.
  for (SetId s = 0; s < sys.set_count(); ++s) {
    const auto edges = sys.elements_of(s);
    bound_substrate.admit_existing(edges, 1.0, 1.0);
    bound_graph.admit_existing(edges, 1.0, 1.0);
    bound_naive.admit_existing(edges, 1.0, 1.0);
  }
  for (ElementId j = 0; j < sys.element_count(); ++j) {
    const EdgeId e = j;
    bound_substrate.pin({e});
    bound_graph.pin({e});
    bound_naive.pin({e});
    const auto& da = bound_substrate.restore_edges({e});
    const auto& db = bound_graph.restore_edges({e});
    const auto& dn = bound_naive.restore_edges({e});
    ASSERT_EQ(da.size(), db.size());
    ASSERT_EQ(da.size(), dn.size());
    for (std::size_t k = 0; k < da.size(); ++k) {
      EXPECT_EQ(da[k].id, db[k].id);
      EXPECT_DOUBLE_EQ(da[k].delta, db[k].delta);
      EXPECT_EQ(da[k].id, dn[k].id);
      EXPECT_DOUBLE_EQ(da[k].delta, dn[k].delta);
    }
  }
  EXPECT_DOUBLE_EQ(bound_substrate.fractional_cost(),
                   bound_graph.fractional_cost());
  EXPECT_EQ(bound_substrate.augmentations(), bound_graph.augmentations());
  EXPECT_DOUBLE_EQ(bound_substrate.fractional_cost(),
                   bound_naive.fractional_cost());
  EXPECT_EQ(bound_substrate.augmentations(), bound_naive.augmentations());
}

// ---------------------------------------------------------------------------
// Small-list fast path: behavior across the threshold crossing
// ---------------------------------------------------------------------------

TEST(SmallListFastPath, CacheStaysCoherentAcrossThresholdCrossing) {
  // Grow one edge's member list from empty to well past
  // kSmallListThreshold while killing members along the way; the public
  // alive_weight_sum must match a from-scratch rescan at every step (the
  // crossing resync of DESIGN.md §7.3).
  // Capacity just above the threshold keeps the alive membership parked
  // past it, so the list genuinely crosses into the incremental regime.
  Graph g = make_single_edge_graph(
      static_cast<std::int64_t>(FlatFractionalEngine::kSmallListThreshold) +
      16);
  FlatFractionalEngine flat(g, 0.25);
  NaiveFractionalEngine naive(g, 0.25);
  const std::size_t total = 4 * FlatFractionalEngine::kSmallListThreshold;
  for (std::size_t i = 0; i < total; ++i) {
    flat.arrive({0}, 1.0, 1.0);
    naive.arrive({0}, 1.0, 1.0);
    double rescan = 0.0;
    for (RequestId r = 0; r < flat.request_count(); ++r) {
      if (!flat.fully_rejected(r) && !flat.is_pinned(r)) {
        rescan += flat.weight(r);
      }
    }
    EXPECT_NEAR(flat.alive_weight_sum(0), rescan, 1e-9) << "arrival " << i;
    EXPECT_NEAR(flat.alive_weight_sum(0), naive.alive_weight_sum(0), 1e-9);
    EXPECT_EQ(flat.augmentations(), naive.augmentations()) << "arrival " << i;
    EXPECT_EQ(flat.alive_requests(0), naive.alive_requests(0));
  }
  // The run must actually have exercised both regimes.
  EXPECT_GT(flat.member_list_size(0),
            FlatFractionalEngine::kSmallListThreshold);
}

TEST(SmallListFastPath, WeightedDifferentialAcrossCrossing) {
  // Weighted burst whose member list oscillates around the threshold
  // (deaths shrink it, arrivals regrow it): flat must stay bit-identical
  // to the naive reference through every small↔large transition.
  Rng rng(23);
  AdmissionInstance inst = make_single_edge_burst(
      static_cast<std::int64_t>(FlatFractionalEngine::kSmallListThreshold),
      6 * FlatFractionalEngine::kSmallListThreshold,
      CostModel::spread(1.0, 8.0), rng);
  FlatFractionalEngine flat(inst.graph(), 0.05);
  NaiveFractionalEngine naive(inst.graph(), 0.05);
  for (const Request& r : inst.requests()) {
    const auto& df = flat.arrive(r.edges, r.cost, r.cost);
    const auto& dn = naive.arrive(r.edges, r.cost, r.cost);
    ASSERT_EQ(df.size(), dn.size());
    for (std::size_t k = 0; k < df.size(); ++k) {
      EXPECT_EQ(df[k].id, dn[k].id);
      EXPECT_DOUBLE_EQ(df[k].delta, dn[k].delta);
    }
  }
  EXPECT_DOUBLE_EQ(flat.fractional_cost(), naive.fractional_cost());
  EXPECT_EQ(flat.augmentations(), naive.augmentations());
}

// ---------------------------------------------------------------------------
// Augmentation budget guard (sim/runner.h)
// ---------------------------------------------------------------------------

TEST(AugmentationBudget, SurfacedInRunsAndScalesWithInstance) {
  EXPECT_GT(augmentation_step_budget(1000, 64, 8),
            augmentation_step_budget(1000, 1, 1));
  Rng rng(41);
  SetSystem sys = random_uniform_system(10, 8, 3, 2, rng);
  ReductionSetCover alg(sys);
  const auto arrivals = arrivals_each_once(10, rng);
  const CoverRun run = run_setcover(alg, arrivals);
  EXPECT_GT(run.augmentation_budget, 0u);
  EXPECT_FALSE(run.augmentation_budget_exceeded);
  EXPECT_LE(run.augmentation_steps, run.augmentation_budget);
  EXPECT_EQ(run.budget_crossing_arrival, kBudgetNeverCrossed);
}

// Rejects everything and reports a fixed number of augmentation steps per
// arrival, so the exact arrival at which a run crosses its budget is a
// closed-form function of the budget — the deterministic probe the
// crossing-context test needs.
class FixedStepAlgorithm final : public OnlineAdmissionAlgorithm {
 public:
  FixedStepAlgorithm(const Graph& graph, std::uint64_t steps_per_arrival)
      : OnlineAdmissionAlgorithm(graph), per_arrival_(steps_per_arrival) {}
  std::string name() const override { return "fixed-step stub"; }
  std::uint64_t augmentation_steps() const noexcept override {
    return per_arrival_ * arrivals();
  }

 protected:
  ArrivalResult handle(RequestId, const Request&) override {
    return {false, {}};
  }

 private:
  std::uint64_t per_arrival_;
};

TEST(AugmentationBudget, CrossingContextRecordedInRuns) {
  Rng rng(7);
  const AdmissionInstance instance =
      make_single_edge_burst(1, 10, CostModel::unit_costs(), rng);
  const std::uint64_t budget = augmentation_step_budget(10, 1, 1);
  constexpr std::uint64_t kStepsPerArrival = 100;
  ASSERT_GT(budget, kStepsPerArrival);           // crossing happens mid-run
  ASSERT_LT(budget, 10 * kStepsPerArrival);      // ... but does happen
  // After arrival i the stub reports 100·(i+1) steps, so the first index
  // past the budget is budget / 100.
  const auto expect_crossing = static_cast<std::size_t>(budget / kStepsPerArrival);

  FixedStepAlgorithm alg(instance.graph(), kStepsPerArrival);
  const AdmissionRun run = run_admission(alg, instance);
  EXPECT_TRUE(run.augmentation_budget_exceeded);
  EXPECT_EQ(run.augmentation_budget, budget);
  EXPECT_EQ(run.augmentation_steps, 10 * kStepsPerArrival);
  EXPECT_EQ(run.budget_crossing_arrival, expect_crossing);
  EXPECT_EQ(run.budget_crossing_edge, 0u);  // the burst's only edge
}

TEST(AugmentationBudget, WarningMessageCarriesFullContext) {
  const std::string msg = augmentation_budget_warning(
      600, 507, 5, 10, 3, "edge", "capacity regime hint");
  EXPECT_NE(msg.find("600 steps"), std::string::npos) << msg;
  EXPECT_NE(msg.find("budget 507"), std::string::npos) << msg;
  EXPECT_NE(msg.find("arrival 5 of 10"), std::string::npos) << msg;
  EXPECT_NE(msg.find("edge 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("capacity regime hint"), std::string::npos) << msg;

  // Defensive path: a run can exceed in total without any single probe
  // having seen the crossing (e.g. options recorded no context) — the
  // crossing clause is simply omitted.
  const std::string no_ctx = augmentation_budget_warning(
      600, 507, kBudgetNeverCrossed, 10, 0, "edge", "hint");
  EXPECT_EQ(no_ctx.find("arrival"), std::string::npos) << no_ctx;
  EXPECT_NE(no_ctx.find("600 steps"), std::string::npos) << no_ctx;
}

}  // namespace
}  // namespace minrej
