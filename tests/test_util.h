// test_util.h — shared support for the minrej test suites.
//
// Centralizes what suites used to re-derive locally:
//   * COST_TOLERANCE — the single numeric tolerance for cost/weight
//     comparisons (suites previously hard-coded 1e-9 in dozens of places);
//   * SeededTest — a fixture whose Rng always starts from one documented
//     seed, so a failing test reproduces from its name alone;
//   * small instance builders wrapping graph/generators, sim/workloads and
//     setcover/generators with suite-sized defaults;
//   * deep-equality helpers for instances (used by the io round-trip and
//     determinism tests);
//   * SequentialReplay — the AdmissionService determinism reference.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/online_admission.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/request.h"
#include "service/admission_service.h"
#include "setcover/generators.h"
#include "setcover/instance.h"
#include "setcover/set_system.h"
#include "sim/workloads.h"
#include "util/rng.h"

namespace minrej {
namespace test {

/// Single numeric tolerance for cost/weight comparisons across the suites.
inline constexpr double COST_TOLERANCE = 1e-9;

/// Fixture providing a deterministically seeded Rng.  Tests needing a
/// second stream with the same start state call fresh_rng().
class SeededTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kSeed = 0x5EEDC0DEULL;

  static Rng fresh_rng(std::uint64_t seed = kSeed) { return Rng(seed); }

  Rng rng{kSeed};
};

// ---------------------------------------------------------------------------
// Instance builders
// ---------------------------------------------------------------------------

/// Line-graph admission workload with spread costs, sized to overload a few
/// edges without making any suite slow.
inline AdmissionInstance small_line_instance(Rng& rng, std::size_t edges = 8,
                                             std::int64_t capacity = 3,
                                             std::size_t requests = 40) {
  return make_line_workload(edges, capacity, requests, /*min_len=*/1,
                            /*max_len=*/4, CostModel::spread(1.0, 8.0), rng);
}

/// Admission instance with a graph but no requests at all.
inline AdmissionInstance empty_admission_instance() {
  return AdmissionInstance(make_line_graph(2, 1), {});
}

/// Random multicover instance with non-unit costs where every element
/// arrives once.
inline CoverInstance small_cover_instance(Rng& rng, std::size_t elements = 12,
                                          std::size_t sets = 20) {
  SetSystem system = with_random_costs(
      random_uniform_system(elements, sets, /*set_size=*/4, /*min_degree=*/2,
                            rng),
      1.0, 10.0, rng);
  return CoverInstance(std::move(system), arrivals_each_once(elements, rng));
}

/// Cover instance with a set system but an empty arrival sequence.
inline CoverInstance empty_cover_instance() {
  return CoverInstance(dyadic_interval_system(4), {});
}

// ---------------------------------------------------------------------------
// Deep-equality helpers
// ---------------------------------------------------------------------------

inline void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t e = 0; e < a.edge_count(); ++e) {
    EXPECT_EQ(a.edges()[e].from, b.edges()[e].from) << "edge " << e;
    EXPECT_EQ(a.edges()[e].to, b.edges()[e].to) << "edge " << e;
    EXPECT_EQ(a.edges()[e].capacity, b.edges()[e].capacity) << "edge " << e;
  }
}

inline void expect_same_instance(const AdmissionInstance& a,
                                 const AdmissionInstance& b) {
  expect_same_graph(a.graph(), b.graph());
  ASSERT_EQ(a.request_count(), b.request_count());
  for (std::size_t i = 0; i < a.request_count(); ++i) {
    const Request& ra = a.requests()[i];
    const Request& rb = b.requests()[i];
    EXPECT_EQ(ra.edges, rb.edges) << "request " << i;
    // The text format round-trips doubles exactly (max_digits10), so
    // equality here is bit-exact, not tolerance-based.
    EXPECT_DOUBLE_EQ(ra.cost, rb.cost) << "request " << i;
    EXPECT_EQ(ra.must_accept, rb.must_accept) << "request " << i;
  }
}

inline void expect_same_instance(const CoverInstance& a,
                                 const CoverInstance& b) {
  const SetSystem& sa = a.system();
  const SetSystem& sb = b.system();
  ASSERT_EQ(sa.element_count(), sb.element_count());
  ASSERT_EQ(sa.set_count(), sb.set_count());
  for (std::size_t s = 0; s < sa.set_count(); ++s) {
    const auto ma = sa.elements_of(static_cast<SetId>(s));
    const auto mb = sb.elements_of(static_cast<SetId>(s));
    EXPECT_EQ(std::vector<ElementId>(ma.begin(), ma.end()),
              std::vector<ElementId>(mb.begin(), mb.end()))
        << "set " << s;
    EXPECT_DOUBLE_EQ(sa.cost(static_cast<SetId>(s)),
                     sb.cost(static_cast<SetId>(s)))
        << "set " << s;
  }
  EXPECT_EQ(a.arrivals(), b.arrivals());
}


// ---------------------------------------------------------------------------
// Service determinism reference
// ---------------------------------------------------------------------------

/// What AdmissionService must reproduce for every worker count (DESIGN.md
/// §11.2): one fresh factory-built algorithm per shard, fed that shard's
/// routed subsequence of `requests` in arrival order on the calling
/// thread.  `shard_of(i)` names the shard arrival i is routed to, or kSkip
/// for an arrival that never reached an algorithm (shed, malformed,
/// voided).
class SequentialReplay {
 public:
  static constexpr std::size_t kSkip = static_cast<std::size_t>(-1);

  SequentialReplay(const Graph& graph, const ShardAlgorithmFactory& factory,
                   std::size_t shard_count, std::span<const Request> requests,
                   const std::function<std::size_t(std::size_t)>& shard_of) {
    for (std::size_t s = 0; s < shard_count; ++s) {
      shards_.push_back(factory(graph, s));
    }
    placement_.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::size_t s = shard_of(i);
      if (s == kSkip) {
        placement_.emplace_back(kSkip, kInvalidId);
        continue;
      }
      placement_.emplace_back(
          s, static_cast<RequestId>(shards_.at(s)->arrivals()));
      shards_[s]->process(requests[i]);
    }
  }

  std::size_t shard_count() const { return shards_.size(); }
  const OnlineAdmissionAlgorithm& shard(std::size_t s) const {
    return *shards_.at(s);
  }
  /// (shard, shard-local id) of arrival i; (kSkip, kInvalidId) if skipped.
  std::pair<std::size_t, RequestId> placement(std::size_t i) const {
    return placement_.at(i);
  }
  /// Final acceptance state of arrival i (false for a skipped arrival).
  bool is_accepted(std::size_t i) const {
    const auto [s, local] = placement_.at(i);
    return s != kSkip && shards_[s]->is_accepted(local);
  }

 private:
  std::vector<std::unique_ptr<OnlineAdmissionAlgorithm>> shards_;
  std::vector<std::pair<std::size_t, RequestId>> placement_;
};

}  // namespace test
}  // namespace minrej
