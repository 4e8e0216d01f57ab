// Tests for src/service: shard routing, the batch pump, sharded-vs-
// unsharded identity on shard-disjoint instances (DESIGN.md §6.1), and
// stat aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/randomized_admission.h"
#include "core/simd_sweep.h"
#include "service/admission_service.h"
#include "sim/workloads.h"
#include "test_util.h"
#include "util/rng.h"

// Every byte this binary requests through global operator new (array and
// nothrow forms forward here; over-aligned forms are not counted), from
// any thread.  Lets a test bound what a code path allocates by counting
// bytes instead of timing it.
namespace {
std::atomic<std::uint64_t> g_new_bytes{0};
}  // namespace

// Not inlined: GCC would otherwise see malloc() and free() at the call
// sites of new and delete expressions and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace minrej {
namespace {

/// Deterministic engine-backed configuration: the §3 algorithm with the
/// random rejection step disabled.  Every decision is then a function of
/// the fractional weights alone, which evolve per-edge-locally, so on a
/// shard-disjoint instance the sharded and unsharded trajectories must be
/// bit-identical (the §6.1 partitioning invariant).
ShardAlgorithmFactory deterministic_unit_factory() {
  return [](const Graph& graph, std::size_t) {
    RandomizedConfig cfg;
    cfg.unit_costs = true;
    cfg.step3_random = false;
    return std::make_unique<RandomizedAdmission>(graph, cfg);
  };
}

/// The weighted form of the above: the doubling schedule could couple
/// disjoint edges through a shared α, so α is fixed (DESIGN.md §6.1).
ShardAlgorithmFactory deterministic_fixed_alpha_factory() {
  return [](const Graph& graph, std::size_t) {
    RandomizedConfig cfg;
    cfg.step3_random = false;
    cfg.seed = 7;
    cfg.fractional.fixed_alpha = 8.0;
    return std::make_unique<RandomizedAdmission>(graph, cfg);
  };
}

ShardAlgorithmFactory greedy_factory() {
  return [](const Graph& graph, std::size_t) {
    return std::make_unique<GreedyNoPreempt>(graph);
  };
}

ShardAlgorithmFactory preempt_cheapest_factory() {
  return [](const Graph& graph, std::size_t) {
    return std::make_unique<PreemptCheapest>(graph);
  };
}

/// Runs the instance through a service and returns the final per-arrival
/// acceptance states.
std::vector<bool> final_decisions(AdmissionService& service,
                                  const AdmissionInstance& instance) {
  service.run(instance);
  std::vector<bool> accepted(instance.request_count());
  for (std::size_t i = 0; i < instance.request_count(); ++i) {
    accepted[i] = service.is_accepted(i);
  }
  return accepted;
}

void expect_identical_runs(const AdmissionInstance& instance,
                           const ShardAlgorithmFactory& factory,
                           const ServiceConfig& sharded_cfg) {
  AdmissionService sharded(instance.graph(), factory, sharded_cfg);
  ServiceConfig unsharded_cfg = sharded_cfg;
  unsharded_cfg.shards = 1;
  unsharded_cfg.partition = nullptr;
  AdmissionService unsharded(instance.graph(), factory, unsharded_cfg);
  const std::vector<bool> a = final_decisions(sharded, instance);
  const std::vector<bool> b = final_decisions(unsharded, instance);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "arrival " << i;
  }
  const ServiceStats sa = sharded.aggregate();
  const ServiceStats sb = unsharded.aggregate();
  EXPECT_EQ(sa.accepted, sb.accepted);
  EXPECT_EQ(sa.rejected, sb.rejected);
  // Decisions are bitwise identical; the aggregate cost is the same
  // multiset of request costs summed in per-shard instead of arrival
  // order, so it matches up to floating-point reassociation (DESIGN.md
  // §6.2) — exactly equal in the unit-cost scenarios.
  EXPECT_NEAR(sa.rejected_cost, sb.rejected_cost,
              test::COST_TOLERANCE * std::max(1.0, sb.rejected_cost));
  EXPECT_EQ(sa.augmentation_steps, sb.augmentation_steps);
}

// ---------------------------------------------------------------------------
// Shard routing
// ---------------------------------------------------------------------------

TEST(ShardRouting, HashPartitionIsStableAndInRange) {
  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    for (EdgeId e = 0; e < 100; ++e) {
      const std::size_t s = AdmissionService::hash_edge_to_shard(e, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, AdmissionService::hash_edge_to_shard(e, shards));
    }
  }
}

TEST(ShardRouting, HashPartitionSpreadsConsecutiveEdges) {
  // The Zipf head lives at low edge ids; a partition that clusters them in
  // one shard defeats the point of sharding skewed traffic.
  const std::size_t shards = 4;
  std::vector<std::size_t> hits(shards, 0);
  for (EdgeId e = 0; e < 64; ++e) {
    ++hits[AdmissionService::hash_edge_to_shard(e, shards)];
  }
  for (const std::size_t h : hits) {
    EXPECT_GT(h, 4u);   // no shard starves...
    EXPECT_LT(h, 40u);  // ...and none hoards.
  }
}

TEST(ShardRouting, PartitionOverrideIsRespected) {
  Rng rng(3);
  const AdmissionInstance inst = make_multi_tenant_workload(
      4, 4, 2, 40, 2, 1.0, CostModel::unit_costs(), rng);
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.partition = [](EdgeId e) { return static_cast<std::size_t>(e) / 4; };
  AdmissionService service(inst.graph(), greedy_factory(), cfg);
  for (EdgeId e = 0; e < inst.graph().edge_count(); ++e) {
    EXPECT_EQ(service.shard_of_edge(e), e / 4);
  }
  // Requests route to the shard of their first (lowest) edge.
  for (const Request& r : inst.requests()) {
    EXPECT_EQ(service.shard_of_request(r), r.edges.front() / 4);
  }
}

TEST(ShardRouting, OutOfRangePartitionThrows) {
  Rng rng(4);
  const AdmissionInstance inst =
      make_dense_burst_workload(8, 2, 16, CostModel::unit_costs(), rng);
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.partition = [](EdgeId) { return std::size_t{7}; };
  // The out-of-range mapping is now caught at construction (the partition
  // is validated over every edge), not lazily on the first routed request.
  EXPECT_THROW(AdmissionService(inst.graph(), greedy_factory(), cfg),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Construction contracts
// ---------------------------------------------------------------------------

TEST(ServiceContracts, RejectsBadConfigAndFactories) {
  Rng rng(5);
  const AdmissionInstance inst =
      make_dense_burst_workload(8, 2, 16, CostModel::unit_costs(), rng);
  ServiceConfig zero_shards;
  zero_shards.shards = 0;
  EXPECT_THROW(
      AdmissionService(inst.graph(), greedy_factory(), zero_shards),
      InvalidArgument);
  // The factory must build on the service graph, not a private copy: the
  // shards share the topology so per-shard guarantees refer to the same
  // m and c.
  const auto rogue_graph =
      std::make_shared<Graph>(make_star_graph(8, 2));
  EXPECT_THROW(AdmissionService(
                   inst.graph(),
                   [rogue_graph](const Graph&, std::size_t) {
                     return std::make_unique<GreedyNoPreempt>(*rogue_graph);
                   },
                   ServiceConfig{}),
               InvalidArgument);
}

TEST(ServiceContracts, ShardTaskExceptionsPropagate) {
  Rng rng(6);
  const AdmissionInstance inst =
      make_dense_burst_workload(8, 2, 16, CostModel::unit_costs(), rng);
  ServiceConfig cfg;
  cfg.shards = 2;
  AdmissionService service(inst.graph(), greedy_factory(), cfg);
  // An out-of-range edge id passes routing (any id hashes somewhere) but
  // fails validation inside the shard's process(); the pump must surface
  // that error, not swallow it in a worker.
  const std::vector<Request> poison{Request({3, 200}, 1.0)};
  EXPECT_THROW(service.submit_batch(poison), InvalidArgument);
  // The unprocessed arrival's placement is voided — is_accepted refuses
  // to answer for it instead of aliasing a later request...
  ASSERT_EQ(service.arrivals(), 1u);
  EXPECT_EQ(service.placement(0).second, kInvalidId);
  EXPECT_THROW(service.is_accepted(0), InvalidArgument);
  // ...and the service stays usable: a healthy follow-up batch processes
  // normally and maps to fresh, non-aliased local ids.
  const std::vector<Request> good{Request({3}, 1.0), Request({5}, 1.0)};
  const std::vector<bool> accepted = service.submit_batch(good);
  EXPECT_EQ(accepted, (std::vector<bool>{true, true}));
  EXPECT_TRUE(service.is_accepted(1));
  EXPECT_TRUE(service.is_accepted(2));
  EXPECT_THROW(service.is_accepted(0), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Sharded ≡ unsharded on shard-disjoint instances (DESIGN.md §6.1)
// ---------------------------------------------------------------------------

class ShardIdentity : public test::SeededTest {};

TEST_F(ShardIdentity, EngineBackedDeterministicOnDenseBurst) {
  // Single-edge requests: disjoint under any partition.  The deterministic
  // engine-backed configuration must be bit-identical sharded/unsharded.
  ScenarioParams params;
  params.requests = 3000;
  params.edges = 16;
  const AdmissionInstance inst = make_scenario("dense_burst", params, rng);
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.batch = 128;
  expect_identical_runs(inst, deterministic_unit_factory(), cfg);
}

TEST_F(ShardIdentity, EngineBackedDeterministicOnDiurnal) {
  const AdmissionInstance inst = make_diurnal_workload(
      16, 20, 2000, 2.0, 2, CostModel::unit_costs(), rng);
  ServiceConfig cfg;
  cfg.shards = 3;
  cfg.batch = 64;
  expect_identical_runs(inst, deterministic_unit_factory(), cfg);
}

TEST_F(ShardIdentity, GreedyBaselineOnDenseBurst) {
  ScenarioParams params;
  params.requests = 2000;
  params.edges = 8;
  const AdmissionInstance inst = make_scenario("dense_burst", params, rng);
  ServiceConfig cfg;
  cfg.shards = 4;
  expect_identical_runs(inst, greedy_factory(), cfg);
}

TEST_F(ShardIdentity, PreemptCheapestOnTenantAlignedMultiTenant) {
  // Multi-edge requests, but confined to tenant blocks: disjoint under the
  // tenant-aligned partition even though the hash partition would split
  // them.
  const std::size_t tenants = 4;
  const std::size_t block = 4;
  const AdmissionInstance inst = make_multi_tenant_workload(
      tenants, block, 3, 2000, 3, 1.0, CostModel::spread(1.0, 8.0), rng);
  ServiceConfig cfg;
  cfg.shards = tenants;
  cfg.batch = 100;
  cfg.partition = [block, tenants](EdgeId e) {
    return (static_cast<std::size_t>(e) / block) % tenants;
  };
  expect_identical_runs(inst, preempt_cheapest_factory(), cfg);
}

TEST_F(ShardIdentity, EngineBackedFixedAlphaOnTenantAlignedMultiTenant) {
  // The catalog multi_tenant scenario (8 tenants of 8 edges, weighted
  // costs) through the deterministic weighted engine, 4 shards holding
  // two whole tenants each.
  ScenarioParams params;
  params.requests = 3000;
  params.edges = 64;
  const AdmissionInstance inst = make_scenario("multi_tenant", params, rng);
  const std::size_t block = 8;
  const std::size_t shards = 4;
  ServiceConfig cfg;
  cfg.shards = shards;
  cfg.batch = 128;
  cfg.partition = [block, shards](EdgeId e) {
    return (static_cast<std::size_t>(e) / block) % shards;
  };
  expect_identical_runs(inst, deterministic_fixed_alpha_factory(), cfg);
}

// ---------------------------------------------------------------------------
// Batch-pump determinism
// ---------------------------------------------------------------------------

class PumpDeterminism : public test::SeededTest {};

TEST_F(PumpDeterminism, SameSeedSameDecisionsAcrossRuns) {
  ScenarioParams params;
  params.requests = 2000;
  params.edges = 16;
  const AdmissionInstance inst = make_scenario("power_law", params, rng);
  const auto factory = [](const Graph& graph, std::size_t shard) {
    RandomizedConfig cfg;
    cfg.seed = 11 + shard;
    return std::make_unique<RandomizedAdmission>(graph, cfg);
  };
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.batch = 96;
  AdmissionService first(inst.graph(), factory, cfg);
  AdmissionService second(inst.graph(), factory, cfg);
  const std::vector<bool> a = final_decisions(first, inst);
  const std::vector<bool> b = final_decisions(second, inst);
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(first.aggregate().rejected_cost,
                   second.aggregate().rejected_cost);
  EXPECT_EQ(first.aggregate().augmentation_steps,
            second.aggregate().augmentation_steps);
}

TEST_F(PumpDeterminism, DecisionsIndependentOfBatchSizeAndThreads) {
  // Batch boundaries and worker counts change scheduling, never the
  // per-shard arrival order — so final state must not move.
  ScenarioParams params;
  params.requests = 1500;
  params.edges = 16;
  const AdmissionInstance inst = make_scenario("diurnal", params, rng);
  const auto factory = [](const Graph& graph, std::size_t shard) {
    RandomizedConfig cfg;
    cfg.seed = 3 + shard;
    return std::make_unique<RandomizedAdmission>(graph, cfg);
  };
  std::vector<std::vector<bool>> outcomes;
  for (const auto& [batch, threads] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {64, 2}, {512, 4}, {5000, 1}}) {
    ServiceConfig cfg;
    cfg.shards = 4;
    cfg.batch = batch;
    cfg.threads = threads;
    AdmissionService service(inst.graph(), factory, cfg);
    outcomes.push_back(final_decisions(service, inst));
  }
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i], outcomes.front()) << "variant " << i;
  }
}

// ---------------------------------------------------------------------------
// Stats aggregation
// ---------------------------------------------------------------------------

class ServiceStatsTest : public test::SeededTest {};

TEST_F(ServiceStatsTest, AggregateMatchesShardSums) {
  ScenarioParams params;
  params.requests = 2000;
  params.edges = 16;
  const AdmissionInstance inst = make_scenario("dense_burst", params, rng);
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.collect_latencies = true;
  AdmissionService service(inst.graph(), deterministic_unit_factory(), cfg);
  const ServiceStats total = service.run(inst);

  std::size_t arrivals = 0, accepted = 0, rejected = 0, latencies = 0;
  double rejected_cost = 0.0;
  std::uint64_t augmentations = 0;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    const ShardStats shard = service.shard_stats(s);
    EXPECT_EQ(shard.shard, s);
    EXPECT_EQ(shard.accepted + shard.rejected, shard.arrivals);
    EXPECT_EQ(shard.latencies_s.size(), shard.arrivals);
    arrivals += shard.arrivals;
    accepted += shard.accepted;
    rejected += shard.rejected;
    rejected_cost += shard.rejected_cost;
    augmentations += shard.augmentation_steps;
    latencies += shard.latencies_s.size();
  }
  EXPECT_EQ(total.arrivals, inst.request_count());
  EXPECT_EQ(total.arrivals, arrivals);
  EXPECT_EQ(total.accepted, accepted);
  EXPECT_EQ(total.rejected, rejected);
  EXPECT_DOUBLE_EQ(total.rejected_cost, rejected_cost);
  EXPECT_EQ(total.augmentation_steps, augmentations);
  EXPECT_EQ(latencies, inst.request_count());
  // Latency quantiles come from real timings: ordered and positive.
  EXPECT_GT(total.p50_arrival_s, 0.0);
  EXPECT_LE(total.p50_arrival_s, total.p95_arrival_s);
  EXPECT_LE(total.p95_arrival_s, total.max_arrival_s);
  EXPECT_GT(total.seconds, 0.0);
  EXPECT_GT(total.max_shard_busy_s, 0.0);
}

TEST_F(ServiceStatsTest, PlacementTracksOwningShardAndLocalOrder) {
  ScenarioParams params;
  params.requests = 400;
  params.edges = 8;
  const AdmissionInstance inst = make_scenario("dense_burst", params, rng);
  ServiceConfig cfg;
  cfg.shards = 3;
  cfg.batch = 64;
  AdmissionService service(inst.graph(), greedy_factory(), cfg);
  service.run(inst);
  ASSERT_EQ(service.arrivals(), inst.request_count());
  std::vector<RequestId> next_local(3, 0);
  for (std::size_t i = 0; i < service.arrivals(); ++i) {
    const auto [shard, local] = service.placement(i);
    EXPECT_EQ(shard, service.shard_of_request(inst.requests()[i]));
    // Shard-local ids are assigned in global arrival order.
    EXPECT_EQ(local, next_local[shard]);
    ++next_local[shard];
  }
  EXPECT_THROW(service.placement(service.arrivals()), InvalidArgument);
  EXPECT_THROW(service.is_accepted(service.arrivals()), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Concurrent pump (ring workers) — DESIGN.md §11
// ---------------------------------------------------------------------------

class ConcurrentPump : public test::SeededTest {};

/// The sequential replay of `requests` under the service's own routing.
test::SequentialReplay routed_replay(const AdmissionService& service,
                                     const Graph& graph,
                                     const ShardAlgorithmFactory& factory,
                                     std::span<const Request> requests) {
  return test::SequentialReplay(
      graph, factory, service.shard_count(), requests,
      [&](std::size_t i) { return service.shard_of_request(requests[i]); });
}

TEST_F(ConcurrentPump, BitIdenticalAcrossWorkerCountsSeedsAndScenarios) {
  // The §11.2 contract: for every worker count the pump's decision stream
  // equals the sequential replay's (one algorithm per shard fed its routed
  // subsequence in arrival order), bit for bit — routing fixes each
  // shard's arrival subsequence, and each shard is consumed by exactly one
  // worker in ring order.
  for (const std::uint64_t seed : {5u, 11u, 23u}) {
    for (const char* scenario : {"dense_burst", "power_law", "diurnal"}) {
      ScenarioParams params;
      params.requests = 1200;
      params.edges = 16;
      Rng scenario_rng(seed);
      const AdmissionInstance inst =
          make_scenario(scenario, params, scenario_rng);
      const auto factory = [seed](const Graph& graph, std::size_t shard) {
        RandomizedConfig cfg;
        cfg.seed = seed + shard;
        return std::make_unique<RandomizedAdmission>(graph, cfg);
      };
      for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
        ServiceConfig cfg;
        cfg.shards = 5;
        cfg.batch = 128;
        cfg.threads = workers;
        AdmissionService rings(inst.graph(), factory, cfg);
        EXPECT_GE(rings.worker_count(), 1u);
        EXPECT_LE(rings.worker_count(), workers);
        const std::vector<bool> got = final_decisions(rings, inst);
        const test::SequentialReplay reference =
            routed_replay(rings, inst.graph(), factory, inst.requests());
        std::size_t accepted = 0;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], reference.is_accepted(i))
              << scenario << " seed " << seed << " workers " << workers
              << " arrival " << i;
          ASSERT_EQ(rings.placement(i), reference.placement(i));
          accepted += got[i] ? 1 : 0;
        }
        std::size_t rejected = 0;
        std::uint64_t steps = 0;
        for (std::size_t s = 0; s < reference.shard_count(); ++s) {
          rejected += reference.shard(s).rejected_count();
          steps += reference.shard(s).augmentation_steps();
        }
        const ServiceStats stats = rings.aggregate();
        EXPECT_EQ(stats.arrivals, inst.request_count());
        EXPECT_EQ(stats.accepted, accepted);
        EXPECT_EQ(stats.rejected, rejected);
        EXPECT_EQ(stats.augmentation_steps, steps);
      }
    }
  }
}

TEST_F(ConcurrentPump, OverfullRingBackpressuresWithoutDeadlock) {
  // One batch carrying more arrivals for a shard than its ring holds
  // (max(1024, batch) slots) forces the routing thread through the
  // full-ring wait; decisions must be unaffected.
  ScenarioParams params;
  params.requests = 5000;
  params.edges = 16;
  const AdmissionInstance inst = make_scenario("dense_burst", params, rng);
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.threads = 1;
  const ShardAlgorithmFactory factory = deterministic_unit_factory();
  AdmissionService service(inst.graph(), factory, cfg);
  const std::span<const Request> requests(inst.requests());
  service.submit_batch(requests);
  std::vector<std::size_t> per_shard(cfg.shards, 0);
  for (const Request& r : requests) ++per_shard[service.shard_of_request(r)];
  EXPECT_GT(*std::max_element(per_shard.begin(), per_shard.end()),
            std::size_t{1024});
  const test::SequentialReplay reference =
      routed_replay(service, inst.graph(), factory, requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(service.is_accepted(i), reference.is_accepted(i)) << i;
  }
}

TEST_F(ConcurrentPump, LatenciesAndPlacementsMatchSequential) {
  ScenarioParams params;
  params.requests = 600;
  params.edges = 8;
  const AdmissionInstance inst = make_scenario("dense_burst", params, rng);
  ServiceConfig cfg;
  cfg.shards = 3;
  cfg.batch = 100;
  cfg.collect_latencies = true;
  cfg.threads = 4;
  AdmissionService service(inst.graph(), deterministic_unit_factory(), cfg);
  service.run(inst);
  std::size_t latencies = 0;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    const ShardStats shard = service.shard_stats(s);
    EXPECT_EQ(shard.latencies_s.size(), shard.arrivals);
    latencies += shard.latencies_s.size();
  }
  EXPECT_EQ(latencies, inst.request_count());
  std::vector<RequestId> next_local(3, 0);
  for (std::size_t i = 0; i < service.arrivals(); ++i) {
    const auto [shard, local] = service.placement(i);
    EXPECT_EQ(shard, service.shard_of_request(inst.requests()[i]));
    EXPECT_EQ(local, next_local[shard]);
    ++next_local[shard];
  }
}

/// Accepts everything until the configured arrival, then throws on every
/// process() call — exercises the pump's shard-failure semantics without
/// the fault-tolerance layer.
class FailsAtArrival : public OnlineAdmissionAlgorithm {
 public:
  FailsAtArrival(const Graph& graph, std::size_t fail_at)
      : OnlineAdmissionAlgorithm(graph), fail_at_(fail_at) {}
  std::string name() const override { return "fails_at"; }

 protected:
  ArrivalResult handle(RequestId id, const Request& request) override {
    if (id >= fail_at_) throw std::runtime_error("scripted shard failure");
    ArrivalResult result;
    result.accepted = !would_overflow(request);
    return result;
  }

 private:
  std::size_t fail_at_;
};

TEST_F(ConcurrentPump, ShardFailureVoidsPlacementsLikeSequential) {
  // Shard 1 dies at its 10th arrival; the surviving shards must keep their
  // results, the dead shard's unprocessed arrivals must be voided, and the
  // error must surface on the caller.
  ScenarioParams params;
  params.requests = 500;
  params.edges = 16;
  const AdmissionInstance inst = make_scenario("dense_burst", params, rng);
  const auto factory = [](const Graph& graph, std::size_t shard) {
    return std::make_unique<FailsAtArrival>(
        graph, shard == 1 ? 10 : std::numeric_limits<std::size_t>::max());
  };
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.batch = 500;
  cfg.threads = 2;
  AdmissionService service(inst.graph(), factory, cfg);
  EXPECT_THROW(
      service.submit_batch(std::span<const Request>(inst.requests())),
      std::runtime_error);
  std::size_t voided = 0;
  for (std::size_t i = 0; i < service.arrivals(); ++i) {
    const auto [shard, local] = service.placement(i);
    if (local == kInvalidId) {
      ++voided;
      EXPECT_EQ(shard, 1u);
      EXPECT_THROW(service.is_accepted(i), InvalidArgument);
    } else {
      service.is_accepted(i);  // must not throw
    }
  }
  EXPECT_GT(voided, 0u);
  // Exactly shard 1's arrivals past its 10 processed ones are voided.
  EXPECT_EQ(service.shard_stats(1).arrivals, 10u);
}

TEST_F(ConcurrentPump, SingleArrivalCallsAllocateIndependentOfHistory) {
  // Per-call work on the routing thread must be O(batch + shards).  An
  // exact-size reserve on the placement table reallocated and copied
  // every earlier placement on each call, ~80 KB per call on average over
  // this stream.  Geometric growth measures ~194 bytes per call; the
  // budget is about twice that.
  constexpr std::size_t kCalls = 20000;
  constexpr std::uint64_t kBytesPerCallBudget = 400;
  ScenarioParams params;
  params.requests = kCalls;
  params.edges = 16;
  const AdmissionInstance inst = make_scenario("power_law", params, rng);
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.threads = 1;
  AdmissionService service(inst.graph(), greedy_factory(), cfg);
  const std::span<const Request> requests(inst.requests());
  ASSERT_EQ(requests.size(), kCalls);
  const std::uint64_t before = g_new_bytes.load();
  for (std::size_t i = 0; i < kCalls; ++i) {
    service.submit_batch(requests.subspan(i, 1));
  }
  const std::uint64_t bytes = g_new_bytes.load() - before;
  EXPECT_EQ(service.arrivals(), kCalls);
  EXPECT_LE(bytes, kBytesPerCallBudget * kCalls)
      << bytes / kCalls << " bytes per call";
}

// ---------------------------------------------------------------------------
// Decision golden: one 64-bit literal pins every catalog scenario's final
// decisions across worker counts, fault tolerance, snapshot/restore and
// sweep-kernel tiers
// ---------------------------------------------------------------------------

/// The literal every variant must reproduce.  Computed once with the
/// one-worker pump; any change to routing, the per-arrival loop, the
/// engines or the snapshot layer that moves a single decision moves it.
constexpr std::uint64_t kCatalogDecisionGolden = 0xCE0990A0B82729D1ULL;

struct GoldenVariant {
  std::size_t threads = 1;
  bool fault_tolerance = false;
  /// Snapshot at the midpoint, restore into a fresh service, continue.
  bool restore_midpoint = false;
};

std::uint64_t golden_fold(std::uint64_t hash, std::uint64_t value) {
  hash ^= value;
  return splitmix64(hash);
}

/// Pumps every scenario_catalog() entry (about 1,500 requests on 16
/// edges, 4 shards, randomized_shard_factory) through one service variant
/// and folds each scenario's final is_accepted bits and rejected_cost bit
/// pattern into one splitmix64 chain.
std::uint64_t catalog_decision_golden(const GoldenVariant& variant) {
  constexpr std::uint64_t kSeed = 1;
  std::uint64_t hash = 0;
  for (const ScenarioInfo& info : scenario_catalog()) {
    const std::string name = info.name;
    ScenarioParams params;
    params.requests = 1500;
    params.edges = 16;
    if (name == "adversarial_single_edge") {
      // Same bound as bench_e16_scaling: quadratic preemption churn.
      params.requests = std::min<std::size_t>(params.requests, 12000);
    }
    Rng rng(kSeed);
    const AdmissionInstance inst = make_scenario(name, params, rng);
    const ShardAlgorithmFactory factory =
        randomized_shard_factory(all_unit_costs(inst), kSeed);
    ServiceConfig cfg;
    cfg.shards = 4;
    cfg.batch = 256;
    cfg.threads = variant.threads;
    cfg.fault_tolerance.enabled = variant.fault_tolerance;
    const std::span<const Request> requests(inst.requests());
    const std::size_t mid =
        variant.restore_midpoint ? requests.size() / 2 : requests.size();
    auto service =
        std::make_unique<AdmissionService>(inst.graph(), factory, cfg);
    const auto pump = [&](std::size_t from, std::size_t to) {
      for (std::size_t i = from; i < to; i += cfg.batch) {
        service->submit_batch(
            requests.subspan(i, std::min(cfg.batch, to - i)));
      }
    };
    pump(0, mid);
    if (variant.restore_midpoint) {
      const std::vector<std::uint8_t> blob = service->snapshot();
      service = std::make_unique<AdmissionService>(inst.graph(), factory, cfg);
      service->restore(blob);
      pump(mid, requests.size());
    }
    EXPECT_EQ(service->arrivals(), requests.size()) << name;
    for (std::size_t i = 0; i < service->arrivals(); ++i) {
      hash = golden_fold(hash, service->is_accepted(i) ? 1 : 0);
    }
    hash = golden_fold(
        hash, std::bit_cast<std::uint64_t>(service->aggregate().rejected_cost));
  }
  return hash;
}

TEST(DecisionGolden, CatalogDecisionsMatchPinnedLiteral) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(catalog_decision_golden({threads, false, false}),
              kCatalogDecisionGolden)
        << "threads " << threads;
  }
  EXPECT_EQ(catalog_decision_golden({2, true, false}), kCatalogDecisionGolden)
      << "fault tolerance on, no injector";
  EXPECT_EQ(catalog_decision_golden({2, false, true}), kCatalogDecisionGolden)
      << "snapshot at the midpoint, restore, continue";
  for (const simd::SweepIsa isa :
       {simd::SweepIsa::kScalar, simd::SweepIsa::kAvx2,
        simd::SweepIsa::kAvx512}) {
    // The override clamps to what this CPU supports; skip the tiers it
    // cannot run instead of re-testing the clamped one.
    if (simd::set_sweep_isa_for_tests(isa) != isa) continue;
    EXPECT_EQ(catalog_decision_golden({2, false, false}),
              kCatalogDecisionGolden)
        << "sweep tier " << simd::sweep_isa_name(isa);
  }
  simd::clear_sweep_isa_override();
}

}  // namespace
}  // namespace minrej
