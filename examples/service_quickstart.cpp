// service_quickstart — the docs/API.md "AdmissionService in five minutes"
// snippet, compiled (CI builds and runs this so the documented code cannot
// rot).  Keep this file and the API.md code block in sync.
#include <iostream>
#include <memory>

#include "core/randomized_admission.h"
#include "service/admission_service.h"
#include "sim/workloads.h"
#include "util/rng.h"

int main() {
  using namespace minrej;

  // 1. A workload from the scenario catalog (docs/SCENARIOS.md).
  Rng rng(42);
  ScenarioParams params;
  params.requests = 20000;
  params.edges = 64;
  AdmissionInstance instance = make_scenario("dense_burst", params, rng);

  // 2. A 4-shard service: each shard owns an independent §3 randomized
  //    admission algorithm on the shared graph; traffic is partitioned by
  //    edge hash and streamed in batches through per-shard ring workers.
  ServiceConfig config;
  config.shards = 4;
  config.batch = 512;
  config.collect_latencies = true;
  AdmissionService service(
      instance.graph(),
      [](const Graph& graph, std::size_t shard) {
        RandomizedConfig cfg;
        cfg.unit_costs = true;  // dense_burst is a unit-cost scenario
        cfg.seed = 1 + shard;
        return std::make_unique<RandomizedAdmission>(graph, cfg);
      },
      config);

  // 3. Pump the whole arrival sequence and read the merged stats.
  const ServiceStats stats = service.run(instance);
  std::cout << stats.arrivals << " arrivals over " << stats.shards
            << " shards: " << stats.arrivals_per_sec() << " arrivals/s, "
            << stats.accepted << " accepted, " << stats.rejected
            << " rejected (cost " << stats.rejected_cost << "), p95 "
            << stats.p95_arrival_s * 1e6 << " us\n";

  // Per-shard drill-down, e.g. to spot imbalance.
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    const ShardStats shard = service.shard_stats(s);
    std::cout << "  shard " << s << ": " << shard.arrivals << " arrivals, "
              << shard.augmentation_steps << " augmentation steps\n";
  }
  return 0;
}
