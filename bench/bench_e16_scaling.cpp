// E16 — multi-core shard-pump scaling (DESIGN.md §11, docs/SCENARIOS.md).
//
// E16 measures what the concurrent ring-worker pump actually *sustains in
// wall-clock time* on this machine.  For every catalog scenario the same
// instance is pumped at 1, 2, 4, ... persistent workers over a fixed
// shard count, and the JSON records wall throughput, speedup over the
// 1-worker run, and scaling efficiency (speedup / workers).  Each
// scenario record also reports how well the traffic *partitions*:
// partition_cp_speedup = total_busy_s / max_shard_busy_s at the 1-worker
// point, the speedup the partition allows with one core per shard
// (reported, not gated).  Two schema-driven gates ride in the file:
//
//   * seq_parity — the 1-worker ring pump must stay within 0.95x of a
//     sequential caller-thread loop (route with shard_of_request, then
//     process on per-shard factory algorithms — no pump at all) on every
//     scenario: the lock-free lanes may not tax the single-core case;
//   * the dense_burst multi-worker floors (8-worker wall speedup >= 2.5x,
//     4-worker efficiency) — gated only where the producing host has the
//     cores to show it (skip_unless hardware_concurrency, stamped into
//     the root by bench_root); on a 1-core CI box the gate prints a skip
//     note instead of a vacuous failure.
//
// Decision streams are worker-count invariant by construction (§11.2,
// pinned by service_test); this driver asserts the cheap aggregate form
// of that contract on every point so a perf number from a broken pump
// can never be published.
//
// `--json[=path]` writes BENCH_e16.json (provenance-stamped; committed at
// the repo root so the scaling trajectory is attributable).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "service/admission_service.h"
#include "sim/workloads.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/timer.h"

namespace minrej::bench {
namespace {

struct WorkerPoint {
  std::size_t workers = 0;
  ServiceStats stats;
  double speedup = 1.0;     ///< wall throughput vs the 1-worker ring run
  double efficiency = 1.0;  ///< speedup / workers
};

/// Best-of-trials run of one service configuration.
ServiceStats best_run(const AdmissionInstance& instance,
                      const ServiceConfig& cfg, bool unit,
                      std::uint64_t seed, std::size_t trials) {
  ServiceStats best;
  for (std::size_t t = 0; t < trials; ++t) {
    AdmissionService service(instance.graph(),
                             randomized_shard_factory(unit, seed), cfg);
    const ServiceStats stats = service.run(instance);
    if (t == 0 || stats.seconds < best.seconds) best = stats;
  }
  return best;
}

/// One run of the sequential reference.
struct SequentialPoint {
  double seconds = 0.0;
  std::size_t arrivals = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;

  double arrivals_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(arrivals) / seconds : 0.0;
  }
};

/// Best-of-trials sequential reference: the pump's work on the caller
/// thread with no pump — route each request with shard_of_request, then
/// process it on its shard's factory-built algorithm.  The service is
/// built only for its routing.
SequentialPoint best_sequential(const AdmissionInstance& instance,
                                const ServiceConfig& cfg, bool unit,
                                std::uint64_t seed, std::size_t trials) {
  const ShardAlgorithmFactory factory = randomized_shard_factory(unit, seed);
  const AdmissionService router(instance.graph(), factory, cfg);
  SequentialPoint best;
  for (std::size_t t = 0; t < trials; ++t) {
    std::vector<std::unique_ptr<OnlineAdmissionAlgorithm>> shards;
    for (std::size_t s = 0; s < cfg.shards; ++s) {
      shards.push_back(factory(instance.graph(), s));
    }
    Timer wall;
    for (const Request& request : instance.requests()) {
      shards[router.shard_of_request(request)]->process(request);
    }
    SequentialPoint point;
    point.seconds = wall.elapsed_s();
    point.arrivals = instance.request_count();
    for (const auto& shard : shards) point.rejected += shard->rejected_count();
    point.accepted = point.arrivals - point.rejected;
    if (t == 0 || point.seconds < best.seconds) best = point;
  }
  return best;
}

}  // namespace
}  // namespace minrej::bench

int main(int argc, char** argv) {
  using namespace minrej;
  using namespace minrej::bench;
  const CliFlags flags = CliFlags::parse(
      argc, argv,
      {"requests", "edges", "shards", "max_workers", "batch", "trials",
       "seed", "csv_dir", "json"});
  ScenarioParams params;
  params.requests = static_cast<std::size_t>(flags.get_int("requests", 60000));
  params.edges = static_cast<std::size_t>(flags.get_int("edges", 64));
  const std::size_t max_workers =
      static_cast<std::size_t>(flags.get_int("max_workers", 8));
  const std::size_t shards = static_cast<std::size_t>(
      flags.get_int("shards", static_cast<long long>(max_workers)));
  const std::size_t batch =
      static_cast<std::size_t>(flags.get_int("batch", 1024));
  const std::size_t trials =
      static_cast<std::size_t>(flags.get_int("trials", 3));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string csv_dir = flags.get_string("csv_dir", "");
  MINREJ_REQUIRE(max_workers >= 1 && trials >= 1 && shards >= max_workers,
                 "need --shards >= --max_workers >= 1 and --trials >= 1");

  std::vector<std::size_t> worker_counts;
  for (std::size_t w = 1; w <= max_workers; w *= 2) worker_counts.push_back(w);

  std::cout << "=== E16: wall-clock shard-pump scaling at " << shards
            << " shards (host threads: " << hardware_concurrency()
            << ") ===\n\n";

  Table table("E16 — wall arrivals/sec vs ring workers (best of " +
                  std::to_string(trials) + ", batch " +
                  std::to_string(batch) + ", " + std::to_string(shards) +
                  " shards; seq = sequential caller-thread loop)",
              {"scenario", "workers", "arr/s", "wall x", "efficiency",
               "seq arr/s", "seq parity", "rej cost"});

  std::vector<std::string> scenario_json;
  std::vector<std::string> scaling_json;

  for (const ScenarioInfo& info : scenario_catalog()) {
    const std::string name = info.name;
    Rng rng(seed);
    ScenarioParams scenario_params = params;
    if (name == "adversarial_single_edge") {
      // Quadratic preemption churn: bound the size (recorded in the JSON).
      scenario_params.requests = std::min<std::size_t>(params.requests, 12000);
    }
    const AdmissionInstance instance =
        make_scenario(name, scenario_params, rng);
    const bool unit = all_unit_costs(instance);

    ServiceConfig seq_cfg;
    seq_cfg.shards = shards;
    seq_cfg.batch = batch;
    seq_cfg.threads = 1;
    const SequentialPoint seq =
        best_sequential(instance, seq_cfg, unit, seed, trials);

    std::vector<WorkerPoint> points;
    for (const std::size_t workers : worker_counts) {
      ServiceConfig cfg;
      cfg.shards = shards;
      cfg.batch = batch;
      cfg.threads = workers;
      WorkerPoint point;
      point.workers = workers;
      point.stats = best_run(instance, cfg, unit, seed, trials);
      // §11.2 worker-count invariance, aggregate form: any divergence in
      // the decision stream shows up here, and a perf point from a broken
      // pump must not be emitted.
      MINREJ_CHECK(point.stats.accepted == seq.accepted &&
                       point.stats.rejected == seq.rejected,
                   "rings pump diverged from the sequential loop on " + name);
      point.speedup =
          points.empty()
              ? 1.0
              : point.stats.arrivals_per_sec() /
                    std::max(1e-12, points.front().stats.arrivals_per_sec());
      point.efficiency = point.speedup / static_cast<double>(workers);
      points.push_back(point);
    }

    const ServiceStats& one_worker = points.front().stats;
    const double seq_parity = one_worker.arrivals_per_sec() /
                              std::max(1e-12, seq.arrivals_per_sec());
    // All shards' engine time over the hottest shard's: the critical-path
    // speedup the partition allows with one core per shard (DESIGN.md
    // §6.2).  1.0 when all traffic lands in one shard.
    const double partition_cp_speedup =
        one_worker.total_busy_s /
        std::max(1e-12, one_worker.max_shard_busy_s);
    for (const WorkerPoint& p : points) {
      table.add_row({name, p.workers, Cell(p.stats.arrivals_per_sec(), 0),
                     Cell(p.speedup, 2), Cell(p.efficiency, 2),
                     Cell(seq.arrivals_per_sec(), 0), Cell(seq_parity, 3),
                     Cell(p.stats.rejected_cost, 1)});
      JsonObject row;
      row.field("scenario", name)
          .field("workers", p.workers)
          .field("seconds", p.stats.seconds)
          .field("arrivals_per_sec", p.stats.arrivals_per_sec())
          .field("speedup_vs_1", p.speedup)
          .field("efficiency", p.efficiency)
          .field("critical_path_arrivals_per_sec",
                 p.stats.critical_path_arrivals_per_sec())
          .field("max_shard_busy_s", p.stats.max_shard_busy_s)
          .field("total_busy_s", p.stats.total_busy_s);
      scaling_json.push_back(row.dump());
    }

    JsonObject record;
    record.field("scenario", name)
        .field("requests", instance.request_count())
        .field("edges", instance.graph().edge_count())
        .field("unit_costs", unit)
        .field("seq_arrivals_per_sec", seq.arrivals_per_sec())
        // 1-worker ring throughput over the sequential caller-thread
        // loop: the no-regression bound on the pump machinery itself.
        .field("seq_parity", seq_parity)
        .field("partition_cp_speedup", partition_cp_speedup)
        .field("rejected_cost", one_worker.rejected_cost)
        .field("accepted", one_worker.accepted)
        .field("rejected", one_worker.rejected);
    scenario_json.push_back(record.dump());
  }
  emit(table, "e16_scaling", csv_dir);

  // Machine-capability-gated floors: the wall-clock bounds only apply on
  // hosts with enough cores to express them (tools/check_bench_ratios.py
  // skip_unless semantics); seq parity applies everywhere.
  JsonObject parity_gate;
  parity_gate.raw("array", json_str("scenarios"))
      .raw("field", json_str("seq_parity"))
      .field("min", 0.95);
  const auto floor_gate = [](const char* field, std::size_t workers,
                             double floor, double min_cores) {
    JsonObject where_scenario, where_workers, skip, gate;
    where_scenario.raw("field", json_str("scenario"))
        .raw("equals", json_str("dense_burst"));
    where_workers.raw("field", json_str("workers")).field("equals", workers);
    skip.raw("field", json_str("hardware_concurrency"))
        .field("min", min_cores);
    gate.raw("array", json_str("scaling"))
        .raw("field", json_str(field))
        .field("min", floor)
        .raw("where",
             json_array({where_scenario.dump(), where_workers.dump()}))
        .raw("skip_unless", skip.dump());
    return gate.dump();
  };

  std::vector<std::string> gates{parity_gate.dump()};
  // 8 ring workers must sustain >= 2.5x the 1-worker wall throughput on
  // dense_burst when the host has >= 4 cores; minimum scaling efficiency
  // at 4 workers (>= 1.4x in speedup terms) on the same capable hosts.
  // Only armed when the sweep actually measured those worker counts.
  if (max_workers >= 8) gates.push_back(floor_gate("speedup_vs_1", 8, 2.5, 4.0));
  if (max_workers >= 4) gates.push_back(floor_gate("efficiency", 4, 0.35, 4.0));

  JsonObject root = bench_root("e16", "catalog");
  root.field("requests", params.requests)
      .field("edges", params.edges)
      .field("shards", shards)
      .field("batch", batch)
      .field("trials", trials)
      .field("max_workers", max_workers)
      .raw("scenarios", json_array(scenario_json))
      .raw("scaling", json_array(scaling_json))
      .raw("gates", json_array(gates));
  emit_json(flags, "e16", root.dump());
  return EXIT_SUCCESS;
}
