// E10 — systems performance of the implementation (the "systems table" a
// SPAA-style implementation paper would include), rebuilt around the
// flat-storage engine rewrite:
//
//   (a) engine head-to-head — FlatFractionalEngine vs the retained
//       NaiveFractionalEngine on the dense single-edge burst (the
//       worst-case member-list workload), on a Zipf power-law workload,
//       and on the shared_sets_overlap catalog scenario (wide shared
//       rows — the cross-arrival fix-up regime), reporting arrivals/sec
//       and the flat/naive speedup.  Both engines take identical
//       augmentation decisions (the differential suite enforces it), so
//       the comparison isolates the storage layer.
//   (b) full stack — RandomizedAdmission and ReductionSetCover driven
//       through sim::run_admission / run_setcover, reporting arrivals/sec,
//       p50/p95 per-arrival latency, and augmentation-step totals.
//
// `--json[=path]` additionally writes machine-readable BENCH_e10.json
// (CI smoke-runs this at small sizes so the perf trajectory accumulates).
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/bicriteria_setcover.h"
#include "core/fractional_engine.h"
#include "core/naive_engine.h"
#include "core/online_setcover.h"
#include "core/randomized_admission.h"
#include "setcover/generators.h"
#include "sim/workloads.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/timer.h"

namespace minrej::bench {
namespace {

struct EngineRun {
  double seconds = 0.0;
  std::uint64_t augmentations = 0;
  std::uint64_t compactions = 0;
  double fractional_cost = 0.0;
};

/// Feeds every request of `inst` straight into a fresh engine (no
/// classification layer: this isolates the §2 augmentation core).
template <typename Engine>
EngineRun time_engine(const AdmissionInstance& inst, double zero_init) {
  Engine engine(inst.graph(), zero_init);
  Timer timer;
  for (const Request& r : inst.requests()) {
    engine.arrive(r.edges, r.cost, r.cost);
  }
  EngineRun run;
  run.seconds = timer.elapsed_s();
  run.augmentations = engine.augmentations();
  run.compactions = engine.compactions();
  run.fractional_cost = engine.fractional_cost();
  return run;
}

/// Best-of-`trials` wall time for each engine on the same instance.  The
/// minimum is the standard noise filter for single-threaded microbench
/// timing; counters are checked identical across engines so the speedup
/// column compares equal work.
template <typename Engine>
EngineRun best_engine_run(const AdmissionInstance& inst, double zero_init,
                          std::size_t trials) {
  EngineRun best;
  for (std::size_t t = 0; t < trials; ++t) {
    const EngineRun run = time_engine<Engine>(inst, zero_init);
    if (t == 0 || run.seconds < best.seconds) best = run;
  }
  return best;
}

std::size_t positive(std::int64_t v, const char* what) {
  MINREJ_REQUIRE(v > 0, std::string(what) + " must be positive");
  return static_cast<std::size_t>(v);
}

double per_sec(std::size_t count, double seconds) {
  return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

struct HeadToHead {
  std::string workload;
  std::size_t requests = 0;
  EngineRun flat;
  EngineRun naive;

  double speedup() const {
    return naive.seconds > 0.0 && flat.seconds > 0.0
               ? naive.seconds / flat.seconds
               : 0.0;
  }
};

HeadToHead engine_head_to_head(const std::string& name,
                               const AdmissionInstance& inst,
                               double zero_init, std::size_t trials,
                               std::size_t naive_trials) {
  HeadToHead h;
  h.workload = name;
  h.requests = inst.request_count();
  h.flat = best_engine_run<FlatFractionalEngine>(inst, zero_init, trials);
  h.naive =
      best_engine_run<NaiveFractionalEngine>(inst, zero_init, naive_trials);
  if (h.flat.augmentations != h.naive.augmentations) {
    // The differential suite guarantees this never happens; loud is better
    // than a silently apples-to-oranges speedup column.
    std::cerr << "WARNING: engines disagreed on " << name << " ("
              << h.flat.augmentations << " vs " << h.naive.augmentations
              << " augmentation steps)\n";
  }
  return h;
}

std::string h2h_json(const HeadToHead& h) {
  JsonObject o;
  o.field("workload", h.workload)
      .field("requests", h.requests)
      .field("flat_arrivals_per_sec", per_sec(h.requests, h.flat.seconds))
      .field("naive_arrivals_per_sec", per_sec(h.requests, h.naive.seconds))
      .field("speedup", h.speedup())
      .field("augmentation_steps", h.flat.augmentations)
      .field("flat_compactions", h.flat.compactions)
      .field("naive_compactions", h.naive.compactions);
  return o.dump();
}

/// The shared field block of AdmissionRun/CoverRun records; the caller
/// appends its objective field and dumps.
template <typename RunT>
JsonObject run_json(const std::string& workload, const RunT& run) {
  JsonObject o;
  o.field("workload", workload)
      .field("arrivals", run.arrivals)
      .field("arrivals_per_sec", run.arrivals_per_sec())
      .field("p50_arrival_us", run.p50_arrival_s * 1e6)
      .field("p95_arrival_us", run.p95_arrival_s * 1e6)
      .field("augmentation_steps", run.augmentation_steps);
  return o;
}

std::string admission_run_json(const std::string& workload,
                               const AdmissionRun& run) {
  return run_json(workload, run)
      .field("rejected_cost", run.rejected_cost)
      .dump();
}

std::string cover_run_json(const std::string& workload, const CoverRun& run) {
  return run_json(workload, run).field("cost", run.cost).dump();
}

}  // namespace
}  // namespace minrej::bench

int main(int argc, char** argv) {
  using namespace minrej;
  using namespace minrej::bench;
  const CliFlags flags = CliFlags::parse(
      argc, argv, {"requests", "edges", "burst_capacity", "trials",
                   "naive_trials", "csv_dir", "json"});
  const std::size_t requests =
      positive(flags.get_int("requests", 100000), "requests");
  const std::size_t edges = positive(flags.get_int("edges", 64), "edges");
  // Default burst capacity requests/3: a list of ~c members is swept every
  // arrival, which is the production-scale regime the flat layout targets
  // (the naive engine's 5 rescan passes stream the whole AoS record array
  // per arrival there).
  const auto burst_capacity = static_cast<std::int64_t>(
      positive(flags.get_int("burst_capacity",
                             std::max<std::int64_t>(64, requests / 3)),
               "burst_capacity"));
  const std::size_t trials = positive(flags.get_int("trials", 3), "trials");
  // Same trial count for both engines by default (best-of-N must filter
  // noise evenly or the speedup column is biased); --naive_trials exists
  // to opt the ~4x-slower naive engine down at very large sizes.
  const std::size_t naive_trials = positive(
      flags.get_int("naive_trials", static_cast<std::int64_t>(trials)),
      "naive_trials");
  const std::string csv_dir = flags.get_string("csv_dir", "");

  std::cout << "=== E10: systems performance (flat vs naive engine, full "
               "stack) ===\n\n";

  // -- (a) engine head-to-head ----------------------------------------------
  // Dense single-edge burst: every arrival lands on the one edge, so the
  // member list is as hot as it gets.  Power law: Zipf(1.1) spread over
  // `edges` spokes with multi-edge requests and weighted costs.
  std::vector<HeadToHead> duels;
  {
    Rng rng(1);
    AdmissionInstance burst = make_single_edge_burst(
        burst_capacity, requests, CostModel::unit_costs(), rng);
    duels.push_back(engine_head_to_head(
        "dense_single_edge_burst", burst,
        1.0 / static_cast<double>(burst_capacity), trials, naive_trials));
  }
  {
    Rng rng(2);
    AdmissionInstance zipf = make_power_law_workload(
        edges, 8, requests, 4, 1.1, CostModel::spread(1.0, 32.0), rng);
    // Weighted floor 1/(g·c) with the workload's spread g = 32, c = 8.
    duels.push_back(engine_head_to_head("power_law_zipf1.1", zipf,
                                        1.0 / 256.0, trials, naive_trials));
  }
  {
    // Shared-sets overlap (the catalog twin of E15's stack-duel regime):
    // wide, heavily shared request rows, augmentation rare — the
    // cross-arrival fix-up is the engine's whole cost here (DESIGN.md
    // §8.2).  Capped like the full stack: the duel measures per-arrival
    // upkeep, which saturates well below 10^5 arrivals.
    Rng rng(3);
    ScenarioParams params;
    params.requests = std::min<std::size_t>(requests, 30000);
    AdmissionInstance overlap =
        make_scenario("shared_sets_overlap", params, rng);
    // Unit costs; floor 1/(g·c) with g = 1, c = the reduction's max degree.
    const double zero_init =
        1.0 / static_cast<double>(
                  std::max<std::int64_t>(2, overlap.graph().max_capacity()));
    duels.push_back(engine_head_to_head("shared_sets_overlap", overlap,
                                        zero_init, trials, naive_trials));
  }

  Table duel_table(
      "E10a — engine arrivals/sec, flat vs naive (best of " +
          std::to_string(trials) + ")",
      {"workload", "requests", "flat arr/s", "naive arr/s", "speedup",
       "augmentations", "flat compactions", "naive compactions"});
  for (const HeadToHead& h : duels) {
    duel_table.add_row(
        {h.workload, h.requests,
         Cell(per_sec(h.requests, h.flat.seconds), 0),
         Cell(per_sec(h.requests, h.naive.seconds), 0),
         Cell(h.speedup(), 2), static_cast<long long>(h.flat.augmentations),
         static_cast<long long>(h.flat.compactions),
         static_cast<long long>(h.naive.compactions)});
  }
  emit(duel_table, "e10a_engine_duel", csv_dir);

  // -- (b) full stack --------------------------------------------------------
  // Smaller sizes: the full randomized algorithm carries the classification
  // and rounding layers, and the §3 edge-request cap rejects everything on
  // an edge past 4mc² arrivals, which a 10^5-request burst would trip.
  const std::size_t stack_requests = std::min<std::size_t>(requests, 20000);
  std::vector<std::string> stack_json;
  Table stack_table("E10b — full-stack per-arrival performance",
                    {"algorithm", "workload", "arrivals", "arr/s", "p50 us",
                     "p95 us", "aug steps"});
  {
    Rng rng(3);
    AdmissionInstance zipf = make_power_law_workload(
        edges, 8, stack_requests, 4, 1.1, CostModel::spread(1.0, 32.0), rng);
    RandomizedConfig cfg;
    cfg.seed = 4;
    RandomizedAdmission alg(zipf.graph(), cfg);
    const AdmissionRun run =
        run_admission(alg, zipf, RunOptions{.collect_latencies = true});
    stack_table.add_row({alg.name(), "power_law", run.arrivals,
                         Cell(run.arrivals_per_sec(), 0),
                         Cell(run.p50_arrival_s * 1e6, 2),
                         Cell(run.p95_arrival_s * 1e6, 2),
                         static_cast<long long>(run.augmentation_steps)});
    stack_json.push_back(
        admission_run_json("randomized_power_law", run));
  }
  {
    Rng rng(5);
    AdmissionInstance line = make_line_workload(
        edges, 4, stack_requests, 1, std::max<std::size_t>(2, edges / 8),
        CostModel::unit_costs(), rng);
    RandomizedConfig cfg;
    cfg.unit_costs = true;
    cfg.seed = 6;
    RandomizedAdmission alg(line.graph(), cfg);
    const AdmissionRun run =
        run_admission(alg, line, RunOptions{.collect_latencies = true});
    stack_table.add_row({alg.name(), "line", run.arrivals,
                         Cell(run.arrivals_per_sec(), 0),
                         Cell(run.p50_arrival_s * 1e6, 2),
                         Cell(run.p95_arrival_s * 1e6, 2),
                         static_cast<long long>(run.augmentation_steps)});
    stack_json.push_back(admission_run_json("randomized_line", run));
  }

  // Set cover through the §4 reduction, with the CoverRun counters.
  std::string setcover_json;
  {
    const std::size_t n = std::min<std::size_t>(256, stack_requests);
    Rng rng(7);
    SetSystem sys = random_uniform_system(n, n, 6, 3, rng);
    const auto arrivals = arrivals_each_k_times(n, 2, true, rng);
    RandomizedConfig cfg;
    cfg.seed = 8;
    ReductionSetCover alg(sys, cfg);
    const CoverRun run =
        run_setcover(alg, arrivals, RunOptions{.collect_latencies = true});
    stack_table.add_row({alg.name(), "uniform_system", run.arrivals,
                         Cell(run.arrivals_per_sec(), 0),
                         Cell(run.p50_arrival_s * 1e6, 2),
                         Cell(run.p95_arrival_s * 1e6, 2),
                         static_cast<long long>(run.augmentation_steps)});
    setcover_json = cover_run_json("setcover_uniform", run);
  }

  // The deterministic §5 bicriteria algorithm rides the same table so its
  // arrival throughput stays on the perf trajectory too.
  std::string bicriteria_json;
  {
    const std::size_t n = std::min<std::size_t>(256, stack_requests);
    Rng rng(11);
    SetSystem sys = random_uniform_system(n, n, 6, 3, rng);
    const auto arrivals = arrivals_each_k_times(n, 2, true, rng);
    BicriteriaSetCover alg(sys, BicriteriaConfig{0.5});
    const CoverRun run =
        run_setcover(alg, arrivals, RunOptions{.collect_latencies = true});
    stack_table.add_row({alg.name(), "uniform_system", run.arrivals,
                         Cell(run.arrivals_per_sec(), 0),
                         Cell(run.p50_arrival_s * 1e6, 2),
                         Cell(run.p95_arrival_s * 1e6, 2),
                         static_cast<long long>(run.augmentation_steps)});
    bicriteria_json = cover_run_json("bicriteria_uniform", run);
  }
  emit(stack_table, "e10b_full_stack", csv_dir);

  // -- (c) Monte-Carlo sweep scaling over parallel_trials -------------------
  // The same 64 independent trials at 1, 2, 4, 8 threads; near-linear
  // scaling expected up to the core count (a parallel_trials regression
  // shows up here as a flat or inverted column).
  std::vector<std::string> sweep_json;
  Table sweep_table("E10c — parallel sweep: 64 randomized trials",
                    {"threads", "seconds", "trials/s"});
  {
    Rng rng(9);
    AdmissionInstance inst = make_line_workload(
        32, 4, 192, 1, 6, CostModel::unit_costs(), rng);
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      Timer timer;
      const auto results = parallel_trials(
          64,
          [&](std::size_t s) {
            RandomizedConfig cfg;
            cfg.unit_costs = true;
            cfg.seed = s;
            RandomizedAdmission alg(inst.graph(), cfg);
            return run_admission(alg, inst).rejected_cost;
          },
          threads);
      const double seconds = timer.elapsed_s();
      MINREJ_CHECK(results.size() == 64, "sweep lost trials");
      sweep_table.add_row(
          {threads, Cell(seconds, 4), Cell(per_sec(64, seconds), 0)});
      JsonObject o;
      o.field("threads", threads)
          .field("seconds", seconds)
          .field("trials_per_sec", per_sec(64, seconds));
      sweep_json.push_back(o.dump());
    }
  }
  emit(sweep_table, "e10c_parallel_sweep", csv_dir);

  const double headline =
      duels.empty() ? 0.0 : duels.front().speedup();
  std::cout << "headline: flat engine is " << headline
            << "x the naive engine on the dense burst\n";

  std::vector<std::string> duel_json;
  duel_json.reserve(duels.size());
  for (const HeadToHead& h : duels) duel_json.push_back(h2h_json(h));
  JsonObject root = bench_root("e10", "mixed");
  root.field("requests", requests)
      .field("burst_capacity", burst_capacity)
      .field("trials", trials)
      .field("naive_trials", naive_trials)
      .raw("engine_head_to_head", json_array(duel_json))
      .raw("full_stack", json_array(stack_json))
      .raw("setcover", setcover_json)
      .raw("bicriteria", bicriteria_json)
      .raw("parallel_sweep", json_array(sweep_json))
      .field("headline_speedup", headline);
  // Schema-driven CI gate (tools/check_bench_ratios.py): no duel scenario
  // may run the flat engine below parity-minus-noise vs the naive
  // reference.
  JsonObject gate;
  gate.field("array", "engine_head_to_head")
      .field("field", "speedup")
      .field("min", 0.95);
  root.raw("gates", json_array({gate.dump()}));
  emit_json(flags, "e10", root.dump());
  return EXIT_SUCCESS;
}
