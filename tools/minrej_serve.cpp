// minrej_serve — the sharded batch-arrival service driver (docs/API.md,
// docs/SCENARIOS.md).
//
// Replays an io/instance_io trace or synthesizes a catalog scenario, then
// pumps it through an AdmissionService at a target arrival rate:
//
//   minrej_serve --list                               # catalog
//   minrej_serve --scenario power_law --shards 4 --json
//   minrej_serve --instance trace.txt --rate 50000 --batch 512
//   minrej_serve --scenario flash_crowd --shards 4 --feedback --epochs 24
//   minrej_serve --soak 8 --inject-faults --shards 4 --seed 7 --json
//
// `--rate R` paces the pump to R arrivals/sec (0 = as fast as possible);
// `--json[=path]` writes BENCH_serve.json in the shared BENCH schema
// (provenance-stamped: git SHA, build type, scenario); `--dump path`
// saves the synthesized instance for exact replay.
//
// `--feedback` closes the loop (sim/feedbacksim.h): rejected requests,
// and those the service dropped by quarantine or validation, re-arrive
// after client-side exponential backoff, spread over `--epochs` epochs.
//
// `--soak N` runs the fault-tolerance soak harness (DESIGN.md §9): N
// epochs of pump → snapshot → restore-into-fresh-service → bitwise verify
// → kill-and-heal one shard, against an uninterrupted control run, with
// `--inject-faults` driving deterministic task faults (`--fault-rate`,
// `--fault-seed`) through the retry/backoff/quarantine machinery.  Any
// verification failure exits nonzero.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/baselines.h"
#include "io/instance_io.h"
#include "io/snapshot.h"
#include "service/admission_service.h"
#include "sim/feedbacksim.h"
#include "sim/workloads.h"
#include "util/build_info.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/fault_injector.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace minrej {
namespace {

/// Builds the per-shard algorithm factory for --algorithm.  The randomized
/// algorithm picks weighted/unweighted mode from the instance's costs and
/// derives per-shard seeds, so shard trajectories are independent streams.
ShardAlgorithmFactory make_factory(const std::string& algorithm,
                                   bool unit_costs, std::uint64_t seed) {
  if (algorithm == "randomized") {
    return randomized_shard_factory(unit_costs, seed);
  }
  if (algorithm == "greedy") {
    return [](const Graph& graph, std::size_t) {
      return std::make_unique<GreedyNoPreempt>(graph);
    };
  }
  if (algorithm == "preempt-cheapest") {
    return [](const Graph& graph, std::size_t) {
      return std::make_unique<PreemptCheapest>(graph);
    };
  }
  throw InvalidArgument("unknown --algorithm '" + algorithm +
                        "' (randomized, greedy, preempt-cheapest)");
}

/// Builds the --partition override: "hash" (the default splitmix64
/// partition, returned as empty so the service uses its built-in) or
/// "block" (contiguous equal blocks of edges per shard — aligns shards
/// with the block structure of cascading_failure and multi_tenant).
std::function<std::size_t(EdgeId)> make_partition(const std::string& name,
                                                  std::size_t edge_count,
                                                  std::size_t shards) {
  if (name.empty() || name == "hash") return {};
  if (name == "block") {
    return [edge_count, shards](EdgeId e) {
      return std::min<std::size_t>(
          shards - 1, static_cast<std::size_t>(e) * shards / edge_count);
    };
  }
  throw InvalidArgument("unknown --partition '" + name + "' (hash, block)");
}

std::string shard_json(const ShardStats& s) {
  JsonObject o;
  o.field("shard", s.shard)
      .field("arrivals", s.arrivals)
      .field("accepted", s.accepted)
      .field("rejected", s.rejected)
      .field("rejected_cost", s.rejected_cost)
      .field("augmentation_steps", s.augmentation_steps)
      .field("augmentation_budget", s.augmentation_budget)
      .field("augmentation_budget_exceeded", s.augmentation_budget_exceeded)
      .field("busy_seconds", s.busy_seconds)
      .field("task_failures", s.task_failures)
      .field("retries", s.retries)
      .field("restores", s.restores)
      .field("shed", s.shed)
      .field("malformed", s.malformed)
      .field("injected_delays", s.injected_delays)
      .field("quarantined", s.quarantined);
  return o.dump();
}

JsonObject provenance_json(const std::string& bench, const std::string& source,
                           const std::string& algorithm, bool unit_costs,
                           std::uint64_t seed, std::size_t shards,
                           std::size_t batch) {
  JsonObject root;
  root.field("bench", bench)
      .field("git_sha", build_git_sha())
      .field("build_type", build_type())
      .field("sweep_isa", sweep_isa())
      .field("hardware_concurrency", hardware_concurrency())
      .field("cache_line_bytes", cache_line_bytes())
      .field("scenario", source)
      .field("algorithm", algorithm)
      .field("unit_costs", unit_costs)
      .field("seed", seed)
      .field("shards", shards)
      .field("batch", batch);
  return root;
}

void append_service_stats(JsonObject& root, const ServiceStats& stats) {
  root.field("arrivals", stats.arrivals)
      .field("accepted", stats.accepted)
      .field("rejected", stats.rejected)
      .field("rejected_cost", stats.rejected_cost)
      .field("augmentation_steps", stats.augmentation_steps)
      .field("budget_exceeded_shards", stats.budget_exceeded_shards)
      .field("task_failures", stats.task_failures)
      .field("retries", stats.retries)
      .field("restores", stats.restores)
      .field("shed", stats.shed)
      .field("malformed", stats.malformed)
      .field("injected_delays", stats.injected_delays)
      .field("quarantined_shards", stats.quarantined_shards)
      .field("seconds", stats.seconds)
      .field("arrivals_per_sec", stats.arrivals_per_sec())
      .field("max_shard_busy_s", stats.max_shard_busy_s)
      .field("p50_arrival_us", stats.p50_arrival_s * 1e6)
      .field("p95_arrival_us", stats.p95_arrival_s * 1e6);
}

/// Sealed snapshot of one shard's algorithm — the bitwise yardstick the
/// soak harness compares kill-and-heal states with.
std::vector<std::uint8_t> shard_algo_blob(const AdmissionService& service,
                                          std::size_t shard) {
  SnapshotWriter w("soak.shard", 1);
  service.shard_algorithm(shard).save_snapshot(w);
  return w.finish();
}

/// The fault-tolerance soak harness.  Returns EXIT_SUCCESS only if every
/// epoch's snapshot→restore round-trip is bit-identical, every shard
/// kill-and-heal reproduces the shard state bitwise, and (when nothing was
/// shed) the fault-injected run's final decisions equal the control run's.
int run_soak(const AdmissionInstance& instance,
             const ShardAlgorithmFactory& factory,
             const ServiceConfig& base_config, std::size_t epochs,
             bool inject, double fault_rate, std::uint64_t fault_seed,
             JsonObject root, const CliFlags& flags) {
  const Graph& graph = instance.graph();
  AdmissionService control(graph, factory, base_config);

  ServiceConfig ft_config = base_config;
  ft_config.fault_tolerance.enabled = true;
  // Deep retry budget: with retry-aware fault hashing the chance of a
  // shard failing 7 consecutive attempts at the smoke fault rates is
  // negligible, so the run recovers everywhere and stays comparable to
  // the control decision-for-decision.
  ft_config.fault_tolerance.retry.max_retries = 6;
  if (inject) {
    FaultPlan plan;
    plan.exception_rate = fault_rate;
    plan.delay_rate = fault_rate;
    plan.delay_seconds = 1e-4;
    plan.seed = fault_seed;
    ft_config.fault_tolerance.injector =
        std::make_shared<FaultInjector>(plan);
  }
  auto soak = std::make_unique<AdmissionService>(graph, factory, ft_config);

  const std::vector<Request>& requests = instance.requests();
  const std::size_t per_epoch =
      (requests.size() + epochs - 1) / std::max<std::size_t>(1, epochs);
  bool pass = true;
  std::vector<std::string> epoch_json;
  Timer wall;
  for (std::size_t ep = 0; ep < epochs; ++ep) {
    const std::size_t begin = ep * per_epoch;
    if (begin >= requests.size()) break;
    const std::size_t count = std::min(per_epoch, requests.size() - begin);
    // Recovery points for this epoch's injected faults: retries and the
    // kill-and-heal below replay only this epoch's log suffix.
    soak->checkpoint();
    for (std::size_t off = 0; off < count; off += base_config.batch) {
      const std::size_t n = std::min(base_config.batch, count - off);
      const std::span<const Request> slice(requests.data() + begin + off, n);
      control.submit_batch(slice);
      soak->submit_batch(slice);
    }

    // snapshot → restore into a fresh service → bitwise verify → continue
    // on the restored service (so every later epoch also certifies that
    // restore-then-continue equals the uninterrupted run).
    const std::vector<std::uint8_t> blob = soak->snapshot();
    auto restored = std::make_unique<AdmissionService>(graph, factory,
                                                       ft_config);
    restored->restore(blob);
    const bool restore_ok = restored->snapshot() == blob;
    if (!restore_ok) {
      std::cerr << "soak epoch " << ep
                << ": restore round-trip is not bit-identical\n";
      pass = false;
    }
    soak = std::move(restored);

    // Kill-and-heal one shard per epoch, round-robin: rebuild it from the
    // epoch checkpoint plus its committed log and require the healed
    // algorithm state to equal the pre-kill state bitwise.
    const std::size_t victim = ep % soak->shard_count();
    const std::vector<std::uint8_t> before = shard_algo_blob(*soak, victim);
    soak->restore_shard(victim);
    const bool heal_ok = shard_algo_blob(*soak, victim) == before &&
                         !soak->shard_quarantined(victim);
    if (!heal_ok) {
      std::cerr << "soak epoch " << ep << ": shard " << victim
                << " kill-and-heal did not reproduce the shard state\n";
      pass = false;
    }

    const ServiceStats so_far = soak->aggregate();
    JsonObject ej;
    ej.field("epoch", ep)
        .field("arrivals", so_far.arrivals)
        .field("restore_bit_identical", restore_ok)
        .field("killed_shard", victim)
        .field("heal_bit_identical", heal_ok)
        .field("task_failures", so_far.task_failures)
        .field("retries", so_far.retries)
        .field("restores", so_far.restores)
        .field("shed", so_far.shed);
    epoch_json.push_back(ej.dump());
    std::cout << "soak epoch " << ep << ": " << so_far.arrivals
              << " arrivals, " << so_far.task_failures << " task failures, "
              << so_far.retries << " retries, " << so_far.restores
              << " restores; restore "
              << (restore_ok ? "bit-identical" : "MISMATCH") << ", shard "
              << victim << " heal "
              << (heal_ok ? "bit-identical" : "MISMATCH") << '\n';
  }

  // Final decisions against the uninterrupted, fault-free control: exact
  // whenever nothing was shed or quarantined (retries recovered every
  // injected fault), which the smoke fault rates guarantee in practice.
  const ServiceStats soak_stats = soak->aggregate();
  const bool comparable = soak_stats.shed == 0 && soak_stats.malformed == 0 &&
                          soak_stats.quarantined_shards == 0;
  std::size_t mismatches = 0;
  if (comparable) {
    MINREJ_CHECK(soak->arrivals() == control.arrivals(),
                 "soak and control pumped different arrival counts");
    for (std::size_t i = 0; i < soak->arrivals(); ++i) {
      if (soak->is_accepted(i) != control.is_accepted(i)) ++mismatches;
    }
    if (mismatches > 0) {
      std::cerr << "soak: " << mismatches
                << " final decisions differ from the control run\n";
      pass = false;
    }
  } else {
    std::cout << "soak: decision comparison skipped (shed="
              << soak_stats.shed << ", malformed=" << soak_stats.malformed
              << ", quarantined=" << soak_stats.quarantined_shards << ")\n";
  }
  if (inject && soak_stats.task_failures == 0) {
    std::cerr << "soak: fault injection produced no task failures — raise "
                 "--fault-rate or the epoch size so the harness exercises "
                 "the recovery path\n";
    pass = false;
  }

  std::cout << "soak: " << soak_stats.arrivals << " arrivals, "
            << soak_stats.task_failures << " task failures, "
            << soak_stats.retries << " retries, " << soak_stats.restores
            << " restores, " << soak_stats.shed << " shed — "
            << (pass ? "PASS" : "FAIL") << '\n';

  root.field("soak_epochs", epochs)
      .field("inject_faults", inject)
      .field("fault_rate", fault_rate)
      .field("fault_seed", fault_seed)
      .field("decisions_compared", comparable)
      .field("decision_mismatches", mismatches)
      .field("pass", pass)
      .field("seconds", wall.elapsed_s());
  append_service_stats(root, soak_stats);
  root.raw("epochs_detail", json_array(epoch_json));
  emit_json(flags, "soak", root.dump());
  return pass ? EXIT_SUCCESS : EXIT_FAILURE;
}

int serve_main(int argc, char** argv) {
  const CliFlags flags = CliFlags::parse(
      argc, argv,
      {"list", "scenario", "instance", "requests", "edges", "capacity",
       "seed", "shards", "batch", "threads", "rate", "algorithm",
       "latencies", "dump", "json", "partition", "soak", "inject-faults",
       "fault-rate", "fault-seed", "feedback", "epochs"});

  if (flags.get_bool("list", false)) {
    std::cout << "scenario catalog (docs/SCENARIOS.md):\n";
    for (const ScenarioInfo& s : scenario_catalog()) {
      std::cout << "  " << s.name << " — " << s.summary << '\n';
    }
    return EXIT_SUCCESS;
  }

  const std::string scenario = flags.get_string("scenario", "dense_burst");
  const std::string instance_path = flags.get_string("instance", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::size_t shards =
      static_cast<std::size_t>(flags.get_int("shards", 1));
  const std::size_t batch =
      static_cast<std::size_t>(flags.get_int("batch", 256));
  const std::size_t threads =
      static_cast<std::size_t>(flags.get_int("threads", 0));
  const double rate = flags.get_double("rate", 0.0);
  const std::string algorithm = flags.get_string("algorithm", "randomized");
  // Config validation up front, with errors that name the flag: the
  // service constructor would also catch these, but "--shards must be
  // >= 1" beats "service needs at least one shard" in an ops log.
  MINREJ_REQUIRE(rate >= 0.0, "--rate must be non-negative");
  MINREJ_REQUIRE(flags.get_int("shards", 1) >= 1, "--shards must be >= 1");
  MINREJ_REQUIRE(flags.get_int("batch", 256) >= 1, "--batch must be >= 1");
  if (instance_path.empty()) {
    MINREJ_REQUIRE(is_scenario(scenario),
                   "unknown --scenario '" + scenario +
                       "' (run --list for the catalog)");
  }
  // Faults are per-arrival but a fault fails its whole shard batch, so the
  // per-attempt failure probability is ~1 - (1-rate)^batch; the default is
  // low enough that retries recover every batch and the soak decision
  // comparison stays exact (raise it to exercise quarantine).
  const double fault_rate = flags.get_double("fault-rate", 0.005);
  MINREJ_REQUIRE(fault_rate >= 0.0 && fault_rate <= 1.0,
                 "--fault-rate must be in [0, 1]");

  // -- source: replayed trace or synthesized scenario -----------------------
  ScenarioParams params;
  params.requests = static_cast<std::size_t>(flags.get_int("requests", 20000));
  params.edges = static_cast<std::size_t>(flags.get_int("edges", 64));
  params.capacity = flags.get_int("capacity", 0);
  Rng rng(seed);
  const std::string source =
      instance_path.empty() ? scenario : instance_path;
  AdmissionInstance instance =
      instance_path.empty() ? make_scenario(scenario, params, rng)
                            : load_admission_file(instance_path);

  const std::string dump = flags.get_string("dump", "");
  if (!dump.empty()) {
    save_admission_file(dump, instance,
                        "minrej_serve scenario: " + source +
                            " seed: " + std::to_string(seed));
    std::cout << "dumped instance to " << dump << '\n';
  }

  // -- service --------------------------------------------------------------
  const bool unit_costs = all_unit_costs(instance);
  ShardAlgorithmFactory factory = make_factory(algorithm, unit_costs, seed);
  ServiceConfig config;
  config.shards = shards;
  config.batch = batch;
  config.threads = threads;
  config.collect_latencies = flags.get_bool("latencies", true);
  config.partition = make_partition(flags.get_string("partition", ""),
                                    instance.graph().edge_count(), shards);

  // -- soak mode ------------------------------------------------------------
  if (flags.has("soak")) {
    const auto soak_epochs =
        static_cast<std::size_t>(flags.get_int("soak", 8));
    MINREJ_REQUIRE(soak_epochs >= 1, "--soak must be >= 1");
    std::cout << "minrej_serve soak: " << source << " — "
              << instance.request_count() << " arrivals over " << soak_epochs
              << " epochs, " << shards << " shard(s)"
              << (flags.get_bool("inject-faults", false)
                      ? ", fault rate " + std::to_string(fault_rate)
                      : ", no fault injection")
              << '\n';
    return run_soak(
        instance, factory, config, soak_epochs,
        flags.get_bool("inject-faults", false), fault_rate,
        static_cast<std::uint64_t>(flags.get_int("fault-seed", 7)),
        provenance_json("soak", source, algorithm, unit_costs, seed, shards,
                        batch),
        flags);
  }

  // Fault injection outside soak mode: enable the fault-tolerance layer so
  // the pump retries/quarantines instead of aborting on the first fault.
  if (flags.get_bool("inject-faults", false) || flags.get_bool("feedback",
                                                               false)) {
    config.fault_tolerance.enabled = true;
    if (flags.get_bool("inject-faults", false)) {
      FaultPlan plan;
      plan.exception_rate = fault_rate;
      plan.delay_rate = fault_rate;
      plan.delay_seconds = 1e-4;
      plan.seed =
          static_cast<std::uint64_t>(flags.get_int("fault-seed", 7));
      config.fault_tolerance.injector =
          std::make_shared<FaultInjector>(plan);
    }
  }
  AdmissionService service(instance.graph(), factory, config);

  // -- closed-loop feedback mode --------------------------------------------
  if (flags.get_bool("feedback", false)) {
    FeedbackConfig fc;
    fc.epochs = static_cast<std::size_t>(flags.get_int("epochs", 16));
    fc.seed = seed;
    std::cout << "minrej_serve feedback: " << source << " — "
              << instance.request_count() << " fresh arrivals over "
              << fc.epochs << " epochs, " << shards << " shard(s)\n";
    Timer wall;
    const FeedbackResult fb = run_feedback(service, instance, fc);
    Table epoch_table("closed loop",
                      {"epoch", "offered", "fresh", "retried", "admitted",
                       "rejected", "shed", "abandoned", "backlog"});
    std::vector<std::string> epochs_json;
    for (const FeedbackEpochStats& es : fb.epochs) {
      epoch_table.add_row({es.epoch, es.offered, es.fresh, es.retried,
                           es.admitted, es.rejected, es.shed, es.abandoned,
                           es.backlog});
      JsonObject ej;
      ej.field("epoch", es.epoch)
          .field("offered", es.offered)
          .field("fresh", es.fresh)
          .field("retried", es.retried)
          .field("admitted", es.admitted)
          .field("rejected", es.rejected)
          .field("shed", es.shed)
          .field("abandoned", es.abandoned)
          .field("backlog", es.backlog);
      epochs_json.push_back(ej.dump());
    }
    std::cout << epoch_table << '\n';
    std::cout << "closed loop: offered " << fb.offered << " (incl. retries), "
              << "admitted " << fb.admitted << ", abandoned " << fb.abandoned
              << ", backlog " << fb.backlog << '\n';
    JsonObject root = provenance_json("feedback", source, algorithm,
                                      unit_costs, seed, shards, batch);
    root.field("epochs", fb.epochs.size())
        .field("offered", fb.offered)
        .field("admitted", fb.admitted)
        .field("abandoned", fb.abandoned)
        .field("backlog", fb.backlog)
        .field("seconds", wall.elapsed_s());
    append_service_stats(root, service.aggregate());
    root.raw("epochs_detail", json_array(epochs_json));
    emit_json(flags, "feedback", root.dump());
    return EXIT_SUCCESS;
  }

  std::cout << "minrej_serve: " << source << " — "
            << instance.graph().summary() << ", "
            << instance.request_count() << " arrivals, " << shards
            << " shard(s), batch " << batch
            << (rate > 0.0 ? ", target rate " + std::to_string(rate) : "")
            << '\n';

  // -- paced pump -----------------------------------------------------------
  // Batches are released against the target-rate schedule; rate 0 free-runs.
  const std::vector<Request>& requests = instance.requests();
  const auto start = std::chrono::steady_clock::now();
  Timer wall;
  for (std::size_t offset = 0; offset < requests.size(); offset += batch) {
    if (rate > 0.0) {
      const auto due =
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(offset) / rate));
      std::this_thread::sleep_until(due);
    }
    const std::size_t count = std::min(batch, requests.size() - offset);
    service.submit_batch(
        std::span<const Request>(requests.data() + offset, count));
  }
  ServiceStats stats = service.aggregate();
  stats.seconds = wall.elapsed_s();

  // -- report ---------------------------------------------------------------
  Table shard_table("per-shard", {"shard", "arrivals", "accepted", "rejected",
                                  "rej cost", "aug steps", "budget", "busy s"});
  std::vector<std::string> shards_json;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    const ShardStats sh = service.shard_stats(s);
    shard_table.add_row({sh.shard, sh.arrivals, sh.accepted, sh.rejected,
                         Cell(sh.rejected_cost, 2),
                         static_cast<long long>(sh.augmentation_steps),
                         sh.augmentation_budget_exceeded ? "OVER" : "ok",
                         Cell(sh.busy_seconds, 4)});
    shards_json.push_back(shard_json(sh));
  }
  std::cout << shard_table << '\n';
  std::cout << "aggregate: " << stats.arrivals << " arrivals in "
            << stats.seconds << " s = " << stats.arrivals_per_sec()
            << " arrivals/s; accepted " << stats.accepted << ", rejected "
            << stats.rejected << " (cost " << stats.rejected_cost << "), "
            << stats.augmentation_steps << " augmentation steps, p50/p95 "
            << stats.p50_arrival_s * 1e6 << "/" << stats.p95_arrival_s * 1e6
            << " us\n";
  if (stats.budget_exceeded_shards > 0) {
    std::cout << "note: " << stats.budget_exceeded_shards
              << " shard(s) exceeded their augmentation-step budget "
                 "(core/run_budget.h)\n";
  }
  if (stats.task_failures > 0 || stats.shed > 0 || stats.malformed > 0) {
    std::cout << "fault tolerance: " << stats.task_failures
              << " task failures, " << stats.retries << " retries, "
              << stats.restores << " restores, " << stats.shed << " shed, "
              << stats.malformed << " malformed, "
              << stats.quarantined_shards << " quarantined shard(s)\n";
  }

  JsonObject root = provenance_json("serve", source, algorithm, unit_costs,
                                    seed, shards, batch);
  root.field("rate", rate)
      .field("workers", service.worker_count());
  append_service_stats(root, stats);
  root.raw("shard_stats", json_array(shards_json));
  emit_json(flags, "serve", root.dump());
  return EXIT_SUCCESS;
}

}  // namespace
}  // namespace minrej

int main(int argc, char** argv) {
  // Operational tool: bad flags, unknown scenarios and malformed traces
  // exit with a one-line error, not std::terminate.
  try {
    return minrej::serve_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "minrej_serve: " << e.what() << '\n';
    return EXIT_FAILURE;
  }
}
