// E15 — the covering-substrate refactor, measured (DESIGN.md §7.5).
//
//   (a) stack duel (headline) — the CSR set-cover hot path (covering
//       substrate + zero-copy ReductionView + substrate-bound flat
//       engine) against the retained nested-vector baseline (materialized
//       §4 reduction + naive AoS engine, whose records each carry a heap
//       edge vector — the storage design this refactor removed from the
//       tree).  Both sides run the identical §4/§2 algorithm and are
//       asserted to take identical augmentation decisions, so the duel
//       measures the storage program end-to-end on the set-cover half.
//       The `dense` scenario is the reduction image of the catalog's
//       dense_burst: many singleton sets per element, demands to half the
//       degree, so every reduction edge sweeps a Θ(degree) member list —
//       the regime the flat layout targets.  The `overlap` scenario
//       (dense Bernoulli membership) is the honesty row: sets cover many
//       elements at once, augmentation is rare, and the flat engine's
//       arrival-end cache fix-up is most exposed there (the §8.2 delta
//       journal keeps it ahead; DESIGN.md §7.5).
//   (d) full stack — set-cover algorithms with the augmentation-budget
//       verdict, so the set-cover half has its own perf trajectory.
//
// `--json[=path]` writes BENCH_e15.json (CI smoke-runs this at small
// sizes; the committed artifact is a Release run at the defaults).
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/bicriteria_setcover.h"
#include "core/fractional_engine.h"
#include "core/naive_engine.h"
#include "core/online_setcover.h"
#include "core/reduction.h"
#include "setcover/generators.h"
#include "sim/workloads.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/timer.h"

namespace minrej::bench {
namespace {

std::size_t positive(std::int64_t v, const char* what) {
  MINREJ_REQUIRE(v > 0, std::string(what) + " must be positive");
  return static_cast<std::size_t>(v);
}

// ---------------------------------------------------------------------------
// (a) stack duel: CSR substrate stack vs nested-vector baseline stack
// ---------------------------------------------------------------------------

/// The §4 image of the catalog's dense_burst: `copies` singleton sets per
/// element, so reduction edge j carries a `copies`-long member list and
/// every phase-2 arrival sweeps it.
SetSystem make_singleton_burst_system(std::size_t n, std::size_t copies) {
  std::vector<std::vector<ElementId>> sets;
  sets.reserve(n * copies);
  for (std::size_t r = 0; r < copies; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      sets.push_back({static_cast<ElementId>(j)});
    }
  }
  return SetSystem(n, std::move(sets));
}

/// Round-robin demand of `frac · degree(j)` arrivals per element.
std::vector<ElementId> dense_demands(const SetSystem& sys, double frac) {
  std::vector<ElementId> arrivals;
  std::vector<std::size_t> left(sys.element_count());
  for (std::size_t j = 0; j < sys.element_count(); ++j) {
    left[j] = static_cast<std::size_t>(
        frac * static_cast<double>(sys.degree(static_cast<ElementId>(j))));
  }
  bool more = true;
  while (more) {
    more = false;
    for (std::size_t j = 0; j < sys.element_count(); ++j) {
      if (left[j] > 0) {
        arrivals.push_back(static_cast<ElementId>(j));
        --left[j];
        more = true;
      }
    }
  }
  return arrivals;
}

struct StackRun {
  double setup_s = 0.0;  ///< reduction binding + phase 1
  double run_s = 0.0;    ///< phase-2 arrival stream
  std::uint64_t augmentations = 0;
  double fractional_cost = 0.0;
};

/// The unit-cost §4 fractional pipeline over the CSR stack: engine bound
/// to the substrate (capacity = degree), arrivals fed as zero-copy arena
/// spans.
StackRun run_csr_stack(const SetSystem& sys,
                       const std::vector<ElementId>& arrivals) {
  StackRun out;
  Timer setup;
  ReductionView view(sys);
  std::int64_t c = 1;
  for (std::size_t j = 0; j < sys.element_count(); ++j) {
    c = std::max<std::int64_t>(
        c, static_cast<std::int64_t>(sys.degree(static_cast<ElementId>(j))));
  }
  FlatFractionalEngine engine(sys.substrate(), 1.0 / static_cast<double>(c));
  for (SetId s = 0; s < static_cast<SetId>(view.phase1_count()); ++s) {
    engine.admit_existing(view.phase1_edges(s), 1.0, 1.0);
  }
  out.setup_s = setup.elapsed_s();
  Timer run;
  for (ElementId j : arrivals) {
    engine.pin(view.element_edges(j));
    engine.restore_edges(view.element_edges(j));
  }
  out.run_s = run.elapsed_s();
  out.augmentations = engine.augmentations();
  out.fractional_cost = engine.fractional_cost();
  return out;
}

/// The identical pipeline over the retained nested baseline: materialized
/// star graph + phase-1 Request copies + the naive AoS engine (one heap
/// edge vector per record, five passes per augmentation step).
StackRun run_nested_stack(const SetSystem& sys,
                          const std::vector<ElementId>& arrivals) {
  StackRun out;
  Timer setup;
  ReductionInstance red = build_reduction(sys);
  const std::int64_t c = red.graph.max_capacity();
  NaiveFractionalEngine engine(red.graph, 1.0 / static_cast<double>(c));
  for (const Request& r : red.phase1) {
    engine.admit_existing(r.edges, 1.0, 1.0);
  }
  out.setup_s = setup.elapsed_s();
  Timer run;
  for (ElementId j : arrivals) {
    const Request r = red.element_request(j);
    engine.pin(r.edges);
    engine.restore_edges(r.edges);
  }
  out.run_s = run.elapsed_s();
  out.augmentations = engine.augmentations();
  out.fractional_cost = engine.fractional_cost();
  return out;
}

struct StackDuel {
  std::string scenario;
  std::size_t sets = 0;
  std::size_t arrivals = 0;
  StackRun csr;
  StackRun nested;
  double speedup() const {
    return csr.run_s > 0.0 && nested.run_s > 0.0 ? nested.run_s / csr.run_s
                                                 : 0.0;
  }
};

StackDuel stack_duel(const std::string& scenario, const SetSystem& sys,
                     const std::vector<ElementId>& arrivals,
                     std::size_t trials) {
  StackDuel duel;
  duel.scenario = scenario;
  duel.sets = sys.set_count();
  duel.arrivals = arrivals.size();
  for (std::size_t t = 0; t < trials; ++t) {
    const StackRun c = run_csr_stack(sys, arrivals);
    const StackRun n = run_nested_stack(sys, arrivals);
    // Identical decisions or the duel is void (the substrate differential
    // suite pins the full invariant; this is the bench-side tripwire).
    MINREJ_CHECK(c.augmentations == n.augmentations &&
                     c.fractional_cost == n.fractional_cost,
                 "CSR and nested stacks diverged");
    if (t == 0 || c.run_s < duel.csr.run_s) duel.csr = c;
    if (t == 0 || n.run_s < duel.nested.run_s) duel.nested = n;
  }
  return duel;
}

std::string stack_duel_json(const StackDuel& d) {
  JsonObject o;
  o.field("scenario", d.scenario)
      .field("sets", d.sets)
      .field("arrivals", d.arrivals)
      .field("csr_setup_ms", d.csr.setup_s * 1e3)
      .field("nested_setup_ms", d.nested.setup_s * 1e3)
      .field("csr_arrivals_per_sec",
             d.arrivals / std::max(1e-12, d.csr.run_s))
      .field("nested_arrivals_per_sec",
             d.arrivals / std::max(1e-12, d.nested.run_s))
      .field("augmentation_steps", d.csr.augmentations)
      .field("speedup", d.speedup());
  return o.dump();
}

}  // namespace
}  // namespace minrej::bench

int main(int argc, char** argv) {
  using namespace minrej;
  using namespace minrej::bench;
  const CliFlags flags = CliFlags::parse(
      argc, argv,
      {"elements", "copies", "sweep_elements", "trials", "csv_dir", "json"});
  const std::size_t n = positive(flags.get_int("elements", 768), "elements");
  const std::size_t copies = positive(flags.get_int("copies", 192), "copies");
  const std::size_t sweep_n =
      positive(flags.get_int("sweep_elements", 2048), "sweep_elements");
  const std::size_t trials = positive(flags.get_int("trials", 5), "trials");
  const std::string csv_dir = flags.get_string("csv_dir", "");

  std::cout << "=== E15: covering substrate (CSR stack vs nested "
               "baseline) ===\n\n";

  // -- (a) stack duel --------------------------------------------------------
  std::vector<StackDuel> stacks;
  {
    SetSystem dense = make_singleton_burst_system(n, copies);
    const auto arrivals = dense_demands(dense, 0.5);
    stacks.push_back(stack_duel("dense", dense, arrivals, trials));
  }
  {
    // Same regime as the catalog's `shared_sets_overlap` scenario
    // (docs/SCENARIOS.md), which replays it through every admission
    // driver; here it stays a raw SetSystem so the duel isolates the
    // set-cover pipeline.  The engine-level twin is E10's
    // shared_sets_overlap head-to-head row.
    Rng rng(1);
    SetSystem overlap = random_density_system(
        std::min<std::size_t>(n, 512), std::min<std::size_t>(n, 512), 0.25,
        4, rng);
    const auto arrivals = dense_demands(overlap, 0.5);
    stacks.push_back(stack_duel("overlap", overlap, arrivals, trials));
  }
  Table stack_table("E15a — §4 set-cover pipeline: CSR stack vs nested "
                    "baseline (best of " + std::to_string(trials) + ")",
                    {"scenario", "sets", "arrivals", "csr arr/s",
                     "nested arr/s", "speedup", "aug steps"});
  for (const StackDuel& d : stacks) {
    stack_table.add_row(
        {d.scenario, d.sets, d.arrivals,
         Cell(d.arrivals / std::max(1e-12, d.csr.run_s), 0),
         Cell(d.arrivals / std::max(1e-12, d.nested.run_s), 0),
         Cell(d.speedup(), 2),
         static_cast<long long>(d.csr.augmentations)});
  }
  emit(stack_table, "e15a_stack_duel", csv_dir);

  // -- (d) full stack --------------------------------------------------------
  std::vector<std::string> stack_json;
  Table algo_table("E15d — set-cover algorithms on the substrate",
                   {"algorithm", "system", "arrivals", "arr/s", "aug steps",
                    "budget ok"});
  auto record_run = [&](OnlineSetCoverAlgorithm& alg, const char* system,
                        const std::vector<ElementId>& arrivals) {
    const CoverRun run = run_setcover(alg, arrivals);
    algo_table.add_row({alg.name(), system, run.arrivals,
                        Cell(run.arrivals_per_sec(), 0),
                        static_cast<long long>(run.augmentation_steps),
                        run.augmentation_budget_exceeded ? "NO" : "yes"});
    JsonObject o;
    o.field("algorithm", alg.name())
        .field("system", system)
        .field("arrivals", run.arrivals)
        .field("arrivals_per_sec", run.arrivals_per_sec())
        .field("cost", run.cost)
        .field("augmentation_steps", run.augmentation_steps)
        .field("augmentation_budget_exceeded",
               run.augmentation_budget_exceeded);
    stack_json.push_back(o.dump());
  };
  {
    const std::size_t sn = std::min<std::size_t>(sweep_n, 512);
    Rng rng(5);
    SetSystem sys = random_density_system(sn, sn, 0.05, 2, rng);
    const auto arrivals = arrivals_each_once(sn, rng);
    BicriteriaSetCover bi(sys, BicriteriaConfig{0.5});
    record_run(bi, "dense_overlap", arrivals);
    RandomizedConfig cfg;
    cfg.seed = 6;
    ReductionSetCover red_alg(sys, cfg);
    record_run(red_alg, "dense_overlap", arrivals);
  }
  emit(algo_table, "e15d_full_stack", csv_dir);

  const double headline = stacks.empty() ? 0.0 : stacks.front().speedup();
  std::cout << "headline: the CSR set-cover stack is " << headline
            << "x the nested-vector baseline on the dense scenario\n";

  std::vector<std::string> stacks_json;
  for (const StackDuel& d : stacks) stacks_json.push_back(stack_duel_json(d));
  JsonObject root = bench_root("e15", "mixed");
  root.field("elements", n)
      .field("copies", copies)
      .field("sweep_elements", sweep_n)
      .field("trials", trials)
      .raw("stack_duel", json_array(stacks_json))
      .raw("full_stack", json_array(stack_json))
      .field("headline_speedup", headline);
  // Schema-driven CI gate (tools/check_bench_ratios.py): the CSR stack
  // must hold parity-minus-noise against the nested reference on every
  // duel.
  JsonObject gate;
  gate.field("array", "stack_duel")
      .field("field", "speedup")
      .field("min", 0.95);
  root.raw("gates", json_array({gate.dump()}));
  emit_json(flags, "e15", root.dump());
  return EXIT_SUCCESS;
}
