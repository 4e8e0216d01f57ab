// runner.h — drives online algorithms over instances and measures the
// quantities the experiments report.
//
// Everything a bench binary needs: feed an instance through an algorithm
// (the base classes enforce the online contracts at every step), compute
// competitive ratios against a chosen ground truth, and fan Monte-Carlo
// trials out over a fork-join thread team deterministically (trial i
// always runs with seed base_seed + i regardless of scheduling).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/online_admission.h"
#include "core/online_setcover.h"
#include "core/run_budget.h"
#include "graph/request.h"
#include "setcover/instance.h"

namespace minrej {

/// Knobs for run_admission/run_setcover.
struct RunOptions {
  /// Record every arrival's processing latency (two steady_clock reads
  /// plus a store per arrival, inside the timed region).  Off by default
  /// so the per-arrival instrumentation cannot perturb benches that only
  /// read totals; the perf bench (E10) opts in.  When off, the p50/p95/
  /// max latency fields stay 0.
  bool collect_latencies = false;
  /// Emit a MINREJ_WARN_IF line when the run blows through its
  /// augmentation-step budget (see augmentation_step_budget).  The budget
  /// verdict lands in the run struct either way; this only silences the
  /// stderr line (benches that sweep the blow-up regime on purpose, e.g.
  /// E4, opt out).
  bool warn_augmentation_budget = true;
};

// The augmentation-budget guard (augmentation_step_budget,
// kBudgetNeverCrossed, augmentation_budget_warning) lives in
// core/run_budget.h now — included above — so the sharded service can
// report per-shard budgets without a sim dependency; every existing
// caller of the sim API sees it unchanged through this header.

/// Outcome of running one admission algorithm over one instance.
struct AdmissionRun {
  double rejected_cost = 0.0;
  std::size_t rejected_count = 0;
  std::size_t arrivals = 0;
  double seconds = 0.0;
  /// Weight-augmentation steps the algorithm's primal-dual core performed
  /// over the whole run (0 for engines without one).
  std::uint64_t augmentation_steps = 0;
  /// The run's augmentation_step_budget and whether the run blew through
  /// it (the PR 3 per-edge-capacity blow-up guard; see the free function
  /// below).
  std::uint64_t augmentation_budget = 0;
  bool augmentation_budget_exceeded = false;
  /// First arrival index (0-based) at which the cumulative step count
  /// crossed the budget, or kBudgetNeverCrossed if it never did, plus the
  /// first edge of that arrival's request — the context the enriched
  /// MINREJ_WARN_IF line reports (see augmentation_budget_warning).
  std::size_t budget_crossing_arrival = kBudgetNeverCrossed;
  EdgeId budget_crossing_edge = 0;
  /// Per-arrival processing latency quantiles and maximum, in seconds.
  double p50_arrival_s = 0.0;
  double p95_arrival_s = 0.0;
  double max_arrival_s = 0.0;

  double arrivals_per_sec() const noexcept {
    return seconds > 0.0 ? static_cast<double>(arrivals) / seconds : 0.0;
  }
};

/// Feeds every request of the instance to the algorithm, in order.
AdmissionRun run_admission(OnlineAdmissionAlgorithm& algorithm,
                           const AdmissionInstance& instance,
                           const RunOptions& options = {});

/// Outcome of running one set cover algorithm over one arrival sequence.
struct CoverRun {
  double cost = 0.0;
  std::size_t chosen_count = 0;
  std::size_t arrivals = 0;
  double seconds = 0.0;
  /// See AdmissionRun: same counters for the set-cover side.
  std::uint64_t augmentation_steps = 0;
  std::uint64_t augmentation_budget = 0;
  bool augmentation_budget_exceeded = false;
  /// First arrival index at which the step count crossed the budget
  /// (kBudgetNeverCrossed if never) and the element requested there.
  std::size_t budget_crossing_arrival = kBudgetNeverCrossed;
  ElementId budget_crossing_element = 0;
  double p50_arrival_s = 0.0;
  double p95_arrival_s = 0.0;
  double max_arrival_s = 0.0;

  double arrivals_per_sec() const noexcept {
    return seconds > 0.0 ? static_cast<double>(arrivals) / seconds : 0.0;
  }
};

/// Feeds every arrival to the algorithm, in order.
CoverRun run_setcover(OnlineSetCoverAlgorithm& algorithm,
                      const std::vector<ElementId>& arrivals,
                      const RunOptions& options = {});

/// Adaptive adversary for online set cover: at each step requests the
/// element with the least coverage slack (covered − demand), i.e. the one
/// the algorithm is least prepared for, among elements whose demand can
/// still grow (demand < degree).  Runs for `arrivals` steps (or until no
/// element can be requested) and returns the sequence it played, so the
/// caller can compute OPT for it afterwards.
std::vector<ElementId> run_adaptive_adversary(
    OnlineSetCoverAlgorithm& algorithm, std::size_t arrivals);

/// cost / opt with the conventions of competitive analysis: opt == 0 maps
/// to 1 when the algorithm also paid 0 and +inf otherwise.
double competitive_ratio(double cost, double opt);

/// Runs `trials` independent trials in parallel (deterministic seeding is
/// the caller's job: the body receives the trial index) and returns the
/// per-trial results.  Trials are split into contiguous slices over
/// `threads` workers (0 = hardware concurrency); with one worker they run
/// inline, in order.  Blocks until every trial is done and rethrows the
/// first exception a body raised.
std::vector<double> parallel_trials(std::size_t trials,
                                    const std::function<double(std::size_t)>& body,
                                    std::size_t threads = 0);

}  // namespace minrej
