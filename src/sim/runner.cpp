#include "sim/runner.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "util/build_info.h"
#include "util/check.h"
#include "util/stats.h"
#include "util/timer.h"

namespace minrej {

namespace {

/// Fills the shared latency fields of AdmissionRun/CoverRun from the
/// per-arrival samples (sorts in place).
template <typename RunT>
void fill_latency_quantiles(RunT& run, std::vector<double>& latencies) {
  if (latencies.empty()) return;
  std::sort(latencies.begin(), latencies.end());
  run.p50_arrival_s = quantile_sorted(latencies, 0.50);
  run.p95_arrival_s = quantile_sorted(latencies, 0.95);
  run.max_arrival_s = latencies.back();
}

}  // namespace

AdmissionRun run_admission(OnlineAdmissionAlgorithm& algorithm,
                           const AdmissionInstance& instance,
                           const RunOptions& options) {
  MINREJ_REQUIRE(&algorithm.graph() != nullptr, "algorithm without graph");
  std::vector<double> latencies;
  AdmissionRun run;
  run.augmentation_budget = augmentation_step_budget(
      instance.request_count(), instance.graph().edge_count(),
      instance.graph().max_capacity());
  // Cheap per-arrival probe (one virtual accessor and a compare) so the
  // warning can name the first arrival that blew the budget.
  std::size_t index = 0;
  const auto note_crossing = [&](const Request& request) {
    if (run.budget_crossing_arrival == kBudgetNeverCrossed &&
        algorithm.augmentation_steps() > run.augmentation_budget) {
      run.budget_crossing_arrival = index;
      run.budget_crossing_edge =
          request.edges.empty() ? 0 : request.edges.front();
    }
    ++index;
  };
  Timer timer;
  if (options.collect_latencies) {
    latencies.reserve(instance.request_count());
    Timer arrival_timer;
    for (const Request& request : instance.requests()) {
      arrival_timer.reset();
      algorithm.process(request);
      latencies.push_back(arrival_timer.elapsed_s());
      note_crossing(request);
    }
  } else {
    for (const Request& request : instance.requests()) {
      algorithm.process(request);
      note_crossing(request);
    }
  }
  run.seconds = timer.elapsed_s();
  run.rejected_cost = algorithm.rejected_cost();
  run.rejected_count = algorithm.rejected_count();
  run.arrivals = instance.request_count();
  run.augmentation_steps = algorithm.augmentation_steps();
  run.augmentation_budget_exceeded =
      run.augmentation_steps > run.augmentation_budget;
  if (options.warn_augmentation_budget) {
    MINREJ_WARN_IF(
        run.augmentation_budget_exceeded,
        augmentation_budget_warning(
            run.augmentation_steps, run.augmentation_budget,
            run.budget_crossing_arrival, run.arrivals,
            run.budget_crossing_edge, "edge",
            "per-edge capacity is likely in the superlinear regime"));
  }
  fill_latency_quantiles(run, latencies);
  return run;
}

CoverRun run_setcover(OnlineSetCoverAlgorithm& algorithm,
                      const std::vector<ElementId>& arrivals,
                      const RunOptions& options) {
  std::vector<double> latencies;
  CoverRun run;
  // Through the §4 reduction the edges are the elements and the largest
  // capacity is the largest degree — which is exactly the substrate's
  // max_capacity under the degree binding SetSystem enforces.
  const SetSystem& system = algorithm.system();
  run.augmentation_budget = augmentation_step_budget(
      arrivals.size(), system.element_count(),
      std::max<std::int64_t>(1, system.substrate().max_capacity()));
  std::size_t index = 0;
  const auto note_crossing = [&](ElementId j) {
    if (run.budget_crossing_arrival == kBudgetNeverCrossed &&
        algorithm.augmentation_steps() > run.augmentation_budget) {
      run.budget_crossing_arrival = index;
      run.budget_crossing_element = j;
    }
    ++index;
  };
  Timer timer;
  if (options.collect_latencies) {
    latencies.reserve(arrivals.size());
    Timer arrival_timer;
    for (ElementId j : arrivals) {
      arrival_timer.reset();
      algorithm.on_element(j);
      latencies.push_back(arrival_timer.elapsed_s());
      note_crossing(j);
    }
  } else {
    for (ElementId j : arrivals) {
      algorithm.on_element(j);
      note_crossing(j);
    }
  }
  run.seconds = timer.elapsed_s();
  run.cost = algorithm.cost();
  run.chosen_count = algorithm.chosen_count();
  run.arrivals = arrivals.size();
  run.augmentation_steps = algorithm.augmentation_steps();
  run.augmentation_budget_exceeded =
      run.augmentation_steps > run.augmentation_budget;
  if (options.warn_augmentation_budget) {
    MINREJ_WARN_IF(
        run.augmentation_budget_exceeded,
        augmentation_budget_warning(
            run.augmentation_steps, run.augmentation_budget,
            run.budget_crossing_arrival, run.arrivals,
            run.budget_crossing_element, "element",
            "demands near the element degrees drive the §4 reduction into "
            "the superlinear regime"));
  }
  fill_latency_quantiles(run, latencies);
  return run;
}

std::vector<ElementId> run_adaptive_adversary(
    OnlineSetCoverAlgorithm& algorithm, std::size_t arrivals) {
  const SetSystem& sys = algorithm.system();
  std::vector<ElementId> played;
  played.reserve(arrivals);
  for (std::size_t step = 0; step < arrivals; ++step) {
    // Pick the requestable element with the smallest coverage slack.
    bool found = false;
    ElementId pick = 0;
    std::int64_t best_slack = std::numeric_limits<std::int64_t>::max();
    for (std::size_t j = 0; j < sys.element_count(); ++j) {
      const auto elem = static_cast<ElementId>(j);
      if (algorithm.demand(elem) >=
          static_cast<std::int64_t>(sys.degree(elem))) {
        continue;  // cannot be requested again (would be infeasible)
      }
      const std::int64_t slack =
          algorithm.covered(elem) - algorithm.demand(elem);
      if (slack < best_slack) {
        best_slack = slack;
        pick = elem;
        found = true;
      }
    }
    if (!found) break;  // every element is at its degree limit
    algorithm.on_element(pick);
    played.push_back(pick);
  }
  return played;
}

double competitive_ratio(double cost, double opt) {
  if (opt <= 0.0) {
    return cost <= 0.0 ? 1.0 : std::numeric_limits<double>::infinity();
  }
  return cost / opt;
}

std::vector<double> parallel_trials(
    std::size_t trials, const std::function<double(std::size_t)>& body,
    std::size_t threads) {
  std::vector<double> results(trials, 0.0);
  if (trials == 0) return results;
  if (threads == 0) threads = hardware_concurrency();
  threads = std::min(threads, trials);
  if (threads == 1) {
    for (std::size_t i = 0; i < trials; ++i) results[i] = body(i);
    return results;
  }

  std::mutex err_mu;
  std::exception_ptr first_error;
  std::vector<std::thread> team;
  team.reserve(threads);
  const std::size_t chunk = (trials + threads - 1) / threads;
  for (std::size_t begin = 0; begin < trials; begin += chunk) {
    const std::size_t end = std::min(trials, begin + chunk);
    team.emplace_back([&, begin, end] {
      try {
        for (std::size_t i = begin; i < end; ++i) results[i] = body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : team) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace minrej
