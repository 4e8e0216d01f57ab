// feedbacksim.h — closed-loop client feedback over the sharded service
// (DESIGN.md §9; docs/SCENARIOS.md "Closed-loop scenarios").
//
// The open-loop drivers (sim/runner.h, AdmissionService::run) replay a
// fixed arrival sequence: a rejected request is gone.  Real overloads do
// not behave that way — rejected and shed clients come back, which is
// what turns a transient spike into a sustained one (retry storms).
// run_feedback closes the loop: the instance's requests arrive in epochs,
// every admission verdict is observed, and a rejected or shed (dropped by
// quarantine or validation) request re-arrives after a client-side
// exponential backoff until its attempts are spent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/request.h"
#include "service/admission_service.h"

namespace minrej {

/// Client-side retry behaviour for rejected/shed requests.
struct ClientRetryPolicy {
  /// Total attempts per request, the first arrival included.
  std::size_t max_attempts = 3;
  /// Retry r (1-based) re-arrives after
  /// ceil(backoff_base_epochs * backoff_multiplier^(r-1)) epochs.
  std::size_t backoff_base_epochs = 1;
  double backoff_multiplier = 2.0;
  /// Probability of one extra epoch of delay per retry (decorrelates
  /// retry waves; drawn from FeedbackConfig::seed, deterministic).
  double jitter = 0.0;
};

/// Knobs for run_feedback.
struct FeedbackConfig {
  /// Epochs the instance's fresh arrivals are spread over (equal slices).
  std::size_t epochs = 16;
  ClientRetryPolicy retry;
  std::uint64_t seed = 0x10ADF33Du;
  /// Keep running empty-fresh epochs after the last slice until the retry
  /// queue drains (bounded: attempts are finite).
  bool drain = true;
};

/// Per-epoch accounting of the closed loop.
struct FeedbackEpochStats {
  std::size_t epoch = 0;
  std::size_t offered = 0;   ///< arrivals submitted this epoch
  std::size_t fresh = 0;     ///< first-attempt arrivals
  std::size_t retried = 0;   ///< re-arrivals from the retry queue
  std::size_t admitted = 0;  ///< accepted by the service
  std::size_t rejected = 0;  ///< engine-rejected (kEngine)
  std::size_t shed = 0;      ///< dropped by quarantine or validation
  std::size_t abandoned = 0; ///< clients out of attempts this epoch
  std::size_t backlog = 0;   ///< retry queue size at epoch end
};

/// Outcome of one closed-loop run.
struct FeedbackResult {
  std::vector<FeedbackEpochStats> epochs;
  std::size_t offered = 0;    ///< total arrivals incl. retries
  std::size_t admitted = 0;   ///< requests eventually accepted
  std::size_t abandoned = 0;  ///< requests that ran out of attempts
  std::size_t backlog = 0;    ///< retries still queued when the run ended
};

/// Drives the instance's requests through the service in closed loop.
/// The service may be fault-tolerant or not; with fault tolerance its
/// decision modes separate engine rejections from shed drops in the
/// per-epoch stats (without it everything lands in `rejected`).  The
/// instance must live on a graph with the service's edge count.
FeedbackResult run_feedback(AdmissionService& service,
                            const AdmissionInstance& instance,
                            const FeedbackConfig& config);

}  // namespace minrej
