#include "sim/feedbacksim.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <span>

#include "util/check.h"
#include "util/rng.h"

namespace minrej {

namespace {

/// One client waiting to retry.
struct PendingRetry {
  Request request;
  std::size_t attempt = 1;    // attempts already spent
  std::size_t due_epoch = 0;  // epoch it re-arrives in
};

std::size_t backoff_epochs(const ClientRetryPolicy& retry,
                           std::size_t attempt, Rng& rng) {
  const double raw =
      static_cast<double>(retry.backoff_base_epochs) *
      std::pow(retry.backoff_multiplier,
               static_cast<double>(attempt > 0 ? attempt - 1 : 0));
  auto epochs = static_cast<std::size_t>(std::ceil(std::max(1.0, raw)));
  if (retry.jitter > 0.0 && rng.bernoulli(retry.jitter)) ++epochs;
  return epochs;
}

}  // namespace

FeedbackResult run_feedback(AdmissionService& service,
                            const AdmissionInstance& instance,
                            const FeedbackConfig& config) {
  MINREJ_REQUIRE(config.epochs >= 1, "feedback loop needs epochs");
  MINREJ_REQUIRE(config.retry.max_attempts >= 1,
                 "clients need at least one attempt");
  MINREJ_REQUIRE(config.retry.backoff_multiplier >= 1.0,
                 "backoff multiplier must be >= 1");
  MINREJ_REQUIRE(config.retry.jitter >= 0.0 && config.retry.jitter <= 1.0,
                 "jitter must be in [0, 1]");
  MINREJ_REQUIRE(instance.graph().edge_count() ==
                     service.shard_algorithm(0).graph().edge_count(),
                 "instance graph does not match the service graph");

  Rng rng(config.seed);
  const std::vector<Request>& fresh = instance.requests();
  const std::size_t per_epoch =
      (fresh.size() + config.epochs - 1) / std::max<std::size_t>(1,
                                                                 config.epochs);
  std::deque<PendingRetry> queue;
  FeedbackResult result;

  std::size_t fresh_offset = 0;
  std::size_t epoch = 0;
  while (true) {
    const bool fresh_left = fresh_offset < fresh.size();
    if (!fresh_left && (queue.empty() || !config.drain)) break;

    FeedbackEpochStats es;
    es.epoch = epoch;

    // Due retries first (queue order — oldest clients retry first), then
    // this epoch's fresh slice.  One submit_batch per epoch keeps the
    // per-shard trajectories deterministic.
    std::vector<Request> batch;
    std::vector<std::size_t> attempts;  // spent attempts per batch entry
    while (!queue.empty() && queue.front().due_epoch <= epoch) {
      batch.push_back(std::move(queue.front().request));
      attempts.push_back(queue.front().attempt);
      queue.pop_front();
      ++es.retried;
    }
    if (fresh_left) {
      const std::size_t count =
          std::min(per_epoch, fresh.size() - fresh_offset);
      for (std::size_t i = 0; i < count; ++i) {
        batch.push_back(fresh[fresh_offset + i]);
        attempts.push_back(1);
      }
      fresh_offset += count;
      es.fresh = count;
    }
    es.offered = batch.size();

    if (!batch.empty()) {
      const std::size_t base = service.arrivals();
      const std::vector<bool> accepted =
          service.submit_batch(std::span<const Request>(batch));
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (accepted[i]) {
          ++es.admitted;
          continue;
        }
        if (service.decision_mode(base + i) == DecisionMode::kEngine) {
          ++es.rejected;
        } else {
          ++es.shed;
        }
        if (attempts[i] >= config.retry.max_attempts) {
          ++es.abandoned;
          continue;
        }
        PendingRetry retry;
        retry.request = std::move(batch[i]);
        retry.attempt = attempts[i] + 1;
        retry.due_epoch =
            epoch + backoff_epochs(config.retry, attempts[i], rng);
        queue.push_back(std::move(retry));
      }
    }

    // Keep the queue due-ordered: entries pushed this epoch can be due
    // earlier than older long-backoff entries.
    std::stable_sort(queue.begin(), queue.end(),
                     [](const PendingRetry& a, const PendingRetry& b) {
                       return a.due_epoch < b.due_epoch;
                     });
    es.backlog = queue.size();
    result.offered += es.offered;
    result.admitted += es.admitted;
    result.abandoned += es.abandoned;
    result.epochs.push_back(es);
    ++epoch;

    // Safety valve: drain cannot loop forever (attempts are finite), but a
    // pathological backoff schedule could stretch idle epochs; skip ahead
    // to the next due retry instead of spinning empty epochs.
    if (!fresh_left && !queue.empty()) {
      std::size_t next_due = queue.front().due_epoch;
      for (const PendingRetry& r : queue) {
        next_due = std::min(next_due, r.due_epoch);
      }
      if (next_due > epoch) epoch = next_due;
    }
  }
  result.backlog = queue.size();
  return result;
}

}  // namespace minrej
