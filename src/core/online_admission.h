// online_admission.h — the online contract every admission-control
// algorithm in this library obeys (paper §1):
//
//   * requests arrive one at a time and must be accepted or rejected
//     immediately;
//   * a previously accepted request may later be preempted (rejected), but
//     a rejected request can never be accepted again;
//   * after every arrival the accepted set must satisfy every edge
//     capacity.
//
// OnlineAdmissionAlgorithm enforces all three mechanically: subclasses
// implement handle() and the base class validates the returned decision,
// maintains per-edge usage, accumulates rejected cost, and throws
// InternalError if a subclass ever violates the contract.  The property
// tests drive every algorithm through this single choke point.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/request.h"

namespace minrej {

class SnapshotWriter;
class SnapshotReader;

/// Lifecycle of a request inside an online algorithm.
enum class RequestState : std::uint8_t { kAccepted, kRejected };

/// Outcome of one arrival: the decision for the arriving request plus any
/// previously-accepted requests the algorithm preempted to make room.
struct ArrivalResult {
  bool accepted = false;
  std::vector<RequestId> preempted;
};

/// Base class enforcing the online admission-control contract.
class OnlineAdmissionAlgorithm {
 public:
  explicit OnlineAdmissionAlgorithm(const Graph& graph);
  virtual ~OnlineAdmissionAlgorithm() = default;

  OnlineAdmissionAlgorithm(const OnlineAdmissionAlgorithm&) = delete;
  OnlineAdmissionAlgorithm& operator=(const OnlineAdmissionAlgorithm&) =
      delete;

  /// Processes the next arrival.  Returns the validated outcome.
  ArrivalResult process(const Request& request);

  // -- snapshot/restore (io/snapshot.h; DESIGN.md §9) -----------------------

  /// True if this algorithm implements full-state serialization.  The
  /// base-class machinery works for every subclass; a subclass only opts
  /// in once its extra state travels through save_extra/load_extra.
  virtual bool snapshot_supported() const noexcept { return false; }

  /// Serializes the complete algorithm state (base bookkeeping + the
  /// subclass extras).  Restore-then-continue is bit-identical to an
  /// uninterrupted run.  Throws if !snapshot_supported().
  void save_snapshot(SnapshotWriter& w) const;

  /// Restores a save_snapshot stream into this freshly constructed
  /// instance (same graph shape, same configuration — the stream carries
  /// the algorithm name and the configs are cross-checked).
  void load_snapshot(SnapshotReader& r);

  /// Human-readable algorithm name for result tables.
  virtual std::string name() const = 0;

  const Graph& graph() const noexcept { return graph_; }
  std::size_t arrivals() const noexcept { return requests_.size(); }

  RequestState state(RequestId id) const;
  bool is_accepted(RequestId id) const { return state(id) == RequestState::kAccepted; }

  /// Total cost of all rejected requests so far (the objective).
  double rejected_cost() const noexcept { return rejected_cost_; }
  std::size_t rejected_count() const noexcept { return rejected_count_; }

  /// Weight-augmentation steps this algorithm's primal-dual core has
  /// performed so far (0 for algorithms without one, e.g. the greedy
  /// baselines).  Surfaced per-run by sim::run_admission so the perf bench
  /// can report work done, not just wall time.
  virtual std::uint64_t augmentation_steps() const noexcept { return 0; }

  /// Accepted load per edge (always <= capacity between arrivals).
  const std::vector<std::int64_t>& edge_usage() const noexcept {
    return usage_;
  }

  /// True if accepting `request` right now would violate some capacity.
  bool would_overflow(const Request& request) const;

 protected:
  /// Subclass decision hook.  `id` is the id just assigned to `request`.
  /// The base class applies the returned result; subclasses must NOT mutate
  /// usage or state themselves.
  virtual ArrivalResult handle(RequestId id, const Request& request) = 0;

  /// Stored copy of a processed request (subclasses read these freely).
  const Request& stored_request(RequestId id) const { return requests_[id]; }

  /// Subclass hooks for the extra state beyond the base bookkeeping.
  /// Implementations must write/read matching field sequences; the base
  /// class brackets them with a structure tag so drift fails loudly.
  virtual void save_extra(SnapshotWriter& w) const;
  virtual void load_extra(SnapshotReader& r);

 private:
  void apply_rejection(RequestId id);

  const Graph& graph_;
  std::vector<Request> requests_;
  std::vector<RequestState> states_;
  std::vector<std::int64_t> usage_;
  double rejected_cost_ = 0.0;
  std::size_t rejected_count_ = 0;
};

}  // namespace minrej
