// admission_service.h — sharded batch-arrival service over the online
// admission algorithms (docs/API.md "AdmissionService"; DESIGN.md §6).
//
// The algorithms in core/ are strictly sequential: one arrival at a time
// through OnlineAdmissionAlgorithm::process.  AdmissionService scales them
// out the way the MPC/local-computation literature decomposes online
// allocation (PAPERS.md: Łącki et al. arXiv:2506.04524, Mansour et al.
// arXiv:1205.1312): the edge set is partitioned into K *shards*, each
// shard owns a full, independent algorithm instance over the same graph,
// and every arriving request is routed to the shard of its first (lowest)
// edge.  The routing thread streams each arrival's batch index into its
// shard's lock-free ring, and a persistent worker per group of shards
// drains the rings (DESIGN.md §11) — so shard trajectories are
// deterministic regardless of scheduling: shard s always sees exactly the
// subsequence of arrivals routed to it, in arrival order.
//
// Partitioning invariant (DESIGN.md §6.1): when every request's edges lie
// in a single shard ("shard-disjoint" traffic — single-edge requests under
// any partition, or multi-tenant traffic under a tenant-aligned
// partition), the sharded system is *exactly* the unsharded one: per-shard
// capacity enforcement equals global enforcement, and each shard's
// competitive guarantee holds verbatim on its sub-instance.  For
// deterministic algorithm configurations the sharded and unsharded runs
// are bit-identical (tests/service_test.cpp pins this down).  For traffic
// that does cross shards, the owning shard enforces capacities against its
// own view only — admission decisions remain safe per shard but edges
// shared across shards may be oversubscribed globally; see DESIGN.md §6.1
// for why this is the documented relaxation rather than an error.
//
// Fault tolerance (DESIGN.md §9): with ServiceConfig::fault_tolerance
// enabled the routing loop validates arrivals before they reach an
// algorithm and drops those of quarantined shards; failed shard
// attempts are rebuilt to their last committed state and retried through
// the same rings with exponential backoff, and a shard whose retries are
// exhausted is quarantined.  A per-shard committed arrival log — together
// with the snapshot layer (io/snapshot.h) — supports snapshot(),
// restore(), checkpoint() and restore_shard().  The routing loop, the
// per-arrival loop and the failure epilogue are shared by both modes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/online_admission.h"
#include "graph/request.h"
#include "util/spsc_ring.h"

namespace minrej {

class FaultInjector;

/// How the pump resolved one arrival (decision_mode()).  Only tracked
/// under fault tolerance; without it every arrival is kEngine.
enum class DecisionMode : std::uint8_t {
  /// Processed by the shard algorithm's full engine (process()).
  kEngine = 0,
  /// Rejected at validation (empty/out-of-range/unsorted edges or a
  /// non-finite/non-positive cost); never reached an algorithm.
  kMalformed = 2,
  /// Dropped because the owning shard was quarantined at arrival time.
  kQuarantineShed = 3,
};

/// Retry/backoff knobs for failed shard tasks (DESIGN.md §9).
struct RetryPolicy {
  /// Retries after the first failed attempt before quarantine.
  std::size_t max_retries = 2;
  /// Backoff before retry r is min(backoff_base_s * 2^r, 0.01 s).
  double backoff_base_s = 0.0005;
};

/// Master switch plus policies.  Disabled (the default) costs a few
/// predictable branches per arrival; nothing else changes.
struct FaultToleranceConfig {
  bool enabled = false;
  RetryPolicy retry;
  /// Optional deterministic fault source (util/fault_injector.h) consulted
  /// by the pump: task exceptions, slow shards, corrupted arrivals.
  std::shared_ptr<const FaultInjector> injector;
};

/// Builds the algorithm instance owned by one shard.  Must construct on
/// the graph it is given (the service's graph — shards share the topology;
/// only the traffic is partitioned).  The shard index lets factories
/// derive per-shard seeds.
///
/// The factory may additionally be invoked from worker threads (parallel
/// committed-log rebuild after a fault-tolerant shard failure), possibly
/// for several shards at once — it must be thread-safe.  The
/// stock factories (randomized_shard_factory and the test factories) are:
/// they capture only values and construct fresh objects.
using ShardAlgorithmFactory =
    std::function<std::unique_ptr<OnlineAdmissionAlgorithm>(
        const Graph& graph, std::size_t shard)>;

/// The service's one pump (DESIGN.md §11): persistent per-shard workers
/// fed by bounded lock-free SPSC rings (util/spsc_ring.h).  The routing
/// thread is the single producer of every ring; shard s is consumed by
/// worker s mod W only.  It has a single value, kept only because the
/// benchmark driver (perfbench/driver.cpp) assigns ServiceConfig::pump.
enum class PumpMode : std::uint8_t { kRings };

/// Service knobs.
struct ServiceConfig {
  /// Number of shards K (>= 1).  K == 1 is the unsharded reference.
  std::size_t shards = 1;
  /// Arrivals per pump in run(); submit_batch takes what it is given.
  std::size_t batch = 256;
  /// Ring workers; 0 selects one per shard (capped at hardware).  Each
  /// shard's ring holds max(1024, batch) indices (rounded up to a power of
  /// two); a full ring makes the routing thread wait, never fail.
  std::size_t threads = 0;
  /// Record per-arrival processing latency (two clock reads per arrival
  /// inside the shard task).  Off by default, same rationale as
  /// RunOptions::collect_latencies.
  bool collect_latencies = false;
  /// Optional edge → shard override (must return values < shards; checked
  /// over every edge at construction).  The default is the splitmix64 hash
  /// partition; a tenant-aligned override makes multi-tenant traffic
  /// shard-disjoint (DESIGN.md §6.1).
  std::function<std::size_t(EdgeId)> partition;
  /// Fault-tolerance layer (DESIGN.md §9).  Off by default.
  FaultToleranceConfig fault_tolerance;
  /// The pump (see PumpMode).  Its only value is the default.
  PumpMode pump = PumpMode::kRings;
};

/// Counters for one shard.  accepted/rejected/rejected_cost/augmentations
/// are read from the shard's algorithm at query time; arrivals, busy time
/// and latencies are tracked by the pump.
struct ShardStats {
  std::size_t shard = 0;
  std::size_t arrivals = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  double rejected_cost = 0.0;
  std::uint64_t augmentation_steps = 0;
  /// Time this shard's tasks spent processing (sums over batches; the
  /// max over shards is the critical path of the pump).
  double busy_seconds = 0.0;
  /// Per-arrival latencies in seconds, arrival order (empty unless
  /// ServiceConfig::collect_latencies).
  std::vector<double> latencies_s;
  /// The shard's core/run_budget.h augmentation-step budget at its current
  /// arrival count, and whether its steps exceed it — the per-shard
  /// blow-up verdict (same guard the sim runner reports per run).
  std::uint64_t augmentation_budget = 0;
  bool augmentation_budget_exceeded = false;
  /// Fault-tolerance counters (all 0 when the layer is disabled).
  std::size_t task_failures = 0;   ///< failed task attempts (incl. injected)
  std::size_t retries = 0;         ///< attempts re-run after backoff
  std::size_t restores = 0;        ///< algorithm rebuilds (retry/quarantine/heal)
  std::size_t shed = 0;            ///< arrivals dropped by quarantine
  std::size_t malformed = 0;       ///< arrivals rejected at validation
  std::size_t injected_delays = 0; ///< injector kDelay probes observed
  bool quarantined = false;        ///< currently refusing traffic
};

/// Merged view across all shards (util/stats quantile merge).
struct ServiceStats {
  std::size_t shards = 0;
  std::size_t arrivals = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  double rejected_cost = 0.0;
  std::uint64_t augmentation_steps = 0;
  /// Wall-clock seconds: run() reports its own wall time; aggregate()
  /// reports the summed wall time of all submit_batch calls.
  double seconds = 0.0;
  /// Largest per-shard busy_seconds — the pump's critical path.
  double max_shard_busy_s = 0.0;
  /// Summed per-shard busy_seconds (the serialized work).
  double total_busy_s = 0.0;
  /// Per-arrival latency quantiles over the merged shard samples, in
  /// seconds (0 when latencies were not collected).
  double p50_arrival_s = 0.0;
  double p95_arrival_s = 0.0;
  double max_arrival_s = 0.0;
  /// Shards whose augmentation steps exceed their budget (satellite of
  /// the per-shard ShardStats verdict).
  std::size_t budget_exceeded_shards = 0;
  /// Summed fault-tolerance counters (see ShardStats).
  std::size_t task_failures = 0;
  std::size_t retries = 0;
  std::size_t restores = 0;
  std::size_t shed = 0;
  std::size_t malformed = 0;
  std::size_t injected_delays = 0;
  std::size_t quarantined_shards = 0;

  double arrivals_per_sec() const noexcept {
    return seconds > 0.0 ? static_cast<double>(arrivals) / seconds : 0.0;
  }

  /// Throughput of the pump's critical path: arrivals / max shard busy
  /// time.  This is what the sharded system sustains when every shard has
  /// its own core — on a machine with fewer cores than shards the wall
  /// clock serializes the shards and arrivals_per_sec() cannot show the
  /// sharding gain, while this number still does (DESIGN.md §6.2).
  double critical_path_arrivals_per_sec() const noexcept {
    return max_shard_busy_s > 0.0
               ? static_cast<double>(arrivals) / max_shard_busy_s
               : 0.0;
  }
};

/// Convenience factory shared by the service driver and benches: one §3
/// RandomizedAdmission per shard in the given cost mode, seeded
/// `seed + shard` so shard trajectories draw independent random streams.
ShardAlgorithmFactory randomized_shard_factory(bool unit_costs,
                                               std::uint64_t seed);

/// The sharded batch-arrival admission service.
class AdmissionService {
 public:
  /// Builds `config.shards` algorithm instances via `factory` (each must
  /// be constructed on `graph` — checked) and starts the ring workers.
  AdmissionService(const Graph& graph, ShardAlgorithmFactory factory,
                   ServiceConfig config = {});

  /// Joins the ring workers.  Legal only between batches — like every
  /// other member, submit_batch must not be in flight.
  ~AdmissionService();

  AdmissionService(const AdmissionService&) = delete;
  AdmissionService& operator=(const AdmissionService&) = delete;

  /// Ring worker threads pumping the shards.
  std::size_t worker_count() const noexcept { return ring_workers_.size(); }

  /// The default partition: splitmix64 hash of the edge id, mod K.
  static std::size_t hash_edge_to_shard(EdgeId e,
                                        std::size_t shard_count) noexcept;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t shard_of_edge(EdgeId e) const;
  /// Shard of the request's first (lowest — edge lists are sorted) edge.
  std::size_t shard_of_request(const Request& request) const;

  /// Pumps one batch through the shards: requests are routed in input
  /// order and streamed into their shards' rings, each shard's worker
  /// processes its sub-batch sequentially, and the per-request admission
  /// decisions come back in input order.  On a shard failure (fault
  /// tolerance off) the batch drains first, the failing shard's
  /// unprocessed arrivals get their placements voided (their is_accepted
  /// throws instead of aliasing a later request), and the first failure
  /// (by shard index) is rethrown; healthy shards keep their results and
  /// the service remains usable.
  std::vector<bool> submit_batch(std::span<const Request> batch);

  /// Pumps the whole instance through submit_batch in config.batch slices
  /// and returns the merged stats with run()'s wall time.  The instance
  /// must live on a graph with the service's edge count.
  ServiceStats run(const AdmissionInstance& instance);

  /// Total arrivals submitted so far.
  std::size_t arrivals() const noexcept { return placement_.size(); }

  /// Current acceptance state of the i-th submitted arrival (queried from
  /// the owning shard, so later preemptions are reflected).
  bool is_accepted(std::size_t arrival_index) const;

  /// The owning (shard, shard-local request id) of the i-th arrival.
  /// The local id is kInvalidId for an arrival voided by a shard failure.
  std::pair<std::size_t, RequestId> placement(std::size_t arrival_index) const;

  const OnlineAdmissionAlgorithm& shard_algorithm(std::size_t shard) const;

  /// Snapshot of one shard's counters.
  ShardStats shard_stats(std::size_t shard) const;

  /// Merged counters; seconds is the accumulated submit_batch wall time.
  ServiceStats aggregate() const;

  // --- fault tolerance / recovery (DESIGN.md §9; docs/API.md) ---

  /// How the pump resolved the i-th arrival.  kEngine for everything when
  /// fault tolerance is disabled (modes are not tracked then).
  DecisionMode decision_mode(std::size_t arrival_index) const;

  bool shard_quarantined(std::size_t shard) const;

  /// Serializes the full service state — placements, decision modes,
  /// per-shard counters/logs, and one embedded algorithm snapshot per
  /// shard — into a sealed io/snapshot.h stream.  Requires every shard
  /// algorithm to support snapshots.  Legal only between batches.
  std::vector<std::uint8_t> snapshot() const;

  /// Rebuilds the state captured by snapshot() into this service, which
  /// must be freshly constructed (no arrivals) with the same graph and
  /// factory.  Same shard count: algorithm snapshots load directly and
  /// the continuation is bit-identical to the uninterrupted run.
  /// Different shard count (reshard-on-restore): the committed global
  /// arrival sequence is replayed through this service's own routing —
  /// requires the source to have kept logs (fault tolerance enabled) and
  /// no shed/malformed arrivals; the decisions match the source for shard-disjoint deterministic traffic
  /// (DESIGN.md §6.1/§9).  Counts and placements are bounds-checked, so
  /// hostile bytes fail with InvalidArgument.
  void restore(std::span<const std::uint8_t> blob);

  /// Captures an in-memory per-shard recovery point (algorithm snapshot +
  /// log position): quarantine recovery and restore_shard() rebuild from
  /// here and replay only the log suffix.  Requires fault tolerance.
  void checkpoint();

  /// Rebuilds one shard to its last committed state (from its checkpoint
  /// when one exists, else by full log replay) and lifts its quarantine.
  /// The soak harness's kill-and-recover primitive.
  void restore_shard(std::size_t shard);

 private:
  /// alignas: a shard's fields (arrivals, busy time, latencies, error)
  /// are written by its owning worker while sibling workers write the
  /// neighbouring shards — cache-line alignment keeps those writes from
  /// false-sharing one line (§11.4).
  struct alignas(kCacheLineBytes) Shard {
    std::unique_ptr<OnlineAdmissionAlgorithm> algorithm;
    std::size_t arrivals = 0;  // committed arrivals
    double busy_seconds = 0.0;
    std::vector<double> latencies_s;
    std::vector<std::size_t> pending;  // batch indices, reused per batch
    // Per-attempt state, reset by the routing thread (begin_attempt)
    // before the attempt's first push and written by the owning worker
    // during it.
    std::exception_ptr error;
    std::size_t done = 0;  // pending arrivals processed so far
    // Fault-tolerance state (untouched when the layer is disabled).
    // Log index == shard-local request id, so replaying the log through
    // process() reproduces the algorithm trajectory exactly.
    std::vector<Request> log;                   // committed arrivals, id order
    std::vector<std::uint8_t> checkpoint_blob;  // last checkpoint() snapshot
    std::size_t checkpoint_log_len = 0;
    bool quarantined = false;
    std::size_t task_failures = 0;
    std::size_t retries = 0;
    std::size_t restores = 0;
    std::size_t shed = 0;
    std::size_t malformed = 0;
    std::size_t injected_delays = 0;

    void begin_attempt() noexcept {
      error = nullptr;
      done = 0;
    }
  };

  /// Per-shard ingest lane (DESIGN.md §11.1).  The hot cross-thread
  /// state: the routing thread produces batch indices into `ring`, the
  /// owning worker consumes them and publishes progress through
  /// `consumed`.  alignas on the struct plus per-field alignas keeps
  /// producer-written, consumer-written and job state on disjoint cache
  /// lines (§11.4).
  struct alignas(kCacheLineBytes) Lane {
    /// Batch indices of this shard's arrivals, produced in arrival order.
    SpscRing<std::uint32_t> ring;
    /// Indices pushed into `ring` so far (routing thread only).
    alignas(kCacheLineBytes) std::uint64_t pushed = 0;
    /// Cumulative indices consumed by the owning worker.  One release
    /// fetch_add per processed chunk; the routing thread's acquire load
    /// is the completion barrier that publishes every shard field the
    /// worker wrote (decisions, latencies, busy time, errors).
    alignas(kCacheLineBytes) std::atomic<std::uint64_t> consumed{0};
    /// Rebuild job slot: the routing thread release-stores true, the
    /// worker acquires, rebuilds the shard, and release-stores false.
    alignas(kCacheLineBytes) std::atomic<bool> rebuild{false};

    explicit Lane(std::size_t capacity) : ring(capacity) {}
  };

  // --- pump internals (DESIGN.md §11) ---
  void start_workers();
  void stop_workers();
  void worker_loop(std::size_t worker, std::size_t worker_total);
  /// Runs up to one chunk of shard s's ring through the per-arrival loop;
  /// returns true if it did any work.  Runs on the owning worker only.
  bool drain_lane(std::size_t s);
  /// The per-arrival loop's injector probe, kept off its hot path: throws
  /// an injected fault or sleeps an injected delay.
  void before_ft_arrival(std::size_t s, std::size_t idx);
  /// Runs shard s's posted rebuild job if any; returns true if it did.
  bool run_lane_job(std::size_t s);
  /// Pushes batch index `idx` into shard s's ring, yielding while full.
  void push(std::size_t s, std::size_t idx);
  /// Bumps the wake epoch under the pump mutex so sleeping workers
  /// re-poll.  The only lock the pump takes, and only when a worker may
  /// be asleep.
  void kick_workers();
  /// True when every lane consumed everything pushed and holds no job.
  bool lanes_quiescent() const;
  /// Blocks the routing thread until lanes_quiescent(): bounded
  /// spin-yield, then timed condvar waits (workers notify cv_done_ after
  /// progress).
  void wait_for_workers();

  // --- failure epilogue ---
  /// Settles every shard that received arrivals this batch: commits what
  /// succeeded; without fault tolerance voids a failed shard's
  /// unprocessed placements and returns the first error by shard index;
  /// with it, rebuilds failed shards, retries them through the rings with
  /// backoff and quarantines those that exhaust their retries.
  std::exception_ptr settle_batch(std::span<const Request> batch,
                                  std::size_t base);
  /// Commits the shard's processed prefix of this batch: arrival count
  /// and, under fault tolerance, the committed log.
  void commit_shard_batch(std::size_t shard, std::span<const Request> batch);
  /// Rebuilds every listed shard as parallel lane jobs — one shard's log
  /// replay must not block its siblings (DESIGN.md §11.5) — and rethrows
  /// the first rebuild error.
  void dispatch_rebuilds(const std::vector<std::size_t>& failed);
  /// Rebuilds the shard's algorithm to its last committed state: fresh
  /// factory instance, checkpoint load when available, log replay for the
  /// rest.
  void rebuild_shard(std::size_t shard);
  bool request_well_formed(const Request& request) const noexcept;

  const Graph& graph_;
  ShardAlgorithmFactory factory_;
  ServiceConfig config_;
  std::vector<Shard> shards_;
  /// One lane per shard (unique_ptr — lanes hold atomics and a ring,
  /// neither movable) and the persistent workers.  Shard s is owned by
  /// worker s mod ring_workers_.size().
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> ring_workers_;
  /// The batch currently being pumped, its first global arrival index
  /// and the current attempt (fault tolerance retries).  Written by the
  /// routing thread before any ring push of the batch or attempt; workers
  /// read them only after a successful pop, so the ring's release/acquire
  /// edge publishes them (§11.3 memory-order contract).
  std::span<const Request> live_batch_;
  std::size_t live_base_ = 0;
  std::size_t live_attempt_ = 0;
  /// Sleep/wake plumbing.  Workers spin-poll between batches for a
  /// bounded grace period, then wait on cv_wake_ with a short timeout;
  /// wake_epoch_ bumps (kick_workers) cut the latency of the common case.
  /// The timeout makes a lost wakeup cost microseconds, never a deadlock.
  std::mutex pump_mu_;
  std::condition_variable cv_wake_;
  std::condition_variable cv_done_;
  std::uint64_t wake_epoch_ = 0;  // guarded by pump_mu_
  bool stop_workers_ = false;     // guarded by pump_mu_
  /// arrival index → (shard, shard-local request id).
  std::vector<std::pair<std::uint32_t, RequestId>> placement_;
  /// arrival index → DecisionMode (only under fault tolerance).  Written
  /// by the routing thread only; entries start at kEngine (0).
  std::vector<std::uint8_t> modes_;
  /// Per-batch decision scratch (uint8_t, not vector<bool>: workers
  /// write disjoint elements concurrently and vector<bool> packs bits).
  std::vector<std::uint8_t> decisions_;
  double pumped_seconds_ = 0.0;
};

}  // namespace minrej
