#include "service/admission_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string_view>
#include <thread>

#include "core/randomized_admission.h"
#include "core/run_budget.h"
#include "io/snapshot.h"
#include "util/build_info.h"
#include "util/check.h"
#include "util/fault_injector.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace minrej {

ShardAlgorithmFactory randomized_shard_factory(bool unit_costs,
                                               std::uint64_t seed) {
  return [unit_costs, seed](const Graph& graph, std::size_t shard) {
    RandomizedConfig cfg;
    cfg.unit_costs = unit_costs;
    cfg.seed = seed + shard;
    return std::make_unique<RandomizedAdmission>(graph, cfg);
  };
}

namespace {

std::size_t pump_workers(const ServiceConfig& config) {
  const std::size_t hw = hardware_concurrency();
  const std::size_t want =
      config.threads > 0 ? config.threads : std::min(config.shards, hw);
  return std::max<std::size_t>(1, std::min(want, config.shards));
}

/// Stream kinds of the two nested snapshot formats (io/snapshot.h).
constexpr std::string_view kServiceSnapshotKind = "minrej.service";
constexpr std::string_view kAlgorithmSnapshotKind = "minrej.algorithm";
constexpr std::uint32_t kServiceSnapshotVersion = 2;
constexpr std::uint32_t kAlgorithmSnapshotVersion = 2;

/// Cap on the retry backoff sleep (RetryPolicy::backoff_base_s doubles up
/// to it).
constexpr double kBackoffMaxSeconds = 0.01;

/// Order-sensitive fingerprint of the capacity vector: snapshots refuse to
/// load onto a graph with the same edge count but different capacities.
std::uint64_t capacity_fingerprint(const Graph& graph) noexcept {
  std::uint64_t state = 0x6D696E72656A6670ULL;  // "minrejfp"
  for (const std::int64_t c : graph.capacities()) {
    state ^= static_cast<std::uint64_t>(c);
    splitmix64(state);
  }
  return splitmix64(state);
}

/// One committed-log request as snapshot() writes it.
Request read_logged_request(SnapshotReader& r) {
  Request request;
  request.edges = r.vec<EdgeId>();
  request.cost = r.f64();
  request.must_accept = r.boolean();
  return request;
}

}  // namespace

AdmissionService::AdmissionService(const Graph& graph,
                                   ShardAlgorithmFactory factory,
                                   ServiceConfig config)
    : graph_(graph), factory_(std::move(factory)), config_(std::move(config)) {
  MINREJ_REQUIRE(config_.shards >= 1, "service needs at least one shard");
  MINREJ_REQUIRE(config_.batch >= 1, "batch must be positive");
  MINREJ_REQUIRE(static_cast<bool>(factory_), "null algorithm factory");
  MINREJ_REQUIRE(graph_.edge_count() >= 1, "graph has no edges");
  if (config_.partition) {
    // A partition that maps any edge out of range would fail mid-pump on
    // the first request touching that edge; surface it at construction
    // instead, where the error names the config, not the traffic.
    for (std::size_t e = 0; e < graph_.edge_count(); ++e) {
      MINREJ_REQUIRE(config_.partition(static_cast<EdgeId>(e)) <
                         config_.shards,
                     "partition maps an edge to a shard >= the shard count");
    }
  }
  MINREJ_REQUIRE(config_.fault_tolerance.retry.backoff_base_s >= 0.0,
                 "retry backoff must be non-negative");
  shards_.resize(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_[s].algorithm = factory_(graph_, s);
    MINREJ_REQUIRE(shards_[s].algorithm != nullptr,
                   "factory returned a null algorithm");
    MINREJ_REQUIRE(&shards_[s].algorithm->graph() == &graph_,
                   "shard algorithm must be built on the service graph");
  }
  const std::size_t capacity = std::max<std::size_t>(1024, config_.batch);
  lanes_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    lanes_.push_back(std::make_unique<Lane>(capacity));
  }
  start_workers();
}

AdmissionService::~AdmissionService() { stop_workers(); }

void AdmissionService::start_workers() {
  const std::size_t workers = pump_workers(config_);
  ring_workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    ring_workers_.emplace_back([this, w, workers] { worker_loop(w, workers); });
  }
}

void AdmissionService::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(pump_mu_);
    stop_workers_ = true;
    ++wake_epoch_;
  }
  cv_wake_.notify_all();
  // Legal only between batches (rings drained, job slots empty), so
  // joining here never abandons work.
  for (std::thread& t : ring_workers_) {
    if (t.joinable()) t.join();
  }
  ring_workers_.clear();
}

void AdmissionService::kick_workers() {
  {
    std::lock_guard<std::mutex> lock(pump_mu_);
    ++wake_epoch_;
  }
  cv_wake_.notify_all();
}

bool AdmissionService::lanes_quiescent() const {
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    if (lane->consumed.load(std::memory_order_acquire) != lane->pushed ||
        lane->rebuild.load(std::memory_order_acquire)) {
      return false;
    }
  }
  return true;
}

void AdmissionService::wait_for_workers() {
  // Bounded spin first: on the pumping fast path the workers finish the
  // batch within the spin window and no lock is ever taken.
  for (int spin = 0; spin < 4096; ++spin) {
    if (lanes_quiescent()) return;
    std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lock(pump_mu_);
  while (!lanes_quiescent()) {
    // Timed wait: workers notify cv_done_ locklessly after each chunk, so
    // a notification racing past this thread costs one timeout, never a
    // hang.
    cv_done_.wait_for(lock, std::chrono::microseconds(200));
  }
}

void AdmissionService::worker_loop(std::size_t worker,
                                   std::size_t worker_total) {
  // Persistent consumer: owns shards worker, worker+W, worker+2W, …  Spins
  // over its lanes while work keeps arriving, yields through a bounded
  // grace window when idle, then sleeps on cv_wake_ with a short timeout
  // (the timeout caps the cost of a wakeup lost to the lock-free push
  // path; kick_workers cuts the common-case latency).
  constexpr int kIdleGracePolls = 256;
  std::uint64_t seen_epoch = 0;
  int idle_polls = 0;
  for (;;) {
    bool did_work = false;
    for (std::size_t s = worker; s < shards_.size(); s += worker_total) {
      if (run_lane_job(s)) did_work = true;
      if (drain_lane(s)) did_work = true;
    }
    if (did_work) {
      idle_polls = 0;
      cv_done_.notify_all();
      continue;
    }
    if (++idle_polls < kIdleGracePolls) {
      std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lock(pump_mu_);
    if (stop_workers_) return;
    cv_wake_.wait_for(lock, std::chrono::microseconds(500), [&] {
      return stop_workers_ || wake_epoch_ != seen_epoch;
    });
    seen_epoch = wake_epoch_;
    if (stop_workers_) return;
    lock.unlock();
    idle_polls = 0;
  }
}

bool AdmissionService::drain_lane(std::size_t s) {
  Lane& lane = *lanes_[s];
  std::uint32_t idx;
  if (!lane.ring.try_pop(idx)) return false;
  // The successful pop's acquire pairs with the routing thread's release
  // push: live_batch_ and the per-attempt shard state are visible from
  // here.
  Shard& shard = shards_[s];
  const std::span<const Request> batch = live_batch_;
  const bool ft = config_.fault_tolerance.enabled;
  constexpr std::size_t kChunk = 256;
  std::size_t consumed = 0;
  Timer busy;
  Timer arrival_timer;
  do {
    ++consumed;
    if (shard.error) continue;  // poisoned: discard the rest, but count it
    try {
      if (ft) before_ft_arrival(s, idx);
      if (config_.collect_latencies) arrival_timer.reset();
      const ArrivalResult result = shard.algorithm->process(batch[idx]);
      if (config_.collect_latencies) {
        shard.latencies_s.push_back(arrival_timer.elapsed_s());
      }
      decisions_[idx] = result.accepted ? 1 : 0;
      ++shard.done;
    } catch (...) {
      shard.error = std::current_exception();
    }
  } while (consumed < kChunk && lane.ring.try_pop(idx));
  shard.busy_seconds += busy.elapsed_s();
  // One release per chunk, not per arrival: publishes every shard write
  // above to the routing thread's acquire load in the completion wait.
  lane.consumed.fetch_add(consumed, std::memory_order_release);
  return true;
}

void AdmissionService::before_ft_arrival(std::size_t s, std::size_t idx) {
  const FaultInjector* injector = config_.fault_tolerance.injector.get();
  if (injector == nullptr) return;
  // Probe on the service-global arrival index: it advances even when the
  // shard sheds, so a healed shard is not doomed to replay the exact probe
  // pattern that quarantined it.
  const std::size_t global_arrival = live_base_ + idx;
  switch (injector->probe(s, global_arrival, live_attempt_)) {
    case FaultAction::kException:
      throw InjectedFault("injected shard-task fault (shard " +
                          std::to_string(s) + ", arrival " +
                          std::to_string(global_arrival) + ", attempt " +
                          std::to_string(live_attempt_) + ")");
    case FaultAction::kDelay:
      std::this_thread::sleep_for(
          std::chrono::duration<double>(injector->delay_seconds()));
      ++shards_[s].injected_delays;
      break;
    case FaultAction::kNone:
      break;
  }
}

bool AdmissionService::run_lane_job(std::size_t s) {
  Lane& lane = *lanes_[s];
  if (!lane.rebuild.load(std::memory_order_acquire)) return false;
  try {
    rebuild_shard(s);
  } catch (...) {
    shards_[s].error = std::current_exception();
  }
  lane.rebuild.store(false, std::memory_order_release);
  return true;
}

void AdmissionService::push(std::size_t s, std::size_t idx) {
  Lane& lane = *lanes_[s];
  std::size_t spins = 0;
  while (!lane.ring.try_push(static_cast<std::uint32_t>(idx))) {
    // Ring full: the owning worker is behind.  Yield to it; kick
    // periodically in case it reached its idle sleep before our first
    // kick landed.
    if ((++spins & 0x3FFu) == 0) kick_workers();
    std::this_thread::yield();
  }
  ++lane.pushed;
}

std::size_t AdmissionService::hash_edge_to_shard(
    EdgeId e, std::size_t shard_count) noexcept {
  if (shard_count <= 1) return 0;
  // splitmix64 of the edge id: spreads hot low-id edges (the Zipf head)
  // across shards instead of clustering them in shard 0.
  std::uint64_t state = static_cast<std::uint64_t>(e) + 1;
  return static_cast<std::size_t>(splitmix64(state) %
                                  static_cast<std::uint64_t>(shard_count));
}

std::size_t AdmissionService::shard_of_edge(EdgeId e) const {
  MINREJ_REQUIRE(e < graph_.edge_count(), "edge id out of range");
  if (!config_.partition) return hash_edge_to_shard(e, shards_.size());
  const std::size_t s = config_.partition(e);
  MINREJ_REQUIRE(s < shards_.size(),
                 "partition returned a shard out of range");
  return s;
}

std::size_t AdmissionService::shard_of_request(const Request& request) const {
  MINREJ_REQUIRE(!request.edges.empty(), "empty request");
  return shard_of_edge(request.edges.front());
}

bool AdmissionService::request_well_formed(
    const Request& request) const noexcept {
  if (request.edges.empty()) return false;
  if (!(request.cost > 0.0) || !std::isfinite(request.cost)) return false;
  EdgeId prev = 0;
  for (std::size_t i = 0; i < request.edges.size(); ++i) {
    const EdgeId e = request.edges[i];
    if (e >= graph_.edge_count()) return false;
    if (i > 0 && e <= prev) return false;  // sorted + unique contract
    prev = e;
  }
  return true;
}

std::vector<bool> AdmissionService::submit_batch(
    std::span<const Request> batch) {
  Timer wall;
  const FaultToleranceConfig& ft = config_.fault_tolerance;
  const FaultInjector* injector = ft.enabled ? ft.injector.get() : nullptr;
  const std::size_t base = placement_.size();
  decisions_.assign(batch.size(), 0);
  // New entries start at kEngine; routing and settle_batch overwrite the
  // ones they drop.
  if (ft.enabled) modes_.resize(base + batch.size());

  // Between batches the workers are quiescent (the previous completion
  // wait saw every pushed index consumed), so these reads and writes are
  // stable.  local_base snapshots each algorithm's arrival count *now*,
  // because by the time a later arrival of this batch is routed the owning
  // worker may already be advancing it — the count at batch start plus
  // the number of already-routed arrivals is the sequential id exactly.
  std::vector<std::size_t> local_base(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].pending.clear();
    shards_[s].begin_attempt();
    local_base[s] = shards_[s].algorithm->arrivals();
  }

  // Publish the batch, then route on this thread and stream each index
  // into its shard's ring as soon as it is placed: the push's release
  // store is what makes live_batch_ (and decisions_) visible to the
  // consuming worker, and workers overlap with the rest of routing.
  // Under fault tolerance, arrivals that are malformed (or flagged corrupt
  // by the injector) or owned by a quarantined shard never reach an
  // algorithm: their decision stays "rejected", their placement is voided
  // and the mode records why.
  live_batch_ = batch;
  live_base_ = base;
  live_attempt_ = 0;
  kick_workers();
  const auto drop = [&](std::size_t i, std::size_t s, DecisionMode mode) {
    placement_.emplace_back(static_cast<std::uint32_t>(s), kInvalidId);
    modes_[base + i] = static_cast<std::uint8_t>(mode);
  };
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& request = batch[i];
    if (ft.enabled && ((injector && injector->corrupt(base + i)) ||
                       !request_well_formed(request))) {
      // Attribute to the shard the first edge routes to when it is
      // routable at all; shard 0 is the catch-all for unroutable garbage.
      const std::size_t s =
          (!request.edges.empty() && request.edges.front() < graph_.edge_count())
              ? shard_of_edge(request.edges.front())
              : 0;
      ++shards_[s].malformed;
      drop(i, s, DecisionMode::kMalformed);
      continue;
    }
    const std::size_t s = shard_of_request(request);
    Shard& shard = shards_[s];
    if (ft.enabled && shard.quarantined) {
      ++shard.shed;
      drop(i, s, DecisionMode::kQuarantineShed);
      continue;
    }
    placement_.emplace_back(
        static_cast<std::uint32_t>(s),
        static_cast<RequestId>(local_base[s] + shard.pending.size()));
    shard.pending.push_back(i);
    push(s, i);
  }
  kick_workers();
  wait_for_workers();
  const std::exception_ptr first_error = settle_batch(batch, base);
  pumped_seconds_ += wall.elapsed_s();
  if (first_error) std::rethrow_exception(first_error);
  std::vector<bool> accepted(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    accepted[i] = decisions_[i] != 0;
  }
  return accepted;
}

std::exception_ptr AdmissionService::settle_batch(
    std::span<const Request> batch, std::size_t base) {
  const FaultToleranceConfig& ft = config_.fault_tolerance;
  std::vector<std::size_t> running;  // shards in the current attempt
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s].pending.empty()) running.push_back(s);
  }
  std::exception_ptr first_error;
  for (std::size_t attempt = 0; !running.empty(); ++attempt) {
    std::vector<std::size_t> failed;
    for (const std::size_t s : running) {
      Shard& shard = shards_[s];
      if (!shard.error || !ft.enabled) {
        commit_shard_batch(s, batch);
        if (!shard.error) continue;
        // Without fault tolerance the shard keeps the prefix it processed.
        // Its algorithm never assigned ids to the rest: void their
        // placements so a later batch cannot alias those local ids onto
        // the stale entries.
        if (!first_error) first_error = shard.error;
        shard.error = nullptr;
        for (std::size_t j = shard.done; j < shard.pending.size(); ++j) {
          placement_[base + shard.pending[j]].second = kInvalidId;
        }
        continue;
      }
      // The failed attempt commits nothing: its latency samples go too.
      shard.error = nullptr;
      ++shard.task_failures;
      if (config_.collect_latencies) {
        shard.latencies_s.resize(shard.latencies_s.size() - shard.done);
      }
      failed.push_back(s);
    }
    if (failed.empty()) break;
    // Roll every casualty back to its committed pre-batch state, then
    // retry those with retries left and quarantine the rest.
    dispatch_rebuilds(failed);
    running.clear();
    for (const std::size_t s : failed) {
      Shard& shard = shards_[s];
      if (attempt < ft.retry.max_retries) {
        ++shard.retries;
        running.push_back(s);
        continue;
      }
      // Exhausted retries: mark the shard quarantined and shed its share
      // of this batch.
      shard.quarantined = true;
      for (const std::size_t idx : shard.pending) {
        decisions_[idx] = 0;
        placement_[base + idx].second = kInvalidId;
        modes_[base + idx] =
            static_cast<std::uint8_t>(DecisionMode::kQuarantineShed);
        ++shard.shed;
      }
    }
    if (running.empty()) break;
    const double doubling = static_cast<double>(
        std::uint64_t{1} << std::min<std::size_t>(attempt, 30));
    const double delay =
        std::min(kBackoffMaxSeconds, ft.retry.backoff_base_s * doubling);
    if (delay > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
    // The retry re-pushes the same indices through the same rings.
    live_attempt_ = attempt + 1;
    for (const std::size_t s : running) {
      shards_[s].begin_attempt();
      for (const std::size_t idx : shards_[s].pending) push(s, idx);
    }
    kick_workers();
    wait_for_workers();
  }
  return first_error;
}

void AdmissionService::commit_shard_batch(std::size_t shard_index,
                                          std::span<const Request> batch) {
  Shard& shard = shards_[shard_index];
  shard.arrivals += shard.done;
  if (!config_.fault_tolerance.enabled) return;
  shard.log.reserve(shard.log.size() + shard.done);
  for (std::size_t j = 0; j < shard.done; ++j) {
    shard.log.push_back(batch[shard.pending[j]]);
  }
}

void AdmissionService::rebuild_shard(std::size_t shard_index) {
  Shard& shard = shards_[shard_index];
  std::unique_ptr<OnlineAdmissionAlgorithm> fresh =
      factory_(graph_, shard_index);
  MINREJ_CHECK(fresh != nullptr, "factory returned a null algorithm");
  std::size_t replay_from = 0;
  if (!shard.checkpoint_blob.empty() && fresh->snapshot_supported()) {
    SnapshotReader r(shard.checkpoint_blob, kAlgorithmSnapshotKind);
    fresh->load_snapshot(r);
    r.expect_end();
    replay_from = shard.checkpoint_log_len;
  }
  // Replay calls process() exactly as the live pump did, so the trajectory
  // (weights, RNG draws, ids) is reproduced bit-for-bit.
  for (std::size_t j = replay_from; j < shard.log.size(); ++j) {
    fresh->process(shard.log[j]);
  }
  shard.algorithm = std::move(fresh);
  ++shard.restores;
}

void AdmissionService::dispatch_rebuilds(
    const std::vector<std::size_t>& failed) {
  // The release store into each job slot pairs with the owning worker's
  // acquire; its release store of false publishes the rebuilt shard to
  // the completion wait's acquire.
  for (const std::size_t s : failed) {
    lanes_[s]->rebuild.store(true, std::memory_order_release);
  }
  kick_workers();
  wait_for_workers();
  // A rebuild that threw (corrupt checkpoint, factory failure) parked its
  // exception in shard.error; surface the first one.
  std::exception_ptr first_error;
  for (const std::size_t s : failed) {
    if (!shards_[s].error) continue;
    if (!first_error) first_error = shards_[s].error;
    shards_[s].error = nullptr;
  }
  if (first_error) std::rethrow_exception(first_error);
}

DecisionMode AdmissionService::decision_mode(
    std::size_t arrival_index) const {
  MINREJ_REQUIRE(arrival_index < placement_.size(),
                 "arrival index out of range");
  if (arrival_index >= modes_.size()) return DecisionMode::kEngine;
  return static_cast<DecisionMode>(modes_[arrival_index]);
}

bool AdmissionService::shard_quarantined(std::size_t shard) const {
  MINREJ_REQUIRE(shard < shards_.size(), "shard index out of range");
  return shards_[shard].quarantined;
}

void AdmissionService::checkpoint() {
  MINREJ_REQUIRE(config_.fault_tolerance.enabled,
                 "checkpoint() needs fault tolerance enabled (the recovery "
                 "replay consumes the per-shard arrival log)");
  for (Shard& shard : shards_) {
    if (!shard.algorithm->snapshot_supported()) {
      // Recovery falls back to full log replay for this shard.
      shard.checkpoint_blob.clear();
      shard.checkpoint_log_len = 0;
      continue;
    }
    SnapshotWriter w(std::string(kAlgorithmSnapshotKind),
                     kAlgorithmSnapshotVersion);
    shard.algorithm->save_snapshot(w);
    shard.checkpoint_blob = w.finish();
    shard.checkpoint_log_len = shard.log.size();
  }
}

void AdmissionService::restore_shard(std::size_t shard) {
  MINREJ_REQUIRE(config_.fault_tolerance.enabled,
                 "restore_shard() needs fault tolerance enabled");
  MINREJ_REQUIRE(shard < shards_.size(), "shard index out of range");
  rebuild_shard(shard);
  shards_[shard].quarantined = false;
}

std::vector<std::uint8_t> AdmissionService::snapshot() const {
  for (const Shard& shard : shards_) {
    MINREJ_REQUIRE(shard.algorithm->snapshot_supported(),
                   "snapshot() requires every shard algorithm to support "
                   "snapshots (docs/API.md)");
  }
  SnapshotWriter w(std::string(kServiceSnapshotKind), kServiceSnapshotVersion);
  w.tag("SRVC");
  w.u64(shards_.size());
  w.u64(graph_.edge_count());
  w.u64(capacity_fingerprint(graph_));
  const bool has_log = config_.fault_tolerance.enabled;
  w.boolean(has_log);
  w.u64(placement_.size());
  for (const auto& [shard, local] : placement_) {
    w.u32(shard);
    w.u32(local);
  }
  w.vec(modes_);
  for (const Shard& shard : shards_) {
    w.tag("SHRD");
    w.u64(shard.arrivals);
    w.u64(shard.task_failures);
    w.u64(shard.retries);
    w.u64(shard.restores);
    w.u64(shard.shed);
    w.u64(shard.malformed);
    w.u64(shard.injected_delays);
    w.boolean(shard.quarantined);
    w.u64(shard.log.size());
    for (const Request& request : shard.log) {
      w.vec(request.edges);
      w.f64(request.cost);
      w.boolean(request.must_accept);
    }
    SnapshotWriter algo(std::string(kAlgorithmSnapshotKind),
                        kAlgorithmSnapshotVersion);
    shard.algorithm->save_snapshot(algo);
    w.blob(algo.finish());
  }
  return w.finish();
}

void AdmissionService::restore(std::span<const std::uint8_t> blob) {
  MINREJ_REQUIRE(placement_.empty(),
                 "restore() requires a freshly constructed service");
  SnapshotReader r(blob, kServiceSnapshotKind);
  MINREJ_REQUIRE(r.version() == kServiceSnapshotVersion,
                 "unsupported service snapshot version");
  r.expect_tag("SRVC");
  const std::size_t source_shards = r.count(1);
  MINREJ_REQUIRE(r.u64() == graph_.edge_count(),
                 "snapshot was taken on a graph with a different edge count");
  MINREJ_REQUIRE(r.u64() == capacity_fingerprint(graph_),
                 "snapshot was taken on a graph with different capacities");
  const bool has_log = r.boolean();
  const std::size_t arrival_count = r.count(8);  // u32 shard + u32 id
  std::vector<std::pair<std::uint32_t, RequestId>> placements;
  placements.reserve(arrival_count);
  for (std::size_t i = 0; i < arrival_count; ++i) {
    const std::uint32_t shard = r.u32();
    const RequestId local = r.u32();
    placements.emplace_back(shard, local);
  }
  std::vector<std::uint8_t> modes = r.vec<std::uint8_t>();
  MINREJ_REQUIRE(modes.size() <= arrival_count,
                 "snapshot records more decision modes than arrivals");

  if (source_shards == shards_.size()) {
    // Same shard count: load every shard's algorithm snapshot directly.
    // The continuation is bit-identical to the uninterrupted run.  Parsed
    // into fresh shards and validated before anything is applied.
    std::vector<Shard> restored(shards_.size());
    for (std::size_t s = 0; s < restored.size(); ++s) {
      Shard& shard = restored[s];
      r.expect_tag("SHRD");
      shard.arrivals = static_cast<std::size_t>(r.u64());
      shard.task_failures = static_cast<std::size_t>(r.u64());
      shard.retries = static_cast<std::size_t>(r.u64());
      shard.restores = static_cast<std::size_t>(r.u64());
      shard.shed = static_cast<std::size_t>(r.u64());
      shard.malformed = static_cast<std::size_t>(r.u64());
      shard.injected_delays = static_cast<std::size_t>(r.u64());
      shard.quarantined = r.boolean();
      const std::size_t log_size = r.count(1);
      shard.log.reserve(log_size);
      for (std::size_t j = 0; j < log_size; ++j) {
        shard.log.push_back(read_logged_request(r));
      }
      const std::vector<std::uint8_t> algo_blob = r.blob();
      shard.algorithm = factory_(graph_, s);
      MINREJ_CHECK(shard.algorithm != nullptr,
                   "factory returned a null algorithm");
      SnapshotReader algo(algo_blob, kAlgorithmSnapshotKind);
      MINREJ_REQUIRE(algo.version() == kAlgorithmSnapshotVersion,
                     "unsupported algorithm snapshot version");
      shard.algorithm->load_snapshot(algo);
      algo.expect_end();
    }
    r.expect_end();
    for (const auto& [shard, local] : placements) {
      MINREJ_REQUIRE(shard < restored.size() &&
                         (local == kInvalidId ||
                          local < restored[shard].algorithm->arrivals()),
                     "snapshot placement names a shard or request id the "
                     "snapshot does not hold");
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s] = std::move(restored[s]);
    }
    placement_ = std::move(placements);
    modes_ = std::move(modes);
    return;
  }

  // Reshard-on-restore: replay the committed global arrival sequence
  // through this service's own routing.  Exact only when the source kept
  // logs and shed/voided nothing — i.e. the deterministic shard-disjoint
  // regime DESIGN.md §6.1 pins down.
  MINREJ_REQUIRE(has_log,
                 "reshard-on-restore needs the source service's arrival log "
                 "(fault tolerance was disabled when the snapshot was taken)");
  std::vector<std::vector<Request>> logs(source_shards);
  for (std::size_t s = 0; s < source_shards; ++s) {
    r.expect_tag("SHRD");
    for (int skip = 0; skip < 7; ++skip) r.u64();  // counters
    r.boolean();  // quarantined
    const std::size_t log_size = r.count(1);
    logs[s].reserve(log_size);
    for (std::size_t j = 0; j < log_size; ++j) {
      logs[s].push_back(read_logged_request(r));
    }
    r.blob();  // the source algorithm snapshot; replay rebuilds from logs
  }
  r.expect_end();
  std::vector<Request> sequence;
  sequence.reserve(placements.size());
  for (const auto& [shard, local] : placements) {
    MINREJ_REQUIRE(local != kInvalidId,
                   "reshard-on-restore cannot replay shed or malformed "
                   "arrivals — their requests were never logged");
    MINREJ_REQUIRE(shard < logs.size() && local < logs[shard].size(),
                   "snapshot placement points outside the shard log");
    sequence.push_back(logs[static_cast<std::size_t>(shard)][local]);
  }
  for (std::size_t offset = 0; offset < sequence.size();
       offset += config_.batch) {
    const std::size_t count =
        std::min(config_.batch, sequence.size() - offset);
    submit_batch(std::span<const Request>(sequence.data() + offset, count));
  }
}

ServiceStats AdmissionService::run(const AdmissionInstance& instance) {
  MINREJ_REQUIRE(instance.graph().edge_count() == graph_.edge_count(),
                 "instance graph does not match the service graph");
  Timer wall;
  const std::vector<Request>& requests = instance.requests();
  for (std::size_t offset = 0; offset < requests.size();
       offset += config_.batch) {
    const std::size_t count =
        std::min(config_.batch, requests.size() - offset);
    submit_batch(std::span<const Request>(requests.data() + offset, count));
  }
  ServiceStats stats = aggregate();
  stats.seconds = wall.elapsed_s();
  return stats;
}

bool AdmissionService::is_accepted(std::size_t arrival_index) const {
  const auto [shard, local] = placement(arrival_index);
  MINREJ_REQUIRE(local != kInvalidId,
                 "arrival was never processed (its shard failed mid-batch)");
  return shards_[shard].algorithm->is_accepted(local);
}

std::pair<std::size_t, RequestId> AdmissionService::placement(
    std::size_t arrival_index) const {
  MINREJ_REQUIRE(arrival_index < placement_.size(),
                 "arrival index out of range");
  const auto& [shard, local] = placement_[arrival_index];
  return {static_cast<std::size_t>(shard), local};
}

const OnlineAdmissionAlgorithm& AdmissionService::shard_algorithm(
    std::size_t shard) const {
  MINREJ_REQUIRE(shard < shards_.size(), "shard index out of range");
  return *shards_[shard].algorithm;
}

ShardStats AdmissionService::shard_stats(std::size_t shard) const {
  MINREJ_REQUIRE(shard < shards_.size(), "shard index out of range");
  const Shard& s = shards_[shard];
  ShardStats stats;
  stats.shard = shard;
  stats.arrivals = s.arrivals;
  stats.rejected = s.algorithm->rejected_count();
  stats.accepted = s.arrivals - stats.rejected;
  stats.rejected_cost = s.algorithm->rejected_cost();
  stats.augmentation_steps = s.algorithm->augmentation_steps();
  stats.busy_seconds = s.busy_seconds;
  stats.latencies_s = s.latencies_s;
  stats.augmentation_budget = augmentation_step_budget(
      s.arrivals, graph_.edge_count(), graph_.max_capacity());
  stats.augmentation_budget_exceeded =
      stats.augmentation_steps > stats.augmentation_budget;
  stats.task_failures = s.task_failures;
  stats.retries = s.retries;
  stats.restores = s.restores;
  stats.shed = s.shed;
  stats.malformed = s.malformed;
  stats.injected_delays = s.injected_delays;
  stats.quarantined = s.quarantined;
  return stats;
}

ServiceStats AdmissionService::aggregate() const {
  ServiceStats stats;
  stats.shards = shards_.size();
  stats.seconds = pumped_seconds_;
  std::vector<double> latencies;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    stats.arrivals += shard.arrivals;
    const std::size_t rejected = shard.algorithm->rejected_count();
    stats.rejected += rejected;
    stats.accepted += shard.arrivals - rejected;
    stats.rejected_cost += shard.algorithm->rejected_cost();
    stats.augmentation_steps += shard.algorithm->augmentation_steps();
    stats.max_shard_busy_s =
        std::max(stats.max_shard_busy_s, shard.busy_seconds);
    stats.total_busy_s += shard.busy_seconds;
    latencies.insert(latencies.end(), shard.latencies_s.begin(),
                     shard.latencies_s.end());
    const std::uint64_t budget = augmentation_step_budget(
        shard.arrivals, graph_.edge_count(), graph_.max_capacity());
    if (shard.algorithm->augmentation_steps() > budget) {
      ++stats.budget_exceeded_shards;
    }
    stats.task_failures += shard.task_failures;
    stats.retries += shard.retries;
    stats.restores += shard.restores;
    stats.shed += shard.shed;
    stats.malformed += shard.malformed;
    stats.injected_delays += shard.injected_delays;
    if (shard.quarantined) ++stats.quarantined_shards;
  }
  if (!latencies.empty()) {
    // Sorting the merged samples before taking quantiles makes the result
    // invariant to shard merge order (§11.2).
    std::sort(latencies.begin(), latencies.end());
    stats.p50_arrival_s = quantile_sorted(latencies, 0.50);
    stats.p95_arrival_s = quantile_sorted(latencies, 0.95);
    stats.max_arrival_s = latencies.back();
  }
  return stats;
}

}  // namespace minrej
