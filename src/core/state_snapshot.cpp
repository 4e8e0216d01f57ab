// state_snapshot.cpp — full-state serialization of the online admission
// stack (DESIGN.md §9; docs/API.md "Snapshot format").
//
// Everything that feeds a future decision travels through here: the base
// class bookkeeping (requests, states, usage, paid cost), the fractional
// wrapper (records, phase, engine), the engine itself (weights, member
// lists, incremental caches, journal), and every random stream.  Doubles
// move as IEEE-754 bit patterns, so a restored instance continues the
// exact trajectory of the uninterrupted run — the recovery_test suite pins
// this bit-identity per catalog scenario.
//
// One deliberate non-goal: cross-engine restore.  Streams are tagged with
// the engine kind ("flat"/"naive"); a snapshot taken by one build refuses
// to load into the other with a clear error, because the two engines'
// incidental state (caches, journals) differs even though decisions match.
#include <algorithm>
#include <string>

#include "core/baselines.h"
#include "core/fractional_admission.h"
#include "core/fractional_engine.h"
#include "core/naive_engine.h"
#include "core/online_admission.h"
#include "core/randomized_admission.h"
#include "core/throughput_admission.h"
#include "io/snapshot.h"
#include "util/check.h"

namespace minrej {

namespace {

void save_rng(SnapshotWriter& w, const Rng& rng) {
  for (const std::uint64_t word : rng.state()) w.u64(word);
}

void load_rng(SnapshotReader& r, Rng& rng) {
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) word = r.u64();
  rng.set_state(state);
}

/// True if every id is below `bound`: the range check a loader runs on
/// each index the engine later dereferences.
template <typename Ids>
bool all_below(const Ids& ids, std::size_t bound) {
  return std::all_of(ids.begin(), ids.end(),
                     [bound](std::size_t id) { return id < bound; });
}

}  // namespace

// ---------------------------------------------------------------------------
// FlatFractionalEngine
// ---------------------------------------------------------------------------

void FlatFractionalEngine::save_state(SnapshotWriter& w) const {
  MINREJ_REQUIRE(!mid_arrival_dirty_,
                 "engine snapshot is only legal between arrivals");
  w.tag("FENG");
  w.str("flat");
  w.f64(zero_init_);
  w.u64(small_threshold_);
  w.u64(hot_.size());
  for (const HotRow& row : hot_) {
    w.f64(row.weight);
    w.f64(row.inv_update_cost);
    w.f64(row.weight_at_touch);
    w.u64(row.touch_epoch);
  }
  w.vec(edge_begin_);
  w.vec(edge_pool_);
  w.vec(report_cost_);
  w.vec(alive_);
  w.vec(pinned_);
  w.u64(members_.size());
  for (const std::vector<RequestId>& list : members_) w.vec(list);
  w.vec(alive_count_);
  w.vec(pinned_count_);
  w.vec(dead_count_);
  w.vec(alive_sum_);
  w.vec(journal_pos_);
  w.u64(journal_.size());
  for (const JournalEntry& entry : journal_) {
    w.u32(entry.id);
    w.f64(entry.delta);
  }
  w.u64(large_edges_);
  w.f64(fractional_cost_);
  w.u64(augmentations_);
  w.u64(compactions_);
  w.u64(epoch_);
}

void FlatFractionalEngine::load_state(SnapshotReader& r) {
  MINREJ_REQUIRE(hot_.empty(),
                 "engine load_state needs a freshly constructed engine");
  r.expect_tag("FENG");
  const std::string engine_kind = r.str();
  if (engine_kind != "flat") {
    throw InvalidArgument(
        "snapshot was produced by the '" + engine_kind +
        "' engine but this build's FractionalEngine is the flat engine — "
        "cross-engine restore is unsupported (docs/API.md)");
  }
  zero_init_ = r.f64();
  MINREJ_REQUIRE(zero_init_ > 0.0 && zero_init_ <= 1.0,
                 "snapshot zero_init out of range");
  small_threshold_ = static_cast<std::size_t>(r.u64());
  const std::size_t n = r.count(32);  // 3 f64 + u64 per hot row
  hot_.clear();
  hot_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    HotRow row;
    row.weight = r.f64();
    row.inv_update_cost = r.f64();
    row.weight_at_touch = r.f64();
    row.touch_epoch = r.u64();
    hot_.push_back(row);
  }
  edge_begin_ = r.vec<std::size_t>();
  edge_pool_ = r.vec<EdgeId>();
  report_cost_ = r.vec<double>();
  alive_ = r.vec<std::uint8_t>();
  pinned_ = r.vec<std::uint8_t>();
  const std::uint64_t edge_lists = r.u64();
  MINREJ_REQUIRE(edge_lists == substrate_.col_count,
                 "engine snapshot column count does not match the substrate");
  for (std::vector<RequestId>& list : members_) list = r.vec<RequestId>();
  alive_count_ = r.vec<std::int64_t>();
  pinned_count_ = r.vec<std::int64_t>();
  dead_count_ = r.vec<std::int64_t>();
  alive_sum_ = r.vec<double>();
  journal_pos_ = r.vec<std::size_t>();
  const std::size_t journal_size = r.count(12);  // u32 id + f64 delta
  journal_.clear();
  journal_.reserve(journal_size);
  for (std::size_t i = 0; i < journal_size; ++i) {
    JournalEntry entry;
    entry.id = r.u32();
    entry.delta = r.f64();
    journal_.push_back(entry);
  }
  large_edges_ = static_cast<std::size_t>(r.u64());
  fractional_cost_ = r.f64();
  augmentations_ = r.u64();
  compactions_ = r.u64();
  epoch_ = r.u64();
  MINREJ_REQUIRE(edge_begin_.size() == hot_.size() + 1 &&
                     report_cost_.size() == hot_.size() &&
                     alive_.size() == hot_.size() &&
                     pinned_.size() == hot_.size(),
                 "engine snapshot per-request arrays are inconsistent");
  MINREJ_REQUIRE(alive_count_.size() == substrate_.col_count &&
                     pinned_count_.size() == substrate_.col_count &&
                     dead_count_.size() == substrate_.col_count &&
                     alive_sum_.size() == substrate_.col_count &&
                     journal_pos_.size() == substrate_.col_count,
                 "engine snapshot per-edge arrays are inconsistent");
  MINREJ_REQUIRE(edge_begin_.front() == 0 &&
                     edge_begin_.back() == edge_pool_.size() &&
                     std::is_sorted(edge_begin_.begin(), edge_begin_.end()) &&
                     all_below(edge_pool_, substrate_.col_count),
                 "engine snapshot incidence arena is inconsistent");
  for (const std::vector<RequestId>& list : members_) {
    MINREJ_REQUIRE(all_below(list, n),
                   "engine snapshot member id out of range");
  }
  MINREJ_REQUIRE(std::all_of(journal_.begin(), journal_.end(),
                             [n](const JournalEntry& e) { return e.id < n; }) &&
                     all_below(journal_pos_, journal_.size() + 1) &&
                     large_edges_ <= substrate_.col_count,
                 "engine snapshot journal or edge counters out of range");
  touched_.clear();
  deaths_.clear();
  deltas_.clear();
  mid_arrival_dirty_ = false;
}

// ---------------------------------------------------------------------------
// NaiveFractionalEngine
// ---------------------------------------------------------------------------

void NaiveFractionalEngine::save_state(SnapshotWriter& w) const {
  w.tag("FENG");
  w.str("naive");
  w.f64(zero_init_);
  w.u64(requests_.size());
  for (const RequestRecord& rec : requests_) {
    w.vec(rec.edges);
    w.f64(rec.weight);
    w.f64(rec.update_cost);
    w.f64(rec.inv_update_cost);
    w.f64(rec.report_cost);
    w.boolean(rec.pinned);
    w.boolean(rec.alive);
    w.u64(rec.touch_epoch);
    w.f64(rec.weight_at_touch);
  }
  w.u64(members_.size());
  for (const std::vector<RequestId>& list : members_) w.vec(list);
  w.vec(alive_count_);
  w.vec(pinned_count_);
  w.f64(fractional_cost_);
  w.u64(augmentations_);
  w.u64(compactions_);
  w.u64(epoch_);
}

void NaiveFractionalEngine::load_state(SnapshotReader& r) {
  MINREJ_REQUIRE(requests_.empty(),
                 "engine load_state needs a freshly constructed engine");
  r.expect_tag("FENG");
  const std::string engine_kind = r.str();
  if (engine_kind != "naive") {
    throw InvalidArgument(
        "snapshot was produced by the '" + engine_kind +
        "' engine but this build's FractionalEngine is the naive engine — "
        "cross-engine restore is unsupported (docs/API.md)");
  }
  zero_init_ = r.f64();
  MINREJ_REQUIRE(zero_init_ > 0.0 && zero_init_ <= 1.0,
                 "snapshot zero_init out of range");
  // Per record: u64 edge-list length, 5 f64, u64 epoch, 2 bools.
  const std::size_t n = r.count(58);
  requests_.clear();
  requests_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RequestRecord rec;
    rec.edges = r.vec<EdgeId>();
    rec.weight = r.f64();
    rec.update_cost = r.f64();
    rec.inv_update_cost = r.f64();
    rec.report_cost = r.f64();
    rec.pinned = r.boolean();
    rec.alive = r.boolean();
    rec.touch_epoch = r.u64();
    rec.weight_at_touch = r.f64();
    requests_.push_back(std::move(rec));
  }
  const std::uint64_t edge_lists = r.u64();
  MINREJ_REQUIRE(edge_lists == substrate_.col_count,
                 "engine snapshot column count does not match the substrate");
  for (std::vector<RequestId>& list : members_) list = r.vec<RequestId>();
  alive_count_ = r.vec<std::int64_t>();
  pinned_count_ = r.vec<std::int64_t>();
  fractional_cost_ = r.f64();
  augmentations_ = r.u64();
  compactions_ = r.u64();
  epoch_ = r.u64();
  MINREJ_REQUIRE(alive_count_.size() == substrate_.col_count &&
                     pinned_count_.size() == substrate_.col_count,
                 "engine snapshot per-edge arrays are inconsistent");
  for (const RequestRecord& rec : requests_) {
    MINREJ_REQUIRE(all_below(rec.edges, substrate_.col_count),
                   "engine snapshot record edge out of range");
  }
  for (const std::vector<RequestId>& list : members_) {
    MINREJ_REQUIRE(all_below(list, n),
                   "engine snapshot member id out of range");
  }
  touched_.clear();
  deltas_.clear();
}

// ---------------------------------------------------------------------------
// FractionalAdmission
// ---------------------------------------------------------------------------

void FractionalAdmission::save_state(SnapshotWriter& w) const {
  w.tag("FADM");
  w.boolean(config_.unit_costs);
  w.f64(config_.guard_factor);
  w.boolean(config_.fixed_alpha.has_value());
  w.f64(config_.fixed_alpha.value_or(0.0));
  w.f64(alpha_);
  w.u64(phase_count_);
  w.u64(records_.size());
  for (const Record& rec : records_) {
    w.u64(rec.edge_begin);
    w.u32(rec.edge_count);
    w.f64(rec.cost);
    w.u8(static_cast<std::uint8_t>(rec.cost_class));
    w.boolean(rec.fully_rejected);
    w.u32(rec.engine_id);
  }
  w.vec(edge_pool_);
  w.vec(engine_map_);
  w.vec(preload_);
  w.f64(paid_auto_rejected_);
  w.f64(paid_past_phases_);
  w.u64(past_augmentations_);
  w.u64(past_compactions_);
  w.boolean(engine_ != nullptr);
  if (engine_) engine_->save_state(w);
}

void FractionalAdmission::load_state(SnapshotReader& r) {
  MINREJ_REQUIRE(records_.empty(),
                 "wrapper load_state needs a freshly constructed instance");
  r.expect_tag("FADM");
  const bool unit_costs = r.boolean();
  const double guard_factor = r.f64();
  const bool has_fixed_alpha = r.boolean();
  const double fixed_alpha = r.f64();
  MINREJ_REQUIRE(
      unit_costs == config_.unit_costs &&
          guard_factor == config_.guard_factor &&
          has_fixed_alpha == config_.fixed_alpha.has_value() &&
          (!has_fixed_alpha || fixed_alpha == *config_.fixed_alpha),
      "snapshot fractional config differs from this instance's config — "
      "restore requires the same factory");
  alpha_ = r.f64();
  phase_count_ = r.u64();
  // Per record: u64 + u32 + f64 + u8 + bool + u32.
  const std::size_t n = r.count(26);
  records_.clear();
  records_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Record rec;
    rec.edge_begin = static_cast<std::size_t>(r.u64());
    rec.edge_count = r.u32();
    rec.cost = r.f64();
    rec.cost_class = static_cast<CostClass>(r.u8());
    rec.fully_rejected = r.boolean();
    rec.engine_id = r.u32();
    records_.push_back(rec);
  }
  edge_pool_ = r.vec<EdgeId>();
  engine_map_ = r.vec<RequestId>();
  preload_ = r.vec<std::int64_t>();
  MINREJ_REQUIRE(preload_.size() == substrate_.col_count,
                 "wrapper snapshot column count does not match the substrate");
  paid_auto_rejected_ = r.f64();
  paid_past_phases_ = r.f64();
  past_augmentations_ = r.u64();
  past_compactions_ = r.u64();
  if (r.boolean()) {
    // The 0.5 floor is a constructor placeholder; the engine's load_state
    // overwrites it with the saved zero_init.
    engine_ = std::make_unique<FractionalEngine>(substrate_, 0.5);
    engine_->load_state(r);
  } else {
    engine_.reset();
  }
}

// ---------------------------------------------------------------------------
// OnlineAdmissionAlgorithm base + subclass extras
// ---------------------------------------------------------------------------

void OnlineAdmissionAlgorithm::save_extra(SnapshotWriter&) const {}
void OnlineAdmissionAlgorithm::load_extra(SnapshotReader&) {}

void OnlineAdmissionAlgorithm::save_snapshot(SnapshotWriter& w) const {
  MINREJ_REQUIRE(snapshot_supported(),
                 "algorithm '" + name() + "' does not support snapshots");
  w.tag("ALGO");
  w.str(name());
  w.u64(requests_.size());
  for (const Request& req : requests_) {
    w.vec(req.edges);
    w.f64(req.cost);
    w.boolean(req.must_accept);
  }
  w.u64(states_.size());
  for (const RequestState s : states_) w.u8(static_cast<std::uint8_t>(s));
  w.vec(usage_);
  w.f64(rejected_cost_);
  w.u64(rejected_count_);
  w.tag("XTRA");
  save_extra(w);
}

void OnlineAdmissionAlgorithm::load_snapshot(SnapshotReader& r) {
  MINREJ_REQUIRE(snapshot_supported(),
                 "algorithm '" + name() + "' does not support snapshots");
  MINREJ_REQUIRE(requests_.empty(),
                 "load_snapshot needs a freshly constructed algorithm");
  r.expect_tag("ALGO");
  const std::string stream_name = r.str();
  MINREJ_REQUIRE(stream_name == name(),
                 "snapshot algorithm is '" + stream_name +
                     "' but this instance is '" + name() + "'");
  // Per request: u64 edge-list length, f64 cost, bool must_accept.
  const std::size_t n = r.count(17);
  requests_.clear();
  requests_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request req;
    req.edges = r.vec<EdgeId>();
    req.cost = r.f64();
    req.must_accept = r.boolean();
    requests_.push_back(std::move(req));
  }
  const std::size_t state_count = r.count(1);
  MINREJ_REQUIRE(state_count == n,
                 "snapshot state array does not match the request array");
  states_.clear();
  states_.reserve(state_count);
  for (std::size_t i = 0; i < state_count; ++i) {
    states_.push_back(static_cast<RequestState>(r.u8()));
  }
  usage_ = r.vec<std::int64_t>();
  MINREJ_REQUIRE(usage_.size() == graph_.edge_count(),
                 "snapshot edge usage does not match the graph edge count");
  rejected_cost_ = r.f64();
  rejected_count_ = static_cast<std::size_t>(r.u64());
  r.expect_tag("XTRA");
  load_extra(r);
}

void PreemptRandom::save_extra(SnapshotWriter& w) const {
  w.tag("PRND");
  save_rng(w, rng_);
}

void PreemptRandom::load_extra(SnapshotReader& r) {
  r.expect_tag("PRND");
  load_rng(r, rng_);
}

void ThroughputAdmission::save_extra(SnapshotWriter& w) const {
  w.tag("THRU");
  w.u64(accepted_count_);
  w.f64(accepted_benefit_);
}

void ThroughputAdmission::load_extra(SnapshotReader& r) {
  r.expect_tag("THRU");
  accepted_count_ = static_cast<std::size_t>(r.u64());
  accepted_benefit_ = r.f64();
}

void RandomizedAdmission::save_extra(SnapshotWriter& w) const {
  w.tag("RAND");
  // The configuration is factory-owned, not stream-owned: record the
  // decision-relevant knobs so a restore through a different factory fails
  // loudly instead of silently diverging.
  w.boolean(config_.unit_costs);
  w.boolean(config_.edge_request_cap);
  w.boolean(config_.step2_threshold);
  w.boolean(config_.step3_random);
  w.u8(static_cast<std::uint8_t>(config_.victim_policy));
  w.f64(factor_);
  save_rng(w, rng_);
  w.vec(edge_requests_);
  w.bit_vec(edge_capped_);
  frac_.save_state(w);
}

void RandomizedAdmission::load_extra(SnapshotReader& r) {
  r.expect_tag("RAND");
  const bool unit_costs = r.boolean();
  const bool edge_request_cap = r.boolean();
  const bool step2 = r.boolean();
  const bool step3 = r.boolean();
  const auto victim = static_cast<VictimPolicy>(r.u8());
  const double factor = r.f64();
  MINREJ_REQUIRE(unit_costs == config_.unit_costs &&
                     edge_request_cap == config_.edge_request_cap &&
                     step2 == config_.step2_threshold &&
                     step3 == config_.step3_random &&
                     victim == config_.victim_policy && factor == factor_,
                 "snapshot randomized config differs from this instance's "
                 "config — restore requires the same factory");
  load_rng(r, rng_);
  edge_requests_ = r.vec<std::int64_t>();
  MINREJ_REQUIRE(edge_requests_.size() == graph().edge_count(),
                 "snapshot edge-request counters do not match the graph");
  edge_capped_ = r.bit_vec();
  MINREJ_REQUIRE(edge_capped_.size() == graph().edge_count(),
                 "snapshot edge-cap flags do not match the graph");
  frac_.load_state(r);
  // handle() reads fractional records by base request id.
  MINREJ_REQUIRE(frac_.request_count() == arrivals(),
                 "snapshot fractional record count does not match the "
                 "request count");
}

}  // namespace minrej
