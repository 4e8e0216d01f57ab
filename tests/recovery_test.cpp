// Tests for the fault-tolerance stack (DESIGN.md §9): the snapshot
// container (io/snapshot.h), algorithm save/load continuation, service
// snapshot → restore → continue bit-identity, reshard-on-restore, the
// deterministic fault injector, and the pump's retry/quarantine
// behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/baselines.h"
#include "core/fractional_admission.h"
#include "core/fractional_engine.h"
#include "core/naive_engine.h"
#include "graph/generators.h"
#include "io/snapshot.h"
#include "service/admission_service.h"
#include "sim/workloads.h"
#include "test_util.h"
#include "util/check.h"
#include "util/fault_injector.h"
#include "util/rng.h"

namespace minrej {
namespace {

// ---------------------------------------------------------------------------
// Snapshot container
// ---------------------------------------------------------------------------

TEST(Snapshot, RoundTripsEveryFieldType) {
  SnapshotWriter w("test.kind", 3);
  w.tag("HEAD");
  w.u8(200);
  w.boolean(true);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(-0.1);  // not representable exactly — must come back bit-identical
  w.str("hello snapshot");
  w.vec(std::vector<std::uint32_t>{1, 2, 3});
  w.vec(std::vector<double>{0.5, -1.5});
  w.bit_vec(std::vector<bool>{true, false, true});
  const std::vector<std::uint8_t> inner{9, 8, 7};
  w.blob(inner);
  const std::vector<std::uint8_t> bytes = w.finish();

  SnapshotReader r(bytes, "test.kind");
  EXPECT_EQ(r.version(), 3u);
  r.expect_tag("HEAD");
  EXPECT_EQ(r.u8(), 200);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  const double d = r.f64();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d),
            std::bit_cast<std::uint64_t>(-0.1));
  EXPECT_EQ(r.str(), "hello snapshot");
  EXPECT_EQ(r.vec<std::uint32_t>(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(r.vec<double>(), (std::vector<double>{0.5, -1.5}));
  EXPECT_EQ(r.bit_vec(), (std::vector<bool>{true, false, true}));
  EXPECT_EQ(r.blob(), inner);
  r.expect_end();
}

TEST(Snapshot, ContainerBytesArePinned) {
  // The sealed layout byte for byte: magic, container version, kind,
  // stream version, payload size, FNV-1a 64 of the payload, payload.
  SnapshotWriter w("k", 2);
  w.u8(0xAB);
  const std::vector<std::uint8_t> expected{
      'M',  'R',  'S',  'N',  0x01, 0x00, 0x00, 0x00,  // magic, container
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // kind length
      'k',  0x02, 0x00, 0x00, 0x00,                    // kind, version
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload size
      0x4A, 0x6A, 0x02, 0x86, 0x4C, 0x26, 0x64, 0xAF,  // checksum
      0xAB};
  EXPECT_EQ(w.finish(), expected);
}

TEST(Snapshot, NanSurvivesBitExactly) {
  SnapshotWriter w("test.kind", 1);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  const auto bytes = w.finish();
  SnapshotReader r(bytes, "test.kind");
  EXPECT_TRUE(std::isnan(r.f64()));
}

TEST(Snapshot, CorruptionTruncationAndMismatchAllThrow) {
  SnapshotWriter w("test.kind", 1);
  w.u64(77);
  w.str("payload");
  std::vector<std::uint8_t> good = w.finish();

  // Flipping any payload byte fails the checksum before any field parses.
  std::vector<std::uint8_t> corrupt = good;
  corrupt.back() ^= 0x01;
  EXPECT_THROW(SnapshotReader(corrupt, "test.kind"), InvalidArgument);

  // Truncation is detected by the header size check.
  std::vector<std::uint8_t> truncated(good.begin(), good.end() - 3);
  EXPECT_THROW(SnapshotReader(truncated, "test.kind"), InvalidArgument);

  // Kind mismatch names both kinds; magic mismatch rejects foreign bytes.
  EXPECT_THROW(SnapshotReader(good, "other.kind"), InvalidArgument);
  std::vector<std::uint8_t> foreign = good;
  foreign[0] = 'X';
  EXPECT_THROW(SnapshotReader(foreign, "test.kind"), InvalidArgument);

  // A reader that under-consumes fails expect_end; one that over-consumes
  // fails the typed read.
  SnapshotReader under(good, "test.kind");
  under.u64();
  EXPECT_THROW(under.expect_end(), InvalidArgument);
  SnapshotReader over(good, "test.kind");
  over.u64();
  over.str();
  EXPECT_THROW(over.u64(), InvalidArgument);
}

TEST(Snapshot, CorruptedLengthPrefixCannotDriveAHugeAllocation) {
  SnapshotWriter w("test.kind", 1);
  w.u64(std::numeric_limits<std::uint64_t>::max());  // absurd length prefix
  const auto bytes = w.finish();
  SnapshotReader r(bytes, "test.kind");
  EXPECT_THROW(r.vec<std::uint64_t>(), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Algorithm save/load continuation
// ---------------------------------------------------------------------------

AdmissionInstance make_mixed_instance(std::size_t requests,
                                      std::uint64_t seed) {
  Rng rng(seed);
  return make_power_law_workload(24, 3, requests, 3, 1.1,
                                 CostModel::spread(1.0, 16.0), rng);
}

TEST(AlgorithmSnapshot, RestoreThenContinueMatchesUninterrupted) {
  const AdmissionInstance inst = make_mixed_instance(400, 11);
  const ShardAlgorithmFactory factory = randomized_shard_factory(false, 21);

  // Uninterrupted run.
  std::unique_ptr<OnlineAdmissionAlgorithm> full = factory(inst.graph(), 0);
  std::vector<bool> full_decisions;
  for (const Request& r : inst.requests()) {
    full_decisions.push_back(full->process(r).accepted);
  }

  // Interrupted run: process half, snapshot, load into a fresh instance,
  // continue there.
  std::unique_ptr<OnlineAdmissionAlgorithm> first = factory(inst.graph(), 0);
  ASSERT_TRUE(first->snapshot_supported());
  std::vector<bool> split_decisions;
  for (std::size_t i = 0; i < 200; ++i) {
    split_decisions.push_back(
        first->process(inst.request(static_cast<RequestId>(i))).accepted);
  }
  SnapshotWriter w("algo", 1);
  first->save_snapshot(w);
  const auto blob = w.finish();
  first.reset();

  std::unique_ptr<OnlineAdmissionAlgorithm> second = factory(inst.graph(), 0);
  SnapshotReader r(blob, "algo");
  second->load_snapshot(r);
  r.expect_end();
  for (std::size_t i = 200; i < 400; ++i) {
    split_decisions.push_back(
        second->process(inst.request(static_cast<RequestId>(i))).accepted);
  }

  EXPECT_EQ(split_decisions, full_decisions);
  EXPECT_DOUBLE_EQ(second->rejected_cost(), full->rejected_cost());
  // The final states are bitwise identical, not just behaviourally close.
  SnapshotWriter wa("algo", 1), wb("algo", 1);
  full->save_snapshot(wa);
  second->save_snapshot(wb);
  EXPECT_EQ(wa.finish(), wb.finish());
}

TEST(AlgorithmSnapshot, LoadRejectsTheWrongAlgorithm) {
  const AdmissionInstance inst = make_mixed_instance(10, 12);
  GreedyNoPreempt greedy(inst.graph());
  SnapshotWriter w("algo", 1);
  greedy.save_snapshot(w);
  const auto blob = w.finish();
  PreemptCheapest other(inst.graph());
  SnapshotReader r(blob, "algo");
  EXPECT_THROW(other.load_snapshot(r), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Service snapshot → restore → continue
// ---------------------------------------------------------------------------

ShardAlgorithmFactory greedy_factory() {
  return [](const Graph& g, std::size_t) {
    return std::make_unique<GreedyNoPreempt>(g);
  };
}

void pump(AdmissionService& service, const AdmissionInstance& inst,
          std::size_t from, std::size_t to, std::size_t batch) {
  const std::vector<Request>& requests = inst.requests();
  for (std::size_t offset = from; offset < to; offset += batch) {
    const std::size_t count = std::min(batch, to - offset);
    service.submit_batch(
        std::span<const Request>(requests.data() + offset, count));
  }
}

TEST(ServiceSnapshot, RestoreThenContinueIsBitIdenticalAcrossTheCatalog) {
  // Every deterministic catalog scenario: split the pump at the midpoint,
  // snapshot, restore into a fresh service, continue, and require the
  // final service snapshot to equal the uninterrupted run's bitwise.
  ScenarioParams params;
  params.requests = 600;
  params.edges = 24;
  for (const ScenarioInfo& info : scenario_catalog()) {
    Rng rng(41);
    const AdmissionInstance inst = make_scenario(info.name, params, rng);
    const ShardAlgorithmFactory factory =
        randomized_shard_factory(all_unit_costs(inst), 5);
    ServiceConfig cfg;
    cfg.shards = 3;
    cfg.batch = 64;
    cfg.collect_latencies = false;  // timings are not part of the contract
    cfg.fault_tolerance.enabled = true;

    AdmissionService full(inst.graph(), factory, cfg);
    pump(full, inst, 0, 600, cfg.batch);

    AdmissionService first(inst.graph(), factory, cfg);
    pump(first, inst, 0, 300, cfg.batch);
    const std::vector<std::uint8_t> blob = first.snapshot();

    AdmissionService resumed(inst.graph(), factory, cfg);
    resumed.restore(blob);
    // The restore itself is lossless…
    EXPECT_EQ(resumed.snapshot(), blob) << info.name;
    pump(resumed, inst, 300, 600, cfg.batch);
    // …and the continuation walks the uninterrupted trajectory.
    EXPECT_EQ(resumed.snapshot(), full.snapshot()) << info.name;
    ASSERT_EQ(resumed.arrivals(), full.arrivals()) << info.name;
    for (std::size_t i = 0; i < full.arrivals(); ++i) {
      ASSERT_EQ(resumed.is_accepted(i), full.is_accepted(i))
          << info.name << " arrival " << i;
    }
    const ServiceStats a = resumed.aggregate();
    const ServiceStats b = full.aggregate();
    EXPECT_EQ(a.accepted, b.accepted) << info.name;
    EXPECT_DOUBLE_EQ(a.rejected_cost, b.rejected_cost) << info.name;
  }
}

TEST(ServiceSnapshot, RestoreValidatesTheGraphAndFreshness) {
  const AdmissionInstance inst = make_mixed_instance(100, 13);
  ServiceConfig cfg;
  cfg.fault_tolerance.enabled = true;
  AdmissionService service(inst.graph(), greedy_factory(), cfg);
  pump(service, inst, 0, 100, 32);
  const auto blob = service.snapshot();

  // A service that already pumped arrivals refuses to restore over them.
  EXPECT_THROW(service.restore(blob), InvalidArgument);

  // A graph with different capacities fails the fingerprint check.
  const std::vector<std::int64_t> caps(24, 4);
  const Graph other = Graph::star(caps);
  AdmissionService mismatched(other, greedy_factory(), cfg);
  EXPECT_THROW(mismatched.restore(blob), InvalidArgument);
}

TEST(ServiceSnapshot, ReshardOnRestoreMatchesAFreshRunAtTheNewWidth) {
  // Shard-disjoint traffic (single-edge requests): a K=2 snapshot restored
  // into a K=4 service must match a from-scratch K=4 run bit for bit.
  ScenarioParams params;
  params.requests = 500;
  params.edges = 32;
  Rng rng(42);
  const AdmissionInstance inst = make_scenario("dense_burst", params, rng);
  const ShardAlgorithmFactory factory = randomized_shard_factory(true, 9);

  ServiceConfig narrow;
  narrow.shards = 2;
  narrow.batch = 64;
  narrow.collect_latencies = false;
  narrow.fault_tolerance.enabled = true;  // reshard needs the arrival log
  AdmissionService source(inst.graph(), factory, narrow);
  pump(source, inst, 0, 500, narrow.batch);
  const auto blob = source.snapshot();

  ServiceConfig wide = narrow;
  wide.shards = 4;
  AdmissionService resharded(inst.graph(), factory, wide);
  resharded.restore(blob);

  AdmissionService fresh(inst.graph(), factory, wide);
  pump(fresh, inst, 0, 500, wide.batch);

  EXPECT_EQ(resharded.snapshot(), fresh.snapshot());
  ASSERT_EQ(resharded.arrivals(), fresh.arrivals());
  for (std::size_t i = 0; i < fresh.arrivals(); ++i) {
    ASSERT_EQ(resharded.is_accepted(i), fresh.is_accepted(i)) << i;
  }
  // And the resharded service keeps serving.
  pump(resharded, inst, 0, 100, wide.batch);
  EXPECT_EQ(resharded.arrivals(), 600u);
}

TEST(ServiceSnapshot, ReshardWithoutALogIsRejected) {
  const AdmissionInstance inst = make_mixed_instance(80, 14);
  ServiceConfig narrow;
  narrow.shards = 2;  // fault tolerance off: no arrival log
  AdmissionService source(inst.graph(), greedy_factory(), narrow);
  pump(source, inst, 0, 80, 32);
  const auto blob = source.snapshot();
  ServiceConfig wide = narrow;
  wide.shards = 3;
  AdmissionService resharded(inst.graph(), greedy_factory(), wide);
  EXPECT_THROW(resharded.restore(blob), InvalidArgument);
}

/// Replaces `erase` bytes at payload `offset` of a sealed snapshot of
/// stream `kind` with `insert` and re-seals the container (payload size
/// and a fresh FNV-1a 64 checksum), so the tampered field gets past the
/// container check and reaches the consumer's own parser — the shape of a
/// hostile or buggy producer, not of transport corruption.
std::vector<std::uint8_t> reseal_spliced(
    std::vector<std::uint8_t> blob, std::string_view kind, std::size_t offset,
    std::size_t erase, const std::vector<std::uint8_t>& insert) {
  // Container header: magic, u32 container version, u64-prefixed kind,
  // u32 stream version, u64 payload size, u64 payload checksum.
  const std::size_t payload_at = 4 + 4 + 8 + kind.size() + 4 + 8 + 8;
  const auto at =
      blob.begin() + static_cast<std::ptrdiff_t>(payload_at + offset);
  blob.insert(blob.erase(at, at + static_cast<std::ptrdiff_t>(erase)),
              insert.begin(), insert.end());
  const std::uint64_t size = blob.size() - payload_at;
  const std::uint64_t checksum = fnv1a64(
      std::span<const std::uint8_t>(blob).subspan(payload_at));
  for (std::size_t b = 0; b < 8; ++b) {
    blob[payload_at - 16 + b] = static_cast<std::uint8_t>(size >> (8 * b));
    blob[payload_at - 8 + b] = static_cast<std::uint8_t>(checksum >> (8 * b));
  }
  return blob;
}

std::vector<std::uint8_t> little_endian(std::uint64_t value,
                                        std::size_t width) {
  std::vector<std::uint8_t> out(width);
  for (std::size_t b = 0; b < width; ++b) {
    out[b] = static_cast<std::uint8_t>(value >> (8 * b));
  }
  return out;
}

/// Overwrites `width` little-endian bytes at payload `offset` with `value`
/// and re-seals (see reseal_spliced).
std::vector<std::uint8_t> reseal_tampered(std::vector<std::uint8_t> blob,
                                          std::string_view kind,
                                          std::size_t offset,
                                          std::uint64_t value,
                                          std::size_t width) {
  return reseal_spliced(std::move(blob), kind, offset, width,
                        little_endian(value, width));
}

TEST(ServiceSnapshot, RestoreRejectsHostileCountsAndPlacements) {
  // Payload layout: "SRVC", u64 shards @4, u64 edges @12, u64 capacity
  // fingerprint @20, bool has_log @28, u64 arrival count @29, then one
  // (u32 shard, u32 local id) pair per arrival from @37, the u64-prefixed
  // decision modes (8 bytes each), and per shard "SHRD", 7 u64 counters,
  // the quarantined bool and the u64 log size.
  constexpr std::string_view kService = "minrej.service";
  const AdmissionInstance inst = make_mixed_instance(20, 21);
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.fault_tolerance.enabled = true;  // logs + modes in the snapshot
  AdmissionService source(inst.graph(), greedy_factory(), cfg);
  pump(source, inst, 0, 20, 8);
  const std::vector<std::uint8_t> blob = source.snapshot();
  const std::size_t n = source.arrivals();
  const std::size_t first_log_size = 37 + 8 * n + 8 + 8 * n + 4 + 7 * 8 + 1;
  const auto restore_throws = [&](std::size_t offset, std::uint64_t value,
                                  std::size_t width) {
    AdmissionService fresh(inst.graph(), greedy_factory(), cfg);
    EXPECT_THROW(fresh.restore(
                     reseal_tampered(blob, kService, offset, value, width)),
                 InvalidArgument)
        << "offset " << offset << " value " << value;
  };
  // The untampered re-seal restores cleanly (the offsets are right).
  AdmissionService control(inst.graph(), greedy_factory(), cfg);
  control.restore(
      reseal_tampered(blob, kService, 37, source.placement(0).first, 4));
  EXPECT_EQ(control.arrivals(), n);

  const std::uint64_t huge = std::uint64_t{1} << 61;
  restore_throws(29, huge, 8);              // arrival count
  restore_throws(4, huge, 8);               // source shard count
  restore_throws(first_log_size, huge, 8);  // shard 0's log size
  restore_throws(37, 7, 4);                 // placement names shard 7 of 2
  restore_throws(41, 1000, 4);              // local id past the shard's count

  // Version-1 streams are refused: the service stream's own header and the
  // first shard's embedded algorithm stream.  A stream version is the u32
  // right after the stream's kind string.
  const auto version_at = [&](std::string_view kind) {
    const auto it =
        std::search(blob.begin(), blob.end(), kind.begin(), kind.end());
    return static_cast<std::size_t>(it - blob.begin()) + kind.size();
  };
  const std::size_t payload_at = version_at(kService) + 4 + 8 + 8;
  const std::size_t algorithm_version =
      version_at("minrej.algorithm") - payload_at;
  AdmissionService same_version(inst.graph(), greedy_factory(), cfg);
  same_version.restore(
      reseal_tampered(blob, kService, algorithm_version, 2, 4));  // control
  EXPECT_EQ(same_version.arrivals(), n);
  restore_throws(algorithm_version, 1, 4);
  std::vector<std::uint8_t> service_v1 = blob;  // header: not checksummed
  service_v1[version_at(kService)] = 1;
  AdmissionService fresh(inst.graph(), greedy_factory(), cfg);
  EXPECT_THROW(fresh.restore(service_v1), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Engine and algorithm snapshots: hostile counts and indices
// ---------------------------------------------------------------------------

/// Payload offsets of the fields the flat engine's load_state must
/// validate, found by walking a real save_state stream.  Count/prefix
/// offsets point at the u64 length; a vector's first element sits 8 bytes
/// past it.
struct FlatEngineLayout {
  std::size_t hot_count = 0, edge_begin = 0, edge_pool = 0,
              first_member = 0, journal_pos = 0, journal_count = 0,
              large_edges = 0;
};

FlatEngineLayout walk_flat_engine(const std::vector<std::uint8_t>& blob,
                                  std::size_t payload_size) {
  SnapshotReader r(blob, "engine");
  const auto pos = [&] { return payload_size - r.remaining(); };
  FlatEngineLayout at;
  r.expect_tag("FENG");
  r.str();  // engine kind
  r.f64();  // zero_init
  r.u64();  // small-list threshold
  at.hot_count = pos();
  const std::size_t n = r.count(32);
  for (std::size_t i = 0; i < 4 * n; ++i) r.u64();
  at.edge_begin = pos();
  r.vec<std::uint64_t>();
  at.edge_pool = pos();
  r.vec<std::uint64_t>();
  for (int i = 0; i < 3; ++i) r.vec<std::uint64_t>();  // cost, alive, pinned
  const std::size_t cols = r.count(8);
  for (std::size_t c = 0; c < cols; ++c) {
    const std::size_t list = pos();
    if (!r.vec<std::uint64_t>().empty() && at.first_member == 0) {
      at.first_member = list + 8;
    }
  }
  for (int i = 0; i < 4; ++i) r.vec<std::uint64_t>();  // per-edge counters
  at.journal_pos = pos();
  r.vec<std::uint64_t>();
  at.journal_count = pos();
  const std::size_t journal = r.count(12);
  for (std::size_t i = 0; i < journal; ++i) {
    r.u32();
    r.f64();
  }
  at.large_edges = pos();
  return at;
}

TEST(EngineSnapshot, FlatLoadRejectsHostileCountsAndIndices) {
  // Five requests on three capacity-1 edges; threshold 0 puts every list
  // in the incremental regime.
  const Graph g = make_line_graph(3, 1);
  FlatFractionalEngine source(g, 0.25, /*small_list_threshold=*/0);
  source.arrive({0, 1}, 1.0, 1.0);
  source.arrive({1, 2}, 1.0, 1.0);
  source.arrive({0}, 1.0, 1.0);
  source.arrive({2}, 1.0, 1.0);
  source.arrive({0, 1, 2}, 1.0, 1.0);
  SnapshotWriter w("engine", 1);
  source.save_state(w);
  const std::size_t payload_size = w.payload_size();
  const std::vector<std::uint8_t> blob = w.finish();
  const FlatEngineLayout at = walk_flat_engine(blob, payload_size);
  ASSERT_NE(at.first_member, 0u);

  const auto load = [&](const std::vector<std::uint8_t>& bytes) {
    FlatFractionalEngine fresh(g, 0.25, 0);
    SnapshotReader r(bytes, "engine");
    fresh.load_state(r);
    r.expect_end();
    return fresh.alive_requests(0).size();
  };
  const auto load_throws = [&](const std::vector<std::uint8_t>& bytes,
                               const char* what) {
    EXPECT_THROW(load(bytes), InvalidArgument) << what;
  };
  const auto tamper = [&](std::size_t offset, std::uint64_t value) {
    return reseal_tampered(blob, "engine", offset, value, 8);
  };
  // Replaces the (empty) journal with one entry naming request `id`.
  const auto append_entry = [&](std::uint32_t id) {
    std::vector<std::uint8_t> bytes = little_endian(1, 8);  // journal size
    const auto le_id = little_endian(id, 4);
    bytes.insert(bytes.end(), le_id.begin(), le_id.end());
    bytes.resize(bytes.size() + 8, 0);  // delta 0.0
    return reseal_spliced(blob, "engine", at.journal_count, 8, bytes);
  };
  // Controls: rewriting the hot-row count with its own value and splicing
  // an in-range journal entry both load, so the offsets below are right.
  EXPECT_EQ(load(tamper(at.hot_count, 5)), source.alive_requests(0).size());
  EXPECT_NO_THROW(load(append_entry(4)));

  const std::uint64_t huge = std::uint64_t{1} << 61;
  load_throws(tamper(at.hot_count, huge), "hot-row count");
  load_throws(tamper(at.journal_count, huge), "journal count");
  load_throws(tamper(at.first_member, 50'000'000), "member id");
  load_throws(tamper(at.edge_pool + 8, 3), "edge id == column count");
  load_throws(tamper(at.edge_begin + 8, 1), "edge_begin_ not from 0");
  load_throws(tamper(at.edge_begin + 16, 100), "edge_begin_ decreasing");
  load_throws(append_entry(5), "journal id == request count");
  load_throws(tamper(at.journal_pos + 8, 1), "journal cursor past end");
  load_throws(tamper(at.large_edges, 4), "large edges > column count");
}

TEST(EngineSnapshot, NaiveLoadRejectsOutOfRangeIdsAndEdges) {
  const Graph g = make_line_graph(3, 1);
  NaiveFractionalEngine source(g, 0.25);
  source.arrive({0, 1}, 1.0, 1.0);
  source.arrive({1, 2}, 1.0, 1.0);
  SnapshotWriter w("engine", 1);
  source.save_state(w);
  const std::size_t payload_size = w.payload_size();
  const std::vector<std::uint8_t> blob = w.finish();

  // Walk a real stream to record 0's first edge and the first id of the
  // first non-empty member list.
  SnapshotReader walk(blob, "engine");
  const auto pos = [&] { return payload_size - walk.remaining(); };
  walk.expect_tag("FENG");
  walk.str();  // engine kind
  walk.f64();  // zero_init
  const std::size_t records = walk.count(58);
  const std::size_t first_edge = pos() + 8;
  for (std::size_t i = 0; i < records; ++i) {
    walk.vec<std::uint64_t>();  // edges
    for (int f = 0; f < 4; ++f) walk.f64();
    walk.boolean();  // pinned
    walk.boolean();  // alive
    walk.u64();      // touch epoch
    walk.f64();      // weight at touch
  }
  std::size_t first_member = 0;
  for (std::size_t c = walk.count(8); c > 0; --c) {
    const std::size_t list = pos();
    if (!walk.vec<std::uint64_t>().empty() && first_member == 0) {
      first_member = list + 8;
    }
  }
  ASSERT_NE(first_member, 0u);

  const auto load = [&](std::size_t offset, std::uint64_t value) {
    NaiveFractionalEngine fresh(g, 0.25);
    const auto bytes = reseal_tampered(blob, "engine", offset, value, 8);
    SnapshotReader r(bytes, "engine");
    fresh.load_state(r);
    r.expect_end();
  };
  // Controls: the largest in-range values load, so the offsets are right.
  EXPECT_NO_THROW(load(first_member, 1));
  EXPECT_NO_THROW(load(first_edge, 2));
  EXPECT_THROW(load(first_member, 2), InvalidArgument)
      << "member id == record count";
  EXPECT_THROW(load(first_edge, 3), InvalidArgument)
      << "record edge == column count";
}

TEST(EngineSnapshot, RecordCountsAreBoundedByThePayload) {
  const std::uint64_t huge = std::uint64_t{1} << 61;
  const Graph g = make_line_graph(3, 1);
  {
    // Naive engine: "FENG", "naive" (u64-prefixed), f64 zero_init, then
    // the record count at 25.
    NaiveFractionalEngine source(g, 0.25);
    source.arrive({0, 1}, 1.0, 1.0);
    SnapshotWriter w("engine", 1);
    source.save_state(w);
    NaiveFractionalEngine fresh(g, 0.25);
    const auto bytes = reseal_tampered(w.finish(), "engine", 25, huge, 8);
    SnapshotReader r(bytes, "engine");
    EXPECT_THROW(fresh.load_state(r), InvalidArgument) << "naive records";
  }
  {
    // Wrapper: "FADM", bool, f64, bool, f64, f64 alpha, u64 phase, then
    // the record count at 38.
    FractionalAdmission source(g);
    source.on_request(Request({0, 1}, 1.0));
    SnapshotWriter w("wrapper", 1);
    source.save_state(w);
    FractionalAdmission fresh(g);
    const auto bytes = reseal_tampered(w.finish(), "wrapper", 38, huge, 8);
    SnapshotReader r(bytes, "wrapper");
    EXPECT_THROW(fresh.load_state(r), InvalidArgument) << "wrapper records";
  }
  // Algorithm base: "ALGO", the u64-prefixed name, the request count, the
  // requests, then the state count.
  GreedyNoPreempt source(g);
  source.process(Request({0, 1}, 1.0));
  source.process(Request({2}, 1.0));
  SnapshotWriter w("algo", 1);
  source.save_snapshot(w);
  const std::size_t payload_size = w.payload_size();
  const auto blob = w.finish();
  SnapshotReader walk(blob, "algo");
  walk.expect_tag("ALGO");
  walk.str();
  const std::size_t requests_at = payload_size - walk.remaining();
  for (std::size_t i = walk.count(17); i > 0; --i) {
    walk.vec<std::uint64_t>();
    walk.f64();
    walk.boolean();
  }
  const std::size_t states_at = payload_size - walk.remaining();
  for (const std::size_t offset : {requests_at, states_at}) {
    GreedyNoPreempt fresh(g);
    const auto bytes = reseal_tampered(blob, "algo", offset, huge, 8);
    SnapshotReader r(bytes, "algo");
    EXPECT_THROW(fresh.load_snapshot(r), InvalidArgument) << offset;
  }
}

// ---------------------------------------------------------------------------
// Fault injector
// ---------------------------------------------------------------------------

TEST(FaultInjectorOracle, IsDeterministicRetryAwareAndRateBounded) {
  FaultPlan plan;
  plan.exception_rate = 0.25;
  plan.seed = 77;
  const FaultInjector a(plan), b(plan);
  std::size_t fired = 0, recovered = 0;
  for (std::size_t arrival = 0; arrival < 2000; ++arrival) {
    const FaultAction first = a.probe(0, arrival, 0);
    EXPECT_EQ(first, b.probe(0, arrival, 0)) << arrival;  // deterministic
    if (first == FaultAction::kException) {
      ++fired;
      // Retry-aware: attempt 1 re-rolls instead of repeating attempt 0.
      if (a.probe(0, arrival, 1) == FaultAction::kNone) ++recovered;
    }
  }
  EXPECT_GT(fired, 2000u / 4 / 2);   // ~500 expected
  EXPECT_LT(fired, 2000u / 4 * 2);
  EXPECT_GT(recovered, fired / 2);   // ~75% of retries clear
}

TEST(FaultInjectorOracle, ScriptedFaultsPinExactCoordinates) {
  FaultPlan plan;
  ScriptedFault fault;
  fault.shard = 1;
  fault.arrival = 5;
  fault.attempts = 2;
  fault.action = FaultAction::kDelay;
  plan.scripted.push_back(fault);
  const FaultInjector inj(plan);
  EXPECT_EQ(inj.probe(1, 5, 0), FaultAction::kDelay);
  EXPECT_EQ(inj.probe(1, 5, 1), FaultAction::kDelay);
  EXPECT_EQ(inj.probe(1, 5, 2), FaultAction::kNone);  // attempts exhausted
  EXPECT_EQ(inj.probe(0, 5, 0), FaultAction::kNone);  // other shard
  EXPECT_EQ(inj.probe(1, 6, 0), FaultAction::kNone);  // other arrival
}

TEST(FaultInjectorOracle, RejectsNonsensePlans) {
  FaultPlan bad_rate;
  bad_rate.exception_rate = 1.5;
  EXPECT_THROW(FaultInjector{bad_rate}, InvalidArgument);
  FaultPlan bad_script;
  bad_script.scripted.push_back(ScriptedFault{0, 0, 0, FaultAction::kNone});
  EXPECT_THROW(FaultInjector{bad_script}, InvalidArgument);
}

// ---------------------------------------------------------------------------
// Fault-tolerant pump: retries, quarantine, malformed input, delays
// ---------------------------------------------------------------------------

TEST(FaultTolerantPump, InjectedFaultsAreInvisibleAfterRetries) {
  // A fault-injected run whose retries recover everything must make the
  // same decisions as a fault-free control run.
  const AdmissionInstance inst = make_mixed_instance(1500, 15);
  const ShardAlgorithmFactory factory = randomized_shard_factory(false, 33);
  ServiceConfig plain;
  plain.shards = 2;
  plain.batch = 64;
  plain.collect_latencies = false;
  AdmissionService control(inst.graph(), factory, plain);
  pump(control, inst, 0, 1500, plain.batch);

  ServiceConfig faulty = plain;
  faulty.fault_tolerance.enabled = true;
  faulty.fault_tolerance.retry.max_retries = 8;
  faulty.fault_tolerance.retry.backoff_base_s = 0.0;  // fast test
  FaultPlan fault_plan;
  fault_plan.exception_rate = 0.01;
  fault_plan.seed = 99;
  faulty.fault_tolerance.injector =
      std::make_shared<FaultInjector>(fault_plan);
  AdmissionService injected(inst.graph(), factory, faulty);
  pump(injected, inst, 0, 1500, faulty.batch);

  const ServiceStats stats = injected.aggregate();
  EXPECT_GT(stats.task_failures, 0u);  // faults actually fired
  EXPECT_EQ(stats.retries, stats.task_failures);  // …and all recovered
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.quarantined_shards, 0u);
  ASSERT_EQ(injected.arrivals(), control.arrivals());
  for (std::size_t i = 0; i < control.arrivals(); ++i) {
    ASSERT_EQ(injected.is_accepted(i), control.is_accepted(i)) << i;
  }
  EXPECT_DOUBLE_EQ(stats.rejected_cost, control.aggregate().rejected_cost);
}

TEST(FaultTolerantPump, ExhaustedRetriesQuarantineAndRestoreShardHeals) {
  const AdmissionInstance inst = make_mixed_instance(200, 16);
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.batch = 50;
  cfg.fault_tolerance.enabled = true;
  cfg.fault_tolerance.retry.max_retries = 2;
  cfg.fault_tolerance.retry.backoff_base_s = 0.0;
  FaultPlan plan;
  ScriptedFault fault;
  fault.shard = 0;
  fault.arrival = 60;       // second batch trips the fault…
  fault.attempts = 100;     // …on every attempt: quarantine is forced
  plan.scripted.push_back(fault);
  cfg.fault_tolerance.injector = std::make_shared<FaultInjector>(plan);
  AdmissionService service(inst.graph(), greedy_factory(), cfg);

  pump(service, inst, 0, 50, cfg.batch);  // first batch: clean
  EXPECT_FALSE(service.shard_quarantined(0));
  EXPECT_EQ(service.aggregate().accepted, service.shard_stats(0).accepted);

  pump(service, inst, 50, 100, cfg.batch);  // second batch: quarantined
  EXPECT_TRUE(service.shard_quarantined(0));
  ShardStats stats = service.shard_stats(0);
  EXPECT_EQ(stats.task_failures, 3u);  // initial attempt + 2 retries
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.shed, 50u);          // the whole failed batch was shed
  EXPECT_EQ(stats.arrivals, 50u);      // committed state: first batch only
  for (std::size_t i = 50; i < 100; ++i) {
    EXPECT_EQ(service.decision_mode(i), DecisionMode::kQuarantineShed) << i;
    EXPECT_THROW((void)service.is_accepted(i), InvalidArgument) << i;
  }

  pump(service, inst, 100, 150, cfg.batch);  // quarantine sheds at routing
  EXPECT_EQ(service.shard_stats(0).shed, 100u);
  EXPECT_EQ(service.shard_stats(0).arrivals, 50u);

  service.restore_shard(0);  // heal: rebuilt from the committed log
  EXPECT_FALSE(service.shard_quarantined(0));
  pump(service, inst, 150, 200, cfg.batch);
  stats = service.shard_stats(0);
  EXPECT_EQ(stats.arrivals, 100u);  // traffic flows again
  EXPECT_EQ(stats.shed, 100u);      // and no new drops
  EXPECT_EQ(service.decision_mode(160), DecisionMode::kEngine);
}

TEST(FaultTolerantPump, MalformedAndCorruptedArrivalsNeverReachTheEngine) {
  const std::vector<std::int64_t> caps(8, 4);
  const Graph graph = Graph::star(caps);
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.fault_tolerance.enabled = true;
  AdmissionService service(graph, greedy_factory(), cfg);

  // Built by member assignment: the Request(vector, cost) constructor
  // normalizes (sorts + dedups), and the whole point is to deliver bytes
  // that violate the contract, as a corrupting transport would.
  const auto raw = [](std::vector<EdgeId> edges, double cost) {
    Request r;
    r.edges = std::move(edges);
    r.cost = cost;
    return r;
  };
  std::vector<Request> batch;
  batch.push_back(raw({0}, 1.0));     // fine
  batch.push_back(raw({}, 1.0));      // no edges
  batch.push_back(raw({1}, -3.0));    // negative cost
  batch.push_back(raw({2, 1}, 1.0));  // unsorted
  batch.push_back(raw({3, 3}, 1.0));  // duplicate edge
  batch.push_back(raw({99}, 1.0));    // out of range
  batch.push_back(raw({4}, std::numeric_limits<double>::quiet_NaN()));
  const std::vector<bool> accepted =
      service.submit_batch(std::span<const Request>(batch));

  EXPECT_TRUE(accepted[0]);
  for (std::size_t i = 1; i < batch.size(); ++i) {
    EXPECT_FALSE(accepted[i]) << i;
    EXPECT_EQ(service.decision_mode(i), DecisionMode::kMalformed) << i;
  }
  EXPECT_EQ(service.aggregate().malformed, batch.size() - 1);
  // aggregate().arrivals counts algorithm-processed arrivals only;
  // arrivals() counts everything routed (drops carry no cost accounting —
  // feedback clients re-arrive them).
  EXPECT_EQ(service.aggregate().arrivals, 1u);
  EXPECT_EQ(service.arrivals(), batch.size());
  EXPECT_EQ(service.shard_stats(0).arrivals +
                service.shard_stats(1).arrivals +
                service.shard_stats(2).arrivals +
                service.shard_stats(3).arrivals,
            1u);

  // corrupt_rate 1: the injector flags every arrival, well-formed or not.
  ServiceConfig corrupting = cfg;
  FaultPlan plan;
  plan.corrupt_rate = 1.0;
  corrupting.fault_tolerance.injector = std::make_shared<FaultInjector>(plan);
  AdmissionService corrupted(graph, greedy_factory(), corrupting);
  const std::vector<Request> clean{Request{{0}, 1.0, false},
                                   Request{{1}, 1.0, false}};
  corrupted.submit_batch(std::span<const Request>(clean));
  EXPECT_EQ(corrupted.aggregate().malformed, 2u);
}

TEST(FaultTolerantPump, DelayFaultsAreCountedAndChangeNoDecision) {
  const AdmissionInstance inst = make_mixed_instance(60, 18);
  const ShardAlgorithmFactory factory = randomized_shard_factory(false, 18);
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.batch = 30;
  cfg.fault_tolerance.enabled = true;
  AdmissionService control(inst.graph(), factory, cfg);
  pump(control, inst, 0, 60, cfg.batch);

  FaultPlan plan;
  plan.delay_rate = 1.0;  // every arrival sleeps
  plan.delay_seconds = 1e-5;
  cfg.fault_tolerance.injector = std::make_shared<FaultInjector>(plan);
  AdmissionService delayed(inst.graph(), factory, cfg);
  pump(delayed, inst, 0, 60, cfg.batch);
  // A delay only slows its shard: each arrival is probed once, runs through
  // the engine, and is decided exactly as without the injector.
  EXPECT_EQ(delayed.aggregate().injected_delays, 60u);
  ASSERT_EQ(delayed.arrivals(), control.arrivals());
  for (std::size_t i = 0; i < control.arrivals(); ++i) {
    EXPECT_EQ(delayed.decision_mode(i), DecisionMode::kEngine) << i;
    EXPECT_EQ(delayed.is_accepted(i), control.is_accepted(i)) << i;
  }
}

TEST(FaultTolerantPump, DisabledFaultToleranceKeepsTheFastPath) {
  // ShardStats surface zeros for the fault-tolerance counters when the
  // layer is off, and the arrival budget is still reported (satellite:
  // augmentation_budget_exceeded is visible per shard either way).
  const AdmissionInstance inst = make_mixed_instance(120, 19);
  ServiceConfig cfg;
  cfg.shards = 2;
  AdmissionService service(inst.graph(), greedy_factory(), cfg);
  pump(service, inst, 0, 120, 60);
  for (std::size_t s = 0; s < 2; ++s) {
    const ShardStats stats = service.shard_stats(s);
    EXPECT_EQ(stats.task_failures, 0u);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.malformed, 0u);
    EXPECT_FALSE(stats.quarantined);
    EXPECT_GT(stats.augmentation_budget, 0u);
    EXPECT_FALSE(stats.augmentation_budget_exceeded);
  }
  EXPECT_EQ(service.aggregate().budget_exceeded_shards, 0u);
}

TEST(FaultTolerantPump, KillAndHealUnderALiveMultiWorkerPump) {
  // DESIGN.md §11.5: fault-tolerant attempts stream through the ring
  // workers like plain ones.  One shard is killed mid-run (scripted fault
  // on every attempt → quarantine) while recoverable faults on three
  // sibling shards land in the same batch, so their committed-log
  // rebuilds run as parallel lane jobs.  restore_shard then heals the dead
  // shard under the same live workers.  The run must be bit-identical
  // between 4 workers and 1 worker under the identical fault plan, and
  // every shard must end where a sequential replay of its committed log
  // ends.
  const AdmissionInstance inst = make_mixed_instance(400, 18);
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.batch = 50;
  cfg.fault_tolerance.enabled = true;
  cfg.fault_tolerance.retry.max_retries = 1;
  cfg.fault_tolerance.retry.backoff_base_s = 0.0;
  const ShardAlgorithmFactory factory = randomized_shard_factory(false, 44);

  // Scripted faults are keyed by (shard, global arrival); discover the
  // routing with a clean control run so the coordinates actually hit.
  const auto owned_arrival_in = [&](std::size_t shard, std::size_t lo,
                                    std::size_t hi) {
    ServiceConfig probe_cfg = cfg;
    probe_cfg.fault_tolerance.enabled = false;
    AdmissionService control(inst.graph(), factory, probe_cfg);
    pump(control, inst, 0, 400, probe_cfg.batch);
    for (std::size_t i = lo; i < hi; ++i) {
      if (control.placement(i).first == shard) return i;
    }
    ADD_FAILURE() << "no arrival for shard " << shard << " in [" << lo
                  << ", " << hi << ")";
    return lo;
  };
  FaultPlan plan;
  ScriptedFault kill;  // shard 1, mid-run: fails every attempt
  kill.shard = 1;
  kill.arrival = owned_arrival_in(1, 200, 300);
  kill.attempts = 100;
  kill.action = FaultAction::kException;
  plan.scripted.push_back(kill);
  for (const std::size_t s : {0u, 2u, 3u}) {
    ScriptedFault blip;  // first batch on every sibling shard: one
    blip.shard = s;      // dispatch rebuilds all three in parallel
    blip.arrival = owned_arrival_in(s, 0, 50);
    blip.attempts = 1;   // the retry clears
    blip.action = FaultAction::kException;
    plan.scripted.push_back(blip);
  }
  cfg.fault_tolerance.injector = std::make_shared<FaultInjector>(plan);

  const auto run = [&](std::size_t threads) {
    ServiceConfig c = cfg;
    c.threads = threads;
    auto service =
        std::make_unique<AdmissionService>(inst.graph(), factory, c);
    pump(*service, inst, 0, 300, c.batch);
    // The sibling blips recovered; the kill exhausted its retries.
    EXPECT_FALSE(service->shard_quarantined(0));
    EXPECT_TRUE(service->shard_quarantined(1));
    EXPECT_EQ(service->shard_stats(1).task_failures, 2u);  // attempt + retry
    EXPECT_EQ(service->shard_stats(1).retries, 1u);
    for (const std::size_t s : {0u, 2u, 3u}) {
      EXPECT_EQ(service->shard_stats(s).task_failures, 1u) << s;
      EXPECT_EQ(service->shard_stats(s).retries, 1u) << s;
    }
    service->restore_shard(1);  // heal: rebuild from the committed log
    EXPECT_FALSE(service->shard_quarantined(1));
    pump(*service, inst, 300, 400, c.batch);
    EXPECT_GT(service->shard_stats(1).shed, 0u);  // the dead window shed
    return service;
  };
  const auto four = run(4);
  const auto one = run(1);
  EXPECT_EQ(four->worker_count(), 4u);
  EXPECT_EQ(one->worker_count(), 1u);

  ASSERT_EQ(four->arrivals(), one->arrivals());
  for (std::size_t i = 0; i < four->arrivals(); ++i) {
    ASSERT_EQ(four->decision_mode(i), one->decision_mode(i)) << i;
    ASSERT_EQ(four->placement(i), one->placement(i)) << i;
    if (four->decision_mode(i) == DecisionMode::kEngine) {
      ASSERT_EQ(four->is_accepted(i), one->is_accepted(i)) << i;
    }
  }
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    const ShardStats a = four->shard_stats(s);
    const ShardStats b = one->shard_stats(s);
    EXPECT_EQ(a.arrivals, b.arrivals) << s;
    EXPECT_EQ(a.shed, b.shed) << s;
    EXPECT_EQ(a.rejected, b.rejected) << s;
    EXPECT_DOUBLE_EQ(a.rejected_cost, b.rejected_cost) << s;
  }
  EXPECT_DOUBLE_EQ(four->aggregate().rejected_cost,
                   one->aggregate().rejected_cost);

  // A shard's committed log is exactly its arrivals with live placements,
  // in arrival order: replaying them through fresh algorithms must land
  // on the service's final state.
  const std::span<const Request> requests(inst.requests().data(),
                                          four->arrivals());
  const test::SequentialReplay replay(
      inst.graph(), factory, cfg.shards, requests, [&](std::size_t i) {
        const auto [shard, local] = four->placement(i);
        return local == kInvalidId ? test::SequentialReplay::kSkip : shard;
      });
  for (std::size_t i = 0; i < four->arrivals(); ++i) {
    const auto [shard, local] = four->placement(i);
    if (local == kInvalidId || four->shard_quarantined(shard)) continue;
    ASSERT_EQ(replay.placement(i).second, local) << i;
    ASSERT_EQ(four->is_accepted(i), replay.is_accepted(i)) << i;
  }
}

}  // namespace
}  // namespace minrej
