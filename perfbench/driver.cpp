// driver.cpp — the admission benchmark: three workloads through the
// sharded AdmissionService, measured end to end and, in a separate traced
// run, layer by layer.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--state-dir <dir>] [--binary-tag <tag>]
//
// The instance is generated from the seed with sim::make_scenario; the
// service sees only its requests.  A run repeats "passes": each pass builds
// a fresh service (one setup sample) and submits the whole instance, so
// every pass makes the same decisions and every quality metric is exact.
// The passes repeat until --seconds have elapsed.  With --trace 1 the first
// half of the time runs untraced and the second half records spans around
// every call the driver makes into service/, core/ and io/; only per-layer
// numbers are printed then.  RATIONALE.md gives the reasons for each
// workload and the layer → end-to-end predictions.
//
// The last line of stdout is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// and the line before it ("report ...") carries the full metric set with
// the provenance stamp.  Any failed correctness gate sets correct=false.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/fractional_admission.h"
#include "core/randomized_admission.h"
#include "harness.h"
#include "offline/admission_opt.h"
#include "offline/certificate.h"
#include "service/admission_service.h"
#include "sim/workloads.h"
#include "util/check.h"

namespace perfbench {
namespace {

using minrej::AdmissionInstance;
using minrej::AdmissionService;
using minrej::EdgeId;
using minrej::Request;
using minrej::RequestId;

/// One benchmark workload.  The sizes are fixed here once: the dense
/// burst's default capacity is a third of the per-edge load, so its cost
/// per arrival grows with `requests`.  tenant_ft's 1024-arrival batches
/// (about 5 ms, like burst_closed's 256) keep barriers rare: with 256 its
/// rate swung twice as much across runs on a shared host.
struct Workload {
  const char* name;
  const char* scenario;
  std::size_t requests;  ///< arrivals per pass (the instance size)
  std::size_t edges;
  std::size_t shards;
  std::size_t workers;   ///< ring workers; the routing thread is extra
  bool block_partition;  ///< tenant-aligned contiguous edge blocks
  bool fault_tolerance;
  std::size_t checkpoint_every;  ///< batches between checkpoint(); 0 = none
  bool open_loop;
  std::size_t batch;        ///< closed: batch size; open: per-call cap
  double offered_rate;      ///< open loop: arrivals per second
  double latency_limit_us;  ///< open loop: limit for open_late_share
  bool exact_opt;           ///< max-flow OPT, else a verified dual bound
};

constexpr Workload kWorkloads[] = {
    {"burst_closed", "dense_burst", 100000, 64, 4, 2, false, false, 0, false,
     256, 0.0, 0.0, true},
    {"overlap_open", "shared_sets_overlap", 200000, 64, 1, 1, false, false, 0,
     true, 256, 175000.0, 1000.0, false},
    {"tenant_ft", "multi_tenant", 100000, 64, 4, 2, true, true, 8, false,
     1024, 0.0, 0.0, false},
};

/// Fresh-service constructions per run on top of the passes' own, so the
/// setup_s median rests on enough samples even when passes are long.
constexpr int kExtraSetups = 50;
/// restore() repetitions behind recover_s.
constexpr int kRestores = 7;
/// Passes per measured phase, at least (the determinism gate compares
/// passes of one run).
constexpr std::size_t kMinPasses = 2;
/// Unmeasured passes run first for at least this long.  After a few idle
/// seconds a virtual machine's CPUs can run at a third of their speed for
/// the first second of load; the warm-up also fills caches and the heap.
constexpr double kWarmupSeconds = 2.0;
/// Samples a percentile window must hold: p99 then has ten samples beyond
/// it, the reporting rule's minimum.
constexpr std::size_t kWindowSamples = 1000;
/// A traced run fails its coverage gate when more than this share of the
/// measured phase's wall time lies outside every child span.
constexpr double kCoverageTolerance = 0.05;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h * 0x100000001B3ULL;
}

double vm_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return minrej::hardware_concurrency();
}

/// Span name ids, interned once per recorder.
struct Names {
  std::uint32_t measure, pass, setup, preload, submit, checkpoint, wait,
      verify, teardown, route, replay, process, fractional, on_request,
      snapshot, restore;
  explicit Names(SpanRecorder& r)
      : measure(r.intern("measure")), pass(r.intern("pass")),
        setup(r.intern("setup")), preload(r.intern("preload")),
        submit(r.intern("submit_batch")),
        checkpoint(r.intern("checkpoint")), wait(r.intern("wait")),
        verify(r.intern("verify")), teardown(r.intern("teardown")),
        route(r.intern("route")), replay(r.intern("replay")),
        process(r.intern("process")), fractional(r.intern("fractional")),
        on_request(r.intern("on_request")), snapshot(r.intern("snapshot")),
        restore(r.intern("restore")) {}
};

/// Decision totals of one pass (or of the replay); equal totals and hashes
/// across passes, runs and the replay are correctness gates.
struct Totals {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  double rejected_cost = 0.0;
  std::uint64_t aug_steps = 0;
  std::uint64_t answer_hash = 0;  ///< decisions as returned at arrival
  std::uint64_t state_hash = 0;   ///< is_accepted stream after the pass

  bool operator==(const Totals&) const = default;
};

struct PassResult {
  double wall_s = 0.0;  ///< first submit to last return, checkpoints incl.
  std::size_t arrivals = 0;  ///< submitted, set-system preload included
  std::size_t measured = 0;  ///< submitted inside the measured loop
  std::size_t calls = 0;
  std::size_t failed = 0;
  double submit_s = 0.0;
  double busy_s = 0.0;
  double critical_busy_s = 0.0;
  double shard_skew = 0.0;
  Totals totals;
};

/// Everything one measured phase (a sequence of passes) collects.
struct Phase {
  std::vector<PassResult> passes;
  std::vector<double> setup_s;
  std::vector<double> call_us;       ///< submit_batch wall per call
  std::vector<float> arrival_us;     ///< due time → return of its call
  std::vector<std::size_t> pass_call_begin;     ///< per pass: call_us offset
  std::vector<std::size_t> pass_arrival_begin;  ///< per pass: arrival_us offset
  std::vector<double> checkpoint_us;
  std::vector<double> gen_lag_us;    ///< open loop: oldest arrival per call
  std::size_t backlog_max = 0;
  double rss_growth_mb = 0.0;
  std::string error;
  std::unique_ptr<AdmissionService> last;  ///< service of the final pass

  double per_pass(double PassResult::*field) const {
    double sum = 0.0;
    for (const PassResult& p : passes) sum += p.*field;
    return passes.empty() ? 0.0 : sum / static_cast<double>(passes.size());
  }
};

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed)
      : w_(w), instance_(make_instance(w, seed)),
        unit_(minrej::all_unit_costs(instance_)),
        factory_(minrej::randomized_shard_factory(unit_, seed)) {
    if (w_.open_loop) {
      const auto& reqs = instance_.requests();
      while (preload_ < reqs.size() && !reqs[preload_].must_accept) ++preload_;
    }
  }

  const AdmissionInstance& instance() const { return instance_; }
  /// Leading arrivals each pass submits before its measured loop.
  std::size_t preload() const { return preload_; }
  bool unit_costs() const { return unit_; }
  const minrej::ShardAlgorithmFactory& factory() const { return factory_; }

  minrej::ServiceConfig config() const {
    minrej::ServiceConfig c;
    c.shards = w_.shards;
    c.batch = w_.batch;
    c.threads = w_.workers;
    c.pump = minrej::PumpMode::kRings;
    c.collect_latencies = false;
    if (w_.block_partition) {
      const std::size_t m = instance_.graph().edge_count();
      const std::size_t k = w_.shards;
      c.partition = [m, k](EdgeId e) {
        return std::min<std::size_t>(k - 1, static_cast<std::size_t>(e) * k / m);
      };
    }
    c.fault_tolerance.enabled = w_.fault_tolerance;
    return c;
  }

  std::unique_ptr<AdmissionService> make_service() const {
    return std::make_unique<AdmissionService>(instance_.graph(), factory_,
                                              config());
  }

  /// Runs passes until `seconds` have elapsed (at least kMinPasses),
  /// recording spans when `rec` is set.  With `rss`, pass 0 also measures
  /// the service's memory growth.
  Phase measure(double seconds, SpanRecorder* rec, const Names* nm,
                bool rss = false) {
    Phase phase;
    const std::int64_t t0 = now_ns();
    ScopedSpan root(rec, nm ? nm->measure : 0);
    for (std::size_t p = 0;; ++p) {
      if (p >= kMinPasses &&
          static_cast<double>(now_ns() - t0) / 1e9 >= seconds) {
        break;
      }
      try {
        run_pass(p, phase, rec, nm, rss && p == 0);
      } catch (const std::exception& e) {
        phase.error = std::string("pass ") + std::to_string(p) + ": " + e.what();
        break;
      }
    }
    return phase;
  }

  double setup_once() const {
    const std::int64_t a = now_ns();
    auto svc = make_service();
    const std::int64_t b = now_ns();
    return static_cast<double>(b - a) / 1e9;
  }

 private:
  static AdmissionInstance make_instance(const Workload& w,
                                         std::uint64_t seed) {
    minrej::ScenarioParams params;
    params.requests = w.requests;
    params.edges = w.edges;
    minrej::Rng rng(seed);
    return minrej::make_scenario(w.scenario, params, rng);
  }

  void run_pass(std::size_t p, Phase& phase, SpanRecorder* rec,
                const Names* nm, bool rss) {
    ScopedSpan pass_span(rec, nm ? nm->pass : 0, p);
    if (phase.last) {
      ScopedSpan s(rec, nm ? nm->teardown : 0, p);
      phase.last.reset();
    }
    // Freed heap from instance generation is returned first, so the
    // service's growth is not hidden by reuse.
    double rss_before = 0.0;
    if (rss) {
      malloc_trim(0);
      rss_before = vm_rss_mb();
    }
    PassResult r;
    const std::int64_t s0 = now_ns();
    std::unique_ptr<AdmissionService> svc = make_service();
    const std::int64_t s1 = now_ns();
    if (rec) rec->leaf(nm->setup, p, s0, s1);
    phase.setup_s.push_back(static_cast<double>(s1 - s0) / 1e9);

    phase.pass_call_begin.push_back(phase.call_us.size());
    phase.pass_arrival_begin.push_back(phase.arrival_us.size());
    const std::span<const Request> all(instance_.requests());
    const std::size_t n = all.size();
    std::vector<std::uint8_t> failed(n, 0);
    std::uint64_t answer_hash = 0;
    std::size_t call = 0;
    const auto submit = [&](std::size_t first, std::size_t take) {
      const std::int64_t a = now_ns();
      std::vector<bool> decisions;
      bool ok = true;
      try {
        decisions = svc->submit_batch(all.subspan(first, take));
      } catch (const std::exception&) {
        ok = false;
      }
      const std::int64_t b = now_ns();
      if (rec) rec->leaf(nm->submit, call, a, b);
      ++call;
      phase.call_us.push_back(static_cast<double>(b - a) / 1e3);
      r.submit_s += static_cast<double>(b - a) / 1e9;
      for (std::size_t k = 0; k < take; ++k) {
        if (!ok) failed[first + k] = 1;
        answer_hash = mix(answer_hash, ok && decisions[k] ? 2 : 1);
      }
      return b;
    };
    const auto maybe_checkpoint = [&] {
      if (w_.checkpoint_every == 0 || call % w_.checkpoint_every != 0) return;
      const std::int64_t a = now_ns();
      svc->checkpoint();
      const std::int64_t b = now_ns();
      if (rec) rec->leaf(nm->checkpoint, call, a, b);
      phase.checkpoint_us.push_back(static_cast<double>(b - a) / 1e3);
    };

    if (w_.open_loop) {
      // The set system of the §4 reduction (its leading rejectable set
      // requests, before the first must-accept element arrival) is
      // presented closed-loop and unmeasured: online set cover knows its
      // sets up front, and the open loop replays the element arrivals.
      ScopedSpan s(rec, nm ? nm->preload : 0, p);
      for (std::size_t first = 0; first < preload_;) {
        const std::size_t take = std::min(w_.batch, preload_ - first);
        const std::vector<bool> decisions = svc->submit_batch(all.subspan(first, take));
        for (const bool d : decisions) answer_hash = mix(answer_hash, d ? 2 : 1);
        first += take;
      }
    }
    // Busy time of the measured loop only, so it compares with submit_s.
    std::vector<double> busy_before(svc->shard_count());
    for (std::size_t s = 0; s < busy_before.size(); ++s) {
      busy_before[s] = svc->shard_stats(s).busy_seconds;
    }
    const std::int64_t begin = now_ns();
    if (!w_.open_loop) {
      // Closed loop: the next full batch is issued when the previous call
      // returns, so every arrival of a batch is due at its issue time.
      for (std::size_t first = 0; first < n;) {
        const std::size_t take = std::min(w_.batch, n - first);
        const std::int64_t issued = now_ns();
        const std::int64_t end = submit(first, take);
        const float lat = static_cast<float>(static_cast<double>(end - issued) / 1e3);
        phase.arrival_us.insert(phase.arrival_us.end(), take, lat);
        first += take;
        maybe_checkpoint();
      }
    } else {
      // Open loop: arrival k is due at begin + k/rate.  After each call the
      // generator submits everything already due (up to the cap), or waits
      // for the next due time: sleeping while the wait is long, spinning
      // through its last 200 µs so oversleep does not pose as pump latency.
      const OpenLoopSchedule schedule{
          begin - static_cast<std::int64_t>(static_cast<double>(preload_) *
                                            1e9 / w_.offered_rate),
          w_.offered_rate};
      for (std::size_t next = preload_; next < n;) {
        const std::int64_t t = now_ns();
        const std::size_t due = schedule.due_count(t, n);
        if (due <= next) {
          const std::int64_t target = schedule.due_ns(next);
          ScopedSpan s(rec, nm ? nm->wait : 0, next);
          if (target - t > 300000) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(target - t - 200000));
          }
          while (now_ns() < target) std::this_thread::yield();
          continue;
        }
        phase.backlog_max = std::max(phase.backlog_max, due - next);
        const std::size_t take = std::min(w_.batch, due - next);
        phase.gen_lag_us.push_back(
            static_cast<double>(t - schedule.due_ns(next)) / 1e3);
        const std::int64_t end = submit(next, take);
        charge_call(schedule, next, take, end, phase.arrival_us);
        next += take;
      }
    }
    const std::int64_t finish = now_ns();
    r.wall_s = static_cast<double>(finish - begin) / 1e9;
    r.arrivals = n;
    r.measured = n - preload_;
    r.calls = call;

    ScopedSpan verify_span(rec, nm ? nm->verify : 0, p);
    if (rss) {
      // Trimmed on both sides: the growth is the live state the pass left
      // behind, not free heap the allocator happens to keep.
      malloc_trim(0);
      phase.rss_growth_mb = vm_rss_mb() - rss_before;
    }
    // Unanswered arrivals: a throwing call, a voided placement, or a
    // decision mode other than the engine (shed, malformed, quarantined).
    std::uint64_t state_hash = 0;
    for (std::size_t i = 0; i < svc->arrivals(); ++i) {
      const bool voided = svc->placement(i).second == minrej::kInvalidId;
      if (voided ||
          svc->decision_mode(i) != minrej::DecisionMode::kEngine) {
        failed[i] = 1;
      }
      state_hash = mix(state_hash, !voided && svc->is_accepted(i) ? 2 : 1);
    }
    for (const std::uint8_t f : failed) r.failed += f;
    const minrej::ServiceStats agg = svc->aggregate();
    r.totals = {agg.accepted, agg.rejected, agg.rejected_cost,
                agg.augmentation_steps, answer_hash, state_hash};
    // Shard s runs on ring worker s mod W; the busiest worker's summed
    // busy time is the pump's critical path.
    const std::size_t workers = svc->worker_count();
    std::vector<double> worker_busy(workers, 0.0);
    double max_arrivals = 0.0;
    for (std::size_t s = 0; s < svc->shard_count(); ++s) {
      const minrej::ShardStats st = svc->shard_stats(s);
      const double busy = st.busy_seconds - busy_before[s];
      r.busy_s += busy;
      worker_busy[s % workers] += busy;
      max_arrivals = std::max(max_arrivals, static_cast<double>(st.arrivals));
    }
    r.critical_busy_s = *std::max_element(worker_busy.begin(), worker_busy.end());
    r.shard_skew = max_arrivals * static_cast<double>(svc->shard_count()) /
                   static_cast<double>(n);
    phase.passes.push_back(r);
    phase.last = std::move(svc);
  }

  const Workload& w_;
  AdmissionInstance instance_;
  bool unit_;
  minrej::ShardAlgorithmFactory factory_;
  std::size_t preload_ = 0;
};

/// The isolated replay: every shard's arrival stream, in arrival order,
/// through fresh factory-built algorithms on the driver thread, with each
/// process() call timed.  Its decisions are the reference the service's
/// must hash equal to.
struct Replay {
  Totals totals;
  bool ids_match = true;
  std::vector<double> process_us;
  double process_s = 0.0;
  double fractional_s = 0.0;
  std::uint64_t compactions = 0;
  std::uint64_t phases = 0;
  std::uint64_t preemptions = 0;
};

Replay replay(const Bench& bench, const AdmissionService& svc, bool fractional,
              SpanRecorder* rec, const Names* nm) {
  const AdmissionInstance& inst = bench.instance();
  const auto& reqs = inst.requests();
  Replay out;
  std::vector<std::unique_ptr<minrej::OnlineAdmissionAlgorithm>> algs;
  for (std::size_t s = 0; s < svc.shard_count(); ++s) {
    algs.push_back(bench.factory()(inst.graph(), s));
  }
  out.process_us.reserve(reqs.size());
  {
    ScopedSpan root(rec, nm ? nm->replay : 0);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const auto [shard, local] = svc.placement(i);
      minrej::OnlineAdmissionAlgorithm& alg = *algs[shard];
      if (local != static_cast<RequestId>(alg.arrivals())) out.ids_match = false;
      const std::int64_t a = now_ns();
      const minrej::ArrivalResult res = alg.process(reqs[i]);
      const std::int64_t b = now_ns();
      if (rec) rec->leaf(nm->process, i, a, b);
      if (i >= bench.preload()) {
        out.process_us.push_back(static_cast<double>(b - a) / 1e3);
        out.process_s += static_cast<double>(b - a) / 1e9;
      }
      out.preemptions += res.preempted.size();
      out.totals.answer_hash = mix(out.totals.answer_hash, res.accepted ? 2 : 1);
    }
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto [shard, local] = svc.placement(i);
    out.totals.state_hash =
        mix(out.totals.state_hash, algs[shard]->is_accepted(local) ? 2 : 1);
  }
  for (const auto& alg : algs) {
    out.totals.rejected += alg->rejected_count();
    out.totals.accepted += alg->arrivals() - alg->rejected_count();
    out.totals.rejected_cost += alg->rejected_cost();
    out.totals.aug_steps += alg->augmentation_steps();
    if (const auto* ra = dynamic_cast<const minrej::RandomizedAdmission*>(alg.get())) {
      out.compactions += ra->fractional().compactions();
      out.phases += ra->fractional().phase_count();
    }
  }
  if (fractional) {
    // The §2 fractional layer alone, built with the configuration the
    // shard factory gives its RandomizedAdmission (defaults + cost mode).
    minrej::FractionalConfig fc;
    fc.unit_costs = bench.unit_costs();
    std::vector<std::unique_ptr<minrej::FractionalAdmission>> fracs;
    for (std::size_t s = 0; s < svc.shard_count(); ++s) {
      fracs.push_back(
          std::make_unique<minrej::FractionalAdmission>(inst.graph(), fc));
    }
    ScopedSpan root(rec, nm ? nm->fractional : 0);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const std::int64_t a = now_ns();
      fracs[svc.placement(i).first]->on_request(reqs[i]);
      const std::int64_t b = now_ns();
      if (rec) rec->leaf(nm->on_request, i, a, b);
      if (i >= bench.preload()) out.fractional_s += static_cast<double>(b - a) / 1e9;
    }
  }
  return out;
}

/// Offline lower bound on rejected cost: exact max-flow OPT, or the value
/// of a dual certificate that passed the independent verifier.
struct Bound {
  double value = 0.0;
  bool verified = false;
  std::string kind;
};

Bound offline_bound(const Workload& w, const AdmissionInstance& inst) {
  Bound b;
  if (w.exact_opt) {
    const minrej::AdmissionOpt opt = minrej::solve_admission_opt(
        inst, minrej::OptBackend::kMaxFlow);
    b.value = opt.rejected_cost;
    b.verified = opt.exact;
    b.kind = "maxflow_opt";
  } else {
    const minrej::DualCertificate cert = minrej::build_dual_certificate(inst);
    const minrej::CertificateVerdict v = minrej::verify_certificate(inst, cert);
    b.value = v.value;
    b.verified = v.feasible && v.claim_ok;
    b.kind = "dual_certificate";
  }
  return b;
}

/// One reported number.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num17(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += minrej::json_str(metrics[i].name) + ": {\"value\": " +
           num17(metrics[i].value) +
           ", \"unit\": " + minrej::json_str(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Collects gate verdicts; any failure makes the run incorrect.
class Gates {
 public:
  void check(bool ok, const std::string& what) {
    results_.emplace_back(what, ok);
    if (!ok) std::cerr << "perfbench: gate failed: " << what << '\n';
  }
  bool all_passed() const {
    for (const auto& r : results_) if (!r.second) return false;
    return true;
  }
  std::string json() const {
    minrej::JsonObject o;
    for (const auto& [what, ok] : results_) o.field(what, ok);
    return o.dump();
  }

 private:
  std::vector<std::pair<std::string, bool>> results_;
};

/// Cross-run determinism: the totals of (workload, seed, binary) are kept
/// in the state directory; a later run of the same binary must match them.
bool same_as_previous_run(const std::string& dir, const std::string& file,
                          const Totals& t) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + file;
  std::ostringstream line;
  line << t.accepted << ' ' << t.rejected << ' ' << num17(t.rejected_cost)
       << ' ' << t.aug_steps << ' ' << t.answer_hash << ' ' << t.state_hash;
  std::ifstream in(path);
  std::string previous;
  if (in && std::getline(in, previous)) return previous == line.str();
  std::ofstream out(path);
  out << line.str() << '\n';
  return static_cast<bool>(out);
}

void write_spans(const std::string& path, const SpanRecorder& rec) {
  std::ofstream out(path);
  if (!out) return;
  out << "name,id,parent,start_ns,end_ns\n";
  for (const Span& s : rec.spans()) {
    out << rec.names()[s.name] << ',' << s.id << ','
        << (s.parent == Span::kNoParent ? -1 : static_cast<std::int64_t>(s.parent))
        << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
}

/// 1 − (root self time / root duration) for the first root of `name`.
double coverage(const SpanRecorder& rec, const std::string& name,
                double* unexplained_s) {
  const std::vector<double> self = self_times(rec.spans());
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    if (s.parent == Span::kNoParent && rec.names()[s.name] == name) {
      if (unexplained_s) *unexplained_s = self[i];
      return s.seconds() > 0.0 ? 1.0 - self[i] / s.seconds() : 1.0;
    }
  }
  return 0.0;
}

int run(int argc, char** argv) {
  const minrej::CliFlags flags = minrej::CliFlags::parse(
      argc, argv,
      {"workload", "seed", "seconds", "trace", "state-dir", "binary-tag"});
  const std::string name = flags.get_string("workload", "");
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) wl = &w;
  }
  MINREJ_REQUIRE(wl != nullptr,
                 "unknown --workload '" + name +
                     "' (burst_closed, overlap_open, tenant_ft)");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10.0);
  MINREJ_REQUIRE(seconds > 0.0, "--seconds must be positive");
  const bool trace = flags.get_int("trace", 0) != 0;
  const std::string state_dir = flags.get_string("state-dir", "");
  const std::string tag = flags.get_string("binary-tag", "untagged");
  const Workload& w = *wl;

  Bench bench(w, seed);
  const AdmissionInstance& inst = bench.instance();
  Gates gates;

  // --- measured phases ------------------------------------------------------
  // The first pass of the run, on the cleanest heap, measures memory.
  Phase warm = bench.measure(kWarmupSeconds, nullptr, nullptr, /*rss=*/true);
  gates.check(warm.error.empty(), "warmup_calls_succeed");
  warm.last.reset();
  Phase plain = bench.measure(trace ? seconds / 2.0 : seconds, nullptr, nullptr);
  gates.check(plain.error.empty(), "service_calls_succeed");
  if (!plain.error.empty()) std::cerr << "perfbench: " << plain.error << '\n';
  SpanRecorder rec;
  const Names names(rec);
  SpanRecorder* trec = trace ? &rec : nullptr;
  const Names* nm = trace ? &names : nullptr;
  Phase traced;
  if (trace) {
    // Only one service is alive while a phase is measured: the idle ring
    // workers of the untraced phase's last service would otherwise wake
    // on their timed waits throughout the traced phase.
    plain.last.reset();
    traced = bench.measure(seconds / 2.0, trec, nm);
    gates.check(traced.error.empty(), "traced_service_calls_succeed");
    if (!traced.error.empty()) std::cerr << "perfbench: " << traced.error << '\n';
  }
  Phase& main_phase = trace ? traced : plain;
  if (plain.passes.empty() || !main_phase.last) {
    std::cerr << "perfbench: no service survived a complete pass\n";
    return 1;
  }
  for (int i = 0; i < kExtraSetups && !trace; ++i) {
    plain.setup_s.push_back(bench.setup_once());
  }
  AdmissionService& svc = *main_phase.last;

  // --- correctness gates (outside the timed phases) ----------------------
  const Totals& ref = plain.passes.front().totals;
  bool passes_agree = true;
  for (const Phase* ph : {&warm, &plain, &traced}) {
    for (const PassResult& p : ph->passes) passes_agree &= p.totals == ref;
  }
  gates.check(passes_agree, "passes_identical");
  std::vector<bool> accepted(inst.request_count());
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    accepted[i] = svc.placement(i).second != minrej::kInvalidId &&
                  svc.is_accepted(i);
  }
  gates.check(minrej::is_feasible_acceptance(inst, accepted),
              "accepted_set_feasible");

  const Bound bound = offline_bound(w, inst);
  gates.check(bound.verified, "offline_bound_verified");
  gates.check(ref.rejected_cost >=
                  bound.value - 1e-9 * std::max(1.0, bound.value),
              "rejected_cost_at_least_bound");

  const Replay rp = replay(bench, svc, trace, trec, nm);
  gates.check(rp.ids_match, "replay_local_ids_match");
  gates.check(rp.totals.answer_hash == ref.answer_hash,
              "answer_hash_matches_replay");
  gates.check(rp.totals.state_hash == ref.state_hash,
              "is_accepted_hash_matches_replay");
  gates.check(rp.totals.accepted == ref.accepted &&
                  rp.totals.rejected == ref.rejected &&
                  rp.totals.aug_steps == ref.aug_steps &&
                  rp.totals.rejected_cost == ref.rejected_cost,
              "totals_match_replay");
  if (!state_dir.empty()) {
    gates.check(same_as_previous_run(state_dir,
                                     std::string("totals-") + w.name + "-" +
                                         std::to_string(seed) + "-" + tag +
                                         ".txt",
                                     ref),
                "totals_match_previous_run");
  }

  // Snapshot → restore into fresh services; the first restore must
  // round-trip bit-identically.
  std::vector<std::uint8_t> blob;
  double snapshot_s = 0.0;
  {
    const std::int64_t a = now_ns();
    blob = svc.snapshot();
    const std::int64_t b = now_ns();
    if (trec) trec->leaf(nm->snapshot, 0, a, b);
    snapshot_s = static_cast<double>(b - a) / 1e9;
  }
  std::vector<double> restore_s;
  for (int k = 0; k < kRestores; ++k) {
    auto fresh = bench.make_service();
    const std::int64_t a = now_ns();
    fresh->restore(blob);
    const std::int64_t b = now_ns();
    if (trec) trec->leaf(nm->restore, static_cast<std::uint64_t>(k), a, b);
    restore_s.push_back(static_cast<double>(b - a) / 1e9);
    if (k == 0) gates.check(fresh->snapshot() == blob, "restore_round_trip");
  }

  // --- failures and end-to-end metrics --------------------------------------
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const Phase* ph : {&plain, &traced}) {
    for (const PassResult& p : ph->passes) {
      attempted += p.arrivals;
      failed += p.failed;
    }
  }
  std::vector<double> rates;
  for (const PassResult& p : plain.passes) {
    rates.push_back(static_cast<double>(p.measured) / p.wall_s);
  }
  std::vector<double> calls = plain.call_us;
  std::vector<float> lat = plain.arrival_us;
  std::size_t late = 0;
  for (const float l : plain.arrival_us) {
    if (w.open_loop && l > w.latency_limit_us) ++late;
  }
  // Failed arrivals count as late.
  const double late_share =
      static_cast<double>(late + failed) / static_cast<double>(attempted);
  const auto windowed = [](const auto& samples,
                           const std::vector<std::size_t>& pass_begin, double p) {
    return windowed_percentile(samples, pass_begin, p, kWindowSamples);
  };
  const double call_tail = tail_percentile_level(calls.size());
  const double arrival_tail = tail_percentile_level(lat.size());

  // The gated end-to-end set (BENCHMARK.json): defined and non-zero on
  // every workload, and steady enough across runs for a 25% bound.
  const std::vector<Metric> e2e = {
      {"setup_s", median(plain.setup_s), "s"},
      {"decide_rate", median(rates), "1/s"},
      {"open_p50_us", windowed(plain.arrival_us, plain.pass_arrival_begin, 50.0), "us"},
      {"rejection_ratio", ref.rejected_cost / bound.value, "ratio"},
      {"recover_s", median(restore_s), "s"},
      {"rss_growth_mb", warm.rss_growth_mb, "MB"},
  };
  // Reported, not gated (RATIONALE.md "Gated and reported metrics").
  std::vector<Metric> e2e_extra = {
      {"batch_p50_us", windowed(plain.call_us, plain.pass_call_begin, 50.0), "us"},
      {"batch_p99_us", windowed(plain.call_us, plain.pass_call_begin, 99.0), "us"},
      {"open_p99_us", windowed(plain.arrival_us, plain.pass_arrival_begin, 99.0), "us"},
      {"failed_share",
       static_cast<double>(failed) / static_cast<double>(attempted), "ratio"},
      {"batch_calls", static_cast<double>(plain.call_us.size()), "count"},
      {"batch_tail_pct", call_tail, "pct"},
      {"batch_tail_us", percentile(calls, call_tail), "us"},
      {"arrival_samples", static_cast<double>(plain.arrival_us.size()), "count"},
      {"open_tail_pct", arrival_tail, "pct"},
      {"open_tail_us", percentile(lat, arrival_tail), "us"},
      {"passes", static_cast<double>(plain.passes.size()), "count"},
      {"setup_samples", static_cast<double>(plain.setup_s.size()), "count"},
      {"offline_bound", bound.value, "cost"},
      {"rejected_cost", ref.rejected_cost, "cost"},
      {"accepted", static_cast<double>(ref.accepted), "count"},
      {"rejected", static_cast<double>(ref.rejected), "count"},
      {"aug_steps", static_cast<double>(ref.aug_steps), "count"},
  };
  if (w.open_loop) {
    e2e_extra.push_back({"open_late_share", late_share, "ratio"});
  }

  // --- per-layer metrics (traced run) ---------------------------------------
  std::vector<Metric> layers;
  std::vector<Metric> layers_extra;
  if (trace) {
    double route_s = 0.0;
    {
      // The routing step alone: shard_of_request over the instance.
      std::size_t checksum = 0;
      const std::int64_t a = now_ns();
      ScopedSpan s(trec, nm->route);
      for (const Request& r : inst.requests()) checksum += svc.shard_of_request(r);
      route_s = static_cast<double>(now_ns() - a) / 1e9;
      volatile std::size_t sink = checksum;  // keeps the loop
      (void)sink;
    }
    const double submit_s = traced.per_pass(&PassResult::submit_s);
    const double untraced_submit_s = plain.per_pass(&PassResult::submit_s);
    const double busy_s = traced.per_pass(&PassResult::busy_s);
    const double critical = traced.per_pass(&PassResult::critical_busy_s);
    double calls_total = 0.0;
    for (const PassResult& p : traced.passes) calls_total += static_cast<double>(p.calls);
    const double passes = static_cast<double>(traced.passes.size());
    const double n = static_cast<double>(inst.request_count() - bench.preload());
    double unexplained = 0.0;
    const double cov = coverage(rec, "measure", &unexplained);
    double replay_unexplained = 0.0;
    const double replay_cov = coverage(rec, "replay", &replay_unexplained);
    gates.check(rec.balanced(), "spans_balanced");
    gates.check(cov >= 1.0 - kCoverageTolerance, "span_coverage_measure");
    std::vector<double> process_us = rp.process_us;
    std::vector<double> ckpt = traced.checkpoint_us;
    std::vector<double> lag = traced.gen_lag_us;
    layers = {
        {"service.submit_s", submit_s, "s"},
        {"service.calls", calls_total / passes, "count"},
        {"service.batch_mean", n * passes / calls_total, "count"},
        {"service.busy_s", busy_s, "s"},
        {"service.critical_busy_s", critical, "s"},
        {"service.pump_s", submit_s - critical, "s"},
        {"service.pump_share", (submit_s - critical) / submit_s, "ratio"},
        {"service.shard_skew", traced.passes.front().shard_skew, "ratio"},
        {"service.route_s", route_s, "s"},
        {"service.busy_inflation", busy_s / rp.process_s, "ratio"},
        {"core.process_s", rp.process_s, "s"},
        {"core.process_p99_us", percentile(process_us, 99.0), "us"},
        {"core.fractional_s", rp.fractional_s, "s"},
        {"core.rounding_s", rp.process_s - rp.fractional_s, "s"},
        {"core.aug_steps", static_cast<double>(rp.totals.aug_steps), "count"},
        {"core.aug_per_arrival", static_cast<double>(rp.totals.aug_steps) / n, "count"},
        {"core.compactions", static_cast<double>(rp.compactions), "count"},
        {"core.phases", static_cast<double>(rp.phases), "count"},
        {"core.preemptions", static_cast<double>(rp.preemptions), "count"},
        {"io.snapshot_s", snapshot_s, "s"},
        {"io.snapshot_bytes", static_cast<double>(blob.size()), "bytes"},
        {"io.restore_s", median(restore_s), "s"},
        {"trace.overhead", submit_s / untraced_submit_s, "ratio"},
        {"trace.coverage", cov, "ratio"},
        {"trace.unexplained_s", unexplained, "s"},
    };
    double ckpt_total = 0.0;
    for (const double c : traced.checkpoint_us) ckpt_total += c / 1e6;
    layers_extra = {
        {"ft.checkpoint_s", ckpt_total / passes, "s"},
        {"ft.checkpoint_p99_us", percentile(ckpt, 99.0), "us"},
        {"ft.checkpoint_tail_pct", tail_percentile_level(ckpt.size()), "pct"},
        {"ft.checkpoint_tail_us", percentile(ckpt, tail_percentile_level(ckpt.size())), "us"},
        {"ft.checkpoints", static_cast<double>(ckpt.size()), "count"},
        {"service.backlog_max", static_cast<double>(traced.backlog_max), "count"},
        {"service.gen_lag_p99_us", percentile(lag, 99.0), "us"},
        {"trace.replay_coverage", replay_cov, "ratio"},
        {"trace.replay_unexplained_s", replay_unexplained, "s"},
        {"trace.spans", static_cast<double>(rec.spans().size()), "count"},
    };
    for (const SpanTotals& t : totals_by_name(rec)) {
      layers_extra.push_back({"self." + t.name + "_s", t.self_s, "s"});
    }
    if (!state_dir.empty()) {
      write_spans(state_dir + "/spans-" + w.name + ".csv", rec);
    }
  }
  // --- report ---------------------------------------------------------------
  const std::vector<Metric>& primary = trace ? layers : e2e;
  const std::vector<Metric>& extra = trace ? layers_extra : e2e_extra;
  for (const std::vector<Metric>* list : {&primary, &extra}) {
    for (const Metric& m : *list) {
      std::printf("%-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  minrej::JsonObject report = minrej::bench::bench_root("perfbench", w.scenario);
  report.field("workload", w.name)
      .field("seed", seed)
      .field("nproc", online_cpus())
      .field("trace", trace)
      .field("requests", inst.request_count())
      .field("shards", w.shards)
      .field("workers", svc.worker_count())
      .field("loop", w.open_loop ? "open" : "closed")
      .field("batch", w.batch)
      .field("offered_rate", w.offered_rate)
      .field("latency_limit_us", w.latency_limit_us)
      .field("checkpoint_every", w.checkpoint_every)
      .field("fault_tolerance", w.fault_tolerance)
      .field("unit_costs", bench.unit_costs())
      .field("bound_kind", bound.kind)
      .raw("gates", gates.json());
  std::vector<Metric> all = primary;
  all.insert(all.end(), extra.begin(), extra.end());
  report.raw("metrics", metrics_json(all));
  std::cout << "report " << report.dump() << '\n';

  std::cout << "{\"correct\": " << (gates.all_passed() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(primary) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
