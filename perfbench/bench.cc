// XPMemSim end-to-end benchmark: one workload per process, one host
// thread, two clocks (simulated time and host wall time).
//
//   perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//             [--toy] [--spans FILE] [--commit ID]
//
// Workloads (perfbench/README.md says why each exists):
//   kv_update     YCSB-A on lsmkv, 4 shards x 2 replicas, all §5 knobs,
//                 background donor thread
//   kv_read       YCSB-B on pmemkv stree, 4 shards x 1 replica, read path
//   kv_degraded   kv_update with shard 0 quarantined and 16 live XPLines
//                 poisoned at the end of load
//   device_panel  Optane idle latency (Fig 2) + five Fig 4 bandwidth cells
//
// The program is driven only through its public entry points:
// workload::load/run, the ShardedStore StoreIface/try_* surface and
// resilience(), lat::run/idle_latency, telemetry::Snapshot/Session.
//
// A run repeats the whole workload (fresh platform, create, preload,
// faults, measured phase) until --seconds of host time are used, and at
// least twice. Simulated results must repeat bit for bit across the
// repetitions; host times are medians over them. With --trace 1 the run
// alternates untraced and traced repetitions: a traced one wraps the
// store in a span recorder and attaches a telemetry::Session, must
// reproduce the untraced simulated results exactly, and yields the
// per-layer metrics and the span file.
//
// The last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A failed correctness gate prints correct=false with no
// metrics and exits 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "lattester/kernels.h"
#include "lattester/runner.h"
#include "sim/histogram.h"
#include "telemetry/registry.h"
#include "telemetry/session.h"
#include "workload/engine.h"
#include "workload/shard.h"
#include "xpsim/fault.h"
#include "xpsim/platform.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace xp;
using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }
double dbl(std::uint64_t v) { return static_cast<double>(v); }

// Simulated latencies are discrete: fixed-cost paths (a DRAM read-cache
// hit, a buffered put) put many ops at exactly the same picosecond
// value, so a plain order statistic sits on such an atom for every
// seed. Quantiles therefore use the mid-distribution quantile for
// discrete data (Parzen; Ma, Genton & Parzen 2011): linear
// interpolation between distinct values placed at their mid-CDF
// points. On all-distinct samples this is the Hazen sample quantile.
struct Atom {
  double value;
  std::uint64_t count;
};

double mid_quantile(const std::vector<Atom>& atoms, double q) {
  std::uint64_t n = 0;
  for (const Atom& a : atoms) n += a.count;
  double below = 0, prev_mid = -1, prev_v = 0;
  for (const Atom& a : atoms) {
    const double mid = (below + 0.5 * dbl(a.count)) / dbl(n);
    if (q <= mid)
      return prev_mid < 0 ? a.value
                          : prev_v + (q - prev_mid) / (mid - prev_mid) *
                                         (a.value - prev_v);
    below += dbl(a.count);
    prev_mid = mid;
    prev_v = a.value;
  }
  return prev_v;
}

std::vector<Atom> atoms_of(const std::vector<sim::Time>& sorted) {
  std::vector<Atom> out;
  for (sim::Time t : sorted)
    if (!out.empty() && out.back().value == dbl(t))
      ++out.back().count;
    else
      out.push_back({dbl(t), 1});
  return out;
}

// A sim::Histogram's buckets (value = bucket upper edge), recovered
// through its public percentile(): device_panel only has lattester's
// histogram, not per-access samples.
std::vector<Atom> atoms_of(const sim::Histogram& h) {
  const std::uint64_t n = h.count();
  auto at_rank = [&](std::uint64_t r) {  // 1-based rank
    return h.percentile((dbl(r) - 0.5) / dbl(n));
  };
  std::vector<Atom> out;
  for (std::uint64_t r = 1; r <= n;) {
    const sim::Time edge = at_rank(r);
    std::uint64_t lo = r, hi = n;  // last rank inside this bucket
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo + 1) / 2;
      if (at_rank(mid) <= edge) lo = mid; else hi = mid - 1;
    }
    out.push_back({dbl(edge), lo - r + 1});
    r = lo + 1;
  }
  return out;
}

// ---- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

void put(Metrics& m, std::string name, double value, const char* unit) {
  m.push_back({std::move(name), value, unit});
}

// ---- the span recorder -----------------------------------------------------

struct Span {
  const char* method = "";
  unsigned thread = 0;
  std::uint64_t seq = 0;
  sim::Time sim_start = 0, sim_end = 0;
  std::int64_t host_start_ns = 0, host_end_ns = 0;
};

// Pass-through StoreIface over the sharded frontend. Always (no host
// clock reads): records each request's simulated latency — requests are
// the engine's ops, one store call per op for the YCSB mixes used here,
// checked against the engine's own histogram — and the simulated time
// at which the frontend last became all_healthy(). With spans on (traced
// repetitions) it also records one Span per call: method, op id =
// (thread, per-thread seq), simulated and host start/end.
class SpanStore final : public workload::StoreIface {
 public:
  SpanStore(workload::ShardedStore& inner, bool spans, Clock::time_point t0)
      : inner_(inner), spans_on_(spans), t0_(t0),
        healthy_(inner.all_healthy()) {}

  const std::vector<sim::Time>& request_latencies() const { return lat_; }
  std::vector<Span>& spans() { return spans_; }
  bool healthy() const { return healthy_; }
  sim::Time healthy_at() const { return healthy_at_; }

  const char* name() const override { return inner_.name(); }
  workload::StoreKind kind() const override { return inner_.kind(); }
  void create(sim::ThreadCtx& ctx) override { inner_.create(ctx); }
  bool open(sim::ThreadCtx& ctx) override { return inner_.open(ctx); }
  void put(sim::ThreadCtx& ctx, std::string_view k,
           std::string_view v) override {
    call("put", false, ctx, [&] { inner_.put(ctx, k, v); });
  }
  bool get(sim::ThreadCtx& ctx, std::string_view k, std::string* v) override {
    return call("get", false, ctx, [&] { return inner_.get(ctx, k, v); });
  }
  bool del(sim::ThreadCtx& ctx, std::string_view k) override {
    return call("del", false, ctx, [&] { return inner_.del(ctx, k); });
  }
  bool del_reports_found() const override {
    return inner_.del_reports_found();
  }
  bool supports_scan() const override { return inner_.supports_scan(); }
  std::vector<std::pair<std::string, std::string>> scan(
      sim::ThreadCtx& ctx, std::string_view start, std::size_t n) override {
    return call("scan", false, ctx,
                [&] { return inner_.scan(ctx, start, n); });
  }
  void apply_batch(sim::ThreadCtx& ctx,
                   std::span<const workload::BatchOp> ops) override {
    call("apply_batch", false, ctx, [&] { inner_.apply_batch(ctx, ops); });
  }
  void flush_pending(sim::ThreadCtx& ctx) override {
    call("flush_pending", false, ctx, [&] { inner_.flush_pending(ctx); });
  }
  bool background_turn(sim::ThreadCtx& ctx) override {
    return call("background_turn", false, ctx,
                [&] { return inner_.background_turn(ctx); });
  }
  Status check(sim::ThreadCtx& ctx) override { return inner_.check(ctx); }
  workload::OpResult try_put(sim::ThreadCtx& ctx, std::string_view k,
                             std::string_view v) override {
    return call("try_put", true, ctx,
                [&] { return inner_.try_put(ctx, k, v); });
  }
  workload::OpResult try_get(sim::ThreadCtx& ctx, std::string_view k,
                             std::string* v) override {
    return call("try_get", true, ctx,
                [&] { return inner_.try_get(ctx, k, v); });
  }
  workload::OpResult try_del(sim::ThreadCtx& ctx, std::string_view k,
                             bool* found) override {
    return call("try_del", true, ctx,
                [&] { return inner_.try_del(ctx, k, found); });
  }
  workload::OpResult try_scan(
      sim::ThreadCtx& ctx, std::string_view start, std::size_t n,
      std::vector<std::pair<std::string, std::string>>* out) override {
    return call("try_scan", true, ctx,
                [&] { return inner_.try_scan(ctx, start, n, out); });
  }
  workload::OpResult try_apply_batch(
      sim::ThreadCtx& ctx, std::span<const workload::BatchOp> ops) override {
    return call("try_apply_batch", true, ctx,
                [&] { return inner_.try_apply_batch(ctx, ops); });
  }
  hw::Platform* platform_of() const override { return inner_.platform_of(); }
  Status repair_media(sim::ThreadCtx& ctx) override {
    return inner_.repair_media(ctx);
  }

 private:
  std::int64_t host_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0_)
        .count();
  }

  template <typename F>
  auto call(const char* method, bool request, sim::ThreadCtx& ctx, F&& f)
      -> decltype(f()) {
    Span s;
    s.method = method;
    s.sim_start = ctx.now();
    if (spans_on_) s.host_start_ns = host_ns();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      finish(request, ctx, s);
    } else {
      auto r = f();
      finish(request, ctx, s);
      return r;
    }
  }

  void finish(bool request, sim::ThreadCtx& ctx, Span& s) {
    s.sim_end = ctx.now();
    if (request) lat_.push_back(s.sim_end - s.sim_start);
    // Health transitions happen inside calls (rebuild steps on donated
    // turns and on retries); the last one to healthy is the recovery.
    const bool h = inner_.all_healthy();
    if (h && !healthy_) healthy_at_ = s.sim_end;
    healthy_ = h;
    if (!spans_on_) return;
    s.host_end_ns = host_ns();
    s.thread = ctx.id();
    if (seq_.size() <= s.thread) seq_.resize(s.thread + 1, 0);
    s.seq = seq_[s.thread]++;
    spans_.push_back(s);
  }

  workload::ShardedStore& inner_;
  const bool spans_on_;
  const Clock::time_point t0_;
  std::vector<sim::Time> lat_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> seq_;
  bool healthy_ = true;
  sim::Time healthy_at_ = 0;
};

// ---- one repetition's results ----------------------------------------------

// Everything simulated: must repeat bit for bit across repetitions and
// between traced and untraced runs.
struct SimResult {
  std::uint64_t ops = 0;
  std::uint64_t checksum = 0;
  std::uint64_t failed = 0;  // typed errors other than kNotFound + corruptions
  sim::Time ack_end = 0, drain_end = 0;  // measured phase starts at 0
  double p50 = 0, p99 = 0, p999 = 0;     // ps, mid_quantile
  sim::Time healthy_at = 0;              // kv_degraded: fault -> healthy
  std::uint64_t bg_turns = 0;
  std::vector<double> cell_values;       // device_panel: the 9 cells

  bool operator==(const SimResult&) const = default;
};

struct Rep {
  SimResult sim;
  double setup_s = 0;
  double measured_s = 0;  // host seconds of the measured phase
  std::vector<std::string> gate_failures;
  Metrics layer;          // per-layer metrics (traced repetitions only)
  std::vector<Span> spans;
};

void gate(Rep& r, bool ok, const std::string& what) {
  if (!ok) r.gate_failures.push_back(what);
}

// ---- per-layer helpers ----------------------------------------------------

// Session-derived counts summed over one or more sessions.
struct SessionCounts {
  std::uint64_t fence = 0, wpq_entry = 0, nt_drain = 0;
  double wpq_sum = 0;
  std::uint64_t wpq_samples = 0;

  // `dimms`: flattened socket*channels indices whose WPQ is averaged.
  void add(const telemetry::Session& tel, const std::vector<unsigned>& dimms) {
    fence += tel.persist_count(hw::PersistEventKind::kSfence);
    wpq_entry += tel.persist_count(hw::PersistEventKind::kWpqEntry);
    nt_drain += tel.persist_count(hw::PersistEventKind::kNtStoreDrain);
    for (const auto& s : tel.sampler().samples())
      for (unsigned d : dimms)
        if (d < s.dimms.size()) {
          wpq_sum += s.dimms[d].wpq_occupancy;
          ++wpq_samples;
        }
  }
};

void xpsim_layer(Metrics& m, const hw::XpCounters& x,
                 const hw::CacheCounters& c, const SessionCounts& sc,
                 std::uint64_t ops, double host_s) {
  put(m, "xpsim.ewr", std::isfinite(x.ewr()) ? x.ewr() : 0, "ratio");
  put(m, "xpsim.imc_write_bytes", dbl(x.imc_write_bytes), "B");
  put(m, "xpsim.err", std::isfinite(x.err()) ? x.err() : 0, "ratio");
  put(m, "xpsim.imc_read_bytes", dbl(x.imc_read_bytes), "B");
  put(m, "xpsim.media_read_bytes_per_op",
      ratio(dbl(x.media_read_bytes), dbl(ops)), "B/op");
  put(m, "xpsim.media_write_bytes_per_op",
      ratio(dbl(x.media_write_bytes), dbl(ops)), "B/op");
  const double breads = dbl(x.buffer_hit_reads + x.buffer_miss_reads);
  put(m, "xpsim.buffer_hit_ratio", ratio(dbl(x.buffer_hit_reads), breads),
      "ratio");
  put(m, "xpsim.buffer_reads", breads, "count");
  const double loads = dbl(c.load_hits + c.load_misses);
  put(m, "xpsim.llc_load_miss_ratio", ratio(dbl(c.load_misses), loads),
      "ratio");
  put(m, "xpsim.llc_loads", loads, "count");
  put(m, "xpsim.evictions_partial", dbl(x.evictions_partial), "count");
  put(m, "xpsim.ait_misses", dbl(x.ait_misses), "count");
  put(m, "xpsim.persist.fence", dbl(sc.fence), "count");
  put(m, "xpsim.persist.wpq_entry", dbl(sc.wpq_entry), "count");
  put(m, "xpsim.persist.ntstore_drain", dbl(sc.nt_drain), "count");
  put(m, "xpsim.wpq_occupancy_mean", ratio(sc.wpq_sum, dbl(sc.wpq_samples)),
      "entries");
  // Simulated accesses: every line lookup in the modelled CPU cache plus
  // every ntstore line (ntstores bypass the cache).
  const double accesses =
      loads + dbl(c.store_hits + c.store_misses + sc.nt_drain);
  put(m, "xpsim.accesses", accesses, "count");
  put(m, "xpsim.host_ns_per_access", ratio(host_s * 1e9, accesses), "ns");
}

// ---- KV workloads ----------------------------------------------------------

struct KvConfig {
  workload::StoreKind kind = workload::StoreKind::kLsmkv;
  char ycsb = 'A';
  unsigned replicas = 1;
  // Write combining + deferred compaction, with the engine's background
  // donor thread to run the compaction.
  bool write_knobs = false;
  bool faults = false;
  std::uint64_t records = 0, ops = 0;
};

constexpr unsigned kShards = 4;
constexpr unsigned kClients = 4;
constexpr std::uint64_t kShardBytes = 64ull << 20;

// The read benches' regime (bench_ycsb): LLC below the working set so
// repeat reads reach the DIMMs.
hw::Timing small_llc_timing() {
  hw::Timing tm;
  tm.llc_lines = 512;  // 32 KB
  return tm;
}

// Poison up to `max_lines` live (nonzero) XPLines, every `stride`-th one
// (the bench_ycsb --faults recipe).
unsigned poison_live_lines(hw::PmemNamespace& ns, unsigned max_lines,
                           unsigned stride) {
  std::vector<std::uint8_t> img(ns.size());
  ns.peek(0, img);
  hw::FaultInjector inj(ns.platform());
  unsigned planted = 0, seen = 0;
  for (std::uint64_t off = 0; off + hw::Platform::kXpLineBytes <= img.size();
       off += hw::Platform::kXpLineBytes) {
    const auto line =
        std::span(img).subspan(off, hw::Platform::kXpLineBytes);
    if (std::all_of(line.begin(), line.end(), [](auto b) { return b == 0; }))
      continue;
    if (seen++ % stride != 0) continue;
    inj.poison(ns, off);
    if (++planted >= max_lines) break;
  }
  return planted;
}

// kv_degraded: the rebuilt store 0 must byte-match the surviving copies
// it was re-silvered from. It hosts logical shard 0 (other copy on store
// 1) and logical shard kShards-1 (other copy on store kShards-1).
bool rebuilt_matches_replica(workload::ShardedStore& store,
                             sim::ThreadCtx& ctx) {
  std::size_t compared = 0;
  for (const auto& [k, v] :
       store.shard(0).scan(ctx, "", static_cast<std::size_t>(-1))) {
    const unsigned l = workload::shard_of(k, kShards);
    if (l != 0 && l != kShards - 1) return false;  // not a key it owns
    std::string other;
    if (!store.shard(l == 0 ? 1 : l).get(ctx, k, &other) || other != v)
      return false;
    ++compared;
  }
  return compared > 0;
}

Rep run_kv(const KvConfig& c, std::uint64_t seed, bool traced) {
  Rep r;
  const auto t_setup = Clock::now();
  hw::Platform platform(small_llc_timing(), seed);
  const auto shard_ns =
      workload::ShardedStore::make_namespaces(platform, kShards, kShardBytes);
  workload::ShardOptions so;
  so.kind = c.kind;
  so.tuning.memtable_bytes = 16 << 10;  // mixed traffic must reach SSTables
  so.tuning.read_path = true;
  so.tuning.read_cache_lines = 2048;
  so.tuning.write_combine = c.write_knobs;
  so.tuning.background_compaction = c.write_knobs;
  so.writer_lanes = true;
  so.replicas = c.replicas;
  workload::ShardedStore store(shard_ns, so);

  workload::Spec spec = workload::ycsb(c.ycsb);
  spec.records = c.records;
  spec.ops = c.ops;
  spec.seed = seed;

  sim::ThreadCtx setup({.id = 100, .socket = 0, .mlp = 8, .seed = seed});
  store.create(setup);
  workload::load(store, spec, setup);
  if (c.faults) {
    // One of four failure domains goes bad at the end of load: pulled
    // from service, with at-rest poison under live data that the online
    // rebuild must scrub and heal.
    store.quarantine_shard(setup, 0);
    gate(r, poison_live_lines(*shard_ns[0], 16, /*stride=*/4) == 16,
         "fewer than 16 live XPLines to poison");
  }
  platform.reset_timing();
  r.setup_s = secs_since(t_setup);

  std::optional<telemetry::Snapshot> s0;
  std::optional<telemetry::Session> tel;
  if (traced) {
    s0 = telemetry::Snapshot::capture(platform);
    tel.emplace(platform);
  }

  const auto t_run = Clock::now();
  SpanStore wrap(store, traced, t_run);
  workload::EngineOptions eo;
  eo.threads = kClients;
  eo.base_seed = seed;
  eo.background_thread = c.write_knobs;
  eo.validate_reads = true;
  const workload::Result res = workload::run(wrap, spec, eo);

  // Drain: donate background turns on a fresh thread from the last ack
  // until a full turn finds no work and every shard is healthy.
  sim::ThreadCtx drain(
      {.id = kClients + 2, .socket = 0, .mlp = 8, .seed = seed + 7});
  drain.advance_to(res.elapsed);
  std::uint64_t drain_turns = 0;
  bool drained = false;
  for (int i = 0; i < 1'000'000 && !drained; ++i) {
    if (wrap.background_turn(drain))
      ++drain_turns;
    else
      drained = store.all_healthy();
  }
  wrap.flush_pending(drain);
  drain.drain();
  r.measured_s = secs_since(t_run);
  std::optional<telemetry::Delta> d;  // the measured phase, before gates
  if (traced) {
    tel->finish();
    d = telemetry::Snapshot::capture(platform) - *s0;
  }

  SimResult& s = r.sim;
  s.ops = res.ops;
  s.checksum = res.checksum;
  s.failed = res.typed_errors + res.corruptions;
  s.ack_end = res.elapsed;
  s.drain_end = drain.now();
  s.bg_turns = res.background_turns + drain_turns;
  s.healthy_at = c.faults ? wrap.healthy_at() : 0;
  std::vector<sim::Time> lat = wrap.request_latencies();
  std::sort(lat.begin(), lat.end());
  const std::vector<Atom> atoms = atoms_of(lat);
  s.p50 = mid_quantile(atoms, 0.50);
  s.p99 = mid_quantile(atoms, 0.99);
  s.p999 = mid_quantile(atoms, 0.999);

  // ---- correctness gates ----
  gate(r, drained, "drain did not reach a healthy, idle store");
  gate(r, res.ops == spec.ops, "engine completed fewer ops than issued");
  gate(r, res.corruptions == 0, "read oracle saw silent corruptions");
  gate(r, lat.size() == res.ops, "request count != engine op count");
  sim::Histogram h;
  for (sim::Time t : lat) h.record(t);
  gate(r, h.percentile(0.5) == res.p50 && h.percentile(0.99) == res.p99,
       "request latencies disagree with the engine histogram");
  gate(r, store.check(drain).ok(), "check() failed after the drain");
  const workload::ResilienceStats& rs = store.resilience();
  if (c.faults) {
    gate(r, rs.keys_lost == 0, "degraded run lost acknowledged keys");
    gate(r, res.failovers > 0 && rs.keys_resilvered > 0,
         "degraded run never exercised failover and rebuild");
    gate(r, wrap.healthy() && s.healthy_at > 0,
         "no recovery to all_healthy() observed");
    gate(r, rebuilt_matches_replica(store, drain),
         "rebuilt shard differs from its surviving replica");
  }
  if (!traced) return r;

  // ---- per-layer metrics (traced repetition) ----
  r.spans = std::move(wrap.spans());
  struct Agg {
    std::uint64_t calls = 0;
    std::vector<sim::Time> sim;
    double host_s = 0;
  };
  std::map<std::string, Agg> agg;  // get / put / bg
  double wrapped_host_s = 0;
  for (const Span& sp : r.spans) {
    const double hs =
        static_cast<double>(sp.host_end_ns - sp.host_start_ns) / 1e9;
    wrapped_host_s += hs;
    const std::string_view m = sp.method;
    const char* group = m == "try_get"                              ? "get"
                        : m == "try_put" || m == "try_apply_batch" ? "put"
                        : m == "background_turn"                    ? "bg"
                                                                    : nullptr;
    if (group == nullptr) continue;
    Agg& a = agg[group];
    ++a.calls;
    a.sim.push_back(sp.sim_end - sp.sim_start);
    a.host_s += hs;
  }
  Metrics& m = r.layer;
  put(m, "engine.ops", dbl(s.ops), "count");
  put(m, "engine.host_self_s", r.measured_s - wrapped_host_s, "s");
  put(m, "engine.bg_turns", dbl(s.bg_turns), "count");
  put(m, "engine.drain_sim_us", sim::to_us(s.drain_end - s.ack_end), "us");
  for (const char* g : {"get", "put"}) {
    Agg& a = agg[g];
    std::sort(a.sim.begin(), a.sim.end());
    const std::string p = std::string("shard.") + g;
    put(m, p + ".calls", dbl(a.calls), "count");
    const std::vector<Atom> atoms = atoms_of(a.sim);
    put(m, p + ".sim_ns_p50", mid_quantile(atoms, 0.5) / 1e3, "ns");
    put(m, p + ".sim_ns_p99", mid_quantile(atoms, 0.99) / 1e3, "ns");
    put(m, p + ".host_us", ratio(a.host_s * 1e6, dbl(a.calls)), "us");
  }
  const Agg& bg = agg["bg"];
  double bg_busy = 0;
  for (sim::Time t : bg.sim) bg_busy += static_cast<double>(t);
  put(m, "shard.bg.calls", dbl(bg.calls), "count");
  put(m, "shard.bg.sim_busy_us", bg_busy / 1e6, "us");
  put(m, "shard.bg.host_s", bg.host_s, "s");
  // Per-shard DIMM write skew: shard i lives alone on channel i.
  const unsigned channels = platform.timing().channels_per_socket;
  double wmax = 0, wsum = 0;
  std::vector<unsigned> dimms;
  for (unsigned i = 0; i < kShards; ++i) {
    const double w = dbl(d->xp[0][i % channels].counters.imc_write_bytes);
    wmax = std::max(wmax, w);
    wsum += w;
    dimms.push_back(i % channels);
  }
  put(m, "shard.write_skew", ratio(wmax, wsum / kShards), "ratio");
  put(m, "shard.dimm_write_bytes_mean", wsum / kShards, "B");
  put(m, "shard.failover_reads", dbl(rs.failover_reads), "count");
  put(m, "shard.retries", dbl(rs.retries), "count");
  put(m, "shard.unavailable", dbl(rs.unavailable), "count");
  put(m, "shard.keys_resilvered", dbl(rs.keys_resilvered), "count");
  put(m, "shard.lines_healed", dbl(rs.lines_healed), "count");
  put(m, "shard.keys_lost", dbl(rs.keys_lost), "count");
  put(m, "shard.time_to_healthy_us", sim::to_us(s.healthy_at), "us");

  using RP = hw::ReadPathEventKind;
  const double hits = dbl(tel->read_path_count(RP::kCacheHitLine));
  const double fills = dbl(tel->read_path_count(RP::kCacheFillLine));
  put(m, "pmemlib.readcache.hit_ratio", ratio(hits, hits + fills), "ratio");
  put(m, "pmemlib.readcache.lookups", hits + fills, "count");
  put(m, "pmemlib.readcache.invalidations",
      dbl(tel->read_path_count(RP::kCacheInvalidate)), "count");
  const double staged = dbl(tel->read_path_count(RP::kStagedServe));
  const double fetched = dbl(tel->read_path_count(RP::kCombinedFetch));
  put(m, "pmemlib.linereader.staged_ratio", ratio(staged, staged + fetched),
      "ratio");
  put(m, "pmemlib.linereader.serves", staged + fetched, "count");

  SessionCounts sc;
  sc.add(*tel, dimms);
  xpsim_layer(m, d->xp_total(), d->cache_total(), sc, s.ops, r.measured_s);
  return r;
}

// ---- device panel ----------------------------------------------------------

struct Cell {
  const char* name;
  const char* unit;
  double paper;  // EXPERIMENTS.md reference (range midpoint where given)
};
// Fig 2 Optane idle latency (ns), then the five Fig 4 cells (GB/s).
constexpr Cell kCells[] = {
    {"fig2_read_seq", "ns", 169},     {"fig2_read_rand", "ns", 305},
    {"fig2_write_nt", "ns", 90},      {"fig2_write_clwb", "ns", 62},
    {"fig4_ni_read_t4", "GB/s", 6.6}, {"fig4_ni_nt_t4", "GB/s", 2.3},
    {"fig4_il_read_t16", "GB/s", 39}, {"fig4_il_nt_t8", "GB/s", 13},
    {"fig4_il_clwb_t12", "GB/s", 10},
};
constexpr std::size_t kNumCells = std::size(kCells);
constexpr std::size_t kFig2Cells = 4;

struct BwCell {
  bool interleaved;
  lat::Op op;
  unsigned threads;
};
constexpr BwCell kBwCells[] = {
    {false, lat::Op::kLoad, 4},  {false, lat::Op::kNtStore, 4},
    {true, lat::Op::kLoad, 16},  {true, lat::Op::kNtStore, 8},
    {true, lat::Op::kStoreClwb, 12},
};
static_assert(kFig2Cells + std::size(kBwCells) == kNumCells);

double model_err_pct(const std::vector<double>& values) {
  double sum = 0;
  for (std::size_t i = 0; i < kNumCells; ++i)
    sum += std::fabs(values[i] / kCells[i].paper - 1);
  return 100 * sum / kNumCells;
}

// Per-cell interval collected by a traced repetition.
struct PanelTrace {
  hw::XpCounters xp;
  hw::CacheCounters cache;
  SessionCounts counts;
  std::optional<telemetry::Snapshot> before;
  std::optional<telemetry::Session> tel;

  void begin(hw::Platform& p) {
    before = telemetry::Snapshot::capture(p);
    tel.emplace(p);
  }
  void end(hw::Platform& p) {
    tel->finish();
    const telemetry::Delta d = telemetry::Snapshot::capture(p) - *before;
    xp += d.xp_total();
    cache += d.cache_total();
    std::vector<unsigned> all(d.sockets() * d.channels());
    for (unsigned i = 0; i < all.size(); ++i) all[i] = i;
    counts.add(*tel, all);
    tel.reset();
  }
};

Rep run_device(std::uint64_t seed, sim::Time duration, bool traced) {
  Rep r;
  SimResult& s = r.sim;
  s.cell_values.assign(kNumCells, 0);
  std::vector<double> host_s(kNumCells, 0);
  sim::Histogram hist;
  PanelTrace pt;
  const auto t_all = Clock::now();

  // One span per lattester call; sim times are the measurement window
  // (0 for idle_latency, whose windows are internal to the kernel).
  auto span = [&](const char* name, sim::Time sim_start, sim::Time sim_end,
                  Clock::time_point h0) {
    if (!traced) return;
    Span sp;
    sp.method = name;
    sp.seq = r.spans.size();
    sp.sim_start = sim_start;
    sp.sim_end = sim_end;
    sp.host_start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           h0 - t_all).count();
    sp.host_end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - t_all).count();
    r.spans.push_back(sp);
  };

  double fig2_host = 0;
  {  // Fig 2: Optane idle latency on its own fresh platform.
    const auto t0 = Clock::now();
    hw::Platform platform({}, seed);
    auto& ns = platform.optane(512 << 20);
    r.setup_s += secs_since(t0);
    if (traced) pt.begin(platform);
    const auto t1 = Clock::now();
    const lat::IdleLatency il = lat::idle_latency(platform, ns);
    fig2_host = secs_since(t1);
    span("idle_latency", 0, 0, t1);
    if (traced) pt.end(platform);
    s.cell_values[0] = il.read_seq_ns;
    s.cell_values[1] = il.read_rand_ns;
    s.cell_values[2] = il.write_nt_ns;
    s.cell_values[3] = il.write_clwb_ns;
  }

  double bw_host = 0;
  for (std::size_t i = 0; i < std::size(kBwCells); ++i) {
    const BwCell& bc = kBwCells[i];
    const std::size_t cell = kFig2Cells + i;
    const auto t0 = Clock::now();
    hw::Platform platform({}, seed);
    hw::NamespaceOptions o;
    o.device = hw::Device::kXp;
    o.interleaved = bc.interleaved;
    o.size = 8ull << 30;
    o.discard_data = true;
    auto& ns = platform.add_namespace(o);
    r.setup_s += secs_since(t0);

    lat::WorkloadSpec spec;
    spec.op = bc.op;
    spec.pattern = lat::Pattern::kSeq;
    spec.access_size = 256;
    spec.threads = bc.threads;
    spec.region_size = o.size;
    // Sequential cells consume no randomness, so the seed instead places
    // the measurement window: it opens anywhere in [50, 60) us, once the
    // streams are in steady state, as a real run's window would.
    const std::uint64_t jitter_ns =
        workload::mix64(seed * kNumCells + cell) % 10'000;
    spec.warmup = sim::us(50) + sim::ns(dbl(jitter_ns));
    spec.duration = duration;
    spec.seed = seed;
    if (traced) pt.begin(platform);
    const auto t1 = Clock::now();
    const lat::Result lr = lat::run(platform, ns, spec);
    host_s[cell] = secs_since(t1);
    span(kCells[cell].name, spec.warmup, spec.warmup + spec.duration, t1);
    if (traced) pt.end(platform);
    bw_host += host_s[cell];
    s.cell_values[cell] = lr.bandwidth_gbps;
    s.ops += lr.ops;
    s.drain_end += lr.window;
    hist.merge(lr.latency);
    gate(r, lr.ops > 0 && std::isfinite(lr.bandwidth_gbps),
         std::string(kCells[cell].name) + " measured no accesses");
  }
  for (std::size_t i = 0; i < kFig2Cells; ++i)
    gate(r, std::isfinite(s.cell_values[i]) && s.cell_values[i] > 0,
         std::string(kCells[i].name) + " is not a finite latency");
  r.measured_s = bw_host;

  // Lattester acknowledges at the ADR domain and defers nothing past its
  // window: the ack clock and the drain clock coincide.
  s.ack_end = s.drain_end;
  const std::vector<Atom> atoms = atoms_of(hist);
  s.p50 = mid_quantile(atoms, 0.50);
  s.p99 = mid_quantile(atoms, 0.99);
  s.p999 = mid_quantile(atoms, 0.999);
  for (double v : s.cell_values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    s.checksum = workload::mix64(s.checksum ^ bits);
  }
  if (!traced) return r;

  Metrics& m = r.layer;
  put(m, "engine.ops", dbl(s.ops), "count");
  for (std::size_t i = 0; i < kNumCells; ++i) {
    const std::string p = std::string("lattester.") + kCells[i].name;
    put(m, p + ".value", s.cell_values[i], kCells[i].unit);
    put(m, p + ".paper_ratio", s.cell_values[i] / kCells[i].paper, "ratio");
    if (i >= kFig2Cells) put(m, p + ".host_s", host_s[i], "s");
  }
  put(m, "lattester.fig2.host_s", fig2_host, "s");
  put(m, "lattester.model_err_pct", model_err_pct(s.cell_values), "%");
  xpsim_layer(m, pt.xp, pt.cache, pt.counts, s.ops, bw_host + fig2_host);
  return r;
}

// ---- the per-layer metric set ---------------------------------------------

// Every traced run prints exactly this set (BENCHMARK.json's per_layer,
// checked by run.py); a metric that does not apply to a workload — the
// store layers on device_panel, lattester cells on the KV workloads —
// reads 0 there.
struct LayerDef {
  const char* name;
  const char* unit;
};
constexpr LayerDef kLayerDefs[] = {
    {"engine.ops", "count"},
    {"engine.host_kops", "kops/s"},
    {"engine.host_self_s", "s"},
    {"engine.bg_turns", "count"},
    {"engine.drain_sim_us", "us"},
    {"shard.get.calls", "count"},
    {"shard.get.sim_ns_p50", "ns"},
    {"shard.get.sim_ns_p99", "ns"},
    {"shard.get.host_us", "us"},
    {"shard.put.calls", "count"},
    {"shard.put.sim_ns_p50", "ns"},
    {"shard.put.sim_ns_p99", "ns"},
    {"shard.put.host_us", "us"},
    {"shard.bg.calls", "count"},
    {"shard.bg.sim_busy_us", "us"},
    {"shard.bg.host_s", "s"},
    {"shard.write_skew", "ratio"},
    {"shard.dimm_write_bytes_mean", "B"},
    {"shard.failover_reads", "count"},
    {"shard.retries", "count"},
    {"shard.unavailable", "count"},
    {"shard.keys_resilvered", "count"},
    {"shard.lines_healed", "count"},
    {"shard.keys_lost", "count"},
    {"shard.time_to_healthy_us", "us"},
    {"pmemlib.readcache.hit_ratio", "ratio"},
    {"pmemlib.readcache.lookups", "count"},
    {"pmemlib.readcache.invalidations", "count"},
    {"pmemlib.linereader.staged_ratio", "ratio"},
    {"pmemlib.linereader.serves", "count"},
    {"xpsim.ewr", "ratio"},
    {"xpsim.imc_write_bytes", "B"},
    {"xpsim.err", "ratio"},
    {"xpsim.imc_read_bytes", "B"},
    {"xpsim.media_read_bytes_per_op", "B/op"},
    {"xpsim.media_write_bytes_per_op", "B/op"},
    {"xpsim.buffer_hit_ratio", "ratio"},
    {"xpsim.buffer_reads", "count"},
    {"xpsim.llc_load_miss_ratio", "ratio"},
    {"xpsim.llc_loads", "count"},
    {"xpsim.evictions_partial", "count"},
    {"xpsim.ait_misses", "count"},
    {"xpsim.persist.fence", "count"},
    {"xpsim.persist.wpq_entry", "count"},
    {"xpsim.persist.ntstore_drain", "count"},
    {"xpsim.wpq_occupancy_mean", "entries"},
    {"xpsim.accesses", "count"},
    {"xpsim.host_ns_per_access", "ns"},
    {"lattester.fig2_read_seq.value", "ns"},
    {"lattester.fig2_read_seq.paper_ratio", "ratio"},
    {"lattester.fig2_read_rand.value", "ns"},
    {"lattester.fig2_read_rand.paper_ratio", "ratio"},
    {"lattester.fig2_write_nt.value", "ns"},
    {"lattester.fig2_write_nt.paper_ratio", "ratio"},
    {"lattester.fig2_write_clwb.value", "ns"},
    {"lattester.fig2_write_clwb.paper_ratio", "ratio"},
    {"lattester.fig2.host_s", "s"},
    {"lattester.fig4_ni_read_t4.value", "GB/s"},
    {"lattester.fig4_ni_read_t4.paper_ratio", "ratio"},
    {"lattester.fig4_ni_read_t4.host_s", "s"},
    {"lattester.fig4_ni_nt_t4.value", "GB/s"},
    {"lattester.fig4_ni_nt_t4.paper_ratio", "ratio"},
    {"lattester.fig4_ni_nt_t4.host_s", "s"},
    {"lattester.fig4_il_read_t16.value", "GB/s"},
    {"lattester.fig4_il_read_t16.paper_ratio", "ratio"},
    {"lattester.fig4_il_read_t16.host_s", "s"},
    {"lattester.fig4_il_nt_t8.value", "GB/s"},
    {"lattester.fig4_il_nt_t8.paper_ratio", "ratio"},
    {"lattester.fig4_il_nt_t8.host_s", "s"},
    {"lattester.fig4_il_clwb_t12.value", "GB/s"},
    {"lattester.fig4_il_clwb_t12.paper_ratio", "ratio"},
    {"lattester.fig4_il_clwb_t12.host_s", "s"},
    {"lattester.model_err_pct", "%"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
};

// ---- workloads, sizes, main -----------------------------------------------

struct Sizes {
  std::uint64_t update_records, update_ops;
  std::uint64_t read_records, read_ops;
  sim::Time panel_window;
};
constexpr Sizes kFull = {20'000, 100'000, 50'000, 200'000, sim::ms(1)};
// Toy size for the smoke test: still >= 10 samples beyond p999.
constexpr Sizes kToy = {2'000, 12'000, 2'000, 12'000, sim::us(100)};

std::optional<KvConfig> kv_config(const std::string& w, const Sizes& z) {
  KvConfig c;
  if (w == "kv_update" || w == "kv_degraded") {
    c.kind = workload::StoreKind::kLsmkv;
    c.ycsb = 'A';
    c.replicas = 2;
    c.write_knobs = true;
    c.faults = w == "kv_degraded";
    c.records = z.update_records;
    c.ops = z.update_ops;
    return c;
  }
  if (w == "kv_read") {
    c.kind = workload::StoreKind::kStree;
    c.ycsb = 'B';
    c.replicas = 1;
    c.records = z.read_records;
    c.ops = z.read_ops;
    return c;
  }
  return std::nullopt;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;
  std::string spans_path;
  std::string commit = "unknown";
};

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--toy") {
      a.toy = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed" && parse_u64(v, &n)) {
      a.seed = n;
    } else if (k == "--seconds" && parse_u64(v, &n) && n > 0) {
      a.seconds = static_cast<double>(n);
    } else if (k == "--trace" && parse_u64(v, &n) && n <= 1) {
      a.trace = n == 1;
    } else if (k == "--spans") {
      a.spans_path = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      return std::nullopt;
    }
  }
  return a;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) o += ch;
  }
  return o;
}

bool write_spans(const std::string& path, const std::string& header,
                 const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# %s\n", header.c_str());
  std::fprintf(f,
               "method\tthread\tseq\tsim_start_ps\tsim_end_ps\t"
               "host_start_ns\thost_end_ns\n");
  for (const Span& s : spans)
    std::fprintf(f, "%s\t%u\t%llu\t%llu\t%llu\t%lld\t%lld\n", s.method,
                 s.thread, static_cast<unsigned long long>(s.seq),
                 static_cast<unsigned long long>(s.sim_start),
                 static_cast<unsigned long long>(s.sim_end),
                 static_cast<long long>(s.host_start_ns),
                 static_cast<long long>(s.host_end_ns));
  return std::fclose(f) == 0;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W [--seed N] [--seconds S] "
                 "[--trace 0|1] [--toy] [--spans FILE] [--commit ID]\n");
    return 2;
  }
  const Args& a = *parsed;
  const Sizes& z = a.toy ? kToy : kFull;
  const std::optional<KvConfig> kv = kv_config(a.workload, z);
  if (!kv && a.workload != "device_panel") {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  char prov[512];
  std::snprintf(prov, sizeof prov,
                "{\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %ld, "
                "\"build_type\": \"%s\", \"commit\": \"%s\", \"toy\": %s}",
                json_escape(a.workload).c_str(),
                static_cast<unsigned long long>(a.seed),
                sysconf(_SC_NPROCESSORS_ONLN), build_type.c_str(),
                json_escape(a.commit).c_str(), a.toy ? "true" : "false");
  std::printf("# provenance %s\n", prov);
  if (build_type != "Release") {
    std::printf("# WARNING: %s build, not Release: host-time metrics are "
                "not comparable\n", build_type.c_str());
    std::fprintf(stderr, "WARNING: perfbench built as %s, not Release\n",
                 build_type.c_str());
  }
  std::fflush(stdout);

  auto rep = [&](bool traced) {
    return kv ? run_kv(*kv, a.seed, traced)
              : run_device(a.seed, z.panel_window, traced);
  };

  // Repeat until the time budget is spent: at least two repetitions
  // (--trace 1: at least one untraced and one traced), and no new one
  // that the last one's duration says would overrun the budget.
  std::vector<Rep> plain, traced;
  const auto t_start = Clock::now();
  double last = 0;
  for (std::size_t i = 0;; ++i) {
    const bool want_traced = a.trace && i % 2 == 1;
    const double elapsed = secs_since(t_start);
    const bool minimum = a.trace ? !plain.empty() && !traced.empty()
                                 : plain.size() >= 2;
    if (minimum && (elapsed + last > a.seconds || i >= 64)) break;
    const auto t0 = Clock::now();
    Rep& r = (want_traced ? traced : plain).emplace_back(rep(want_traced));
    last = secs_since(t0);
    std::printf("# repetition %zu%s: setup %.4f s, measured %.4f s\n", i,
                want_traced ? " (traced)" : "", r.setup_s, r.measured_s);
  }

  // ---- gates over all repetitions ----
  std::vector<std::string> failures;
  for (const auto* reps : {&plain, &traced})
    for (const Rep& r : *reps)
      for (const std::string& g : r.gate_failures)
        if (std::find(failures.begin(), failures.end(), g) == failures.end())
          failures.push_back(g);
  const SimResult& s = plain.front().sim;
  auto differs = [&](const Rep& r) { return !(r.sim == s); };
  if (std::any_of(plain.begin(), plain.end(), differs))
    failures.push_back("simulated results differ between repetitions");
  if (std::any_of(traced.begin(), traced.end(), differs))
    failures.push_back("traced run differs from the untraced run");
  if (s.ops - (s.ops * 999 + 999) / 1000 < 10)
    failures.push_back("fewer than 10 samples beyond p999");

  std::vector<double> setup, measured;
  for (const Rep& r : plain) {
    setup.push_back(r.setup_s);
    measured.push_back(r.measured_s);
  }
  const double host_s = median(measured);

  // ---- end-to-end metrics (untraced repetitions) ----
  const double drain_s = sim::to_s(s.drain_end), ack_s = sim::to_s(s.ack_end);
  Metrics e2e;
  put(e2e, "sim_kops", ratio(dbl(s.ops), drain_s) / 1e3, "kops/s");
  put(e2e, "sim_ack_kops", ratio(dbl(s.ops), ack_s) / 1e3, "kops/s");
  put(e2e, "sim_p50_ns", s.p50 / 1e3, "ns");
  put(e2e, "sim_p99_ns", s.p99 / 1e3, "ns");
  put(e2e, "sim_p999_ns", s.p999 / 1e3, "ns");
  put(e2e, "setup_s", median(setup), "s");
  put(e2e, "peak_rss_mb", peak_rss_mib(), "MiB");

  std::printf("# workload %s: %zu untraced + %zu traced repetitions in "
              "%.1f s\n", a.workload.c_str(), plain.size(), traced.size(),
              secs_since(t_start));
  for (const Metric& m : e2e) {
    std::printf("%-20s %16.4f %-8s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.name.rfind("sim_p", 0) == 0)
      std::printf(" (samples %llu)", static_cast<unsigned long long>(s.ops));
    std::printf("\n");
  }
  // End-to-end figures outside BENCHMARK.json's bounded list (see
  // perfbench/README.md), printed by name on every run.
  const double host_kops = ratio(dbl(s.ops), host_s) / 1e3;
  std::printf("%-20s %16.4f %-8s (median of %zu)\n", "host_kops", host_kops,
              "kops/s", measured.size());
  std::printf("%-20s %16.6g %-8s (failed %llu of %llu)\n", "failed_ops_frac",
              ratio(dbl(s.failed), dbl(s.ops)), "ratio",
              static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.ops));
  if (kv && kv->faults)
    std::printf("%-20s %16.4f %-8s\n", "time_to_healthy_us",
                sim::to_us(s.healthy_at), "us");
  else
    std::printf("%-20s %16s %-8s (kv_degraded only)\n", "time_to_healthy_us",
                "n/a", "us");
  if (!kv)
    std::printf("%-20s %16.4f %-8s (9 cells vs paper)\n", "model_err_pct",
                model_err_pct(s.cell_values), "%");
  else
    std::printf("%-20s %16s %-8s (device_panel only)\n", "model_err_pct",
                "n/a", "%");

  Metrics out = e2e;
  if (a.trace) {
    // Per-layer metrics: medians over the traced repetitions (simulated
    // ones are identical across them by the gate above).
    for (Rep& r : traced) {
      put(r.layer, "engine.host_kops", host_kops, "kops/s");
      put(r.layer, "trace.overhead_ratio", ratio(r.measured_s, host_s),
          "ratio");
      put(r.layer, "trace.spans", dbl(r.spans.size()), "count");
    }
    out.clear();
    for (const LayerDef& def : kLayerDefs) {
      std::vector<double> v;
      for (const Rep& r : traced)
        for (const Metric& m : r.layer)
          if (m.name == def.name) {
            v.push_back(m.value);
            if (m.unit != def.unit)
              failures.push_back(m.name + " reported in " + m.unit);
          }
      put(out, def.name, median(v), def.unit);
    }
    for (const Rep& r : traced)
      for (const Metric& m : r.layer)
        if (std::none_of(std::begin(kLayerDefs), std::end(kLayerDefs),
                         [&](const LayerDef& d) { return m.name == d.name; }))
          failures.push_back(m.name + " is not a declared per-layer metric");
    for (const Metric& m : out)
      std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    if (!a.spans_path.empty() &&
        !write_spans(a.spans_path, prov, traced.back().spans))
      failures.push_back("could not write the span file");
  }

  for (const std::string& f : failures)
    std::printf("# GATE FAILED: %s\n", f.c_str());
  const bool correct = failures.empty();
  print_result(correct, s.ops, s.failed, correct ? out : Metrics{});
  return correct ? 0 : 1;
}
