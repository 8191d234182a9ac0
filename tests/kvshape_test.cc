// Reduced kv_update / kv_degraded shapes (perfbench/README.md): YCSB-A
// on lsmkv with write combining, the read path and deferred compaction,
// four closed-loop clients and the engine's background donor thread.
// These pin what the compaction policy promises end to end: background
// turns keep a healthy store clear of the write-stall gate, and a
// degraded run, drain included, is never faster than a healthy one.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "lsmkv/db.h"
#include "workload/engine.h"
#include "workload/shard.h"
#include "workload/ycsb.h"
#include "xpsim/fault.h"
#include "xpsim/platform.h"

namespace xp {
namespace {

sim::ThreadCtx make_thread(unsigned id) {
  return sim::ThreadCtx({.id = id, .socket = 0, .mlp = 8, .seed = id + 1});
}

hw::Timing small_llc_timing() {
  hw::Timing tm;
  tm.llc_lines = 512;  // 32 KB, as perfbench and bench_ycsb use
  return tm;
}

workload::Spec ycsb_a(std::uint64_t seed) {
  workload::Spec spec = workload::ycsb('A');
  spec.records = 4000;
  spec.ops = 20000;
  spec.seed = seed;
  return spec;
}

// The lsmkv adapter's options for perfbench's write knobs (make_store),
// on a Db the test can read DbStats from.
class DbStore final : public workload::StoreIface {
 public:
  explicit DbStore(hw::PmemNamespace& ns) : db_(ns, options()) {}

  static kv::DbOptions options() {
    kv::DbOptions o;
    o.wal_capacity = 4 << 20;
    o.memtable_bytes = 16 << 10;
    o.wal_group_commit = true;
    o.read_combine = true;
    o.read_cache_lines = 2048;
    o.background_compaction = true;
    return o;
  }

  const kv::Db& db() const { return db_; }

  const char* name() const override { return "lsmkv"; }
  workload::StoreKind kind() const override {
    return workload::StoreKind::kLsmkv;
  }
  void create(sim::ThreadCtx& ctx) override { db_.create(ctx); }
  bool open(sim::ThreadCtx& ctx) override { return db_.open(ctx); }
  void put(sim::ThreadCtx& ctx, std::string_view k,
           std::string_view v) override {
    db_.put(ctx, k, v);
  }
  bool get(sim::ThreadCtx& ctx, std::string_view k,
           std::string* v) override {
    return db_.get(ctx, k, v);
  }
  bool del(sim::ThreadCtx& ctx, std::string_view k) override {
    db_.del(ctx, k);
    return true;
  }
  bool del_reports_found() const override { return false; }
  std::vector<std::pair<std::string, std::string>> scan(
      sim::ThreadCtx& ctx, std::string_view start, std::size_t n) override {
    return db_.scan(ctx, start, n);
  }
  void flush_pending(sim::ThreadCtx& ctx) override {
    db_.commit_pending(ctx);
  }
  std::size_t pending_records() const override {
    return db_.pending_records();
  }
  bool background_turn(sim::ThreadCtx& ctx) override {
    return db_.background_work(ctx);
  }
  bool background_busy() const override { return db_.merge_in_progress(); }
  Status check(sim::ThreadCtx& ctx) override { return db_.check(ctx); }

 private:
  kv::Db db_;
};

TEST(KvUpdateShape, BackgroundTurnsKeepWritersOffTheStallGate) {
  hw::Platform platform(small_llc_timing(), 1);
  auto& ns = platform.optane(64ull << 20);
  DbStore store(ns);
  const workload::Spec spec = ycsb_a(1);
  sim::ThreadCtx setup = make_thread(100);
  store.create(setup);
  workload::load(store, spec, setup);
  const kv::DbStats loaded = store.db().stats();

  // Three clients on one store: kv_update's four clients spread their
  // writes over four stores, and at four clients on one store the merges
  // outrun a single donor thread.
  workload::EngineOptions eo;
  eo.threads = 3;
  eo.base_seed = 1;
  eo.background_thread = true;
  eo.validate_reads = true;
  const workload::Result res = workload::run(store, spec, eo);
  EXPECT_EQ(res.corruptions, 0u);
  const kv::DbStats& s = store.db().stats();
  // The measured phase merged, on donated turns only: no writer paid.
  EXPECT_GT(s.compactions, loaded.compactions);
  EXPECT_EQ(s.write_stalls, loaded.write_stalls);
  EXPECT_EQ(s.background_compactions - loaded.background_compactions,
            s.compactions - loaded.compactions);
  EXPECT_TRUE(store.check(setup).ok());
}

// Poison up to `max_lines` nonzero XPLines, every `stride`-th one (the
// bench_ycsb --faults recipe).
unsigned poison_live_lines(hw::PmemNamespace& ns, unsigned max_lines,
                           unsigned stride) {
  std::vector<std::uint8_t> img(ns.size());
  ns.peek(0, img);
  hw::FaultInjector inj(ns.platform());
  unsigned planted = 0, seen = 0;
  for (std::uint64_t off = 0; off + hw::Platform::kXpLineBytes <= img.size();
       off += hw::Platform::kXpLineBytes) {
    bool live = false;
    for (unsigned b = 0; b < hw::Platform::kXpLineBytes && !live; ++b)
      live = img[off + b] != 0;
    if (!live || seen++ % stride != 0) continue;
    inj.poison(ns, off);
    if (++planted >= max_lines) break;
  }
  return planted;
}

// Sim kops over the run and its drain: 4 shards x 2 replicas, as
// perfbench kv_update; `degraded` quarantines store 0 and poisons 16 of
// its live lines after the load, as kv_degraded.
double drained_kops(std::uint64_t seed, bool degraded) {
  hw::Platform platform(small_llc_timing(), seed);
  const auto ns =
      workload::ShardedStore::make_namespaces(platform, 4, 32ull << 20);
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kLsmkv;
  so.tuning.memtable_bytes = 16 << 10;
  so.tuning.read_path = true;
  so.tuning.write_combine = true;
  so.tuning.background_compaction = true;
  so.replicas = 2;
  workload::ShardedStore store(ns, so);
  const workload::Spec spec = ycsb_a(seed);
  sim::ThreadCtx setup = make_thread(100);
  store.create(setup);
  workload::load(store, spec, setup);
  if (degraded) {
    store.quarantine_shard(setup, 0);
    EXPECT_EQ(poison_live_lines(*ns[0], 16, 4), 16u);
  }
  platform.reset_timing();

  workload::EngineOptions eo;
  eo.threads = 4;
  eo.base_seed = seed;
  eo.background_thread = true;
  const workload::Result res = workload::run(store, spec, eo);
  EXPECT_EQ(res.corruptions + res.typed_errors, 0u);
  sim::ThreadCtx drain = make_thread(7);
  drain.advance_to(res.elapsed);
  bool drained = false;
  for (int i = 0; i < 1'000'000 && !drained; ++i)
    drained = !store.background_turn(drain) && store.all_healthy();
  EXPECT_TRUE(drained);
  store.flush_pending(drain);
  drain.drain();
  return static_cast<double>(res.ops) / sim::to_s(drain.now()) / 1e3;
}

// A degraded run serves the same ops with one store pulled and rebuilt,
// so with the drain counted it cannot finish sooner than a healthy one.
TEST(KvDegradedShape, DrainInclusiveNoFasterThanHealthy) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const double healthy = drained_kops(seed, false);
    const double degraded = drained_kops(seed, true);
    EXPECT_LE(degraded / healthy, 1.0)
        << "seed " << seed << ": degraded " << degraded << " vs healthy "
        << healthy << " kops/s";
  }
}

}  // namespace
}  // namespace xp
