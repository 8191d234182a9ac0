#include "schedmc/targets.h"

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <span>
#include <string>

#include "lsmkv/db.h"
#include "novafs/novafs.h"
#include "pmemkv/cmap.h"
#include "pmemkv/stree.h"
#include "pmemlib/pmem_ops.h"
#include "pmemlib/pool.h"
#include "sim/rng.h"
#include "workload/shard.h"
#include "xpsim/platform.h"

namespace xp::schedmc {

using sim::SchedLock;
using sim::SchedLockGuard;

namespace {

sim::ThreadCtx::Options worker_opts(const TargetOptions& o, unsigned t) {
  return {.id = t, .socket = 0, .mlp = 8, .seed = o.workload_seed * 97 + t + 1};
}

// Setup/recovery/state-reading contexts run outside the interleaver (no
// hook), with ids above every worker so histories stay unambiguous.
sim::ThreadCtx service_ctx(unsigned id = 32) {
  return sim::ThreadCtx({.id = id, .socket = 0, .mlp = 8, .seed = id + 1});
}

// Per-(thread, run) RNG stream: pure function of the options, so a
// replayed schedule re-executes the identical op sequence.
sim::Rng body_rng(const TargetOptions& o, unsigned t) {
  return sim::Rng(o.workload_seed * 1315423911ULL + t * 2654435761ULL + 1);
}

bool elide(const TargetOptions& o) {
  return o.fault == TestFault::kElideRmwLock;
}

// Shared plumbing: a fresh platform per run (built by reset()), one
// History, and one logical worker thread per TargetOptions::threads, each
// running body().
class WorkerTarget : public Target {
 public:
  explicit WorkerTarget(const TargetOptions& o) : opts_(o) {}

  hw::Platform& platform() override { return *platform_; }
  History& history() override { return history_; }

  std::vector<ThreadSpec> specs() override {
    std::vector<ThreadSpec> v;
    for (unsigned t = 0; t < opts_.threads; ++t)
      v.push_back({worker_opts(opts_, t),
                   [this, t](sim::ThreadCtx& ctx) { body(ctx, t); }});
    return v;
  }

 protected:
  virtual void body(sim::ThreadCtx& ctx, unsigned t) = 0;

  TargetOptions opts_;
  std::unique_ptr<hw::Platform> platform_;
  History history_;
};

// ------------------------------------------------------------- pmemlib --

// Four 8-byte counters in the root object, each guarded by its own
// SchedLock; threads pick a slot and increment it through an undo-log
// transaction (lane = thread id). No allocator churn: the pool free list
// is shared state the Tx layer does not lock, and this workload models
// an implementation that partitions data, not the allocator.
class PmemlibTarget final : public WorkerTarget {
 public:
  explicit PmemlibTarget(const TargetOptions& o) : WorkerTarget(o) {}

  const char* name() const override { return "pmemlib"; }

  void reset() override {
    platform_ = std::make_unique<hw::Platform>();
    ns_ = &platform_->optane(8 << 20);
    pool_ = std::make_unique<pmem::Pool>(*ns_);
    sim::ThreadCtx ctx = service_ctx();
    pool_->create(ctx, kSlots * 8);
    root_ = pool_->root(ctx);
    for (unsigned s = 0; s < kSlots; ++s)
      pmem::store_persist_pod(ctx, *ns_, root_ + s * 8, std::uint64_t{0});
    platform_->reset_timing();
    history_.clear();
  }

  std::map<std::string, std::string> live_state() override {
    sim::ThreadCtx ctx = service_ctx();
    return read_slots(ctx);
  }

  bool recover(std::map<std::string, std::string>* out,
               std::string* error) override {
    sim::ThreadCtx ctx = service_ctx(33);
    pmem::Pool pool(*ns_);
    if (!pool.open(ctx)) {
      *error = "pool.open() found no valid pool";
      return false;
    }
    if (Status st = pool.check(ctx); !st.ok()) {
      *error = st.to_string();
      return false;
    }
    *out = read_slots(ctx);
    return true;
  }

  std::map<std::string, std::string> initial_state() override {
    std::map<std::string, std::string> s;
    for (unsigned i = 0; i < kSlots; ++i) s[key(i)] = "0";
    return s;
  }

 private:
  static constexpr unsigned kSlots = 4;

  static std::string key(unsigned slot) { return "s" + std::to_string(slot); }

  std::map<std::string, std::string> read_slots(sim::ThreadCtx& ctx) {
    std::map<std::string, std::string> s;
    for (unsigned i = 0; i < kSlots; ++i)
      s[key(i)] = std::to_string(
          ns_->load_pod<std::uint64_t>(ctx, root_ + i * 8));
    return s;
  }

  void body(sim::ThreadCtx& ctx, unsigned t) override {
    sim::Rng rng = body_rng(opts_, t);
    for (unsigned op = 0; op < opts_.ops_per_thread; ++op) {
      const unsigned slot = static_cast<unsigned>(rng.uniform(kSlots));
      if (rng.uniform(4) == 0)
        read_slot(ctx, t, slot);
      else
        bump_slot(ctx, t, slot);
    }
  }

  void read_slot(sim::ThreadCtx& ctx, unsigned t, unsigned slot) {
    ctx.sched_point(sim::SchedPoint::kOpBegin);
    const bool locked = !elide(opts_);
    if (locked) locks_[slot].lock(ctx);
    const std::size_t id = history_.invoke(t, OpKind::kGet, key(slot));
    const auto v = ns_->load_pod<std::uint64_t>(ctx, root_ + slot * 8);
    history_.respond(id, true, std::to_string(v));
    history_.mark_must_include(id);
    if (locked) locks_[slot].unlock(ctx);
  }

  void bump_slot(sim::ThreadCtx& ctx, unsigned t, unsigned slot) {
    ctx.sched_point(sim::SchedPoint::kOpBegin);
    const std::uint64_t off = root_ + slot * 8;
    const bool locked = !elide(opts_);
    if (locked) locks_[slot].lock(ctx);
    const auto old = ns_->load_pod<std::uint64_t>(ctx, off);
    const std::uint64_t nv = old + 1;
    const std::size_t id = history_.invoke(t, OpKind::kRmw, key(slot));
    history_.stage_write(id, true, std::to_string(old), std::to_string(nv));
    {
      pmem::Tx tx(*pool_, ctx);
      tx.store(off, std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(&nv), 8));
      tx.commit();
    }
    history_.respond(id, true, std::to_string(old));
    history_.mark_must_include(id);
    if (locked) locks_[slot].unlock(ctx);
  }

  hw::PmemNamespace* ns_ = nullptr;
  std::unique_ptr<pmem::Pool> pool_;
  std::uint64_t root_ = 0;
  SchedLock locks_[kSlots];
};

// --------------------------------------------------------------- lsmkv --

// Group-committed LSM store under one db-wide lock (memtable, WAL, and
// manifest are shared). Durability tracking mirrors the leader/follower
// protocol: every mutation joins the current group-commit window; when
// pending_records() drains to zero the whole window became durable and
// its ops are promoted to must-include.
class LsmkvTarget final : public WorkerTarget {
 public:
  explicit LsmkvTarget(const TargetOptions& o) : WorkerTarget(o) {}

  const char* name() const override { return "lsmkv"; }

  void reset() override {
    platform_ = std::make_unique<hw::Platform>();
    ns_ = &platform_->optane(8 << 20);
    db_ = std::make_unique<kv::Db>(*ns_, db_options());
    sim::ThreadCtx ctx = service_ctx();
    db_->create(ctx);
    platform_->reset_timing();
    history_.clear();
    window_ops_.clear();
    window_id_ = 1;
  }

  std::map<std::string, std::string> live_state() override {
    sim::ThreadCtx ctx = service_ctx();
    return read_all(*db_, ctx);
  }

  bool recover(std::map<std::string, std::string>* out,
               std::string* error) override {
    sim::ThreadCtx ctx = service_ctx(33);
    kv::Db db(*ns_, db_options());
    if (!db.open(ctx)) {
      *error = "db.open() failed";
      return false;
    }
    if (Status st = db.check(ctx); !st.ok()) {
      *error = st.to_string();
      return false;
    }
    *out = read_all(db, ctx);
    return true;
  }

 private:
  static constexpr unsigned kKeys = 5;

  static std::string key(unsigned i) { return "k" + std::to_string(i); }

  kv::DbOptions db_options() const {
    kv::DbOptions o;
    o.wal = kv::WalMode::kFlex;
    o.memtable = kv::MemtableMode::kVolatile;
    o.wal_capacity = 1 << 20;
    o.memtable_bytes = 2 << 10;
    o.l0_compaction_trigger = 2;
    o.sync_every_op = true;
    o.wal_checksum = true;
    o.wal_group_commit = true;
    o.wal_group_size = 3;
    return o;
  }

  std::map<std::string, std::string> read_all(kv::Db& db,
                                              sim::ThreadCtx& ctx) {
    std::map<std::string, std::string> s;
    for (unsigned i = 0; i < kKeys; ++i) {
      std::string v;
      if (db.get(ctx, key(i), &v)) s[key(i)] = v;
    }
    std::string v;
    if (db.get(ctx, "ctr", &v)) s["ctr"] = v;
    return s;
  }

  // Called with db_lock_ held, right after the mutation `id` was issued.
  void ack_write(std::size_t id) {
    history_.respond(id);
    history_.set_group(id, window_id_);
    window_ops_.push_back(id);
    if (db_->pending_records() == 0) {
      // The group committed (threshold reached or a flush drained it):
      // every op in the window is now acknowledged durable.
      for (const std::size_t w : window_ops_) history_.mark_must_include(w);
      window_ops_.clear();
      ++window_id_;
    }
  }

  // Called with db_lock_ held, right after the read `id` was answered.
  // A get may have observed memtable data whose WAL records still sit in
  // the open group-commit window; if the machine dies before that group
  // syncs, the observed write is gone, and an observation that *must*
  // linearize would then be unexplainable (the dirty-read durability
  // anomaly inherent to group commit). Reads therefore inherit the open
  // window's commit dependency: immediately durable only when nothing is
  // pending, otherwise promoted together with the window they read under.
  void ack_read(std::size_t id) {
    if (db_->pending_records() == 0) {
      history_.mark_must_include(id);
    } else {
      history_.set_group(id, window_id_);
      window_ops_.push_back(id);
    }
  }

  void body(sim::ThreadCtx& ctx, unsigned t) override {
    sim::Rng rng = body_rng(opts_, t);
    for (unsigned op = 0; op < opts_.ops_per_thread; ++op) {
      const unsigned r = static_cast<unsigned>(rng.uniform(8));
      const std::string k = key(static_cast<unsigned>(rng.uniform(kKeys)));
      ctx.sched_point(sim::SchedPoint::kOpBegin);
      if (r < 3) {
        const std::string val =
            "v" + std::to_string(t) + "_" + std::to_string(op);
        SchedLockGuard g(db_lock_, ctx);
        const std::size_t id = history_.invoke(t, OpKind::kPut, k, val);
        history_.stage_write(id);
        db_->put(ctx, k, val);
        ack_write(id);
      } else if (r < 5) {
        SchedLockGuard g(db_lock_, ctx);
        const std::size_t id = history_.invoke(t, OpKind::kGet, k);
        std::string v;
        const bool found = db_->get(ctx, k, &v);
        history_.respond(id, found, v);
        ack_read(id);
      } else if (r < 6) {
        SchedLockGuard g(db_lock_, ctx);
        const std::size_t id = history_.invoke(t, OpKind::kDel, k);
        history_.stage_write(id);
        db_->del(ctx, k);
        ack_write(id);
      } else {
        bump_counter(ctx, t);
      }
    }
  }

  // Counter increment: get + put composed into one atomic RMW under the
  // db lock — unless the fault elides it into two separate critical
  // sections, re-creating the classic lost-update race.
  void bump_counter(sim::ThreadCtx& ctx, unsigned t) {
    const std::size_t id = history_.invoke(t, OpKind::kRmw, "ctr");
    if (elide(opts_)) {
      bool found;
      std::string v;
      {
        SchedLockGuard g(db_lock_, ctx);
        found = db_->get(ctx, "ctr", &v);
      }
      // Lock dropped between read and write: the seeded regression.
      ctx.sched_point(sim::SchedPoint::kHandoff);
      const std::string nv = next_value(found, v);
      history_.stage_write(id, found, found ? v : std::string(), nv);
      SchedLockGuard g(db_lock_, ctx);
      db_->put(ctx, "ctr", nv);
      ack_write(id);
    } else {
      SchedLockGuard g(db_lock_, ctx);
      std::string v;
      const bool found = db_->get(ctx, "ctr", &v);
      const std::string nv = next_value(found, v);
      history_.stage_write(id, found, found ? v : std::string(), nv);
      db_->put(ctx, "ctr", nv);
      ack_write(id);
    }
  }

  static std::string next_value(bool found, const std::string& v) {
    return std::to_string((found ? std::stoll(v) : 0) + 1);
  }

  hw::PmemNamespace* ns_ = nullptr;
  std::unique_ptr<kv::Db> db_;
  SchedLock db_lock_;
  std::vector<std::size_t> window_ops_;
  std::uint64_t window_id_ = 1;
};

// -------------------------------------------------------------- novafs --

// Files as map entries: a file's content (fixed-length writes at offset
// 0) is its value, create is a put of "". One fs-wide lock — the
// directory log, page allocator, and read staging are all shared.
class NovafsTarget final : public WorkerTarget {
 public:
  explicit NovafsTarget(const TargetOptions& o) : WorkerTarget(o) {}

  const char* name() const override { return "novafs"; }

  void reset() override {
    platform_ = std::make_unique<hw::Platform>();
    ns_ = &platform_->optane(8 << 20);
    fs_ = std::make_unique<nova::NovaFs>(*ns_, fs_options());
    sim::ThreadCtx ctx = service_ctx();
    fs_->format(ctx);
    platform_->reset_timing();
    history_.clear();
  }

  std::map<std::string, std::string> live_state() override {
    sim::ThreadCtx ctx = service_ctx();
    return read_all(*fs_, ctx);
  }

  bool recover(std::map<std::string, std::string>* out,
               std::string* error) override {
    sim::ThreadCtx ctx = service_ctx(33);
    nova::NovaFs fs(*ns_, fs_options());
    if (!fs.mount(ctx)) {
      *error = "mount() failed";
      return false;
    }
    if (Status st = fs.fsck(ctx); !st.ok()) {
      *error = st.to_string();
      return false;
    }
    *out = read_all(fs, ctx);
    return true;
  }

 private:
  static constexpr unsigned kNames = 4;
  static constexpr std::size_t kLen = 32;  // every write is full-content

  static std::string fname(unsigned i) { return "f" + std::to_string(i); }

  nova::NovaOptions fs_options() const {
    nova::NovaOptions o;
    o.datalog = true;
    o.merge_threshold = 4;
    o.clean_threshold = 8;
    o.log_checksum = true;
    o.batch_log_appends = true;  // atomic rename
    return o;
  }

  std::map<std::string, std::string> read_all(nova::NovaFs& fs,
                                              sim::ThreadCtx& ctx) {
    std::map<std::string, std::string> s;
    for (unsigned i = 0; i < kNames; ++i) {
      const int ino = fs.open(ctx, fname(i));
      if (ino < 0) continue;
      const std::uint64_t sz = fs.size(ctx, ino);
      std::string content(sz, '\0');
      if (sz != 0)
        fs.read(ctx, ino, 0,
                std::span<std::uint8_t>(
                    reinterpret_cast<std::uint8_t*>(content.data()), sz));
      s[fname(i)] = content;
    }
    return s;
  }

  void body(sim::ThreadCtx& ctx, unsigned t) override {
    sim::Rng rng = body_rng(opts_, t);
    for (unsigned op = 0; op < opts_.ops_per_thread; ++op) {
      const unsigned r = static_cast<unsigned>(rng.uniform(8));
      const unsigned fi = static_cast<unsigned>(rng.uniform(kNames));
      ctx.sched_point(sim::SchedPoint::kOpBegin);
      SchedLockGuard g(fs_lock_, ctx);
      if (r < 3) {
        write_file(ctx, t, fi, static_cast<char>('a' + (t * 7 + op) % 26));
      } else if (r < 4) {
        const std::size_t id = history_.invoke(t, OpKind::kDel, fname(fi));
        history_.stage_write(id);
        const bool ok = fs_->unlink(ctx, fname(fi));
        history_.respond(id, ok);
        history_.mark_must_include(id);
      } else if (r < 5) {
        const unsigned to = (fi + 1 + static_cast<unsigned>(rng.uniform(
                                          kNames - 1))) % kNames;
        const std::size_t id = history_.invoke(t, OpKind::kRename, fname(fi),
                                               std::string(), fname(to));
        history_.stage_write(id);
        const bool ok = fs_->rename(ctx, fname(fi), fname(to));
        history_.respond(id, ok);
        history_.mark_must_include(id);
      } else {
        const std::size_t id = history_.invoke(t, OpKind::kGet, fname(fi));
        const int ino = fs_->open(ctx, fname(fi));
        if (ino < 0) {
          history_.respond(id, false);
        } else {
          const std::uint64_t sz = fs_->size(ctx, ino);
          std::string content(sz, '\0');
          if (sz != 0)
            fs_->read(ctx, ino, 0,
                      std::span<std::uint8_t>(
                          reinterpret_cast<std::uint8_t*>(content.data()),
                          sz));
          history_.respond(id, true, content);
        }
        history_.mark_must_include(id);
      }
    }
  }

  void write_file(sim::ThreadCtx& ctx, unsigned t, unsigned fi, char fill) {
    int ino = fs_->open(ctx, fname(fi));
    if (ino < 0) {
      const std::size_t id = history_.invoke(t, OpKind::kPut, fname(fi));
      history_.stage_write(id);
      fs_->create(ctx, fname(fi));
      history_.respond(id);
      history_.mark_must_include(id);
      return;
    }
    const std::string content(kLen, fill);
    const std::size_t id = history_.invoke(t, OpKind::kPut, fname(fi), content);
    history_.stage_write(id);
    fs_->write(ctx, ino, 0,
               std::span<const std::uint8_t>(
                   reinterpret_cast<const std::uint8_t*>(content.data()),
                   content.size()));
    history_.respond(id);
    history_.mark_must_include(id);
  }

  hw::PmemNamespace* ns_ = nullptr;
  std::unique_ptr<nova::NovaFs> fs_;
  SchedLock fs_lock_;
};

// ------------------------------------------------------------------ KV --

// One KV store as a concurrent workload, as a row of data. Each op draws
// r = uniform(8): a put below put_below, a get below get_below, else a
// delete.
struct KvRow {
  const char* name;
  std::function<std::unique_ptr<workload::StoreIface>(hw::PmemNamespace&)>
      make;
  // Key universe: key_prefix + index zero-padded to key_width digits.
  const char* key_prefix;
  unsigned key_width;
  unsigned keys;
  unsigned put_below;
  unsigned get_below;
  std::string (*value)(unsigned t, unsigned op, sim::Rng& rng);
};

// Drives any StoreIface through its typed try_* surface under one
// store-wide lock (the structure is shared state). Every op is durable
// when it returns, so each is must-include once acknowledged.
class KvTarget final : public WorkerTarget {
 public:
  KvTarget(KvRow row, const TargetOptions& o)
      : WorkerTarget(o), row_(std::move(row)) {}

  const char* name() const override { return row_.name; }

  void reset() override {
    platform_ = std::make_unique<hw::Platform>();
    ns_ = &platform_->optane(8 << 20);
    store_ = row_.make(*ns_);
    sim::ThreadCtx ctx = service_ctx();
    store_->create(ctx);
    platform_->reset_timing();
    history_.clear();
  }

  std::map<std::string, std::string> live_state() override {
    sim::ThreadCtx ctx = service_ctx();
    return read_all(*store_, ctx);
  }

  bool recover(std::map<std::string, std::string>* out,
               std::string* error) override {
    sim::ThreadCtx ctx = service_ctx(33);
    const std::unique_ptr<workload::StoreIface> store = row_.make(*ns_);
    if (!store->open(ctx)) {
      *error = "open() found no valid store";
      return false;
    }
    if (Status st = store->check(ctx); !st.ok()) {
      *error = st.to_string();
      return false;
    }
    *out = read_all(*store, ctx);
    return true;
  }

 private:
  std::string key(unsigned i) const {
    std::string digits = std::to_string(i);
    if (digits.size() < row_.key_width)
      digits.insert(0, row_.key_width - digits.size(), '0');
    return row_.key_prefix + digits;
  }

  std::map<std::string, std::string> read_all(workload::StoreIface& store,
                                              sim::ThreadCtx& ctx) {
    std::map<std::string, std::string> s;
    for (unsigned i = 0; i < row_.keys; ++i) {
      std::string v;
      if (store.try_get(ctx, key(i), &v).ok()) s[key(i)] = v;
    }
    return s;
  }

  void body(sim::ThreadCtx& ctx, unsigned t) override {
    sim::Rng rng = body_rng(opts_, t);
    for (unsigned op = 0; op < opts_.ops_per_thread; ++op) {
      const unsigned r = static_cast<unsigned>(rng.uniform(8));
      const std::string k = key(static_cast<unsigned>(rng.uniform(row_.keys)));
      ctx.sched_point(sim::SchedPoint::kOpBegin);
      SchedLockGuard g(lock_, ctx);
      std::size_t id;
      if (r < row_.put_below) {
        const std::string val = row_.value(t, op, rng);
        id = history_.invoke(t, OpKind::kPut, k, val);
        history_.stage_write(id);
        store_->try_put(ctx, k, val);
        history_.respond(id);
      } else if (r < row_.get_below) {
        id = history_.invoke(t, OpKind::kGet, k);
        std::string v;
        const bool found = store_->try_get(ctx, k, &v).ok();
        history_.respond(id, found, v);
      } else {
        id = history_.invoke(t, OpKind::kDel, k);
        history_.stage_write(id);
        bool found = false;
        store_->try_del(ctx, k, &found);
        history_.respond(id, found);
      }
      history_.mark_must_include(id);
    }
  }

  KvRow row_;
  hw::PmemNamespace* ns_ = nullptr;
  std::unique_ptr<workload::StoreIface> store_;
  SchedLock lock_;
};

// ------------------------------------------------------------- sharded --

// workload::ShardedStore over two per-DIMM lsmkv shards with deferred
// background compaction. Locking model: each shard instance is
// single-threaded code, so it gets its own SchedLock; single-key ops
// take the owning shard's lock, cross-shard batches take every involved
// lock in ascending shard order (no deadlock by construction) and hold
// them across the whole dispatch. One extra logical thread donates
// background-compaction turns, shard lock held — reset() pre-populates
// enough data that both shards start with compaction debt pending, so
// exploration interleaves real L0 merges with foreground traffic.
//
// Durability: sync_every_op is on and write-combining is off, so a
// single put/del is durable when it returns, and a per-shard batch
// group (Db::put_batch, one WAL group burst) is durable — atomically —
// when the dispatch returns. History groups mirror exactly that unit:
// one group id per (batch, shard), never one spanning shards.
class ShardedTarget final : public WorkerTarget {
 public:
  explicit ShardedTarget(const TargetOptions& o) : WorkerTarget(o) {}

  const char* name() const override { return "sharded-lsmkv"; }

  void reset() override {
    platform_ = std::make_unique<hw::Platform>();
    ns_ = workload::ShardedStore::make_namespaces(*platform_, kShards,
                                                  16ull << 20);
    store_ = std::make_unique<workload::ShardedStore>(ns_, shard_options());
    sim::ThreadCtx ctx = service_ctx();
    store_->create(ctx);
    // Pre-populate until every shard has scheduled (not run) a merge:
    // the explorer then interleaves the donated compaction turns with
    // live traffic instead of exploring an empty background thread.
    filler_.clear();
    for (unsigned i = 0; i < kFillers; ++i) {
      const std::string k = "f" + std::to_string(i);
      const std::string v(400, 'a' + static_cast<char>(i % 26));
      store_->put(ctx, k, v);
      filler_[k] = v;
    }
    platform_->reset_timing();
    history_.clear();
    next_group_ = 1;
  }

  std::vector<ThreadSpec> specs() override {
    std::vector<ThreadSpec> v = WorkerTarget::specs();
    // The background-compaction donor: walks the shards a few times,
    // paying one deferred merge per turn under that shard's lock.
    v.push_back({worker_opts(opts_, opts_.threads),
                 [this](sim::ThreadCtx& ctx) {
                   for (unsigned round = 0; round < 3; ++round)
                     for (unsigned s = 0; s < kShards; ++s) {
                       ctx.sched_point(sim::SchedPoint::kOpBegin);
                       SchedLockGuard g(locks_[s], ctx);
                       store_->shard(s).background_turn(ctx);
                     }
                 }});
    return v;
  }

  std::map<std::string, std::string> live_state() override {
    sim::ThreadCtx ctx = service_ctx();
    return read_all(*store_, ctx);
  }

  bool recover(std::map<std::string, std::string>* out,
               std::string* error) override {
    sim::ThreadCtx ctx = service_ctx(33);
    workload::ShardedStore store(ns_, shard_options());
    if (!store.open(ctx)) {
      *error = "sharded open() failed";
      return false;
    }
    if (Status st = store.check(ctx); !st.ok()) {
      *error = st.to_string();
      return false;
    }
    *out = read_all(store, ctx);
    return true;
  }

  std::map<std::string, std::string> initial_state() override {
    return filler_;
  }

 private:
  static constexpr unsigned kShards = 2;
  static constexpr unsigned kKeys = 6;
  // 48 x 400 B spread over two 2 KB-memtable shards: ~9 flushes per
  // shard, past the default l0_compaction_trigger, so both shards carry
  // pending debt when the run starts.
  static constexpr unsigned kFillers = 48;

  static std::string key(unsigned i) { return "k" + std::to_string(i); }

  workload::ShardOptions shard_options() const {
    workload::ShardOptions so;
    so.kind = workload::StoreKind::kLsmkv;
    so.tuning.memtable_bytes = 2 << 10;
    so.tuning.background_compaction = true;
    so.writer_lanes = true;
    return so;
  }

  std::map<std::string, std::string> read_all(workload::ShardedStore& s,
                                              sim::ThreadCtx& ctx) {
    std::map<std::string, std::string> out;
    auto probe = [&](const std::string& k) {
      std::string v;
      if (s.get(ctx, k, &v)) out[k] = v;
    };
    for (unsigned i = 0; i < kKeys; ++i) probe(key(i));
    probe("ctr");
    for (const auto& [k, v] : filler_) probe(k);
    return out;
  }

  void body(sim::ThreadCtx& ctx, unsigned t) override {
    sim::Rng rng = body_rng(opts_, t);
    for (unsigned op = 0; op < opts_.ops_per_thread; ++op) {
      const unsigned r = static_cast<unsigned>(rng.uniform(10));
      const std::string k = key(static_cast<unsigned>(rng.uniform(kKeys)));
      const unsigned s = workload::shard_of(k, kShards);
      ctx.sched_point(sim::SchedPoint::kOpBegin);
      if (r < 3) {
        const std::string val =
            "v" + std::to_string(t) + "_" + std::to_string(op);
        SchedLockGuard g(locks_[s], ctx);
        const std::size_t id = history_.invoke(t, OpKind::kPut, k, val);
        history_.stage_write(id);
        store_->put(ctx, k, val);
        history_.respond(id);
        history_.mark_must_include(id);
      } else if (r < 5) {
        SchedLockGuard g(locks_[s], ctx);
        const std::size_t id = history_.invoke(t, OpKind::kGet, k);
        std::string v;
        const bool found = store_->get(ctx, k, &v);
        history_.respond(id, found, v);
        history_.mark_must_include(id);
      } else if (r < 6) {
        SchedLockGuard g(locks_[s], ctx);
        const std::size_t id = history_.invoke(t, OpKind::kDel, k);
        history_.stage_write(id);
        store_->del(ctx, k);
        history_.respond(id);  // lsmkv dels are blind; no found to check
        history_.mark_must_include(id);
      } else if (r < 8) {
        batch(ctx, t, op, rng);
      } else {
        bump_counter(ctx, t);
      }
    }
  }

  // Cross-shard batched dispatch: 2-3 keys, locks taken in ascending
  // shard order and held across the dispatch; ShardedStore::apply_batch
  // commits one WAL group per involved shard, so each shard's slice of
  // the history shares one group id and distinct shards never do.
  void batch(sim::ThreadCtx& ctx, unsigned t, unsigned op, sim::Rng& rng) {
    const unsigned n = 2 + static_cast<unsigned>(rng.uniform(2));
    std::vector<workload::BatchOp> ops;
    for (unsigned i = 0; i < n; ++i) {
      workload::BatchOp b;
      b.key = key(static_cast<unsigned>(rng.uniform(kKeys)));
      b.del = rng.uniform(5) == 0;
      if (!b.del)
        b.value = "b" + std::to_string(t) + "_" + std::to_string(op) + "_" +
                  std::to_string(i);
      ops.push_back(std::move(b));
    }
    bool involved[kShards] = {};
    for (const auto& b : ops) involved[workload::shard_of(b.key, kShards)] = true;
    for (unsigned s = 0; s < kShards; ++s)
      if (involved[s]) locks_[s].lock(ctx);
    std::uint64_t group_of[kShards];
    for (unsigned s = 0; s < kShards; ++s)
      if (involved[s]) group_of[s] = next_group_++;
    std::vector<std::size_t> ids;
    for (const auto& b : ops) {
      const std::size_t id = history_.invoke(
          t, b.del ? OpKind::kDel : OpKind::kPut, b.key, b.value);
      history_.stage_write(id);
      history_.set_group(id, group_of[workload::shard_of(b.key, kShards)]);
      ids.push_back(id);
    }
    store_->apply_batch(ctx, ops);
    for (const std::size_t id : ids) {
      history_.respond(id);
      history_.mark_must_include(id);
    }
    for (unsigned s = kShards; s-- > 0;)
      if (involved[s]) locks_[s].unlock(ctx);
  }

  // Counter RMW under the counter's owning shard lock — or, with the
  // fault armed, split into two critical sections (the lost update the
  // oracle must catch, now through the sharded frontend).
  void bump_counter(sim::ThreadCtx& ctx, unsigned t) {
    const unsigned s = workload::shard_of("ctr", kShards);
    const std::size_t id = history_.invoke(t, OpKind::kRmw, "ctr");
    if (elide(opts_)) {
      bool found;
      std::string v;
      {
        SchedLockGuard g(locks_[s], ctx);
        found = store_->get(ctx, "ctr", &v);
      }
      ctx.sched_point(sim::SchedPoint::kHandoff);
      const std::string nv = next_value(found, v);
      history_.stage_write(id, found, found ? v : std::string(), nv);
      SchedLockGuard g(locks_[s], ctx);
      store_->put(ctx, "ctr", nv);
      history_.respond(id, found, found ? v : std::string());
      history_.mark_must_include(id);
    } else {
      SchedLockGuard g(locks_[s], ctx);
      std::string v;
      const bool found = store_->get(ctx, "ctr", &v);
      const std::string nv = next_value(found, v);
      history_.stage_write(id, found, found ? v : std::string(), nv);
      store_->put(ctx, "ctr", nv);
      history_.respond(id, found, found ? v : std::string());
      history_.mark_must_include(id);
    }
  }

  static std::string next_value(bool found, const std::string& v) {
    return std::to_string((found ? std::stoll(v) : 0) + 1);
  }

  std::vector<hw::PmemNamespace*> ns_;
  std::unique_ptr<workload::ShardedStore> store_;
  SchedLock locks_[kShards];
  std::map<std::string, std::string> filler_;
  std::uint64_t next_group_ = 1;
};

}  // namespace

std::unique_ptr<Target> make_pmemlib_target(const TargetOptions& opts) {
  return std::make_unique<PmemlibTarget>(opts);
}
std::unique_ptr<Target> make_lsmkv_target(const TargetOptions& opts) {
  return std::make_unique<LsmkvTarget>(opts);
}
std::unique_ptr<Target> make_novafs_target(const TargetOptions& opts) {
  return std::make_unique<NovafsTarget>(opts);
}
// cmap with bounded writer lanes (the lane admission/release points are
// schedmc yields). An 8-byte value stays in place, 24 goes
// transactional.
std::unique_ptr<Target> make_cmap_target(const TargetOptions& opts) {
  pmemkv::CMapOptions o;
  o.max_writers_per_dimm = 2;
  return std::make_unique<KvTarget>(
      KvRow{.name = "cmap",
            .make = [o](hw::PmemNamespace& ns) {
              return workload::make_cmap_store(ns, o);
            },
            .key_prefix = "c",
            .key_width = 0,
            .keys = 6,
            .put_below = 4,
            .get_below = 6,
            .value = [](unsigned t, unsigned op, sim::Rng& rng) {
              const std::size_t len = rng.uniform(2) == 0 ? 8 : 24;
              std::string val =
                  "w" + std::to_string(t) + "_" + std::to_string(op);
              val.resize(len, 'x');
              return val;
            }},
      opts);
}

// stree with enough keys that a 3-thread run splits a leaf
// mid-schedule.
std::unique_ptr<Target> make_stree_target(const TargetOptions& opts) {
  return std::make_unique<KvTarget>(
      KvRow{.name = "stree",
            .make = [](hw::PmemNamespace& ns) {
              return workload::make_stree_store(ns, pmemkv::STreeOptions{});
            },
            .key_prefix = "t",
            .key_width = 2,
            .keys = 12,
            .put_below = 5,
            .get_below = 7,
            .value = [](unsigned t, unsigned op, sim::Rng&) {
              return "n" + std::to_string(t) + "_" + std::to_string(op);
            }},
      opts);
}
std::unique_ptr<Target> make_sharded_target(const TargetOptions& opts) {
  return std::make_unique<ShardedTarget>(opts);
}

std::vector<std::unique_ptr<Target>> all_targets(const TargetOptions& opts) {
  std::vector<std::unique_ptr<Target>> v;
  v.push_back(make_pmemlib_target(opts));
  v.push_back(make_lsmkv_target(opts));
  v.push_back(make_novafs_target(opts));
  v.push_back(make_cmap_target(opts));
  v.push_back(make_stree_target(opts));
  return v;
}

}  // namespace xp::schedmc
