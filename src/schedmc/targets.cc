#include "schedmc/targets.h"

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "lsmkv/common.h"
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
      const bool read = rng.uniform(4) == 0;
      ctx.sched_point(sim::SchedPoint::kOpBegin);
      const bool locked = !elide(opts_);
      if (locked) locks_[slot].lock(ctx);
      if (read)
        read_slot(ctx, t, slot);
      else
        bump_slot(ctx, t, slot);
      if (locked) locks_[slot].unlock(ctx);
    }
  }

  void read_slot(sim::ThreadCtx& ctx, unsigned t, unsigned slot) {
    const std::size_t id = history_.invoke(t, OpKind::kGet, key(slot));
    const auto v = ns_->load_pod<std::uint64_t>(ctx, root_ + slot * 8);
    history_.respond(id, true, std::to_string(v));
    history_.mark_must_include(id);
  }

  void bump_slot(sim::ThreadCtx& ctx, unsigned t, unsigned slot) {
    const std::uint64_t off = root_ + slot * 8;
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
  }

  hw::PmemNamespace* ns_ = nullptr;
  std::unique_ptr<pmem::Pool> pool_;
  std::uint64_t root_ = 0;
  SchedLock locks_[kSlots];
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

  // A file's whole content; nullopt when it does not exist.
  static std::optional<std::string> read_file(nova::NovaFs& fs,
                                              sim::ThreadCtx& ctx,
                                              const std::string& name) {
    const int ino = fs.open(ctx, name);
    if (ino < 0) return std::nullopt;
    const std::uint64_t sz = fs.size(ctx, ino);
    std::string content(sz, '\0');
    if (sz != 0)
      fs.read(ctx, ino, 0,
              std::span<std::uint8_t>(
                  reinterpret_cast<std::uint8_t*>(content.data()), sz));
    return content;
  }

  std::map<std::string, std::string> read_all(nova::NovaFs& fs,
                                              sim::ThreadCtx& ctx) {
    std::map<std::string, std::string> s;
    for (unsigned i = 0; i < kNames; ++i)
      if (auto content = read_file(fs, ctx, fname(i)))
        s[fname(i)] = std::move(*content);
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
        if (auto content = read_file(*fs_, ctx, fname(fi)))
          history_.respond(id, true, std::move(*content));
        else
          history_.respond(id, false);
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
// r over the sum of the five shares and runs, in this order of shares, a
// put, a get, a delete, a cross-shard batch or a counter increment.
struct KvRow {
  const char* name;
  // 1: one interleaved namespace; N > 1: one per-DIMM namespace each.
  unsigned shards = 1;
  std::uint64_t ns_bytes = 8 << 20;
  std::function<std::unique_ptr<workload::StoreIface>(
      std::span<hw::PmemNamespace* const>)>
      make;
  // Key universe: key_prefix + index zero-padded to key_width digits.
  const char* key_prefix = "k";
  unsigned key_width = 0;
  unsigned keys = 6;
  unsigned puts = 0;
  unsigned gets = 0;
  unsigned dels = 0;
  // A batch is 2-3 records over the key universe, one in five a delete.
  unsigned batches = 0;
  // An increment reads the counter key and writes it back plus one.
  unsigned rmws = 0;
  std::string (*value)(unsigned t, unsigned op, sim::Rng& rng) = nullptr;
  // Filler records written before the run; initial_state() returns them.
  unsigned preload = 0;
  // Background turns donated by one extra logical thread.
  unsigned bg_turns = 0;
};

// The SchedLocks of the shards in `mask`, taken in ascending shard order
// and released in descending order, so no two holders can deadlock.
class ShardLocks {
 public:
  ShardLocks(std::vector<SchedLock>& locks, sim::ThreadCtx& ctx,
             std::uint64_t mask)
      : locks_(locks), ctx_(ctx), mask_(mask) {
    for (std::size_t s = 0; s < locks_.size(); ++s)
      if ((mask_ >> s) & 1) locks_[s].lock(ctx_);
  }
  // A release is a yield point, as in SchedLockGuard.
  ~ShardLocks() noexcept(false) {
    for (std::size_t s = locks_.size(); s-- > 0;)
      if ((mask_ >> s) & 1) locks_[s].unlock(ctx_);
  }
  ShardLocks(const ShardLocks&) = delete;
  ShardLocks& operator=(const ShardLocks&) = delete;

 private:
  std::vector<SchedLock>& locks_;
  sim::ThreadCtx& ctx_;
  std::uint64_t mask_;
};

// Drives any StoreIface through its typed try_* surface. Each store
// instance is single-threaded code, so each shard has one SchedLock: a
// single-key op takes its key's shard lock, a batch every lock it
// touches, and a donated background turn, which may work on any shard,
// all of them. With one shard that is one store-wide lock.
//
// Durability follows StoreIface::pending_records(). A write joins the
// open group-commit window of its shard; once the count reads 0 every
// window has committed and its ops become must-include. Stores that are
// durable at return read 0 after every op, so each op is must-include
// as soon as it returns. A window is one history group per shard, and
// each shard's slice of a batch (one crash-atomic WAL group) shares its
// shard's group, so no group spans two shards.
class KvTarget final : public WorkerTarget {
 public:
  KvTarget(KvRow row, const TargetOptions& o)
      : WorkerTarget(o), row_(std::move(row)), locks_(row_.shards) {}

  const char* name() const override { return row_.name; }

  void reset() override {
    platform_ = std::make_unique<hw::Platform>();
    ns_ = workload::row_namespaces(*platform_, row_.shards, row_.ns_bytes);
    store_ = row_.make(ns_);
    sim::ThreadCtx ctx = service_ctx();
    store_->create(ctx);
    for (unsigned i = 0; i < row_.preload; ++i)
      store_->try_put(ctx, filler_key(i), filler_value(i));
    platform_->reset_timing();
    history_.clear();
    window_ops_.clear();
    window_ = 0;
  }

  std::vector<ThreadSpec> specs() override {
    std::vector<ThreadSpec> v = WorkerTarget::specs();
    if (row_.bg_turns != 0)
      v.push_back({worker_opts(opts_, opts_.threads),
                   [this](sim::ThreadCtx& ctx) {
                     for (unsigned i = 0; i < row_.bg_turns; ++i) {
                       ctx.sched_point(sim::SchedPoint::kOpBegin);
                       // The turn may work on any shard.
                       ShardLocks g(locks_, ctx, ~std::uint64_t{0});
                       store_->background_turn(ctx);
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
    const std::unique_ptr<workload::StoreIface> store = row_.make(ns_);
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

  std::map<std::string, std::string> initial_state() override {
    std::map<std::string, std::string> s;
    for (unsigned i = 0; i < row_.preload; ++i)
      s[filler_key(i)] = filler_value(i);
    return s;
  }

 private:
  // 400 B fillers over 2 KB memtables flush every few records, so a
  // preload of dozens leaves an LSM store with merges pending.
  static std::string filler_key(unsigned i) { return "f" + std::to_string(i); }
  static std::string filler_value(unsigned i) {
    return std::string(400, static_cast<char>('a' + i % 26));
  }

  static constexpr const char* kCounter = "ctr";

  std::string key(unsigned i) const {
    std::string digits = std::to_string(i);
    if (digits.size() < row_.key_width)
      digits.insert(0, row_.key_width - digits.size(), '0');
    return row_.key_prefix + digits;
  }

  unsigned shard(std::string_view k) const {
    return workload::shard_of(k, row_.shards);
  }

  std::map<std::string, std::string> read_all(workload::StoreIface& store,
                                              sim::ThreadCtx& ctx) {
    std::map<std::string, std::string> s;
    auto probe = [&](const std::string& k) {
      std::string v;
      if (store.try_get(ctx, k, &v).ok()) s[k] = v;
    };
    for (unsigned i = 0; i < row_.keys; ++i) probe(key(i));
    if (row_.rmws != 0) probe(kCounter);
    for (unsigned i = 0; i < row_.preload; ++i) probe(filler_key(i));
    return s;
  }

  // The history group of shard s's open window.
  std::uint64_t group(unsigned s) const {
    return window_ * row_.shards + s + 1;
  }

  // Once nothing is pending, every open window has committed. The count
  // is a sum over shards, so it cannot tell one shard's committed window
  // from another's open one: a shard would reuse its group id for writes
  // after its own commit, and a crash between the two shards' commits
  // would then read as a torn group. A multi-shard row therefore must not
  // combine writes; reaching a nonzero count on one is an error.
  void settle() {
    if (store_->pending_records() == 0) {
      for (const std::size_t w : window_ops_) history_.mark_must_include(w);
      window_ops_.clear();
      ++window_;
    } else if (row_.shards > 1) {
      throw std::logic_error("KvTarget: write combining on a multi-shard row");
    }
  }

  // Called with the shard lock held, after write `id` returned: it
  // joins its shard's open window.
  void ack_write(std::size_t id, unsigned s) {
    history_.set_group(id, group(s));
    window_ops_.push_back(id);
    settle();
  }

  // Called with the shard lock held, after read `id` was answered. A get
  // may have observed memtable data whose WAL records still sit in the
  // open group-commit window; if the machine dies before that group
  // syncs, the observed write is gone, and an observation that *must*
  // linearize would then be unexplainable (the dirty-read durability
  // anomaly inherent to group commit). Reads therefore inherit the open
  // window's commit dependency: immediately durable only when nothing is
  // pending, otherwise promoted together with the window they read under.
  void ack_read(std::size_t id, unsigned s) {
    if (store_->pending_records() == 0)
      history_.mark_must_include(id);
    else
      ack_write(id, s);
  }

  void body(sim::ThreadCtx& ctx, unsigned t) override {
    sim::Rng rng = body_rng(opts_, t);
    const unsigned get_at = row_.puts + row_.gets;
    const unsigned del_at = get_at + row_.dels;
    const unsigned batch_at = del_at + row_.batches;
    for (unsigned op = 0; op < opts_.ops_per_thread; ++op) {
      const unsigned r =
          static_cast<unsigned>(rng.uniform(batch_at + row_.rmws));
      const std::string k = key(static_cast<unsigned>(rng.uniform(row_.keys)));
      ctx.sched_point(sim::SchedPoint::kOpBegin);
      if (r >= del_at) {
        if (r >= batch_at)
          bump_counter(ctx, t);
        else
          batch(ctx, t, op, rng);
        continue;
      }
      const unsigned s = shard(k);
      ShardLocks g(locks_, ctx, std::uint64_t{1} << s);
      std::size_t id;
      const bool read = r >= row_.puts && r < get_at;
      if (r < row_.puts) {
        const std::string val = row_.value(t, op, rng);
        id = history_.invoke(t, OpKind::kPut, k, val);
        history_.stage_write(id);
        store_->try_put(ctx, k, val);
        history_.respond(id);
      } else if (r < get_at) {
        id = history_.invoke(t, OpKind::kGet, k);
        std::string v;
        const bool found = store_->try_get(ctx, k, &v).ok();
        history_.respond(id, found, v);
      } else {
        id = history_.invoke(t, OpKind::kDel, k);
        history_.stage_write(id);
        bool found = false;
        store_->try_del(ctx, k, &found);
        if (store_->del_reports_found())
          history_.respond(id, found);
        else
          history_.respond(id);  // a blind tombstone reports nothing
      }
      if (read)
        ack_read(id, s);
      else
        ack_write(id, s);
    }
  }

  void batch(sim::ThreadCtx& ctx, unsigned t, unsigned op, sim::Rng& rng) {
    std::vector<workload::BatchOp> recs(2 + rng.uniform(2));
    std::uint64_t touched = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      workload::BatchOp& b = recs[i];
      b.key = key(static_cast<unsigned>(rng.uniform(row_.keys)));
      b.del = rng.uniform(5) == 0;
      if (!b.del) b.value = row_.value(t, op, rng) + "_" + std::to_string(i);
      touched |= std::uint64_t{1} << shard(b.key);
    }
    ShardLocks g(locks_, ctx, touched);
    // The invoke loop does not yield, so the batch's ids are contiguous.
    // try_apply_batch does: other threads invoke ops meanwhile, and those
    // are theirs to answer.
    const std::size_t first = history_.size();
    for (const workload::BatchOp& b : recs) {
      const std::size_t id = history_.invoke(
          t, b.del ? OpKind::kDel : OpKind::kPut, b.key, b.value);
      history_.stage_write(id);
      history_.set_group(id, group(shard(b.key)));
    }
    store_->try_apply_batch(ctx, recs);
    for (std::size_t id = first; id < first + recs.size(); ++id) {
      history_.respond(id);
      window_ops_.push_back(id);
    }
    settle();
  }

  // Counter increment: get + put composed into one atomic RMW under the
  // counter's shard lock, unless the fault splits it into two critical
  // sections, re-creating the classic lost-update race.
  void bump_counter(sim::ThreadCtx& ctx, unsigned t) {
    const unsigned s = shard(kCounter);
    const std::size_t id = history_.invoke(t, OpKind::kRmw, kCounter);
    std::string v;
    bool found = false;
    if (elide(opts_)) {
      {
        ShardLocks g(locks_, ctx, std::uint64_t{1} << s);
        found = store_->try_get(ctx, kCounter, &v).ok();
      }
      // Lock dropped between read and write: the seeded regression.
      ctx.sched_point(sim::SchedPoint::kHandoff);
    }
    ShardLocks g(locks_, ctx, std::uint64_t{1} << s);
    if (!elide(opts_)) found = store_->try_get(ctx, kCounter, &v).ok();
    const std::string nv = std::to_string((found ? std::stoll(v) : 0) + 1);
    history_.stage_write(id, found, found ? v : std::string(), nv);
    store_->try_put(ctx, kCounter, nv);
    history_.respond(id);
    ack_write(id, s);
  }

  KvRow row_;
  std::vector<SchedLock> locks_;
  std::vector<hw::PmemNamespace*> ns_;
  std::unique_ptr<workload::StoreIface> store_;
  // Ops whose durability waits on an open group-commit window.
  std::vector<std::size_t> window_ops_;
  std::uint64_t window_ = 0;
};

// "v<thread>_<op>": one writer per value, so a read names its write.
std::string tagged_value(unsigned t, unsigned op, sim::Rng&) {
  return "v" + std::to_string(t) + "_" + std::to_string(op);
}

}  // namespace

std::unique_ptr<Target> make_pmemlib_target(const TargetOptions& opts) {
  return std::make_unique<PmemlibTarget>(opts);
}
std::unique_ptr<Target> make_novafs_target(const TargetOptions& opts) {
  return std::make_unique<NovafsTarget>(opts);
}

// Group commit in windows of 3 records; a 2 KB memtable and an L0
// trigger of 2 pull flushes and a merge into the run.
std::unique_ptr<Target> make_lsmkv_target(const TargetOptions& opts) {
  kv::DbOptions o;  // flex WAL, volatile memtable, synced per op
  o.wal_capacity = 1 << 20;
  o.memtable_bytes = 2 << 10;
  o.l0_compaction_trigger = 2;
  o.wal_checksum = true;
  o.wal_group_commit = true;
  o.wal_group_size = 3;
  return std::make_unique<KvTarget>(
      KvRow{.name = "lsmkv",
            .make = [o](std::span<hw::PmemNamespace* const> ns) {
              return workload::make_lsmkv_store(*ns[0], o);
            },
            .keys = 5,
            .puts = 3,
            .gets = 2,
            .dels = 1,
            .rmws = 2,
            .value = tagged_value},
      opts);
}

// cmap with bounded writer lanes (the lane admission/release points are
// schedmc yields). An 8-byte value stays in place, 24 goes
// transactional.
std::unique_ptr<Target> make_cmap_target(const TargetOptions& opts) {
  pmemkv::CMapOptions o;
  o.max_writers_per_dimm = 2;
  return std::make_unique<KvTarget>(
      KvRow{.name = "cmap",
            .make = [o](std::span<hw::PmemNamespace* const> ns) {
              return workload::make_cmap_store(*ns[0], o);
            },
            .key_prefix = "c",
            .puts = 4,
            .gets = 2,
            .dels = 2,
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
            .make = [](std::span<hw::PmemNamespace* const> ns) {
              return workload::make_stree_store(*ns[0],
                                                pmemkv::STreeOptions{});
            },
            .key_prefix = "t",
            .key_width = 2,
            .keys = 12,
            .puts = 5,
            .gets = 2,
            .dels = 1,
            .value = tagged_value},
      opts);
}

// Two per-DIMM lsmkv shards with deferred compaction. Singles are durable
// at return (no write combining); a batch commits one WAL group per
// shard it touches. The preload leaves both shards with merges pending,
// so the donor's turns run real merges against live traffic.
std::unique_ptr<Target> make_sharded_target(const TargetOptions& opts) {
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kLsmkv;
  so.tuning.memtable_bytes = 2 << 10;
  so.tuning.background_compaction = true;
  so.writer_lanes = true;
  return std::make_unique<KvTarget>(
      KvRow{.name = "sharded-lsmkv",
            .shards = 2,
            .ns_bytes = 16ull << 20,
            .make = [so](std::span<hw::PmemNamespace* const> ns) {
              return std::make_unique<workload::ShardedStore>(ns, so);
            },
            .puts = 3,
            .gets = 2,
            .dels = 1,
            .batches = 2,
            .rmws = 2,
            .value = tagged_value,
            .preload = 48,
            .bg_turns = 6},
      opts);
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

std::vector<std::unique_ptr<Target>> extra_targets(const TargetOptions& opts) {
  std::vector<std::unique_ptr<Target>> v;
  v.push_back(make_sharded_target(opts));
  return v;
}

}  // namespace xp::schedmc
