// StoreIface adapters for the four store families. Each is built from
// the family's own options (make_*_store), forwards ops 1:1 and adds no
// simulated time of its own; make_store maps the shared StoreTuning
// knobs onto those options.
#include "workload/store_iface.h"

#include <cassert>

#include "lsmkv/db.h"
#include "novafs/novafs.h"
#include "pmemkv/cmap.h"
#include "pmemkv/stree.h"
#include "pmemlib/pool.h"

namespace xp::workload {

const char* store_kind_name(StoreKind k) {
  switch (k) {
    case StoreKind::kLsmkv: return "lsmkv";
    case StoreKind::kCmap: return "cmap";
    case StoreKind::kStree: return "stree";
    case StoreKind::kNova: return "nova";
  }
  return "?";
}

const char* op_status_name(OpStatus s) {
  switch (s) {
    case OpStatus::kOk: return "ok";
    case OpStatus::kNotFound: return "not_found";
    case OpStatus::kMediaError: return "media_error";
    case OpStatus::kUnavailable: return "unavailable";
    case OpStatus::kDataLoss: return "data_loss";
  }
  return "?";
}

void StoreIface::apply_batch(sim::ThreadCtx& ctx,
                             std::span<const BatchOp> ops) {
  for (const BatchOp& op : ops) {
    if (op.del)
      del(ctx, op.key);
    else
      put(ctx, op.key, op.value);
  }
  flush_pending(ctx);
}

namespace {

// Shared translation for the default try_* wrappers: run `fn`, contain a
// thrown hw::MediaError as a typed status — unless the platform froze
// (armed read-fault campaign: the machine check was fatal), in which
// case the exception keeps propagating like the process death it models.
template <typename Fn>
OpResult contain_media(const StoreIface& store, Fn&& fn) {
  OpResult r;
  try {
    fn(r);
  } catch (const hw::MediaError&) {
    const hw::Platform* p = store.platform_of();
    if (p != nullptr && p->frozen()) throw;
    r.status = OpStatus::kMediaError;
  }
  return r;
}

}  // namespace

OpResult StoreIface::try_put(sim::ThreadCtx& ctx, std::string_view key,
                             std::string_view value) {
  return contain_media(*this, [&](OpResult&) { put(ctx, key, value); });
}

OpResult StoreIface::try_get(sim::ThreadCtx& ctx, std::string_view key,
                             std::string* value) {
  return contain_media(*this, [&](OpResult& r) {
    if (!get(ctx, key, value)) r.status = OpStatus::kNotFound;
  });
}

OpResult StoreIface::try_del(sim::ThreadCtx& ctx, std::string_view key,
                             bool* found) {
  return contain_media(*this, [&](OpResult& r) {
    const bool f = del(ctx, key);
    if (found != nullptr) *found = f;
    if (!f && del_reports_found()) r.status = OpStatus::kNotFound;
  });
}

OpResult StoreIface::try_scan(
    sim::ThreadCtx& ctx, std::string_view start, std::size_t n,
    std::vector<std::pair<std::string, std::string>>* out) {
  return contain_media(*this, [&](OpResult&) { *out = scan(ctx, start, n); });
}

OpResult StoreIface::try_apply_batch(sim::ThreadCtx& ctx,
                                     std::span<const BatchOp> ops) {
  return contain_media(*this, [&](OpResult&) { apply_batch(ctx, ops); });
}

namespace {

class LsmkvStore final : public StoreIface {
 public:
  LsmkvStore(hw::PmemNamespace& ns, const kv::DbOptions& o)
      : ns_(ns), db_(ns, o) {}

  const char* name() const override { return "lsmkv"; }
  StoreKind kind() const override { return StoreKind::kLsmkv; }
  void create(sim::ThreadCtx& ctx) override {
    db_.create(ctx);
    opened_ = true;
  }
  bool open(sim::ThreadCtx& ctx) override {
    opened_ = db_.open(ctx);  // may throw: repair_media reports the loss
    return opened_;
  }
  void put(sim::ThreadCtx& ctx, std::string_view k,
           std::string_view v) override {
    db_.put(ctx, k, v);
  }
  bool get(sim::ThreadCtx& ctx, std::string_view k,
           std::string* v) override {
    return db_.get(ctx, k, v);
  }
  bool del(sim::ThreadCtx& ctx, std::string_view k) override {
    db_.del(ctx, k);  // blind tombstone: existence is not reported
    return true;
  }
  bool del_reports_found() const override { return false; }
  std::vector<std::pair<std::string, std::string>> scan(
      sim::ThreadCtx& ctx, std::string_view start, std::size_t n) override {
    return db_.scan(ctx, start, n);
  }
  void apply_batch(sim::ThreadCtx& ctx,
                   std::span<const BatchOp> ops) override {
    std::vector<kv::WalRecord> recs;
    recs.reserve(ops.size());
    for (const BatchOp& op : ops) recs.push_back({op.key, op.value, op.del});
    db_.put_batch(ctx, recs);
  }
  void flush_pending(sim::ThreadCtx& ctx) override { db_.commit_pending(ctx); }
  std::size_t pending_records() const override {
    return db_.pending_records();
  }
  bool background_turn(sim::ThreadCtx& ctx) override {
    return db_.background_work(ctx);
  }
  bool background_busy() const override { return db_.merge_in_progress(); }
  Status check(sim::ThreadCtx& ctx) override { return db_.check(ctx); }
  hw::Platform* platform_of() const override { return &ns_.platform(); }
  Status repair_media(sim::ThreadCtx& ctx) override {
    // Critical metadata unreadable even after the manifest/pool backups.
    if (!opened_) return Status::DataLoss("no readable database");
    db_.repair(ctx);  // RecoveryInfo-driven salvage: quarantine bad SSTs
    return db_.check(ctx);
  }
  bool damage_reported() const override {
    return db_.recovery().damaged() || db_.pool().recovery().damaged();
  }

 private:
  hw::PmemNamespace& ns_;
  kv::Db db_;
  bool opened_ = false;
};

// cmap and stree: a structure on a pmem::Pool, so check() and
// repair_media() cover the pool's header, lanes and free list as well as
// the structure itself.
template <typename Map, typename Options, StoreKind Kind>
class PoolStore final : public StoreIface {
 public:
  PoolStore(hw::PmemNamespace& ns, const Options& o)
      : ns_(ns), pool_(ns), map_(pool_, o) {}

  const char* name() const override { return store_kind_name(Kind); }
  StoreKind kind() const override { return Kind; }
  void create(sim::ThreadCtx& ctx) override {
    pool_.create(ctx, 64);
    map_.create(ctx);
    pool_open_ = map_open_ = true;
  }
  bool open(sim::ThreadCtx& ctx) override {
    pool_open_ = pool_.open(ctx);
    if (!pool_open_) return false;
    map_.open(ctx);  // may throw: repair_media decides what is salvageable
    map_open_ = true;
    return true;
  }
  void put(sim::ThreadCtx& ctx, std::string_view k,
           std::string_view v) override {
    if constexpr (Kind == StoreKind::kStree) {
      const bool ok = map_.put(ctx, k, v);
      assert(ok && "stree keys are capped at 31 bytes");
      (void)ok;
    } else {
      map_.put(ctx, k, v);
    }
  }
  bool get(sim::ThreadCtx& ctx, std::string_view k,
           std::string* v) override {
    return map_.get(ctx, k, v);
  }
  bool del(sim::ThreadCtx& ctx, std::string_view k) override {
    return map_.remove(ctx, k);
  }
  // cmap is hash-ordered: no scan.
  bool supports_scan() const override { return Kind == StoreKind::kStree; }
  std::vector<std::pair<std::string, std::string>> scan(
      sim::ThreadCtx& ctx, std::string_view start, std::size_t n) override {
    if constexpr (Kind == StoreKind::kStree) return map_.scan(ctx, start, n);
    return {};
  }
  Status check(sim::ThreadCtx& ctx) override {
    if (Status st = pool_.check(ctx); !st.ok()) return st;
    return map_.check(ctx);
  }
  hw::Platform* platform_of() const override { return &ns_.platform(); }
  Status repair_media(sim::ThreadCtx& ctx) override {
    if (!pool_open_) return Status::DataLoss("no valid pool header");
    if (!map_open_ && Kind == StoreKind::kCmap) {
      // The root pointer to the bucket table is gone. Scrub so the
      // namespace is at least readable again. (stree's repair copes with
      // a half-built index: it re-reads the root once damage is mapped.)
      pool_.repair(ctx);
      return Status::DataLoss("cmap bucket table unreadable");
    }
    map_.repair(ctx);   // excise damaged nodes before scrubbing zeroes them
    pool_.repair(ctx);  // revalidate the free list over the scrubbed lines
    return check(ctx);
  }
  bool damage_reported() const override {
    return map_.recovery().damaged() || pool_.recovery().damaged();
  }

 private:
  hw::PmemNamespace& ns_;
  pmem::Pool pool_;
  Map map_;
  bool pool_open_ = false;
  bool map_open_ = false;
};

using CMapStore =
    PoolStore<pmemkv::CMap, pmemkv::CMapOptions, StoreKind::kCmap>;
using STreeStore =
    PoolStore<pmemkv::STree, pmemkv::STreeOptions, StoreKind::kStree>;

// KV over novafs: one file per key, value = file contents. Ordered scan
// walks the DRAM name index.
class NovaStore final : public StoreIface {
 public:
  NovaStore(hw::PmemNamespace& ns, const nova::NovaOptions& o)
      : ns_(ns), fs_(ns, o) {}

  const char* name() const override { return "nova"; }
  StoreKind kind() const override { return StoreKind::kNova; }
  void create(sim::ThreadCtx& ctx) override { fs_.format(ctx); }
  bool open(sim::ThreadCtx& ctx) override { return fs_.mount(ctx); }
  void put(sim::ThreadCtx& ctx, std::string_view k,
           std::string_view v) override {
    const std::string name(k);
    int ino = fs_.open(ctx, name);
    if (ino < 0) ino = fs_.create(ctx, name);
    assert(ino >= 0);
    fs_.write(ctx, ino, 0,
              {reinterpret_cast<const std::uint8_t*>(v.data()), v.size()});
    // An overwrite by a shorter value must not leave the old tail.
    if (fs_.size(ctx, ino) != v.size()) fs_.truncate(ctx, ino, v.size());
  }
  bool get(sim::ThreadCtx& ctx, std::string_view k,
           std::string* v) override {
    const int ino = fs_.open(ctx, std::string(k));
    if (ino < 0) return false;
    v->resize(fs_.size(ctx, ino));
    const std::size_t n = fs_.read(
        ctx, ino, 0,
        {reinterpret_cast<std::uint8_t*>(v->data()), v->size()});
    v->resize(n);
    return true;
  }
  bool del(sim::ThreadCtx& ctx, std::string_view k) override {
    return fs_.unlink(ctx, std::string(k));
  }
  std::vector<std::pair<std::string, std::string>> scan(
      sim::ThreadCtx& ctx, std::string_view start, std::size_t n) override {
    std::vector<std::pair<std::string, std::string>> out;
    for (auto it = fs_.names().lower_bound(std::string(start));
         it != fs_.names().end() && out.size() < n; ++it) {
      std::string v;
      if (get(ctx, it->first, &v)) out.emplace_back(it->first, std::move(v));
    }
    return out;
  }
  Status check(sim::ThreadCtx& ctx) override { return fs_.fsck(ctx); }
  hw::Platform* platform_of() const override { return &ns_.platform(); }

 private:
  hw::PmemNamespace& ns_;
  nova::NovaFs fs_;
};

}  // namespace

std::unique_ptr<StoreIface> make_lsmkv_store(hw::PmemNamespace& ns,
                                             const kv::DbOptions& opts) {
  return std::make_unique<LsmkvStore>(ns, opts);
}
std::unique_ptr<StoreIface> make_cmap_store(
    hw::PmemNamespace& ns, const pmemkv::CMapOptions& opts) {
  return std::make_unique<CMapStore>(ns, opts);
}
std::unique_ptr<StoreIface> make_stree_store(
    hw::PmemNamespace& ns, const pmemkv::STreeOptions& opts) {
  return std::make_unique<STreeStore>(ns, opts);
}

std::unique_ptr<StoreIface> make_store(StoreKind kind, hw::PmemNamespace& ns,
                                       const StoreTuning& t) {
  const std::size_t cache_lines = t.read_path ? t.read_cache_lines : 0;
  switch (kind) {
    case StoreKind::kLsmkv: {
      kv::DbOptions o;
      // Shard namespaces are tens of MiB, not the 256 MiB single-store
      // benches use; a WAL a few times the memtable is plenty (it is
      // truncated at every flush).
      o.wal_capacity = 4 << 20;
      o.memtable_bytes = t.memtable_bytes;
      o.wal_group_commit = t.write_combine;
      o.read_combine = t.read_path;
      o.read_cache_lines = cache_lines;
      o.background_compaction = t.background_compaction;
      return make_lsmkv_store(ns, o);
    }
    case StoreKind::kCmap: {
      pmemkv::CMapOptions o;
      o.read_combine = t.read_path;
      o.read_cache_lines = cache_lines;
      return make_cmap_store(ns, o);
    }
    case StoreKind::kStree: {
      pmemkv::STreeOptions o;
      o.read_combine = t.read_path;
      o.read_cache_lines = cache_lines;
      return make_stree_store(ns, o);
    }
    case StoreKind::kNova: {
      nova::NovaOptions o;
      o.datalog = true;  // values are sub-page; embed them in the log
      o.batch_log_appends = t.write_combine;
      o.read_combine = t.read_path;
      o.read_cache_lines = cache_lines;
      return std::make_unique<NovaStore>(ns, o);
    }
  }
  return nullptr;
}

}  // namespace xp::workload
