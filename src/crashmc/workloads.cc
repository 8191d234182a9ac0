#include "crashmc/workloads.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>

#include "lsmkv/common.h"
#include "novafs/novafs.h"
#include "pmemkv/cmap.h"
#include "pmemkv/stree.h"
#include "pmemlib/pmem_ops.h"
#include "pmemlib/pool.h"
#include "sim/rng.h"
#include "workload/shard.h"
#include "xpsim/fault.h"

namespace xp::crashmc {

namespace {

sim::ThreadCtx make_thread(unsigned id) {
  return sim::ThreadCtx({.id = id, .socket = 0, .mlp = 8, .seed = id + 1});
}

// ------------------------------------------------------------- pmemlib --

// Versioned-slot workload: each thread owns half of the root's slots and
// bumps two of them per transaction (with allocator churn in the same
// tx). Slot s at version v holds encode(s, v), so recovery can verify
// both the version window [acked, attempted] and the exact bytes.
class PmemlibTarget final : public Target {
 public:
  explicit PmemlibTarget(bool inject) : inject_(inject) {}

  std::string name() const override {
    return inject_ ? "pmemlib-faulty" : "pmemlib";
  }

  hw::Platform& reset() override {
    platform_ = std::make_unique<hw::Platform>();
    ns_ = &platform_->optane(8 << 20);
    sim::ThreadCtx ctx = make_thread(0);
    pmem::Pool pool(*ns_);
    pool.create(ctx, kSlots * 8);
    root_ = pool.root(ctx);
    for (unsigned s = 0; s < kSlots; ++s) {
      pmem::store_persist_pod(ctx, *ns_, root_ + s * 8, encode(s, 0));
      acked_[s] = attempted_[s] = 0;
    }
    platform_->reset_timing();
    return *platform_;
  }

  hw::PmemNamespace& nspace() override { return *ns_; }

  void run() override {
    pmem::Pool pool(*ns_);
    if (inject_) pool.set_test_fault(pmem::Pool::TestFault::kSkipCommitFlush);
    sim::ThreadCtx ta = make_thread(0);  // lane 0, slots [0, kSlots/2)
    sim::ThreadCtx tb = make_thread(1);  // lane 1, slots [kSlots/2, kSlots)
    sim::Rng rng(7);
    std::uint64_t held_a = 0, held_b = 0;
    const unsigned rounds = inject_ ? 3 : 5;
    for (unsigned r = 1; r <= rounds; ++r) {
      do_round(pool, ta, 0, r, held_a, rng);
      do_round(pool, tb, kSlots / 2, r, held_b, rng);
    }
  }

  std::string recover_and_check() override {
    sim::ThreadCtx ctx = make_thread(5);
    pmem::Pool pool(*ns_);
    if (!pool.open(ctx)) return "open() found no valid pool";
    if (Status st = pool.check(ctx); !st.ok()) return st.to_string();
    for (unsigned s = 0; s < kSlots; ++s) {
      const auto v = ns_->load_pod<std::uint64_t>(ctx, root_ + s * 8);
      if (v != encode(s, acked_[s]) && v != encode(s, attempted_[s]))
        return "slot " + std::to_string(s) + ": recovered " +
               std::to_string(v) + ", want version " +
               std::to_string(acked_[s]) + " or " +
               std::to_string(attempted_[s]);
    }
    return "";
  }

  std::string repair_and_check() override {
    sim::ThreadCtx ctx = make_thread(5);
    pmem::Pool pool(*ns_);
    // Both header copies gone is a typed, reported total loss — only
    // *silent* corruption violates the containment contract.
    if (!pool.open(ctx)) return "";
    pool.repair(ctx);
    if (Status st = pool.check(ctx); !st.ok()) return st.to_string();
    const bool reported = pool.recovery().damaged();
    for (unsigned s = 0; s < kSlots; ++s) {
      const auto v = ns_->load_pod<std::uint64_t>(ctx, root_ + s * 8);
      if (v == encode(s, acked_[s]) || v == encode(s, attempted_[s]))
        continue;
      // Off the crash-consistent window: allowed only as *reported* media
      // loss, and only to a value the slot actually held (or scrub zeros)
      // — anything else is silent corruption.
      bool historical = v == 0;
      for (std::uint64_t q = 0; q <= attempted_[s] && !historical; ++q)
        historical = v == encode(s, q);
      if (!reported || !historical)
        return "slot " + std::to_string(s) + ": silent corruption (holds " +
               std::to_string(v) + ", damage reported: " +
               (reported ? "yes" : "no") + ")";
    }
    return "";
  }

 private:
  static constexpr unsigned kSlots = 16;

  static std::uint64_t encode(unsigned slot, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(slot) << 32) | seq;
  }

  void do_round(pmem::Pool& pool, sim::ThreadCtx& ctx, unsigned base,
                std::uint64_t seq, std::uint64_t& held, sim::Rng& rng) {
    const unsigned s1 = base + static_cast<unsigned>(rng.uniform(kSlots / 2));
    unsigned s2 = base + static_cast<unsigned>(rng.uniform(kSlots / 2));
    if (s2 == s1) s2 = base + (s1 - base + 1) % (kSlots / 2);

    attempted_[s1] = seq;
    attempted_[s2] = seq;
    pmem::Tx tx(pool, ctx);
    for (unsigned s : {s1, s2}) {
      tx.add(root_ + s * 8, 8);
      const std::uint64_t v = encode(s, seq);
      tx.store(root_ + s * 8,
               std::span<const std::uint8_t>(
                   reinterpret_cast<const std::uint8_t*>(&v), 8));
    }
    // Allocator churn: free last round's block, grab a new one.
    if (held != 0) pool.tx_free(tx, held, 64);
    held = pool.tx_alloc(tx, 64 + 64 * rng.uniform(3));
    tx.commit();
    acked_[s1] = seq;
    acked_[s2] = seq;
  }

  bool inject_;
  std::unique_ptr<hw::Platform> platform_;
  hw::PmemNamespace* ns_ = nullptr;
  std::uint64_t root_ = 0;
  std::uint64_t acked_[kSlots] = {};
  std::uint64_t attempted_[kSlots] = {};
};

// -------------------------------------------------------------- novafs --

// Single-page writes (embedded and CoW), page-aligned truncates and
// create/unlink are each committed by one atomic log append, so the
// recovered file set must byte-match the pre- or post-op state. Low
// merge/clean thresholds pull the overlay merge and the log cleaner into
// the crash window.
class NovafsTarget final : public Target {
 public:
  NovafsTarget(bool log_checksum, bool batch_appends)
      : log_checksum_(log_checksum), batch_appends_(batch_appends) {}

  std::string name() const override {
    return batch_appends_ ? "novafs-batch" : "novafs";
  }

  hw::Platform& reset() override {
    platform_ = std::make_unique<hw::Platform>();
    ns_ = &platform_->optane(8 << 20);
    opt_ = nova::NovaOptions{};
    opt_.datalog = true;
    opt_.merge_threshold = 4;
    opt_.clean_threshold = 6;
    opt_.log_checksum = log_checksum_;
    opt_.batch_log_appends = batch_appends_;
    fs_ = std::make_unique<nova::NovaFs>(*ns_, opt_);
    sim::ThreadCtx ctx = make_thread(0);
    fs_->format(ctx);
    prev_.clear();
    cur_.clear();
    platform_->reset_timing();
    return *platform_;
  }

  hw::PmemNamespace& nspace() override { return *ns_; }

  void run() override {
    sim::ThreadCtx ctx = make_thread(0);
    sim::Rng rng(13);
    const std::string names[] = {"alpha", "beta", "gamma"};
    for (unsigned op = 0; op < kOps; ++op) {
      const std::string& name = names[rng.uniform(3)];
      prev_ = cur_;
      const std::uint64_t action = rng.uniform(8);
      if (cur_.count(name) == 0) {
        // Bring the file into existence (atomic: inode + dirent append).
        cur_[name] = "";
        fs_->create(ctx, name);
      } else if (action == 0) {
        cur_.erase(name);
        fs_->unlink(ctx, name);
      } else if (action == 1) {
        const std::uint64_t new_size = rng.uniform(4) * nova::NovaFs::kPageSize;
        cur_[name].resize(new_size, '\0');
        const int ino = fs_->open(ctx, name);
        fs_->truncate(ctx, ino, new_size);
      } else if (action == 2) {
        // Full-page CoW write.
        const std::uint64_t page = rng.uniform(3);
        write(ctx, name, page * nova::NovaFs::kPageSize,
              nova::NovaFs::kPageSize, static_cast<char>('A' + op % 26));
      } else if (batch_appends_ && action == 3) {
        // Rename onto another live name. Batched, the deletion + insertion
        // dirents commit as one atomic directory-log burst, so the model
        // can move the file atomically; the per-entry path cannot promise
        // this (a crash between the dirents loses both names).
        const std::string& to = names[rng.uniform(3)];
        if (to != name) {
          cur_[to] = cur_[name];
          cur_.erase(name);
          fs_->rename(ctx, name, to);
        }
      } else if (batch_appends_ && action == 4) {
        // Write straddling a page boundary: two embedded entries, which
        // only the batched log path commits atomically (one chunk).
        const std::uint64_t page = rng.uniform(2);
        const std::uint64_t len = 200 + rng.uniform(400);
        const std::uint64_t off =
            (page + 1) * nova::NovaFs::kPageSize - len / 2;
        write(ctx, name, off, len, static_cast<char>('a' + op % 26));
      } else {
        // Small write, embedded in the log; stays inside one page.
        const std::uint64_t page = rng.uniform(3);
        const std::uint64_t len = 1 + rng.uniform(400);
        const std::uint64_t in_page =
            rng.uniform(nova::NovaFs::kPageSize - len);
        write(ctx, name, page * nova::NovaFs::kPageSize + in_page, len,
              static_cast<char>('a' + op % 26));
      }
    }
  }

  std::string recover_and_check() override {
    sim::ThreadCtx ctx = make_thread(5);
    nova::NovaFs fs(*ns_, opt_);
    if (!fs.mount(ctx)) return "mount() found no valid file system";
    if (Status st = fs.fsck(ctx); !st.ok()) return st.to_string();
    const std::map<std::string, std::string> got = read_files(fs, ctx);
    if (got != prev_ && got != cur_)
      return "recovered file set matches neither the pre-op nor the "
             "post-op state";
    return "";
  }

  std::string repair_and_check() override {
    sim::ThreadCtx ctx = make_thread(5);
    nova::NovaFs fs(*ns_, opt_);
    bool mounted = false;
    try {
      mounted = fs.mount(ctx);
    } catch (const hw::MediaError&) {
      return "";  // typed, reported total loss
    }
    if (!mounted) return "";  // both superblock copies gone: reported loss
    fs.repair(ctx);
    if (Status st = fs.fsck(ctx); !st.ok()) return st.to_string();
    const std::map<std::string, std::string> got = read_files(fs, ctx);
    if (got == prev_ || got == cur_) return "";
    // Repair may legally drop overlays/log suffixes (older committed
    // bytes resurface) — but only as *reported* damage.
    if (!fs.recovery().damaged())
      return "silent corruption: recovered file set diverges from the "
             "pre-/post-op states with no damage reported";
    return "";
  }

 private:
  static constexpr unsigned kOps = 28;

  static std::map<std::string, std::string> read_files(nova::NovaFs& fs,
                                                       sim::ThreadCtx& ctx) {
    std::map<std::string, std::string> got;
    for (const char* name : {"alpha", "beta", "gamma"}) {
      const int ino = fs.open(ctx, name);
      if (ino < 0) continue;
      const std::uint64_t size = fs.size(ctx, ino);
      std::string content(size, '\0');
      fs.read(ctx, ino, 0,
              std::span<std::uint8_t>(
                  reinterpret_cast<std::uint8_t*>(content.data()), size));
      got[name] = std::move(content);
    }
    return got;
  }

  // `len` bytes of `fill` at `off`, into the model and then the file.
  void write(sim::ThreadCtx& ctx, const std::string& name, std::uint64_t off,
             std::uint64_t len, char fill) {
    std::string& content = cur_[name];
    if (content.size() < off + len) content.resize(off + len, '\0');
    std::memset(content.data() + off, fill, len);
    const std::vector<std::uint8_t> buf(len, static_cast<std::uint8_t>(fill));
    fs_->write(ctx, fs_->open(ctx, name), off, buf);
  }

  bool log_checksum_;
  bool batch_appends_;
  std::unique_ptr<hw::Platform> platform_;
  hw::PmemNamespace* ns_ = nullptr;
  nova::NovaOptions opt_;
  std::unique_ptr<nova::NovaFs> fs_;
  std::map<std::string, std::string> prev_, cur_;
};

// ------------------------------------------------------------------ KV --

// One KV workload as a row of data, run by KvTarget against any
// StoreIface: a single-family adapter or a ShardedStore.
struct KvRow {
  static constexpr unsigned kNever = ~0u;

  std::string name;
  // 1: one interleaved namespace; N > 1: one per-DIMM namespace each.
  unsigned shards = 1;
  std::uint64_t ns_bytes = 8 << 20;
  std::function<std::unique_ptr<workload::StoreIface>(
      std::span<hw::PmemNamespace* const>)>
      make;
  std::uint64_t seed = 0;
  // Key universe: key_prefix + index zero-padded to key_width digits.
  const char* key_prefix = "key";
  unsigned key_width = 0;
  unsigned keys = 8;
  // Records written (each record of a batch counts).
  unsigned ops = 0;
  // A record deletes its key with probability 1/del_one_in if it is live.
  unsigned del_one_in = 4;
  std::string (*value)(const std::string& key, unsigned op,
                       sim::Rng& rng) = nullptr;
  // An op is a batch of batch_min + uniform(batch_span) records with
  // probability 1/batch_one_in (1: always, 0: never).
  unsigned batch_one_in = 0;
  unsigned batch_min = 1;
  unsigned batch_span = 0;
  // bg_turns donated background turns after every bg_every-th op.
  unsigned bg_every = 0;
  unsigned bg_turns = 0;
  // Read each single op's key back (a frontend's read-error budget).
  bool read_back = false;
  // Before this op, 3 seeded poison lines land in the first namespace.
  unsigned poison_at = kNever;
  // Recoveries per check; 2 also requires recovering a recovered image
  // to be a fixed point.
  unsigned recovery_rounds = 1;
};

// key#op plus Span-bounded filler: records of varying length.
template <unsigned Span>
std::string filler_value(const std::string& key, unsigned op, sim::Rng& rng) {
  return key + "#" + std::to_string(op) +
         std::string(4 + rng.uniform(Span), 'a' + static_cast<char>(op % 26));
}

// Header + key + value inside one 64 B line: a matching size updates in
// place (one atomic line persist), a differing size replaces
// transactionally.
std::string cmap_value(const std::string& key, unsigned op, sim::Rng& rng) {
  const std::size_t len = rng.uniform(2) == 0 ? 8 : 24;
  std::string val = key + "#" + std::to_string(op);
  val.resize(len, 'x');
  return val;
}

std::string stree_value(const std::string& key, unsigned op, sim::Rng& rng) {
  return key + "=" + std::to_string(op) + std::string(rng.uniform(12), 'v');
}

// Every record is acknowledged durable when its op returns (each row's
// store syncs per op or per batch), so the recovered state must be the
// state before or after the in-flight op. The model is per shard: a
// batch commits atomically per shard slice, not across shards, so each
// shard's restriction of the recovered state is checked on its own; with
// one shard this is the whole-store pre/post check.
class KvTarget final : public Target {
 public:
  explicit KvTarget(KvRow row) : row_(std::move(row)) {}

  std::string name() const override { return row_.name; }

  hw::Platform& reset() override {
    platform_ = std::make_unique<hw::Platform>();
    ns_ = workload::row_namespaces(*platform_, row_.shards, row_.ns_bytes);
    store_ = row_.make(ns_);
    sim::ThreadCtx ctx = make_thread(0);
    store_->create(ctx);
    prev_.clear();
    cur_.clear();
    history_.clear();
    platform_->reset_timing();
    return *platform_;
  }

  hw::PmemNamespace& nspace() override { return *ns_[0]; }

  void run() override {
    sim::ThreadCtx ctx = make_thread(0);
    sim::Rng rng(row_.seed);
    for (unsigned op = 0, step = 0; op < row_.ops; ++step) {
      if (step == row_.poison_at) {
        hw::FaultInjector inj(*platform_, 7);
        inj.poison_random(*ns_[0], 0, ns_[0]->size(), 3);
      }
      prev_ = cur_;
      const bool batch =
          row_.batch_one_in == 1 ||
          (row_.batch_one_in > 1 && rng.uniform(row_.batch_one_in) == 0);
      workload::OpResult r;
      std::string key;
      if (batch) {
        std::vector<workload::BatchOp> recs(std::min<unsigned>(
            row_.ops - op,
            row_.batch_min + static_cast<unsigned>(rng.uniform(row_.batch_span))));
        for (workload::BatchOp& b : recs) b = next_record(op++, rng);
        r = store_->try_apply_batch(ctx, recs);
      } else {
        const workload::BatchOp b = next_record(op++, rng);
        key = b.key;
        r = b.del ? store_->try_del(ctx, b.key)
                  : store_->try_put(ctx, b.key, b.value);
      }
      // An op no copy took was not acknowledged and had no effect.
      if (r.status == workload::OpStatus::kUnavailable) cur_ = prev_;
      if (row_.read_back && !batch) {
        std::string v;
        (void)store_->try_get(ctx, key, &v);
      }
      // Donated turns put crash points inside deferred merges and online
      // rebuilds (neither changes the logical state).
      if (row_.bg_every != 0 && step % row_.bg_every == row_.bg_every - 1)
        for (unsigned i = 0; i < row_.bg_turns; ++i)
          store_->background_turn(ctx);
    }
    // Finish deferred work (an in-flight rebuild) under continued service.
    for (unsigned i = 0; i < 400 && store_->background_turn(ctx); ++i) {
    }
    store_->flush_pending(ctx);
  }

  std::string recover_and_check() override { return recover(false); }
  std::string repair_and_check() override { return recover(true); }

 private:
  using State = std::map<std::string, std::string>;

  std::string key_name(unsigned k) const {
    std::string digits = std::to_string(k);
    if (digits.size() < row_.key_width)
      digits.insert(0, row_.key_width - digits.size(), '0');
    return row_.key_prefix + digits;
  }

  // Draws one record (key, delete-or-value) and applies it to the model.
  workload::BatchOp next_record(unsigned op, sim::Rng& rng) {
    workload::BatchOp b;
    b.key = key_name(static_cast<unsigned>(rng.uniform(row_.keys)));
    b.del = rng.uniform(row_.del_one_in) == 0 && cur_.count(b.key) != 0;
    if (b.del) {
      cur_.erase(b.key);
    } else {
      b.value = row_.value(b.key, op, rng);
      cur_[b.key] = b.value;
      history_[b.key].insert(b.value);
    }
    return b;
  }

  State shard_slice(const State& s, unsigned shard) const {
    State out;
    for (const auto& [k, v] : s)
      if (workload::shard_of(k, row_.shards) == shard) out.emplace(k, v);
    return out;
  }

  std::string recover(bool repair) {
    for (unsigned round = 0; round < row_.recovery_rounds; ++round) {
      const std::string err = recover_once(repair, round);
      if (!err.empty()) return err;
    }
    return "";
  }

  // Crash mode: re-open with fresh objects and require every invariant
  // plus the per-shard pre/post state. Repair mode (after media faults):
  // run the store's salvage; media damage may cost committed data, but
  // only *reported* loss is acceptable, and every surviving value must
  // be one its key actually held.
  std::string recover_once(bool repair, unsigned round) {
    sim::ThreadCtx ctx = make_thread(5 + round);
    const std::unique_ptr<workload::StoreIface> store = row_.make(ns_);
    if (repair) {
      try {
        store->open(ctx);
      } catch (const hw::MediaError&) {
        // repair_media decides what is still salvageable.
      }
      // No readable store left is a typed, reported total loss: the
      // contract forbids only *silent* corruption.
      if (Status st = store->repair_media(ctx); !st.ok())
        return st.code() == ErrorCode::kDataLoss ? "" : st.to_string();
    } else if (!store->open(ctx)) {
      return "open() found no valid store (round " + std::to_string(round) +
             ")";
    }
    // Health is re-derived from the media state at open, so a crash
    // mid-rebuild lands back in quarantine: finish before judging state.
    for (unsigned turns = 0; store->background_turn(ctx);)
      if (++turns == 800) return "background work did not converge";
    if (!repair)
      if (Status st = store->check(ctx); !st.ok()) return st.to_string();

    State got;
    for (unsigned k = 0; k < row_.keys; ++k) {
      const std::string key = key_name(k);
      std::string v;
      const workload::OpResult r = store->try_get(ctx, key, &v);
      if (r.ok())
        got[key] = v;
      else if (r.status != workload::OpStatus::kNotFound)
        return std::string("typed error after recovery: ") +
               workload::op_status_name(r.status) + " for " + key;
    }
    bool diverged = false;
    for (unsigned s = 0; s < row_.shards; ++s) {
      const State mine = shard_slice(got, s);
      if (mine == shard_slice(prev_, s) || mine == shard_slice(cur_, s))
        continue;
      if (!repair)
        return "shard " + std::to_string(s) +
               ": recovered state matches neither its pre-op nor its "
               "post-op state (" +
               std::to_string(mine.size()) + " live keys, round " +
               std::to_string(round) + ")";
      diverged = true;
    }
    if (!diverged) return "";
    if (!store->damage_reported())
      return "silent corruption: recovered state diverges from the pre-/"
             "post-op states with no damage reported";
    for (const auto& [key, val] : got) {
      const auto it = history_.find(key);
      if (it == history_.end() || it->second.count(val) == 0)
        return "silent corruption: key " + key + " holds a never-written "
               "value";
    }
    return "";
  }

  KvRow row_;
  std::unique_ptr<hw::Platform> platform_;
  std::vector<hw::PmemNamespace*> ns_;
  std::unique_ptr<workload::StoreIface> store_;
  State prev_, cur_;
  std::map<std::string, std::set<std::string>> history_;
};

}  // namespace

std::unique_ptr<Target> make_pmemlib_target(bool inject_commit_fault) {
  return std::make_unique<PmemlibTarget>(inject_commit_fault);
}
std::unique_ptr<Target> make_novafs_target(bool log_checksum,
                                           bool batch_appends) {
  return std::make_unique<NovafsTarget>(log_checksum, batch_appends);
}

// Small memtable and a low L0 trigger pull flushes and a compaction into
// the crash window; every op is WAL-synced before it returns.
std::unique_ptr<Target> make_lsmkv_target(kv::WalMode mode,
                                          bool wal_checksum,
                                          bool group_commit) {
  kv::DbOptions o;
  o.wal = mode;
  o.wal_checksum = wal_checksum;
  o.memtable = kv::MemtableMode::kVolatile;
  o.wal_capacity = 1 << 20;
  o.memtable_bytes = 512;
  o.l0_compaction_trigger = 2;
  o.sync_every_op = true;
  o.wal_group_commit = group_commit;
  return std::make_unique<KvTarget>(KvRow{
      .name = std::string(mode == kv::WalMode::kPosix ? "lsmkv-posix"
                                                      : "lsmkv-flex") +
              (group_commit ? "-group" : ""),
      .ns_bytes = 32 << 20,
      .make = [o](std::span<hw::PmemNamespace* const> ns) {
        return workload::make_lsmkv_store(*ns[0], o);
      },
      .seed = 11,
      // Group commit acknowledges a put_batch group at a time; groups
      // coalesce records into one persist burst, so twice the records
      // keep the crash-point count comparable.
      .ops = group_commit ? 96u : 48u,
      .value = filler_value<16>,
      .batch_one_in = group_commit ? 1u : 0u,
      .batch_span = group_commit ? 3u : 0u,
  });
}

// In-place single-line updates plus transactional inserts and removes.
std::unique_ptr<Target> make_cmap_target() {
  return std::make_unique<KvTarget>(KvRow{
      .name = "pmemkv-cmap",
      .make = [](std::span<hw::PmemNamespace* const> ns) {
        return workload::make_cmap_store(*ns[0], pmemkv::CMapOptions{});
      },
      .seed = 17,
      .key_prefix = "k",
      .keys = 12,
      .ops = 40,
      .del_one_in = 5,
      .value = cmap_value,
  });
}

// Enough keys to force (transactional) leaf splits; inserts and removes
// commit via the bitmap persist, updates via the val_off persist.
std::unique_ptr<Target> make_stree_target() {
  return std::make_unique<KvTarget>(KvRow{
      .name = "pmemkv-stree",
      .make = [](std::span<hw::PmemNamespace* const> ns) {
        return workload::make_stree_store(*ns[0], pmemkv::STreeOptions{});
      },
      .seed = 19,
      .key_width = 2,
      .keys = 48,
      .ops = 60,
      .del_one_in = 6,
      .value = stree_value,
  });
}

std::unique_ptr<Target> make_sharded_target() {
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kLsmkv;
  // Singles must be durable at return for the pre/post model, so no
  // group-commit buffering; batches still commit as one WAL group burst
  // per shard (Db::put_batch groups unconditionally).
  so.tuning.write_combine = false;
  so.tuning.background_compaction = true;
  so.tuning.memtable_bytes = 1 << 10;  // flush + merge under the run
  so.writer_lanes = true;
  return std::make_unique<KvTarget>(KvRow{
      .name = "sharded-lsmkv",
      .shards = 2,
      .ns_bytes = 16ull << 20,
      .make = [so](std::span<hw::PmemNamespace* const> ns) {
        return std::make_unique<workload::ShardedStore>(ns, so);
      },
      .seed = 13,
      .ops = 96,
      .value = filler_value<12>,
      .batch_one_in = 3,
      .batch_min = 2,
      .batch_span = 3,
      .bg_every = 4,
      .bg_turns = 1,
  });
}

std::unique_ptr<Target> make_resilient_target() {
  workload::ShardOptions so;
  so.kind = workload::StoreKind::kLsmkv;
  so.replicas = 2;
  so.tuning.write_combine = false;  // singles durable at return
  so.tuning.memtable_bytes = 1 << 10;
  so.writer_lanes = true;
  so.quarantine_after = 1;  // fail fast: one read error quarantines
  return std::make_unique<KvTarget>(KvRow{
      .name = "resilient-lsmkv",
      .shards = 2,
      .ns_bytes = 16ull << 20,
      .make = [so](std::span<hw::PmemNamespace* const> ns) {
        return std::make_unique<workload::ShardedStore>(ns, so);
      },
      .seed = 29,
      .ops = 30,
      .value = filler_value<12>,
      .bg_every = 1,
      .bg_turns = 2,
      .read_back = true,
      .poison_at = 10,
      .recovery_rounds = 2,
  });
}

std::vector<std::unique_ptr<Target>> all_targets(bool checksums) {
  std::vector<std::unique_ptr<Target>> targets;
  targets.push_back(make_pmemlib_target());
  targets.push_back(make_lsmkv_target(kv::WalMode::kFlex, checksums));
  targets.push_back(make_lsmkv_target(kv::WalMode::kFlex, checksums,
                                      /*group_commit=*/true));
  targets.push_back(make_novafs_target(checksums));
  targets.push_back(make_novafs_target(checksums, /*batch_appends=*/true));
  targets.push_back(make_cmap_target());
  targets.push_back(make_stree_target());
  return targets;
}

std::vector<std::unique_ptr<Target>> extra_targets(bool checksums) {
  std::vector<std::unique_ptr<Target>> targets;
  targets.push_back(make_lsmkv_target(kv::WalMode::kPosix, checksums));
  targets.push_back(make_sharded_target());
  targets.push_back(make_resilient_target());
  return targets;
}

}  // namespace xp::crashmc
