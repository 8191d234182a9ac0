#include "lsmkv/db.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>

#include "pmemlib/pmem_ops.h"

namespace xp::kv {

namespace {

// Newest-wins k-way merge over positioned run cursors, newest run first.
// Yields each key once, from the newest run holding it; tombstones are
// yielded too (the caller decides what they shadow).
class RunMerge {
 public:
  explicit RunMerge(std::vector<SsTable::Cursor>& runs)
      : runs_(runs), later_{&runs} {
    for (std::size_t i = 0; i < runs_.size(); ++i)
      if (runs_[i].valid()) push(i);
  }

  bool valid() const { return !heap_.empty(); }
  const SsTable::Cursor& top() const { return runs_[heap_.front()]; }

  void next(sim::ThreadCtx& ctx) {
    const std::size_t win = pop();
    // Step the shadowed older versions first, while the winner's key is
    // still staged.
    while (!heap_.empty() && runs_[heap_.front()].key() == runs_[win].key())
      advance(ctx, pop());
    advance(ctx, win);
  }

 private:
  // Heap order: smallest key on top, newest run first among equal keys.
  struct Later {
    const std::vector<SsTable::Cursor>* runs;
    bool operator()(std::size_t a, std::size_t b) const {
      const int c = (*runs)[a].key().compare((*runs)[b].key());
      return c != 0 ? c > 0 : a > b;
    }
  };

  void push(std::size_t i) {
    heap_.push_back(i);
    std::push_heap(heap_.begin(), heap_.end(), later_);
  }
  std::size_t pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later_);
    const std::size_t i = heap_.back();
    heap_.pop_back();
    return i;
  }
  void advance(sim::ThreadCtx& ctx, std::size_t i) {
    runs_[i].next(ctx);
    if (runs_[i].valid()) push(i);
  }

  std::vector<SsTable::Cursor>& runs_;
  Later later_;
  std::vector<std::size_t> heap_;
};

}  // namespace

// A merge in progress: a newest-wins stream over a snapshot of its inputs
// (the oldest `in.n_l0` L0 runs and all of L1, as the manifest listed them
// when it started) into a streamed output table. Flushes during the merge
// only append to L0, so the snapshot stays the manifest's prefix. Pinned:
// `merge` refers into `runs`.
struct Db::Merge {
  Merge() = default;
  Merge(const Merge&) = delete;
  Merge& operator=(const Merge&) = delete;

  Manifest in;
  std::vector<SsTable::Cursor> runs;
  std::optional<RunMerge> merge;  // over `runs`
  SsTable::Builder out;
  SsTable::Residency res;  // out's, under read_combine
  std::uint64_t bound = 0;  // out's largest possible size
  TableRef extent;          // allocated before out's first write
};

Db::Db(hw::PmemNamespace& ns, DbOptions opts)
    : opts_(opts), pool_(ns) {}

Db::~Db() = default;

Db::Manifest Db::load_manifest(sim::ThreadCtx& ctx) {
  // Under read_combine the manifest is mirrored in DRAM: every
  // modification goes through store_manifest() in-process, so the mirror
  // is always the committed manifest and point lookups skip a ~560 B PM
  // load. (Recovery paths run before the mirror exists and read PM.)
  if (manifest_cache_.has_value()) return *manifest_cache_;
  return pool_.ns().load_pod<Manifest>(ctx, root_off_);
}

void Db::store_manifest(sim::ThreadCtx& ctx, pmem::Tx& tx,
                        const Manifest& m) {
  if (manifest_cache_.has_value()) *manifest_cache_ = m;
  tx.add(root_off_, sizeof(Manifest));
  tx.store(root_off_, std::span<const std::uint8_t>(
                          reinterpret_cast<const std::uint8_t*>(&m),
                          sizeof(m)));
  // Mirror into the fixed backup slot. Management-path write (untimed):
  // the mirror models firmware-level redundancy, not a data-path store.
  pool_.ns().poke(kManifestBackupOff,
                  std::span<const std::uint8_t>(
                      reinterpret_cast<const std::uint8_t*>(&m), sizeof(m)));
  (void)ctx;
}

void Db::create(sim::ThreadCtx& ctx) {
  // A volatile memtable needs a WAL for durability; a persistent memtable
  // needs none.
  assert((opts_.wal == WalMode::kNone) ==
         (opts_.memtable == MemtableMode::kPersistent));
  pool_.create(ctx, sizeof(Manifest));
  root_off_ = pool_.root(ctx);

  Manifest m{};
  m.wal_mode = static_cast<std::uint32_t>(opts_.wal);
  m.memtable_mode = static_cast<std::uint32_t>(opts_.memtable);
  m.flags = opts_.wal_checksum ? 1u : 0u;
  if (opts_.wal != WalMode::kNone) {
    m.wal_base = pool_.alloc_raw(ctx, opts_.wal_capacity);
    m.wal_capacity = opts_.wal_capacity;
  }
  if (opts_.memtable == MemtableMode::kPersistent) {
    m.pskiplist_root = pool_.alloc_raw(ctx, 64);
  }
  pool_.ns().poke(kManifestBackupOff,
                  std::span<const std::uint8_t>(
                      reinterpret_cast<const std::uint8_t*>(&m), sizeof(m)));
  pmem::store_persist_pod(ctx, pool_.ns(), root_off_, m);

  if (opts_.wal != WalMode::kNone) {
    wal_ = std::make_unique<Wal>(pool_.ns(), m.wal_base, m.wal_capacity,
                                 opts_.wal, opts_);
    wal_->truncate(ctx);
  }
  if (opts_.memtable == MemtableMode::kPersistent) {
    pskip_ = std::make_unique<PSkiplist>(pool_, m.pskiplist_root);
    pskip_->create(ctx);
  }
  init_read_path(ctx, m, /*load_tables=*/false);
}

void Db::init_read_path(sim::ThreadCtx& ctx, const Manifest& m,
                        bool load_tables) {
  reader_.discard();
  reader_.attach_cache(nullptr);
  rcache_.reset();
  residency_.clear();
  manifest_cache_.reset();
  if (opts_.read_cache_lines > 0) {
    rcache_ = std::make_unique<pmem::ReadCache>(
        pool_.ns(),
        pmem::ReadCacheOptions{.capacity_lines = opts_.read_cache_lines});
    reader_.attach_cache(rcache_.get());
  }
  if (!opts_.read_combine) return;
  manifest_cache_ = m;
  if (load_tables) {
    for (std::uint32_t i = 0; i < m.n_l0; ++i)
      residency_.emplace(m.l0[i].off, SsTable::load_residency(
                                          ctx, pool_.ns(), m.l0[i].off));
    for (std::uint32_t i = 0; i < m.n_l1; ++i)
      residency_.emplace(m.l1[i].off, SsTable::load_residency(
                                          ctx, pool_.ns(), m.l1[i].off));
  }
}

void Db::prune_residency(const Manifest& m) {
  reader_.discard();
  if (residency_.empty()) return;
  auto live = [&](std::uint64_t off) {
    for (std::uint32_t i = 0; i < m.n_l0; ++i)
      if (m.l0[i].off == off) return true;
    for (std::uint32_t i = 0; i < m.n_l1; ++i)
      if (m.l1[i].off == off) return true;
    return false;
  };
  for (auto it = residency_.begin(); it != residency_.end();) {
    it = live(it->first) ? std::next(it) : residency_.erase(it);
  }
}

SsTable::ReadCtx Db::read_ctx(std::uint64_t table_off) {
  SsTable::ReadCtx rc;
  rc.keybuf = &key_scratch_;
  if (opts_.read_combine) {
    rc.reader = &reader_;
    const auto it = residency_.find(table_off);
    if (it != residency_.end()) rc.res = &it->second;
  }
  return rc;
}

bool Db::open(sim::ThreadCtx& ctx) {
  recovery_ = RecoveryInfo{};
  merge_.reset();
  if (!pool_.open(ctx)) return false;
  root_off_ = pool_.root(ctx);
  Manifest m{};
  try {
    m = load_manifest(ctx);
  } catch (const hw::MediaError&) {
    // Primary manifest unreadable: fall back to the mirrored copy, scrub
    // the damage and rewrite the primary. The backup always holds a
    // committed manifest (it is mirrored inside store_manifest, whose
    // primary write is transactional).
    pool_.ns().peek(kManifestBackupOff,
                    std::span<std::uint8_t>(
                        reinterpret_cast<std::uint8_t*>(&m), sizeof(m)));
    if (m.wal_mode > static_cast<std::uint32_t>(WalMode::kFlex) ||
        m.n_l0 > kMaxL0 || m.n_l1 > kMaxL1)
      return false;  // backup is not a manifest either
    for (const std::uint64_t bad : pool_.ns().platform().ars(
             pool_.ns(), root_off_, sizeof(Manifest)))
      pool_.scrub_line(ctx, bad);
    pmem::store_persist_pod(ctx, pool_.ns(), root_off_, m);
    recovery_.manifest_restored = true;
    recovery_.detail = "manifest restored from backup copy";
  }
  opts_.wal = static_cast<WalMode>(m.wal_mode);
  opts_.memtable = static_cast<MemtableMode>(m.memtable_mode);
  opts_.wal_checksum = (m.flags & 1u) != 0;
  // One-time residency load for the recovered table set (a flush during
  // WAL replay keeps it current through store_manifest/flush).
  init_read_path(ctx, m, /*load_tables=*/true);
  if (m.merging.size != 0 && !pool_.recovery().heap_sealed) {
    // The extent a cut merge was writing into, or the spare kept for the
    // next merge: no run lives in it, and no merge is in progress now.
    pmem::Tx tx(pool_, ctx);
    pool_.tx_free(tx, m.merging.off, m.merging.size);
    m.merging = {};
    store_manifest(ctx, tx, m);
    tx.commit();
  }
  // The deferred-compaction flag is volatile; re-derive the debt from the
  // recovered manifest so a crash between schedule and merge is harmless.
  compaction_pending_ = opts_.background_compaction && compaction_due(m);

  memtable_.clear();
  pending_.clear();
  if (opts_.wal != WalMode::kNone) {
    wal_ = std::make_unique<Wal>(pool_.ns(), m.wal_base, m.wal_capacity,
                                 opts_.wal, opts_);
    const Wal::ReplayResult r =
        wal_->replay(ctx, [&](std::string_view k, std::string_view v,
                              bool tomb) { memtable_.put(ctx, k, v, tomb); });
    if (r.damaged) {
      // Truncate at the damage point. Records replayed before it are made
      // durable again by flushing to an SSTable; records after it are
      // unrecoverable and reported, not silently absorbed.
      recovery_.wal_damaged = true;
      recovery_.wal_damage_off = r.damage_off;
      recovery_.wal_records_replayed = r.records;
      recovery_.detail = r.reason;
      if (pool_.recovery().heap_sealed) {
        // No allocation possible: keep the replayed records in the
        // memtable (still served) and flag that they are volatile-only.
        recovery_.wal_flush_skipped = true;
      } else {
        flush(ctx);
      }
      for (const std::uint64_t bad :
           pool_.ns().platform().ars(pool_.ns(), m.wal_base, m.wal_capacity))
        pool_.scrub_line(ctx, bad);
      wal_->truncate(ctx);
    }
  }
  if (opts_.memtable == MemtableMode::kPersistent) {
    pskip_ = std::make_unique<PSkiplist>(pool_, m.pskiplist_root);
    pskip_->open(ctx);
    pskip_bytes_ = pskip_->footprint(ctx).bytes;
  }
  return true;
}

void Db::write_record(sim::ThreadCtx& ctx, std::string_view key,
                      std::string_view value, bool tombstone) {
  if (opts_.memtable == MemtableMode::kPersistent) {
    pskip_->put(ctx, key, value, tombstone);
    pskip_bytes_ += key.size() + value.size();
  } else if (opts_.wal_group_commit) {
    // Leader/follower group commit: buffer the record (already readable
    // through the memtable) and let the write that fills the group commit
    // the whole burst. Durability is acknowledged at group boundaries.
    // The record is readable (memtable) before it is durable (group WAL
    // burst) — the leader/follower handoff edge the schedule explorer
    // perturbs and the crash-mode linearizability oracle checks.
    ctx.sched_point(sim::SchedPoint::kHandoff);
    pending_.push_back({std::string(key), std::string(value), tombstone});
    memtable_.put(ctx, key, value, tombstone);
    if (pending_.size() >= opts_.wal_group_size) commit_pending(ctx);
  } else {
    wal_->append(ctx, key, value, tombstone, opts_.sync_every_op);
    memtable_.put(ctx, key, value, tombstone);
  }
  maybe_flush(ctx);
}

void Db::commit_pending(sim::ThreadCtx& ctx) {
  if (pending_.empty()) return;
  ctx.sched_point(sim::SchedPoint::kHandoff);
  std::vector<WalRecord> recs;
  recs.reserve(pending_.size());
  for (const PendingRec& p : pending_)
    recs.push_back({p.key, p.value, p.tombstone});
  wal_->append_group(ctx, recs, opts_.sync_every_op);
  pending_.clear();
}

void Db::put_batch(sim::ThreadCtx& ctx, std::span<const WalRecord> recs) {
  if (recs.empty()) return;
  for (const WalRecord& r : recs) ++(r.tombstone ? stats_.deletes : stats_.puts);
  if (opts_.memtable == MemtableMode::kPersistent) {
    // No WAL to group; fall back to per-record persistent-memtable writes.
    for (const WalRecord& r : recs) {
      pskip_->put(ctx, r.key, r.value, r.tombstone);
      pskip_bytes_ += r.key.size() + r.value.size();
    }
    maybe_flush(ctx);
    return;
  }
  // Earlier buffered singles commit first so WAL order matches op order.
  commit_pending(ctx);
  wal_->append_group(ctx, recs, opts_.sync_every_op);
  for (const WalRecord& r : recs)
    memtable_.put(ctx, r.key, r.value, r.tombstone);
  maybe_flush(ctx);
}

void Db::put(sim::ThreadCtx& ctx, std::string_view key,
             std::string_view value) {
  ++stats_.puts;
  write_record(ctx, key, value, /*tombstone=*/false);
}

void Db::del(sim::ThreadCtx& ctx, std::string_view key) {
  ++stats_.deletes;
  write_record(ctx, key, {}, /*tombstone=*/true);
}

bool Db::get(sim::ThreadCtx& ctx, std::string_view key, std::string* value) {
  ++stats_.gets;
  FindResult r = opts_.memtable == MemtableMode::kPersistent
                     ? pskip_->get(ctx, key, value)
                     : memtable_.get(ctx, key, value);
  if (r == FindResult::kFound) {
    ++stats_.get_hits;
    return true;
  }
  if (r == FindResult::kTombstone) return false;

  const Manifest m = load_manifest(ctx);
  // L0: newest (highest index) first.
  for (std::uint32_t i = m.n_l0; i-- > 0;) {
    r = SsTable::get_ex(ctx, pool_.ns(), m.l0[i].off, key, value,
                        read_ctx(m.l0[i].off));
    if (r == FindResult::kFound) {
      ++stats_.get_hits;
      return true;
    }
    if (r == FindResult::kTombstone) return false;
  }
  for (std::uint32_t i = m.n_l1; i-- > 0;) {
    r = SsTable::get_ex(ctx, pool_.ns(), m.l1[i].off, key, value,
                        read_ctx(m.l1[i].off));
    if (r == FindResult::kFound) {
      ++stats_.get_hits;
      return true;
    }
    if (r == FindResult::kTombstone) return false;
  }
  return false;
}

std::vector<SsTable::Cursor> Db::open_runs(sim::ThreadCtx& ctx,
                                           const Manifest& m,
                                           std::string_view start_key) {
  std::vector<SsTable::Cursor> cursors;
  cursors.reserve(m.n_l0 + m.n_l1);
  auto open = [&](const TableRef& t) {
    const auto it = residency_.find(t.off);
    cursors.emplace_back(ctx, pool_.ns(), t.off,
                      it != residency_.end() ? &it->second : nullptr);
    cursors.back().seek(ctx, start_key);
  };
  for (std::uint32_t i = m.n_l0; i-- > 0;) open(m.l0[i]);
  for (std::uint32_t i = m.n_l1; i-- > 0;) open(m.l1[i]);
  return cursors;
}

std::vector<Db::RunInfo> Db::runs(sim::ThreadCtx& ctx) {
  const Manifest m = load_manifest(ctx);
  std::vector<RunInfo> out;
  for (std::uint32_t i = 0; i < m.n_l0; ++i)
    out.push_back({0, m.l0[i].off, m.l0[i].size});
  for (std::uint32_t i = 0; i < m.n_l1; ++i)
    out.push_back({1, m.l1[i].off, m.l1[i].size});
  return out;
}

std::vector<std::pair<std::string, std::string>> Db::scan(
    sim::ThreadCtx& ctx, std::string_view start_key,
    std::size_t max_results) {
  // The memtable is the newest source, so none of its live rows is
  // shadowed: rows past its max_results-th live one cannot be returned.
  std::vector<SsTable::Entry> mem;
  std::size_t mem_live = 0;
  auto absorb = [&](std::string_view k, std::string_view v, bool tomb) {
    if (k >= start_key && mem_live < max_results) {
      mem.push_back({std::string(k), std::string(v), tomb});
      mem_live += tomb ? 0 : 1;
    }
    return mem_live < max_results;  // want more rows
  };
  if (opts_.memtable == MemtableMode::kPersistent) {
    pskip_->for_each(ctx, [&](std::string_view k, std::string_view v,
                              bool tomb) { absorb(k, v, tomb); });
  } else {
    memtable_.for_each_from(start_key, absorb);
    ctx.advance_by(Memtable::kOpCost);
  }

  // Every run seeks to start_key and streams forward only as far as the
  // merge needs; the memtable wins ties.
  std::vector<SsTable::Cursor> cursors =
      open_runs(ctx, load_manifest(ctx), start_key);
  RunMerge merge(cursors);
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t mi = 0;
  while (out.size() < max_results && (mi < mem.size() || merge.valid())) {
    int c = mi == mem.size() ? 1 : -1;  // which source is exhausted
    if (mi < mem.size() && merge.valid())
      c = std::string_view(mem[mi].key).compare(merge.top().key());
    if (c <= 0) {
      if (c == 0) merge.next(ctx);  // older version, shadowed
      if (!mem[mi].tombstone)
        out.emplace_back(std::move(mem[mi].key), std::move(mem[mi].value));
      ++mi;
    } else {
      if (!merge.top().tombstone())
        out.emplace_back(merge.top().key(), merge.top().value());
      merge.next(ctx);
    }
  }
  return out;
}

Status Db::check(sim::ThreadCtx& ctx) {
  try {
    if (Status s = pool_.check(ctx); !s.ok()) return s;
    const std::string err = check_impl(ctx);
    if (err.empty()) return Status::Ok();
    return Status::Corruption(err);
  } catch (const hw::MediaError& e) {
    return Status::MediaFault(e.what());
  }
}

std::string Db::check_impl(sim::ThreadCtx& ctx) {
  const Manifest m = load_manifest(ctx);
  if (m.wal_mode > static_cast<std::uint32_t>(WalMode::kNone))
    return "manifest: bad wal_mode " + std::to_string(m.wal_mode);
  if (m.memtable_mode > static_cast<std::uint32_t>(MemtableMode::kPersistent))
    return "manifest: bad memtable_mode " + std::to_string(m.memtable_mode);
  if (m.n_l0 > kMaxL0 || m.n_l1 > kMaxL1)
    return "manifest: run counts out of range";

  const std::uint64_t heap_lo = pmem::Pool::heap_base();
  const std::uint64_t heap_hi = pool_.heap_top(ctx);
  if (static_cast<WalMode>(m.wal_mode) != WalMode::kNone &&
      (m.wal_base < heap_lo || m.wal_base + m.wal_capacity > heap_hi))
    return "manifest: WAL region outside allocated heap";
  if (m.merging.size != 0 &&
      (m.merging.off < heap_lo || m.merging.off + m.merging.size > heap_hi))
    return "manifest: merge output outside allocated heap";

  auto check_table = [&](const char* level, std::uint32_t i,
                         const TableRef& t) -> std::string {
    const std::string tag =
        std::string(level) + "[" + std::to_string(i) + "]";
    if (t.size == 0 || t.off < heap_lo || t.off + t.size > heap_hi)
      return tag + ": ref outside allocated heap";
    if (SsTable::size_bytes(ctx, pool_.ns(), t.off) > t.size)
      return tag + ": encoded size exceeds allocation";
    if (Status s = SsTable::verify_checksum(ctx, pool_.ns(), t.off); !s.ok())
      return tag + ": " + s.to_string();
    SsTable::Cursor c(ctx, pool_.ns(), t.off);
    std::string prev;
    std::uint32_t n = 0;
    for (c.seek(ctx, ""); c.valid(); c.next(ctx), ++n) {
      if (n > 0 && c.key() <= prev)
        return tag + ": keys not strictly increasing";
      prev = c.key();
    }
    if (n != c.count()) return tag + ": entries overrun the table";
    return "";
  };
  for (std::uint32_t i = 0; i < m.n_l0; ++i)
    if (std::string err = check_table("l0", i, m.l0[i]); !err.empty())
      return err;
  for (std::uint32_t i = 0; i < m.n_l1; ++i)
    if (std::string err = check_table("l1", i, m.l1[i]); !err.empty())
      return err;
  return "";
}

void Db::repair(sim::ThreadCtx& ctx) {
  merge_.reset();  // its inputs may be quarantined below
  Manifest m = load_manifest(ctx);
  Manifest out = m;
  out.n_l0 = 0;
  out.n_l1 = 0;
  out.merging = {};
  std::vector<TableRef> bad;
  auto sift = [&](const char* level, std::uint32_t i, const TableRef& t,
                  TableRef* keep, std::uint32_t* nkeep) {
    if (SsTable::verify_checksum(ctx, pool_.ns(), t.off).ok()) {
      keep[(*nkeep)++] = t;
    } else {
      recovery_.tables_quarantined.push_back(
          std::string(level) + "[" + std::to_string(i) + "]");
      bad.push_back(t);
    }
  };
  for (std::uint32_t i = 0; i < m.n_l0; ++i)
    sift("l0", i, m.l0[i], out.l0, &out.n_l0);
  for (std::uint32_t i = 0; i < m.n_l1; ++i)
    sift("l1", i, m.l1[i], out.l1, &out.n_l1);
  // An abandoned merge's output goes with them, unreported: it held no
  // committed data.
  if (m.merging.size != 0) bad.push_back(m.merging);

  if (!bad.empty()) {
    // Drop the quarantined refs first — only then is it safe to scrub,
    // because scrubbing turns a table's poison into zeros a reader would
    // otherwise happily parse.
    pmem::Tx tx(pool_, ctx);
    store_manifest(ctx, tx, out);
    tx.commit();
    prune_residency(out);
  }
  pool_.repair(ctx);
  if (!bad.empty() && !pool_.recovery().heap_sealed) {
    pmem::Tx tx(pool_, ctx);
    for (const TableRef& t : bad) pool_.tx_free(tx, t.off, t.size);
    tx.commit();
  }
  // (Sealed heap: quarantined allocations leak, which is already reported
  // through recovery().tables_quarantined + the pool's heap_sealed flag.)
}

void Db::maybe_flush(sim::ThreadCtx& ctx) {
  const std::uint64_t bytes = opts_.memtable == MemtableMode::kPersistent
                                  ? pskip_bytes_
                                  : memtable_.bytes();
  if (bytes >= opts_.memtable_bytes) flush(ctx);
  // Write-stall admission gate: a writer that finds the deferred-
  // compaction debt at the stall trigger finishes the merge inline rather
  // than letting L0 grow toward the manifest's fixed capacity.
  if (compaction_pending_ && load_manifest(ctx).n_l0 >= l0_limit()) {
    ++stats_.write_stalls;
    compact(ctx);
  }
}

unsigned Db::l0_limit() const {
  return opts_.background_compaction ? kL0StallTrigger : kMaxL0;
}

bool Db::compaction_due(const Manifest& m) const {
  if (m.n_l0 < opts_.l0_compaction_trigger) return false;
  // Due one run before the gate at the latest, so a background turn
  // rather than a writer pays for the merge.
  if (m.n_l0 + 1 >= l0_limit()) return true;
  std::uint64_t l0 = 0;
  std::uint64_t l1 = 0;
  for (std::uint32_t i = 0; i < m.n_l0; ++i) l0 += m.l0[i].size;
  for (std::uint32_t i = 0; i < m.n_l1; ++i) l1 += m.l1[i].size;
  return l0 * kLevelFanout >= l1;
}

void Db::flush(sim::ThreadCtx& ctx) {
  SsTable::Builder b;
  auto add = [&](std::string_view k, std::string_view v, bool tomb) {
    b.add(k, v, tomb);
  };
  if (opts_.memtable == MemtableMode::kPersistent) {
    if (pskip_bytes_ == 0) return;
    pskip_->for_each(ctx, add);
  } else {
    if (memtable_.empty()) return;
    memtable_.for_each(add);
  }
  ++stats_.memtable_flushes;
  SsTable::Residency res;
  b.seal(opts_.read_combine ? &res : nullptr);

  Manifest m = load_manifest(ctx);
  assert(m.n_l0 < kMaxL0);
  reader_.discard();
  {
    pmem::Tx tx(pool_, ctx);
    const std::uint64_t size = b.size();
    const std::uint64_t off = pool_.tx_alloc(tx, size);
    stats_.sst_bytes_written += b.write(ctx, pool_.ns(), off, size);
    if (opts_.read_combine) residency_[off] = std::move(res);

    m.l0[m.n_l0++] = TableRef{off, size};
    if (opts_.memtable == MemtableMode::kPersistent) {
      // Start a fresh persistent memtable: new head slot, old nodes are
      // reclaimed wholesale (arena-style) by a full compaction. The new
      // head is initialized before commit so a post-commit crash never
      // exposes an uninitialized root.
      const std::uint64_t new_root = pool_.tx_alloc(tx, 64);
      m.pskiplist_root = new_root;
      store_manifest(ctx, tx, m);
      pskip_ = std::make_unique<PSkiplist>(pool_, new_root);
      pskip_->create(ctx);
    } else {
      store_manifest(ctx, tx, m);
    }
    tx.commit();
  }

  if (opts_.memtable == MemtableMode::kPersistent) {
    pskip_bytes_ = 0;
  } else {
    memtable_.clear();
    wal_->truncate(ctx);
    // Buffered-but-uncommitted group records just became durable via the
    // SSTable (they were in the flushed memtable); nothing left to log.
    pending_.clear();
  }

  if (compaction_due(m)) {
    if (opts_.background_compaction)
      compaction_pending_ = true;  // deferred to background_work()
    else
      compact(ctx);
  }
}

bool Db::background_work(sim::ThreadCtx& ctx) {
  if (!compaction_pending_) return false;
  if (merge_ == nullptr && !compaction_due(load_manifest(ctx))) {
    compaction_pending_ = false;  // e.g. repair() dropped the runs
    return false;
  }
  if (merge_step(ctx, turn_bytes())) ++stats_.background_compactions;
  return true;
}

void Db::compact(sim::ThreadCtx& ctx) {
  merge_step(ctx, std::numeric_limits<std::uint64_t>::max());
}

bool Db::merge_step(sim::ThreadCtx& ctx, std::uint64_t budget) {
  try {
    if (merge_ == nullptr) start_merge(ctx);
    Merge& mg = *merge_;
    // Stage about one budget of output ahead of the writes. Tombstones
    // drop out: the merge includes the oldest run, so nothing older is
    // left for them to shadow.
    while (mg.merge->valid() && mg.out.staged() < budget) {
      const SsTable::Cursor& c = mg.merge->top();
      if (!c.tombstone()) mg.out.add(c.key(), c.value(), false);
      mg.merge->next(ctx);
    }
    const bool last = !mg.merge->valid();
    if (last && !mg.out.sealed())
      mg.out.seal(opts_.read_combine ? &mg.res : nullptr);
    if (mg.out.count() > 0) {
      if (mg.extent.size == 0) allocate_output(ctx, mg);
      stats_.sst_bytes_written +=
          mg.out.write(ctx, pool_.ns(), mg.extent.off, budget);
      if (!mg.out.done()) return false;
    } else if (!last) {
      return false;
    }
    finish_merge(ctx);
    return true;
  } catch (const hw::MediaError&) {
    // A poisoned input ends this attempt and the debt stays pending; the
    // next attempt frees the extent this one recorded.
    merge_.reset();
    throw;
  }
}

void Db::start_merge(sim::ThreadCtx& ctx) {
  auto mg = std::make_unique<Merge>();
  mg->in = load_manifest(ctx);
  mg->runs = open_runs(ctx, mg->in, "");
  std::uint64_t n = 0;
  std::uint64_t data = 0;
  for (const SsTable::Cursor& c : mg->runs) {
    n += c.count();
    data += c.data_bytes();
  }
  mg->bound = SsTable::Builder::bound(n, data);
  mg->merge.emplace(mg->runs);
  merge_ = std::move(mg);
}

void Db::allocate_output(sim::ThreadCtx& ctx, Merge& mg) {
  Manifest m = load_manifest(ctx);
  if (m.merging.size < mg.bound) {
    // The spare is too small (or absent): swap it for an extent with an
    // eighth of headroom, so that the next merges fit in it too.
    pmem::Tx tx(pool_, ctx);
    if (m.merging.size != 0)
      pool_.tx_free(tx, m.merging.off, m.merging.size);
    const std::uint64_t size = mg.bound + mg.bound / 8;
    m.merging = TableRef{pool_.tx_alloc(tx, size), size};
    store_manifest(ctx, tx, m);
    tx.commit();
  }
  mg.extent = m.merging;
}

void Db::finish_merge(sim::ThreadCtx& ctx) {
  Merge& mg = *merge_;
  const Manifest& in = mg.in;
  const Manifest m = load_manifest(ctx);
  assert(m.n_l0 >= in.n_l0 && m.n_l1 == in.n_l1);
  Manifest out = m;
  // Inputs -> output; the L0 runs flushed during the merge stay.
  out.n_l0 = m.n_l0 - in.n_l0;
  std::copy(m.l0 + in.n_l0, m.l0 + m.n_l0, out.l0);
  out.n_l1 = 0;
  // The largest extent L1 leaves behind becomes the spare the next merge
  // writes into: L1 barely grows from merge to merge, so it usually fits.
  std::vector<TableRef> spares(in.l1, in.l1 + in.n_l1);
  if (mg.out.count() == 0 && m.merging.size != 0)
    spares.push_back(m.merging);  // this merge wrote nothing into it
  const auto keep = std::max_element(
      spares.begin(), spares.end(),
      [](const TableRef& a, const TableRef& b) { return a.size < b.size; });
  out.merging = keep != spares.end() ? *keep : TableRef{};

  pmem::Tx tx(pool_, ctx);
  for (std::uint32_t i = 0; i < in.n_l0; ++i)
    pool_.tx_free(tx, in.l0[i].off, in.l0[i].size);
  for (auto it = spares.begin(); it != spares.end(); ++it)
    if (it != keep) pool_.tx_free(tx, it->off, it->size);
  if (mg.out.count() > 0) {
    // The run keeps its whole extent. Freeing what the bound over-
    // reserved (shadowed versions and dropped tombstones) would write a
    // free-chunk header into lines the merge never wrote, which may still
    // hold poison.
    out.l1[out.n_l1++] = mg.extent;
    if (opts_.read_combine) residency_[mg.extent.off] = std::move(mg.res);
  }
  store_manifest(ctx, tx, out);
  tx.commit();
  prune_residency(out);
  ++stats_.compactions;
  merge_.reset();
  compaction_pending_ = opts_.background_compaction && compaction_due(out);
}

}  // namespace xp::kv
