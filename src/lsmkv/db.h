// Mini-RocksDB: a two-level LSM tree on persistent memory.
//
// Supports the three persistence strategies the paper compares (Fig 8):
//   * WAL-POSIX + volatile memtable (stock RocksDB on a DAX file),
//   * WAL-FLEX + volatile memtable (sequential user-space pmem log),
//   * persistent skiplist memtable, no WAL (fine-grained persistence).
//
// Writes go to the memtable (+WAL); when the memtable exceeds the
// threshold it is flushed to an L0 SSTable; when L0 has grown to a tenth
// of L1 (compaction_due), the L0 runs and L1 are merge-compacted into a
// single L1 run by a k-way merge over SsTable::Cursor streams (§5.1
// sequential bursts), streamed to an SsTable::Builder. With background
// compaction the merge advances in bounded turns. The manifest lives in
// the pool root and is updated transactionally, so crash-recovery resumes
// from a consistent table set plus WAL replay.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "lsmkv/common.h"
#include "lsmkv/memtable.h"
#include "lsmkv/pskiplist.h"
#include "lsmkv/sstable.h"
#include "lsmkv/wal.h"
#include "pmemlib/pool.h"
#include "sim/status.h"

namespace xp::kv {

class Db {
 public:
  static constexpr unsigned kMaxL0 = 16;
  static constexpr unsigned kMaxL1 = 16;

  // L1 may hold this many times the L0 bytes before a merge is due: the
  // textbook level fanout, which bounds how often L1 is rewritten.
  static constexpr std::uint64_t kLevelFanout = 10;

  // With background compaction, a writer that finds this many L0 runs
  // finishes the merge inline (the write-stall gate); below the
  // manifest's capacity so L0 can never overflow the fixed array.
  static constexpr unsigned kL0StallTrigger = 12;
  static_assert(kL0StallTrigger < kMaxL0);

  Db(hw::PmemNamespace& ns, DbOptions opts);
  ~Db();

  // Format a fresh database.
  void create(sim::ThreadCtx& ctx);

  // Open after a restart/crash: recovers the pool, reloads the manifest,
  // replays the WAL (or re-adopts the persistent memtable). Returns false
  // if the namespace holds no database.
  //
  // Media-error tolerant: a WAL that stops replaying (poison or checksum
  // failure) is truncated at the damage point — records before it are
  // flushed to an SSTable (unless the pool's heap is sealed), records
  // after it are reported lost via recovery(), never silently dropped.
  bool open(sim::ThreadCtx& ctx);

  // What open()/repair() had to do about damaged media.
  struct RecoveryInfo {
    bool manifest_restored = false;  // primary manifest rebuilt from backup
    bool wal_damaged = false;
    std::uint64_t wal_damage_off = 0;     // WAL-relative damage point
    std::uint64_t wal_records_replayed = 0;
    bool wal_flush_skipped = false;  // heap sealed: replayed records are
                                     // served but not yet re-persisted
    std::vector<std::string> tables_quarantined;  // e.g. "l0[2]"
    std::string detail;
    bool damaged() const {
      return manifest_restored || wal_damaged || !tables_quarantined.empty();
    }
  };
  const RecoveryInfo& recovery() const { return recovery_; }

  // Verify every referenced SSTable's content checksum; quarantine (drop
  // from the manifest, transactionally) any that fail, then scrub all
  // remaining poison in the namespace. Quarantined data is gone — the
  // point is that reads after repair() never return garbage for it.
  void repair(sim::ThreadCtx& ctx);

  void put(sim::ThreadCtx& ctx, std::string_view key, std::string_view value);
  void del(sim::ThreadCtx& ctx, std::string_view key);
  bool get(sim::ThreadCtx& ctx, std::string_view key, std::string* value);

  // Write a batch of records as one WAL group commit (one terminator +
  // fence + sync for the whole batch, §5.1/§5.2). The batch is
  // crash-atomic: recovery sees all of it or none of it. Falls back to
  // per-record writes when the store has no WAL (persistent memtable).
  void put_batch(sim::ThreadCtx& ctx, std::span<const WalRecord> recs);

  // With DbOptions::wal_group_commit, individual put()/del() calls buffer
  // their WAL records; the thread whose write fills the group (the
  // leader) commits the burst for everyone. Callers needing durability at
  // a specific point force the pending group out with this.
  void commit_pending(sim::ThreadCtx& ctx);
  std::size_t pending_records() const { return pending_.size(); }

  // Force a memtable flush (normally automatic at memtable_bytes).
  void flush(sim::ThreadCtx& ctx);

  // One deferred-compaction turn (DbOptions::background_compaction): if a
  // merge is due, advances it by at most turn_bytes() of output, starting
  // it if none is in progress and committing it on the turn that writes
  // its last byte. Returns true if work was done. Safe to call from any
  // simulated thread, but like every Db entry point it must be externally
  // serialized against concurrent ops.
  bool background_work(sim::ThreadCtx& ctx);
  // Merge output one background turn writes at most: half a memtable. A
  // turn reads its output bytes (and the versions they shadow) and writes
  // them, where a flush only writes, so the turn books its store's DIMM
  // about as long as one flush does; ops reaching the DIMM meanwhile
  // queue behind it.
  std::uint64_t turn_bytes() const {
    return std::max<std::uint64_t>(opts_.memtable_bytes / 2, 1);
  }
  bool compaction_pending() const { return compaction_pending_; }
  // A merge has started and not yet committed: later turns continue it.
  bool merge_in_progress() const { return merge_ != nullptr; }

  // Recovery invariants (crashmc checker entry point). Call after open():
  // validates pool metadata, the manifest (modes, run counts, table refs
  // inside the allocated heap) and that every referenced SSTable passes
  // its content checksum and is iterable with strictly increasing keys.
  Status check(sim::ThreadCtx& ctx);

  // Range scan: up to `max_results` live key/value pairs with
  // key >= start_key, in key order, newest version winning and
  // tombstones hidden. Every run seeks to start_key and streams forward
  // through the same newest-wins merge as compaction, so the scan reads
  // only as far as its max_results live rows need.
  std::vector<std::pair<std::string, std::string>> scan(
      sim::ThreadCtx& ctx, std::string_view start_key,
      std::size_t max_results);

  // The live run set as the manifest lists it: L0 oldest first, then L1.
  // `size` is the table's encoded size.
  struct RunInfo {
    unsigned level;
    std::uint64_t off;
    std::uint64_t size;
  };
  std::vector<RunInfo> runs(sim::ThreadCtx& ctx);

  const DbStats& stats() const { return stats_; }
  const DbOptions& options() const { return opts_; }
  pmem::Pool& pool() { return pool_; }
  const pmem::Pool& pool() const { return pool_; }

 private:
  struct TableRef {
    std::uint64_t off = 0;
    std::uint64_t size = 0;
  };
  struct Manifest {
    std::uint32_t wal_mode;
    std::uint32_t memtable_mode;
    std::uint32_t flags;  // bit 0: WAL records carry checksums
    std::uint32_t reserved;
    std::uint64_t wal_base;
    std::uint64_t wal_capacity;
    std::uint64_t pskiplist_root;  // pool offset of the head pointer slot
    std::uint32_t n_l0;
    std::uint32_t n_l1;
    TableRef l0[kMaxL0];  // oldest first
    TableRef l1[kMaxL1];
    // An extent no run lives in (size 0: none): the output of the merge in
    // progress, or between merges the spare the next one writes into.
    // Recorded in the transaction that allocates it, so a crash cannot
    // leak it: open() frees it.
    TableRef merging;
  };
  // Redundant manifest copy in the pool's reserved region (between the
  // backup pool header at 2048+56 and the lanes at 4096); the manifest is
  // the only route to every table, so its primary line going bad must not
  // take the database with it. Mirrored on every manifest store.
  static constexpr std::uint64_t kManifestBackupOff = 2560;
  static_assert(sizeof(Manifest) <= 4096 - kManifestBackupOff);

  void write_record(sim::ThreadCtx& ctx, std::string_view key,
                    std::string_view value, bool tombstone);
  std::string check_impl(sim::ThreadCtx& ctx);
  void maybe_flush(sim::ThreadCtx& ctx);

  // ---- compaction ---------------------------------------------------------
  struct Merge;  // a merge in progress (db.cc)
  // The L0 run count a writer may not go past (the stall gate with
  // background compaction, else the manifest's capacity).
  unsigned l0_limit() const;
  // The trigger: at least l0_compaction_trigger L0 runs, and L0 bytes at
  // least L1 bytes / kLevelFanout or L0 one run below l0_limit().
  bool compaction_due(const Manifest& m) const;
  // Advance the merge in progress (starting one over the current runs if
  // none is) by at most `budget` bytes of output; returns true once it
  // has committed.
  bool merge_step(sim::ThreadCtx& ctx, std::uint64_t budget);
  // Run the merge in progress, or a new one, to completion.
  void compact(sim::ThreadCtx& ctx);
  void start_merge(sim::ThreadCtx& ctx);
  void allocate_output(sim::ThreadCtx& ctx, Merge& mg);
  void finish_merge(sim::ThreadCtx& ctx);
  // Cursors over every run of `m`, newest first (L0 newest to oldest,
  // then L1), each positioned at the first key >= start_key.
  std::vector<SsTable::Cursor> open_runs(sim::ThreadCtx& ctx,
                                         const Manifest& m,
                                         std::string_view start_key);
  Manifest load_manifest(sim::ThreadCtx& ctx);
  void store_manifest(sim::ThreadCtx& ctx, pmem::Tx& tx, const Manifest& m);

  // ---- read path (DbOptions::read_combine) -------------------------------
  // Construct the per-open read-path state: the DRAM read cache (if
  // configured) and, under read_combine, the manifest mirror + residency
  // for every table referenced by `m`. No-op with the knobs off.
  void init_read_path(sim::ThreadCtx& ctx, const Manifest& m,
                      bool load_tables);
  // Drop residency entries for tables no longer in `m` (post-compaction /
  // repair) and the reader's staged span.
  void prune_residency(const Manifest& m);
  SsTable::ReadCtx read_ctx(std::uint64_t table_off);

  DbOptions opts_;
  pmem::Pool pool_;
  Memtable memtable_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<PSkiplist> pskip_;
  std::uint64_t root_off_ = 0;
  std::uint64_t pskip_bytes_ = 0;  // approximate, rebuilt on open
  DbStats stats_;
  RecoveryInfo recovery_;
  // Pending WAL group (wal_group_commit): records buffered since the
  // last group commit. They are already in the memtable (readable) but
  // not yet acknowledged durable.
  struct PendingRec {
    std::string key;
    std::string value;
    bool tombstone;
  };
  std::vector<PendingRec> pending_;
  // A compaction scheduled by flush() but not yet committed (only ever set
  // with background_compaction on). Volatile by design: open() re-derives
  // it from the recovered manifest.
  bool compaction_pending_ = false;
  std::unique_ptr<Merge> merge_;

  // ---- read-path state (all empty/null with the knobs off) ---------------
  std::optional<Manifest> manifest_cache_;  // DRAM mirror (read_combine)
  std::unordered_map<std::uint64_t, SsTable::Residency>
      residency_;  // by table offset
  std::unique_ptr<pmem::ReadCache> rcache_;
  pmem::LineReader reader_;
  std::string key_scratch_;  // reused binary-search probe key
};

}  // namespace xp::kv
