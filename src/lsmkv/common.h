// Shared types for the mini-RocksDB LSM key-value store (paper §4.2).
#pragma once

#include <cstdint>
#include <string>

namespace xp::kv {

// Which write-ahead-log strategy the store uses — the three candidates
// compared in the paper's Fig 8 (from Xu et al. [59]):
enum class WalMode {
  kPosix,  // WAL appended through a POSIX file (syscall + fsync costs)
  kFlex,   // FLEX: WAL appended to mapped pmem with ntstore, no syscalls
  kNone,   // no WAL: the memtable itself is persistent
};

enum class MemtableMode {
  kVolatile,    // DRAM skiplist, rebuilt from the WAL on recovery
  kPersistent,  // fine-grained persistent skiplist in pmem
};

struct DbOptions {
  WalMode wal = WalMode::kFlex;
  MemtableMode memtable = MemtableMode::kVolatile;
  bool sync_every_op = true;            // db_bench --sync
  std::size_t memtable_bytes = 4 << 20; // flush threshold
  // The fewest L0 runs a merge starts with. Past it, a merge is due once
  // L0 holds a tenth of L1's bytes (Db::kLevelFanout), or at the latest
  // one run below the L0 limit (Db::kL0StallTrigger with background
  // compaction, else the manifest's capacity).
  unsigned l0_compaction_trigger = 4;
  std::uint64_t wal_capacity = 64 << 20;

  // Checksum every WAL record (CRC32C over tag+vlen+key+value, stored in
  // the record header). Catches media garbage that still parses; off by
  // default so the Fig 8 record format and timing are unchanged.
  bool wal_checksum = false;

  // Group commit (§5.1/§5.2): coalesce WAL records into one contiguous
  // XPLine-friendly burst with a single terminator + fence (+ sync) per
  // group instead of per record. Records are acknowledged durable only at
  // the group boundary; a crash mid-group rolls back to the previous
  // group (the batch appears atomically or not at all). Off by default so
  // the Fig 8 record-at-a-time path and timing are unchanged.
  bool wal_group_commit = false;
  // Puts buffered before the filling thread commits the pending group
  // (the leader/follower pattern; Db::put_batch commits its records as
  // one explicit group regardless of this threshold).
  std::size_t wal_group_size = 8;

  // ---- Read path (§5.1), all off by default so the seed read behavior
  // ---- and timing are unchanged ----------------------------------------
  // XPLine-granular read combining: binary-search probes and value reads
  // fetch whole 256 B lines through a pmem::LineReader instead of
  // dribbling dependent 4-64 B loads. It also keeps read-path metadata
  // resident in DRAM: the manifest plus every live SSTable's bloom filter
  // and offset array are mirrored (built from bytes already in hand at
  // flush/compaction, loaded once at open), so point gets stop re-loading
  // ~10 KB of filter per table per lookup.
  bool read_combine = false;
  // DRAM read-cache capacity in 256 B lines (0 = no cache; 4096 = 1 MiB).
  // The cache backs the LineReader, so it only takes effect together with
  // read_combine.
  std::size_t read_cache_lines = 0;

  // ---- Background compaction (§5 under mixed traffic), off by default
  // ---- so the inline-compaction put path and timing are unchanged ------
  // When set, a due merge is only *scheduled*; it advances when some
  // thread donates turns via Db::background_work(), at most half a
  // memtable of output per turn (the workload engine runs one donor
  // thread per frontend). Writes keep flowing against the growing L0;
  // the merge is due one run before Db::kL0StallTrigger at the latest, so
  // a turn rather than a writer starts it. A write that finds L0 at
  // Db::kL0StallTrigger runs the merge in progress (or a new one) to its
  // commit inline — the classic write-stall admission gate, which also
  // keeps the manifest's fixed L0 array from overflowing. Inline
  // compaction ignores the stall trigger.
  bool background_compaction = false;
};

struct DbStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t get_hits = 0;
  std::uint64_t deletes = 0;
  std::uint64_t memtable_flushes = 0;
  std::uint64_t compactions = 0;
  // Of `compactions` (committed merges): how many committed on a donated
  // background turn, and how many times a writer hit the stall gate and
  // finished a merge inline.
  std::uint64_t background_compactions = 0;
  std::uint64_t write_stalls = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t sst_bytes_written = 0;
};

}  // namespace xp::kv
