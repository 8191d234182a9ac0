// Crash-point exploration targets for every persistent store in the
// repo, shared by tests/crashmc_test.cc, tests/faultmc_test.cc and
// bench/crashmc_sweep.cc.
//
// Every KV store is explored by one target, KvTarget (workloads.cc),
// written once against workload::StoreIface and driven through its typed
// try_* surface. A KV target is a row of data: name, store factory (a
// family adapter built from the family's own options, or a
// ShardedStore), seed, key universe, op count, op mix, batch and
// background-turn cadence, and for the resilient row the poison-at op
// and the number of recovery rounds. Every op is durable when it
// returns, so recovery must find each shard's state before or after the
// in-flight op (a batch is atomic per shard slice, not across shards);
// with one shard that is the single-store check. Recovery and repair go
// through StoreIface::open/check/repair_media/damage_reported, so the
// adapters own all family-specific recovery.
//
// Two targets stay native, because their workloads are not KV ops:
//
//  * pmemlib  — two threads in distinct undo-log lanes bump versioned
//               slots transactionally (plus allocator churn). A tx-slot
//               read-modify-write is not a KV op. A slot must recover to
//               its last acknowledged or last attempted version, and
//               Pool::check() validates lane/allocator metadata.
//  * novafs   — single-page writes, page-aligned truncates, create/unlink
//               and (batched) renames and page-straddling writes, each
//               one atomic log append. The novafs adapter's put is a
//               write plus a truncate, two log appends, so it is not
//               crash-atomic, and this workload explores truncates,
//               renames and CoW writes that no KV op issues. The
//               recovered file set must byte-match the pre- or post-op
//               state, and NovaFs::fsck() validates logs and pages.
#pragma once

#include <memory>
#include <vector>

#include "crashmc/explorer.h"
#include "lsmkv/common.h"

namespace xp::crashmc {

// `inject_commit_fault` deliberately skips the clwb of the undo-log
// lane-retire store in Tx::commit (Pool::TestFault::kSkipCommitFlush) so
// negative tests can prove the harness catches a real protocol bug.
std::unique_ptr<Target> make_pmemlib_target(bool inject_commit_fault = false);
// KV rows. lsmkv: `wal_checksum` turns on per-record WAL CRCs (detects
// torn/garbage WAL bytes, not just poison); used by the fault campaign.
// `group_commit` runs the workload through put_batch groups — the
// acknowledged unit becomes the batch, and a crash inside a group must
// roll back to the previous group boundary. Per record the run reaches
// one memtable flush and no merge; group commit, with twice the records,
// two flushes and one merge. make_lsmkv_merge_target is the row for
// crash points inside merges.
std::unique_ptr<Target> make_lsmkv_target(
    kv::WalMode mode = kv::WalMode::kFlex, bool wal_checksum = false,
    bool group_commit = false);
// `log_checksum` appends per-entry CRC footers to the inode logs.
// `batch_appends` coalesces multi-entry operations into atomic log
// bursts and adds the operations only that mode makes atomic (renames,
// page-straddling embedded writes) to the workload.
std::unique_ptr<Target> make_novafs_target(bool log_checksum = false,
                                           bool batch_appends = false);
// cmap: in-place single-line updates plus transactional inserts/removes.
std::unique_ptr<Target> make_cmap_target();
// stree: enough keys to force transactional leaf splits.
std::unique_ptr<Target> make_stree_target();
// Sharded frontend (workload::ShardedStore over two per-DIMM lsmkv
// shards, deferred background compaction on): single-key ops,
// cross-shard batched dispatch, and donated background turns. The run
// fills neither shard's memtable, so it reaches no flush and no merge
// (make_lsmkv_merge_target covers merges). The crash-atomic unit is one
// shard's slice of a dispatch (one WAL group burst), so each shard's
// recovered state is checked on its own.
std::unique_ptr<Target> make_sharded_target();
// lsmkv with deferred compaction whose merges each span several bounded
// background turns: crash points inside a partial merge. The run reaches
// 9 flushes and 5 merges; every other lsmkv row reaches one merge at
// most.
std::unique_ptr<Target> make_lsmkv_merge_target();
// Self-healing replicated frontend (ShardedStore, 2 shards, replicas=2,
// lsmkv) under combined at-rest poison and crash points: the workload
// quarantines store 0 mid-run and crash points land inside the online
// rebuild's heal ntstores and re-silver WAL bursts (the run reaches no
// flush and no merge). Recovery re-opens a fresh frontend, drives the
// rebuild to completion and checks the model twice, for double-recovery
// idempotence.
std::unique_ptr<Target> make_resilient_target();

// The standard panel: pmemlib, lsmkv (FLEX WAL, per-record and group
// commit), novafs (per-entry and batched log appends), cmap, stree.
// `checksums` enables the WAL/log CRC options on the stores that have
// them (the fault campaign's configuration).
std::vector<std::unique_ptr<Target>> all_targets(bool checksums = false);

// Rows outside the standard panel, reachable by name (crashmc_sweep
// --store): lsmkv with the POSIX WAL, lsmkv with multi-turn background
// merges, the sharded and the resilient frontends. The panel's counts and the fault campaign's loss semantics
// stay as they were.
std::vector<std::unique_ptr<Target>> extra_targets(bool checksums = false);

}  // namespace xp::crashmc
