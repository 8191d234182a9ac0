// Concurrent schedmc workloads for the four store families.
//
// Each factory builds a Target (schedmc/explorer.h) that runs a small
// multi-threaded put/get/delete/rename workload against one store,
// records every operation into a History, and knows how to rebuild the
// store from the durable image after a crash. The workloads are
// deterministic functions of the thread id (and a fixed workload seed),
// which is what lets the explorer replay a recorded schedule exactly.
//
// Every KV store is one target, KvTarget (targets.cc), written once
// against workload::StoreIface and driven through its typed try_*
// surface. A KV target is a row of data: name, shard count, store
// factory, key universe, op mix (puts, gets, deletes, cross-shard
// batches, counter increments), value shape, preload and donated
// background turns. Recovery is the adapter's open() + check(), and
// durability is acknowledged through StoreIface::pending_records(), so
// a group-committed store and a store durable at return share one
// path. The count is a sum over shards and cannot delimit one shard's
// commit window, so a multi-shard row must not combine writes; KvTarget
// reports a nonzero count on one as an error. Two targets stay native,
// in schedmc as in crashmc:
//
//  * pmemlib  — a per-slot locked tx read-modify-write of a root slot
//               is not a KV op.
//  * novafs   — the adapter's put is write + truncate, two log appends,
//               so it is not crash-atomic, and the workload explores
//               renames a KV op never issues.
//
// Locking model: the logical threads are strictly serialized by the
// interleaver, but the stores themselves are single-threaded code, so
// each target takes the SchedLocks a real concurrent implementation
// would take: a per-slot lock for pmemlib's counters, one fs-wide lock
// for novafs (directory log, page allocator and read staging are
// shared), and one lock per shard for a KV row (one shard: one
// store-wide lock). The explored interleavings then reorder whole
// critical sections and everything outside them.
//
// TestFault::kElideRmwLock deliberately breaks the read-modify-write
// critical section — the lock is dropped between the read and the
// write — so two racing increments can both observe the same old value.
// The resulting lost update is invisible to the store's own checkers
// (every individual write is well-formed); only the linearizability
// oracle can catch it, which is exactly what the negative tests assert.
#pragma once

#include <memory>
#include <vector>

#include "schedmc/explorer.h"

namespace xp::schedmc {

enum class TestFault {
  kNone,
  // Drop the lock between an increment's read and its write.
  kElideRmwLock,
};

struct TargetOptions {
  unsigned threads = 3;
  unsigned ops_per_thread = 5;
  TestFault fault = TestFault::kNone;
};

// pmemlib: per-slot locked counter increments through undo-log
// transactions (distinct tx lanes per thread).
std::unique_ptr<Target> make_pmemlib_target(const TargetOptions& opts = {});

// lsmkv: puts/gets/deletes plus a counter RMW under one db lock, with
// group commit on: durability is acknowledged per WAL group, recorded
// as all-or-nothing history groups.
std::unique_ptr<Target> make_lsmkv_target(const TargetOptions& opts = {});

// novafs: create/write/unlink/rename over a small set of names with
// batched log appends (atomic rename).
std::unique_ptr<Target> make_novafs_target(const TargetOptions& opts = {});

// pmemkv cmap: put/get/remove with bounded writer lanes
// (max_writers_per_dimm), mixing in-place and transactional value sizes.
std::unique_ptr<Target> make_cmap_target(const TargetOptions& opts = {});

// pmemkv stree: put/get/remove over enough keys to split leaves.
std::unique_ptr<Target> make_stree_target(const TargetOptions& opts = {});

// Sharded frontend (workload::ShardedStore over two per-DIMM lsmkv
// shards, deferred background compaction on): the lsmkv mix plus
// cross-shard batches holding the touched shard locks in ascending
// order (each shard's slice is one crash-atomic WAL group, the batch as
// a whole is not), over a preload that leaves compaction debt pending,
// plus one extra thread donating background turns under every shard
// lock.
std::unique_ptr<Target> make_sharded_target(const TargetOptions& opts = {});

// The first five, in the order above: the default panel.
std::vector<std::unique_ptr<Target>> all_targets(const TargetOptions& opts = {});

// Rows outside the default panel, selectable by name: sharded-lsmkv.
std::vector<std::unique_ptr<Target>> extra_targets(
    const TargetOptions& opts = {});

}  // namespace xp::schedmc
