// Concurrent schedmc workloads for the four store families.
//
// Each factory builds a Target (schedmc/explorer.h) that runs a small
// multi-threaded put/get/delete/rename workload against one store,
// records every operation into a History, and knows how to rebuild the
// store from the durable image after a crash. The workloads are
// deterministic functions of (workload_seed, thread id), which is what
// lets the explorer replay a recorded schedule exactly.
//
// The KV stores whose ops are each durable at return are one target,
// KvTarget (targets.cc), written once against workload::StoreIface and
// driven through its typed try_* surface; a KV target is a row of data
// (name, store factory, key universe, op mix, value shape), and
// recovery is the adapter's open() + check(). Four targets stay native:
//
//  * pmemlib        — a per-slot locked tx read-modify-write of a root
//                     slot is not a KV op.
//  * novafs         — the adapter's put is write + truncate, two log
//                     appends, so it is not crash-atomic, and the
//                     workload explores renames a KV op never issues.
//  * lsmkv          — its group-commit windows read
//                     Db::pending_records(), which StoreIface does not
//                     expose.
//  * sharded-lsmkv  — per-shard locks taken in ascending order for
//                     cross-shard batches, plus a donor thread paying
//                     background compaction under the shard's lock.
//
// Locking model: the logical threads are strictly serialized by the
// interleaver, but the stores themselves are single-threaded code, so
// each target takes the SchedLocks a real concurrent implementation
// would take (a per-slot lock for pmemlib's counters, one store-wide
// lock where internal state is shared — the LSM memtable/WAL, the NOVA
// directory log, the cmap/stree structures). The explored interleavings
// then reorder whole critical sections and everything outside them.
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
  std::uint64_t workload_seed = 7;
  unsigned threads = 3;
  unsigned ops_per_thread = 5;
  TestFault fault = TestFault::kNone;
};

// pmemlib: per-slot locked counter increments through undo-log
// transactions (distinct tx lanes per thread).
std::unique_ptr<Target> make_pmemlib_target(const TargetOptions& opts = {});

// lsmkv: puts/gets/deletes plus a counter RMW under one db lock, with
// group commit on — durability is acknowledged per WAL group, recorded
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

// Sharded frontend (workload::ShardedStore over per-DIMM lsmkv shards,
// deferred background compaction on): puts/gets/deletes under per-shard
// locks, cross-shard batched dispatch holding the involved shard locks
// in ascending order (each shard's group is one crash-atomic WAL burst,
// the cross-shard batch as a whole is not), a counter RMW under its
// owning shard's lock, plus one extra thread donating background-
// compaction turns shard by shard. reset() pre-populates enough data to
// leave compaction debt pending, so exploration interleaves real merges
// with foreground traffic. Not part of all_targets(): the five-family
// panels (and their sweep baselines) stay as they were.
std::unique_ptr<Target> make_sharded_target(const TargetOptions& opts = {});

// All five, in the order above.
std::vector<std::unique_ptr<Target>> all_targets(const TargetOptions& opts = {});

}  // namespace xp::schedmc
