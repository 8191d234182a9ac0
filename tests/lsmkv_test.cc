// Tests for the mini-RocksDB: WAL, SSTable, persistent skiplist, and the
// full DB across all three persistence strategies, including crash
// recovery and the Fig 8 strategy-inversion shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "lsmkv/bloom.h"
#include "lsmkv/db.h"
#include "telemetry/registry.h"
#include "xpsim/platform.h"

namespace xp::kv {
namespace {

using hw::Platform;
using hw::PmemNamespace;
using sim::ThreadCtx;

ThreadCtx make_thread(unsigned id = 0) {
  return ThreadCtx({.id = id, .socket = 0, .mlp = 8, .seed = id + 1});
}

std::string key_of(int i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key-%012d", i);
  return buf;
}
std::string value_of(int i) {
  std::string v(100, 'v');
  std::snprintf(v.data(), 16, "val-%d", i);
  return v;
}

// ---------------------------------------------------------------- WAL ---
struct WalFixture : ::testing::Test {
  WalFixture()
      : ns(platform.optane(64 << 20)),
        wal(ns, 0, 1 << 20, WalMode::kFlex, opts) {}
  Platform platform;
  PmemNamespace& ns;
  DbOptions opts;
  Wal wal;
};

TEST_F(WalFixture, AppendReplayRoundTrip) {
  ThreadCtx t = make_thread();
  wal.truncate(t);
  wal.append(t, "alpha", "1", false, true);
  wal.append(t, "beta", "2", false, true);
  wal.append(t, "alpha", "", true, true);

  std::vector<std::tuple<std::string, std::string, bool>> got;
  Wal replayer(ns, 0, 1 << 20, WalMode::kFlex, opts);
  replayer.replay(t, [&](std::string_view k, std::string_view v, bool tomb) {
    got.emplace_back(std::string(k), std::string(v), tomb);
  });
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], std::make_tuple(std::string("alpha"), std::string("1"),
                                    false));
  EXPECT_EQ(got[2], std::make_tuple(std::string("alpha"), std::string(""),
                                    true));
}

TEST_F(WalFixture, TruncateHidesOldRecords) {
  ThreadCtx t = make_thread();
  wal.truncate(t);
  wal.append(t, "old", "x", false, true);
  wal.truncate(t);
  wal.append(t, "new", "y", false, true);

  int count = 0;
  std::string first;
  Wal replayer(ns, 0, 1 << 20, WalMode::kFlex, opts);
  replayer.replay(t, [&](std::string_view k, std::string_view, bool) {
    if (count++ == 0) first = std::string(k);
  });
  EXPECT_EQ(count, 1);
  EXPECT_EQ(first, "new");
}

TEST_F(WalFixture, SyncedRecordsSurviveCrash) {
  ThreadCtx t = make_thread();
  wal.truncate(t);
  wal.append(t, "durable", "yes", false, true);
  platform.crash();
  int count = 0;
  Wal replayer(ns, 0, 1 << 20, WalMode::kFlex, opts);
  replayer.replay(t, [&](std::string_view, std::string_view, bool) {
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST_F(WalFixture, PosixModeCostsMoreTime) {
  ThreadCtx t1 = make_thread(1);
  Wal posix(ns, 8 << 20, 1 << 20, WalMode::kPosix, opts);
  posix.truncate(t1);
  const sim::Time p0 = t1.now();
  for (int i = 0; i < 100; ++i) posix.append(t1, key_of(i), value_of(i),
                                             false, true);
  const sim::Time posix_time = t1.now() - p0;

  ThreadCtx t2 = make_thread(2);
  Wal flex(ns, 16 << 20, 1 << 20, WalMode::kFlex, opts);
  flex.truncate(t2);
  const sim::Time f0 = t2.now();
  for (int i = 0; i < 100; ++i) flex.append(t2, key_of(i), value_of(i),
                                            false, true);
  const sim::Time flex_time = t2.now() - f0;

  EXPECT_GT(posix_time, flex_time);
}

// ------------------------------------------------------------- SSTable --
TEST(SsTableTest, BuildAndGet) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  std::vector<SsTable::Entry> entries;
  for (int i = 0; i < 100; ++i)
    entries.push_back({key_of(i), value_of(i), false});
  const std::uint64_t size = SsTable::build(t, ns, 4096, entries);
  EXPECT_EQ(size, SsTable::encoded_size(entries));
  EXPECT_EQ(SsTable::count(t, ns, 4096), 100u);

  std::string v;
  EXPECT_EQ(SsTable::get(t, ns, 4096, key_of(50), &v), FindResult::kFound);
  EXPECT_EQ(v, value_of(50));
  EXPECT_EQ(SsTable::get(t, ns, 4096, key_of(0), &v), FindResult::kFound);
  EXPECT_EQ(SsTable::get(t, ns, 4096, key_of(99), &v), FindResult::kFound);
  EXPECT_EQ(SsTable::get(t, ns, 4096, "missing", &v),
            FindResult::kNotFound);
}

TEST(SsTableTest, TombstonesReported) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  std::vector<SsTable::Entry> entries{{key_of(1), "", true},
                                      {key_of(2), "live", false}};
  SsTable::build(t, ns, 0, entries);
  std::string v;
  EXPECT_EQ(SsTable::get(t, ns, 0, key_of(1), &v), FindResult::kTombstone);
  EXPECT_EQ(SsTable::get(t, ns, 0, key_of(2), &v), FindResult::kFound);
}

TEST(SsTableTest, CursorIteratesInOrder) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  std::vector<SsTable::Entry> entries;
  for (int i = 0; i < 20; ++i) entries.push_back({key_of(i), value_of(i),
                                                  false});
  SsTable::build(t, ns, 0, entries);
  std::vector<std::string> keys;
  SsTable::Cursor c(t, ns, 0);
  for (c.seek(t, ""); c.valid(); c.next(t)) {
    EXPECT_EQ(c.value(), value_of(static_cast<int>(keys.size())));
    keys.emplace_back(c.key());
  }
  ASSERT_EQ(keys.size(), 20u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  // seek() lands on the first key >= the target, present or not.
  c.seek(t, key_of(7));
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.key(), key_of(7));
  c.seek(t, key_of(7) + "~");
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.key(), key_of(8));
  c.seek(t, "zzz");
  EXPECT_FALSE(c.valid());
}

TEST(SsTableTest, SurvivesCrash) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  std::vector<SsTable::Entry> entries{{key_of(7), value_of(7), false}};
  SsTable::build(t, ns, 0, entries);
  platform.crash();
  std::string v;
  EXPECT_EQ(SsTable::get(t, ns, 0, key_of(7), &v), FindResult::kFound);
  EXPECT_EQ(v, value_of(7));
}


// ------------------------------------------------------------- bloom ----
TEST(Bloom, NoFalseNegatives) {
  BloomBuilder b(1000);
  for (int i = 0; i < 1000; ++i) b.add(key_of(i));
  for (int i = 0; i < 1000; ++i)
    EXPECT_TRUE(BloomBuilder::may_contain(b.bits().data(), b.bits().size(),
                                          key_of(i)))
        << i;
}

TEST(Bloom, LowFalsePositiveRate) {
  BloomBuilder b(1000);
  for (int i = 0; i < 1000; ++i) b.add(key_of(i));
  int fp = 0;
  for (int i = 1000; i < 11000; ++i)
    fp += BloomBuilder::may_contain(b.bits().data(), b.bits().size(),
                                    key_of(i));
  EXPECT_LT(fp, 300);  // < 3% at 10 bits/key
}

TEST(Bloom, EmptyFilterCannotExclude) {
  EXPECT_TRUE(BloomBuilder::may_contain(nullptr, 0, "anything"));
}

TEST(SsTableTest, BloomSkipsAbsentKeyProbes) {
  Platform platform;
  PmemNamespace& ns = platform.optane(64 << 20);
  ThreadCtx t = make_thread();
  std::vector<SsTable::Entry> entries;
  for (int i = 0; i < 2000; ++i)
    entries.push_back({key_of(i), value_of(i), false});
  SsTable::build(t, ns, 0, entries);

  // Absent-key lookups should cost far less simulated time than present-
  // key lookups: the bloom filter (cache-resident after warmup) replaces
  // the ~11-probe binary search.
  std::string v;
  for (int i = 0; i < 50; ++i)  // warm the filter into the CPU cache
    SsTable::get(t, ns, 0, key_of(100000 + i), &v);
  const sim::Time a0 = t.now();
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(SsTable::get(t, ns, 0, key_of(200000 + i), &v),
              FindResult::kNotFound);
  const sim::Time absent = t.now() - a0;
  const sim::Time p0 = t.now();
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(SsTable::get(t, ns, 0, key_of(i * 7 % 2000), &v),
              FindResult::kFound);
  const sim::Time present = t.now() - p0;
  EXPECT_LT(absent * 3, present);
}

// ---------------------------------------------------- persistent skiplist
struct PSkipFixture : ::testing::Test {
  PSkipFixture() : ns(platform.optane(256 << 20)), pool(ns) {
    ThreadCtx t = make_thread();
    pool.create(t, 64);
    list = std::make_unique<PSkiplist>(pool, pool.root(t));
    list->create(t);
  }
  Platform platform;
  PmemNamespace& ns;
  pmem::Pool pool;
  std::unique_ptr<PSkiplist> list;
};

TEST_F(PSkipFixture, PutGet) {
  ThreadCtx t = make_thread();
  list->put(t, "k1", "v1", false);
  list->put(t, "k2", "v2", false);
  std::string v;
  EXPECT_EQ(list->get(t, "k1", &v), FindResult::kFound);
  EXPECT_EQ(v, "v1");
  EXPECT_EQ(list->get(t, "nope", &v), FindResult::kNotFound);
}

TEST_F(PSkipFixture, NewestVersionWins) {
  ThreadCtx t = make_thread();
  list->put(t, "k", "old", false);
  list->put(t, "k", "new", false);
  std::string v;
  EXPECT_EQ(list->get(t, "k", &v), FindResult::kFound);
  EXPECT_EQ(v, "new");
}

TEST_F(PSkipFixture, TombstoneShadows) {
  ThreadCtx t = make_thread();
  list->put(t, "k", "v", false);
  list->put(t, "k", "", true);
  std::string v;
  EXPECT_EQ(list->get(t, "k", &v), FindResult::kTombstone);
}

TEST_F(PSkipFixture, SortedDedupedIteration) {
  ThreadCtx t = make_thread();
  for (int i = 9; i >= 0; --i) list->put(t, key_of(i), value_of(i), false);
  list->put(t, key_of(5), "updated", false);
  std::vector<std::string> keys;
  std::string v5;
  list->for_each(t, [&](std::string_view k, std::string_view v, bool) {
    keys.emplace_back(k);
    if (k == key_of(5)) v5 = std::string(v);
  });
  ASSERT_EQ(keys.size(), 10u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(v5, "updated");
}

TEST_F(PSkipFixture, InsertsSurviveCrashWithoutLog) {
  ThreadCtx t = make_thread();
  for (int i = 0; i < 50; ++i) list->put(t, key_of(i), value_of(i), false);
  platform.crash();

  pmem::Pool reopened(ns);
  ASSERT_TRUE(reopened.open(t));
  PSkiplist recovered(reopened, reopened.root(t));
  recovered.open(t);
  std::string v;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(recovered.get(t, key_of(i), &v), FindResult::kFound) << i;
    EXPECT_EQ(v, value_of(i));
  }
}

TEST_F(PSkipFixture, FootprintCountsEntries) {
  ThreadCtx t = make_thread();
  for (int i = 0; i < 10; ++i) list->put(t, key_of(i), value_of(i), false);
  const auto fp = list->footprint(t);
  EXPECT_EQ(fp.entries, 10u);
  EXPECT_EQ(fp.bytes, 10 * (key_of(0).size() + 100));
}

// -------------------------------------------------------------- full DB --
// gtest lists each case with a byte dump of its param. The name is held
// inline rather than as a pointer so that dump, and with it the listed
// test name, holds no load address and stays the same on every build.
struct DbParam {
  WalMode wal;
  MemtableMode memtable;
  char name[8];
};

class DbModes : public ::testing::TestWithParam<DbParam> {
 protected:
  DbOptions make_opts() const {
    DbOptions o;
    o.wal = GetParam().wal;
    o.memtable = GetParam().memtable;
    o.memtable_bytes = 16 << 10;  // small so flush/compaction paths run
    return o;
  }
};

TEST_P(DbModes, PutGetAcrossFlushesAndCompactions) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  Db db(ns, make_opts());
  db.create(t);
  const int n = 1000;
  for (int i = 0; i < n; ++i) db.put(t, key_of(i), value_of(i));
  EXPECT_GT(db.stats().memtable_flushes, 2u);
  std::string v;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(db.get(t, key_of(i), &v)) << i;
    EXPECT_EQ(v, value_of(i));
  }
  EXPECT_FALSE(db.get(t, "absent", &v));
}

TEST_P(DbModes, OverwriteReturnsLatest) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  Db db(ns, make_opts());
  db.create(t);
  for (int round = 0; round < 3; ++round)
    for (int i = 0; i < 300; ++i)
      db.put(t, key_of(i), value_of(i + round * 1000));
  std::string v;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db.get(t, key_of(i), &v));
    EXPECT_EQ(v, value_of(i + 2000));
  }
}

TEST_P(DbModes, DeleteShadowsOlderVersions) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  Db db(ns, make_opts());
  db.create(t);
  for (int i = 0; i < 400; ++i) db.put(t, key_of(i), value_of(i));
  for (int i = 0; i < 400; i += 2) db.del(t, key_of(i));
  std::string v;
  for (int i = 0; i < 400; ++i) {
    EXPECT_EQ(db.get(t, key_of(i), &v), i % 2 == 1) << i;
  }
}

TEST_P(DbModes, CrashRecoveryKeepsSyncedWrites) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  {
    Db db(ns, make_opts());
    db.create(t);
    for (int i = 0; i < 500; ++i) db.put(t, key_of(i), value_of(i));
    platform.crash();
  }
  Db db2(ns, make_opts());
  ASSERT_TRUE(db2.open(t));
  std::string v;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db2.get(t, key_of(i), &v)) << i;
    EXPECT_EQ(v, value_of(i));
  }
}


// ------------------------------------------------------------------ scan
TEST_P(DbModes, ScanMergesAllLevels) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  Db db(ns, make_opts());
  db.create(t);
  for (int i = 0; i < 500; ++i) db.put(t, key_of(i), value_of(i));
  db.put(t, key_of(100), "fresh");  // newer version in the memtable
  db.del(t, key_of(101));

  const auto rows = db.scan(t, key_of(99), 5);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].first, key_of(99));
  EXPECT_EQ(rows[1].first, key_of(100));
  EXPECT_EQ(rows[1].second, "fresh");
  EXPECT_EQ(rows[2].first, key_of(102));  // 101 deleted
  EXPECT_EQ(rows[3].first, key_of(103));
}

TEST_P(DbModes, ScanFromBeyondEndIsEmpty) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  Db db(ns, make_opts());
  db.create(t);
  db.put(t, key_of(1), value_of(1));
  EXPECT_TRUE(db.scan(t, "zzzz", 10).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, DbModes,
    ::testing::Values(
        DbParam{WalMode::kPosix, MemtableMode::kVolatile, "posix"},
        DbParam{WalMode::kFlex, MemtableMode::kVolatile, "flex"},
        DbParam{WalMode::kNone, MemtableMode::kPersistent, "pskip"}),
    [](const auto& info) { return info.param.name; });

// ------------------------------------------------- streaming compaction --
// Compaction and scans stream every run through SsTable::Cursor into one
// newest-wins merge. These tests pin its results against a std::map model
// and its read discipline on the device: sequential bursts, never past a
// table's last byte.

using Model = std::map<std::string, std::string>;

// Value sizes around the XPLine (256 B) and burst (4 KB) boundaries, so
// entries straddle both; 9000 B spans several bursts.
std::string sized_value(std::mt19937_64& rng, int tag) {
  static constexpr std::size_t kSizes[] = {0,    1,    100,  240,  250,
                                           256,  262,  4080, 4090, 4096,
                                           4100, 9000};
  std::string v(kSizes[rng() % std::size(kSizes)], '\0');
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<char>('a' + (tag + i) % 26);
  return v;
}

void expect_matches(ThreadCtx& t, Db& db, const Model& model, int nkeys,
                    std::mt19937_64& rng) {
  ASSERT_TRUE(db.check(t).ok()) << db.check(t).to_string();
  std::string v;
  for (int k = 0; k < nkeys; ++k) {
    const auto it = model.find(key_of(k));
    ASSERT_EQ(db.get(t, key_of(k), &v), it != model.end()) << k;
    if (it != model.end()) {
      ASSERT_EQ(v, it->second) << k;
    }
  }
  for (int s = 0; s < 8; ++s) {
    const std::string start =
        s == 0 ? "" : key_of(static_cast<int>(rng() % (nkeys + 1)));
    const std::size_t n = rng() % 40;
    std::vector<std::pair<std::string, std::string>> want;
    for (auto it = model.lower_bound(start);
         it != model.end() && want.size() < n; ++it)
      want.emplace_back(*it);
    ASSERT_EQ(db.scan(t, start, n), want) << start << " n=" << n;
  }
}

// (background_compaction, read_combine: its residency makes seek() use
// the resident offset array).
class StreamingCompaction
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {
 protected:
  DbOptions make_opts() const {
    DbOptions o;
    o.memtable_bytes = 1 << 20;  // flushes happen where the test asks
    o.wal_capacity = 8 << 20;
    o.background_compaction = std::get<0>(GetParam());
    o.read_combine = std::get<1>(GetParam());
    return o;
  }
  // One flush, then (background mode) the turn that runs any pending merge.
  void flush(ThreadCtx& t, Db& db) {
    db.flush(t);
    if (db.options().background_compaction) db.background_work(t);
  }
};

TEST_P(StreamingCompaction, MatchesModelAcrossRandomRunSets) {
  constexpr int kKeys = 60;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Platform platform;
    PmemNamespace& ns = platform.optane(256 << 20);
    ThreadCtx t = make_thread();
    Db db(ns, make_opts());
    db.create(t);
    std::mt19937_64 rng(seed);
    Model model;
    std::uint64_t compactions = 0;
    for (int round = 0; round < 24; ++round) {
      // Every 5th run holds a single entry; the rest mix overwrites of
      // keys already in older runs (duplicates across levels) and deletes.
      const int ops = round % 5 == 0 ? 1 : 1 + static_cast<int>(rng() % 30);
      for (int i = 0; i < ops; ++i) {
        const std::string k = key_of(static_cast<int>(rng() % kKeys));
        if (rng() % 4 == 0) {
          db.del(t, k);
          model.erase(k);
        } else {
          const std::string v = sized_value(rng, round * 100 + i);
          db.put(t, k, v);
          model[k] = v;
        }
      }
      // Memtable over runs first, then runs alone after any merge.
      ASSERT_NO_FATAL_FAILURE(expect_matches(t, db, model, kKeys, rng));
      flush(t, db);
      if (db.stats().compactions != compactions) {
        compactions = db.stats().compactions;
        ASSERT_NO_FATAL_FAILURE(expect_matches(t, db, model, kKeys, rng));
      }
    }
    EXPECT_GE(compactions, 5u);
  }
}

TEST_P(StreamingCompaction, AllTombstoneInputLeavesNoRun) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  Db db(ns, make_opts());
  db.create(t);
  std::mt19937_64 rng(7);
  const Model empty;
  // Tombstones for keys that never existed: the merge has nothing to emit.
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < 5; ++i) db.del(t, key_of(r * 5 + i));
    flush(t, db);
  }
  EXPECT_EQ(db.stats().compactions, 1u);
  EXPECT_TRUE(db.runs(t).empty());
  ASSERT_NO_FATAL_FAILURE(expect_matches(t, db, empty, 20, rng));

  // Live L1, then runs deleting every key of it (some twice).
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < 5; ++i) db.put(t, key_of(r * 5 + i), value_of(i));
    flush(t, db);
  }
  ASSERT_EQ(db.runs(t).size(), 1u);
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < 20; i += 1 + r) db.del(t, key_of(i));
    flush(t, db);
  }
  EXPECT_EQ(db.stats().compactions, 3u);
  EXPECT_TRUE(db.runs(t).empty());
  ASSERT_NO_FATAL_FAILURE(expect_matches(t, db, empty, 20, rng));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, StreamingCompaction,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "background" : "inline") +
             (std::get<1>(info.param) ? "_readpath" : "_plain");
    });

// A background-compaction Db holding one L1 run plus four L0 runs, the
// next merge pending. Returns the model of what it holds.
Model pending_merge(ThreadCtx& t, Db& db) {
  Model model;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 200; ++i) {
      const std::string k = key_of((round * 131 + i * 7) % 1000);
      db.put(t, k, value_of(round * 1000 + i));
      model[k] = value_of(round * 1000 + i);
    }
    db.flush(t);
    if (round == 3) {
      EXPECT_TRUE(db.background_work(t));
    }
  }
  EXPECT_TRUE(db.compaction_pending());
  EXPECT_EQ(db.runs(t).size(), 5u);
  return model;
}

DbOptions background_opts() {
  DbOptions o;
  o.memtable_bytes = 1 << 20;
  o.wal_capacity = 8 << 20;
  o.background_compaction = true;
  return o;
}

TEST(StreamingCompactionDevice, LoadsStayWithinInputLines) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  Db db(ns, background_opts());
  db.create(t);
  pending_merge(t, db);
  std::uint64_t input_bytes = 0;
  for (const Db::RunInfo& r : db.runs(t)) input_bytes += r.size;

  const auto before = telemetry::Snapshot::capture(platform);
  ASSERT_TRUE(db.background_work(t));
  const hw::CacheCounters c =
      (telemetry::Snapshot::capture(platform) - before).cache_total();
  // One 64 B load per input line plus a small constant per table (header,
  // burst edges, manifest and free-list metadata). Per-entry loads (offset
  // word, lengths, key, value) would need about three times this.
  constexpr std::uint64_t kPerTable = 16;
  EXPECT_LE(c.load_hits + c.load_misses, input_bytes / 64 + kPerTable * 5);
}

// The pool prefix (header, lanes, manifest backup) and the primary
// manifest, as the durable image holds them.
std::vector<std::uint8_t> manifest_image(ThreadCtx& t, PmemNamespace& ns,
                                         Db& db) {
  const std::uint64_t root = db.pool().root(t);
  const std::uint64_t root_size = db.pool().root_size(t);
  std::vector<std::uint8_t> img(pmem::Pool::heap_base() + root_size);
  ns.peek(0, std::span<std::uint8_t>(img.data(), pmem::Pool::heap_base()));
  ns.peek(root, std::span<std::uint8_t>(img.data() + pmem::Pool::heap_base(),
                                        root_size));
  return img;
}

TEST(StreamingCompactionDevice, PoisonInsideInputThrowsAndKeepsManifest) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  Db db(ns, background_opts());
  db.create(t);
  pending_merge(t, db);
  const auto runs = db.runs(t);
  const auto l1 = std::find_if(runs.begin(), runs.end(),
                               [](const auto& r) { return r.level == 1; });
  ASSERT_NE(l1, runs.end());
  platform.poison_line(ns, l1->off + l1->size / 2);
  const auto img = manifest_image(t, ns, db);

  EXPECT_THROW(db.background_work(t), hw::MediaError);
  EXPECT_TRUE(db.compaction_pending());
  EXPECT_EQ(manifest_image(t, ns, db), img);
  const auto after = db.runs(t);
  ASSERT_EQ(after.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(after[i].off, runs[i].off);
    EXPECT_EQ(after[i].size, runs[i].size);
  }
}

TEST(StreamingCompactionDevice, PoisonPastInputEndIsNeverRead) {
  Platform platform;
  PmemNamespace& ns = platform.optane(256 << 20);
  ThreadCtx t = make_thread();
  Db db(ns, background_opts());
  db.create(t);
  const Model model = pending_merge(t, db);
  const auto runs = db.runs(t);
  std::uint64_t end = 0;
  for (const Db::RunInfo& r : runs) end = std::max(end, r.off + r.size);
  const std::uint64_t line = (end + 255) / 256 * 256;
  for (const Db::RunInfo& r : runs)
    ASSERT_TRUE(line >= r.off + r.size || line + 256 <= r.off);
  platform.poison_line(ns, line);

  ASSERT_TRUE(db.background_work(t));
  ASSERT_EQ(db.runs(t).size(), 1u);
  ASSERT_TRUE(db.check(t).ok());
  std::string v;
  for (const auto& [k, want] : model) {
    ASSERT_TRUE(db.get(t, k, &v)) << k;
    EXPECT_EQ(v, want) << k;
  }
}

// --------------------------------------------- bounded, resumable merges --
// A background merge advances by at most turn_bytes() of output per turn
// and commits on the turn that writes its last byte.

DbOptions turn_opts(bool background) {
  DbOptions o;
  o.memtable_bytes = 32 << 10;  // 16 KiB turns; merges span many
  o.wal_capacity = 8 << 20;
  o.background_compaction = background;
  return o;
}

// Rounds of overwrites over a growing key set, one flush each (a round
// stays below the memtable threshold).
void put_round(ThreadCtx& t, Db& db, Model* model, int round) {
  for (int i = 0; i < 150; ++i) {
    const int k = (round * 211 + i * 13) % (200 + round * 100);
    db.put(t, key_of(k), value_of(round * 1000 + i));
    (*model)[key_of(k)] = value_of(round * 1000 + i);
  }
  db.flush(t);
}

// Run the pending merge to its commit, one turn at a time, checking that
// no turn writes more than its budget and that reads stay exact while
// the merge is part way done. Returns the turns taken.
int run_merge(ThreadCtx& t, Db& db, const Model& model, std::mt19937_64& rng) {
  const std::uint64_t merges = db.stats().compactions;
  int turns = 0;
  while (db.stats().compactions == merges) {
    const std::uint64_t written = db.stats().sst_bytes_written;
    EXPECT_TRUE(db.background_work(t));
    ++turns;
    EXPECT_LE(db.stats().sst_bytes_written - written, db.turn_bytes());
    EXPECT_LE(db.turn_bytes(), db.options().memtable_bytes);
    if (turns % 7 == 1 && db.merge_in_progress()) {
      EXPECT_NO_FATAL_FAILURE(expect_matches(t, db, model, 2600, rng));
    }
  }
  EXPECT_FALSE(db.merge_in_progress());
  return turns;
}

TEST(ResumableMerge, SpreadOverTurnsMatchesAnInlineMerge) {
  Platform pa, pb;
  PmemNamespace& na = pa.optane(256 << 20);
  PmemNamespace& nb = pb.optane(256 << 20);
  ThreadCtx t = make_thread();
  Db spread(na, turn_opts(true));
  Db inline_db(nb, turn_opts(false));
  spread.create(t);
  inline_db.create(t);
  std::mt19937_64 rng(3);
  Model model;
  int most_turns = 0;
  for (int round = 0; round < 24; ++round) {
    Model unused;
    put_round(t, spread, &model, round);
    put_round(t, inline_db, &unused, round);
    if (spread.compaction_pending())
      most_turns = std::max(most_turns, run_merge(t, spread, model, rng));
    ASSERT_EQ(spread.stats().compactions, inline_db.stats().compactions);
  }
  EXPECT_GE(spread.stats().compactions, 3u);
  EXPECT_GT(most_turns, 8);
  EXPECT_EQ(spread.stats().write_stalls, 0u);

  // Same merges at the same flushes: the same runs at the same offsets,
  // byte for byte, and the same answers.
  const auto runs = spread.runs(t);
  ASSERT_EQ(runs.size(), inline_db.runs(t).size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Db::RunInfo& r = runs[i];
    EXPECT_EQ(r.off, inline_db.runs(t)[i].off);
    ASSERT_EQ(r.size, inline_db.runs(t)[i].size);
    std::vector<std::uint8_t> a(SsTable::size_bytes(t, na, r.off));
    std::vector<std::uint8_t> b(a.size());
    na.peek(r.off, a);
    nb.peek(r.off, b);
    EXPECT_EQ(a, b) << "run " << i;
  }
  EXPECT_TRUE(spread.check(t).ok());
  EXPECT_TRUE(inline_db.check(t).ok());
  EXPECT_EQ(spread.scan(t, "", 100000), inline_db.scan(t, "", 100000));
  ASSERT_NO_FATAL_FAILURE(expect_matches(t, spread, model, 2600, rng));
  ASSERT_NO_FATAL_FAILURE(expect_matches(t, inline_db, model, 2600, rng));
}

// A crash part way through a merge: recovery frees the output extent the
// merge had recorded, re-derives the debt, and the redone merge matches.
TEST(ResumableMerge, CrashInsidePartialMergeFreesItsExtent) {
  for (const int cut : {1, 4, 9}) {
    Platform platform;
    PmemNamespace& ns = platform.optane(256 << 20);
    ThreadCtx t = make_thread();
    std::mt19937_64 rng(cut);
    Model model;
    std::uint64_t extent_off = 0;
    std::uint64_t extent_size = 0;
    {
      Db db(ns, turn_opts(true));
      db.create(t);
      // Committed merges first, so the cut one rewrites a sizable L1.
      int round = 0;
      for (; round < 14; ++round) {
        put_round(t, db, &model, round);
        while (db.background_work(t)) {
        }
      }
      ASSERT_GT(db.stats().compactions, 0u);
      while (!db.compaction_pending()) put_round(t, db, &model, round++);
      const std::uint64_t top = db.pool().heap_top(t);
      for (int i = 0; i < cut; ++i) ASSERT_TRUE(db.background_work(t));
      ASSERT_TRUE(db.merge_in_progress()) << "cut " << cut;
      extent_off = top;
      extent_size = db.pool().heap_top(t) - top;
      ASSERT_GT(extent_size, 0u) << "the merge recorded no new extent";
      platform.crash();
    }
    Db db(ns, turn_opts(true));
    ASSERT_TRUE(db.open(t));
    ASSERT_TRUE(db.check(t).ok()) << db.check(t).to_string();
    EXPECT_TRUE(db.compaction_pending());
    EXPECT_FALSE(db.merge_in_progress());
    ASSERT_NO_FATAL_FAILURE(expect_matches(t, db, model, 2600, rng));
    {
      // The cut merge's extent went back to the allocator: an allocation
      // of its size is served from it (free-list head, exact fit). The
      // probe rolls back.
      pmem::Tx probe(db.pool(), t);
      EXPECT_EQ(db.pool().tx_alloc(probe, extent_size), extent_off)
          << "cut " << cut;
    }
    EXPECT_TRUE(db.pool().check(t).ok());
    EXPECT_GT(run_merge(t, db, model, rng), cut);
    ASSERT_NO_FATAL_FAILURE(expect_matches(t, db, model, 2600, rng));
    EXPECT_TRUE(db.check(t).ok());
  }
}

// ---- Fig 8 anchor -------------------------------------------------------
double set_throughput(hw::Device device, WalMode wal, MemtableMode mem) {
  Platform platform;
  PmemNamespace& ns = device == hw::Device::kXp
                          ? platform.optane(512 << 20)
                          : platform.dram(512 << 20);
  ThreadCtx t = make_thread();
  DbOptions o;
  o.wal = wal;
  o.memtable = mem;
  Db db(ns, o);
  db.create(t);
  const int n = 3000;
  const sim::Time t0 = t.now();
  for (int i = 0; i < n; ++i) db.put(t, key_of(i * 7919 % 100000),
                                     value_of(i));
  return n / sim::to_s(t.now() - t0);
}

TEST(Fig8Shape, StrategyInversionBetweenDramAndOptane) {
  const double dram_flex = set_throughput(
      hw::Device::kDram, WalMode::kFlex, MemtableMode::kVolatile);
  const double dram_pskip = set_throughput(
      hw::Device::kDram, WalMode::kNone, MemtableMode::kPersistent);
  const double xp_flex = set_throughput(
      hw::Device::kXp, WalMode::kFlex, MemtableMode::kVolatile);
  const double xp_pskip = set_throughput(
      hw::Device::kXp, WalMode::kNone, MemtableMode::kPersistent);

  // Paper Fig 8: on DRAM the persistent memtable wins; on real Optane the
  // conclusion inverts and FLEX wins.
  EXPECT_GT(dram_pskip, dram_flex);
  EXPECT_GT(xp_flex, xp_pskip);
}

}  // namespace
}  // namespace xp::kv
