// Sorted string table: the immutable on-pmem run format.
//
// Layout at `off`:
//   {u64 magic, u32 count, u32 total_bytes, u32 filter_len, u32 crc}
//   entries: {u32 klen, u32 vlen|tomb, key bytes, value bytes}
//   bloom filter bytes (kv::BloomBuilder, ~10 bits/key)
//   u32 entry_offsets[count]              (relative to the data area)
//
// The data area leads, so a table can be written front to back before
// its entry count is known (Builder, a merge spread over many turns);
// the filter and offset array follow the last entry, and the header is
// written last. Written in large sequential non-temporal bursts
// (guideline #2); point lookups consult the bloom filter first (absent
// keys skip the whole run), then binary-search the offset array with
// timed loads, giving realistic read amplification. Compaction, scans
// and checks read it back through Cursor: sequential bursts of the data
// area.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lsmkv/memtable.h"  // FindResult
#include "pmemlib/linereader.h"
#include "sim/status.h"
#include "xpsim/platform.h"

namespace xp::kv {

class SsTable {
 public:
  static constexpr std::uint64_t kMagic = 0x585053535441424cULL;

  struct Entry {
    std::string key;
    std::string value;
    bool tombstone = false;
  };

  // DRAM residency of a table's read-path metadata (§5.1): the bloom
  // filter and offset array, which every point lookup consults, kept in
  // host memory so gets stop re-loading them from PM. Built for free from
  // the staging buffer at build() time, or loaded once from PM at open.
  struct Residency {
    std::uint32_t count = 0;
    std::vector<std::uint8_t> filter;
    std::vector<std::uint32_t> offsets;
  };

  // Optional read accelerators threaded through get_ex(). A null reader
  // is exactly the plain get() path; `res` is only read with a reader.
  struct ReadCtx {
    const Residency* res = nullptr;      // DRAM metadata (null = load PM)
    pmem::LineReader* reader = nullptr;  // XPLine combining (null = plain)
    std::string* keybuf = nullptr;       // reused probe-key buffer
  };

  // Serialized size of `entries` (for allocation).
  static std::uint64_t encoded_size(const std::vector<Entry>& entries);

  // Serialize sorted `entries` to ns[off..] in one go (a Builder written
  // without a budget); returns bytes written. `residency` (optional) is
  // filled from the staged bytes — no extra PM traffic.
  static std::uint64_t build(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                             std::uint64_t off,
                             const std::vector<Entry>& entries,
                             Residency* residency = nullptr);

  // One-time timed load of a table's residency metadata (open/recovery
  // path): three bulk loads instead of the per-get dribble.
  static Residency load_residency(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                                  std::uint64_t off);

  // `keybuf` (optional) is reused for the probe key on every binary-search
  // step, replacing a fresh heap-allocated std::string per probe. Host-side
  // only: the timed load sequence is unchanged.
  static FindResult get(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                        std::uint64_t off, std::string_view key,
                        std::string* value, std::string* keybuf = nullptr);

  // get() with the read-path accelerators (DbOptions::read_combine): with
  // a reader, probes fetch whole lines through it, and `res` (optional)
  // spares the filter and offset loads; without one it is get(). Returns
  // exactly what get() returns for any table and key; only the PM access
  // pattern differs.
  static FindResult get_ex(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                           std::uint64_t off, std::string_view key,
                           std::string* value, const ReadCtx& rc);

  // Re-reads the whole table and verifies its content CRC (stored in the
  // header at build time). Distinguishes unreadable media (kMediaError)
  // from readable-but-wrong bytes (kCorruption).
  static Status verify_checksum(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                                std::uint64_t off);

  static std::uint32_t count(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                             std::uint64_t off);
  static std::uint64_t size_bytes(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                                  std::uint64_t off);

  // Sorted walk over one table (§5.1: read sequentially, in large
  // XPLine-aligned bursts, at full MLP). Builder writes entries back to
  // back in key order, so the cursor streams the data area front to back
  // in bursts of at most kBurst bytes without touching the offset array;
  // each burst is one sequential load pipelined at streaming MLP even on
  // a latency-bound thread (the LineReader::load_run precedent). Bursts
  // end on XPLine boundaries and never extend past the data area's last
  // byte, so a read never touches a neighbouring allocation's lines: a
  // poisoned line inside the data throws hw::MediaError, one past the
  // table does not.
  //
  // Usage: Cursor c(ctx, ns, off); for (c.seek(ctx, ""); c.valid();
  // c.next(ctx)) use(c.key(), c.value(), c.tombstone());
  // Views are valid until the next next()/seek().
  class Cursor {
   public:
    static constexpr std::size_t kBurst = 4096;

    // Loads the table header; not positioned until seek(). `res` (the
    // table's DRAM residency, optional) spares seek() the offset loads.
    Cursor(sim::ThreadCtx& ctx, hw::PmemNamespace& ns, std::uint64_t off,
           const Residency* res = nullptr);

    // Position at the first entry with key >= `key`: a binary search over
    // the offset array with dependent probe loads, then streaming from
    // there. seek("") starts at the first entry without probing.
    void seek(sim::ThreadCtx& ctx, std::string_view key);
    void next(sim::ThreadCtx& ctx);

    bool valid() const { return idx_ < count_; }
    std::uint32_t count() const { return count_; }
    // Size of the table's data area: its entries, length words included.
    std::uint64_t data_bytes() const { return end_ - data_at_; }
    std::string_view key() const { return {at(pos_ + 8), klen_}; }
    std::string_view value() const { return {at(pos_ + 8 + klen_), vlen_}; }
    bool tombstone() const { return tomb_; }

   private:
    const char* at(std::uint64_t p) const {
      return reinterpret_cast<const char*>(buf_.data() + (p - buf_lo_));
    }
    // Parse the entry at pos_, streaming in whatever it needs. An entry
    // that claims bytes past the data area's end ends the walk (Db::check
    // reports the short count).
    void decode(sim::ThreadCtx& ctx);
    // Stage [p, p + len) (p >= buf_lo_), loading forward in bursts.
    void stage(sim::ThreadCtx& ctx, std::uint64_t p, std::uint64_t len);

    hw::PmemNamespace* ns_;
    const Residency* res_;
    std::uint32_t count_ = 0;
    std::uint32_t idx_ = 0;
    std::uint64_t offsets_at_ = 0;
    std::uint64_t data_at_ = 0;
    std::uint64_t end_ = 0;  // one past the data area's last byte
    std::uint64_t pos_ = 0;  // current entry
    std::uint32_t klen_ = 0;
    std::uint32_t vlen_ = 0;
    bool tomb_ = false;
    std::vector<std::uint8_t> buf_;  // staged bytes [buf_lo_, buf_lo_ + size)
    std::uint64_t buf_lo_ = 0;
  };

  // Streams a table to PM front to back: the write-side twin of Cursor,
  // for a merge whose output is spread over many bounded steps. add()
  // stages entries in DRAM; write() stores at most `budget` staged bytes
  // per call, in sequential ntstore bursts of at most Cursor::kBurst that
  // end on XPLine boundaries, and fences after the table's last byte.
  // seal() appends the filter and offset array once the last entry is in.
  // The header goes out with the first burst when the table is sealed by
  // then (a flush), else after everything else (a merge), so a partly
  // written table never carries a valid header.
  //
  // Usage: Builder b; b.add(...); ...; b.seal(); then
  // while (!b.done()) b.write(ctx, ns, off, budget) into an extent of at
  // least b.size() bytes (bound() before the entries are known).
  class Builder {
   public:
    // Largest encoded size of a table of at most `n` entries whose
    // entries (length words included) total at most `data_bytes`: what a
    // merge allocates for its output before it knows what survives.
    static std::uint64_t bound(std::uint64_t n, std::uint64_t data_bytes);

    Builder();
    void add(std::string_view key, std::string_view value, bool tombstone);
    // `residency` (optional) is filled from the staged bytes.
    void seal(Residency* residency = nullptr);
    // Writes up to `budget` staged bytes to the table at `off` (and the
    // fence, if that completes the table); returns the bytes written.
    // Before seal() a trailing partial XPLine stays staged for the next
    // call.
    std::uint64_t write(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                        std::uint64_t off, std::uint64_t budget);

    std::uint32_t count() const {
      return static_cast<std::uint32_t>(offsets_.size());
    }
    // Encoded size so far, header included.
    std::uint64_t size() const { return lo_ + buf_.size(); }
    // Bytes added but not yet written.
    std::uint64_t staged() const;
    bool sealed() const { return sealed_; }
    bool done() const { return sealed_ && staged() == 0; }

   private:
    void append(const void* p, std::size_t n);

    std::vector<std::uint8_t> buf_;  // table bytes [lo_, size())
    std::uint64_t lo_ = 0;
    std::uint64_t wr_ = 0;  // next table byte to write (>= lo_)
    std::vector<std::uint32_t> offsets_;
    std::vector<std::uint64_t> hashes_;  // BloomBuilder::hash of each key
    std::uint32_t crc_ = 0;              // over every byte after the header
    std::uint32_t filter_len_ = 0;
    bool sealed_ = false;
    bool header_late_ = false;  // header still owed at `off`
  };

 private:
  struct Header {
    std::uint64_t magic;
    std::uint32_t count;
    std::uint32_t total_bytes;
    std::uint32_t filter_len;
    std::uint32_t crc;  // CRC32C over everything after the header
  };
  // Where a table's regions start: the data area right after the header,
  // then the filter, then the offset array, which ends the table.
  struct Layout {
    std::uint64_t data;
    std::uint64_t filter;  // also one past the data area's last byte
    std::uint64_t offsets;
  };
  static Layout layout(std::uint64_t off, const Header& h);
  static constexpr std::uint32_t kTombstoneBit = 0x80000000u;
};

}  // namespace xp::kv
