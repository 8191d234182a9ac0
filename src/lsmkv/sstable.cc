#include "lsmkv/sstable.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "lsmkv/bloom.h"
#include "sim/crc32.h"

namespace xp::kv {

std::uint64_t SsTable::encoded_size(const std::vector<Entry>& entries) {
  std::uint64_t data = 0;
  for (const Entry& e : entries) data += 8 + e.key.size() + e.value.size();
  return Builder::bound(entries.size(), data);
}

std::uint64_t SsTable::build(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                             std::uint64_t off,
                             const std::vector<Entry>& entries,
                             Residency* residency) {
  Builder b;
  for (const Entry& e : entries) b.add(e.key, e.value, e.tombstone);
  b.seal(residency);
  b.write(ctx, ns, off, b.size());
  assert(b.done());
  return b.size();
}

SsTable::Layout SsTable::layout(std::uint64_t off, const Header& h) {
  const std::uint64_t meta = h.filter_len + std::uint64_t{h.count} * 4;
  // A header whose sizes disagree cannot place its regions below the
  // header; Db::check reports what such a table then fails to hold.
  const std::uint64_t end =
      off + std::max<std::uint64_t>(h.total_bytes, sizeof(Header) + meta);
  const std::uint64_t offsets = end - std::uint64_t{h.count} * 4;
  return {off + sizeof(Header), offsets - h.filter_len, offsets};
}

// ---------------------------------------------------------- Builder ----

std::uint64_t SsTable::Builder::bound(std::uint64_t n,
                                      std::uint64_t data_bytes) {
  return sizeof(Header) + data_bytes + BloomBuilder::bytes_for(n) + n * 4;
}

SsTable::Builder::Builder() : buf_(sizeof(Header), 0) {}

std::uint64_t SsTable::Builder::staged() const {
  return size() - wr_ + (header_late_ ? sizeof(Header) : 0);
}

void SsTable::Builder::append(const void* p, std::size_t n) {
  if (n == 0) return;  // p may be null (an empty value or offset array)
  const std::size_t at = buf_.size();
  buf_.resize(at + n);
  std::memcpy(buf_.data() + at, p, n);
  crc_ = sim::crc32c(buf_.data() + at, n, crc_);
}

void SsTable::Builder::add(std::string_view key, std::string_view value,
                           bool tombstone) {
  assert(!sealed_);
  offsets_.push_back(static_cast<std::uint32_t>(size() - sizeof(Header)));
  hashes_.push_back(BloomBuilder::hash(key));
  const auto klen = static_cast<std::uint32_t>(key.size());
  const std::uint32_t vlen = static_cast<std::uint32_t>(value.size()) |
                             (tombstone ? kTombstoneBit : 0);
  append(&klen, 4);
  append(&vlen, 4);
  append(key.data(), key.size());
  append(value.data(), value.size());
}

void SsTable::Builder::seal(Residency* residency) {
  assert(!sealed_);
  sealed_ = true;
  BloomBuilder bloom(offsets_.size());
  for (const std::uint64_t h : hashes_) bloom.add_hash(h);
  filter_len_ = static_cast<std::uint32_t>(bloom.bits().size());
  append(bloom.bits().data(), bloom.bits().size());
  append(offsets_.data(), offsets_.size() * 4);
  if (wr_ == 0) {  // nothing written yet: the header leads the first burst
    const Header h{kMagic, count(), static_cast<std::uint32_t>(size()),
                   filter_len_, crc_};
    std::memcpy(buf_.data(), &h, sizeof(h));
  } else {
    header_late_ = true;
  }
  if (residency != nullptr) {
    residency->count = count();
    residency->filter = bloom.bits();
    residency->offsets = offsets_;
  }
}

std::uint64_t SsTable::Builder::write(sim::ThreadCtx& ctx,
                                      hw::PmemNamespace& ns,
                                      std::uint64_t off,
                                      std::uint64_t budget) {
  constexpr std::uint64_t kLine = hw::Platform::kXpLineBytes;
  std::uint64_t stop = size();
  if (!sealed_) {
    const std::uint64_t line_end = (off + stop) / kLine * kLine;
    if (line_end > off + wr_) stop = line_end - off;
  }
  if (stop - wr_ > budget) stop = wr_ + budget;
  std::uint64_t n = 0;
  while (wr_ < stop) {
    const std::uint64_t to =
        std::min(stop, (off + wr_) / kLine * kLine + Cursor::kBurst - off);
    ns.ntstore(ctx, off + wr_,
               std::span<const std::uint8_t>(buf_.data() + (wr_ - lo_),
                                             to - wr_));
    n += to - wr_;
    wr_ = to;
  }
  if (header_late_ && wr_ == size() && n + sizeof(Header) <= budget) {
    const Header h{kMagic, count(), static_cast<std::uint32_t>(size()),
                   filter_len_, crc_};
    ns.ntstore(ctx, off,
               std::span<const std::uint8_t>(
                   reinterpret_cast<const std::uint8_t*>(&h), sizeof(h)));
    n += sizeof(Header);
    header_late_ = false;
  }
  // One fence, once the whole table is out: a partly written table is
  // garbage to recovery anyway, so earlier bursts need not wait to drain.
  if (n > 0 && done()) ns.sfence(ctx);
  // Drop the written prefix once per call rather than once per burst.
  buf_.erase(buf_.begin(),
             buf_.begin() + static_cast<std::ptrdiff_t>(wr_ - lo_));
  lo_ = wr_;
  return n;
}

Status SsTable::verify_checksum(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                                std::uint64_t off) {
  Header h{};
  try {
    h = ns.load_pod<Header>(ctx, off);
  } catch (const hw::MediaError& e) {
    return Status::MediaFault(e.what());
  }
  if (h.magic != kMagic) return Status::Corruption("sstable: bad magic");
  if (h.total_bytes < sizeof(Header))
    return Status::Corruption("sstable: total_bytes smaller than header");
  std::uint32_t crc = 0;
  constexpr std::size_t kChunk = 4096;
  std::vector<std::uint8_t> buf(kChunk);
  try {
    for (std::uint64_t p = sizeof(Header); p < h.total_bytes; p += kChunk) {
      const std::size_t n = std::min<std::uint64_t>(kChunk, h.total_bytes - p);
      ns.load(ctx, off + p, std::span<std::uint8_t>(buf.data(), n));
      crc = sim::crc32c(buf.data(), n, crc);
    }
  } catch (const hw::MediaError& e) {
    return Status::MediaFault(e.what());
  }
  if (crc != h.crc) return Status::Corruption("sstable: content crc mismatch");
  return Status::Ok();
}

std::uint32_t SsTable::count(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                             std::uint64_t off) {
  const auto h = ns.load_pod<Header>(ctx, off);
  return h.magic == kMagic ? h.count : 0;
}

std::uint64_t SsTable::size_bytes(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                                  std::uint64_t off) {
  const auto h = ns.load_pod<Header>(ctx, off);
  return h.magic == kMagic ? h.total_bytes : 0;
}

FindResult SsTable::get(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                        std::uint64_t off, std::string_view key,
                        std::string* value, std::string* keybuf) {
  const auto h = ns.load_pod<Header>(ctx, off);
  assert(h.magic == kMagic);
  const Layout at = layout(off, h);
  // Bloom check first: absent keys skip the run with high probability.
  std::vector<std::uint8_t> filter(h.filter_len);
  if (h.filter_len > 0) ns.load(ctx, at.filter, filter);
  if (!BloomBuilder::may_contain(filter.data(), filter.size(), key))
    return FindResult::kNotFound;
  const std::uint64_t offsets_at = at.offsets;
  const std::uint64_t data_at = at.data;

  std::string local;
  std::string& k = keybuf != nullptr ? *keybuf : local;
  std::uint32_t lo = 0, hi = h.count;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const auto rel = ns.load_pod<std::uint32_t>(ctx, offsets_at + mid * 4);
    const auto klen = ns.load_pod<std::uint32_t>(ctx, data_at + rel);
    k.resize(klen);
    ns.load(ctx, data_at + rel + 8,
            std::span<std::uint8_t>(
                reinterpret_cast<std::uint8_t*>(k.data()), klen));
    if (k < key) {
      lo = mid + 1;
    } else if (k > key) {
      hi = mid;
    } else {
      const auto vraw = ns.load_pod<std::uint32_t>(ctx, data_at + rel + 4);
      if (vraw & kTombstoneBit) return FindResult::kTombstone;
      const std::uint32_t vlen = vraw & ~kTombstoneBit;
      if (value != nullptr) {
        value->resize(vlen);
        ns.load(ctx, data_at + rel + 8 + klen,
                std::span<std::uint8_t>(
                    reinterpret_cast<std::uint8_t*>(value->data()), vlen));
      }
      return FindResult::kFound;
    }
  }
  return FindResult::kNotFound;
}

SsTable::Residency SsTable::load_residency(sim::ThreadCtx& ctx,
                                           hw::PmemNamespace& ns,
                                           std::uint64_t off) {
  const auto h = ns.load_pod<Header>(ctx, off);
  assert(h.magic == kMagic);
  Residency r;
  r.count = h.count;
  const Layout at = layout(off, h);
  r.filter.resize(h.filter_len);
  if (h.filter_len > 0) ns.load(ctx, at.filter, r.filter);
  r.offsets.resize(h.count);
  if (h.count > 0)
    ns.load(ctx, at.offsets,
            std::span<std::uint8_t>(
                reinterpret_cast<std::uint8_t*>(r.offsets.data()),
                std::size_t{h.count} * 4));
  return r;
}

FindResult SsTable::get_ex(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                           std::uint64_t off, std::string_view key,
                           std::string* value, const ReadCtx& rc) {
  if (rc.reader == nullptr) return get(ctx, ns, off, key, value, rc.keybuf);

  std::uint32_t count;
  std::uint32_t filter_len;
  const std::uint8_t* fbits;
  std::vector<std::uint8_t> filter_local;
  std::uint64_t offsets_at = 0;  // read only without residency
  if (rc.res != nullptr) {
    count = rc.res->count;
    filter_len = static_cast<std::uint32_t>(rc.res->filter.size());
    fbits = rc.res->filter.data();
  } else {
    const auto h = rc.reader->fetch_pod<Header>(ctx, ns, off);
    assert(h.magic == kMagic);
    const Layout at = layout(off, h);
    count = h.count;
    filter_len = h.filter_len;
    offsets_at = at.offsets;
    filter_local.resize(filter_len);
    if (filter_len > 0) rc.reader->read(ctx, ns, at.filter, filter_local);
    fbits = filter_local.data();
  }
  if (!BloomBuilder::may_contain(fbits, filter_len, key))
    return FindResult::kNotFound;
  const std::uint64_t data_at = off + sizeof(Header);

  std::uint32_t lo = 0, hi = count;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const std::uint32_t rel =
        rc.res != nullptr
            ? rc.res->offsets[mid]
            : rc.reader->fetch_pod<std::uint32_t>(ctx, ns,
                                                  offsets_at + mid * 4);
    // One line-aligned fetch stages the entry header and (for the
    // expected key size) the whole probe key; klen/vraw must be copied
    // out before the next fetch invalidates the staged pointer.
    const std::uint8_t* e =
        rc.reader->fetch(ctx, ns, data_at + rel, 8, 8 + key.size());
    std::uint32_t klen, vraw;
    std::memcpy(&klen, e, 4);
    std::memcpy(&vraw, e + 4, 4);
    const std::uint8_t* kb = rc.reader->fetch(ctx, ns, data_at + rel + 8,
                                              klen);
    const std::size_t n = std::min<std::size_t>(klen, key.size());
    int c = n == 0 ? 0 : std::memcmp(kb, key.data(), n);
    if (c == 0 && klen != key.size()) c = klen < key.size() ? -1 : 1;
    if (c < 0) {
      lo = mid + 1;
    } else if (c > 0) {
      hi = mid;
    } else {
      if (vraw & kTombstoneBit) return FindResult::kTombstone;
      const std::uint32_t vlen = vraw & ~kTombstoneBit;
      if (value != nullptr) {
        value->resize(vlen);
        rc.reader->read(ctx, ns, data_at + rel + 8 + klen,
                        std::span<std::uint8_t>(
                            reinterpret_cast<std::uint8_t*>(value->data()),
                            vlen));
      }
      return FindResult::kFound;
    }
  }
  return FindResult::kNotFound;
}

SsTable::Cursor::Cursor(sim::ThreadCtx& ctx, hw::PmemNamespace& ns,
                        std::uint64_t off, const Residency* res)
    : ns_(&ns), res_(res) {
  const auto h = ns.load_pod<Header>(ctx, off);
  assert(h.magic == kMagic);
  assert(res == nullptr || res->count == h.count);
  count_ = h.count;
  idx_ = count_;  // not positioned yet
  const Layout at = layout(off, h);
  offsets_at_ = at.offsets;
  data_at_ = at.data;
  end_ = at.filter;
}

void SsTable::Cursor::seek(sim::ThreadCtx& ctx, std::string_view key) {
  buf_.clear();
  std::uint32_t lo = 0;
  std::uint32_t rel = 0;  // offset of entry `lo` once the search settles
  if (!key.empty()) {
    std::string probe;
    std::uint32_t hi = count_;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      const std::uint32_t r =
          res_ != nullptr
              ? res_->offsets[mid]
              : ns_->load_pod<std::uint32_t>(
                    ctx, offsets_at_ + std::uint64_t{mid} * 4);
      const auto klen = ns_->load_pod<std::uint32_t>(ctx, data_at_ + r);
      probe.resize(klen);
      ns_->load(ctx, data_at_ + r + 8,
                std::span<std::uint8_t>(
                    reinterpret_cast<std::uint8_t*>(probe.data()), klen));
      if (probe < key) {
        lo = mid + 1;
      } else {
        hi = mid;
        rel = r;
      }
    }
  }
  idx_ = lo;
  pos_ = data_at_ + rel;
  buf_lo_ = pos_;
  if (valid()) decode(ctx);
}

void SsTable::Cursor::next(sim::ThreadCtx& ctx) {
  pos_ += 8 + std::uint64_t{klen_} + vlen_;
  if (++idx_ < count_) decode(ctx);
}

void SsTable::Cursor::decode(sim::ThreadCtx& ctx) {
  if (pos_ + 8 > end_) {
    idx_ = count_;
    return;
  }
  stage(ctx, pos_, 8);
  std::uint32_t vraw;
  std::memcpy(&klen_, at(pos_), 4);
  std::memcpy(&vraw, at(pos_ + 4), 4);
  tomb_ = (vraw & kTombstoneBit) != 0;
  vlen_ = vraw & ~kTombstoneBit;
  const std::uint64_t len = 8 + std::uint64_t{klen_} + vlen_;
  if (pos_ + len > end_) {
    idx_ = count_;
    return;
  }
  stage(ctx, pos_, len);
}

void SsTable::Cursor::stage(sim::ThreadCtx& ctx, std::uint64_t p,
                            std::uint64_t len) {
  assert(p >= buf_lo_ && p + len <= end_);
  std::uint64_t hi = buf_lo_ + buf_.size();
  if (p + len <= hi) return;
  // Keep the staged bytes from p on (a straddling entry's head) and load
  // only what follows them: no line is read twice.
  if (p < hi) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(p - buf_lo_));
  } else {
    buf_.clear();
    hi = p;
  }
  buf_lo_ = p;
  constexpr std::uint64_t kLine = hw::Platform::kXpLineBytes;
  // Bursts pipeline at streaming MLP.
  const sim::MlpScope burst(ctx, ns_->platform().timing().default_mlp);
  while (hi < p + len) {
    const std::uint64_t to = std::min(end_, hi / kLine * kLine + kBurst);
    buf_.resize(to - buf_lo_);
    ns_->load(ctx, hi,
              std::span<std::uint8_t>(buf_.data() + (hi - buf_lo_), to - hi));
    hi = to;
  }
}

}  // namespace xp::kv
