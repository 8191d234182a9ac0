// Bloom filter for SSTables.
//
// RocksDB attaches a bloom filter to every table so point lookups skip
// runs that cannot contain the key — crucial once L0 accumulates, since
// every absent-key GET would otherwise binary-search every run (and on
// Optane every probe is a ~300 ns random read). ~10 bits/key, k = 7
// double-hashed probes (<1 % false positives).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace xp::kv {

class BloomBuilder {
 public:
  static constexpr unsigned kBitsPerKey = 10;
  static constexpr unsigned kProbes = 7;

  explicit BloomBuilder(std::size_t expected_keys)
      : bits_(bytes_for(expected_keys), 0) {}

  // Serialized filter size for `keys` keys.
  static std::size_t bytes_for(std::size_t keys) {
    return (std::max<std::size_t>(keys * kBitsPerKey, 64) + 7) / 8;
  }

  void add(std::string_view key) { add_hash(hash(key)); }
  // add() for a key hashed earlier (a streamed table knows its key count,
  // and so its filter size, only after the last key).
  void add_hash(std::uint64_t h) {
    std::uint32_t a = static_cast<std::uint32_t>(h);
    const std::uint32_t b = static_cast<std::uint32_t>(h >> 32) | 1;
    for (unsigned i = 0; i < kProbes; ++i) {
      const std::size_t bit = a % (bits_.size() * 8);
      bits_[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
      a += b;
    }
  }

  const std::vector<std::uint8_t>& bits() const { return bits_; }

  // Query against a serialized filter.
  static bool may_contain(const std::uint8_t* filter, std::size_t len,
                          std::string_view key) {
    if (len == 0) return true;  // no filter: cannot exclude
    const std::uint64_t h = hash(key);
    std::uint32_t a = static_cast<std::uint32_t>(h);
    const std::uint32_t b = static_cast<std::uint32_t>(h >> 32) | 1;
    for (unsigned i = 0; i < kProbes; ++i) {
      const std::size_t bit = a % (len * 8);
      if ((filter[bit / 8] & (1u << (bit % 8))) == 0) return false;
      a += b;
    }
    return true;
  }

  // The key hash every probe sequence starts from.
  static std::uint64_t hash(std::string_view s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
    return h;
  }

 private:
  std::vector<std::uint8_t> bits_;
};

}  // namespace xp::kv
