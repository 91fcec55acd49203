#pragma once

// FNV-1a 64 for golden-digest tests: an observable outcome (an arrival log,
// a playout event CSV) is folded into one value and compared against a
// committed constant, so a behaviour change anywhere along the path shows
// up as a digest mismatch.

#include <cstdint>
#include <string_view>

namespace hyms {

struct GoldenDigest {
  std::uint64_t value = 0xcbf29ce484222325ULL;

  void byte(std::uint8_t b) {
    value ^= b;
    value *= 0x100000001b3ULL;
  }
  /// Little-endian, all eight bytes.
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void mix(std::string_view s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

}  // namespace hyms
