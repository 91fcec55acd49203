#pragma once

// Internal to hyms_media (and its tests): the frame-body generator built once
// per instruction set. encode_frame_payload() and verify_frame_payload() use
// body_kernel(); tests run every entry of body_kernels() against an
// independent byte-at-a-time generator.

#include <cstddef>
#include <cstdint>
#include <span>

namespace hyms::media::detail {

/// Body bytes one next_block() call generates: two 256-byte groups.
inline constexpr std::size_t kBodyBlockBytes = 512;

/// One instruction-set build of the generator. `next_block` writes the next
/// kBodyBlockBytes bytes of the body stream whose state is `state` to `out`
/// and advances `state` past them.
struct BodyKernel {
  const char* name;
  void (*next_block)(std::uint64_t& state, std::uint8_t* out);
};

/// The builds this host can run, fastest first. The last entry is the
/// portable build, which every host has.
[[nodiscard]] std::span<const BodyKernel> body_kernels();

/// The build frames are encoded and verified with: body_kernels().front().
[[nodiscard]] const BodyKernel& body_kernel();

/// Writes body bytes [0, n) of the stream seeded with `state` to `out`.
void fill_body(const BodyKernel& kernel, std::uint64_t state,
               std::uint8_t* out, std::size_t n);

/// True when the `n` bytes at `body` are bytes [0, n) of the stream seeded
/// with `state`.
[[nodiscard]] bool body_matches(const BodyKernel& kernel, std::uint64_t state,
                                const std::uint8_t* body, std::size_t n);

}  // namespace hyms::media::detail
