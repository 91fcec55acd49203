#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "media/body_kernels.hpp"
#include "media/frame.hpp"
#include "media/profiles.hpp"
#include "media/quality.hpp"
#include "media/source.hpp"

namespace hyms {
namespace {

using namespace hyms::media;

// --- profiles -----------------------------------------------------------------------

TEST(VideoProfileTest, LadderBitratesDecrease) {
  VideoProfile profile;
  const auto levels = profile.levels();
  ASSERT_EQ(levels.size(), profile.compression_factors.size());
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(levels[i].bitrate_bps, levels[i - 1].bitrate_bps);
  }
  EXPECT_DOUBLE_EQ(levels[0].bitrate_bps, profile.base_bitrate_bps);
}

TEST(VideoProfileTest, FrameInterval) {
  VideoProfile profile;
  profile.fps = 25.0;
  EXPECT_EQ(profile.frame_interval(), Time::msec(40));
}

TEST(VideoProfileTest, GopPreservesMeanFrameSize) {
  VideoProfile profile;
  for (int level = 0; level < profile.level_count(); ++level) {
    std::size_t total = 0;
    for (int k = 0; k < profile.gop_size; ++k) {
      total += profile.frame_bytes(level, k);
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(profile.gop_size);
    EXPECT_NEAR(mean, static_cast<double>(profile.mean_frame_bytes(level)),
                static_cast<double>(profile.mean_frame_bytes(level)) * 0.02)
        << "level " << level;
  }
}

TEST(VideoProfileTest, IFramesLargerThanPFrames) {
  VideoProfile profile;
  EXPECT_GT(profile.frame_bytes(0, 0), profile.frame_bytes(0, 1));
  EXPECT_EQ(profile.frame_bytes(0, 0), profile.frame_bytes(0, 12));  // GOP period
}

TEST(AudioProfileTest, BitsPerSampleByFormat) {
  AudioProfile pcm;
  pcm.format = AudioFormat::kPcm;
  EXPECT_EQ(pcm.bits_per_sample(), 16);
  AudioProfile adpcm;
  adpcm.format = AudioFormat::kAdpcm;
  EXPECT_EQ(adpcm.bits_per_sample(), 4);
  AudioProfile vadpcm;
  vadpcm.format = AudioFormat::kVadpcm;
  EXPECT_EQ(vadpcm.bits_per_sample(), 3);
}

TEST(AudioProfileTest, SamplingFrequencyLadder) {
  AudioProfile profile;
  // 44.1kHz * 16 bits mono = 705.6 kbps at the top level.
  EXPECT_NEAR(profile.bitrate_bps(0), 705'600.0, 1.0);
  EXPECT_NEAR(profile.bitrate_bps(3), 128'000.0, 1.0);
  // Frame bytes = bitrate/8 * 40ms.
  EXPECT_EQ(profile.frame_bytes(0), 3528u);
}

TEST(ImageProfileTest, QualityScalesBytes) {
  ImageProfile profile;
  const auto best = profile.bytes(0);
  const auto worst = profile.bytes(profile.level_count() - 1);
  EXPECT_GT(best, worst);
  EXPECT_NEAR(static_cast<double>(worst) / static_cast<double>(best), 0.2,
              0.01);
}

TEST(ImageProfileTest, FormatAffectsSize) {
  ImageProfile jpeg;
  jpeg.format = ImageFormat::kJpeg;
  ImageProfile bmp;
  bmp.format = ImageFormat::kBmp;
  EXPECT_GT(bmp.bytes(0), jpeg.bytes(0) * 10);  // raster vs compressed
}

TEST(TypesTest, Names) {
  EXPECT_EQ(to_string(MediaType::kVideo), "video");
  EXPECT_EQ(to_string(ImageFormat::kJpeg), "jpeg");
  EXPECT_EQ(to_string(AudioFormat::kVadpcm), "vadpcm");
  EXPECT_EQ(to_string(VideoFormat::kMpeg), "mpeg");
}

// --- frame payloads ------------------------------------------------------------------

TEST(FramePayloadTest, EncodeVerifyRoundTrip) {
  const auto payload = encode_frame_payload(0xABCD, 42, 3, 500);
  EXPECT_EQ(payload.size(), 500u);
  const auto meta = verify_frame_payload(payload);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->source_hash, 0xABCDu);
  EXPECT_EQ(meta->index, 42);
  EXPECT_EQ(meta->quality_level, 3);
}

// Body lengths on both sides of the generator's 32-byte lane slices,
// 256-byte groups and 512-byte blocks, plus multi-kilobyte bodies with a
// partial block after many whole ones.
constexpr std::size_t kBodyLengths[] = {0,   1,   31,  32,   255,  256, 257,
                                        511, 512, 513, 3479, 5979, 8192};

// Byte-at-a-time reference for the payload layout: big-endian header, then
// one xorshift step per body byte, emitting the state's low byte.
std::uint64_t oracle_seed(std::uint32_t source_hash, std::int64_t index,
                          int level) {
  return (static_cast<std::uint64_t>(source_hash) << 32) ^
         static_cast<std::uint64_t>(index) ^
         (static_cast<std::uint64_t>(level) << 56) ^ 0x9E3779B97F4A7C15ULL;
}

std::vector<std::uint8_t> oracle_body(std::uint64_t x, std::size_t body_len) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < body_len; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out.push_back(static_cast<std::uint8_t>(x));
  }
  return out;
}

std::vector<std::uint8_t> oracle_header(std::uint32_t source_hash,
                                        std::int64_t index, int level,
                                        std::size_t body_len) {
  std::vector<std::uint8_t> out;
  const auto put = [&out](std::uint64_t v, int bytes) {
    for (int i = bytes - 1; i >= 0; --i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put(0x48594D46, 4);  // "HYMF"
  put(source_hash, 4);
  put(static_cast<std::uint64_t>(index), 8);
  put(static_cast<std::uint8_t>(level), 1);
  put(body_len, 4);
  return out;
}

std::vector<std::uint8_t> oracle_payload(std::uint32_t source_hash,
                                         std::int64_t index, int level,
                                         std::size_t body_len) {
  auto out = oracle_header(source_hash, index, level, body_len);
  const auto body =
      oracle_body(oracle_seed(source_hash, index, level), body_len);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

TEST(FramePayloadTest, EncodeMatchesByteAtATimeOracle) {
  const std::int64_t indexes[] = {std::numeric_limits<std::int64_t>::min(),
                                  -987654321, -1, 0, 1, 1'000'003,
                                  std::numeric_limits<std::int64_t>::max()};
  for (const std::size_t body_len : kBodyLengths) {
    for (const std::int64_t index : indexes) {
      for (const int level : {0, 1, 255}) {
        EXPECT_EQ(encode_frame_payload(0xC0FFEE, index, level,
                                       kFrameHeaderBytes + body_len),
                  oracle_payload(0xC0FFEE, index, level, body_len))
            << "body " << body_len << " index " << index << " level "
            << level;
      }
    }
  }
}

// FNV-1a 64 over the concatenated payloads of a fixed (hash, index, level,
// size) sweep, recorded from the byte-at-a-time generator. Any change to the
// wire bytes of a frame payload changes this digest.
constexpr std::uint64_t kGoldenPayloadDigest = 0xe6025d144cdbca7dULL;

template <class MakePayload>
std::uint64_t golden_sweep_digest(const MakePayload& make_payload) {
  const std::uint32_t hashes[] = {0u, 1u, 0xABCDu, 0xDEADBEEFu, 0xFFFFFFFFu};
  const std::int64_t indexes[] = {std::numeric_limits<std::int64_t>::min(),
                                  -1,
                                  0,
                                  1,
                                  42,
                                  1'000'003,
                                  std::numeric_limits<std::int64_t>::max()};
  const std::size_t totals[] = {0,   20,  21,  22,   52,   53,   276, 277,
                                278, 532, 533, 534, 3500, 6000, 8213};
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t payloads = 0;
  for (const std::uint32_t hash : hashes) {
    for (const std::int64_t index : indexes) {
      for (const int level : {0, 1, 7, 255}) {
        for (const std::size_t total : totals) {
          for (const std::uint8_t b : make_payload(hash, index, level, total)) {
            digest ^= b;
            digest *= 0x100000001b3ULL;
          }
          ++payloads;
        }
      }
    }
  }
  EXPECT_EQ(payloads, 2100u);
  return digest;
}

TEST(FramePayloadTest, WireBytesMatchGoldenDigest) {
  EXPECT_EQ(golden_sweep_digest(encode_frame_payload), kGoldenPayloadDigest);
}

TEST(FramePayloadTest, EveryBodyBitFlipDetected) {
  for (const std::size_t body_len : kBodyLengths) {
    auto payload = encode_frame_payload(7, 2, 0, kFrameHeaderBytes + body_len);
    ASSERT_TRUE(verify_frame_payload(payload).has_value()) << body_len;
    for (std::size_t i = 0; i < body_len; ++i) {
      const auto bit = static_cast<std::uint8_t>(1u << (i % 8));
      payload[kFrameHeaderBytes + i] ^= bit;
      EXPECT_FALSE(verify_frame_payload(payload).has_value())
          << "body " << body_len << " byte " << i;
      payload[kFrameHeaderBytes + i] ^= bit;
    }
  }
}

TEST(FramePayloadTest, EveryHeaderFieldFlipDetected) {
  // Header bytes: magic 0-3, source_hash 4-7, index 8-15, level 16,
  // body_len 17-20. A changed key (hash, index, level) is caught through the
  // body it regenerates, so an empty body cannot catch it, and a body of a
  // few bytes could match the new key's bytes by chance.
  constexpr std::size_t kKeyFirst = 4;
  constexpr std::size_t kKeyEnd = 17;
  for (const std::size_t body_len : kBodyLengths) {
    auto payload =
        encode_frame_payload(7, -3, 1, kFrameHeaderBytes + body_len);
    for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
      if (i >= kKeyFirst && i < kKeyEnd && body_len < 8) continue;
      payload[i] ^= 0x10;
      EXPECT_FALSE(verify_frame_payload(payload).has_value())
          << "body " << body_len << " header byte " << i;
      payload[i] ^= 0x10;
    }
  }
}

TEST(FramePayloadTest, LengthOffByOneDetected) {
  for (const std::size_t body_len : kBodyLengths) {
    const auto payload =
        encode_frame_payload(7, 2, 0, kFrameHeaderBytes + body_len);
    auto shorter = payload;
    shorter.pop_back();
    EXPECT_FALSE(verify_frame_payload(shorter).has_value()) << body_len;
    auto longer = payload;
    longer.push_back(0);
    EXPECT_FALSE(verify_frame_payload(longer).has_value()) << body_len;
  }
}

TEST(FramePayloadTest, TruncationDetected) {
  auto payload = encode_frame_payload(1, 2, 0, 200);
  payload.resize(150);
  EXPECT_FALSE(verify_frame_payload(payload).has_value());
}

TEST(FramePayloadTest, HeaderMinimumEnforced) {
  const auto payload = encode_frame_payload(1, 2, 0, 0);
  EXPECT_GE(payload.size(), 21u);
  EXPECT_TRUE(verify_frame_payload(payload).has_value());
}

TEST(FramePayloadTest, DistinctKeysGiveDistinctBodies) {
  const auto a = encode_frame_payload(1, 0, 0, 100);
  const auto b = encode_frame_payload(1, 1, 0, 100);
  const auto c = encode_frame_payload(2, 0, 0, 100);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(FramePayloadTest, SourceNameHashStable) {
  EXPECT_EQ(hash_source_name("video:mpeg:x"), hash_source_name("video:mpeg:x"));
  EXPECT_NE(hash_source_name("a"), hash_source_name("b"));
}

// --- body generator kernels ---------------------------------------------------------
// Every instruction-set build of the body generator this host can run, each
// against the byte-at-a-time oracle. The portable build is always listed, so
// it is covered on hosts whose frames use a wider one.

TEST(BodyKernelTest, DispatchesFirstListedAndListsPortableLast) {
  const auto kernels = detail::body_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(&detail::body_kernel(), &kernels.front());
  EXPECT_EQ(std::string(kernels.back().name), "portable");
}

class BodyKernelSweep : public ::testing::TestWithParam<std::size_t> {
 protected:
  const detail::BodyKernel& kernel() const {
    return detail::body_kernels()[GetParam()];
  }
};

// Every length up to four blocks, so every partial-block size and every
// lane, group and block boundary is crossed. Filling writes nothing past
// the body.
TEST_P(BodyKernelSweep, MatchesByteAtATimeOracleAtEveryLength) {
  constexpr std::size_t kSlack = 64;
  for (std::size_t n = 0; n <= 2100; ++n) {
    const std::uint64_t seed = oracle_seed(0xC0FFEE, static_cast<int>(n) - 700,
                                           static_cast<int>(n % 256));
    const auto expected = oracle_body(seed, n);
    std::vector<std::uint8_t> out(n + kSlack, 0xA5);
    detail::fill_body(kernel(), seed, out.data(), n);
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()))
        << "body " << n;
    for (std::size_t i = n; i < out.size(); ++i) {
      ASSERT_EQ(out[i], 0xA5) << "body " << n << " wrote byte " << i;
    }
    ASSERT_TRUE(detail::body_matches(kernel(), seed, expected.data(), n))
        << "body " << n;
  }
}

TEST_P(BodyKernelSweep, WireBytesMatchGoldenDigest) {
  const auto payload = [this](std::uint32_t hash, std::int64_t index,
                              int level, std::size_t total) {
    const std::size_t body_len =
        encoded_frame_size(total) - kFrameHeaderBytes;
    auto out = oracle_header(hash, index, level, body_len);
    out.resize(kFrameHeaderBytes + body_len);
    detail::fill_body(kernel(), oracle_seed(hash, index, level),
                      out.data() + kFrameHeaderBytes, body_len);
    return out;
  };
  EXPECT_EQ(golden_sweep_digest(payload), kGoldenPayloadDigest);
}

TEST_P(BodyKernelSweep, EveryBodyBitFlipRejected) {
  for (const std::size_t body_len : kBodyLengths) {
    const std::uint64_t seed = oracle_seed(7, 2, 0);
    auto body = oracle_body(seed, body_len);
    for (std::size_t i = 0; i < body_len; ++i) {
      const auto bit = static_cast<std::uint8_t>(1u << (i % 8));
      body[i] ^= bit;
      EXPECT_FALSE(detail::body_matches(kernel(), seed, body.data(), body_len))
          << "body " << body_len << " byte " << i;
      body[i] ^= bit;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, BodyKernelSweep,
    ::testing::Range<std::size_t>(0, detail::body_kernels().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string name = detail::body_kernels()[info.param].name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- sources ------------------------------------------------------------------------

TEST(VideoSourceTest, FrameCountAndTimes) {
  VideoProfile profile;
  VideoSource source("video:mpeg:test", profile, Time::sec(4));
  EXPECT_EQ(source.frame_count(), 100);  // 4s * 25fps
  const auto f = source.frame(10, 0);
  EXPECT_EQ(f.media_time, Time::msec(400));
  EXPECT_EQ(f.duration, Time::msec(40));
  EXPECT_TRUE(verify_frame_payload(f.payload).has_value());
}

TEST(VideoSourceTest, DeterministicFrames) {
  VideoProfile profile;
  VideoSource a("video:mpeg:same", profile, Time::sec(2));
  VideoSource b("video:mpeg:same", profile, Time::sec(2));
  EXPECT_EQ(a.frame(7, 1).payload, b.frame(7, 1).payload);
}

TEST(VideoSourceTest, LevelsShrinkFrames) {
  VideoProfile profile;
  VideoSource source("video:mpeg:test", profile, Time::sec(2));
  EXPECT_GT(source.frame(1, 0).payload.size(),
            source.frame(1, profile.level_count() - 1).payload.size());
}

TEST(VideoSourceTest, OutOfRangeThrows) {
  VideoProfile profile;
  VideoSource source("v", profile, Time::sec(1));
  EXPECT_THROW(source.frame(-1, 0), std::out_of_range);
  EXPECT_THROW(source.frame(source.frame_count(), 0), std::out_of_range);
  EXPECT_THROW(source.frame(0, 99), std::out_of_range);
}

TEST(AudioSourceTest, BlocksAndVerification) {
  AudioProfile profile;
  AudioSource source("audio:pcm:test", profile, Time::sec(2));
  EXPECT_EQ(source.frame_count(), 50);  // 2s / 40ms
  const auto f = source.frame(49, 0);
  EXPECT_EQ(f.media_time, Time::msec(49 * 40));
  const auto meta = verify_frame_payload(f.payload);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->index, 49);
}

TEST(ImageSourceTest, SingleFrame) {
  ImageProfile profile;
  ImageSource source("image:jpeg:pic", profile);
  EXPECT_EQ(source.frame_count(), 1);
  EXPECT_EQ(source.duration(), Time::zero());
  const auto f = source.frame(0, 0);
  EXPECT_EQ(f.payload.size(), profile.bytes(0));
  EXPECT_THROW(source.frame(1, 0), std::out_of_range);
}

TEST(TextSourceTest, CarriesContentVerbatim) {
  TextSource source("text:plain:doc", "hello world");
  const auto f = source.frame(0, 0);
  EXPECT_EQ(std::string(f.payload.begin(), f.payload.end()), "hello world");
  EXPECT_EQ(source.level_count(), 1);
}

// --- parameterized format sweeps ------------------------------------------------------

class AudioFormatSweep : public ::testing::TestWithParam<media::AudioFormat> {};

TEST_P(AudioFormatSweep, LadderMonotoneAndFramesVerify) {
  AudioProfile profile;
  profile.format = GetParam();
  AudioSource source("audio:sweep", profile, Time::sec(2));
  for (int level = 0; level < source.level_count(); ++level) {
    if (level > 0) {
      EXPECT_LT(source.bitrate_bps(level), source.bitrate_bps(level - 1));
      EXPECT_LT(profile.frame_bytes(level), profile.frame_bytes(level - 1));
    }
    const auto frame = source.frame(0, level);
    const auto meta = verify_frame_payload(frame.payload);
    ASSERT_TRUE(meta.has_value());
    EXPECT_EQ(meta->quality_level, level);
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, AudioFormatSweep,
                         ::testing::Values(AudioFormat::kPcm,
                                           AudioFormat::kAdpcm,
                                           AudioFormat::kVadpcm));

class ImageFormatSweep : public ::testing::TestWithParam<media::ImageFormat> {};

TEST_P(ImageFormatSweep, QualityLaddersShrinkBytes) {
  ImageProfile profile;
  profile.format = GetParam();
  ImageSource source("image:sweep", profile);
  for (int level = 1; level < source.level_count(); ++level) {
    EXPECT_LT(profile.bytes(level), profile.bytes(level - 1));
  }
  const auto frame = source.frame(0, source.level_count() - 1);
  EXPECT_TRUE(verify_frame_payload(frame.payload).has_value());
}

INSTANTIATE_TEST_SUITE_P(Formats, ImageFormatSweep,
                         ::testing::Values(ImageFormat::kGif,
                                           ImageFormat::kTiff,
                                           ImageFormat::kBmp,
                                           ImageFormat::kJpeg));

class VideoFormatSweep : public ::testing::TestWithParam<media::VideoFormat> {};

TEST_P(VideoFormatSweep, GopStructureHoldsAtEveryLevel) {
  VideoProfile profile;
  profile.format = GetParam();
  VideoSource source("video:sweep", profile, Time::sec(2));
  for (int level = 0; level < source.level_count(); ++level) {
    // I-frame every gop_size frames, strictly larger than P-frames.
    EXPECT_GT(profile.frame_bytes(level, 0),
              profile.frame_bytes(level, 1));
    EXPECT_EQ(profile.frame_bytes(level, 0),
              profile.frame_bytes(level, profile.gop_size));
    const auto frame = source.frame(3, level);
    EXPECT_TRUE(verify_frame_payload(frame.payload).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, VideoFormatSweep,
                         ::testing::Values(VideoFormat::kAvi,
                                           VideoFormat::kMpeg));

// --- quality converter -----------------------------------------------------------------

TEST(QualityConverterTest, WalksLadderWithinBounds) {
  VideoProfile profile;
  VideoSource source("v", profile, Time::sec(1));
  QualityConverter converter(source, 3);

  EXPECT_EQ(converter.current_level(), 0);
  EXPECT_TRUE(converter.at_best());
  EXPECT_FALSE(converter.upgrade());  // already best

  EXPECT_TRUE(converter.degrade());
  EXPECT_TRUE(converter.degrade());
  EXPECT_TRUE(converter.degrade());
  EXPECT_EQ(converter.current_level(), 3);
  EXPECT_TRUE(converter.at_floor());
  EXPECT_FALSE(converter.degrade()) << "must not pass the user floor";

  EXPECT_TRUE(converter.upgrade());
  EXPECT_EQ(converter.current_level(), 2);
  EXPECT_EQ(converter.stats().degrades, 3);
  EXPECT_EQ(converter.stats().upgrades, 1);
}

TEST(QualityConverterTest, BitrateFollowsLevel) {
  VideoProfile profile;
  VideoSource source("v", profile, Time::sec(1));
  QualityConverter converter(source, profile.level_count() - 1);
  const double best = converter.current_bitrate_bps();
  converter.degrade();
  EXPECT_LT(converter.current_bitrate_bps(), best);
}

TEST(QualityConverterTest, FloorClampedToLadder) {
  VideoProfile profile;
  VideoSource source("v", profile, Time::sec(1));
  QualityConverter converter(source, 99);
  EXPECT_EQ(converter.floor_level(), profile.level_count() - 1);
  QualityConverter floor0(source, 0);
  EXPECT_TRUE(floor0.at_floor());
  EXPECT_FALSE(floor0.degrade());
}

TEST(QualityConverterTest, SetLevelValidates) {
  VideoProfile profile;
  VideoSource source("v", profile, Time::sec(1));
  QualityConverter converter(source, 3);
  converter.set_level(2);
  EXPECT_EQ(converter.current_level(), 2);
  EXPECT_THROW(converter.set_level(-1), std::out_of_range);
  EXPECT_THROW(converter.set_level(99), std::out_of_range);
}

}  // namespace
}  // namespace hyms
