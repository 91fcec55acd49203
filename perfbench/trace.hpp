#pragma once

// Interface between the benchmark program (hyms_perf.cpp) and the link-time
// shims.
//
// Both benchmark binaries link the library objects unchanged. The shims sit
// between the objects: `-Wl,--wrap=<symbol>` sends every call that crosses an
// object-file boundary to `__wrap_<symbol>`, which forwards to
// `__real_<symbol>`. shims_count.cpp (measured binary) wraps only the frame
// verifier, to count verification failures for the correctness gate;
// shims_traced.cpp (traced binary) times every entry point listed in
// wraps.txt. Calls inside one translation unit never reach a shim, so each
// shim reports its call count and run.py checks it caught real calls.

#include <array>
#include <cstdint>

namespace perfbench {

/// One timed entry point. The layer each belongs to is in kShimLayer.
enum Shim : int {
  kRunUntil,       // sim::Simulator::run_until
  kSend,           // net::DatagramSocket::send, net::Network::send
  kSendTrain,      // net::Network::send_train
  kParseRtp,       // rtp::parse_rtp
  kParseRtcp,      // rtp::parse_rtcp
  kSerializeRtp,   // rtp::serialize_rtp / serialize_rtp_into (both overloads)
  kSerializeRtcp,  // rtp::serialize_rtcp / serialize_rtcp_into
  kEncode,         // proto::encode (both overloads)
  kDecode,         // proto::decode (both overloads)
  kVerify,         // media::verify_frame_payload
  kCacheGet,       // media::FrameCache::get
  kSynth,          // media::encode_frame_payload (every frame synthesis)
  kTrack,          // telemetry::SpanTracer::track
  kName,           // telemetry::SpanTracer::name
  kIntern,         // telemetry::MetricsRegistry::counter/gauge/histogram
  kEvaluate,       // server::AdmissionControl::evaluate
  kDeployment,     // hermes::Deployment constructors
  kShimCount
};

enum Layer : int {
  kLayerSim,
  kLayerNet,
  kLayerRtp,
  kLayerProto,
  kLayerMedia,
  kLayerTelemetry,
  kLayerServer,
  kLayerHermes,
  kLayerCount
};

inline constexpr std::array<const char*, kLayerCount> kLayerName = {
    "sim", "net", "rtp", "proto", "media", "telemetry", "server", "hermes"};

inline constexpr std::array<Layer, kShimCount> kShimLayer = {
    kLayerSim,   kLayerNet,   kLayerNet,       kLayerRtp,       kLayerRtp,
    kLayerRtp,   kLayerRtp,   kLayerProto,     kLayerProto,     kLayerMedia,
    kLayerMedia, kLayerMedia, kLayerTelemetry, kLayerTelemetry, kLayerTelemetry,
    kLayerServer, kLayerHermes};

inline constexpr std::array<const char*, kShimCount> kShimName = {
    "sim::Simulator::run_until",
    "net::send",
    "net::Network::send_train",
    "rtp::parse_rtp",
    "rtp::parse_rtcp",
    "rtp::serialize_rtp",
    "rtp::serialize_rtcp",
    "proto::encode",
    "proto::decode",
    "media::verify_frame_payload",
    "media::FrameCache::get",
    "media::encode_frame_payload",
    "telemetry::SpanTracer::track",
    "telemetry::SpanTracer::name",
    "telemetry::MetricsRegistry::intern",  // via its public callers
    "server::AdmissionControl::evaluate",
    "hermes::Deployment::Deployment"};

struct ShimTotals {
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;  // wall time inside the call
  std::uint64_t self_ns = 0;  // minus the time of wrapped calls inside it
};

/// FrameCache::get latency histogram: bucket b holds calls whose duration d
/// (ns) satisfies floor(4 * log2(d)) == b.
inline constexpr int kHistBuckets = 4 * 40;

struct TraceTotals {
  std::array<ShimTotals, kShimCount> shim{};
  std::uint64_t sim_events = 0;  // Simulator::executed() growth in run_until
  std::uint64_t net_bytes = 0;   // payload bytes offered to Network::send*
  std::uint64_t net_packets = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t dup_synth = 0;   // syntheses of a key already in synthesis
  std::array<std::uint64_t, kHistBuckets> get_hist{};
};

/// True in the traced binary.
bool traced();
/// Zero every counter (call between setup and the timed phase, with no
/// worker thread running).
void trace_reset();
/// Totals of every thread that has exited plus the calling thread's. In the
/// measured binary only verify_failures is filled.
TraceTotals trace_collect();

}  // namespace perfbench
