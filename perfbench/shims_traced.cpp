// Timing shims for the traced binary. Each `__wrap_<symbol>` opens a span,
// forwards to `__real_<symbol>` and closes the span; spans nest per thread,
// so a shim's self time is its wall time minus the wrapped calls inside it.
// Counters live in thread-local blocks that fold into one global block when
// their thread exits (bench worker threads are joined before collection).
//
// The symbol list must match wraps.txt; a symbol missing there leaves its
// shim at zero calls, which run.py's coverage check reports.

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "hermes/deployment.hpp"
#include "media/frame.hpp"
#include "media/frame_cache.hpp"
#include "net/network.hpp"
#include "proto/messages.hpp"
#include "rtp/packets.hpp"
#include "server/admission.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"
#include "trace.hpp"

namespace {

using perfbench::Shim;
using perfbench::ShimTotals;
using perfbench::TraceTotals;

constexpr int kMaxDepth = 64;

struct Frame {
  std::uint64_t start = 0;
  std::uint64_t child = 0;
};

void fold(TraceTotals& into, const TraceTotals& from) {
  for (int s = 0; s < perfbench::kShimCount; ++s) {
    into.shim[s].calls += from.shim[s].calls;
    into.shim[s].incl_ns += from.shim[s].incl_ns;
    into.shim[s].self_ns += from.shim[s].self_ns;
  }
  into.sim_events += from.sim_events;
  into.net_bytes += from.net_bytes;
  into.net_packets += from.net_packets;
  into.verify_failures += from.verify_failures;
  into.dup_synth += from.dup_synth;
  for (int b = 0; b < perfbench::kHistBuckets; ++b) {
    into.get_hist[b] += from.get_hist[b];
  }
}

std::mutex g_mutex;
TraceTotals g_exited;  // threads that have finished

struct ThreadBlock {
  TraceTotals totals;
  Frame stack[kMaxDepth];
  int depth = 0;
  ~ThreadBlock() {
    std::lock_guard<std::mutex> lock(g_mutex);
    fold(g_exited, totals);
  }
};
thread_local ThreadBlock t_block;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

int hist_bucket(std::uint64_t ns) {
  if (ns < 2) return 0;
  const int log2 = 63 - __builtin_clzll(ns);
  // Two mantissa bits below the leading one give quarter-octave buckets.
  const int frac = log2 >= 2 ? static_cast<int>((ns >> (log2 - 2)) & 3)
                             : static_cast<int>((ns << (2 - log2)) & 3);
  return std::min(4 * log2 + frac, perfbench::kHistBuckets - 1);
}

class Span {
 public:
  explicit Span(Shim shim) : shim_(shim), block_(t_block) {
    if (block_.depth < kMaxDepth) {
      block_.stack[block_.depth] = Frame{now_ns(), 0};
    }
    ++block_.depth;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    const std::uint64_t end = now_ns();
    --block_.depth;
    if (block_.depth >= kMaxDepth) return;  // too deep to time; not expected
    const Frame& frame = block_.stack[block_.depth];
    const std::uint64_t dt = end - frame.start;
    ShimTotals& totals = block_.totals.shim[shim_];
    ++totals.calls;
    totals.incl_ns += dt;
    totals.self_ns += dt - std::min(dt, frame.child);
    if (block_.depth > 0) block_.stack[block_.depth - 1].child += dt;
    if (shim_ == perfbench::kCacheGet) {
      ++block_.totals.get_hist[hist_bucket(dt)];
    }
  }

 private:
  Shim shim_;
  ThreadBlock& block_;
};

// Syntheses in flight, by key: a second synthesis of a key while the first
// is still running is a racing miss (wasted work).
std::mutex g_synth_mutex;
std::map<std::tuple<std::uint32_t, std::int64_t, int, std::size_t>, int>
    g_synth_in_flight;

}  // namespace

#define PB_CAT_(a, b) a##b
#define PB_CAT(a, b) PB_CAT_(a, b)
#define REAL(sym) PB_CAT(__real_, sym)
#define WRAP(sym) PB_CAT(__wrap_, sym)

#define SYM_RUN_UNTIL _ZN4hyms3sim9Simulator9run_untilENS_4TimeE
#define SYM_SEND \
  _ZN4hyms3net7Network4sendENS0_8EndpointES2_St6vectorIhSaIhEE
#define SYM_SOCKET_SEND \
  _ZN4hyms3net14DatagramSocket4sendENS0_8EndpointESt6vectorIhSaIhEE
#define SYM_SEND_TRAIN                                                       \
  _ZN4hyms3net7Network10send_trainENS0_8EndpointES2_RSt6vectorIS3_IhSaIhEESaI\
S5_EE
#define SYM_PARSE_RTP _ZN4hyms3rtp9parse_rtpERKSt6vectorIhSaIhEE
#define SYM_PARSE_RTCP _ZN4hyms3rtp10parse_rtcpERKSt6vectorIhSaIhEE
#define SYM_SER_RTP _ZN4hyms3rtp13serialize_rtpERKNS0_9RtpPacketE
#define SYM_SER_RTP_INTO_PKT \
  _ZN4hyms3rtp18serialize_rtp_intoERKNS0_9RtpPacketERSt6vectorIhSaIhEE
#define SYM_SER_RTP_INTO_SLICE \
  _ZN4hyms3rtp18serialize_rtp_intoERKNS0_9RtpHeaderEttPKhmRSt6vectorIhSaIhEE
#define SYM_SER_RTCP _ZN4hyms3rtp14serialize_rtcpERKNS0_12RtcpCompoundE
#define SYM_SER_RTCP_INTO \
  _ZN4hyms3rtp19serialize_rtcp_intoERKNS0_12RtcpCompoundERSt6vectorIhSaIhEE
#define PB_MESSAGE_VARIANT                                                     \
  St7variantIJNS0_14ConnectRequestENS0_12ConnectReplyENS0_16SubscribeRequestE\
NS0_14SubscribeReplyENS0_16TopicListRequestENS0_14TopicListReplyENS0_15Docume\
ntRequestENS0_13DocumentReplyENS0_11StreamSetupENS0_16StreamSetupReplyENS0_5P\
auseENS0_6ResumeENS0_10StopStreamENS0_13SearchRequestENS0_11SearchReplyENS0_1\
7PeerSearchRequestENS0_15PeerSearchReplyENS0_7SuspendENS0_10SuspendAckENS0_14\
SuspendExpiredENS0_13ResumeSessionENS0_18ResumeSessionReplyENS0_10DisconnectE\
NS0_8MailSendENS0_9MailFetchENS0_8MailListENS0_8AnnotateENS0_21AnnotationList\
RequestENS0_19AnnotationListReplyENS0_20DirectoryListRequestENS0_18DirectoryL\
istReplyENS0_10ErrorReplyEEE
#define SYM_ENCODE PB_CAT(_ZN4hyms5proto6encodeERK, PB_MESSAGE_VARIANT)
#define SYM_ENCODE_CTX \
  PB_CAT(SYM_ENCODE, RKNS_9telemetry12TraceContextE)
#define SYM_DECODE _ZN4hyms5proto6decodeERKSt6vectorIhSaIhEE
#define SYM_DECODE_CTX \
  _ZN4hyms5proto6decodeERKSt6vectorIhSaIhEEPNS_9telemetry12TraceContextE
#define SYM_VERIFY _ZN4hyms5media20verify_frame_payloadERKSt6vectorIhSaIhEE
#define SYM_CACHE_GET _ZN4hyms5media10FrameCache3getERKNS0_11MediaSourceEli
#define SYM_SYNTH _ZN4hyms5media20encode_frame_payloadEjlim
#define SYM_TRACK                                                            \
  _ZN4hyms9telemetry10SpanTracer5trackESt17basic_string_viewIcSt11char_traits\
IcEE
#define SYM_NAME \
  _ZN4hyms9telemetry10SpanTracer4nameESt17basic_string_viewIcSt11char_traitsIcEE
#define SYM_METRIC_COUNTER                                                   \
  _ZN4hyms9telemetry15MetricsRegistry7counterESt17basic_string_viewIcSt11ch\
ar_traitsIcEE
#define SYM_METRIC_GAUGE                                                     \
  _ZN4hyms9telemetry15MetricsRegistry5gaugeESt17basic_string_viewIcSt11char_\
traitsIcEE
#define SYM_METRIC_HISTOGRAM                                                 \
  _ZN4hyms9telemetry15MetricsRegistry9histogramESt17basic_string_viewIcSt11c\
har_traitsIcEENS0_13HistogramSpecE
#define SYM_EVALUATE \
  _ZN4hyms6server16AdmissionControl8evaluateERKNS1_7RequestENS1_11WaiterHooksE
#define SYM_DEPLOYMENT \
  _ZN4hyms6hermes10DeploymentC1ERNS_3sim9SimulatorENS1_6ConfigE
#define SYM_DEPLOYMENT_PART                                                  \
  _ZN4hyms6hermes10DeploymentC1ERKSt6vectorIPNS_3sim9SimulatorESaIS5_EEPNS3_\
12ParallelExecENS1_6ConfigE

namespace hyms_types {
using namespace hyms;
using Payload = std::vector<std::uint8_t>;
using Message = proto::Message;
using Decision = server::AdmissionControl::Decision;
using Request = server::AdmissionControl::Request;
using Hooks = server::AdmissionControl::WaiterHooks;
}  // namespace hyms_types
using namespace hyms_types;

// Member functions are declared as free functions taking `this` first; on
// the Itanium x86-64 ABI a hidden return slot still comes before `this`, so
// the two declarations pass arguments identically.
extern "C" {

void REAL(SYM_RUN_UNTIL)(sim::Simulator*, Time);
void WRAP(SYM_RUN_UNTIL)(sim::Simulator* self, Time deadline) {
  const std::size_t before = self->executed();
  {
    Span span(perfbench::kRunUntil);
    REAL(SYM_RUN_UNTIL)(self, deadline);
  }
  t_block.totals.sim_events += self->executed() - before;
}

void REAL(SYM_SEND)(net::Network*, net::Endpoint, net::Endpoint, Payload);
void WRAP(SYM_SEND)(net::Network* self, net::Endpoint src, net::Endpoint dst,
                    Payload payload) {
  t_block.totals.net_bytes += payload.size();
  ++t_block.totals.net_packets;
  Span span(perfbench::kSend);
  REAL(SYM_SEND)(self, src, dst, std::move(payload));
}

void REAL(SYM_SOCKET_SEND)(net::DatagramSocket*, net::Endpoint, Payload);
void WRAP(SYM_SOCKET_SEND)(net::DatagramSocket* self, net::Endpoint dst,
                           Payload payload) {
  t_block.totals.net_bytes += payload.size();
  ++t_block.totals.net_packets;
  Span span(perfbench::kSend);
  REAL(SYM_SOCKET_SEND)(self, dst, std::move(payload));
}

void REAL(SYM_SEND_TRAIN)(net::Network*, net::Endpoint, net::Endpoint,
                          std::vector<Payload>&);
void WRAP(SYM_SEND_TRAIN)(net::Network* self, net::Endpoint src,
                          net::Endpoint dst, std::vector<Payload>& payloads) {
  for (const Payload& p : payloads) t_block.totals.net_bytes += p.size();
  t_block.totals.net_packets += payloads.size();
  Span span(perfbench::kSendTrain);
  REAL(SYM_SEND_TRAIN)(self, src, dst, payloads);
}

std::optional<rtp::RtpPacket> REAL(SYM_PARSE_RTP)(const Payload&);
std::optional<rtp::RtpPacket> WRAP(SYM_PARSE_RTP)(const Payload& wire) {
  Span span(perfbench::kParseRtp);
  return REAL(SYM_PARSE_RTP)(wire);
}

std::optional<rtp::RtcpCompound> REAL(SYM_PARSE_RTCP)(const Payload&);
std::optional<rtp::RtcpCompound> WRAP(SYM_PARSE_RTCP)(const Payload& wire) {
  Span span(perfbench::kParseRtcp);
  return REAL(SYM_PARSE_RTCP)(wire);
}

Payload REAL(SYM_SER_RTP)(const rtp::RtpPacket&);
Payload WRAP(SYM_SER_RTP)(const rtp::RtpPacket& pkt) {
  Span span(perfbench::kSerializeRtp);
  return REAL(SYM_SER_RTP)(pkt);
}

void REAL(SYM_SER_RTP_INTO_PKT)(const rtp::RtpPacket&, Payload&);
void WRAP(SYM_SER_RTP_INTO_PKT)(const rtp::RtpPacket& pkt, Payload& out) {
  Span span(perfbench::kSerializeRtp);
  REAL(SYM_SER_RTP_INTO_PKT)(pkt, out);
}

void REAL(SYM_SER_RTP_INTO_SLICE)(const rtp::RtpHeader&, std::uint16_t,
                                  std::uint16_t, const std::uint8_t*,
                                  std::size_t, Payload&);
void WRAP(SYM_SER_RTP_INTO_SLICE)(const rtp::RtpHeader& header,
                                  std::uint16_t frag_index,
                                  std::uint16_t frag_count,
                                  const std::uint8_t* payload,
                                  std::size_t payload_len, Payload& out) {
  Span span(perfbench::kSerializeRtp);
  REAL(SYM_SER_RTP_INTO_SLICE)(header, frag_index, frag_count, payload,
                               payload_len, out);
}

Payload REAL(SYM_SER_RTCP)(const rtp::RtcpCompound&);
Payload WRAP(SYM_SER_RTCP)(const rtp::RtcpCompound& compound) {
  Span span(perfbench::kSerializeRtcp);
  return REAL(SYM_SER_RTCP)(compound);
}

void REAL(SYM_SER_RTCP_INTO)(const rtp::RtcpCompound&, Payload&);
void WRAP(SYM_SER_RTCP_INTO)(const rtp::RtcpCompound& compound,
                             Payload& out) {
  Span span(perfbench::kSerializeRtcp);
  REAL(SYM_SER_RTCP_INTO)(compound, out);
}

Payload REAL(SYM_ENCODE)(const Message&);
Payload WRAP(SYM_ENCODE)(const Message& msg) {
  Span span(perfbench::kEncode);
  return REAL(SYM_ENCODE)(msg);
}

Payload REAL(SYM_ENCODE_CTX)(const Message&, const telemetry::TraceContext&);
Payload WRAP(SYM_ENCODE_CTX)(const Message& msg,
                             const telemetry::TraceContext& ctx) {
  Span span(perfbench::kEncode);
  return REAL(SYM_ENCODE_CTX)(msg, ctx);
}

util::Result<Message> REAL(SYM_DECODE)(const Payload&);
util::Result<Message> WRAP(SYM_DECODE)(const Payload& frame) {
  Span span(perfbench::kDecode);
  return REAL(SYM_DECODE)(frame);
}

util::Result<Message> REAL(SYM_DECODE_CTX)(const Payload&,
                                           telemetry::TraceContext*);
util::Result<Message> WRAP(SYM_DECODE_CTX)(const Payload& frame,
                                           telemetry::TraceContext* ctx) {
  Span span(perfbench::kDecode);
  return REAL(SYM_DECODE_CTX)(frame, ctx);
}

std::optional<media::FrameBody> REAL(SYM_VERIFY)(const Payload&);
std::optional<media::FrameBody> WRAP(SYM_VERIFY)(const Payload& payload) {
  std::optional<media::FrameBody> body;
  {
    Span span(perfbench::kVerify);
    body = REAL(SYM_VERIFY)(payload);
  }
  if (!body) ++t_block.totals.verify_failures;
  return body;
}

media::FramePayload REAL(SYM_CACHE_GET)(media::FrameCache*,
                                        const media::MediaSource&,
                                        std::int64_t, int);
media::FramePayload WRAP(SYM_CACHE_GET)(media::FrameCache* self,
                                        const media::MediaSource& source,
                                        std::int64_t index, int level) {
  Span span(perfbench::kCacheGet);
  return REAL(SYM_CACHE_GET)(self, source, index, level);
}

Payload REAL(SYM_SYNTH)(std::uint32_t, std::int64_t, int, std::size_t);
Payload WRAP(SYM_SYNTH)(std::uint32_t source_hash, std::int64_t index,
                        int quality_level, std::size_t total_bytes) {
  const auto key = std::make_tuple(source_hash, index, quality_level,
                                   total_bytes);
  {
    std::lock_guard<std::mutex> lock(g_synth_mutex);
    if (g_synth_in_flight[key]++ > 0) ++t_block.totals.dup_synth;
  }
  Payload out;
  {
    Span span(perfbench::kSynth);
    out = REAL(SYM_SYNTH)(source_hash, index, quality_level, total_bytes);
  }
  std::lock_guard<std::mutex> lock(g_synth_mutex);
  if (--g_synth_in_flight[key] == 0) g_synth_in_flight.erase(key);
  return out;
}

telemetry::TrackId REAL(SYM_TRACK)(telemetry::SpanTracer*, std::string_view);
telemetry::TrackId WRAP(SYM_TRACK)(telemetry::SpanTracer* self,
                                   std::string_view name) {
  Span span(perfbench::kTrack);
  return REAL(SYM_TRACK)(self, name);
}

telemetry::NameId REAL(SYM_NAME)(telemetry::SpanTracer*, std::string_view);
telemetry::NameId WRAP(SYM_NAME)(telemetry::SpanTracer* self,
                                 std::string_view name) {
  Span span(perfbench::kName);
  return REAL(SYM_NAME)(self, name);
}

// MetricsRegistry::intern is private and only called inside its own object
// file, so metric interning is timed at its public callers.
telemetry::MetricId REAL(SYM_METRIC_COUNTER)(telemetry::MetricsRegistry*,
                                             std::string_view);
telemetry::MetricId WRAP(SYM_METRIC_COUNTER)(telemetry::MetricsRegistry* self,
                                             std::string_view name) {
  Span span(perfbench::kIntern);
  return REAL(SYM_METRIC_COUNTER)(self, name);
}

telemetry::MetricId REAL(SYM_METRIC_GAUGE)(telemetry::MetricsRegistry*,
                                           std::string_view);
telemetry::MetricId WRAP(SYM_METRIC_GAUGE)(telemetry::MetricsRegistry* self,
                                           std::string_view name) {
  Span span(perfbench::kIntern);
  return REAL(SYM_METRIC_GAUGE)(self, name);
}

telemetry::MetricId REAL(SYM_METRIC_HISTOGRAM)(telemetry::MetricsRegistry*,
                                               std::string_view,
                                               telemetry::HistogramSpec);
telemetry::MetricId WRAP(SYM_METRIC_HISTOGRAM)(
    telemetry::MetricsRegistry* self, std::string_view name,
    telemetry::HistogramSpec spec) {
  Span span(perfbench::kIntern);
  return REAL(SYM_METRIC_HISTOGRAM)(self, name, spec);
}

Decision REAL(SYM_EVALUATE)(server::AdmissionControl*, const Request&, Hooks);
Decision WRAP(SYM_EVALUATE)(server::AdmissionControl* self,
                            const Request& request, Hooks hooks) {
  Span span(perfbench::kEvaluate);
  return REAL(SYM_EVALUATE)(self, request, std::move(hooks));
}

void REAL(SYM_DEPLOYMENT)(hermes::Deployment*, sim::Simulator&,
                          hermes::Deployment::Config);
void WRAP(SYM_DEPLOYMENT)(hermes::Deployment* self, sim::Simulator& sim,
                          hermes::Deployment::Config config) {
  Span span(perfbench::kDeployment);
  REAL(SYM_DEPLOYMENT)(self, sim, std::move(config));
}

void REAL(SYM_DEPLOYMENT_PART)(hermes::Deployment*,
                               const std::vector<sim::Simulator*>&,
                               sim::ParallelExec*, hermes::Deployment::Config);
void WRAP(SYM_DEPLOYMENT_PART)(hermes::Deployment* self,
                               const std::vector<sim::Simulator*>& sims,
                               sim::ParallelExec* exec,
                               hermes::Deployment::Config config) {
  Span span(perfbench::kDeployment);
  REAL(SYM_DEPLOYMENT_PART)(self, sims, exec, std::move(config));
}

}  // extern "C"

namespace perfbench {

bool traced() { return true; }

void trace_reset() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_exited = TraceTotals{};
  t_block.totals = TraceTotals{};
}

TraceTotals trace_collect() {
  std::lock_guard<std::mutex> lock(g_mutex);
  TraceTotals out = g_exited;
  fold(out, t_block.totals);
  return out;
}


}  // namespace perfbench
