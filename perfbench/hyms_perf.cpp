// One benchmark process: sets up one workload, runs it once, checks its
// outputs and prints one JSON object on stdout. perfbench/run.py starts a
// fresh process per repetition and turns these objects into metrics.
//
//   hyms_perf --workload crowd|hot_replicas|lossy_catalog --seed N
//             [--size full|smoke]
//
// Workloads (see README.md for why each exists):
//   crowd          hermes::run_population, 1 partition, overload control on
//   hot_replicas   bench::run_sessions_sharded on 2 threads, one hot document
//                  from a pre-warmed shared FrameCache, clean links
//   lossy_catalog  the same runner, Zipf(0.9) over 48 documents, a cache
//                  smaller than the catalog, burst loss, jitter, cross traffic

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "hermes/population.hpp"
#include "media/frame_cache.hpp"
#include "net/loss.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace {

using hyms::Time;
namespace bench = hyms::bench;
namespace hermes = hyms::hermes;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Set-up runs this many times per process; its median is reported, so one
// slow stand-up does not decide it.
constexpr int kSetupReps = 7;

// telemetry::SloTargets defaults.
constexpr double kSloStartupMs = 2000.0;
constexpr double kSloMaxSkewMs = 120.0;
constexpr double kSloMinFresh = 0.90;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Minimal JSON object writer: keys in insertion order, numbers with full
/// precision, non-finite numbers as null.
class Json {
 public:
  Json& num(std::string_view key, double v) {
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return raw(key, buf);
  }
  Json& integer(std::string_view key, long long v) {
    return raw(key, std::to_string(v));
  }
  Json& boolean(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& str(std::string_view key, std::string_view v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }
  Json& raw(std::string_view key, std::string_view value) {
    out_ += out_.empty() ? "{" : ", ";
    out_ += '"';
    out_ += key;
    out_ += "\": ";
    out_ += value;
    return *this;
  }
  [[nodiscard]] std::string done() const {
    return out_.empty() ? "{}" : out_ + "}";
  }

 private:
  std::string out_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool smoke = false;
};

/// Everything one run reports, before JSON.
struct Outcome {
  int threads = 1;
  std::int64_t attempted = 0;
  std::int64_t served = 0;
  std::int64_t failed = 0;  // sessions with no terminal fate at the horizon
  std::vector<double> startup_ms;  // per session; +inf (null) when unserved
  double fresh_sum = 0.0;
  std::int64_t fresh_sessions = 0;
  std::int64_t compliant = 0;
  bool fates_sum_ok = false;
  std::map<std::string, long long> fates;
  std::map<std::string, long long> counts;  // layer counters from results
  std::map<std::string, std::string> digests;
  std::vector<std::string> session_fingerprints;
};

// --- crowd -------------------------------------------------------------------

hermes::PopulationConfig crowd_config(const Options& opt) {
  // The committed bench_population crowd with its overload scenario's
  // drain runway: 1000 sessions, 4 servers, 12 Zipf(1.1) documents, 60 Mbps
  // admission capacity per server, flash crowd onto doc-1, churn.
  hermes::PopulationConfig cfg;
  cfg.sessions = 1000;
  cfg.servers = 4;
  cfg.documents = 12;
  cfg.server_template.admission.capacity_bps = 60e6;
  if (opt.smoke) {  // bench_population --smoke
    cfg.sessions = 48;
    cfg.servers = 2;
    cfg.documents = 6;
    cfg.arrival_window = Time::sec(6);
    cfg.run_for = Time::sec(16);
    cfg.server_template.admission.capacity_bps = 6e6;
  }
  cfg.overload_control = true;
  cfg.run_for = cfg.run_for + Time::sec(15);
  cfg.seed = opt.seed;
  cfg.partitions = 1;
  return cfg;
}

/// Fleet stand-up: the population with a 1 us horizon builds the servers,
/// catalogs, links and shared cache and tears them down again.
void crowd_setup(const hermes::PopulationConfig& cfg) {
  hermes::PopulationConfig bare = cfg;
  bare.run_for = Time::usec(1);
  (void)hermes::run_population(bare, 1);
}

double parse_after(const std::string& text, std::string_view key) {
  const auto at = text.find(key);
  if (at == std::string::npos) return -1.0;
  return std::atof(text.c_str() + at + key.size());
}

void crowd_outcome(const hermes::PopulationConfig& cfg,
                   const hermes::PopulationResult& r, Outcome& out) {
  out.attempted = cfg.sessions;
  const std::size_t n = static_cast<std::size_t>(cfg.sessions);
  std::vector<double> arrive(n, -1.0);
  std::vector<double> viewing(n, -1.0);
  std::vector<double> fresh(n, -1.0);
  // events_csv rows: "t_us,session,event,a", then "S,i,outcome,fresh,total,..."
  std::size_t pos = r.events_csv.find('\n') + 1;
  while (pos < r.events_csv.size()) {
    const std::size_t end = r.events_csv.find('\n', pos);
    const std::string row = r.events_csv.substr(pos, end - pos);
    pos = end == std::string::npos ? r.events_csv.size() : end + 1;
    std::vector<std::string> f;
    std::size_t s = 0;
    for (std::size_t c = row.find(','); ; c = row.find(',', s)) {
      f.push_back(row.substr(s, c - s));
      if (c == std::string::npos) break;
      s = c + 1;
    }
    if (f.size() < 3) continue;
    const auto sid = static_cast<std::size_t>(std::atoll(f[1].c_str()));
    if (sid >= n) continue;
    if (f[0] == "S") {
      if (f.size() < 5) continue;
      const double fs = std::atof(f[3].c_str());
      const double total = std::atof(f[4].c_str());
      if (total > 0) fresh[sid] = fs / total;
      continue;
    }
    const double t_ms = std::atof(f[0].c_str()) / 1000.0;
    if (f[2] == "arrive" && arrive[sid] < 0) arrive[sid] = t_ms;
    if (f[2] == "viewing" && viewing[sid] < 0) viewing[sid] = t_ms;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const bool served = viewing[i] >= 0 && arrive[i] >= 0;
    out.served += served ? 1 : 0;
    out.startup_ms.push_back(served ? viewing[i] - arrive[i] : kInf);
    if (fresh[i] >= 0) {
      out.fresh_sum += fresh[i];
      ++out.fresh_sessions;
    }
  }
  // The QoE export's compliance is over its records; scale to attempted.
  const double records = parse_after(r.qoe_json, "\"sessions\": ");
  const double compliance = parse_after(r.qoe_json, "\"compliance\": ");
  if (records > 0 && compliance >= 0) {
    out.compliant = std::llround(compliance * records);
  }
  out.failed = r.unfinished;
  out.fates = {{"completed", r.completed}, {"degraded", r.degraded},
               {"churned", r.churned},     {"abandoned", r.abandoned},
               {"rejected", r.rejected},   {"failed", r.failed},
               {"unfinished", r.unfinished}};
  long long sum = 0;
  for (const auto& [name, v] : out.fates) sum += v;
  out.fates_sum_ok = sum == cfg.sessions;
  out.counts = {
      {"sim.events", static_cast<long long>(r.events_executed)},
      {"media.cache.hits", r.cache_hits},
      {"media.cache.misses", r.cache_misses},
      {"server.admission.queued", r.queued_total},
      {"server.admission.queue_grants", r.queue_grants},
      {"server.admission.queue_timeouts", r.queue_timeouts},
      {"server.admission.rejections", r.admission_rejections},
      {"server.admission.degraded_grants", r.degraded_grants},
      {"client.admission_retries", r.admission_retries},
      {"client.abandoned", r.abandoned},
      {"client.churned", r.churned},
      {"client.failed", r.failed}};
  out.digests = {{"fingerprint", hex64(r.fingerprint)},
                 {"events_csv", hex64(fnv1a(kFnvBasis, r.events_csv))},
                 {"qoe_json", hex64(fnv1a(kFnvBasis, r.qoe_json))}};
}

// --- replica workloads -------------------------------------------------------

struct ReplicaWorkload {
  bench::SessionParams base;
  std::vector<std::string> markups;
  std::vector<int> doc_of;  // per session
  std::vector<int> warm_docs;
  std::size_t cache_bytes = 0;
  int sessions = 0;
  int threads = 2;
};

// The population's document shape: a 6 s lecture with 700 kbps video.
constexpr int kDocSeconds = 6;
constexpr int kVideoKbps = 700;

ReplicaWorkload replica_workload(const Options& opt) {
  ReplicaWorkload w;
  w.base.run_for = Time::sec(kDocSeconds + 2);
  w.base.seed = opt.seed << 20;  // session i runs seed (seed << 20) + i
  if (opt.workload == "hot_replicas") {
    w.sessions = opt.smoke ? 16 : 1000;
    w.cache_bytes = 64ull << 20;
    w.markups.push_back(bench::lecture_markup(kDocSeconds, kVideoKbps, "hot"));
    w.doc_of.assign(static_cast<std::size_t>(w.sessions), 0);
    w.warm_docs = {0};
    return w;
  }
  // lossy_catalog
  constexpr int kDocuments = 48;
  constexpr double kZipf = 0.9;
  w.sessions = opt.smoke ? 16 : 400;
  w.cache_bytes = 24ull << 20;
  // Runway for sessions that stall under loss to finish playing.
  w.base.run_for = Time::sec(kDocSeconds + 14);
  for (int d = 0; d < kDocuments; ++d) {
    std::string tag = "c";
    tag += std::to_string(d);
    w.markups.push_back(bench::lecture_markup(kDocSeconds, kVideoKbps, tag));
  }
  std::vector<double> cdf;
  double total = 0.0;
  for (int k = 1; k <= kDocuments; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), kZipf);
    cdf.push_back(total);
  }
  hyms::util::Rng rng(opt.seed ^ 0x1055CA7A10ULL);
  for (int i = 0; i < w.sessions; ++i) {
    const double u = rng.uniform() * total;
    w.doc_of.push_back(static_cast<int>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
  }
  w.warm_docs = {0, 1, 2, 3};
  hyms::net::GilbertElliottLoss::Params ge;
  ge.p_good_to_bad = 0.002;
  w.base.burst_loss = ge;
  w.base.jitter_mean = Time::msec(4);
  w.base.jitter_stddev = Time::msec(3);
  w.base.access_bandwidth_bps = 10e6;
  w.base.cross_rate_bps = 7e6;
  return w;
}

/// Fresh shared cache warmed by playing each warm document once.
std::shared_ptr<hyms::media::FrameCache> replica_setup(
    const ReplicaWorkload& w) {
  auto cache = std::make_shared<hyms::media::FrameCache>(
      hyms::media::FrameCache::Config{w.cache_bytes});
  for (const int doc : w.warm_docs) {
    bench::SessionParams p = w.base;
    p.seed = 1;  // warm-up content does not depend on the session seed
    p.markup = w.markups[static_cast<std::size_t>(doc)];
    p.frame_cache = cache;
    (void)bench::run_session(p);
  }
  return cache;
}

void replica_outcome(const ReplicaWorkload& w,
                     const std::vector<bench::SessionMetrics>& ms,
                     Outcome& out) {
  out.attempted = w.sessions;
  out.threads = w.threads;
  long long finished = 0, errored = 0, unfinished = 0;
  long long dup = 0, overflow = 0, late = 0, skips = 0, lost = 0, rtcp = 0,
            drop_loss = 0, drop_queue = 0, degrades = 0, upgrades = 0,
            stops = 0;
  std::uint64_t all = kFnvBasis;
  for (const bench::SessionMetrics& m : ms) {
    const bool served = !m.failed && m.setup_ms >= 0.0;
    out.served += served ? 1 : 0;
    out.startup_ms.push_back(served ? m.setup_ms : kInf);
    if (m.totals.total_slots() > 0) {
      out.fresh_sum += m.fresh_ratio;
      ++out.fresh_sessions;
    }
    // SloTargets without the QoE hub (these workloads run with telemetry
    // off): the rebuffer target is met only by a session that never
    // rebuffered, which is stricter than the hub's 2% time ratio.
    if (m.finished && served && m.setup_ms <= kSloStartupMs &&
        m.max_skew_ms <= kSloMaxSkewMs && m.fresh_ratio >= kSloMinFresh &&
        m.totals.rebuffers == 0) {
      ++out.compliant;
    }
    if (m.failed) {
      ++errored;
    } else if (m.finished) {
      ++finished;
    } else {
      ++unfinished;
    }
    dup += m.underflow_duplicates;
    overflow += m.overflow_drops;
    late += m.late_discards;
    skips += m.sync_skips;
    lost += m.rtcp_packets_lost;
    rtcp += m.rtcp_reports_sent;
    drop_loss += m.link_dropped_loss;
    drop_queue += m.link_dropped_queue;
    degrades += m.qos.degrades;
    upgrades += m.qos.upgrades;
    stops += m.qos.stops;
    const std::uint64_t fp = bench::session_fingerprint(m);
    out.session_fingerprints.push_back(hex64(fp));
    all = fnv1a(all, hex64(fp));
  }
  out.failed = unfinished;
  out.fates = {{"finished", finished},
               {"failed", errored},
               {"unfinished", unfinished}};
  out.fates_sum_ok = finished + errored + unfinished == w.sessions;
  out.counts = {{"buffer.underflow_duplicates", dup},
                {"buffer.overflow_drops", overflow},
                {"buffer.late_discards", late},
                {"core.sync_skips", skips},
                {"rtp.packets_lost", lost},
                {"rtp.rtcp_reports", rtcp},
                {"net.link_dropped_loss", drop_loss},
                {"net.link_dropped_queue", drop_queue},
                {"server.qos.degrades", degrades},
                {"server.qos.upgrades", upgrades},
                {"server.qos.stops", stops}};
  out.digests = {{"sessions", hex64(all)}};
}

struct Usage {
  double cpu_s = 0.0;
  long nivcsw = 0;
  long maxrss_kb = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.nivcsw = ru.ru_nivcsw;
  u.maxrss_kb = ru.ru_maxrss;
  return u;
}

double hist_percentile(const perfbench::TraceTotals& t, double p) {
  std::uint64_t total = 0;
  for (const auto c : t.get_hist) total += c;
  if (total == 0) return 0.0;
  const double want = p / 100.0 * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (int b = 0; b < perfbench::kHistBuckets; ++b) {
    seen += t.get_hist[b];
    if (static_cast<double>(seen) >= want) {
      // Bucket b covers [2^(b/4), 2^((b+1)/4)); report its geometric middle.
      return std::exp2((static_cast<double>(b) + 0.5) / 4.0);
    }
  }
  return 0.0;
}

int usage_error(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: hyms_perf --workload crowd|hot_replicas|"
               "lossy_catalog --seed N [--size full|smoke]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return usage_error("missing flag value");
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--size") {
      if (std::string_view(value) != "full" &&
          std::string_view(value) != "smoke") {
        return usage_error("--size must be full or smoke");
      }
      opt.smoke = std::string_view(value) == "smoke";
    } else {
      return usage_error("unknown flag");
    }
    ++i;
  }
  if (opt.workload != "crowd" && opt.workload != "hot_replicas" &&
      opt.workload != "lossy_catalog") {
    return usage_error("unknown workload");
  }

  Outcome out;
  std::vector<double> setup_times;
  double wall_s = 0.0;
  Usage before, after;
  perfbench::TraceTotals trace;

  if (opt.workload == "crowd") {
    const hermes::PopulationConfig cfg = crowd_config(opt);
    for (int r = 0; r < kSetupReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      crowd_setup(cfg);
      setup_times.push_back(seconds_since(t0));
    }
    perfbench::trace_reset();
    before = usage_now();
    const auto t0 = std::chrono::steady_clock::now();
    const hermes::PopulationResult r = hermes::run_population(cfg, 1);
    wall_s = seconds_since(t0);
    after = usage_now();
    trace = perfbench::trace_collect();
    crowd_outcome(cfg, r, out);
  } else {
    ReplicaWorkload w = replica_workload(opt);
    std::shared_ptr<hyms::media::FrameCache> cache;
    for (int r = 0; r < kSetupReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      cache = replica_setup(w);
      setup_times.push_back(seconds_since(t0));
    }
    w.base.frame_cache = cache;
    const auto warm = cache->stats();
    const auto customize = [&w](int i, bench::SessionParams& p) {
      p.markup = w.markups[static_cast<std::size_t>(
          w.doc_of[static_cast<std::size_t>(i)])];
    };
    perfbench::trace_reset();
    before = usage_now();
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<bench::SessionMetrics> ms =
        bench::run_sessions_sharded(w.base, w.sessions, w.threads, customize);
    wall_s = seconds_since(t0);
    after = usage_now();
    trace = perfbench::trace_collect();
    replica_outcome(w, ms, out);
    const auto stats = cache->stats();
    out.counts["media.cache.hits"] = stats.hits - warm.hits;
    out.counts["media.cache.misses"] = stats.misses - warm.misses;
    out.counts["media.cache.evictions"] = stats.evictions - warm.evictions;
  }

  const std::uint64_t verify_failures = trace.verify_failures;
  const bool clean_links = opt.workload != "lossy_catalog";
  const bool verify_ok = !clean_links || verify_failures == 0;

  Json j;
  j.str("workload", opt.workload)
      .integer("seed", static_cast<long long>(opt.seed))
      .str("size", opt.smoke ? "smoke" : "full")
      .boolean("traced", perfbench::traced())
      .integer("threads", out.threads)
      .integer("attempted", out.attempted)
      .integer("served", out.served)
      .integer("failed", out.failed)
      .num("setup_s", median(setup_times))
      .num("wall_s", wall_s)
      .num("sessions_per_s", static_cast<double>(out.attempted) / wall_s)
      .num("served_share", static_cast<double>(out.served) /
                               static_cast<double>(out.attempted))
      .num("fresh_ratio_mean",
           out.fresh_sessions > 0
               ? out.fresh_sum / static_cast<double>(out.fresh_sessions)
               : 0.0)
      .num("slo_compliance", static_cast<double>(out.compliant) /
                                 static_cast<double>(out.attempted))
      .num("cpu_s", after.cpu_s - before.cpu_s)
      .integer("nivcsw", after.nivcsw - before.nivcsw)
      .integer("maxrss_kb", after.maxrss_kb);

  std::string setup_list = "[";
  for (std::size_t i = 0; i < setup_times.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.9g", i ? ", " : "", setup_times[i]);
    setup_list += buf;
  }
  j.raw("setup_reps_s", setup_list + "]");

  Json checks;
  checks.boolean("fates_sum", out.fates_sum_ok)
      .integer("verify_failures", static_cast<long long>(verify_failures))
      .boolean("verify_clean", verify_ok);
  j.raw("checks", checks.done());

  Json fates;
  for (const auto& [k, v] : out.fates) fates.integer(k, v);
  j.raw("fates", fates.done());
  Json counts;
  for (const auto& [k, v] : out.counts) counts.integer(k, v);
  j.raw("counts", counts.done());
  Json digests;
  for (const auto& [k, v] : out.digests) digests.str(k, v);
  j.raw("digests", digests.done());
  std::string fps = "[";
  for (std::size_t i = 0; i < out.session_fingerprints.size(); ++i) {
    fps += (i ? ",\"" : "\"") + out.session_fingerprints[i] + "\"";
  }
  j.raw("session_fingerprints", fps + "]");
  std::string startups = "[";
  for (std::size_t i = 0; i < out.startup_ms.size(); ++i) {
    char buf[40];
    if (std::isfinite(out.startup_ms[i])) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "",
                    out.startup_ms[i]);
    } else {
      std::snprintf(buf, sizeof(buf), "%snull", i ? "," : "");
    }
    startups += buf;
  }
  j.raw("startup_ms", startups + "]");

  if (perfbench::traced()) {
    std::string shims = "[";
    for (int s = 0; s < perfbench::kShimCount; ++s) {
      Json shim;
      shim.str("name", perfbench::kShimName[s])
          .str("layer", perfbench::kLayerName[perfbench::kShimLayer[s]])
          .integer("calls", static_cast<long long>(trace.shim[s].calls))
          .num("incl_s", 1e-9 * static_cast<double>(trace.shim[s].incl_ns))
          .num("self_s", 1e-9 * static_cast<double>(trace.shim[s].self_ns));
      shims += (s ? ", " : "") + shim.done();
    }
    Json t;
    t.raw("shims", shims + "]")
        .integer("sim_events", static_cast<long long>(trace.sim_events))
        .integer("net_bytes", static_cast<long long>(trace.net_bytes))
        .integer("net_packets", static_cast<long long>(trace.net_packets))
        .integer("dup_synth", static_cast<long long>(trace.dup_synth))
        .num("get_ns_p50", hist_percentile(trace, 50.0))
        .num("get_ns_p99", hist_percentile(trace, 99.0));
    j.raw("trace", t.done());
  }

  Json build;
  build.str("type", PERFBENCH_BUILD_TYPE)
      .str("flags", PERFBENCH_FLAGS)
#ifdef __clang__
      .str("compiler", "clang " __VERSION__)
#else
      .str("compiler", "gcc " __VERSION__)
#endif
      .boolean("assertions", bench::built_with_assertions())
      .integer("hardware_threads", bench::hardware_threads());
  j.raw("build", build.done());

  std::printf("%s\n", j.done().c_str());
  return out.fates_sum_ok && verify_ok ? 0 : 3;
}
