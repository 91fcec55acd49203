// Shared-world parallel-simulation benchmark: ONE simulation — a media
// server streaming to hundreds of clients through one contended egress pipe
// — executed by the sequential slab kernel and then by the conservative
// parallel executor at several partition/thread counts. Every parallel run
// is checked byte-identical (fingerprint + canonical event log) to the
// sequential kernel before its wall time is reported, so a speedup can never
// be bought with a divergent simulation.
//
//   bench_shared_world [--clients N] [--seconds S] [--partitions P]
//                      [--seed S] [--json]
//
// --json writes BENCH_shared_world.json, guarded by
// tools/check_bench_regression.py (events_per_sec per partitions/threads
// cell; cross-host or debug-build comparisons downgrade to warnings).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "star_world.hpp"
#include "util/time.hpp"

namespace {

struct Row {
  std::size_t partitions;
  int threads;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double speedup = 1.0;
  std::size_t windows = 0;
  std::size_t messages = 0;
  bool deterministic = true;
};

double run_once(const hyms::bench::StarWorldConfig& cfg, int threads,
                hyms::bench::StarWorldResult& out) {
  const auto start = std::chrono::steady_clock::now();
  out = hyms::bench::run_star_world(cfg, threads);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using hyms::Time;
  namespace bench = hyms::bench;

  int clients = 200;
  int seconds = 20;
  std::size_t partitions = 4;
  std::uint64_t seed = 1;
  bool json = false;
  std::string trace_file;    // Perfetto trace of the sequential run
  std::string metrics_file;  // merged metrics CSV of the sequential run
  std::string slo_file;      // fleet QoE/SLO JSON (one record per client)
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--clients") {
      clients = std::atoi(next());
    } else if (arg == "--seconds") {
      seconds = std::atoi(next());
    } else if (arg == "--partitions") {
      partitions = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--trace") {
      trace_file = next();
    } else if (arg == "--metrics") {
      metrics_file = next();
    } else if (arg == "--slo-json") {
      slo_file = next();
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_shared_world [--clients N] [--seconds S] "
                   "[--partitions P] [--seed S] [--trace FILE] "
                   "[--metrics FILE] [--slo-json FILE] [--json]\n");
      return 1;
    }
  }
  bench::warn_if_debug_build("bench_shared_world");

  hyms::bench::StarWorldConfig cfg;
  cfg.clients = clients;
  cfg.seed = seed;
  cfg.run_for = Time::sec(seconds);
  // Size the egress so the offered load (~0.94 Mbps x clients at full rate)
  // oversubscribes it ~25%: drops happen, the rate-feedback loop engages,
  // and cross-partition traffic stays load-bearing.
  cfg.server_bandwidth_bps = clients * 0.75e6;
  cfg.telemetry =
      !trace_file.empty() || !metrics_file.empty() || !slo_file.empty();

  const unsigned hw = bench::hardware_threads();
  std::printf("bench_shared_world: %d clients, %ds sim, partitions=%zu "
              "(host has %u hardware thread%s)\n\n",
              clients, seconds, partitions, hw, hw == 1 ? "" : "s");

  // The reference: the plain single-calendar kernel.
  hyms::bench::StarWorldResult seq;
  const double seq_wall = run_once(cfg, 1, seq);

  const auto write_file = [](const std::string& path,
                             const std::string& body) {
    if (path.empty()) return;
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", path.c_str());
    }
  };
  write_file(trace_file, seq.trace_json);
  write_file(metrics_file, seq.metrics_csv);
  write_file(slo_file, seq.qoe_json);

  std::vector<Row> rows;
  rows.push_back(Row{1, 1, seq_wall,
                     static_cast<double>(seq.events_executed) / seq_wall, 1.0,
                     0, 0, true});

  bool all_deterministic = true;
  cfg.partitions = partitions;
  Time lookahead = Time::max();
  for (const int threads : {1, 2, 4}) {
    hyms::bench::StarWorldResult par;
    const double wall = run_once(cfg, threads, par);
    lookahead = par.lookahead;
    Row row{partitions, threads, wall,
            static_cast<double>(par.events_executed) / wall,
            seq_wall / wall, par.windows, par.messages,
            par.fingerprint == seq.fingerprint &&
                par.events_csv == seq.events_csv &&
                par.qoe_json == seq.qoe_json};
    if (cfg.telemetry && par.qoe_json != seq.qoe_json) {
      std::fprintf(stderr,
                   "SLO DIVERGENCE: QoE export at %zu partitions / %d "
                   "threads is not byte-identical to the sequential kernel\n",
                   partitions, threads);
    }
    all_deterministic = all_deterministic && row.deterministic;
    rows.push_back(row);
  }

  bench::table_header({"partitions", "threads", "wall s", "events/s",
                       "speedup", "windows", "messages", "identical"});
  for (const Row& row : rows) {
    bench::table_row({std::to_string(row.partitions),
                      std::to_string(row.threads), bench::fmt(row.wall_s, 3),
                      bench::fmt(row.events_per_sec, 0),
                      bench::fmt(row.speedup, 2), std::to_string(row.windows),
                      std::to_string(row.messages),
                      row.deterministic ? "yes" : "NO"});
  }
  std::printf("\n%zu partitions, lookahead %lld us, %zu events; parallel "
              "runs byte-identical to the sequential kernel: %s\n",
              partitions, static_cast<long long>(lookahead.us()),
              seq.events_executed, all_deterministic ? "verified" : "VIOLATED");
  if (hw == 1) {
    std::printf("note: 1-CPU host -- thread speedups here measure overhead, "
                "not scaling.\n");
  }

  if (json) {
    std::FILE* out = std::fopen("BENCH_shared_world.json", "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_shared_world.json\n");
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"context\": {\n"
                 "    \"benchmark\": \"bench_shared_world\",\n"
                 "    \"host_name\": \"%s\",\n"
                 "    \"hardware_concurrency\": %u,\n"
                 "    \"cpu_model\": \"%s\",\n"
                 "    \"frame_kernel\": \"%s\",\n"
                 "    \"clients\": %d,\n"
                 "    \"sim_seconds\": %d,\n"
                 "    \"partitions\": %zu,\n"
                 "    \"seed\": %llu,\n"
                 "    \"lookahead_us\": %lld,\n"
                 "    \"events\": %zu,\n"
                 "    \"trace\": \"%s\",\n"
                 "    \"metrics\": \"%s\",\n"
                 "    \"slo_json\": \"%s\",\n"
                 "    \"assertions\": \"%s\"\n"
                 "  },\n"
                 "  \"deterministic\": %s,\n"
                 "  \"results\": [\n",
                 bench::host_name().c_str(), hw,
                 bench::cpu_model().c_str(), bench::frame_kernel(), clients, seconds, partitions,
                 static_cast<unsigned long long>(seed),
                 static_cast<long long>(lookahead.us()), seq.events_executed,
                 trace_file.c_str(), metrics_file.c_str(), slo_file.c_str(),
                 bench::built_with_assertions() ? "enabled" : "disabled",
                 all_deterministic ? "true" : "false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(out,
                   "    {\"partitions\": %zu, \"threads\": %d, "
                   "\"wall_s\": %.4f, \"events_per_sec\": %.1f, "
                   "\"speedup\": %.3f, \"windows\": %zu, \"messages\": %zu, "
                   "\"deterministic\": %s}%s\n",
                   row.partitions, row.threads, row.wall_s,
                   row.events_per_sec, row.speedup, row.windows, row.messages,
                   row.deterministic ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_shared_world.json\n");
  }
  return all_deterministic ? 0 : 1;
}
