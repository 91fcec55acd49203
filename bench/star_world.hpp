#pragma once

#include <cstdint>
#include <string>

#include "util/time.hpp"

namespace hyms::bench {

/// Configuration of the star workload: one multimedia server streaming
/// frame bursts to `clients` receivers in ONE shared simulation — the slim
/// precursor of the shared-world population sim (ROADMAP item 1), and the
/// measurement workload for the conservative parallel executor. All flows
/// contend for the server's shared egress pipe, and client loss reports
/// drive a per-flow rate level on the server, so the cross-partition
/// feedback path is load-bearing: get the lookahead wrong and outcomes
/// change.
///
/// Determinism discipline (what makes a partitioned run byte-identical to
/// the single-calendar sequential kernel):
///  - local actor timers fire on the even-microsecond grid, conduit
///    deliveries are rounded up to the odd grid, so a local event and a
///    remote arrival never tie;
///  - every handler touches only its own flow's state plus additive
///    counters, so same-timestamp handlers commute;
///  - the event log carries (time, actor, kind, per-flow seq) keys and is
///    sorted canonically at flush.
struct StarWorldConfig {
  int clients = 64;
  std::uint64_t seed = 1;
  Time run_for = Time::sec(10);
  /// 1 = the sequential kernel: everything on one calendar, no executor.
  std::size_t partitions = 1;

  // Media model.
  Time frame_interval = Time::msec(40);    // 25 frames/s per client
  Time report_interval = Time::msec(500);  // client feedback cadence
  Time playout_budget = Time::msec(25);    // arrival > send + budget == late

  // The server's shared egress pipe (the contention point).
  double server_bandwidth_bps = 120e6;
  Time server_max_queue_delay = Time::msec(30);  // drop-tail, in time units

  /// Floor of per-client propagation (each client adds a deterministic
  /// per-client spread on top). Zero forces a degenerate parallel window.
  Time base_propagation = Time::usec(1500);
  double client_uplink_bps = 2e6;

  /// Install one telemetry hub per partition and merge them at flush.
  bool telemetry = false;
};

struct StarWorldResult {
  /// Order-insensitive digest of every observable outcome (counters, final
  /// rate levels, last arrivals, the canonical event log). The acceptance
  /// gate: equal across partition and thread counts for the same seed.
  std::uint64_t fingerprint = 0;
  /// Canonical event log: rate changes and reports sorted by
  /// (time, actor, kind, seq), then per-client summary lines.
  std::string events_csv;

  // Aggregates (sums over all partitions).
  std::int64_t frames_sent = 0;
  std::int64_t packets_sent = 0;
  std::int64_t packets_dropped = 0;  // server egress queue-delay bound
  std::int64_t packets_received = 0;
  std::int64_t packets_lost = 0;  // gaps observed by clients
  std::int64_t packets_late = 0;
  std::int64_t bytes_received = 0;
  std::int64_t reports = 0;
  std::int64_t degrades = 0;
  std::int64_t upgrades = 0;
  std::size_t events_executed = 0;

  // Parallel-executor observables (zero / max when partitions == 1).
  std::size_t windows = 0;
  std::size_t messages = 0;
  Time lookahead = Time::max();

  // Merged telemetry (empty unless StarWorldConfig::telemetry).
  std::string metrics_csv;
  std::string trace_csv;
  /// Perfetto trace-event JSON of the merged timeline.
  std::string trace_json;
  /// Fleet QoE/SLO export ("hyms-slo-v1"): one record per client, filled
  /// field-disjointly from the client's and the server's partition hubs and
  /// folded commutatively — byte-identical across partition/thread counts.
  std::string qoe_json;
};

/// Build and run the star world to cfg.run_for. With partitions == 1 this is
/// the sequential kernel (one Simulator, Simulator::run_until); otherwise
/// the nodes are partitioned (server in partition 0, client c in partition
/// c % partitions) and driven by sim::ParallelExec with `threads` workers.
StarWorldResult run_star_world(const StarWorldConfig& cfg, int threads = 1);

}  // namespace hyms::bench
