// Conservative parallel execution: the ParallelExec window/mailbox machinery,
// PartitionMap lookahead math, telemetry merge-at-flush, and the acceptance
// gate — same-seed star-world runs at any partition/thread count are
// byte-identical (fingerprint AND canonical event log) to the sequential
// single-calendar kernel. CI additionally runs this binary under TSan to
// prove the barrier-windowed handoff is race-free.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/partition.hpp"
#include "star_world.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace hyms {
namespace {

// --- PartitionMap ------------------------------------------------------------

TEST(PartitionMapTest, LookaheadIsMinAcrossBoundariesOnly) {
  net::PartitionMap map(2);
  map.assign(0, 0);
  map.assign(1, 0);
  map.assign(2, 1);
  map.add_link(0, 1, Time::usec(10));    // intra-partition: no constraint
  map.add_link(0, 2, Time::msec(5));     // crosses
  map.add_link(2, 1, Time::msec(2));     // crosses
  EXPECT_EQ(map.cross_lookahead(), Time::msec(2));
  EXPECT_EQ(map.cross_link_count(), 2u);
  EXPECT_FALSE(map.has_zero_latency_cross_link());
}

TEST(PartitionMapTest, NoCrossLinksMeansUnboundedLookahead) {
  net::PartitionMap map(2);
  map.assign(0, 0);
  map.assign(1, 1);
  EXPECT_EQ(map.cross_lookahead(), Time::max());
  map.add_link(0, 0, Time::usec(1));
  EXPECT_EQ(map.cross_lookahead(), Time::max());
}

TEST(PartitionMapTest, ZeroLatencyCrossLinkDetected) {
  net::PartitionMap map(2);
  map.assign(0, 0);
  map.assign(1, 1);
  map.add_link(0, 1, Time::zero());
  EXPECT_TRUE(map.has_zero_latency_cross_link());
  EXPECT_EQ(map.cross_lookahead(), Time::zero());
}

TEST(PartitionMapTest, RejectsBadInput) {
  net::PartitionMap map(2);
  EXPECT_THROW(map.assign(0, 2), std::invalid_argument);
  EXPECT_THROW(map.add_link(0, 1, Time::usec(-1)), std::invalid_argument);
}

// --- ParallelExec mechanics --------------------------------------------------

/// Ping-pong across a 2-partition boundary with latency L, checked against a
/// hand-run sequential reference: the full (time, side) trace must match.
TEST(ParallelExecTest, PingPongMatchesSequentialReference) {
  constexpr Time kLat = Time::msec(5);
  constexpr Time kEnd = Time::msec(200);

  // Sequential reference: one calendar, the "link" scheduled directly.
  std::vector<std::pair<std::int64_t, int>> want;
  {
    sim::Simulator sim;
    // self-scheduling ping-pong closure chain
    struct Ref {
      sim::Simulator& sim;
      std::vector<std::pair<std::int64_t, int>>& out;
      void hop(int side) {
        out.emplace_back(sim.now().us(), side);
        sim.schedule_at(sim.now() + kLat, [this, side] { hop(1 - side); });
      }
    } ref{sim, want};
    sim.schedule_at(Time::zero(), [&ref] { ref.hop(0); });
    sim.run_until(kEnd);
  }

  std::vector<std::pair<std::int64_t, int>> got;
  {
    sim::Simulator s0, s1;
    sim::ParallelExec exec;
    exec.add_partition(s0);
    exec.add_partition(s1);
    exec.set_lookahead(kLat);
    struct Par {
      sim::ParallelExec& exec;
      sim::Simulator* sims[2];
      std::vector<std::pair<std::int64_t, int>>& out;
      void hop(int side) {
        sim::Simulator& here = *sims[side];
        out.emplace_back(here.now().us(), side);
        const Time arrival = here.now() + kLat;
        const int other = 1 - side;
        exec.post(static_cast<std::uint32_t>(side),
                  static_cast<std::uint32_t>(other), arrival,
                  [this, other, arrival] {
                    sims[other]->schedule_at(arrival,
                                             [this, other] { hop(other); });
                  });
      }
    } par{exec, {&s0, &s1}, got};
    s0.schedule_at(Time::zero(), [&par] { par.hop(0); });
    exec.run_until(kEnd, 2);
    EXPECT_GT(exec.stats().windows, 0u);
    EXPECT_EQ(exec.stats().messages, got.size());  // every hop crossed once
  }
  EXPECT_EQ(got, want);
}

/// Simultaneous cross-partition messages inject in canonical (earliest, src,
/// seq) order, never in post/drain order.
TEST(ParallelExecTest, SimultaneousArrivalsMergeStably) {
  sim::Simulator s0, s1, s2;
  sim::ParallelExec exec;
  exec.add_partition(s0);
  exec.add_partition(s1);
  exec.add_partition(s2);
  exec.set_lookahead(Time::usec(1));

  std::vector<std::string> order;
  const auto tag = [&order](std::string label) {
    return [&order, label = std::move(label)] { order.push_back(label); };
  };
  // Posted deliberately out of canonical order.
  exec.post(2, 0, Time::usec(100), tag("t100 src2 #0"));
  exec.post(1, 0, Time::usec(100), tag("t100 src1 #0"));
  exec.post(1, 0, Time::usec(100), tag("t100 src1 #1"));
  exec.post(2, 0, Time::usec(50), tag("t50 src2 #0"));
  exec.post(1, 0, Time::usec(200), tag("t200 src1 #0"));
  exec.run_until(Time::usec(300), 3);

  const std::vector<std::string> want{"t50 src2 #0", "t100 src1 #0",
                                      "t100 src1 #1", "t100 src2 #0",
                                      "t200 src1 #0"};
  EXPECT_EQ(order, want);
}

/// Zero lookahead (a zero-latency cross-partition link) collapses to
/// single-timestamp windows that still deliver every message at its exact
/// logical time.
TEST(ParallelExecTest, ZeroLookaheadDegeneratesButStaysCorrect) {
  sim::Simulator s0, s1;
  sim::ParallelExec exec;
  exec.add_partition(s0);
  exec.add_partition(s1);
  exec.set_lookahead(Time::zero());

  std::vector<std::pair<std::int64_t, int>> got;
  struct Chain {
    sim::ParallelExec& exec;
    sim::Simulator* sims[2];
    std::vector<std::pair<std::int64_t, int>>& out;
    void hop(int side, int hops_left) {
      sim::Simulator& here = *sims[side];
      out.emplace_back(here.now().us(), side);
      if (hops_left == 0) return;
      // Minimal latency: 1us per hop, so every window is one timestamp wide.
      const Time arrival = here.now() + Time::usec(1);
      const int other = 1 - side;
      exec.post(static_cast<std::uint32_t>(side),
                static_cast<std::uint32_t>(other), arrival,
                [this, other, arrival, hops_left] {
                  sims[other]->schedule_at(arrival, [this, other, hops_left] {
                    hop(other, hops_left - 1);
                  });
                });
    }
  } chain{exec, {&s0, &s1}, got};
  s0.schedule_at(Time::zero(), [&chain] { chain.hop(0, 64); });
  exec.run_until(Time::msec(1), 2);

  ASSERT_EQ(got.size(), 65u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, static_cast<std::int64_t>(i));
    EXPECT_EQ(got[i].second, static_cast<int>(i % 2));
  }
  EXPECT_EQ(exec.stats().min_window, Time::zero());
}

TEST(ParallelExecTest, MessagesBeyondDeadlineStayBufferedAcrossRuns) {
  sim::Simulator s0, s1;
  sim::ParallelExec exec;
  exec.add_partition(s0);
  exec.add_partition(s1);
  exec.set_lookahead(Time::msec(1));

  int fired = 0;
  s0.schedule_at(Time::msec(2), [&] {
    exec.post(0, 1, Time::msec(5), [&] {
      s1.schedule_at(Time::msec(5), [&fired] { ++fired; });
    });
  });
  exec.run_until(Time::msec(3), 2);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s1.now(), Time::msec(3));
  exec.run_until(Time::msec(10), 2);  // the buffered message injects now
  EXPECT_EQ(fired, 1);
}

TEST(ParallelExecTest, PartitionExceptionPropagatesToCaller) {
  sim::Simulator s0, s1;
  sim::ParallelExec exec;
  exec.add_partition(s0);
  exec.add_partition(s1);
  exec.set_lookahead(Time::msec(1));
  s1.schedule_at(Time::msec(1),
                 [] { throw std::runtime_error("partition boom"); });
  EXPECT_THROW(exec.run_until(Time::msec(5), 2), std::runtime_error);
}

// --- telemetry merge-at-flush ------------------------------------------------

TEST(TelemetryMergeTest, CountersAddGaugesOverwriteHistogramsCombine) {
  telemetry::Hub a, b;
  auto& ma = a.metrics();
  auto& mb = b.metrics();
  ma.add(ma.counter("c"), 3);
  mb.add(mb.counter("c"), 4);
  ma.set(ma.gauge("g"), 1.0);
  mb.set(mb.gauge("g"), 9.0);
  const telemetry::HistogramSpec spec{0.0, 10.0, 10};
  ma.observe(ma.histogram("h", spec), 1.0);
  mb.observe(mb.histogram("h", spec), 2.0);
  mb.observe(mb.histogram("h", spec), 11.0);  // overflow
  // A name merged under a conflicting kind must be skipped, not corrupt.
  mb.add(mb.counter("kind_clash"), 7);
  ma.set(ma.gauge("kind_clash"), 5.0);

  a.merge_from(b);
  EXPECT_EQ(ma.counter_value(ma.find("c")), 7);
  EXPECT_DOUBLE_EQ(ma.gauge_value(ma.find("g")), 9.0);
  const auto s = ma.summary(ma.find("h"));
  EXPECT_EQ(s.count, 3);
  EXPECT_EQ(s.overflow, 1);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 11.0);
  EXPECT_DOUBLE_EQ(ma.gauge_value(ma.find("kind_clash")), 5.0);
}

TEST(TelemetryMergeTest, TracerReintersNamesAndSortsStably) {
  telemetry::Hub a, b;
  auto& ta = a.tracer();
  auto& tb = b.tracer();
  // Different intern orders on purpose: ids must translate by name.
  const auto a_t = ta.track("alpha");
  const auto b_u = tb.track("uniq");
  const auto b_t = tb.track("alpha");
  ta.instant(a_t, ta.name("x"), Time::usec(10), 1.0);
  ta.instant(a_t, ta.name("x"), Time::usec(30), 2.0);
  tb.instant(b_t, tb.name("x"), Time::usec(10), 3.0);
  tb.instant(b_u, tb.name("y"), Time::usec(20), 4.0);

  a.merge_from(b);
  a.tracer().stable_sort_by_time();
  const auto& recs = a.tracer().records();
  ASSERT_EQ(recs.size(), 4u);
  // ts order 10,10,20,30; the tie keeps merge order (a's record first).
  EXPECT_EQ(recs[0].ts_us, 10);
  EXPECT_DOUBLE_EQ(recs[0].value, 1.0);
  EXPECT_EQ(recs[1].ts_us, 10);
  EXPECT_DOUBLE_EQ(recs[1].value, 3.0);
  EXPECT_EQ(a.tracer().track_name(recs[1].track), "alpha");
  EXPECT_EQ(recs[2].ts_us, 20);
  EXPECT_EQ(a.tracer().track_name(recs[2].track), "uniq");
  EXPECT_EQ(recs[3].ts_us, 30);
}

// --- the acceptance gate: star world byte-identity ---------------------------

bench::StarWorldConfig small_world(std::uint64_t seed) {
  bench::StarWorldConfig cfg;
  cfg.clients = 24;
  cfg.seed = seed;
  cfg.run_for = Time::sec(3);
  // Undersized egress (24 clients offer ~23 Mbps at full rate): the queue
  // bound drops packets, so loss reports and rate degrades actually happen
  // and the identity check covers the cross-partition feedback path.
  cfg.server_bandwidth_bps = 18e6;
  return cfg;
}

TEST(StarWorldTest, SequentialKernelIsDeterministic) {
  const auto a = bench::run_star_world(small_world(7));
  const auto b = bench::run_star_world(small_world(7));
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.events_csv, b.events_csv);
  EXPECT_GT(a.packets_received, 0);
  EXPECT_GT(a.reports, 0);
}

TEST(StarWorldTest, ParallelMatchesSequentialAcrossThreadCounts) {
  const auto seq = bench::run_star_world(small_world(42));
  for (const std::size_t partitions : {2u, 4u}) {
    for (const int threads : {1, 2, 4}) {
      auto cfg = small_world(42);
      cfg.partitions = partitions;
      const auto par = bench::run_star_world(cfg, threads);
      SCOPED_TRACE("partitions=" + std::to_string(partitions) +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(par.fingerprint, seq.fingerprint);
      EXPECT_EQ(par.events_csv, seq.events_csv);
      EXPECT_EQ(par.events_executed, seq.events_executed);
      EXPECT_GT(par.windows, 0u);
      EXPECT_GT(par.messages, 0u);
      EXPECT_EQ(par.lookahead, Time::usec(1500));  // base prop, c % 8 == 0
    }
  }
  // The workload must actually exercise the feedback path, or the identity
  // proves nothing about cross-partition ordering.
  EXPECT_GT(seq.packets_dropped, 0);
  EXPECT_GT(seq.degrades, 0);
}

TEST(StarWorldTest, ZeroPropagationForcesDegenerateWindowStillIdentical) {
  auto cfg = small_world(11);
  cfg.clients = 8;
  cfg.run_for = Time::msec(800);
  cfg.base_propagation = Time::zero();  // some links now have zero latency
  const auto seq = bench::run_star_world(cfg);
  cfg.partitions = 3;
  const auto par = bench::run_star_world(cfg, 3);
  EXPECT_EQ(par.lookahead, Time::zero());
  EXPECT_EQ(par.fingerprint, seq.fingerprint);
  EXPECT_EQ(par.events_csv, seq.events_csv);
}

TEST(StarWorldTest, TelemetryIsPassiveAndMergesDeterministically) {
  auto cfg = small_world(13);
  cfg.clients = 8;
  cfg.run_for = Time::sec(1);
  const auto bare = bench::run_star_world(cfg);
  cfg.telemetry = true;
  const auto traced = bench::run_star_world(cfg);
  // Recording never perturbs the simulation.
  EXPECT_EQ(traced.fingerprint, bare.fingerprint);
  EXPECT_FALSE(traced.metrics_csv.empty());
  EXPECT_FALSE(traced.trace_csv.empty());

  // Merged per-partition telemetry is thread-count independent.
  cfg.partitions = 3;
  const auto par1 = bench::run_star_world(cfg, 1);
  const auto par3 = bench::run_star_world(cfg, 3);
  EXPECT_EQ(par1.fingerprint, bare.fingerprint);
  EXPECT_EQ(par1.metrics_csv, par3.metrics_csv);
  EXPECT_EQ(par1.trace_csv, par3.trace_csv);
}

/// The randomized sweep: 100 seeds, each compared parallel-vs-sequential.
/// Small worlds keep this brisk; the fingerprint covers every counter, the
/// final rate ladder, and the canonical event log.
TEST(StarWorldTest, HundredSeedFingerprintSweep) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    bench::StarWorldConfig cfg;
    cfg.clients = 6;
    cfg.seed = seed;
    cfg.run_for = Time::msec(900);
    const auto seq = bench::run_star_world(cfg);
    cfg.partitions = 3;
    const auto par = bench::run_star_world(cfg, 3);
    ASSERT_EQ(par.fingerprint, seq.fingerprint) << "seed=" << seed;
  }
}

TEST(StarWorldTest, MorePartitionsThanClientsStillRuns) {
  bench::StarWorldConfig cfg;
  cfg.clients = 2;
  cfg.seed = 3;
  cfg.run_for = Time::msec(500);
  const auto seq = bench::run_star_world(cfg);
  cfg.partitions = 6;  // four partitions sit empty
  const auto par = bench::run_star_world(cfg, 4);
  EXPECT_EQ(par.fingerprint, seq.fingerprint);
  EXPECT_EQ(par.events_csv, seq.events_csv);
}

}  // namespace
}  // namespace hyms
