// Partitioned shared-world population: parallel-vs-sequential byte-identity
// at every partitions x threads combination, the fleet-shared FrameCache
// crossing partition threads, and golden outcomes for faults that land while
// a packet train is parked in a link's arrival calendar.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "golden_digest.hpp"
#include "hermes/population.hpp"
#include "link_audit.hpp"
#include "media/frame_cache.hpp"
#include "net/link.hpp"
#include "net/loss.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace hyms {
namespace {

hermes::PopulationConfig small_population(std::uint64_t seed) {
  hermes::PopulationConfig cfg;
  cfg.sessions = 24;
  cfg.servers = 2;
  cfg.documents = 4;
  cfg.seed = seed;
  cfg.arrival_window = Time::sec(4);
  cfg.run_for = Time::sec(12);
  cfg.doc_seconds = 4;
  return cfg;
}

TEST(PopulationDeterminism, PartitionsTimesThreadsSweepIsByteIdentical) {
  for (const std::uint64_t seed : {1ull, 42ull}) {
    auto cfg = small_population(seed);
    cfg.partitions = 1;
    const hermes::PopulationResult seq = hermes::run_population(cfg, 1);
    ASSERT_GT(seq.events_executed, 0u);
    ASSERT_NE(seq.fingerprint, 0u);

    for (const std::uint32_t partitions : {2u, 4u}) {
      for (const int threads : {1, 2, 4}) {
        cfg.partitions = partitions;
        const hermes::PopulationResult par = hermes::run_population(cfg,
                                                                    threads);
        EXPECT_EQ(par.fingerprint, seq.fingerprint)
            << "seed " << seed << " p" << partitions << " t" << threads;
        EXPECT_EQ(par.events_csv, seq.events_csv)
            << "seed " << seed << " p" << partitions << " t" << threads;
        EXPECT_EQ(par.qoe_json, seq.qoe_json)
            << "seed " << seed << " p" << partitions << " t" << threads;
        EXPECT_GT(par.windows, 0u);
        EXPECT_GT(par.messages, 0u);
      }
    }
  }
}

TEST(PopulationDeterminism, SharedFrameCacheAcrossPartitions) {
  auto cfg = small_population(7);
  cfg.partitions = 1;
  const hermes::PopulationResult seq = hermes::run_population(cfg, 1);

  // One explicit cache instance shared by both servers — which live on
  // DIFFERENT partitions when partitions=2, so hits and misses cross worker
  // threads (the TSan leg runs this file).
  media::FrameCache::Config cc;
  cc.byte_budget = 32ull << 20;
  cfg.frame_cache = std::make_shared<media::FrameCache>(cc);
  cfg.partitions = 2;
  const hermes::PopulationResult par = hermes::run_population(cfg, 2);
  EXPECT_EQ(par.fingerprint, seq.fingerprint);
  EXPECT_EQ(par.events_csv, seq.events_csv);
  EXPECT_EQ(par.qoe_json, seq.qoe_json);
  EXPECT_GT(par.cache_hits + par.cache_misses, 0);

  // A pre-warmed shared cache must not perturb simulation outcomes either:
  // cache state changes who synthesizes, never what arrives when.
  const hermes::PopulationResult warm = hermes::run_population(cfg, 2);
  EXPECT_EQ(warm.fingerprint, seq.fingerprint);
  EXPECT_EQ(warm.events_csv, seq.events_csv);
  EXPECT_GT(warm.cache_hits, par.cache_hits);
}

TEST(PopulationFates, EverySessionGetsExactlyOneFate) {
  auto cfg = small_population(3);
  const hermes::PopulationResult r = hermes::run_population(cfg, 1);
  EXPECT_EQ(r.completed + r.degraded + r.churned + r.abandoned + r.rejected +
                r.failed + r.unfinished,
            cfg.sessions);
  EXPECT_GT(r.completed, 0);
  // One "arrive" row per session in the canonical log.
  std::size_t arrivals = 0;
  for (std::size_t pos = r.events_csv.find(",arrive,");
       pos != std::string::npos;
       pos = r.events_csv.find(",arrive,", pos + 1)) {
    ++arrivals;
  }
  EXPECT_EQ(arrivals, static_cast<std::size_t>(cfg.sessions));
}

// --- faults vs the arrival calendar ----------------------------------------
//
// Link flaps and bandwidth-override push/pop land mid-run while trains are
// parked in the link's arrival calendar. The per-packet delivery timeline,
// the loss outcomes (RNG draw order) and the drop accounting are pinned per
// seed by committed values, recorded when the link still had a per-packet
// path beside the train path; both gave these values.

struct ChaosOutcome {
  std::uint64_t seed = 0;
  std::uint64_t arrivals_digest = 0;  // over (t_us, size) in delivery order
  std::int64_t arrivals = 0;
  std::int64_t offered = 0;
  std::int64_t delivered = 0;
  std::int64_t dropped_queue = 0;
  std::int64_t dropped_loss = 0;
  std::int64_t dropped_down = 0;
  std::int64_t net_sent = 0;
  std::int64_t net_delivered = 0;
};

ChaosOutcome run_fault_chaos(std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim);
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net::LinkParams lp;
  lp.bandwidth_bps = 10e6;
  lp.propagation = Time::msec(5);
  lp.queue_capacity_bytes = 24 * 1024;  // small: overflow mid-train
  lp.loss = std::make_shared<net::BernoulliLoss>(0.15);
  net.connect(a, b, lp);
  net::Link* link = net.find_link(a, b);

  ChaosOutcome out;
  out.seed = seed;
  GoldenDigest arrivals;
  net.bind(b, 50, [&](const net::Packet& pkt) {
    arrivals.mix(static_cast<std::uint64_t>(sim.now().us()));
    arrivals.mix(pkt.payload.size());
    ++out.arrivals;
  });

  const auto send_train = [&](int count, std::size_t bytes) {
    std::vector<net::Payload> train;
    train.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      train.push_back(net::Payload(bytes, static_cast<std::uint8_t>(i)));
    }
    net.send_train(net::Endpoint{a, 9}, net::Endpoint{b, 50}, train);
  };

  // Trains park ~16ms of serialization in the calendar; the fault script
  // lands inside that span.
  sim.schedule_at(Time::zero(), [&] { send_train(18, 1000); });
  sim.schedule_at(Time::msec(1), [&] {
    net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50}, net::Payload(400, 9));
  });
  sim.schedule_at(Time::msec(2), [&] { link->set_up(false); });
  sim.schedule_at(Time::msec(3), [&] { send_train(6, 700); });  // all down-drop
  sim.schedule_at(Time::msec(4), [&] { link->set_up(true); });
  sim.schedule_at(Time::msec(6), [&] {
    auto collapsed = link->params();
    collapsed.bandwidth_bps = 2e6;
    link->push_override(collapsed);
  });
  sim.schedule_at(Time::msec(7), [&] { send_train(8, 1200); });
  sim.schedule_at(Time::msec(11), [&] { link->pop_override(); });
  sim.schedule_at(Time::msec(12), [&] { send_train(10, 600); });
  sim.run();

  EXPECT_EQ(expect_links_conserved(net), 2);
  out.arrivals_digest = arrivals.value;
  const auto& ls = link->stats();
  out.offered = ls.offered;
  out.delivered = ls.delivered;
  out.dropped_queue = ls.dropped_queue;
  out.dropped_loss = ls.dropped_loss;
  out.dropped_down = ls.dropped_down;
  const auto ns = net.stats();
  out.net_sent = ns.sent;
  out.net_delivered = ns.delivered;
  return out;
}

TEST(FaultGoldenTest, FaultsDuringParkedTrainsMatchGoldenOutcomes) {
  const ChaosOutcome kGolden[] = {
      {1, 0xa340e0fdae7f5f38ULL, 31, 43, 31, 0, 6, 6, 43, 31},
      {9, 0x2090ea3b364ef884ULL, 31, 43, 31, 0, 6, 6, 43, 31},
      {23, 0xc37940f2a373b58fULL, 28, 43, 28, 0, 9, 6, 43, 28},
  };
  for (const ChaosOutcome& golden : kGolden) {
    SCOPED_TRACE("seed " + std::to_string(golden.seed));
    const ChaosOutcome out = run_fault_chaos(golden.seed);
    // The script must actually exercise every interaction it claims to.
    EXPECT_GT(out.dropped_down, 0);
    EXPECT_GT(out.dropped_loss, 0);
    EXPECT_GT(out.delivered, 0);

    EXPECT_EQ(out.arrivals_digest, golden.arrivals_digest);
    EXPECT_EQ(out.arrivals, golden.arrivals);
    EXPECT_EQ(out.offered, golden.offered);
    EXPECT_EQ(out.delivered, golden.delivered);
    EXPECT_EQ(out.dropped_queue, golden.dropped_queue);
    EXPECT_EQ(out.dropped_loss, golden.dropped_loss);
    EXPECT_EQ(out.dropped_down, golden.dropped_down);
    EXPECT_EQ(out.net_sent, golden.net_sent);
    EXPECT_EQ(out.net_delivered, golden.net_delivered);
  }
}

}  // namespace
}  // namespace hyms
