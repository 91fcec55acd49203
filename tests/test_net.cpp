#include <gtest/gtest.h>

#include "link_audit.hpp"
#include "net/cross_traffic.hpp"
#include "net/loss.hpp"
#include "net/network.hpp"
#include "net/wire.hpp"
#include "sim/simulator.hpp"

namespace hyms {
namespace {

struct NetFixture : ::testing::Test {
  NetFixture() : sim(7), net(sim) {}

  sim::Simulator sim;
  net::Network net;
};

net::LinkParams fast_link() {
  net::LinkParams lp;
  lp.bandwidth_bps = 10e6;
  lp.propagation = Time::msec(5);
  lp.queue_capacity_bytes = 64 * 1024;
  return lp;
}

TEST_F(NetFixture, DatagramDeliveryLatency) {
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net.connect(a, b, fast_link());

  Time arrival;
  std::size_t got = 0;
  net.bind(b, 50, [&](const net::Packet& pkt) {
    arrival = sim.now();
    got = pkt.payload.size();
  });
  auto& sock = net.bind(a, 0, [](const net::Packet&) {});
  sock.send(net::Endpoint{b, 50}, net::Payload(1000, 1));
  sim.run();

  // serialization (1028B * 8 / 10Mbps = 822.4us) + 5ms propagation.
  EXPECT_EQ(got, 1000u);
  EXPECT_NEAR(arrival.to_seconds(), 0.005 + 1028 * 8 / 10e6, 1e-6);
}

TEST_F(NetFixture, MultiHopRouting) {
  const auto a = net.add_host("a");
  const auto r1 = net.add_router("r1");
  const auto r2 = net.add_router("r2");
  const auto b = net.add_host("b");
  net.connect(a, r1, fast_link());
  net.connect(r1, r2, fast_link());
  net.connect(r2, b, fast_link());

  int received = 0;
  net.bind(b, 50, [&](const net::Packet&) { ++received; });
  net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50}, net::Payload(100, 0));
  sim.run();
  EXPECT_EQ(received, 1);
  // Three hops of 5ms propagation each.
  EXPECT_GT(sim.now(), Time::msec(15));
}

TEST_F(NetFixture, ShortestPathPreferred) {
  // a - r1 - b and a - r2 - r3 - b: the 2-hop path must win.
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  const auto r1 = net.add_router("r1");
  const auto r2 = net.add_router("r2");
  const auto r3 = net.add_router("r3");
  net.connect(a, r1, fast_link());
  net.connect(r1, b, fast_link());
  net.connect(a, r2, fast_link());
  net.connect(r2, r3, fast_link());
  net.connect(r3, b, fast_link());

  net.bind(b, 50, [](const net::Packet&) {});
  net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50}, net::Payload(10, 0));
  sim.run();
  EXPECT_EQ(net.find_link(a, r1)->stats().delivered, 1);
  EXPECT_EQ(net.find_link(a, r2)->stats().delivered, 0);
}

TEST_F(NetFixture, NoRouteCounted) {
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");  // not connected
  net.bind(b, 50, [](const net::Packet&) {});
  net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50}, net::Payload(10, 0));
  sim.run();
  EXPECT_EQ(net.stats().dropped_no_route, 1);
  EXPECT_EQ(net.stats().delivered, 0);
}

TEST_F(NetFixture, NoSocketCounted) {
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net.connect(a, b, fast_link());
  net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50}, net::Payload(10, 0));
  sim.run();
  EXPECT_EQ(net.stats().dropped_no_socket, 1);
}

TEST_F(NetFixture, UnbindStopsDelivery) {
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net.connect(a, b, fast_link());
  int received = 0;
  auto& sock = net.bind(b, 50, [&](const net::Packet&) { ++received; });
  net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50}, net::Payload(10, 0));
  sim.run();
  net.unbind(sock.local());
  net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50}, net::Payload(10, 0));
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(net.stats().dropped_no_socket, 1);
}

TEST_F(NetFixture, EphemeralPortsAreUnique) {
  const auto a = net.add_host("a");
  auto& s1 = net.bind(a, 0, [](const net::Packet&) {});
  auto& s2 = net.bind(a, 0, [](const net::Packet&) {});
  EXPECT_NE(s1.local().port, s2.local().port);
  EXPECT_THROW(net.bind(a, s1.local().port, [](const net::Packet&) {}),
               std::invalid_argument);
}

TEST_F(NetFixture, BandwidthLimitsThroughput) {
  // 1 Mbps link; 100 packets of 1000B injected at once take ~0.82s to drain.
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net::LinkParams lp = fast_link();
  lp.bandwidth_bps = 1e6;
  lp.queue_capacity_bytes = 1024 * 1024;
  net.connect(a, b, lp);

  Time last_arrival;
  net.bind(b, 50, [&](const net::Packet&) { last_arrival = sim.now(); });
  for (int i = 0; i < 100; ++i) {
    net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50}, net::Payload(1000, 0));
  }
  sim.run();
  const double expected = 100 * 1028 * 8 / 1e6 + 0.005;
  EXPECT_NEAR(last_arrival.to_seconds(), expected, 0.01);
}

TEST_F(NetFixture, DropTailQueueOverflow) {
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net::LinkParams lp = fast_link();
  lp.bandwidth_bps = 1e6;
  lp.queue_capacity_bytes = 5000;  // holds ~4 packets of 1028B wire size
  net.connect(a, b, lp);

  int received = 0;
  net.bind(b, 50, [&](const net::Packet&) { ++received; });
  for (int i = 0; i < 50; ++i) {
    net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50}, net::Payload(1000, 0));
  }
  sim.run();
  auto* link = net.find_link(a, b);
  EXPECT_GT(link->stats().dropped_queue, 0);
  EXPECT_EQ(received + link->stats().dropped_queue, 50);
  EXPECT_EQ(expect_links_conserved(net), 2);
}

TEST_F(NetFixture, QueueDrainsAndAcceptsAgain) {
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net::LinkParams lp = fast_link();
  lp.bandwidth_bps = 1e6;
  lp.queue_capacity_bytes = 3000;
  net.connect(a, b, lp);
  int received = 0;
  net.bind(b, 50, [&](const net::Packet&) { ++received; });

  // Burst that overflows, then a later packet after the queue drained.
  for (int i = 0; i < 10; ++i) {
    net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50}, net::Payload(1000, 0));
  }
  sim.schedule_at(Time::sec(1), [&] {
    net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50}, net::Payload(1000, 0));
  });
  sim.run();
  auto* link = net.find_link(a, b);
  EXPECT_GT(link->stats().dropped_queue, 0);
  // The late packet must get through.
  EXPECT_EQ(received, 10 - link->stats().dropped_queue + 1);
  EXPECT_EQ(expect_links_conserved(net), 2);
}

TEST_F(NetFixture, JitterCanReorder) {
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net::LinkParams lp = fast_link();
  lp.jitter_mean = Time::msec(5);
  lp.jitter_stddev = Time::msec(10);
  net.connect(a, b, lp);

  std::vector<std::uint8_t> arrivals;
  net.bind(b, 50, [&](const net::Packet& pkt) {
    arrivals.push_back(pkt.payload[0]);
  });
  for (int i = 0; i < 50; ++i) {
    net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50},
             net::Payload(100, static_cast<std::uint8_t>(i)));
  }
  sim.run();
  ASSERT_EQ(arrivals.size(), 50u);
  bool reordered = false;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i] < arrivals[i - 1]) reordered = true;
  }
  EXPECT_TRUE(reordered) << "with 10ms jitter stddev reordering is expected";
  EXPECT_EQ(expect_links_conserved(net), 2);
}

TEST_F(NetFixture, CorruptionFlipsBitsAndCounts) {
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net::LinkParams lp = fast_link();
  lp.corruption_prob = 0.5;
  lp.queue_capacity_bytes = 10 * 1024 * 1024;  // no drop-tail interference
  net.connect(a, b, lp);
  int intact = 0, corrupted = 0;
  net.bind(b, 50, [&](const net::Packet& pkt) {
    bool ok = true;
    for (auto byte : pkt.payload) ok = ok && byte == 0x77;
    (ok ? intact : corrupted) += 1;
  });
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50},
             net::Payload(64, 0x77));
  }
  sim.run();
  EXPECT_EQ(intact + corrupted, n) << "corruption must not drop packets";
  EXPECT_NEAR(static_cast<double>(corrupted) / n, 0.5, 0.05);
  EXPECT_EQ(net.find_link(a, b)->stats().corrupted, corrupted);
}

TEST_F(NetFixture, SetParamsAffectsSubsequentPackets) {
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net.connect(a, b, fast_link());
  std::vector<Time> arrivals;
  net.bind(b, 50, [&](const net::Packet&) { arrivals.push_back(sim.now()); });

  net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50}, net::Payload(100, 0));
  sim.run();
  auto params = net.find_link(a, b)->params();
  params.propagation = Time::msec(100);
  net.find_link(a, b)->set_params(params);
  const Time before_second = sim.now();
  net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50}, net::Payload(100, 0));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_LT(arrivals[0], Time::msec(10));
  EXPECT_GE(arrivals[1] - before_second, Time::msec(100));
}

// --- loss models ----------------------------------------------------------------

TEST(LossModelTest, BernoulliEmpiricalRate) {
  util::Rng rng(5);
  net::BernoulliLoss loss(0.1);
  int drops = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) drops += loss.drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.1, 0.005);
}

TEST(LossModelTest, GilbertElliottIsBursty) {
  util::Rng rng(5);
  net::GilbertElliottLoss::Params params;
  params.p_good_to_bad = 0.01;
  params.p_bad_to_good = 0.1;
  params.loss_good = 0.0;
  params.loss_bad = 0.5;
  net::GilbertElliottLoss loss(params);

  // Count runs: bursty loss means consecutive drops are much more likely
  // than independent loss at the same average rate.
  const int n = 200'000;
  int drops = 0, consecutive_pairs = 0;
  bool prev = false;
  for (int i = 0; i < n; ++i) {
    const bool d = loss.drop(rng);
    drops += d ? 1 : 0;
    if (d && prev) ++consecutive_pairs;
    prev = d;
  }
  const double rate = static_cast<double>(drops) / n;
  const double pair_rate = static_cast<double>(consecutive_pairs) / drops;
  EXPECT_GT(rate, 0.01);
  EXPECT_LT(rate, 0.2);
  // Under independence P(drop | drop) == rate; burstiness pushes it well up.
  EXPECT_GT(pair_rate, 3 * rate);
}

TEST_F(NetFixture, LinkLossModelApplied) {
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net::LinkParams lp = fast_link();
  lp.queue_capacity_bytes = 10 * 1024 * 1024;
  lp.loss = std::make_shared<net::BernoulliLoss>(0.25);
  lp.bandwidth_bps = 1e9;
  net.connect(a, b, lp);
  int received = 0;
  net.bind(b, 50, [&](const net::Packet&) { ++received; });
  const int n = 10'000;
  for (int i = 0; i < n; ++i) {
    net.send(net::Endpoint{a, 9}, net::Endpoint{b, 50}, net::Payload(50, 0));
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(received) / n, 0.75, 0.02);
  EXPECT_NEAR(static_cast<double>(net.find_link(a, b)->stats().dropped_loss) / n,
              0.25, 0.02);
  EXPECT_EQ(expect_links_conserved(net), 2);
}

// --- cross traffic -----------------------------------------------------------------

TEST_F(NetFixture, CbrSourceRate) {
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net::LinkParams lp = fast_link();
  lp.queue_capacity_bytes = 10 * 1024 * 1024;
  net.connect(a, b, lp);
  net::PacketSink sink(net, b, 70);
  net::CbrSource cbr(net, a, sink.endpoint(), 1e6, 1000);
  cbr.start();
  sim.run_until(Time::sec(8));
  cbr.stop();
  // 1 Mbps / 8000 bits per packet = 125 packets/s.
  EXPECT_NEAR(static_cast<double>(cbr.sent()) / 8.0, 125.0, 2.0);
  EXPECT_GT(sink.received(), 900);
}

TEST_F(NetFixture, OnOffSourceAlternates) {
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net::LinkParams lp = fast_link();
  lp.queue_capacity_bytes = 10 * 1024 * 1024;
  net.connect(a, b, lp);
  net::PacketSink sink(net, b, 70);
  net::OnOffSource::Params params;
  params.rate_bps_on = 4e6;
  params.mean_on = Time::sec(1);
  params.mean_off = Time::sec(1);
  net::OnOffSource source(net, a, sink.endpoint(), params);
  source.start();
  sim.run_until(Time::sec(60));
  source.stop();
  // ~50% duty cycle at 4 Mbps = ~2 Mbps average = 250 pkt/s * 60s = 15000.
  EXPECT_GT(source.sent(), 7000);
  EXPECT_LT(source.sent(), 25000);
  EXPECT_EQ(sink.received(), source.sent());
}

TEST_F(NetFixture, OnOffStopHalts) {
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net.connect(a, b, fast_link());
  net::PacketSink sink(net, b, 70);
  net::OnOffSource::Params params;
  params.start_in_on = true;
  net::OnOffSource source(net, a, sink.endpoint(), params);
  source.start();
  sim.run_until(Time::msec(100));
  source.stop();
  const auto sent = source.sent();
  EXPECT_GT(sent, 0);
  sim.run_until(Time::sec(10));
  EXPECT_EQ(source.sent(), sent);
}

// --- wire helpers -----------------------------------------------------------------

TEST(WireTest, RoundTripAllTypes) {
  net::Payload buf;
  net::WireWriter w(buf);
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");

  net::WireReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireTest, TruncatedReadThrows) {
  net::Payload buf;
  net::WireWriter w(buf);
  w.u16(7);
  net::WireReader r(buf);
  EXPECT_EQ(r.u16(), 7);
  EXPECT_THROW(r.u8(), std::out_of_range);
}

TEST(WireTest, BigEndianLayout) {
  net::Payload buf;
  net::WireWriter w(buf);
  w.u32(0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
}

}  // namespace
}  // namespace hyms
