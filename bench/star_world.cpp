#include "star_world.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "net/partition.hpp"
#include "net/conduit.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hyms::bench {
namespace {

/// Round a conduit arrival up onto the odd-microsecond grid. Local actor
/// timers live on the even grid, so a rounded arrival can never tie with a
/// timer — the one class of same-timestamp pair whose handlers would not
/// commute (a frame tick reads rate state that a report delivery writes).
constexpr Time odd_up(Time t) { return Time::usec(t.us() | 1); }

/// One transmission conduit with a serialization queue: admissions are
/// serialized in arrival order against busy_until, and an admission whose
/// queueing delay would exceed max_queue_delay is dropped (drop-tail in time
/// units). Pure state machine — identical arithmetic whether the caller is
/// the sequential kernel or a partitioned worker, which the byte-identity
/// gate depends on.
struct Pipe {
  double bandwidth_bps = 1e6;
  Time max_queue_delay = Time::max();  // Time::max() == never drop
  Time busy_until = Time::zero();
  std::int64_t dropped = 0;

  /// Far-end arrival time (odd grid) of a packet offered at `now`, or
  /// nullopt when the queue-delay bound drops it (busy_until is untouched —
  /// a dropped packet occupies no wire time).
  std::optional<Time> admit(Time now, std::size_t wire_bytes,
                            Time propagation) {
    const Time start = std::max(now, busy_until);
    if (max_queue_delay != Time::max() && start - now > max_queue_delay) {
      ++dropped;
      return std::nullopt;
    }
    const Time finish =
        start + Time::seconds(static_cast<double>(wire_bytes) * 8.0 /
                              bandwidth_bps);
    busy_until = finish;
    return odd_up(finish + propagation);
  }
};

/// One media packet in flight; small enough that a delivery lambda capturing
/// it plus an actor pointer stays within EventFn's inline budget.
struct PacketItem {
  Time arrival;
  Time sent;
  std::uint32_t seq;
  std::uint32_t bytes;
};

enum class LogKind : std::uint8_t { kReport = 0, kDegrade = 1, kUpgrade = 2 };

constexpr const char* log_kind_name(LogKind k) {
  switch (k) {
    case LogKind::kReport: return "report";
    case LogKind::kDegrade: return "degrade";
    case LogKind::kUpgrade: return "upgrade";
  }
  return "?";
}

/// One canonical-log entry. The sort key (t_us, actor, kind, seq) is unique:
/// seq is per (actor, kind-owner) — clients number their own reports, the
/// server numbers each flow's rate changes — and reports (even timestamps)
/// never collide with rate changes (odd timestamps).
struct LogEntry {
  std::int64_t t_us;
  std::uint32_t actor;  // 0 = server, 1 + c = client c's flow
  LogKind kind;
  std::uint32_t seq;
  std::int64_t a;
  std::int64_t b;
};

class Server;

/// Shared context: the partition Simulators, optional per-partition hubs,
/// and the executor. Cross-partition traffic is posted through net::Conduit
/// — the same seam the partitioned Network's links mail their packet trains
/// through — so the inline-when-colocated / mailbox-when-crossing ordering
/// discipline lives in exactly one place.
struct World {
  const StarWorldConfig* cfg = nullptr;
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<std::unique_ptr<telemetry::Hub>> hubs;
  sim::ParallelExec exec;
  bool parallel = false;

  [[nodiscard]] net::Conduit conduit(std::uint32_t src, std::uint32_t dst) {
    return net::Conduit(parallel ? &exec : nullptr, src, dst);
  }
};

/// One media receiver: counts arrivals, detects gaps from sequence numbers,
/// and reports (received, lost) to the server every report interval over its
/// uplink conduit. All state is its own, so same-timestamp handlers of
/// different clients commute.
class Client {
 public:
  void init(World& world, std::uint32_t id, std::uint32_t partition) {
    world_ = &world;
    id_ = id;
    partition_ = partition;
    sim_ = world.sims[partition].get();
    const StarWorldConfig& cfg = *world.cfg;
    uplink_.bandwidth_bps = cfg.client_uplink_bps;
    up_prop_ = cfg.base_propagation + Time::usec(125 * ((id + 3) % 8));
    if (auto* hub = sim_->telemetry()) {
      track_ = hub->tracer().track("world/client/" + std::to_string(id));
      n_report_ = hub->tracer().name("report");
    }
  }
  void set_server(Server* server, std::uint32_t server_partition) {
    server_ = server;
    server_partition_ = server_partition;
  }

  void start() {
    // Even-grid phase 2*id staggers the report ticks of co-partitioned
    // clients so no two local timers in one calendar ever tie.
    arm_report(Time::usec(2 * id_) + world_->cfg->report_interval);
  }

  /// Called from the train-injection thunk: schedule one packet's delivery
  /// at its exact arrival time.
  void deliver(const PacketItem& item) {
    sim_->schedule_at(item.arrival, [this, item] { on_packet(item); });
  }

  [[nodiscard]] Time uplink_propagation() const { return up_prop_; }

  // Flush-time observables (read only after the run).
  std::uint32_t id_ = 0;
  std::int64_t received_ = 0;
  std::int64_t lost_ = 0;
  std::int64_t late_ = 0;
  std::int64_t bytes_ = 0;
  std::int64_t reports_sent_ = 0;
  Time first_arrival_ = Time::zero();
  Time last_arrival_ = Time::zero();
  std::vector<LogEntry> log_;

 private:
  void arm_report(Time at) {
    sim_->schedule_at(at, [this, at] { report_tick(at); });
  }
  void report_tick(Time now);
  void on_packet(const PacketItem& item) {
    if (received_ == 0) first_arrival_ = item.arrival;
    ++received_;
    ++recv_since_;
    bytes_ += item.bytes;
    if (item.seq > next_expected_) {
      const auto gap = static_cast<std::int64_t>(item.seq - next_expected_);
      lost_ += gap;
      lost_since_ += gap;
    }
    if (item.seq >= next_expected_) next_expected_ = item.seq + 1;
    if (item.arrival - item.sent > world_->cfg->playout_budget) ++late_;
    last_arrival_ = item.arrival;
  }

  World* world_ = nullptr;
  sim::Simulator* sim_ = nullptr;
  Server* server_ = nullptr;
  std::uint32_t partition_ = 0;
  std::uint32_t server_partition_ = 0;
  Pipe uplink_;
  Time up_prop_ = Time::zero();
  std::uint32_t next_expected_ = 0;
  std::int64_t recv_since_ = 0;
  std::int64_t lost_since_ = 0;
  std::uint32_t report_seq_ = 0;
  telemetry::TrackId track_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_report_ = telemetry::kInvalidTraceId;
};

/// The multimedia server: one frame tick per client per frame interval,
/// bursting level-dependent packet trains through ONE shared egress conduit
/// (the contention point every flow serializes through), and a per-flow rate
/// controller driven by the clients' loss reports — the paper's media-scaling
/// feedback loop in miniature.
class Server {
 public:
  static constexpr int kLevelFloor = 3;  // coarsest rate level

  void init(World& world, std::vector<Client>& clients,
            const std::vector<std::uint32_t>& client_partition) {
    world_ = &world;
    clients_ = &clients;
    client_partition_ = &client_partition;
    sim_ = world.sims[0].get();
    const StarWorldConfig& cfg = *world.cfg;
    egress_.bandwidth_bps = cfg.server_bandwidth_bps;
    egress_.max_queue_delay = cfg.server_max_queue_delay;
    const std::size_t n = clients.size();
    level_.assign(n, 0);
    clean_streak_.assign(n, 0);
    next_seq_.assign(n, 0);
    rate_seq_.assign(n, 0);
    prop_down_.reserve(n);
    rng_.reserve(n);
    // Every flow forks its own substream from the world seed, keyed by the
    // client id: partitioning can never change which stream a flow draws
    // packet sizes from.
    const util::Rng root(cfg.seed);
    for (std::size_t c = 0; c < n; ++c) {
      prop_down_.push_back(cfg.base_propagation +
                           Time::usec(125 * static_cast<std::int64_t>(c % 8)));
      rng_.push_back(root.fork(1000 + c));
    }
    if (auto* hub = sim_->telemetry()) {
      track_ = hub->tracer().track("world/server");
      n_frame_ = hub->tracer().name("frame");
      n_rate_ = hub->tracer().name("rate_change");
    }
  }

  void start() {
    for (std::uint32_t c = 0; c < clients_->size(); ++c) {
      arm_frame(c, Time::usec(2 * c) + world_->cfg->frame_interval);
    }
  }

  /// Called from a report-injection thunk: schedule the report's processing
  /// at its exact (odd-grid) arrival time.
  void schedule_report(Time at, std::uint32_t c, std::int64_t recv,
                       std::int64_t lost) {
    sim_->schedule_at(at, [this, c, recv, lost] { on_report(c, recv, lost); });
  }

  [[nodiscard]] Time downlink_propagation(std::uint32_t c) const {
    return prop_down_[c];
  }

  // Flush-time observables.
  std::int64_t frames_sent_ = 0;
  std::int64_t packets_sent_ = 0;
  std::int64_t reports_received_ = 0;
  std::int64_t degrades_ = 0;
  std::int64_t upgrades_ = 0;
  Pipe egress_;
  std::vector<int> level_;
  std::vector<LogEntry> log_;

  /// Server-side half of each client's QoE record (rate-change count, final
  /// delivered level), written into the server partition's collector; the
  /// client-side half lives in the client's partition. The fills are
  /// field-disjoint, so the commutative merge is partition-proof.
  void flush_qoe(telemetry::Hub& hub) {
    for (std::uint32_t c = 0; c < level_.size(); ++c) {
      auto& rec = hub.qoe().session(c + 1);
      rec.quality_changes += static_cast<int>(rate_seq_[c]);
      ++rec.level_slots[std::min(level_[c], telemetry::kQoeLevels - 1)];
    }
  }

 private:
  void arm_frame(std::uint32_t c, Time at) {
    sim_->schedule_at(at, [this, c, at] { frame_tick(c, at); });
  }

  void frame_tick(std::uint32_t c, Time now) {
    ++frames_sent_;
    if (track_ != telemetry::kInvalidTraceId) {
      sim_->telemetry()->tracer().instant(track_, n_frame_, now,
                                          static_cast<double>(c));
    }
    // Rate level 0 is pristine (5 packets per frame); each degrade sheds one.
    const int pkts = 5 - level_[c];
    train_.clear();
    for (int i = 0; i < pkts; ++i) {
      const std::uint32_t seq = next_seq_[c]++;
      // The size draw happens before the admit so a dropped packet consumes
      // the same randomness — the flow's stream position is partition-proof.
      const auto payload =
          static_cast<std::uint32_t>(700 + rng_[c].below(600));
      const auto arrival =
          egress_.admit(now, payload + net::kIpUdpOverhead, prop_down_[c]);
      if (!arrival) continue;  // counted by the pipe; seen as a gap downstream
      ++packets_sent_;
      train_.push_back(PacketItem{*arrival, now, seq, payload});
    }
    if (!train_.empty()) {
      // The whole burst rides one injection thunk keyed by its first arrival
      // — the packet-train handoff at the partition edge. Client* + vector
      // fits EventFn's inline buffer, so the post never heap-allocates the
      // callable.
      Client* cl = &(*clients_)[c];
      // Hoisted before the call: argument evaluation order is unspecified,
      // and the init-capture move below would gut train_ first.
      const Time first_arrival = train_.front().arrival;
      world_->conduit(0, (*client_partition_)[c])
          .post(first_arrival, [cl, train = std::move(train_)] {
            for (const PacketItem& item : train) cl->deliver(item);
          });
      train_ = {};
    }
    const Time next = now + world_->cfg->frame_interval;
    if (next <= world_->cfg->run_for) arm_frame(c, next);
  }

  void on_report(std::uint32_t c, std::int64_t recv, std::int64_t lost) {
    ++reports_received_;
    if (lost > 0) {
      clean_streak_[c] = 0;
      if (level_[c] < kLevelFloor) {
        ++level_[c];
        ++degrades_;
        log_.push_back(LogEntry{sim_->now().us(), c + 1, LogKind::kDegrade,
                                rate_seq_[c]++, level_[c], lost});
        if (track_ != telemetry::kInvalidTraceId) {
          sim_->telemetry()->tracer().instant(track_, n_rate_, sim_->now(),
                                              static_cast<double>(level_[c]));
        }
      }
    } else if (++clean_streak_[c] >= 4 && level_[c] > 0) {
      clean_streak_[c] = 0;
      --level_[c];
      ++upgrades_;
      log_.push_back(LogEntry{sim_->now().us(), c + 1, LogKind::kUpgrade,
                              rate_seq_[c]++, level_[c], recv});
      if (track_ != telemetry::kInvalidTraceId) {
        sim_->telemetry()->tracer().instant(track_, n_rate_, sim_->now(),
                                            static_cast<double>(level_[c]));
      }
    }
  }

  World* world_ = nullptr;
  sim::Simulator* sim_ = nullptr;
  std::vector<Client>* clients_ = nullptr;
  const std::vector<std::uint32_t>* client_partition_ = nullptr;
  std::vector<int> clean_streak_;
  std::vector<std::uint32_t> next_seq_;
  std::vector<std::uint32_t> rate_seq_;
  std::vector<Time> prop_down_;
  std::vector<util::Rng> rng_;
  std::vector<PacketItem> train_;
  telemetry::TrackId track_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_frame_ = telemetry::kInvalidTraceId;
  telemetry::NameId n_rate_ = telemetry::kInvalidTraceId;
};

void Client::report_tick(Time now) {
  ++reports_sent_;
  log_.push_back(LogEntry{now.us(), id_ + 1, LogKind::kReport, report_seq_++,
                          recv_since_, lost_since_});
  if (track_ != telemetry::kInvalidTraceId) {
    sim_->telemetry()->tracer().instant(track_, n_report_, now,
                                        static_cast<double>(lost_since_));
  }
  const std::int64_t recv = recv_since_;
  const std::int64_t lost = lost_since_;
  recv_since_ = 0;
  lost_since_ = 0;
  // 64-byte feedback datagram through the uplink conduit (unbounded queue:
  // feedback is never dropped, so the rate loop cannot starve).
  const auto arrival = uplink_.admit(now, 64 + net::kIpUdpOverhead, up_prop_);
  Server* srv = server_;
  const std::uint32_t c = id_;
  world_->conduit(partition_, server_partition_)
      .post(*arrival, [srv, c, at = *arrival, recv, lost] {
        srv->schedule_report(at, c, recv, lost);
      });
  const Time next = now + world_->cfg->report_interval;
  if (next <= world_->cfg->run_for) arm_report(next);
}

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a_bytes(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

StarWorldResult run_star_world(const StarWorldConfig& cfg, int threads) {
  if (cfg.clients < 1) {
    throw std::invalid_argument("run_star_world: need at least one client");
  }
  if (cfg.partitions < 1) {
    throw std::invalid_argument("run_star_world: need at least one partition");
  }
  const std::size_t num_parts = cfg.partitions;

  World world;
  world.cfg = &cfg;
  world.parallel = num_parts > 1;
  for (std::size_t p = 0; p < num_parts; ++p) {
    world.sims.push_back(std::make_unique<sim::Simulator>(cfg.seed + p));
    if (cfg.telemetry) {
      world.hubs.push_back(std::make_unique<telemetry::Hub>());
      world.sims.back()->set_telemetry(world.hubs.back().get());
    }
  }

  // Static placement: server = node 0 in partition 0, client c = node 1 + c
  // in partition c % P, and the lookahead is the PartitionMap's minimum
  // cross-partition propagation (Time::max() when nothing crosses — fully
  // independent partitions run straight to the deadline).
  net::PartitionMap map(num_parts);
  map.assign(0, 0);
  std::vector<std::uint32_t> client_partition(
      static_cast<std::size_t>(cfg.clients));
  for (int c = 0; c < cfg.clients; ++c) {
    const auto part = static_cast<std::uint32_t>(
        static_cast<std::size_t>(c) % num_parts);
    client_partition[static_cast<std::size_t>(c)] = part;
    map.assign(static_cast<net::NodeId>(1 + c), part);
  }

  std::vector<Client> clients(static_cast<std::size_t>(cfg.clients));
  Server server;
  server.init(world, clients, client_partition);
  for (int c = 0; c < cfg.clients; ++c) {
    auto& cl = clients[static_cast<std::size_t>(c)];
    cl.init(world, static_cast<std::uint32_t>(c),
            client_partition[static_cast<std::size_t>(c)]);
    cl.set_server(&server, 0);
    map.add_link(0, static_cast<net::NodeId>(1 + c),
                 server.downlink_propagation(static_cast<std::uint32_t>(c)));
    map.add_link(static_cast<net::NodeId>(1 + c), 0, cl.uplink_propagation());
  }

  Time lookahead = Time::max();
  if (world.parallel) {
    lookahead = map.cross_lookahead();
    for (auto& s : world.sims) world.exec.add_partition(*s);
    world.exec.set_lookahead(lookahead);
  }

  server.start();
  for (auto& cl : clients) cl.start();

  if (world.parallel) {
    world.exec.run_until(cfg.run_for, threads);
  } else {
    world.sims[0]->run_until(cfg.run_for);
  }

  // --- flush: canonical log, counters, fingerprint, merged telemetry --------
  StarWorldResult r;
  r.lookahead = lookahead;
  if (world.parallel) {
    r.windows = world.exec.stats().windows;
    r.messages = world.exec.stats().messages;
  }
  r.frames_sent = server.frames_sent_;
  r.packets_sent = server.packets_sent_;
  r.packets_dropped = server.egress_.dropped;
  r.reports = server.reports_received_;
  r.degrades = server.degrades_;
  r.upgrades = server.upgrades_;
  for (const auto& s : world.sims) r.events_executed += s->executed();

  std::vector<LogEntry> log = std::move(server.log_);
  for (auto& cl : clients) {
    r.packets_received += cl.received_;
    r.packets_lost += cl.lost_;
    r.packets_late += cl.late_;
    r.bytes_received += cl.bytes_;
    log.insert(log.end(), cl.log_.begin(), cl.log_.end());
  }
  // The canonical order is a pure function of simulation outcomes — which
  // vector an entry sat in (a thread-schedule artifact in spirit) never
  // shows through.
  std::sort(log.begin(), log.end(), [](const LogEntry& a, const LogEntry& b) {
    return std::tie(a.t_us, a.actor, a.kind, a.seq) <
           std::tie(b.t_us, b.actor, b.kind, b.seq);
  });

  std::string csv = "t_us,actor,event,a,b\n";
  for (const LogEntry& e : log) {
    csv += std::to_string(e.t_us);
    csv += ',';
    csv += std::to_string(e.actor);
    csv += ',';
    csv += log_kind_name(e.kind);
    csv += ',';
    csv += std::to_string(e.a);
    csv += ',';
    csv += std::to_string(e.b);
    csv += '\n';
  }
  for (const auto& cl : clients) {
    csv += "S,";
    csv += std::to_string(cl.id_);
    csv += ',';
    csv += std::to_string(cl.received_);
    csv += ',';
    csv += std::to_string(cl.lost_);
    csv += ',';
    csv += std::to_string(cl.late_);
    csv += ',';
    csv += std::to_string(cl.bytes_);
    csv += ',';
    csv += std::to_string(cl.reports_sent_);
    csv += ',';
    csv += std::to_string(server.level_[cl.id_]);
    csv += '\n';
  }
  r.events_csv = std::move(csv);

  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const auto& cl : clients) {
    h = fnv1a_mix(h, static_cast<std::uint64_t>(cl.received_));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(cl.lost_));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(cl.late_));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(cl.bytes_));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(cl.reports_sent_));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(cl.last_arrival_.us()));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(server.level_[cl.id_]));
  }
  h = fnv1a_mix(h, static_cast<std::uint64_t>(server.frames_sent_));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(server.packets_sent_));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(server.egress_.dropped));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(server.reports_received_));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(server.degrades_));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(server.upgrades_));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(server.egress_.busy_until.us()));
  h = fnv1a_bytes(h, r.events_csv);
  r.fingerprint = h;

  if (cfg.telemetry) {
    // Per-partition event-loop stats go in under partition-scoped gauge
    // names (a merged gauge is last-writer-wins, so shared names would lose
    // all but one partition), then everything folds into one root hub.
    for (std::size_t p = 0; p < num_parts; ++p) {
      auto& m = world.hubs[p]->metrics();
      const std::string prefix = "world/partition/" + std::to_string(p);
      m.set(m.gauge(prefix + "/events"),
            static_cast<double>(world.sims[p]->executed()));
      m.set(m.gauge(prefix + "/queued"),
            static_cast<double>(world.sims[p]->queued()));
    }
    // QoE: each client's record is split field-disjointly between its own
    // partition (delivery-side metrics) and the server's partition (quality
    // grading), then folded by the commutative merge below.
    server.flush_qoe(*world.hubs[0]);
    for (const auto& cl : clients) {
      auto& qoe = world.hubs[client_partition[cl.id_]]->qoe();
      auto& rec =
          qoe.session(cl.id_ + 1, "world/client/" + std::to_string(cl.id_));
      if (cl.received_ > 0) {
        rec.startup_ms = std::max(rec.startup_ms, cl.first_arrival_.to_ms());
        rec.play_ms += (cl.last_arrival_ - cl.first_arrival_).to_ms();
      }
      rec.fresh_slots += cl.received_;
      rec.total_slots += cl.received_ + cl.lost_;
      rec.outcome = std::max(rec.outcome,
                             server.level_[cl.id_] == 0
                                 ? telemetry::QoeOutcome::kCompleted
                                 : telemetry::QoeOutcome::kDegraded);
    }
    telemetry::Hub root;
    for (const auto& hub : world.hubs) root.merge_from(*hub);
    root.tracer().stable_sort_by_time();
    r.metrics_csv = root.metrics().to_csv();
    r.trace_csv = root.tracer().to_csv();
    r.trace_json = root.tracer().to_chrome_json();
    r.qoe_json = root.qoe().to_json();
  }
  return r;
}

}  // namespace hyms::bench
