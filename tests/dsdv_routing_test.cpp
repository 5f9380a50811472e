// Unit tests: DSDV / DSDVH proactive routing — convergence, sequence-number
// rules, link breaks, TTL protection, triggered updates, PM-change adverts,
// the dense table's id bounds and the per-sender link-cost cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>

#include "routing/dsdv.hpp"

namespace eend::routing {
namespace {

/// Power manager whose AM/PSM state a test flips by hand.
struct SwitchablePower final : power::PowerManager {
  bool am = true;
  void start() override {}
  power::PmMode mode() const override {
    return am ? power::PmMode::ActiveMode : power::PmMode::PowerSave;
  }
};

/// One DSDV update frame as a passive listener received it.
struct Heard {
  double at;
  mac::NodeId from;
  std::vector<DsdvEntry> entries;
};

struct Rig {
  sim::Simulator sim;
  phy::Propagation prop{energy::cabletron(), {}};
  mac::Channel ch{sim, prop};
  std::vector<std::unique_ptr<mac::NodeRadio>> radios;
  std::vector<std::unique_ptr<mac::Mac>> macs;
  std::vector<std::unique_ptr<SwitchablePower>> power;
  std::vector<std::unique_ptr<DsdvRouting>> routing;
  std::vector<mac::Packet> delivered;
  std::vector<Heard> heard;
  DsdvConfig cfg;

  void add(double x, double y) {
    auto r = std::make_unique<mac::NodeRadio>(
        static_cast<mac::NodeId>(radios.size()), phy::Position{x, y},
        energy::cabletron(), sim);
    ch.register_radio(r.get());
    radios.push_back(std::move(r));
  }

  /// Nodes at index >= `routed` get a MAC but no routing instance.
  void wire(std::size_t routed = std::numeric_limits<std::size_t>::max()) {
    ch.freeze_topology();
    for (std::size_t i = 0; i < radios.size(); ++i) {
      radios[i]->begin_metering(energy::RadioMode::Idle);
      macs.push_back(std::make_unique<mac::Mac>(
          sim, ch, *radios[i], nullptr, Rng(500 + i), mac::MacConfig{}));
      power.push_back(std::make_unique<SwitchablePower>());
    }
    for (std::size_t i = 0; i < std::min(routed, radios.size()); ++i) {
      NodeEnv env;
      env.id = static_cast<mac::NodeId>(i);
      env.sim = &sim;
      env.channel = &ch;
      env.mac = macs[i].get();
      env.radio = radios[i].get();
      env.power = power[i].get();
      env.rng = Rng(600 + i);
      env.neighbor_is_am = [](mac::NodeId) { return true; };
      env.deliver_app = [this](const mac::Packet& p) {
        delivered.push_back(p);
      };
      routing.push_back(std::make_unique<DsdvRouting>(std::move(env), cfg));
    }
    for (auto& r : routing) r->start();
  }

  /// Record every DSDV update the (routing-less) node `listener` hears.
  void sniff(mac::NodeId listener) {
    macs[listener]->set_receive_handler(
        [this](const mac::Packet& p, mac::NodeId from) {
          if (p.type != kDsdvUpdate) return;
          heard.push_back(Heard{sim.now(), from, p.body<DsdvBody>().entries});
        });
  }

  void send(mac::NodeId from, mac::NodeId to) {
    mac::Packet p;
    p.origin = from;
    p.final_dest = to;
    p.size_bits = 1024;
    p.created_at = sim.now();
    routing[from]->send_data(std::move(p));
  }
};

TEST(DsdvRouting, ChainConverges) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.add(400, 0);
  r.add(600, 0);
  r.wire();
  r.sim.run_until(15.0);
  // Every node routes to every other.
  EXPECT_EQ(r.routing[0]->next_hop_to(3), 1u);
  EXPECT_EQ(r.routing[3]->next_hop_to(0), 2u);
  EXPECT_EQ(r.routing[1]->next_hop_to(3), 2u);
  EXPECT_EQ(r.routing[0]->table_size(), 4u);
}

TEST(DsdvRouting, DeliversDataAfterConvergence) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.add(400, 0);
  r.wire();
  r.sim.run_until(15.0);
  r.send(0, 2);
  r.sim.run_until(20.0);
  ASSERT_EQ(r.delivered.size(), 1u);
  EXPECT_EQ(r.routing[1]->stats().data_forwarded, 1u);
}

TEST(DsdvRouting, DropsWhenNoRoute) {
  Rig r;
  r.add(0, 0);
  r.add(5000, 0);  // unreachable
  r.wire();
  r.sim.run_until(15.0);
  r.send(0, 1);
  r.sim.run_until(16.0);
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_EQ(r.routing[0]->stats().drops_no_route, 1u);
}

TEST(DsdvRouting, LinkBreakInvalidatesAndReRoutes) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);    // relay on the straight path
  r.add(400, 0);
  r.add(200, 150);  // alternate relay (within 250 m of both ends)
  r.wire();
  r.sim.run_until(15.0);
  r.radios[1]->fail_permanently();
  // First packet hits the dead next hop, gets dropped, triggers the break
  // advertisement; a later packet must go around.
  r.send(0, 2);
  r.sim.run_until(25.0);
  r.send(0, 2);
  r.sim.run_until(40.0);
  EXPECT_GE(r.delivered.size(), 1u);
  EXPECT_EQ(r.routing[0]->next_hop_to(2), 3u);
}

TEST(DsdvRouting, TtlStopsLoopingPackets) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.wire();
  r.sim.run_until(15.0);
  mac::Packet p;
  p.origin = 0;
  p.final_dest = 1;
  p.size_bits = 128;
  p.ttl = 0;  // exhausted on arrival
  r.routing[0]->send_data(std::move(p));
  r.sim.run_until(16.0);
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_EQ(r.routing[0]->stats().drops_ttl, 1u);
}

TEST(DsdvRouting, TriggeredUpdatesAccelerateConvergence) {
  // With triggered updates, convergence happens in a few seconds, well
  // before the second periodic dump (15 s).
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.add(400, 0);
  r.add(600, 0);
  r.add(800, 0);
  r.wire();
  r.sim.run_until(8.0);
  EXPECT_NE(r.routing[0]->next_hop_to(4), mac::kBroadcast);
}

TEST(DsdvRouting, UpdateCountsTracked) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.wire();
  r.sim.run_until(40.0);
  // At least: initial dump + 2 periodic dumps.
  EXPECT_GE(r.routing[0]->stats().updates_sent, 3u);
}

TEST(DsdvRouting, QualityChurnEmitsMoreUpdates) {
  auto updates = [](double interval, double noise) {
    Rig r;
    r.cfg.quality_update_interval_s = interval;
    r.cfg.quality_noise = noise;
    r.add(0, 0);
    r.add(200, 0);
    r.add(400, 0);
    r.wire();
    r.sim.run_until(60.0);
    std::uint64_t total = 0;
    for (auto& rt : r.routing) total += rt->stats().updates_sent;
    return total;
  };
  EXPECT_GT(updates(2.0, 0.3), updates(0.0, 0.0) + 10);
}

TEST(DsdvRouting, JointHMetricRoutesAroundExpensiveRelay) {
  // DSDVH with all-AM oracle behaves like cost-based routing; verify a
  // Cabletron chain still converges and delivers under the h metric.
  Rig r;
  r.cfg.metric = LinkMetric::JointH;
  r.add(0, 0);
  r.add(200, 0);
  r.add(400, 0);
  r.wire();
  r.sim.run_until(15.0);
  r.send(0, 2);
  r.sim.run_until(20.0);
  EXPECT_EQ(r.delivered.size(), 1u);
}

TEST(DsdvRouting, OutOfRangeDestsHaveNoRoute) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.wire();
  r.sim.run_until(15.0);
  ASSERT_EQ(r.routing[0]->next_hop_to(1), 1u);
  const auto beyond = static_cast<mac::NodeId>(r.ch.node_count() + 3);
  EXPECT_EQ(r.routing[0]->next_hop_to(mac::kBroadcast), mac::kBroadcast);
  EXPECT_EQ(r.routing[0]->next_hop_to(beyond), mac::kBroadcast);
  EXPECT_EQ(r.routing[0]->route_cost(beyond),
            std::numeric_limits<double>::infinity());
  r.send(0, beyond);
  r.sim.run_until(16.0);
  EXPECT_EQ(r.routing[0]->stats().drops_no_route, 1u);
}

TEST(DsdvRouting, RepeatedDirtyMarksSendEachDestOnce) {
  // Four mutually-reachable nodes plus a listener (node 4). After the
  // table settles, three PM-change re-advertisements in one instant mark
  // every dest dirty three times; the single triggered update that follows
  // must carry each dest once.
  Rig r;
  r.cfg.advertise_pm_changes = true;
  r.cfg.periodic_interval_s = 1000.0;  // only the startup dump
  r.add(0, 0);
  r.add(100, 0);
  r.add(0, 100);
  r.add(100, 100);
  r.add(50, 50);
  r.wire(4);
  r.sniff(4);
  r.sim.run_until(10.0);
  ASSERT_EQ(r.routing[0]->table_size(), 4u);
  r.heard.clear();
  for (int i = 0; i < 3; ++i) r.routing[0]->on_pm_mode_change();
  r.sim.run_until(12.0);
  ASSERT_EQ(r.heard.size(), 1u);
  const Heard& h = r.heard[0];
  EXPECT_EQ(h.from, 0u);
  ASSERT_EQ(h.entries.size(), 4u);
  std::set<mac::NodeId> dests;
  for (const DsdvEntry& e : h.entries) dests.insert(e.dest);
  EXPECT_EQ(dests, (std::set<mac::NodeId>{0, 1, 2, 3}));
}

TEST(DsdvRouting, TriggeredUpdatesListDestsInAscendingOrder) {
  // Quality ticks mark a shuffled subset of dests dirty; on the wire a
  // triggered update is the sender's own entry followed by its dests in
  // strictly ascending id order, whatever order they were marked in.
  Rig r;
  r.cfg.periodic_interval_s = 1000.0;  // after t = 2 s every update is triggered
  r.cfg.quality_update_interval_s = 1.0;
  r.cfg.quality_noise = 0.0;
  for (int i = 0; i < 6; ++i) r.add(40.0 * i, 60.0 * (i % 2));
  r.add(100, 30);
  r.wire(6);
  r.sniff(6);
  r.sim.run_until(3.0);
  r.heard.clear();
  r.sim.run_until(30.0);
  ASSERT_GE(r.heard.size(), 20u);
  for (const Heard& h : r.heard) {
    ASSERT_GE(h.entries.size(), 2u);
    EXPECT_EQ(h.entries[0].dest, h.from);
    for (std::size_t i = 2; i < h.entries.size(); ++i)
      EXPECT_LT(h.entries[i - 1].dest, h.entries[i].dest)
          << "update from " << h.from << " at t=" << h.at;
  }
}

TEST(DsdvRouting, LinkCostCacheIsKeyedOnSenderPmState) {
  // DSDVH over a 0-1-2 chain: when relay 1 drops to PSM, every route via
  // it costs exactly p_idle more (h's PSM surcharge, paper §4.2). A cache
  // keyed on the sender alone would keep serving the AM cost.
  Rig r;
  r.cfg.metric = LinkMetric::JointH;
  r.cfg.advertise_pm_changes = true;
  r.cfg.quality_noise = 0.0;
  r.add(0, 0);
  r.add(200, 0);
  r.add(400, 0);
  r.wire();
  r.sim.run_until(15.0);
  ASSERT_EQ(r.routing[0]->next_hop_to(2), 1u);
  const double to_relay = r.routing[0]->route_cost(1);
  const double via_relay = r.routing[0]->route_cost(2);
  ASSERT_TRUE(std::isfinite(via_relay));

  r.power[1]->am = false;
  r.routing[1]->on_pm_mode_change();
  r.sim.run_until(20.0);
  const double p_idle = r.radios[0]->card().p_idle;
  ASSERT_GT(p_idle, 0.0);
  EXPECT_EQ(r.routing[0]->next_hop_to(2), 1u);
  EXPECT_NEAR(r.routing[0]->route_cost(1) - to_relay, p_idle, 1e-12);
  EXPECT_NEAR(r.routing[0]->route_cost(2) - via_relay, p_idle, 1e-12);
}

}  // namespace
}  // namespace eend::routing
