// Unit tests: the reactive protocol family — discovery, source routing,
// caching, route errors, metric behavior, TITAN participation.
#include <gtest/gtest.h>

#include <memory>

#include "routing/reactive.hpp"

namespace eend::routing {
namespace {

/// Hand-wired multi-node rig with explicit positions, always-active power
/// and no PSM: isolates routing behavior from sleep scheduling.
struct Rig {
  sim::Simulator sim;
  phy::Propagation prop{energy::cabletron(), {}};
  mac::Channel ch{sim, prop};
  std::vector<std::unique_ptr<mac::NodeRadio>> radios;
  std::vector<std::unique_ptr<mac::Mac>> macs;
  std::vector<std::unique_ptr<power::AlwaysActive>> power;
  std::vector<std::unique_ptr<ReactiveRouting>> routing;
  std::vector<mac::Packet> delivered;
  ReactiveConfig cfg;
  bool tpc = false;

  void add(double x, double y) {
    auto r = std::make_unique<mac::NodeRadio>(
        static_cast<mac::NodeId>(radios.size()), phy::Position{x, y},
        energy::cabletron(), sim);
    ch.register_radio(r.get());
    radios.push_back(std::move(r));
  }

  void wire() {
    ch.freeze_topology();
    for (std::size_t i = 0; i < radios.size(); ++i) {
      radios[i]->begin_metering(energy::RadioMode::Idle);
      macs.push_back(std::make_unique<mac::Mac>(
          sim, ch, *radios[i], nullptr, Rng(300 + i), mac::MacConfig{}));
      power.push_back(std::make_unique<power::AlwaysActive>());
    }
    for (std::size_t i = 0; i < radios.size(); ++i) {
      NodeEnv env;
      env.id = static_cast<mac::NodeId>(i);
      env.sim = &sim;
      env.channel = &ch;
      env.mac = macs[i].get();
      env.radio = radios[i].get();
      env.power = power[i].get();
      env.rng = Rng(400 + i);
      env.tpc_data = tpc;
      env.neighbor_is_am = [](mac::NodeId) { return true; };
      env.deliver_app = [this](const mac::Packet& p) {
        delivered.push_back(p);
      };
      routing.push_back(std::make_unique<ReactiveRouting>(std::move(env), cfg));
    }
    for (auto& r : routing) r->start();
  }

  void send(mac::NodeId from, mac::NodeId to, int flow = 0) {
    mac::Packet p;
    p.uid = delivered.size() + 1000;
    p.flow_id = flow;
    p.origin = from;
    p.final_dest = to;
    p.size_bits = 1024;
    p.created_at = sim.now();
    routing[from]->send_data(std::move(p));
  }
};

TEST(ReactiveRouting, DiscoversMultiHopRoute) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.add(400, 0);  // 0 cannot reach 2 directly (range 250)
  r.wire();
  r.send(0, 2);
  r.sim.run_until(5.0);
  ASSERT_EQ(r.delivered.size(), 1u);
  EXPECT_EQ(r.delivered[0].final_dest, 2u);
  EXPECT_EQ(r.routing[0]->cached_route(2),
            (std::vector<mac::NodeId>{0, 1, 2}));
}

TEST(ReactiveRouting, SecondPacketUsesCacheWithoutNewDiscovery) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.add(400, 0);
  r.wire();
  r.send(0, 2);
  r.sim.run_until(5.0);
  const auto discoveries = r.routing[0]->stats().discoveries;
  r.send(0, 2);
  r.sim.run_until(10.0);
  EXPECT_EQ(r.delivered.size(), 2u);
  EXPECT_EQ(r.routing[0]->stats().discoveries, discoveries);
}

TEST(ReactiveRouting, BufferedPacketsFlushAfterDiscovery) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.add(400, 0);
  r.wire();
  for (int i = 0; i < 5; ++i) r.send(0, 2);
  r.sim.run_until(5.0);
  EXPECT_EQ(r.delivered.size(), 5u);
}

TEST(ReactiveRouting, HopMetricPrefersFewerHops) {
  Rig r;
  // Direct 240 m link vs 2-hop detour.
  r.add(0, 0);
  r.add(240, 0);   // destination, directly reachable
  r.add(120, 50);  // potential relay
  r.wire();
  r.send(0, 1);
  r.sim.run_until(5.0);
  EXPECT_EQ(r.routing[0]->cached_route(1),
            (std::vector<mac::NodeId>{0, 1}));
}

TEST(ReactiveRouting, MtprMetricPrefersShortHops) {
  Rig r;
  r.cfg.metric = LinkMetric::Mtpr;
  r.add(0, 0);
  r.add(240, 0);   // destination: direct = Pt(240)
  r.add(120, 0);   // midpoint relay: 2 x Pt(120) << Pt(240) for d^4 loss
  r.wire();
  r.send(0, 1);
  r.sim.run_until(5.0);
  EXPECT_EQ(r.routing[0]->cached_route(1),
            (std::vector<mac::NodeId>{0, 2, 1}));
}

TEST(ReactiveRouting, MtprPlusChargesFixedCostsPerHop) {
  // With Pbase + Prx in the metric, an extra short hop no longer pays off
  // for Cabletron (fixed costs dominate Pt).
  Rig r;
  r.cfg.metric = LinkMetric::MtprPlus;
  r.add(0, 0);
  r.add(240, 0);
  r.add(120, 0);
  r.wire();
  r.send(0, 1);
  r.sim.run_until(5.0);
  EXPECT_EQ(r.routing[0]->cached_route(1),
            (std::vector<mac::NodeId>{0, 1}));
}

TEST(ReactiveRouting, UnreachableDestinationDropsBuffered) {
  Rig r;
  r.cfg.discovery_timeout_s = 0.2;
  r.cfg.max_discovery_tries = 2;
  r.add(0, 0);
  r.add(5000, 0);  // unreachable island
  r.wire();
  r.send(0, 1);
  r.sim.run_until(10.0);
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_EQ(r.routing[0]->stats().drops_no_route, 1u);
}

TEST(ReactiveRouting, RouteErrorOnDeadRelayTriggersRediscovery) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);    // relay A
  r.add(400, 0);    // destination
  r.add(210, 120);  // alternate relay B (in range of both ends)
  r.wire();
  r.send(0, 2);
  r.sim.run_until(5.0);
  ASSERT_EQ(r.delivered.size(), 1u);

  // Kill whichever relay the route used; traffic must recover via the other.
  const auto route = r.routing[0]->cached_route(2);
  ASSERT_EQ(route.size(), 3u);
  r.radios[route[1]]->fail_permanently();
  r.sim.schedule_at(6.0, [&] { r.send(0, 2); });
  r.sim.schedule_at(12.0, [&] { r.send(0, 2); });
  r.sim.run_until(30.0);
  // The first post-failure packet may be lost (carried the stale route);
  // recovery must deliver at least one more.
  EXPECT_GE(r.delivered.size(), 2u);
  const auto newroute = r.routing[0]->cached_route(2);
  ASSERT_EQ(newroute.size(), 3u);
  EXPECT_NE(newroute[1], route[1]);
}

TEST(ReactiveRouting, TpcUsesLowerPowerOnShortHops) {
  Rig with, without;
  for (Rig* r : {&with, &without}) {
    r->tpc = r == &with;
    r->add(0, 0);
    r->add(100, 0);
    r->wire();
    r->send(0, 1);
    r->sim.run_until(2.0);
    ASSERT_EQ(r->delivered.size(), 1u);
    for (auto& rad : r->radios) rad->finish_metering();
  }
  EXPECT_LT(with.radios[0]->meter().data_energy(),
            without.radios[0]->meter().data_energy());
}

TEST(ReactiveRouting, ControlPacketsAlwaysAtMaxPower) {
  // Even with TPC, RREQs are broadcast at max power: a far neighbor (240 m)
  // must receive the flood from a source whose data hop is short.
  Rig r;
  r.tpc = true;
  r.add(0, 0);
  r.add(50, 0);
  r.add(240, 0);
  r.wire();
  r.send(0, 1);
  r.sim.run_until(2.0);
  // Node 2 heard the RREQ (it recorded it as seen and would answer
  // discovery for itself); verify via its routing stats: it received the
  // broadcast and did not forward (target replied first, cost rule).
  EXPECT_EQ(r.delivered.size(), 1u);
  EXPECT_GE(r.radios[2]->frames_received(), 1u);
}

TEST(ReactiveRouting, JointHMetricAddsIdlePenaltyForPsmRelays) {
  const auto card = energy::cabletron();
  const double am = link_cost(LinkMetric::JointH, card, 100.0, true, 1.0);
  const double ps = link_cost(LinkMetric::JointH, card, 100.0, false, 1.0);
  EXPECT_NEAR(ps - am, card.p_idle, 1e-12);
}

TEST(ReactiveRouting, JointHRateScalesCommunicationTerm) {
  const auto card = energy::cabletron();
  const double full = link_cost(LinkMetric::JointH, card, 100.0, true, 1.0);
  const double tenth = link_cost(LinkMetric::JointH, card, 100.0, true, 0.1);
  EXPECT_NEAR(full, 10.0 * tenth, 1e-9);
}

/// Two-layer mesh around origin 0: relays 1-3 hear the origin and each
/// other, nodes 4 and 5 hear every first-layer relay and each other but not
/// the origin. Every node beyond the origin hears the flood from several
/// neighbours.
void add_two_layer_mesh(Rig& r) {
  r.add(0, 0);
  r.add(150, 100);
  r.add(150, 0);
  r.add(150, -100);
  r.add(300, 60);
  r.add(300, -60);
}

TEST(ReactiveRouting, HopFloodRelaysForwardOnceAndTargetRepliesOnce) {
  Rig r;
  add_two_layer_mesh(r);
  r.wire();
  r.send(0, 4);
  r.sim.run_until(2.0);
  ASSERT_EQ(r.delivered.size(), 1u);
  for (mac::NodeId relay : {1u, 2u, 3u, 5u})
    EXPECT_EQ(r.routing[relay]->stats().rreq_forwarded, 1u) << relay;
  EXPECT_EQ(r.routing[4]->stats().rreq_forwarded, 0u);
  EXPECT_EQ(r.routing[4]->stats().rrep_sent, 1u);
  EXPECT_EQ(r.routing[0]->stats().rreq_sent, 1u);
}

TEST(ReactiveRouting, HopFloodSuppressesEveryNonImprovingCopy) {
  // The target is an island, so the flood is the only traffic: each radio's
  // decoded frames are exactly its RREQ receptions.
  Rig r;
  add_two_layer_mesh(r);
  r.add(5000, 0);
  r.wire();
  r.send(0, 6);
  r.sim.run_until(2.0);  // before the first discovery retry
  std::uint64_t suppressed = 0;
  for (mac::NodeId relay = 1; relay <= 5; ++relay) {
    const RoutingStats& s = r.routing[relay]->stats();
    EXPECT_EQ(s.rreq_forwarded, 1u) << relay;
    EXPECT_EQ(s.rreq_suppressed,
              r.radios[relay]->frames_received() - s.rreq_forwarded)
        << relay;
    suppressed += s.rreq_suppressed;
  }
  EXPECT_GT(suppressed, 0u);
  // The origin's own flood coming back is not a duplicate.
  EXPECT_GT(r.radios[0]->frames_received(), 0u);
  EXPECT_EQ(r.routing[0]->stats().rreq_suppressed, 0u);
}

TEST(ReactiveRouting, MtprCheaperLateCopyIsForwardedAgain) {
  // Relay 2 first hears the origin's flood over the long 0-2 link, then a
  // copy through relay 1 at 2 Pt(120) = Pt(240) / 8 < 0.9 x best: it must
  // forward that copy too, and the target answers both.
  Rig r;
  r.cfg.metric = LinkMetric::Mtpr;
  r.add(0, 0);
  r.add(120, 0);
  r.add(240, 0);
  r.add(480, 0);
  r.wire();
  r.send(0, 3);
  r.sim.run_until(2.0);
  ASSERT_EQ(r.delivered.size(), 1u);
  EXPECT_EQ(r.routing[1]->stats().rreq_forwarded, 1u);
  EXPECT_EQ(r.routing[2]->stats().rreq_forwarded, 2u);
  EXPECT_EQ(r.routing[2]->stats().rreq_suppressed, 0u);
  EXPECT_EQ(r.routing[3]->stats().rrep_sent, 2u);
  EXPECT_EQ(r.routing[0]->cached_route(3),
            (std::vector<mac::NodeId>{0, 1, 2, 3}));
}

TEST(ReactiveRouting, StaleSourceRouteIsCountedAsDrop) {
  // Node 1 receives a data frame whose source route names node 2 at the
  // frame's position: it drops the frame and counts it.
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.add(400, 0);
  r.wire();
  mac::Packet p;
  p.uid = 1;
  p.flow_id = 0;
  p.origin = 0;
  p.final_dest = 1;
  p.size_bits = 1024;
  p.type = kData;
  p.payload = mac::Packet::wrap(r.sim.pool(), DataBody{{0, 2, 1}, 1});
  r.macs[0]->send_unicast(std::move(p), 1,
                          r.radios[0]->card().max_transmit_power());
  r.sim.run_until(1.0);
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_EQ(r.routing[1]->stats().drops_stale_route, 1u);
  EXPECT_EQ(r.routing[1]->stats().data_forwarded, 0u);
}

TEST(ReactiveRouting, StatsCountDiscoveryTraffic) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.add(400, 0);
  r.wire();
  r.send(0, 2);
  r.sim.run_until(5.0);
  EXPECT_GE(r.routing[0]->stats().rreq_sent, 1u);
  EXPECT_GE(r.routing[1]->stats().rreq_forwarded, 1u);
  EXPECT_GE(r.routing[2]->stats().rrep_sent, 1u);
  EXPECT_EQ(r.routing[1]->stats().data_forwarded, 1u);
  EXPECT_EQ(r.routing[2]->stats().data_delivered, 1u);
  EXPECT_TRUE(r.routing[1]->carried_data());
  EXPECT_TRUE(r.routing[2]->carried_data());  // destination counts too
}

}  // namespace
}  // namespace eend::routing
