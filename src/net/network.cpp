#include "net/network.hpp"

#include "obs/counters.hpp"
#include "routing/dsdv.hpp"
#include "routing/reactive.hpp"

namespace eend::net {

namespace {

bool uses_psm(PowerKind k) {
  return k == PowerKind::Odpm || k == PowerKind::AlwaysPsm;
}

}  // namespace

Network::Network(const ScenarioConfig& scenario, const StackSpec& stack)
    : scenario_(scenario), stack_(stack), rng_(scenario.seed) {
  scenario_.validate();
  channel_ = std::make_unique<mac::Channel>(
      sim_, phy::Propagation(scenario_.card, scenario_.prop));
  channel_->set_field_extent(scenario_.field_w, scenario_.field_h);
  if (uses_psm(stack_.power)) {
    psm_ = std::make_unique<mac::PsmScheduler>(sim_, stack_.psm);
    psm_->set_announce_range(channel_->propagation().cs_range(
        scenario_.card.max_transmit_power()));
  }

  build_nodes(place_nodes(scenario_));
  // Powered-off nodes (replayed designs' inactive sets) go dark before
  // anything runs: a failed radio never transmits, locks receptions, or
  // wakes, so the node is absent from the network in every respect except
  // its position.
  for (const std::size_t id : scenario_.powered_off_nodes)
    radios_[id]->fail_permanently();
  build_routing();
  build_traffic();
}

Network::~Network() = default;

void Network::build_nodes(const std::vector<phy::Position>& positions) {
  const std::size_t n = positions.size();
  radios_.reserve(n);
  macs_.reserve(n);
  power_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<mac::NodeId>(i);
    radios_.push_back(std::make_unique<mac::NodeRadio>(
        id, positions[i], scenario_.card, sim_));
    channel_->register_radio(radios_.back().get());
    if (psm_) psm_->register_radio(radios_.back().get());
  }
  channel_->freeze_topology();

  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<mac::NodeId>(i);
    macs_.push_back(std::make_unique<mac::Mac>(
        sim_, *channel_, *radios_[i], psm_.get(), rng_.fork(0xAC00 + i),
        scenario_.mac));

    switch (stack_.power) {
      case PowerKind::AlwaysActive:
        power_.push_back(std::make_unique<power::AlwaysActive>());
        break;
      case PowerKind::AlwaysPsm:
        power_.push_back(std::make_unique<power::AlwaysPsm>(*psm_, id));
        break;
      case PowerKind::Odpm:
        power_.push_back(
            std::make_unique<power::Odpm>(sim_, *psm_, id, stack_.odpm));
        break;
      case PowerKind::PerfectSleep:
        power_.push_back(std::make_unique<power::PerfectSleep>(*radios_[i]));
        break;
    }
  }
}

void Network::build_routing() {
  const double rate_over_b =
      stack_.rate_info
          ? scenario_.rate_pps * scenario_.payload_bits /
                scenario_.card.bandwidth_bps
          : 0.0;

  routing_.reserve(radios_.size());
  for (std::size_t i = 0; i < radios_.size(); ++i) {
    routing::NodeEnv env;
    env.id = static_cast<mac::NodeId>(i);
    env.sim = &sim_;
    env.channel = channel_.get();
    env.mac = macs_[i].get();
    env.radio = radios_[i].get();
    env.power = power_[i].get();
    env.rng = rng_.fork(0xE000 + i);
    env.tpc_data = stack_.tpc;
    env.rate_over_b = rate_over_b;
    env.neighbor_is_am = [this](mac::NodeId n) {
      return power_[n]->is_active_mode();
    };
    env.deliver_app = [this](const mac::Packet& p) {
      tracker_.on_delivered(p, sim_.now());
    };
    env.record_route = [this](int flow, const std::vector<mac::NodeId>& r) {
      flow_routes_[flow] = r;
    };

    switch (stack_.routing) {
      case RoutingKind::Dsr:
      case RoutingKind::Mtpr:
      case RoutingKind::MtprPlus:
      case RoutingKind::Dsrh:
      case RoutingKind::Titan: {
        routing::ReactiveConfig rc;
        rc.metric = stack_.metric();
        rc.titan = stack_.routing == RoutingKind::Titan;
        rc.titan_alpha = stack_.titan_alpha;
        routing_.push_back(std::make_unique<routing::ReactiveRouting>(
            std::move(env), rc));
        break;
      }
      case RoutingKind::Dsdv:
      case RoutingKind::Dsdvh: {
        routing::DsdvConfig dc;
        dc.metric = stack_.metric();
        dc.advertise_pm_changes = stack_.routing == RoutingKind::Dsdvh;
        dc.quality_update_interval_s = stack_.dsdv_quality_interval_s;
        dc.quality_noise = stack_.dsdv_quality_noise;
        auto dsdv =
            std::make_unique<routing::DsdvRouting>(std::move(env), dc);
        // DSDVH: power-state changes trigger route updates.
        if (dc.advertise_pm_changes) {
          if (auto* odpm = dynamic_cast<power::Odpm*>(power_[i].get())) {
            routing::DsdvRouting* r = dsdv.get();
            odpm->set_mode_change_hook(
                [r](power::PmMode) { r->on_pm_mode_change(); });
          }
        }
        routing_.push_back(std::move(dsdv));
        break;
      }
    }
  }
}

void Network::build_traffic() {
  flows_ = make_flows(scenario_);
  for (const traffic::FlowSpec& f : flows_) {
    tracker_.register_flow(f);
    sources_.push_back(std::make_unique<traffic::CbrSource>(
        sim_, *routing_[f.source], f,
        [this](const traffic::FlowSpec& spec) { tracker_.on_sent(spec); }));
  }
}

void Network::battery_tick() {
  const double cap = scenario_.battery_capacity_j;
  for (auto& r : radios_) {
    if (r->failed()) continue;
    if (r->meter().peek_total(sim_.now()) >= cap) {
      r->fail_permanently();
      ++depleted_nodes_;
      if (first_death_s_ < 0.0) first_death_s_ = sim_.now();
    }
  }
  sim_.schedule_in(scenario_.battery_check_interval_s,
                   [this] { battery_tick(); });
}

void Network::schedule_node_failure(mac::NodeId id, sim::Time at) {
  EEND_REQUIRE(id < radios_.size());
  EEND_REQUIRE_MSG(!ran_, "failures must be scheduled before run()");
  sim_.schedule_at(at, [this, id] { radios_[id]->fail_permanently(); });
}

metrics::RunResult Network::run() {
  EEND_REQUIRE_MSG(!ran_, "Network::run() may only be called once");
  ran_ = true;

  // Powered-off nodes are excluded from metering entirely: a powered-off
  // interface draws nothing, unlike a sleeping one (p_sleep > 0), so their
  // meters must read zero rather than integrate sleep draw. Mid-run
  // failures (battery, schedule_node_failure) still meter normally.
  std::vector<char> powered_off(radios_.size(), 0);
  for (const std::size_t id : scenario_.powered_off_nodes)
    powered_off[id] = 1;
  for (auto& r : radios_)
    if (!powered_off[r->id()]) r->begin_metering(energy::RadioMode::Idle);
  for (auto& p : power_) p->start();
  if (psm_) psm_->start();
  for (auto& r : routing_) r->start();
  for (auto& s : sources_) s->start();
  if (scenario_.battery_capacity_j > 0.0)
    sim_.schedule_in(scenario_.battery_check_interval_s,
                     [this] { battery_tick(); });

  sim_.run_until(scenario_.duration_s);
  for (auto& r : radios_)
    if (!powered_off[r->id()]) r->finish_metering();

  metrics::RunResult out;
  out.sent = tracker_.sent();
  out.delivered = tracker_.delivered();
  out.delivery_ratio = tracker_.delivery_ratio();
  out.average_delay_s = tracker_.average_delay_s();

  for (const auto& r : radios_) {
    const auto& m = r->meter();
    out.total_energy_j += m.total();
    out.data_energy_j += m.data_energy();
    out.control_energy_j += m.control_energy();
    out.passive_energy_j += m.passive_energy();
    out.transmit_energy_j += m.transmit_energy();
    out.receive_energy_j += m.receive_energy();
    out.idle_energy_j += m.idle_energy();
    out.sleep_energy_j += m.sleep_energy();
    out.switch_energy_j += m.switch_energy();
    out.mac_collisions += r->rx_collisions();
  }
  out.goodput_bit_per_j =
      out.total_energy_j > 0.0
          ? static_cast<double>(tracker_.delivered_bits()) /
                out.total_energy_j
          : 0.0;

  routing::RoutingStats rs;
  for (const auto& r : routing_) {
    if (r->carried_data()) ++out.nodes_carrying_data;
    const routing::RoutingStats& s = r->stats();
    out.rreq_transmissions += s.rreq_sent + s.rreq_forwarded;
    out.update_transmissions += s.updates_sent;
    rs.rreq_suppressed += s.rreq_suppressed;
    rs.drops_no_route += s.drops_no_route;
    rs.drops_buffer += s.drops_buffer;
    rs.drops_mac += s.drops_mac;
    rs.drops_ttl += s.drops_ttl;
    rs.drops_stale_route += s.drops_stale_route;
  }
  for (const auto& m : macs_) {
    const mac::MacStats& ms = m->stats();
    out.mac_queue_drops += ms.queue_drops;
    out.mac_cs_drops += ms.cs_drops;
    out.mac_defers_exhausted += ms.defers_exhausted;
    out.mac_stale_bcast_drops += ms.stale_bcast_drops;
    out.mac_unicast_failures += ms.unicast_failures;
  }
  out.channel_transmissions = channel_->transmissions();
  out.flow_routes = flow_routes_;
  out.first_death_s = first_death_s_;
  out.depleted_nodes = depleted_nodes_;

  if (obs::CounterRegistry* reg = obs::current()) {
    reg->add("mac.queue_drops", out.mac_queue_drops);
    reg->add("mac.cs_drops", out.mac_cs_drops);
    reg->add("mac.defers_exhausted", out.mac_defers_exhausted);
    reg->add("mac.stale_bcast_drops", out.mac_stale_bcast_drops);
    reg->add("mac.unicast_failures", out.mac_unicast_failures);
    reg->add("mac.collisions", out.mac_collisions);
    reg->add("net.channel_transmissions", out.channel_transmissions);
    reg->add("routing.rreq_suppressed", rs.rreq_suppressed);
    reg->add("routing.drops.no_route", rs.drops_no_route);
    reg->add("routing.drops.buffer", rs.drops_buffer);
    reg->add("routing.drops.mac", rs.drops_mac);
    reg->add("routing.drops.ttl", rs.drops_ttl);
    reg->add("routing.drops.stale_route", rs.drops_stale_route);
    reg->add("energy.depleted_nodes", out.depleted_nodes);
    sim_.publish_counters(*reg);
  }
  return out;
}

}  // namespace eend::net
