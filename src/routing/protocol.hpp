// Routing-protocol framework: the per-node environment handed to every
// protocol instance and the abstract interface the traffic layer talks to.
#pragma once

#include <cstdint>
#include <functional>

#include "mac/channel.hpp"
#include "mac/mac.hpp"
#include "power/power_manager.hpp"
#include "util/rng.hpp"

namespace eend::routing {

/// Everything one node's routing instance may touch. Raw pointers are
/// non-owning wiring set up by net::Network, which outlives the protocols.
struct NodeEnv {
  mac::NodeId id = 0;
  sim::Simulator* sim = nullptr;
  mac::Channel* channel = nullptr;
  mac::Mac* mac = nullptr;
  mac::NodeRadio* radio = nullptr;
  power::PowerManager* power = nullptr;
  Rng rng{0};

  /// Transmit-power control for data frames (the "-PC" stacks). Control
  /// frames always go at maximum power (paper Eq. 2).
  bool tpc_data = false;

  /// ri/B hint for JointH's rate variant; <= 0 means unavailable (norate).
  double rate_over_b = 0.0;

  /// Oracle for a neighbor's power-management state — the information the
  /// paper's protocols obtain from beacons/ATIM traffic (TITAN, DSDVH, h).
  std::function<bool(mac::NodeId)> neighbor_is_am;

  /// Upcall when a data packet reaches its final destination.
  std::function<void(const mac::Packet&)> deliver_app;

  /// Optional: invoked at the origin whenever a data packet leaves with a
  /// full source route (used by the grid study to freeze routes).
  std::function<void(int flow_id, const std::vector<mac::NodeId>&)>
      record_route;

  double distance_to(mac::NodeId other) const {
    return phy::distance(radio->position(),
                         channel->radio(other).position());
  }

  /// Power for a data frame to `next_hop` under the node's TPC setting.
  double data_tx_power(mac::NodeId next_hop) const {
    const auto& card = radio->card();
    if (!tpc_data) return card.max_transmit_power();
    return channel->propagation().required_power(distance_to(next_hop));
  }

  double max_tx_power() const { return radio->card().max_transmit_power(); }
};

/// Counters every protocol maintains; the metrics layer aggregates them.
struct RoutingStats {
  std::uint64_t rreq_sent = 0;
  std::uint64_t rreq_forwarded = 0;
  std::uint64_t rreq_suppressed = 0;  ///< flooded duplicates rejected
  std::uint64_t rrep_sent = 0;
  std::uint64_t rerr_sent = 0;
  std::uint64_t updates_sent = 0;
  std::uint64_t discoveries = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t drops_no_route = 0;
  std::uint64_t drops_buffer = 0;
  std::uint64_t drops_mac = 0;
  std::uint64_t drops_ttl = 0;
  std::uint64_t drops_stale_route = 0;  ///< source route not through us
};

class RoutingProtocol {
 public:
  explicit RoutingProtocol(NodeEnv env) : env_(std::move(env)) {}
  virtual ~RoutingProtocol() = default;
  RoutingProtocol(const RoutingProtocol&) = delete;
  RoutingProtocol& operator=(const RoutingProtocol&) = delete;

  /// Called once when the simulation starts.
  virtual void start() = 0;

  /// Origin-side entry point: packet.origin == this node.
  virtual void send_data(mac::Packet packet) = 0;

  const RoutingStats& stats() const { return stats_; }
  mac::NodeId id() const { return env_.id; }

  /// True if this node forwarded or originated at least one data packet
  /// (used to count "relays"/active nodes in the evaluation).
  bool carried_data() const {
    return stats_.data_forwarded > 0 || stats_.data_delivered > 0;
  }

 protected:
  NodeEnv env_;
  RoutingStats stats_;
};

}  // namespace eend::routing
