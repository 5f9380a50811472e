// DSDV (Destination-Sequenced Distance Vector) and its joint-optimization
// variant DSDVH.
//
// DSDVH follows the paper's §4.2 proactive design: routing tables keep the
// h(u,v,ri) cost of reaching each destination, updates advertise the
// sender's power-management state so receivers can evaluate h, and "a route
// update is only needed when the quality of a link or the power management
// state of a node changes" — we re-advertise on ODPM AM<->PSM transitions
// (plus classic DSDV periodic dumps and triggered incremental updates).
//
// This control chatter is the point: in PSM networks every table broadcast
// keeps neighborhoods awake, which is why the paper finds DSDVH-ODPM's
// energy goodput collapsing to DSR-Active levels.
#pragma once

#include <unordered_set>
#include <vector>

#include "routing/messages.hpp"
#include "routing/metric.hpp"
#include "routing/protocol.hpp"

namespace eend::routing {

struct DsdvConfig {
  LinkMetric metric = LinkMetric::Hop;  ///< JointH for DSDVH
  double periodic_interval_s = 15.0;    ///< full-dump period (ns-2 default)
  double triggered_min_interval_s = 1.0;///< min spacing of triggered updates
  double startup_jitter_s = 2.0;        ///< first-dump desynchronization
  bool advertise_pm_changes = false;    ///< DSDVH: update on AM<->PSM flips

  /// Link-quality churn (DSDVH: "a route update is only needed when the
  /// quality of a link or the power management state of a node changes").
  /// Our distance-only phy has no fading, so the quality process is
  /// synthesized: every ~interval seconds a node re-assesses a few links
  /// and re-advertises affected entries; adopted costs carry multiplicative
  /// noise of amplitude quality_noise. 0 disables both.
  double quality_update_interval_s = 0.0;
  double quality_noise = 0.0;
  std::size_t quality_update_entries = 8;
};

class DsdvRouting final : public RoutingProtocol {
 public:
  DsdvRouting(NodeEnv env, DsdvConfig cfg);

  void start() override;
  void send_data(mac::Packet packet) override;

  /// DSDVH wiring: net::Network calls this when ODPM flips the node's
  /// power-management mode.
  void on_pm_mode_change();

  /// Exposed for tests.
  mac::NodeId next_hop_to(mac::NodeId dest) const;
  double route_cost(mac::NodeId dest) const;  ///< +inf when no route
  std::size_t table_size() const { return known_.size(); }

 private:
  struct Entry {
    std::uint32_t seq = 0;
    double metric = 0.0;
    mac::NodeId next_hop = mac::kBroadcast;
    bool valid = false;
    bool known = false;  ///< dest has ever been adopted into the table
    bool dirty = false;  ///< dest is listed in dirty_
  };

  void on_receive(const mac::Packet& p, mac::NodeId from);
  void handle_update(const mac::Packet& p, mac::NodeId from);
  void handle_data(const mac::Packet& p);
  void forward(mac::Packet packet);
  void handle_link_failure(mac::NodeId next_hop);

  void periodic_dump();
  void schedule_quality_tick();
  void schedule_triggered();
  void send_triggered();
  void broadcast_entries(std::vector<DsdvEntry> entries);
  DsdvEntry own_entry();
  const Entry* valid_route(mac::NodeId dest) const;
  void mark_dirty(mac::NodeId dest);
  void clear_dirty();
  double cached_link_cost(mac::NodeId from, bool sender_is_am);

  DsdvConfig cfg_;
  /// Routing state, indexed by node id (ids are dense below the channel's
  /// node count); sized by start(), where the protocol's state begins.
  std::vector<Entry> table_;
  /// The known dests, inserted in first-adoption order. Its iteration
  /// order (a function of that insertion sequence) fixes the periodic-dump
  /// wire order and the quality-churn shuffle input, both pinned by the
  /// dsdvh goldens; it is iterated only by those two walks.
  std::unordered_set<mac::NodeId> known_;
  /// Known dests other than this node awaiting a triggered update, each
  /// listed once (Entry::dirty); sorted ascending when the update goes out.
  std::vector<mac::NodeId> dirty_;
  /// link_cost() of a frame from node `from`, at [2 * from + sender_is_am];
  /// NaN until first needed. Positions, card and rate are fixed for a run.
  std::vector<double> link_cost_;
  std::uint32_t own_seq_ = 0;
  double last_update_tx_ = -1e18;
  sim::EventId trigger_event_ = sim::kInvalidEvent;
  std::uint64_t next_uid_ = 1;
};

}  // namespace eend::routing
