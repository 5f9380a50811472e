// IEEE 802.11 power-save mode machinery: synchronized beacons, ATIM
// windows, and the sleep/wake schedule of PSM-mode nodes.
//
// Model (paper §5.2 parameters: beacon 0.3 s, ATIM window 0.02 s):
//  * all nodes share a synchronized beacon clock;
//  * every PSM-mode node wakes at each beacon and listens for the ATIM
//    window;
//  * at the end of the ATIM window a PSM node sleeps unless it was held
//    awake (announced traffic, pending transmissions, in-progress frames);
//  * traffic to PSM nodes is announced during the ATIM window and
//    transmitted after it ("data window"); with the *naive* IEEE PSM rules
//    an announced node stays awake for the entire beacon interval, while
//    the Span-style improvement ("advertised traffic window") lets it
//    sleep as soon as the advertised frames have been received.
//
// Beacon/ATIM frames themselves are not simulated as transmissions; their
// cost appears as the awake time they impose (the dominant term). This is
// the standard abstraction and is documented in DESIGN.md.
#pragma once

#include <vector>

#include "mac/node_radio.hpp"
#include "sim/simulator.hpp"

namespace eend::mac {

struct PsmConfig {
  double beacon_interval_s = 0.3;
  double atim_window_s = 0.02;
  /// Span-style improvements: advertised broadcasts + advertised traffic
  /// window (nodes sleep right after receiving announced traffic).
  bool span_improvements = false;

  /// ATIM-window capacity model: every announcement occupies the shared
  /// medium for atim_frame_s within the 20 ms window. Announcements in a
  /// carrier-sense neighborhood beyond the window's usable share fail and
  /// the frame waits for the next beacon — the congestion-collapse
  /// mechanism that limits PSM networks at high density.
  double atim_frame_s = 0.8e-3;
  double atim_utilization = 0.35; ///< usable fraction (CSMA contention)

  bool operator==(const PsmConfig&) const = default;
};

/// Global, beacon-synchronized PSM coordinator. Nodes are either in AM
/// (never touched by the scheduler) or PSM (woken each beacon, slept after
/// the ATIM window when possible).
class PsmScheduler {
 public:
  PsmScheduler(sim::Simulator& sim, PsmConfig cfg);

  const PsmConfig& config() const { return cfg_; }

  /// Register radios in id order before start().
  void register_radio(NodeRadio* radio);

  /// Start beacon ticking (idempotent).
  void start();

  /// Switch a node between AM (psm=false) and PSM (psm=true).
  /// Entering PSM: the node sleeps at the next opportunity.
  /// Entering AM: the node wakes immediately and stays awake.
  void set_psm(NodeId id, bool psm);

  bool is_psm(NodeId id) const {
    EEND_REQUIRE(id < psm_.size());
    return psm_[id];
  }

  /// Any PSM-mode node among `ids`?
  bool any_psm(std::span<const NodeId> ids) const;

  /// Time of the next beacon strictly after `now`.
  sim::Time next_beacon(sim::Time now) const;

  /// Time the next data window opens (next beacon + ATIM window).
  sim::Time next_data_window(sim::Time now) const {
    return next_beacon(now) + cfg_.atim_window_s;
  }

  /// End of the beacon interval that starts at the next beacon.
  sim::Time next_interval_end(sim::Time now) const {
    return next_beacon(now) + cfg_.beacon_interval_s;
  }

  std::size_t psm_count() const;

  /// Re-evaluate whether a PSM node can sleep now (or as soon as its hold
  /// expires). MACs call this after receptions complete and queues drain —
  /// this is what makes the Span-style advertised-traffic-window actually
  /// save energy (naive PSM only sleeps at ATIM boundaries).
  void reconsider(NodeId id);

  /// Set the carrier-sense range used for ATIM contention accounting.
  /// 0 disables the capacity model (announcements always succeed).
  void set_announce_range(double meters) { announce_range_m_ = meters; }

  /// Attempt an ATIM announcement from `sender` in the current beacon
  /// interval. Fails when the sender's carrier-sense neighborhood has
  /// exhausted the window's airtime; on success the sender is charged the
  /// announcement's transmit energy.
  bool try_announce(NodeId sender);

  std::uint64_t announce_failures() const { return announce_failures_; }

 private:
  void on_beacon();
  void on_atim_end();
  void try_sleep(NodeId id);

  struct Announcement {
    NodeId sender;
    double airtime;
  };

  sim::Simulator& sim_;
  PsmConfig cfg_;
  std::vector<NodeRadio*> radios_;
  std::vector<bool> psm_;
  bool started_ = false;
  double announce_range_m_ = 0.0;
  std::vector<Announcement> interval_announcements_;
  std::uint64_t announce_failures_ = 0;
};

}  // namespace eend::mac
