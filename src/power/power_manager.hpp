// Power-management policies.
//
// A PowerManager decides when its node's radio may sleep. The three
// policies the paper evaluates:
//   * AlwaysActive — AM forever (the DSR-Active baseline; passive = idle);
//   * Odpm         — On-Demand Power Management [Zheng & Kravets]: nodes
//                    default to PSM, switch to AM on communication events,
//                    and fall back to PSM when keep-alive timers (data 5 s,
//                    RREP 10 s by default) expire;
//   * PerfectSleep — the oracle of §5.2.3: nodes wake exactly when needed,
//                    so passive time is billed at sleep draw with no
//                    latency or switching cost (modeled as an always-
//                    receivable radio whose passive draw is P_sleep);
//   * AlwaysPsm    — plain IEEE 802.11 PSM (completeness + tests).
//
// Routing protocols report events through notify_data_activity() /
// notify_route_activity(); policies that do not care ignore them.
#pragma once

#include <memory>

#include "mac/psm.hpp"
#include "sim/simulator.hpp"

namespace eend::power {

/// Power-management mode of a node (paper §2.2).
enum class PmMode { ActiveMode, PowerSave };

class PowerManager {
 public:
  virtual ~PowerManager() = default;

  /// Called once at simulation start (after MAC/radio wiring).
  virtual void start() = 0;

  virtual PmMode mode() const = 0;

  bool is_active_mode() const { return mode() == PmMode::ActiveMode; }

  /// Data packet sent / forwarded / received at this node.
  virtual void notify_data_activity() {}

  /// Route-reply handled at this node (route setup keep-alive).
  virtual void notify_route_activity() {}
};

/// DSR-Active baseline: the radio idles forever.
class AlwaysActive final : public PowerManager {
 public:
  void start() override {}
  PmMode mode() const override { return PmMode::ActiveMode; }
};

/// Plain IEEE 802.11 PSM: always on the beacon/ATIM schedule.
class AlwaysPsm final : public PowerManager {
 public:
  AlwaysPsm(mac::PsmScheduler& psm, mac::NodeId id) : psm_(psm), id_(id) {}
  void start() override { psm_.set_psm(id_, true); }
  PmMode mode() const override { return PmMode::PowerSave; }

 private:
  mac::PsmScheduler& psm_;
  mac::NodeId id_;
};

struct OdpmConfig {
  double keepalive_data_s = 5.0;   ///< paper §5.2: 5 s for data
  double keepalive_rrep_s = 10.0;  ///< paper §5.2: 10 s for RREPs

  bool operator==(const OdpmConfig&) const = default;
};

/// On-Demand Power Management.
class Odpm final : public PowerManager {
 public:
  Odpm(sim::Simulator& sim, mac::PsmScheduler& psm, mac::NodeId id,
       OdpmConfig cfg);

  void start() override;
  PmMode mode() const override { return mode_; }
  void notify_data_activity() override;
  void notify_route_activity() override;

  /// Number of PSM->AM transitions (metric for control-churn analysis).
  std::uint64_t activations() const { return activations_; }

  /// Observer hook: fired after every AM<->PSM transition (DSDVH uses this
  /// to trigger route updates on power-state changes).
  void set_mode_change_hook(std::function<void(PmMode)> fn) {
    on_mode_change_ = std::move(fn);
  }

 private:
  void to_active(double keepalive);
  void on_expire();

  mac::PsmScheduler& psm_;
  mac::NodeId id_;
  OdpmConfig cfg_;
  PmMode mode_ = PmMode::PowerSave;
  sim::Timer timer_;
  std::uint64_t activations_ = 0;
  std::function<void(PmMode)> on_mode_change_;
};

/// Oracle sleep scheduling for the §5.2.3 hypothetical-card study.
class PerfectSleep final : public PowerManager {
 public:
  explicit PerfectSleep(mac::NodeRadio& radio) : radio_(radio) {}
  void start() override { radio_.set_passive_draw_is_sleep(true); }
  // Behaves like AM for the MAC (always receivable, no beacon delays).
  PmMode mode() const override { return PmMode::ActiveMode; }

 private:
  mac::NodeRadio& radio_;
};

}  // namespace eend::power
