// Protocol-stack specifications: the named combinations of routing, power
// management and transmit power control that the paper evaluates.
//
// Presets (paper's figure legends):
//   DSR-Active              — DSR, all nodes always on
//   DSR-ODPM                — DSR + ODPM
//   DSR-ODPM-PC             — DSR + ODPM + TPC              (idle-first v1)
//   TITAN-PC                — TITAN + ODPM + TPC            (idle-first v2)
//   DSRH-ODPM (rate/norate) — reactive joint optimization   (joint)
//   DSDVH-ODPM(5,10)-PSM    — proactive joint optimization  (joint)
//   DSDVH-ODPM(0.6,1.2)-Span— + Span-improved PSM, short keep-alives
//   MTPR[-ODPM], MTPR+[-ODPM] — power control first         (comm-first)
//   *-Perfect               — §5.2.3 oracle sleep scheduling variants
#pragma once

#include <string>
#include <vector>

#include "mac/mac.hpp"
#include "mac/psm.hpp"
#include "power/power_manager.hpp"
#include "routing/metric.hpp"

namespace eend::net {

enum class RoutingKind { Dsr, Mtpr, MtprPlus, Dsrh, Titan, Dsdv, Dsdvh };
enum class PowerKind { AlwaysActive, Odpm, PerfectSleep, AlwaysPsm };

struct StackSpec {
  std::string label;
  RoutingKind routing = RoutingKind::Dsr;
  PowerKind power = PowerKind::AlwaysActive;
  bool tpc = false;        ///< transmit power control on data frames
  bool rate_info = false;  ///< DSRH rate variant (h with ri/B)
  power::OdpmConfig odpm;  ///< keep-alive timers
  mac::PsmConfig psm;      ///< beacon/ATIM/span settings

  /// DSDVH link-quality churn (see routing::DsdvConfig).
  double dsdv_quality_interval_s = 0.0;
  double dsdv_quality_noise = 0.0;

  /// TITAN participation scale: PSM nodes forward RREQs with probability
  /// p = titan_alpha / (1 + #AM neighbors). Ablation knob.
  double titan_alpha = 1.0;

  bool operator==(const StackSpec&) const = default;

  // ------------------------------------------------------------ presets ---
  static StackSpec dsr_active();
  static StackSpec dsr_odpm();
  static StackSpec dsr_odpm_pc();
  static StackSpec titan_pc();
  static StackSpec dsrh_odpm_rate();
  static StackSpec dsrh_odpm_norate();
  static StackSpec dsdvh_odpm_psm();   // keep-alives (5, 10), naive PSM
  static StackSpec dsdvh_odpm_span();  // keep-alives (0.6, 1.2), Span PSM
  static StackSpec mtpr_odpm();
  static StackSpec mtpr_plus_odpm();

  // §5.2.3 perfect-sleep variants.
  static StackSpec dsr_perfect();
  static StackSpec titan_pc_perfect();
  static StackSpec dsrh_norate_perfect();
  static StackSpec mtpr_perfect();
  static StackSpec mtpr_plus_perfect();

  /// The routing metric implied by the stack's routing kind.
  routing::LinkMetric metric() const;
};

/// Look up a preset by its manifest name (the snake_case factory name, e.g.
/// "dsr_odpm_pc", "titan_pc_perfect"). Throws CheckError listing the valid
/// names when unknown — manifests reference stacks this way.
StackSpec stack_preset(const std::string& name);

/// All preset names accepted by stack_preset(), in declaration order.
std::vector<std::string> stack_preset_names();

}  // namespace eend::net
