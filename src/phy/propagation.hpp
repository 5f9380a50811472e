// Radio propagation model: 1/d^n path loss with a hard reception range, the
// standard abstraction for protocol-level studies (and what the paper's ns-2
// setup uses via the two-ray ground model thresholds).
//
// Transmit power control (TPC) is "infinitely adjustable" (paper §5.2): the
// minimum power to reach distance d is the card's Ptx(d). The reception /
// carrier-sense / interference footprint of a transmission scales with its
// power level: range(P) = (Pt / alpha2)^(1/n).
#pragma once

#include "energy/radio_card.hpp"
#include "phy/position.hpp"

namespace eend::phy {

struct PropagationConfig {
  /// Carrier-sense range as a multiple of the decodable range (ns-2's
  /// 550 m CS vs 250 m RX ratio is 2.2).
  double cs_range_factor = 2.2;
  /// Interference range factor: transmissions within this multiple of the
  /// decodable range corrupt concurrent receptions.
  double interference_range_factor = 1.8;
  /// If false, every transmission occupies the card's maximum footprint
  /// regardless of TPC level (ablation knob; the paper defers spatial-reuse
  /// effects of TPC to future work).
  bool scale_footprint_with_power = true;

  bool operator==(const PropagationConfig&) const = default;
};

/// Stateless propagation calculator for one card model.
class Propagation {
 public:
  Propagation(const energy::RadioCard& card, const PropagationConfig& cfg)
      : card_(card), cfg_(cfg) {}

  const energy::RadioCard& card() const { return card_; }
  const PropagationConfig& config() const { return cfg_; }

  /// Nominal maximum decodable range (at full power).
  double max_range() const { return card_.max_range_m; }

  /// Can a receiver at distance d decode a max-power transmission?
  bool in_max_range(double d) const { return d <= card_.max_range_m + 1e-9; }

  /// Minimum full transmit power (Pbase + Pt) required to reach distance d.
  /// d beyond max range is a caller bug. A relative margin guarantees the
  /// round trip rx_range(required_power(d)) >= d despite pow() rounding.
  double required_power(double d) const {
    EEND_REQUIRE_MSG(in_max_range(d), "distance " << d << " beyond range "
                                                  << card_.max_range_m);
    return card_.transmit_power(d) * (1.0 + 1e-9) + 1e-12;
  }

  /// Decodable range of a transmission sent at amplifier level pt
  /// (pt = Ptx - Pbase). Clamped to the nominal maximum.
  double range_of_level(double pt) const;

  /// Reception range of a transmission with full power ptx.
  double rx_range(double ptx) const {
    return cfg_.scale_footprint_with_power
               ? range_of_level(ptx - card_.p_base)
               : max_range();
  }

  double cs_range(double ptx) const {
    return rx_range(ptx) * cfg_.cs_range_factor;
  }

  double interference_range(double ptx) const {
    return rx_range(ptx) * cfg_.interference_range_factor;
  }

 private:
  energy::RadioCard card_;
  PropagationConfig cfg_;
};

}  // namespace eend::phy
