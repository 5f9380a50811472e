// Radio card models — Table 1 of the paper.
//
// Power figures are stored in watts (Table 1 lists mW; constructors
// convert). The transmit power curve is Ptx(d) = Pbase + alpha2 * d^n
// (paper §5.1: "Ptx(d) can be modeled as Pbase + α2·d^n, where α2·d^n
// represents Pt(i,j)").
//
// Sleep power is not listed in Table 1; we use the published values for
// each card family (Span's Cabletron RoamAbout measurements, Cisco Aironet
// data sheet, Mica2/LEACH sensor specs) and document them here.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace eend::energy {

/// Energy/power model of one wireless interface.
struct RadioCard {
  std::string name;

  double p_idle = 0.0;   ///< idle-state power [W]
  double p_rx = 0.0;     ///< receive power [W]
  double p_sleep = 0.0;  ///< sleep-state power [W]
  double p_base = 0.0;   ///< base transmitter cost Pbase [W]
  double alpha2 = 0.0;   ///< amplifier coefficient [W / m^n]
  double path_loss_n = 4.0;  ///< path-loss exponent n (2..4)

  double max_range_m = 0.0;     ///< nominal transmission range D [m]
  double bandwidth_bps = 2e6;   ///< link bandwidth B [bit/s]
  double switch_energy_j = 1e-3;  ///< Esw per sleep<->idle transition [J]
  double switch_latency_s = 1e-3; ///< time to wake from sleep [s]

  bool operator==(const RadioCard&) const = default;

  /// Transmit power level Pt(d) (amplifier only) for distance d.
  double transmit_level(double d) const {
    EEND_REQUIRE(d >= 0.0);
    return alpha2 * std::pow(d, path_loss_n);
  }

  /// Full transmit power Ptx(d) = Pbase + Pt(d).
  double transmit_power(double d) const { return p_base + transmit_level(d); }

  /// Maximum transmit power (at nominal range) — control packets always use
  /// this level (paper Eq. 2).
  double max_transmit_power() const { return transmit_power(max_range_m); }

  /// Time to put `bits` on the air.
  double tx_duration(double bits) const {
    EEND_REQUIRE(bits >= 0.0 && bandwidth_bps > 0.0);
    return bits / bandwidth_bps;
  }
};

/// The five Table 1 cards plus the LEACH n=2 variant used in Fig. 7.
RadioCard aironet350();            // Pidle 1350, Prx 1350, 2165 + 3.6e-7 d^4
RadioCard cabletron();             // Pidle 830, Prx 1000, 1118 + 7.2e-8 d^4
RadioCard hypothetical_cabletron();// Cabletron with alpha2 = 5.2e-6
RadioCard mica2();                 // Pidle 21, Prx 21, 10.2 + 9.4e-7 d^4
RadioCard leach_n4();              // Pidle 50, Prx 50, 50 + 1.3e-6 d^4
RadioCard leach_n2();              // Pidle 50, Prx 50, 50 + 1e-2 d^2

/// All Fig. 7 card configurations with the D values from the plot legend.
std::vector<RadioCard> fig7_cards();

/// Look up a card by (case-insensitive) name; throws CheckError if unknown.
RadioCard card_by_name(const std::string& name);

}  // namespace eend::energy
