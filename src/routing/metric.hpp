// Link cost metrics — the heart of the three heuristic approaches.
//
//   Hop      — shortest path (DSR / TITAN / the idle-first approach);
//   Mtpr     — Eq. 10: f(u,v) = Pt(u,v)                (amplifier only);
//   MtprPlus — Eq. 11: f(u,v) = Pbase + Pt(u,v) + Prx;
//   JointH   — Eq. 12: h(u,v,ri) = c(u,v) [+ Pidle if the candidate relay
//              is in PSM], where c(u,v) = (Ptx(u,v) + Prx - 2 Pidle) ri/B.
//              Without rate information ri/B is taken as 1 (the paper's
//              "norate" variant).
#pragma once

#include <algorithm>

#include "energy/radio_card.hpp"

namespace eend::routing {

enum class LinkMetric { Hop, Mtpr, MtprPlus, JointH };

inline const char* to_string(LinkMetric m) {
  switch (m) {
    case LinkMetric::Hop: return "hop";
    case LinkMetric::Mtpr: return "mtpr";
    case LinkMetric::MtprPlus: return "mtpr+";
    case LinkMetric::JointH: return "h";
  }
  return "?";
}

/// Does the metric read the u-v distance / the relay's power-management
/// state? link_cost ignores an input its metric does not use.
inline bool uses_distance(LinkMetric m) { return m != LinkMetric::Hop; }
inline bool uses_relay_state(LinkMetric m) { return m == LinkMetric::JointH; }

/// Cost of the link u->v.
/// `dist` is the u-v distance; `relay_is_am` is v's power-management state
/// (only JointH uses it); `rate_over_b` is ri/B (1.0 when unknown).
inline double link_cost(LinkMetric metric, const energy::RadioCard& card,
                        double dist, bool relay_is_am, double rate_over_b) {
  switch (metric) {
    case LinkMetric::Hop:
      return 1.0;
    case LinkMetric::Mtpr:
      return card.transmit_level(dist);
    case LinkMetric::MtprPlus:
      return card.p_base + card.transmit_level(dist) + card.p_rx;
    case LinkMetric::JointH: {
      const double c = (card.transmit_power(dist) + card.p_rx -
                        2.0 * card.p_idle) *
                       rate_over_b;
      // Negative c would mean relaying is cheaper than idling — clamp so
      // accumulated route costs stay monotone (Dijkstra-safe), as MPC's
      // bounded-weight assumption requires.
      return std::max(0.0, c) + (relay_is_am ? 0.0 : card.p_idle);
    }
  }
  return 1.0;
}

}  // namespace eend::routing
