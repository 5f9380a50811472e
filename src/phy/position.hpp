// 2-D geometry for node placement.
#pragma once

#include <cmath>

namespace eend::phy {

struct Position {
  double x = 0.0;
  double y = 0.0;

  bool operator==(const Position&) const = default;
};

inline double distance(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

inline double distance_sq(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

}  // namespace eend::phy
