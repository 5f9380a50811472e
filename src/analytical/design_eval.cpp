#include "analytical/design_eval.hpp"

#include <algorithm>
#include <bit>

namespace eend::analytical {

namespace {

/// Sets bit i; returns whether it was set before.
bool test_and_set(std::vector<std::uint64_t>& bits, std::size_t i) {
  std::uint64_t& word = bits[i / 64];
  const std::uint64_t mask = std::uint64_t{1} << (i % 64);
  const bool was = (word & mask) != 0;
  word |= mask;
  return was;
}

bool test(const std::vector<std::uint64_t>& bits, std::size_t i) {
  return (bits[i / 64] >> (i % 64)) & 1;
}

/// Calls fn(i) for every set bit i, ascending.
template <class Fn>
void for_each_set(const std::vector<std::uint64_t>& bits, Fn&& fn) {
  for (std::size_t w = 0; w < bits.size(); ++w)
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1)
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
}

}  // namespace

Eq5Breakdown evaluate_eq5(const graph::Graph& g,
                          std::span<const RoutedDemand> routes,
                          const Eq5Params& params) {
  Eq5Scratch scratch;
  return evaluate_eq5(g, graph::ArcIndex(g), routes, params, scratch);
}

Eq5Breakdown evaluate_eq5(const graph::Graph& g, const graph::ArcIndex& arcs,
                          std::span<const RoutedDemand> routes,
                          const Eq5Params& params, Eq5Scratch& scratch) {
  EEND_REQUIRE(arcs.first.size() == g.node_count());
  const std::size_t node_words = (g.node_count() + 63) / 64;
  scratch.in_f.assign(node_words, 0);
  scratch.endpoint.assign(node_words, 0);
  scratch.used.assign((arcs.rank_count + 63) / 64, 0);
  scratch.load.resize(arcs.rank_count);

  for (const RoutedDemand& r : routes) {
    EEND_REQUIRE_MSG(r.path.size() >= 1, "empty path");
    EEND_REQUIRE(r.path.front() == r.demand.source &&
                 r.path.back() == r.demand.destination &&
                 g.valid_node(r.demand.source));
    test_and_set(scratch.endpoint, r.demand.source);
    test_and_set(scratch.endpoint, r.demand.destination);
    test_and_set(scratch.in_f, r.path.front());
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      const graph::RankedArc* hop = arcs.find(r.path[i], r.path[i + 1]);
      EEND_REQUIRE_MSG(hop && hop->weight < graph::kInfCost,
                       "path hop " << std::min(r.path[i], r.path[i + 1])
                                   << "-"
                                   << std::max(r.path[i], r.path[i + 1])
                                   << " is not an edge");
      test_and_set(scratch.in_f, r.path[i + 1]);
      Eq5Scratch::PairLoad& load = scratch.load[hop->rank];
      if (!test_and_set(scratch.used, hop->rank)) load = {0.0, hop->weight};
      load.packets += r.packets;
    }
  }

  Eq5Breakdown out;
  scratch.active.clear();
  for_each_set(scratch.in_f, [&](std::size_t i) {
    const auto v = static_cast<graph::NodeId>(i);
    scratch.active.push_back(v);
    const bool endpoint = test(scratch.endpoint, v);
    if (!endpoint) ++out.relay_nodes;
    if (endpoint && !params.include_endpoint_idle) return;
    out.idle += params.t_idle * g.node_weight(v);
  });
  out.active_nodes = scratch.active.size();
  for_each_set(scratch.used, [&](std::size_t rank) {
    const Eq5Scratch::PairLoad& load = scratch.load[rank];
    out.data += params.t_data_per_packet * load.packets * load.weight;
  });
  return out;
}

}  // namespace eend::analytical
