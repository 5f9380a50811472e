// Shared test check: a design problem's owned ArcIndex is its graph's.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "core/design_problem.hpp"

namespace eend {

/// p.arcs() equals a fresh graph::ArcIndex(p.graph()): the same node
/// bounds and pair count, and every arc's neighbour, rank and weight bits.
inline void expect_owned_index(const core::NetworkDesignProblem& p,
                               const std::string& where) {
  const graph::ArcIndex fresh(p.graph());
  const graph::ArcIndex& got = p.arcs();
  EXPECT_EQ(got.first, fresh.first) << where;
  EXPECT_EQ(got.last, fresh.last) << where;
  EXPECT_EQ(got.rank_count, fresh.rank_count) << where;
  ASSERT_EQ(got.arcs.size(), fresh.arcs.size()) << where;
  for (std::size_t i = 0; i < got.arcs.size(); ++i) {
    EXPECT_EQ(got.arcs[i].neighbor, fresh.arcs[i].neighbor)
        << where << " arc " << i;
    EXPECT_EQ(got.arcs[i].rank, fresh.arcs[i].rank) << where << " arc " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.arcs[i].weight),
              std::bit_cast<std::uint64_t>(fresh.arcs[i].weight))
        << where << " arc " << i;
  }
}

}  // namespace eend
