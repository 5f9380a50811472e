// Steiner tree approximations.
//
// Section 3 of the paper frames energy-efficient network design as a
// node-weighted buy-at-bulk problem whose special cases are node-weighted
// Steiner tree/forest. The centralized solvers here are the analysis-side
// counterparts of the distributed heuristics:
//
//  * kmb_steiner_tree      — Kou–Markowsky–Berman 2(1-1/t) approximation for
//                            the *edge-weighted* Steiner tree; this is the
//                            "MPC-style" building block (reduce node weights
//                            into edge weights, then solve edge-weighted).
//  * klein_ravi_steiner    — Klein–Ravi greedy spider 2·ln(t) approximation
//                            for the *node-weighted* Steiner tree.
#pragma once

#include <set>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace eend::graph {

/// A Steiner tree: the set of selected nodes and edges plus cost breakdown.
struct SteinerTree {
  std::vector<NodeId> nodes;   ///< all nodes in the tree (incl. terminals)
  std::vector<EdgeId> edges;   ///< tree edges
  double edge_cost = 0.0;      ///< sum of edge weights
  double node_cost = 0.0;      ///< sum of node weights of non-terminal nodes
  bool feasible = false;       ///< all terminals connected
};

/// Edge-weighted Steiner tree via KMB: metric closure over the terminals,
/// MST of the closure, expansion to shortest paths, MST again, leaf pruning.
/// Approximation factor 2(1 - 1/t) on the edge-weighted optimum.
SteinerTree kmb_steiner_tree(const Graph& g,
                             std::span<const NodeId> terminals);

/// Node-weighted Steiner tree via the Klein–Ravi greedy spider algorithm.
/// Terminal node weights are treated as 0 (the paper's c(si)=c(di)=0
/// simplification). Approximation factor 2·ln(t) on the node-weighted
/// optimum. Requires every node weight >= 0 (one O(N) scan at entry,
/// CheckError otherwise): its spider searches rest on it.
SteinerTree klein_ravi_steiner(const Graph& g,
                               std::span<const NodeId> terminals);

/// Klein-Ravi's spider-search bound: a lower bound on the ratio of every
/// spider degree m' > m (m' >= 2) a search has not reached yet. `acc` is
/// the centre's cost plus its first m legs and `d` the distance being
/// settled, so every unseen leg costs at least d (entry costs >= 0) and
/// degree m' has ratio >= (acc + (m' - m)·d) / m'. That grows with m'
/// when d >= acc / m, so its least value is the next degree's,
/// (acc + d) / (m + 1); otherwise it falls toward d.
inline double spider_degree_bound(double acc, std::size_t m, double d) {
  if (m == 0 || d < acc / static_cast<double>(m)) return d;
  return (acc + d) / static_cast<double>(m + 1);
}

/// Exact node-weighted Steiner tree by exhaustive search over subsets of
/// optional nodes. Exponential; only valid for small instances (< ~20
/// optional nodes). Used as a test oracle for the approximations.
SteinerTree exact_node_weighted_steiner(const Graph& g,
                                        std::span<const NodeId> terminals);

/// Remove non-terminal leaves from `edges` until none remain (the final
/// KMB cleanup step). The fixed point is unique whatever the removal
/// order. Exposed for tests pinning the worklist implementation against
/// the reference sweep.
void prune_leaves(const Graph& g, std::span<const NodeId> terminals,
                  std::set<EdgeId>& edges);

}  // namespace eend::graph
