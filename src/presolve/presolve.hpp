// Instance presolve + certified lower bounds for the Eq. 5 design problem
// (SCIP-STP style, adapted to the node-weighted setting).
//
// presolve_design() applies three reductions — iterative removal of
// non-terminal dead ends (degree <= 1), dropping of terminal-free
// components, and contraction of maximal chains of non-terminal degree-2
// nodes into one synthetic node carrying the summed node weight — and
// builds one view from them:
//
//  * compact — a certified *remapped* instance whose node-weighted optimum
//    equals the original's. It is the substrate for the dual-ascent lower
//    bound, the forced-node (terminal-separating articulation) inclusion
//    test, the shrink statistics, and the oracle cross-checks. Search never
//    runs on it: every solver sees the instance's own graph.
//
// The certified bound combines a routing term (per-demand shortest-path
// distance, computed by Dijkstra on the instance's own graph; valid because
// any design routes each demand no shorter than the unrestricted shortest
// path) with a node-weight term (sequential moat-growing dual ascent over
// compact, plus the weights of forced nodes, which get zero dual capacity so
// the two never double-count). For any Eq. 5 parameters, lower_bound() <=
// the Eq. 5 total of every feasible design — including under replay
// scoring, whose endpoint-inclusive idle term only adds cost.
//
// presolve_design() REQUIRES strictly positive node weights and throws
// otherwise (edge weights are > 0 by the problem's own contract);
// from_positions instances have c = Pidle > 0 by construction.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "analytical/design_eval.hpp"
#include "core/design_problem.hpp"

namespace eend::presolve {

enum class ReductionKind {
  kDeadEndNode,            ///< non-terminal node of degree <= 1 removed
  kChainContraction,       ///< degree-2 interior folded into a synthetic node
  kTerminalFreeComponent,  ///< component without terminals dropped (compact)
};

/// One recorded reduction of one original node.
struct ReductionStep {
  ReductionKind kind;
  graph::NodeId node = graph::kInvalidNode;
};

/// Lossless id bookkeeping between the original and compact instances.
struct ReductionTrace {
  std::vector<ReductionStep> steps;

  /// original node id -> compact node id; kInvalidNode when the node was
  /// removed or dropped. Chain interiors map to their synthetic node.
  std::vector<graph::NodeId> compact_of;

  /// compact node id -> original ids folded into it, sorted ascending — a
  /// singleton for surviving nodes, the full interior for synthetic ones.
  std::vector<std::vector<graph::NodeId>> original_of;

  /// Expand compact node ids back to the original id space (union of the
  /// groups, sorted ascending, deduplicated).
  std::vector<graph::NodeId> unmap_nodes(
      std::span<const graph::NodeId> compact_nodes) const;

  std::size_t count(ReductionKind kind) const;
};

struct PresolveResult {
  /// Certified remapped instance (see file comment). Never searched; feeds
  /// the dual ascent, forced-node detection and the oracle cross-checks.
  core::NetworkDesignProblem compact;

  ReductionTrace trace;

  /// Nodes (original ids, sorted) every feasible design must contain:
  /// non-terminal articulation points of compact whose removal separates a
  /// demand pair, expanded through the trace.
  std::vector<graph::NodeId> forced_nodes;

  /// Structural shrink of the certified instance: original minus compact
  /// counts.
  std::size_t reduced_nodes = 0;
  std::size_t reduced_edges = 0;

  /// Raw bound terms, scale-free in the Eq. 5 parameters:
  ///   data_lb_raw = sum_i rate_i * dist(s_i, d_i)   (edge weights, summed
  ///                 in demand order)
  ///   idle_lb_raw = dual ascent value + sum of forced node weights
  double data_lb_raw = 0.0;
  double idle_lb_raw = 0.0;

  /// Certified Eq. 5 lower bound under the given parameters: no feasible
  /// design scores below this, for any include_endpoint_idle setting.
  double lower_bound(const analytical::Eq5Params& eval) const {
    return eval.t_data_per_packet * data_lb_raw + eval.t_idle * idle_lb_raw;
  }
};

/// Run the full reduction + bound pipeline. Requires at least one demand
/// and strictly positive node weights; throws CheckError otherwise.
/// Deterministic in the problem alone.
PresolveResult presolve_design(const core::NetworkDesignProblem& problem);

}  // namespace eend::presolve
