// The one move-evaluation kernel of the design search: local search,
// annealing and warm-start repair all score their removal / insertion /
// exchange moves here.
//
// A MoveEvaluator owns the incumbent design, its routes, each route's
// length D_i and the move surface around it. Scoring a move returns
// exactly the CandidateDesign evaluate_design(problem, candidate,
// objective) would return, but reroutes only the demands the move can
// change:
//
//   * removal of v   — every incumbent path that avoids v is kept (the
//                      RouteCache subset rule);
//   * insertion of u — demand i keeps its path when every s_i–t_i walk
//                      through u is longer than D_i·(1 + kScreenMargin).
//                      The first test uses full-graph distances
//                      dG(s_i,u) + dG(u,t_i), from TerminalRows
//                      (O(terminals · N) memory) that a portfolio or warm
//                      start computes once for all its evaluators; a lone
//                      evaluator computes its own. Demands it
//                      cannot clear share one masked search from u inside
//                      the candidate set, stopped once it settles past the
//                      largest bound; a node it did not settle counts as
//                      too far;
//   * exchange v → u — demands whose path crosses v are rerouted; every
//                      other demand gets the insertion screen against the
//                      set without v.
//
// Every demand not kept runs the masked early-exit routing loop of
// core::NetworkDesignProblem::route_demands.
//
// Every search and every Eq. 5 sum reads only the design's own subgraph:
// MoveSurface keeps an induced view of it, an ArcIndex of the arcs between
// design nodes (a few per node, where a node has many graph neighbours),
// copied from the problem's arcs() with each arc's weight and pair rank. A
// move closing v leaves v's arcs in place and masks v; a move opening u adds
// u's arcs to design nodes, and writes the arc back to u into each such
// node's spare slot, for the length of the move. Searching the view instead
// of the masked graph is exact: it lists every arc the masked search would
// relax to a finite offer, with the pair's lightest weight, and the order of
// a node's offers cannot change the settle sequence or any parent
// (graph::SpWorkspace). So paths and the opt.route.* counts are the
// full-graph search's, parallel edges included. Eq. 5 reads each hop's
// rank and weight from the view too (analytical::evaluate_eq5).
//
// Why the screen is exact: with strictly positive weights Dijkstra settles
// nodes in (distance, id) order and replaces a parent only on a strictly
// shorter offer. An offer that reaches a node x of P_i (the incumbent
// path) through u extends, along P_i's suffix, to an s_i–t_i walk through
// u, which the screen proved longer than D_i; so the offer is strictly
// longer than x's distance and never becomes x's parent. The neighbours
// whose offers tie x's distance cannot be shortened through u for the
// same reason, so they keep their distances and their settle order, and
// t_i's parent chain — the path — stays. The relative margin covers float
// rounding in the prefix sums. The problem's contract
// (core/design_problem.hpp) makes every edge weight > 0.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "opt/design_heuristic.hpp"

namespace eend::opt {

/// Relative slack of the insertion screen: a path through the opened node
/// must be longer than D_i·(1 + kScreenMargin) for demand i to keep its
/// incumbent path. Covers the rounding of a few dozen float additions.
inline constexpr double kScreenMargin = 1e-9;

/// Full-graph distance rows from every terminal of one problem — the
/// insertion screen's lower bound on any walk through an opened node —
/// searched over the problem's arcs(). They depend only on the instance,
/// so design_portfolio and warm_start_search compute them once and every
/// evaluator of the call reads them; an evaluator given none computes its
/// own. Construction publishes its searches as opt.route.searches /
/// settled_nodes.
struct TerminalRows {
  explicit TerminalRows(const core::NetworkDesignProblem& problem);

  std::vector<double> dist;  ///< dist[k · N + x] = dG(terminal k, x)
  std::vector<std::size_t> src_row, dst_row;  ///< per demand: row offset
};

/// One design move. Removal sets `close` only, insertion `open` only,
/// exchange both; an unused side is graph::kInvalidNode.
struct Move {
  graph::NodeId close = graph::kInvalidNode;
  graph::NodeId open = graph::kInvalidNode;
};

/// The move set around one design, as sorted vectors: rebuilt when the
/// incumbent changes, read by every search policy.
struct MoveSurface {
  std::vector<graph::NodeId> relays;    ///< active non-terminals, ascending
  std::vector<graph::NodeId> frontier;  ///< inactive neighbours of the
                                        ///< design, ascending
  /// Relay k's inactive neighbours, ascending, are
  /// swaps[swap_begin[k] .. swap_begin[k + 1]).
  std::vector<std::size_t> swap_begin;
  std::vector<graph::NodeId> swaps;
  std::vector<char> in_design;  ///< membership mask over node ids
  /// The design's induced view: each design node's arcs to design nodes,
  /// followed by one spare slot that open() fills.
  graph::ArcIndex view;

  /// `arcs` is the problem's arcs(), whose pair ranks the view keeps.
  void rebuild(const graph::ArcIndex& arcs,
               std::span<const graph::NodeId> nodes,
               std::span<const graph::NodeId> terminals);

  /// Adds inactive node u to the view for one move: u's arcs to design
  /// nodes, and the arc back to u in each such node's spare slot.
  void open(const graph::ArcIndex& arcs, graph::NodeId u);
  /// Undoes open(u).
  void close(graph::NodeId u);

  std::span<const graph::NodeId> swaps_of(std::size_t k) const {
    return std::span<const graph::NodeId>(swaps).subspan(
        swap_begin[k], swap_begin[k + 1] - swap_begin[k]);
  }
};

/// Calls fn(Move) for every move of `s` in the canonical order: removals
/// by relay id, insertions by frontier id, then exchanges by (relay,
/// neighbour) id. With `region` non-null, only moves whose removed relay,
/// inserted node or exchanged relay lies in the region are enumerated (an
/// exchange may open a node outside it).
template <class Fn>
void for_each_move(const MoveSurface& s, const std::vector<char>* region,
                   Fn&& fn) {
  const auto in_region = [&](graph::NodeId v) {
    return !region || (*region)[v] != 0;
  };
  for (graph::NodeId v : s.relays)
    if (in_region(v)) fn(Move{v, graph::kInvalidNode});
  for (graph::NodeId u : s.frontier)
    if (in_region(u)) fn(Move{graph::kInvalidNode, u});
  for (std::size_t k = 0; k < s.relays.size(); ++k) {
    if (!in_region(s.relays[k])) continue;
    for (graph::NodeId u : s.swaps_of(k)) fn(Move{s.relays[k], u});
  }
}

class MoveEvaluator {
 public:
  /// A scored candidate and the routes behind it. Reusing one across
  /// score() calls keeps its buffers' capacity.
  struct Scored {
    CandidateDesign design;
    std::vector<analytical::RoutedDemand> routes;
  };

  /// `incumbent` must be feasible. `routes`, when non-null, must be what
  /// routing incumbent.nodes produces — e.g. the RouteCache of the
  /// evaluation that returned `incumbent`, which routed a superset —
  /// otherwise they are routed here. `rows`, when non-null, must be
  /// `problem`'s and outlive the evaluator; otherwise they are computed
  /// here.
  MoveEvaluator(const core::NetworkDesignProblem& problem,
                const DesignObjective& objective,
                const CandidateDesign& incumbent,
                const std::vector<analytical::RoutedDemand>* routes = nullptr,
                const TerminalRows* rows = nullptr);
  /// Publishes opt.move.reused_routes and the evaluator's own searches.
  ~MoveEvaluator();
  MoveEvaluator(const MoveEvaluator&) = delete;
  MoveEvaluator& operator=(const MoveEvaluator&) = delete;

  const CandidateDesign& incumbent() const { return incumbent_; }
  const std::vector<analytical::RoutedDemand>& routes() const {
    return routes_;
  }
  const MoveSurface& surface() const { return surface_; }

  /// Score the incumbent changed by `move` into `out`: a move drawn from
  /// surface(), or any relay to close and inactive node to open.
  void score(Move move, Scored& out);

  /// One steepest-descent pass: score every move of surface() (only
  /// those for_each_move admits with `region`), adding one to
  /// `evaluations` per move, and leave the first cheapest feasible
  /// candidate in `best`. Returns false when no move is feasible.
  bool best_move(const std::vector<char>* region, Scored& best,
                 std::size_t& evaluations);

  /// Make `s` — a feasible candidate this evaluator scored since the last
  /// adopt — the incumbent, taking its buffers, and rebuild the surface.
  void adopt(Scored& s);

 private:
  void set_bounds();  ///< bound_ from routes_
  void screen_from(graph::NodeId u);
  /// route_demands over the view, masked by surface_.in_design.
  bool route(std::span<const std::vector<graph::NodeId>* const> keep,
             std::vector<analytical::RoutedDemand>& routes);

  const core::NetworkDesignProblem& problem_;
  DesignObjective objective_;
  std::vector<graph::NodeId> terminals_;

  CandidateDesign incumbent_;
  std::vector<analytical::RoutedDemand> routes_;
  std::vector<double> bound_;  ///< D_i · (1 + kScreenMargin)
  std::optional<TerminalRows> own_rows_;  ///< when none were passed in
  const TerminalRows* rows_;
  MoveSurface surface_;

  // Per-move scratch.
  Scored cand_;  ///< best_move's candidate buffer
  graph::SpWorkspace ws_;
  analytical::Eq5Scratch eq5_;
  std::vector<const std::vector<graph::NodeId>*> keep_;
  std::vector<std::size_t> pending_;
  std::vector<double> from_u_;  ///< screen-search distances, +inf = far
  std::vector<graph::NodeId> from_u_settled_;
  std::vector<char> needed_;  ///< pending endpoints not yet settled

  std::uint64_t reused_routes_ = 0;
  std::uint64_t searches_ = 0;
  std::uint64_t settled_ = 0;
};

}  // namespace eend::opt
