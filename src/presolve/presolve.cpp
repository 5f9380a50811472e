#include "presolve/presolve.hpp"

#include <algorithm>

#include "graph/connectivity.hpp"
#include "graph/shortest_path.hpp"
#include "util/check.hpp"

namespace eend::presolve {

namespace {

using graph::EdgeId;
using graph::Graph;
using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

/// Dead-end elimination: iteratively mark non-terminal nodes of (current)
/// degree <= 1 removed and their incident edges dead. Worklist-driven —
/// each edge is touched O(1) times.
void eliminate_dead_ends(const Graph& g, const std::vector<char>& is_term,
                         std::vector<char>& node_removed,
                         std::vector<char>& edge_alive,
                         std::vector<std::size_t>& deg,
                         std::vector<ReductionStep>& steps) {
  std::vector<NodeId> work;
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (!is_term[v] && deg[v] <= 1) work.push_back(v);
  while (!work.empty()) {
    const NodeId v = work.back();
    work.pop_back();
    if (node_removed[v] || deg[v] > 1) continue;  // stale worklist entry
    node_removed[v] = 1;
    steps.push_back({ReductionKind::kDeadEndNode, v});
    for (const auto& [nbr, e] : g.neighbors(v)) {
      if (!edge_alive[e]) continue;
      edge_alive[e] = 0;
      --deg[v];
      --deg[nbr];
      if (!is_term[nbr] && !node_removed[nbr] && deg[nbr] <= 1)
        work.push_back(nbr);
    }
  }
}

/// Non-trivial articulation points of g (iterative Tarjan; parallel edges
/// handled by skipping only the tree edge into each node).
std::vector<NodeId> articulation_points(const Graph& g) {
  const std::size_t n = g.node_count();
  std::vector<int> disc(n, -1), low(n, 0);
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<EdgeId> parent_edge(n, kInvalidNode);
  std::vector<char> is_ap(n, 0);
  int timer = 0;

  struct Frame {
    NodeId v;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  for (NodeId root = 0; root < n; ++root) {
    if (disc[root] != -1) continue;
    std::size_t root_children = 0;
    disc[root] = low[root] = timer++;
    stack.push_back({root});
    while (!stack.empty()) {
      Frame& f = stack.back();
      const NodeId v = f.v;
      if (f.next < g.neighbors(v).size()) {
        const auto [to, e] = g.neighbors(v)[f.next++];
        if (disc[to] == -1) {
          parent[to] = v;
          parent_edge[to] = e;
          disc[to] = low[to] = timer++;
          stack.push_back({to});
        } else if (e != parent_edge[v]) {
          low[v] = std::min(low[v], disc[to]);
        }
      } else {
        stack.pop_back();
        const NodeId p = parent[v];
        if (p == kInvalidNode) continue;
        low[p] = std::min(low[p], low[v]);
        if (p == root)
          ++root_children;
        else if (low[v] >= disc[p])
          is_ap[p] = 1;
      }
    }
    if (root_children >= 2) is_ap[root] = 1;
  }
  std::vector<NodeId> out;
  for (NodeId v = 0; v < n; ++v)
    if (is_ap[v]) out.push_back(v);
  return out;
}

/// Sequential moat-growing dual ascent for the node-weighted Steiner
/// forest relaxation: components of the saturated subgraph grow one at a
/// time (smallest component index first — labels are assigned in
/// ascending-node-id order, so this is the component with the smallest
/// node id), paying every unsaturated boundary node the minimum boundary
/// residual. Weak duality: any feasible design's route out of an active
/// component crosses an unsaturated boundary node whose capacity absorbs
/// that round's increment, so the sum of increments never exceeds the
/// design's non-terminal node cost. Nodes with zero capacity (terminals,
/// forced nodes) start saturated and are never charged.
double dual_ascent(const Graph& g, const std::vector<char>& zero_cap,
                   const std::vector<graph::Demand>& demands) {
  const std::size_t n = g.node_count();
  std::vector<double> residual(n);
  for (NodeId v = 0; v < n; ++v)
    residual[v] = zero_cap[v] ? 0.0 : g.node_weight(v);

  double lb = 0.0;
  std::vector<NodeId> comp(n), queue, boundary;
  std::vector<char> in_boundary(n);
  // Every round saturates at least one new boundary node, so n + 1 rounds
  // always suffice; the guard turns a logic error into a loud failure.
  for (std::size_t round = 0; round <= n; ++round) {
    // Label connected components of the saturated subgraph.
    std::fill(comp.begin(), comp.end(), kInvalidNode);
    std::vector<std::vector<NodeId>> members;
    for (NodeId v = 0; v < n; ++v) {
      if (residual[v] > 0.0 || comp[v] != kInvalidNode) continue;
      const NodeId label = static_cast<NodeId>(members.size());
      members.emplace_back();
      comp[v] = label;
      queue.assign(1, v);
      while (!queue.empty()) {
        const NodeId u = queue.back();
        queue.pop_back();
        members[label].push_back(u);
        for (const auto& [nbr, e] : g.neighbors(u)) {
          (void)e;
          if (residual[nbr] > 0.0 || comp[nbr] != kInvalidNode) continue;
          comp[nbr] = label;
          queue.push_back(nbr);
        }
      }
    }

    std::vector<char> active(members.size(), 0);
    bool any_active = false;
    for (const graph::Demand& dem : demands) {
      if (comp[dem.source] == comp[dem.destination]) continue;
      active[comp[dem.source]] = active[comp[dem.destination]] = 1;
      any_active = true;
    }
    if (!any_active) break;

    // First active component with a non-empty boundary (components whose
    // graph component is fully saturated can make no further progress —
    // their demands are unsatisfiable).
    boundary.clear();
    for (std::size_t c = 0; c < members.size() && boundary.empty(); ++c) {
      if (!active[c]) continue;
      for (const NodeId u : members[c])
        for (const auto& [nbr, e] : g.neighbors(u)) {
          (void)e;
          if (residual[nbr] <= 0.0 || in_boundary[nbr]) continue;
          in_boundary[nbr] = 1;
          boundary.push_back(nbr);
        }
    }
    if (boundary.empty()) break;

    double delta = kInfCost;
    for (const NodeId b : boundary) delta = std::min(delta, residual[b]);
    lb += delta;
    for (const NodeId b : boundary) {
      residual[b] -= delta;  // exact 0 for the argmin (x - x == 0)
      in_boundary[b] = 0;
    }
  }
  return lb;
}

}  // namespace

std::vector<NodeId> ReductionTrace::unmap_nodes(
    std::span<const NodeId> compact_nodes) const {
  std::vector<NodeId> out;
  for (const NodeId c : compact_nodes) {
    EEND_REQUIRE_MSG(c < original_of.size(),
                     "unmap_nodes: compact id " << c << " out of range");
    out.insert(out.end(), original_of[c].begin(), original_of[c].end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t ReductionTrace::count(ReductionKind kind) const {
  std::size_t n = 0;
  for (const ReductionStep& s : steps)
    if (s.kind == kind) ++n;
  return n;
}

PresolveResult presolve_design(const core::NetworkDesignProblem& problem) {
  const Graph& g = problem.graph();
  EEND_REQUIRE_MSG(!problem.demands().empty(),
                   "presolve needs at least one demand");
  for (NodeId v = 0; v < g.node_count(); ++v)
    EEND_REQUIRE_MSG(g.node_weight(v) > 0.0,
                     "presolve requires strictly positive node weights "
                     "(node " << v << " has " << g.node_weight(v) << ")");

  const std::vector<NodeId> terminals = problem.terminals();
  std::vector<char> is_term(g.node_count(), 0);
  for (const NodeId t : terminals) is_term[t] = 1;

  PresolveResult out;
  ReductionTrace& trace = out.trace;

  // ---- dead ends -------------------------------------------------------
  std::vector<char> node_removed(g.node_count(), 0);
  std::vector<char> edge_alive(g.edge_count(), 1);
  std::vector<std::size_t> deg(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) deg[v] = g.degree(v);
  eliminate_dead_ends(g, is_term, node_removed, edge_alive, deg,
                      trace.steps);

  // ---- compact: drop terminal-free components -------------------------
  std::vector<char> dropped(g.node_count(), 0);
  {
    std::vector<char> seen(g.node_count(), 0);
    std::vector<NodeId> queue, members;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (node_removed[v] || seen[v]) continue;
      members.clear();
      queue.assign(1, v);
      seen[v] = 1;
      bool has_terminal = false;
      while (!queue.empty()) {
        const NodeId u = queue.back();
        queue.pop_back();
        members.push_back(u);
        if (is_term[u]) has_terminal = true;
        for (const auto& [nbr, e] : g.neighbors(u)) {
          if (!edge_alive[e] || seen[nbr]) continue;
          seen[nbr] = 1;
          queue.push_back(nbr);
        }
      }
      if (has_terminal) continue;
      for (const NodeId u : members) {
        dropped[u] = 1;
        trace.steps.push_back({ReductionKind::kTerminalFreeComponent, u});
      }
    }
  }

  // ---- compact: contract degree-2 chains ------------------------------
  const auto is_anchor = [&](NodeId v) {
    return is_term[v] || deg[v] != 2;
  };
  struct Chain {
    NodeId a = kInvalidNode;         ///< anchor endpoints (original ids)
    NodeId b = kInvalidNode;
    std::vector<NodeId> interior;    ///< walk order a -> b
    double edge_weight_sum = 0.0;
  };
  std::vector<Chain> chains;
  std::vector<char> in_chain(g.node_count(), 0);
  for (NodeId a = 0; a < g.node_count(); ++a) {
    if (node_removed[a] || dropped[a] || !is_anchor(a)) continue;
    for (const auto& [first, first_edge] : g.neighbors(a)) {
      if (!edge_alive[first_edge] || is_anchor(first) || in_chain[first])
        continue;
      Chain ch;
      ch.a = a;
      ch.edge_weight_sum = g.edge(first_edge).weight;
      NodeId cur = first;
      EdgeId came = first_edge;
      while (!is_anchor(cur)) {
        in_chain[cur] = 1;
        ch.interior.push_back(cur);
        // Degree-2 interior: exactly one alive edge other than `came`.
        NodeId next = kInvalidNode;
        EdgeId next_edge = kInvalidNode;
        for (const auto& [nbr, e] : g.neighbors(cur)) {
          if (!edge_alive[e] || e == came) continue;
          next = nbr;
          next_edge = e;
          break;
        }
        EEND_CHECK(next != kInvalidNode);
        ch.edge_weight_sum += g.edge(next_edge).weight;
        cur = next;
        came = next_edge;
      }
      ch.b = cur;
      for (const NodeId v : ch.interior)
        trace.steps.push_back({ReductionKind::kChainContraction, v});
      // A chain closing back on its own anchor is a pendant cycle: any
      // route entering it must leave through the same anchor, so the
      // interior can never help a connection — drop it outright.
      if (ch.a != ch.b) chains.push_back(std::move(ch));
    }
  }

  // ---- compact: remap surviving nodes + synthetic chain nodes ---------
  trace.compact_of.assign(g.node_count(), kInvalidNode);
  Graph cg;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (node_removed[v] || dropped[v] || in_chain[v]) continue;
    trace.compact_of[v] = cg.add_node(g.node_weight(v));
    trace.original_of.push_back({v});
  }
  for (const Chain& ch : chains) {
    double weight = 0.0;
    for (const NodeId v : ch.interior) weight += g.node_weight(v);
    const NodeId sid = cg.add_node(weight);
    std::vector<NodeId> group = ch.interior;
    std::sort(group.begin(), group.end());
    trace.original_of.push_back(std::move(group));
    for (const NodeId v : ch.interior) trace.compact_of[v] = sid;
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!edge_alive[e]) continue;
    const graph::Edge& ed = g.edge(e);
    if (in_chain[ed.u] || in_chain[ed.v]) continue;  // rebuilt below
    if (dropped[ed.u] || dropped[ed.v]) continue;
    cg.add_edge(trace.compact_of[ed.u], trace.compact_of[ed.v], ed.weight);
  }
  for (const Chain& ch : chains) {
    // Edge weights on synthetic chains are nominal (each half the chain's
    // path weight): compact consumers are node-weighted.
    const NodeId sid = trace.compact_of[ch.interior.front()];
    cg.add_edge(trace.compact_of[ch.a], sid, 0.5 * ch.edge_weight_sum);
    cg.add_edge(sid, trace.compact_of[ch.b], 0.5 * ch.edge_weight_sum);
  }
  out.compact = core::NetworkDesignProblem(std::move(cg));
  for (const graph::Demand& dem : problem.demands()) {
    const NodeId s = trace.compact_of[dem.source];
    const NodeId d = trace.compact_of[dem.destination];
    EEND_CHECK(s != kInvalidNode && d != kInvalidNode);
    out.compact.add_demand({s, d, dem.rate});
  }
  out.reduced_nodes = g.node_count() - out.compact.graph().node_count();
  out.reduced_edges = g.edge_count() - out.compact.graph().edge_count();

  // ---- forced nodes: terminal-separating articulation points ----------
  const Graph& cgr = out.compact.graph();
  std::vector<char> compact_term(cgr.node_count(), 0);
  for (const NodeId t : terminals) compact_term[trace.compact_of[t]] = 1;
  std::vector<char> forced(cgr.node_count(), 0);
  {
    // cand is forced when compact without it strands a demand.
    std::vector<char> without(cgr.node_count(), 0);
    for (const NodeId cand : articulation_points(cgr)) {
      if (compact_term[cand]) continue;
      without[cand] = 1;
      forced[cand] =
          !graph::demands_satisfiable(cgr, out.compact.demands(), without);
      without[cand] = 0;
    }
  }
  std::vector<NodeId> forced_compact;
  double forced_weight = 0.0;
  for (NodeId v = 0; v < cgr.node_count(); ++v)
    if (forced[v]) {
      forced_compact.push_back(v);
      forced_weight += cgr.node_weight(v);
    }
  out.forced_nodes = trace.unmap_nodes(forced_compact);

  // ---- bounds ---------------------------------------------------------
  std::vector<char> zero_cap(cgr.node_count(), 0);
  for (NodeId v = 0; v < cgr.node_count(); ++v)
    if (compact_term[v] || forced[v]) zero_cap[v] = 1;
  out.idle_lb_raw =
      dual_ascent(cgr, zero_cap, out.compact.demands()) + forced_weight;

  // Routing term on the instance's own graph. Unsatisfiable demands
  // contribute nothing — any bound is vacuously valid on an infeasible
  // instance.
  std::vector<std::pair<NodeId, graph::ShortestPathTree>> spt_cache;
  for (const graph::Demand& dem : problem.demands()) {
    const graph::ShortestPathTree* spt = nullptr;
    for (const auto& [src, tree] : spt_cache)
      if (src == dem.source) {
        spt = &tree;
        break;
      }
    if (!spt) {
      spt_cache.emplace_back(dem.source, graph::dijkstra(g, dem.source));
      spt = &spt_cache.back().second;
    }
    const double dist = spt->distance[dem.destination];
    if (dist < kInfCost) out.data_lb_raw += dem.rate * dist;
  }
  return out;
}

}  // namespace eend::presolve
