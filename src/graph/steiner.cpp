#include "graph/steiner.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <set>

#include "graph/connectivity.hpp"
#include "graph/mst.hpp"
#include "graph/shortest_path.hpp"
#include "obs/counters.hpp"

namespace eend::graph {

namespace {

using Item = std::pair<double, NodeId>;

/// Relative slack of Klein-Ravi's centre screen. For k components on n
/// nodes, a centre's screened ratio r(v) and the ratio its spider search
/// computes are both within (k + 1)(n + 2)·u of the real ratio (u = 2^-53):
/// a leg sums at most n entry costs; the screened leg also subtracts
/// step[v] from a row entry that includes it, an absolute error of at most
/// n·u·(leg + step[v]) that a numerator holding step[v] once absorbs as
/// n·u of itself per leg; and the numerator and quotient add k + 2 more
/// roundings. So the winner's r(v) is within ~4(k + 1)(n + 2)·u of the
/// round's smallest r(v), and the screen runs only where that is at most
/// half the slack.
constexpr double kCentreScreenSlack = 1e-9;

bool centre_screen_exact(std::size_t components, std::size_t n) {
  const double u = std::numeric_limits<double>::epsilon() / 2.0;
  return 8.0 * (static_cast<double>(components) + 1.0) *
             (static_cast<double>(n) + 2.0) * u <=
         kCentreScreenSlack;
}

bool is_terminal(std::span<const NodeId> terminals, NodeId v) {
  return std::find(terminals.begin(), terminals.end(), v) != terminals.end();
}

/// Build the result record from a set of tree edges in g.
SteinerTree assemble(const Graph& g, std::span<const NodeId> terminals,
                     const std::set<EdgeId>& edges) {
  SteinerTree t;
  std::set<NodeId> nodes(terminals.begin(), terminals.end());
  for (EdgeId e : edges) {
    nodes.insert(g.edge(e).u);
    nodes.insert(g.edge(e).v);
    t.edge_cost += g.edge(e).weight;
  }
  t.edges.assign(edges.begin(), edges.end());
  t.nodes.assign(nodes.begin(), nodes.end());
  for (NodeId v : t.nodes)
    if (!is_terminal(terminals, v)) t.node_cost += g.node_weight(v);

  // Feasibility: all terminals in one component of the tree subgraph.
  std::map<NodeId, std::vector<std::pair<NodeId, EdgeId>>> adj;
  for (EdgeId e : edges) {
    adj[g.edge(e).u].push_back({g.edge(e).v, e});
    adj[g.edge(e).v].push_back({g.edge(e).u, e});
  }
  if (terminals.empty()) {
    t.feasible = true;
    return t;
  }
  std::set<NodeId> seen;
  std::queue<NodeId> q;
  q.push(terminals[0]);
  seen.insert(terminals[0]);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (const auto& [v, e] : adj[u]) {
      (void)e;
      if (seen.insert(v).second) q.push(v);
    }
  }
  t.feasible = std::all_of(terminals.begin(), terminals.end(),
                           [&](NodeId v) { return seen.count(v) > 0; });
  return t;
}

/// Edges of g forming Prim's MST, from `root`, of the subgraph induced by
/// the nodes with in[v] set (nodes renumbered in id order, edges kept in id
/// order).
std::set<EdgeId> induced_mst(const Graph& g, const std::vector<bool>& in,
                             NodeId root) {
  std::vector<NodeId> remap(g.node_count(), kInvalidNode);
  Graph sub;
  std::vector<EdgeId> back;
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (in[v]) remap[v] = sub.add_node();
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    if (remap[ed.u] != kInvalidNode && remap[ed.v] != kInvalidNode) {
      sub.add_edge(remap[ed.u], remap[ed.v], ed.weight);
      back.push_back(e);
    }
  }
  std::set<EdgeId> edges;
  for (EdgeId se : prim_mst(sub, remap[root]).edges) edges.insert(back[se]);
  return edges;
}

}  // namespace

/// Remove non-terminal leaves repeatedly (final KMB step). The leaf-removal
/// fixed point is unique whatever the removal order, so a worklist over
/// incremental degree counts visits each edge O(1) times instead of
/// rebuilding the full incident map every sweep.
void prune_leaves(const Graph& g, std::span<const NodeId> terminals,
                  std::set<EdgeId>& edges) {
  std::map<NodeId, std::vector<EdgeId>> incident;
  for (EdgeId e : edges) {
    incident[g.edge(e).u].push_back(e);
    incident[g.edge(e).v].push_back(e);
  }
  std::map<NodeId, std::size_t> degree;
  std::vector<NodeId> work;
  for (const auto& [v, inc] : incident) {
    degree[v] = inc.size();
    if (inc.size() == 1 && !is_terminal(terminals, v)) work.push_back(v);
  }
  while (!work.empty()) {
    const NodeId v = work.back();
    work.pop_back();
    if (degree[v] != 1) continue;  // re-queued stale entry or already pruned
    for (EdgeId e : incident[v]) {
      if (!edges.erase(e)) continue;  // edge already pruned from the far side
      const Edge& ed = g.edge(e);
      const NodeId other = ed.u == v ? ed.v : ed.u;
      --degree[v];
      if (--degree[other] == 1 && !is_terminal(terminals, other))
        work.push_back(other);
      break;  // degree was 1: exactly one live incident edge existed
    }
  }
}

SteinerTree kmb_steiner_tree(const Graph& g,
                             std::span<const NodeId> terminals) {
  EEND_REQUIRE(!terminals.empty());
  for (NodeId t : terminals) EEND_REQUIRE(g.valid_node(t));
  if (terminals.size() == 1) {
    SteinerTree t;
    t.nodes.assign(terminals.begin(), terminals.end());
    t.feasible = true;
    return t;
  }

  // 1. Shortest paths from every terminal.
  std::vector<ShortestPathTree> spt;
  spt.reserve(terminals.size());
  for (NodeId t : terminals) spt.push_back(dijkstra(g, t));

  // 2. Metric closure over terminals + 3. MST of the closure (Prim inline).
  const std::size_t k = terminals.size();
  std::vector<bool> in_tree(k, false);
  std::vector<double> best(k, kInfCost);
  std::vector<std::size_t> best_from(k, 0);
  in_tree[0] = true;
  for (std::size_t j = 1; j < k; ++j) {
    best[j] = spt[0].distance[terminals[j]];
    best_from[j] = 0;
  }
  std::set<EdgeId> chosen;
  for (std::size_t round = 1; round < k; ++round) {
    std::size_t next = k;
    for (std::size_t j = 0; j < k; ++j)
      if (!in_tree[j] && (next == k || best[j] < best[next])) next = j;
    if (next == k || best[next] == kInfCost) {
      // Disconnected terminals: return infeasible result.
      return assemble(g, terminals, chosen);
    }
    // 4. Expand the closure edge into its underlying graph path.
    const auto path = spt[best_from[next]].path_to(terminals[next]);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      // Pick the cheapest edge between consecutive path nodes.
      EdgeId cheapest = kInvalidNode;
      double w = kInfCost;
      for (const auto& [nbr, e] : g.neighbors(path[i]))
        if (nbr == path[i + 1] && g.edge(e).weight < w) {
          w = g.edge(e).weight;
          cheapest = e;
        }
      EEND_CHECK(cheapest != kInvalidNode);
      chosen.insert(cheapest);
    }
    in_tree[next] = true;
    for (std::size_t j = 0; j < k; ++j)
      if (!in_tree[j] && spt[next].distance[terminals[j]] < best[j]) {
        best[j] = spt[next].distance[terminals[j]];
        best_from[j] = next;
      }
  }

  // 5. MST over the union subgraph, then prune non-terminal leaves.
  // Build an induced subgraph on `chosen`, run Prim, map edges back.
  {
    std::map<NodeId, NodeId> remap;
    Graph sub;
    std::vector<EdgeId> back;
    for (EdgeId e : chosen) {
      for (NodeId endpoint : {g.edge(e).u, g.edge(e).v})
        if (!remap.count(endpoint)) {
          remap[endpoint] = sub.add_node();
        }
      sub.add_edge(remap[g.edge(e).u], remap[g.edge(e).v], g.edge(e).weight);
      back.push_back(e);
    }
    if (sub.node_count() > 0) {
      const MstResult mst = prim_mst(sub, 0);
      std::set<EdgeId> kept;
      for (EdgeId se : mst.edges) kept.insert(back[se]);
      chosen = std::move(kept);
    }
  }
  prune_leaves(g, terminals, chosen);
  return assemble(g, terminals, chosen);
}

SteinerTree klein_ravi_steiner(const Graph& g,
                               std::span<const NodeId> terminals) {
  EEND_REQUIRE(!terminals.empty());
  for (NodeId t : terminals) EEND_REQUIRE(g.valid_node(t));
  const std::size_t n = g.node_count();

  // Entry cost of each node: c(v), or 0 once the node is selected (already
  // paid for). Terminals start selected, so they are free (c(si) = c(di) = 0
  // per the paper).
  std::vector<double> step(n);
  std::vector<bool> selected(n, false);
  for (NodeId v = 0; v < n; ++v) step[v] = g.node_weight(v);
  for (NodeId t : terminals) {
    step[t] = 0.0;
    selected[t] = true;
  }

  // Components: start with each terminal alone. We track, per node, which
  // component it belongs to (kInvalidNode = none yet). Selected nodes form
  // the growing solution.
  std::vector<NodeId> comp(n, kInvalidNode);
  NodeId next_comp = 0;
  for (NodeId t : terminals)
    if (comp[t] == kInvalidNode) comp[t] = next_comp++;
  std::size_t active_components = next_comp;
  std::size_t labelled = next_comp;  // nodes with a component id

  // Node-weighted shortest path FROM a candidate spider center v to each
  // component: weight of a path = sum of entry costs of the nodes after the
  // center (the center is charged separately). One workspace serves every
  // center. A component's leg is taken when its first node settles: legs
  // arrive sorted, each at its component's cheapest distance, and degree
  // m's ratio is acc / m with acc = step[center] + legs 1..m. With entry
  // costs >= 0 (else nothing is pruned) every later leg costs at least the
  // distance d being settled, so no unseen degree has a ratio below
  // spider_degree_bound(acc, m, d): the next degree's (acc + d) / (m + 1)
  // when d >= acc / m, else d. Only a strictly smaller ratio wins, so a
  // search stops once that bound beats the round's best ratio by more
  // than the rounding of ~20 additions, or once every component-labelled
  // node is settled.
  const bool prunable = *std::min_element(step.begin(), step.end()) >= 0.0;
  SpWorkspace ws(n);
  const std::vector<double>& dist = ws.tree.distance;
  const std::vector<NodeId>& par = ws.tree.parent;
  std::vector<char> reached(next_comp);  // per component: leg taken
  std::uint64_t searches = 0, pruned = 0;
  const auto relax = [&](double d, const Adjacency& a) {
    return d + step[a.neighbor];
  };

  // The centre screen. Row j holds L_j[v], the distance from component j
  // to v under `relax` (all of j sits at 0: its nodes cost 0 and are
  // connected). Reversing a path moves the charge from its far end onto
  // v, so v's leg to j is L_j[v] - step[v], and sorting v's legs gives
  // its spider ratio r(v) up to rounding. Each round searches only the
  // centres within kCentreScreenSlack of the smallest r(v); the winner is
  // among them, and they run in id order with the same float values, so
  // the lexicographic minimum of (ratio, centre, degree) is unchanged.
  // After a merge only entry costs drop: the merged component's row starts
  // as the minimum of its parts' rows, and every row takes just the
  // decreases from the newly selected nodes. Float addition is monotone,
  // so that is exactly the row a full search would give (the least float
  // path sum).
  const bool screened = prunable && centre_screen_exact(next_comp, n);
  std::vector<double> rows(screened ? next_comp * n : 0, kInfCost);
  std::vector<char> alive(next_comp, 1);
  std::vector<NodeId> fresh;           // nodes the last merge selected
  std::vector<double> ratio(n), legs_of;
  std::vector<Item> row_heap;
  std::uint64_t screen_settled = 0;
  // Decrease-only Dijkstra on `row` from the entries already in row_heap.
  const auto settle_row = [&](double* row) {
    while (!row_heap.empty()) {
      std::pop_heap(row_heap.begin(), row_heap.end(), std::greater<>{});
      const auto [d, u] = row_heap.back();
      row_heap.pop_back();
      if (d > row[u]) continue;
      ++screen_settled;
      for (const Adjacency& a : g.neighbors(u)) {
        const double nd = relax(d, a);
        if (!(nd < row[a.neighbor])) continue;
        row[a.neighbor] = nd;
        row_heap.emplace_back(nd, a.neighbor);
        std::push_heap(row_heap.begin(), row_heap.end(), std::greater<>{});
      }
    }
  };
  if (screened && active_components > 1)
    for (NodeId t : terminals) {
      double* row = rows.data() + comp[t] * n;
      if (row[t] == 0.0) continue;  // a repeated terminal
      row[t] = 0.0;
      row_heap.assign(1, {0.0, t});
      settle_row(row);
    }

  while (active_components > 1) {
    double best_ratio = kInfCost;
    NodeId best_center = kInvalidNode;
    std::size_t best_deg = 0;

    double rmin = kInfCost;
    if (screened) {
      for (NodeId v = 0; v < n; ++v) {
        legs_of.clear();
        for (NodeId j = 0; j < next_comp; ++j)
          if (alive[j]) legs_of.push_back(rows[j * n + v] - step[v]);
        std::sort(legs_of.begin(), legs_of.end());
        double acc = step[v], r = kInfCost;
        for (std::size_t m = 1; m <= legs_of.size(); ++m) {
          acc += legs_of[m - 1];
          if (m >= 2) r = std::min(r, acc / static_cast<double>(m));
        }
        ratio[v] = r;
        rmin = std::min(rmin, r);
      }
    }

    for (NodeId center = 0; center < n; ++center) {
      ++searches;
      if (screened && ratio[center] > rmin * (1.0 + kCentreScreenSlack)) {
        ++pruned;  // screened out: cannot be the round's winner
        continue;
      }
      std::fill(reached.begin(), reached.end(), 0);
      std::size_t unsettled = labelled, m = 0;
      double acc = step[center];
      ws.run(g, center, relax, [&](double d, NodeId u) {
        if (prunable &&
            spider_degree_bound(acc, m, d) > best_ratio * (1.0 + 1e-9)) {
          ++pruned;
          return false;
        }
        if (comp[u] == kInvalidNode) return true;
        if (!reached[comp[u]]) {
          reached[comp[u]] = 1;
          acc += d;
          if (++m >= 2 && acc / static_cast<double>(m) < best_ratio) {
            best_ratio = acc / static_cast<double>(m);
            best_center = center;
            best_deg = m;
          }
        }
        return --unsettled != 0;
      });
    }

    if (best_center == kInvalidNode) {
      // Cannot merge further — terminals are disconnected.
      break;
    }

    // Re-run the winner (`step` is unchanged) for its parents and targets:
    // per component the lowest id at the cheapest distance, legs sorted by
    // (distance, id). The first-settled node can differ, since a cost-0
    // selected node may be pushed at the distance just popped. With entry
    // costs >= 0 the run ends at the first pop past `cut`, the distance at
    // which the best_deg-th component was reached: by then every node at
    // distance <= cut is settled, ties and cost-0 late pushes included,
    // with its final distance and parent, and every other component lies
    // wholly beyond cut, so the sort picks the same targets and paths.
    ++searches;
    std::fill(reached.begin(), reached.end(), 0);
    std::size_t unsettled = labelled, m = 0;
    double cut = kInfCost;
    ws.run(g, best_center, relax, [&](double d, NodeId u) {
      if (prunable && d > cut) return false;
      if (comp[u] == kInvalidNode) return true;
      if (!reached[comp[u]]) {
        reached[comp[u]] = 1;
        if (++m == best_deg) cut = d;
      }
      return --unsettled != 0;
    });
    std::vector<Item> legs(next_comp, {kInfCost, kInvalidNode});
    for (NodeId v = 0; v < n; ++v)
      if (comp[v] != kInvalidNode && dist[v] < legs[comp[v]].first)
        legs[comp[v]] = {dist[v], v};
    std::sort(legs.begin(), legs.end());
    std::vector<NodeId> best_targets;  // one representative node per comp
    for (std::size_t j = 0; j < best_deg; ++j)
      best_targets.push_back(legs[j].second);

    // Apply the spider: select center and all path nodes; merge components.
    const NodeId merged = comp[best_targets[0]];
    fresh.clear();
    auto select_node = [&](NodeId v) {
      if (!selected[v]) fresh.push_back(v);
      selected[v] = true;
      step[v] = 0.0;
      if (comp[v] == kInvalidNode) {
        comp[v] = merged;
        ++labelled;
      }
    };
    select_node(best_center);
    for (NodeId target : best_targets) {
      for (NodeId cur = target; cur != kInvalidNode && cur != best_center;
           cur = par[cur])
        select_node(cur);
    }
    // Relabel all nodes of merged components.
    std::set<NodeId> merged_comps;
    for (NodeId target : best_targets) merged_comps.insert(comp[target]);
    for (NodeId v = 0; v < n; ++v)
      if (comp[v] != kInvalidNode && merged_comps.count(comp[v]))
        comp[v] = merged;
    active_components -= merged_comps.size() - 1;

    // Rows: merge the merged components' rows into one, then lower every
    // row through the nodes that now cost 0.
    if (!screened || active_components <= 1) continue;
    double* merged_row = rows.data() + merged * n;
    for (NodeId j : merged_comps) {
      if (j == merged) continue;
      alive[j] = 0;
      const double* part = rows.data() + j * n;
      for (NodeId v = 0; v < n; ++v)
        merged_row[v] = std::min(merged_row[v], part[v]);
    }
    for (NodeId j = 0; j < next_comp; ++j) {
      if (!alive[j]) continue;
      double* row = rows.data() + j * n;
      row_heap.clear();
      for (NodeId w : fresh) {
        double best = row[w];
        for (const Adjacency& a : g.neighbors(w))
          best = std::min(best, row[a.neighbor] + step[w]);
        if (best < row[w]) {
          row[w] = best;
          row_heap.emplace_back(best, w);
        }
      }
      std::make_heap(row_heap.begin(), row_heap.end(), std::greater<>{});
      settle_row(row);
    }
  }
  obs::count("graph.klein_ravi.spider_searches", searches);
  obs::count("graph.klein_ravi.pruned_searches", pruned);
  obs::count("graph.klein_ravi.settled_nodes", ws.settled);
  obs::count("graph.klein_ravi.screen_settled", screen_settled);

  // Materialize tree edges: run an MST restricted to selected nodes (any
  // spanning structure works; MST keeps edge cost tidy) from the lowest
  // selected id, then prune.
  const auto first = static_cast<NodeId>(
      std::find(selected.begin(), selected.end(), true) - selected.begin());
  std::set<EdgeId> edges = induced_mst(g, selected, first);
  prune_leaves(g, terminals, edges);
  return assemble(g, terminals, edges);
}

SteinerTree exact_node_weighted_steiner(const Graph& g,
                                        std::span<const NodeId> terminals) {
  EEND_REQUIRE(!terminals.empty());
  std::vector<NodeId> optional;
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (!is_terminal(terminals, v)) optional.push_back(v);
  EEND_REQUIRE_MSG(optional.size() <= 20,
                   "exact solver limited to 20 optional nodes");

  SteinerTree best;
  double best_cost = kInfCost;
  const std::size_t subsets = std::size_t{1} << optional.size();
  for (std::size_t mask = 0; mask < subsets; ++mask) {
    std::vector<bool> active(g.node_count(), false);
    for (NodeId t : terminals) active[t] = true;
    double node_cost = 0.0;
    for (std::size_t i = 0; i < optional.size(); ++i)
      if (mask & (std::size_t{1} << i)) {
        active[optional[i]] = true;
        node_cost += g.node_weight(optional[i]);
      }
    if (node_cost >= best_cost) continue;
    std::vector<Demand> pairwise;
    for (std::size_t i = 1; i < terminals.size(); ++i)
      pairwise.push_back({terminals[0], terminals[i], 1.0});
    if (!demands_satisfiable(g, pairwise, active)) continue;
    // Tree edges: MST over the active induced subgraph, rooted at
    // terminals[0]: rooting at the lowest active id spans the wrong
    // component — and silently rejects a feasible candidate — whenever the
    // mask activates an optional node below terminals[0] that is
    // disconnected from them.
    std::set<EdgeId> edges = induced_mst(g, active, terminals[0]);
    prune_leaves(g, terminals, edges);
    SteinerTree cand = assemble(g, terminals, edges);
    if (cand.feasible && cand.node_cost < best_cost) {
      best_cost = cand.node_cost;
      best = std::move(cand);
    }
  }
  return best;
}

}  // namespace eend::graph
