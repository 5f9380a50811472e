#include "graph/steiner.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
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

/// Per node of g: 1 for the terminals, else 0.
std::vector<char> terminal_mask(const Graph& g,
                                std::span<const NodeId> terminals) {
  std::vector<char> term(g.node_count(), 0);
  for (NodeId t : terminals) term[t] = 1;
  return term;
}

/// Build the result record from the tree edges in g, sorted by id.
SteinerTree assemble(const Graph& g, std::span<const NodeId> terminals,
                     std::vector<EdgeId> edges) {
  const std::size_t n = g.node_count();
  const std::vector<char> term = terminal_mask(g, terminals);
  std::vector<char> in = term;
  // Feasibility: all terminals in one component of the tree subgraph.
  std::vector<NodeId> root(n);
  for (NodeId v = 0; v < n; ++v) root[v] = v;
  const auto find = [&](NodeId v) {
    while (root[v] != v) v = root[v] = root[root[v]];
    return v;
  };
  SteinerTree t;
  for (EdgeId e : edges) {
    const Edge& ed = g.edge(e);
    in[ed.u] = in[ed.v] = 1;
    t.edge_cost += ed.weight;
    root[find(ed.u)] = find(ed.v);
  }
  t.edges = std::move(edges);
  for (NodeId v = 0; v < n; ++v) {
    if (!in[v]) continue;
    t.nodes.push_back(v);
    if (!term[v]) t.node_cost += g.node_weight(v);
  }
  t.feasible = std::all_of(terminals.begin(), terminals.end(), [&](NodeId v) {
    return find(v) == find(terminals[0]);
  });
  return t;
}

/// Edges of g forming Prim's MST, from `root`, of the subgraph induced by
/// the nodes with in(v) true (nodes renumbered in id order, edges kept in
/// id order), sorted by id.
template <class In>
std::vector<EdgeId> induced_mst(const Graph& g, In in, NodeId root) {
  std::vector<NodeId> remap(g.node_count(), kInvalidNode);
  Graph sub;
  std::vector<EdgeId> back;
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (in(v)) remap[v] = sub.add_node();
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    if (remap[ed.u] != kInvalidNode && remap[ed.v] != kInvalidNode) {
      sub.add_edge(remap[ed.u], remap[ed.v], ed.weight);
      back.push_back(e);
    }
  }
  std::vector<EdgeId> edges;
  for (EdgeId se : prim_mst(sub, remap[root]).edges) edges.push_back(back[se]);
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Remove non-terminal leaves repeatedly (final KMB step) from `edges`,
/// which stay in their order. The leaf-removal fixed point is unique
/// whatever the removal order, so a worklist over incremental degree
/// counts visits each edge O(1) times instead of rebuilding the full
/// incident lists every sweep. A node of degree 1 finds its one live
/// edge as the XOR of its live edges' positions in `edges`.
void prune_leaves(const Graph& g, std::span<const NodeId> terminals,
                  std::vector<EdgeId>& edges) {
  const std::size_t n = g.node_count();
  const std::vector<char> term = terminal_mask(g, terminals);
  std::vector<std::size_t> degree(n, 0), live_xor(n, 0);
  for (std::size_t i = 0; i < edges.size(); ++i)
    for (NodeId v : {g.edge(edges[i]).u, g.edge(edges[i]).v}) {
      ++degree[v];
      live_xor[v] ^= i;
    }
  std::vector<char> live(edges.size(), 1);
  std::vector<NodeId> work;
  for (NodeId v = 0; v < n; ++v)
    if (degree[v] == 1 && !term[v]) work.push_back(v);
  while (!work.empty()) {
    const NodeId v = work.back();
    work.pop_back();
    if (degree[v] != 1) continue;  // re-queued stale entry or already pruned
    const std::size_t i = live_xor[v];
    live[i] = 0;
    for (NodeId end : {g.edge(edges[i]).u, g.edge(edges[i]).v}) {
      --degree[end];
      live_xor[end] ^= i;
      if (degree[end] == 1 && !term[end]) work.push_back(end);
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < edges.size(); ++i)
    if (live[i]) edges[kept++] = edges[i];
  edges.resize(kept);
}

}  // namespace

void prune_leaves(const Graph& g, std::span<const NodeId> terminals,
                  std::set<EdgeId>& edges) {
  std::vector<EdgeId> flat(edges.begin(), edges.end());
  prune_leaves(g, terminals, flat);
  edges = std::set<EdgeId>(flat.begin(), flat.end());
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
  std::vector<EdgeId> chosen;  // sorted and made unique before use
  const auto sort_unique = [](std::vector<EdgeId>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  for (std::size_t round = 1; round < k; ++round) {
    std::size_t next = k;
    for (std::size_t j = 0; j < k; ++j)
      if (!in_tree[j] && (next == k || best[j] < best[next])) next = j;
    if (next == k || best[next] == kInfCost) {
      // Disconnected terminals: return infeasible result.
      sort_unique(chosen);
      return assemble(g, terminals, std::move(chosen));
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
      chosen.push_back(cheapest);
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
  sort_unique(chosen);
  {
    std::vector<NodeId> remap(g.node_count(), kInvalidNode);
    Graph sub;
    for (EdgeId e : chosen) {
      for (NodeId endpoint : {g.edge(e).u, g.edge(e).v})
        if (remap[endpoint] == kInvalidNode) remap[endpoint] = sub.add_node();
      sub.add_edge(remap[g.edge(e).u], remap[g.edge(e).v], g.edge(e).weight);
    }
    if (sub.node_count() > 0) {
      std::vector<EdgeId> kept;
      for (EdgeId se : prim_mst(sub, 0).edges) kept.push_back(chosen[se]);
      std::sort(kept.begin(), kept.end());
      chosen = std::move(kept);
    }
  }
  prune_leaves(g, terminals, chosen);
  return assemble(g, terminals, std::move(chosen));
}

SteinerTree klein_ravi_steiner(const Graph& g,
                               std::span<const NodeId> terminals) {
  EEND_REQUIRE(!terminals.empty());
  for (NodeId t : terminals) EEND_REQUIRE(g.valid_node(t));
  const std::size_t n = g.node_count();
  // Entry costs >= 0 end every spider search; the bound and screen need it.
  for (NodeId v = 0; v < n; ++v)
    EEND_REQUIRE_MSG(g.node_weight(v) >= 0.0,
                     "Klein-Ravi needs node weights >= 0; node "
                         << v << " has " << g.node_weight(v));

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
  // m's ratio is acc / m with acc = step[center] + legs 1..m. Entry costs
  // are >= 0, so every later leg costs at least the distance d being
  // settled and no unseen degree has a ratio below
  // spider_degree_bound(acc, m, d): the next degree's (acc + d) / (m + 1)
  // when d >= acc / m, else d. Only a strictly smaller ratio wins, so a
  // search stops once that bound beats the round's best ratio by more
  // than the rounding of ~20 additions, or once every component-labelled
  // node is settled.
  SpWorkspace ws(n);
  const std::vector<double>& dist = ws.tree.distance;
  const std::vector<NodeId>& par = ws.tree.parent;
  std::vector<char> reached(next_comp);  // per component: leg taken
  std::uint64_t searches = 0, pruned = 0, row_centres = 0;
  const auto relax = [&](double d, const Adjacency& a) {
    return d + step[a.neighbor];
  };

  // The centre screen. Row j holds L_j[v], the distance from component j
  // to v under `relax` (all of j sits at 0: its nodes cost 0 and are
  // connected). Reversing a path moves the charge from its far end onto
  // v, so v's leg to j is L_j[v] - step[v], and sorting v's legs gives
  // its spider ratio r(v) up to rounding. After a merge only entry costs
  // drop: the merged component's row starts as the minimum of its parts'
  // rows, and every row takes just the decreases from the newly selected
  // nodes. Float addition is monotone, so that is exactly the row a full
  // search would give (the least float path sum).
  const bool screened = centre_screen_exact(next_comp, n);
  std::vector<double> rows(screened ? next_comp * n : 0, kInfCost);
  std::vector<char> alive(next_comp, 1), merging(next_comp);
  std::vector<NodeId> fresh;           // nodes the last merge selected
  std::vector<NodeId> lead(next_comp);  // per component: its lowest id
  std::vector<double> ratio(n), legs_of, leg(next_comp);
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
    // Spider degree m of `center`, whose legs 1..m sum with its own entry
    // cost to acc, offered to the round's argmin.
    const auto offer = [&](double acc, std::size_t m, NodeId center) {
      if (m >= 2 && acc / static_cast<double>(m) < best_ratio) {
        best_ratio = acc / static_cast<double>(m);
        best_center = center;
        best_deg = m;
      }
    };

    // Three kinds of centre, in id order; each scores exactly what a full
    // spider search from it would, or cannot win.
    //  * A component member after its lowest id is skipped. Every node of
    //    component J costs 0 and J is connected through nodes that cost 0,
    //    so a search from any of them reaches all of J at 0 and gives each
    //    node x the least float path sum from J: legs and ratios are
    //    bitwise those of J's lowest id, which comes first and keeps the
    //    round's argmin, as only a strictly smaller ratio wins.
    //  * J's lowest id, with the screen on, reads its legs off row J: leg
    //    k is the least L_J[x] over the nodes x of component k, which is
    //    the distance at which its search settles k's first node. Sorted,
    //    they fold into acc in the search's order, so every degree offers
    //    the search's float ratio.
    //  * Every other centre runs the bound-pruned search. The screen skips
    //    a centre more than kCentreScreenSlack above the round's smallest
    //    r(v), which the winner never is. r(v) is computed for free nodes
    //    and lowest ids only; any subset's minimum keeps the winner, since
    //    the winner's r(v) is within the slack of every r(v).
    double rmin = kInfCost;
    if (screened) {
      std::fill(lead.begin(), lead.end(), kInvalidNode);
      for (NodeId v = 0; v < n; ++v) {
        ratio[v] = kInfCost;
        if (comp[v] != kInvalidNode) {
          if (lead[comp[v]] != kInvalidNode) continue;
          lead[comp[v]] = v;
        }
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
      const NodeId own = screened ? comp[center] : kInvalidNode;
      if ((own != kInvalidNode && lead[own] != center) ||
          (screened && ratio[center] > rmin * (1.0 + kCentreScreenSlack))) {
        ++pruned;  // cannot be the round's winner
        continue;
      }
      if (own != kInvalidNode) {
        ++row_centres;
        const double* row = rows.data() + own * n;
        std::fill(leg.begin(), leg.end(), kInfCost);
        for (NodeId x = 0; x < n; ++x)
          if (comp[x] != kInvalidNode)
            leg[comp[x]] = std::min(leg[comp[x]], row[x]);
        std::sort(leg.begin(), leg.end());
        double acc = step[center];
        for (std::size_t m = 1; m <= leg.size() && leg[m - 1] < kInfCost; ++m)
          offer(acc += leg[m - 1], m, center);
        continue;
      }
      std::fill(reached.begin(), reached.end(), 0);
      std::size_t unsettled = labelled, m = 0;
      double acc = step[center];
      ws.run(g, center, relax, [&](double d, NodeId u) {
        if (spider_degree_bound(acc, m, d) > best_ratio * (1.0 + 1e-9)) {
          ++pruned;
          return false;
        }
        if (comp[u] == kInvalidNode) return true;
        if (!reached[comp[u]]) {
          reached[comp[u]] = 1;
          offer(acc += d, ++m, center);
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
      if (d > cut) return false;
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
    std::fill(merging.begin(), merging.end(), 0);
    std::size_t merged_count = 0;
    for (NodeId target : best_targets)
      if (!merging[comp[target]]) {
        merging[comp[target]] = 1;
        ++merged_count;
      }
    for (NodeId v = 0; v < n; ++v)
      if (comp[v] != kInvalidNode && merging[comp[v]]) comp[v] = merged;
    active_components -= merged_count - 1;
    if (active_components <= 1) continue;

    // Rows: merge the merged components' rows into one, then lower every
    // row through the nodes that now cost 0.
    if (!screened) continue;
    double* merged_row = rows.data() + merged * n;
    for (NodeId j = 0; j < next_comp; ++j) {
      if (!merging[j] || j == merged) continue;
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
  obs::count("graph.klein_ravi.row_centres", row_centres);

  // Materialize tree edges: run an MST restricted to selected nodes (any
  // spanning structure works; MST keeps edge cost tidy) from the lowest
  // selected id, then prune.
  const auto first = static_cast<NodeId>(
      std::find(selected.begin(), selected.end(), true) - selected.begin());
  std::vector<EdgeId> edges =
      induced_mst(g, [&](NodeId v) { return selected[v]; }, first);
  prune_leaves(g, terminals, edges);
  return assemble(g, terminals, std::move(edges));
}

SteinerTree exact_node_weighted_steiner(const Graph& g,
                                        std::span<const NodeId> terminals) {
  EEND_REQUIRE(!terminals.empty());
  std::vector<NodeId> optional;
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (!is_terminal(terminals, v)) optional.push_back(v);
  EEND_REQUIRE_MSG(optional.size() <= 20,
                   "exact solver limited to 20 optional nodes");

  std::vector<Demand> pairwise;
  for (std::size_t i = 1; i < terminals.size(); ++i)
    pairwise.push_back({terminals[0], terminals[i], 1.0});
  SteinerTree best;
  double best_cost = kInfCost;
  const std::size_t subsets = std::size_t{1} << optional.size();
  for (std::size_t mask = 0; mask < subsets; ++mask) {
    std::vector<char> off(g.node_count(), 1);  // nodes left out
    for (NodeId t : terminals) off[t] = 0;
    double node_cost = 0.0;
    for (std::size_t i = 0; i < optional.size(); ++i)
      if (mask & (std::size_t{1} << i)) {
        off[optional[i]] = 0;
        node_cost += g.node_weight(optional[i]);
      }
    if (node_cost >= best_cost) continue;
    if (!demands_satisfiable(g, pairwise, off)) continue;
    // Tree edges: MST over the active induced subgraph, rooted at
    // terminals[0]: rooting at the lowest active id spans the wrong
    // component — and silently rejects a feasible candidate — whenever the
    // mask activates an optional node below terminals[0] that is
    // disconnected from them.
    std::vector<EdgeId> edges =
        induced_mst(g, [&](NodeId v) { return !off[v]; }, terminals[0]);
    prune_leaves(g, terminals, edges);
    SteinerTree cand = assemble(g, terminals, std::move(edges));
    if (cand.feasible && cand.node_cost < best_cost) {
      best_cost = cand.node_cost;
      best = std::move(cand);
    }
  }
  return best;
}

}  // namespace eend::graph
