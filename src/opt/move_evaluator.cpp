#include "opt/move_evaluator.hpp"

#include <algorithm>

#include "obs/counters.hpp"

namespace eend::opt {

void MoveSurface::rebuild(const graph::ArcIndex& arcs,
                          std::span<const graph::NodeId> nodes,
                          std::span<const graph::NodeId> terminals) {
  const std::size_t n = arcs.first.size();
  in_design.assign(n, 0);
  for (graph::NodeId v : nodes) in_design[v] = 1;
  relays.clear();
  frontier.clear();
  swaps.clear();
  swap_begin.assign(1, 0);
  view.first.assign(n, 0);
  view.last.assign(n, 0);
  view.arcs.clear();
  view.rank_count = arcs.rank_count;
  for (graph::NodeId v : nodes) {
    if (std::binary_search(terminals.begin(), terminals.end(), v)) continue;
    relays.push_back(v);
  }
  std::sort(relays.begin(), relays.end());
  // One walk over the design's arcs records the view and the frontier.
  // Frontier nodes are marked as they are found (2 = listed), so the sort
  // sees each once; the marks are cleared again below.
  for (graph::NodeId v : nodes) {
    view.first[v] = static_cast<std::uint32_t>(view.arcs.size());
    for (const graph::RankedArc& a : arcs.of(v)) {
      if (in_design[a.neighbor] == 1) {
        view.arcs.push_back(a);
      } else if (!in_design[a.neighbor]) {
        in_design[a.neighbor] = 2;
        frontier.push_back(a.neighbor);
      }
    }
    view.last[v] = static_cast<std::uint32_t>(view.arcs.size());
    view.arcs.push_back({});  // spare slot
  }
  for (graph::NodeId u : frontier) in_design[u] = 0;
  std::sort(frontier.begin(), frontier.end());
  for (graph::NodeId v : relays) {
    const auto first = static_cast<std::ptrdiff_t>(swaps.size());
    for (const graph::RankedArc& a : arcs.of(v))
      if (!in_design[a.neighbor]) swaps.push_back(a.neighbor);
    std::sort(swaps.begin() + first, swaps.end());
    swaps.erase(std::unique(swaps.begin() + first, swaps.end()), swaps.end());
    swap_begin.push_back(swaps.size());
  }
}

namespace {

/// Whether design node x's view ends in an arc to u — the spare slot
/// MoveSurface::open(u) fills (x's own arcs all lead into the design).
bool spare_holds(const graph::ArcIndex& view, graph::NodeId x,
                 graph::NodeId u) {
  return view.last[x] > view.first[x] &&
         view.arcs[view.last[x] - 1].neighbor == u;
}

}  // namespace

void MoveSurface::open(const graph::ArcIndex& arcs, graph::NodeId u) {
  view.first[u] = static_cast<std::uint32_t>(view.arcs.size());
  for (const graph::RankedArc& a : arcs.of(u)) {
    const graph::NodeId x = a.neighbor;
    if (!in_design[x]) continue;
    view.arcs.push_back(a);
    // A parallel edge finds the spare slot filled already.
    if (!spare_holds(view, x, u))
      view.arcs[view.last[x]++] = {u, a.rank, a.weight};
  }
  view.last[u] = static_cast<std::uint32_t>(view.arcs.size());
}

void MoveSurface::close(graph::NodeId u) {
  for (const graph::RankedArc& a : view.of(u))
    if (spare_holds(view, a.neighbor, u)) --view.last[a.neighbor];
  view.arcs.resize(view.first[u]);
  view.first[u] = view.last[u] = 0;
}

TerminalRows::TerminalRows(const core::NetworkDesignProblem& problem) {
  const std::vector<graph::NodeId> terminals = problem.terminals();
  const std::size_t n = problem.graph().node_count();
  graph::SpWorkspace ws(n);
  dist.resize(terminals.size() * n);
  for (std::size_t k = 0; k < terminals.size(); ++k) {
    ws.run(
        terminals[k], [&](graph::NodeId u) { return problem.arcs().of(u); },
        [](double d, const graph::RankedArc& a) { return d + a.weight; },
        [](double, graph::NodeId) { return true; });
    std::copy(ws.tree.distance.begin(), ws.tree.distance.end(),
              dist.begin() + static_cast<std::ptrdiff_t>(k * n));
  }
  const auto row_of = [&](graph::NodeId v) {
    return static_cast<std::size_t>(
        std::lower_bound(terminals.begin(), terminals.end(), v) -
        terminals.begin());
  };
  for (const graph::Demand& d : problem.demands()) {
    src_row.push_back(row_of(d.source) * n);
    dst_row.push_back(row_of(d.destination) * n);
  }
  obs::count("opt.route.searches", terminals.size());
  obs::count("opt.route.settled_nodes", ws.settled);
}

MoveEvaluator::MoveEvaluator(
    const core::NetworkDesignProblem& problem,
    const DesignObjective& objective, const CandidateDesign& incumbent,
    const std::vector<analytical::RoutedDemand>* routes,
    const TerminalRows* rows)
    : problem_(problem),
      objective_(objective),
      terminals_(problem.terminals()),
      incumbent_(incumbent),
      rows_(rows ? rows : &own_rows_.emplace(problem)),
      ws_(problem.graph().node_count()),
      from_u_(problem.graph().node_count(), graph::kInfCost),
      needed_(problem.graph().node_count(), 0) {
  EEND_REQUIRE_MSG(incumbent.feasible,
                   "the move evaluator needs a feasible incumbent");
  const auto& demands = problem_.demands();
  surface_.rebuild(problem_.arcs(), incumbent_.nodes, terminals_);
  keep_.assign(demands.size(), nullptr);

  if (routes && routes->size() == demands.size())
    routes_ = *routes;
  else
    EEND_REQUIRE_MSG(route({}, routes_),
                     "the move evaluator's incumbent must route every demand");
  set_bounds();
}

MoveEvaluator::~MoveEvaluator() {
  if (reused_routes_) obs::count("opt.move.reused_routes", reused_routes_);
  if (searches_) {
    obs::count("opt.route.searches", searches_);
    obs::count("opt.route.settled_nodes", settled_);
  }
}

bool MoveEvaluator::route(
    std::span<const std::vector<graph::NodeId>* const> keep,
    std::vector<analytical::RoutedDemand>& routes) {
  const graph::ArcIndex& view = surface_.view;
  return problem_.route_demands(
      surface_.in_design, [&view](graph::NodeId x) { return view.of(x); },
      keep, ws_, routes);
}

void MoveEvaluator::set_bounds() {
  // graph::path_cost's sum, on the view's weights.
  bound_.clear();
  for (const analytical::RoutedDemand& r : routes_) {
    double cost = 0.0;
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i)
      cost += surface_.view.find(r.path[i], r.path[i + 1])->weight;
    bound_.push_back(cost * (1.0 + kScreenMargin));
  }
}

void MoveEvaluator::screen_from(graph::NodeId u) {
  // The search stops past the largest pending bound, or once every pending
  // demand's endpoints have settled.
  const auto& demands = problem_.demands();
  double limit = 0.0;
  std::size_t unsettled = 0;
  for (std::size_t i : pending_) {
    limit = std::max(limit, bound_[i]);
    for (graph::NodeId x : {demands[i].source, demands[i].destination})
      if (!needed_[x]) {
        needed_[x] = 1;
        ++unsettled;
      }
  }
  const std::vector<char>& allowed = surface_.in_design;
  const graph::ArcIndex& view = surface_.view;
  const std::uint64_t before = ws_.settled;
  ws_.run(
      u, [&view](graph::NodeId x) { return view.of(x); },
      [&](double d, const graph::RankedArc& a) {
        return allowed[a.neighbor] ? d + a.weight : graph::kInfCost;
      },
      [&](double d, graph::NodeId x) {
        if (d > limit) return false;
        from_u_[x] = d;
        from_u_settled_.push_back(x);
        return !(needed_[x] && --unsettled == 0);
      });
  ++searches_;
  settled_ += ws_.settled - before;
  for (std::size_t i : pending_) {
    const graph::Demand& d = demands[i];
    needed_[d.source] = needed_[d.destination] = 0;
    if (from_u_[d.source] + from_u_[d.destination] > bound_[i])
      keep_[i] = &routes_[i].path;
  }
  for (graph::NodeId x : from_u_settled_) from_u_[x] = graph::kInfCost;
  from_u_settled_.clear();
}

void MoveEvaluator::score(Move move, Scored& out) {
  const graph::NodeId v = move.close, u = move.open;
  const bool closing = v != graph::kInvalidNode;
  const bool opening = u != graph::kInvalidNode;
  EEND_REQUIRE(!closing || surface_.in_design[v]);
  EEND_REQUIRE(!opening || !surface_.in_design[u]);
  std::vector<char>& allowed = surface_.in_design;
  if (opening) {
    surface_.open(problem_.arcs(), u);
    allowed[u] = 1;
  }
  if (closing) allowed[v] = 0;

  std::fill(keep_.begin(), keep_.end(), nullptr);
  pending_.clear();
  for (std::size_t i = 0; i < routes_.size(); ++i) {
    const std::vector<graph::NodeId>& path = routes_[i].path;
    if (closing && std::find(path.begin(), path.end(), v) != path.end())
      continue;  // crosses the closed relay: reroute
    if (opening && !(rows_->dist[rows_->src_row[i] + u] +
                         rows_->dist[rows_->dst_row[i] + u] >
                     bound_[i])) {
      pending_.push_back(i);  // the global rows cannot clear it
      continue;
    }
    keep_[i] = &path;
  }
  if (!pending_.empty()) screen_from(u);
  reused_routes_ += static_cast<std::uint64_t>(
      std::count_if(keep_.begin(), keep_.end(),
                    [](const auto* p) { return p != nullptr; }));

  const bool ok = route(keep_, out.routes);
  // Eq. 5 reads the hops through u from the view, so it runs before the
  // move is undone.
  if (ok)
    score_routes(problem_.graph(), surface_.view, out.routes, objective_,
                 eq5_, out.design);
  if (closing) allowed[v] = 1;
  if (opening) {
    allowed[u] = 0;
    surface_.close(u);
  }
  if (ok) return;
  // Infeasible: the candidate's node set, sorted, and an empty score —
  // what evaluate_design returns.
  CandidateDesign& d = out.design;
  d.nodes = incumbent_.nodes;
  if (closing) d.nodes.erase(std::find(d.nodes.begin(), d.nodes.end(), v));
  if (opening) d.nodes.push_back(u);
  std::sort(d.nodes.begin(), d.nodes.end());
  d.score = {};
  d.feasible = false;
  d.max_node_load = 0.0;
  d.lifetime_penalty = 0.0;
}

bool MoveEvaluator::best_move(const std::vector<char>* region, Scored& best,
                              std::size_t& evaluations) {
  bool found = false;
  for_each_move(surface_, region, [&](Move m) {
    ++evaluations;
    score(m, cand_);
    if (!cand_.design.feasible) return;
    if (!found || cand_.design.cost() < best.design.cost()) {
      std::swap(best, cand_);
      found = true;
    }
  });
  return found;
}

void MoveEvaluator::adopt(Scored& s) {
  EEND_REQUIRE_MSG(s.design.feasible, "cannot adopt an infeasible design");
  std::swap(incumbent_, s.design);
  std::swap(routes_, s.routes);
  surface_.rebuild(problem_.arcs(), incumbent_.nodes, terminals_);
  set_bounds();
}

}  // namespace eend::opt
