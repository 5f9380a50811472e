#include "routing/reactive.hpp"

#include <algorithm>
#include <cmath>

namespace eend::routing {

namespace {

/// Does `path` traverse the undirected link a-b?
bool path_uses_link(std::span<const mac::NodeId> path, mac::NodeId a,
                    mac::NodeId b) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if ((path[i] == a && path[i + 1] == b) ||
        (path[i] == b && path[i + 1] == a))
      return true;
  }
  return false;
}

bool contains(std::span<const mac::NodeId> path, mac::NodeId v) {
  return std::find(path.begin(), path.end(), v) != path.end();
}

}  // namespace

ReactiveRouting::ReactiveRouting(NodeEnv env, ReactiveConfig cfg)
    : RoutingProtocol(std::move(env)), cfg_(cfg) {
  env_.mac->set_receive_handler(
      [this](const mac::Packet& p, mac::NodeId from) { on_receive(p, from); });
}

void ReactiveRouting::start() {
  neighbors_ = env_.channel->connectivity_neighbors(env_.id);
  degree_ = neighbors_.size();
}

double ReactiveRouting::effective_rate_over_b(double advertised) const {
  // "When the rate information is not available, h is modified by setting
  // ri/B = 1."
  return advertised > 0.0 ? advertised : 1.0;
}

// ----------------------------------------------------------- data plane ---

void ReactiveRouting::send_data(mac::Packet packet) {
  EEND_REQUIRE(packet.origin == env_.id);
  const mac::NodeId dest = packet.final_dest;
  if (dest == env_.id) {
    ++stats_.data_delivered;
    if (env_.deliver_app) env_.deliver_app(packet);
    return;
  }
  env_.power->notify_data_activity();

  const auto it = cache_.find(dest);
  if (it != cache_.end()) {
    DataBody body;
    body.route = it->second.path;
    body.index = 0;
    if (env_.record_route && packet.flow_id >= 0)
      env_.record_route(packet.flow_id, body.route);
    forward_data(std::move(packet), body);
    return;
  }

  auto& q = buffer_[dest];
  if (q.size() >= cfg_.send_buffer_limit) {
    ++stats_.drops_buffer;
    return;
  }
  q.push_back(Buffered{std::move(packet), env_.sim->now()});
  ensure_discovery(dest);
}

void ReactiveRouting::forward_data(mac::Packet packet, const DataBody& body) {
  EEND_CHECK(body.index + 1 < body.route.size());
  EEND_CHECK(body.route[body.index] == env_.id);
  const mac::NodeId next = body.route[body.index + 1];

  DataBody next_body = body;
  next_body.index = body.index + 1;
  // The source-route header rides in every data frame: add its overhead to
  // the app payload size (handle_data strips it again before re-forwarding,
  // so the app payload size is preserved end to end).
  mac::Packet out = packet;
  out.type = kData;
  out.payload = mac::Packet::wrap(env_.sim->pool(), next_body);
  out.size_bits = data_bits(packet.size_bits, body.route.size());

  // Keep the original payload size for delivery accounting downstream.
  const mac::Packet for_failure = out;
  env_.mac->send_unicast(out, next, env_.data_tx_power(next),
                         [this, for_failure, next_body](bool ok) {
                           if (!ok) handle_link_failure(for_failure, next_body);
                         });
}

void ReactiveRouting::handle_data(const mac::Packet& p) {
  const auto& body = p.body<DataBody>();
  if (body.index >= body.route.size() || body.route[body.index] != env_.id) {
    ++stats_.drops_stale_route;
    return;
  }
  env_.power->notify_data_activity();
  // Strip this hop's source-route overhead: the app sees (and delivery
  // accounting counts) the pure payload; forward_data re-adds the header.
  mac::Packet stripped = p;
  stripped.size_bits -=
      kRouteEntryBits * static_cast<std::uint32_t>(body.route.size());
  if (env_.id == p.final_dest) {
    ++stats_.data_delivered;
    if (env_.deliver_app) env_.deliver_app(stripped);
    return;
  }
  ++stats_.data_forwarded;
  forward_data(std::move(stripped), body);
}

void ReactiveRouting::handle_link_failure(const mac::Packet& packet,
                                          const DataBody& body) {
  ++stats_.drops_mac;
  EEND_CHECK(body.index >= 1);
  const mac::NodeId me = body.route[body.index - 1];
  EEND_CHECK(me == env_.id);
  const mac::NodeId broken_to = body.route[body.index];
  purge_link(me, broken_to);
  (void)packet;
  if (body.index - 1 == 0) {
    // We are the origin: retry discovery so follow-up traffic recovers.
    ensure_discovery(body.route.back());
  } else {
    send_rerr(body, broken_to);
  }
}

void ReactiveRouting::send_rerr(const DataBody& body, mac::NodeId broken_to) {
  RerrBody rerr;
  rerr.broken_from = env_.id;
  rerr.broken_to = broken_to;
  rerr.route = body.route;
  rerr.index = body.index - 1;  // our own position; walk toward 0
  if (rerr.index == 0) return;  // we are the origin; nothing to send

  mac::Packet p;
  p.uid = next_uid_++;
  p.category = energy::Category::Control;
  p.origin = env_.id;
  p.final_dest = body.route.front();
  p.size_bits = rerr_bits();
  p.created_at = env_.sim->now();
  p.type = kRerr;
  RerrBody next = rerr;
  next.index = rerr.index - 1;
  p.payload = mac::Packet::wrap(env_.sim->pool(), next);
  ++stats_.rerr_sent;
  env_.mac->send_unicast(p, body.route[rerr.index - 1], env_.max_tx_power());
}

void ReactiveRouting::handle_rerr(const mac::Packet& p) {
  const auto& body = p.body<RerrBody>();
  if (body.index >= body.route.size() || body.route[body.index] != env_.id)
    return;
  purge_link(body.broken_from, body.broken_to);
  if (body.index == 0) {
    // Origin: repair proactively for queued/future traffic.
    ensure_discovery(body.route.back());
    return;
  }
  mac::Packet fwd = p;
  RerrBody next = body;
  next.index = body.index - 1;
  fwd.payload = mac::Packet::wrap(env_.sim->pool(), next);
  ++stats_.rerr_sent;
  env_.mac->send_unicast(fwd, body.route[body.index - 1],
                         env_.max_tx_power());
}

void ReactiveRouting::purge_link(mac::NodeId a, mac::NodeId b) {
  // eend-lint: allow(unordered-iter) — erase-only sweep: every route using
  // the broken link is dropped, so the surviving cache state is the same
  // for any visit order.
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (path_uses_link(it->second.path, a, b))
      it = cache_.erase(it);
    else
      ++it;
  }
}

// ------------------------------------------------------ route discovery ---

void ReactiveRouting::ensure_discovery(mac::NodeId dest) {
  Discovery& d = discovery_[dest];
  if (d.active) return;
  d.active = true;
  d.tries = 0;
  issue_rreq(dest);
}

void ReactiveRouting::issue_rreq(mac::NodeId dest) {
  Discovery& d = discovery_[dest];
  ++stats_.discoveries;
  ++stats_.rreq_sent;

  RreqBody body;
  body.seq = next_seq_++;
  body.route = {env_.id};
  body.cost = 0.0;

  mac::Packet p;
  p.uid = next_uid_++;
  p.category = energy::Category::Control;
  p.origin = env_.id;
  p.final_dest = dest;
  p.size_bits = rreq_bits(1);
  p.created_at = env_.sim->now();
  p.type = kRreq;
  p.payload = mac::Packet::wrap(env_.sim->pool(), std::move(body));
  env_.mac->send_broadcast(std::move(p), env_.max_tx_power());

  const double timeout =
      cfg_.discovery_timeout_s * std::pow(2.0, static_cast<double>(d.tries));
  d.timeout_event = env_.sim->schedule_in(
      timeout, [this, dest] { on_discovery_timeout(dest); });
}

void ReactiveRouting::on_discovery_timeout(mac::NodeId dest) {
  Discovery& d = discovery_[dest];
  d.timeout_event = sim::kInvalidEvent;
  if (!d.active) return;
  if (cache_.count(dest) > 0) {
    d.active = false;
    return;
  }
  if (++d.tries >= cfg_.max_discovery_tries) {
    d.active = false;
    drop_buffer(dest);
    return;
  }
  issue_rreq(dest);
}

void ReactiveRouting::flush_buffer(mac::NodeId dest) {
  const auto it = buffer_.find(dest);
  if (it == buffer_.end()) return;
  std::deque<Buffered> q = std::move(it->second);
  buffer_.erase(it);
  const double now = env_.sim->now();
  for (Buffered& b : q) {
    if (now - b.queued_at > cfg_.send_buffer_timeout_s) {
      ++stats_.drops_buffer;
      continue;
    }
    send_data(std::move(b.packet));
  }
}

void ReactiveRouting::drop_buffer(mac::NodeId dest) {
  const auto it = buffer_.find(dest);
  if (it == buffer_.end()) return;
  stats_.drops_no_route += it->second.size();
  buffer_.erase(it);
}

bool ReactiveRouting::titan_participates() {
  if (!cfg_.titan) return true;
  if (env_.power->is_active_mode()) return true;
  // PSM node: the more backbone (AM) neighbors it knows of, the likelier
  // an existing backbone path can carry the route without waking it. With
  // no backbone around, it must participate (p -> 1) or floods die out.
  std::size_t n_am = 0;
  if (env_.neighbor_is_am)
    for (mac::NodeId n : neighbors_)
      if (env_.neighbor_is_am(n)) ++n_am;
  const double p =
      std::clamp(cfg_.titan_alpha / (1.0 + static_cast<double>(n_am)),
                 cfg_.titan_pmin, 1.0);
  return env_.rng.bernoulli(p);
}

ReactiveRouting::SeenTable::Slot& ReactiveRouting::SeenTable::probe(
    std::uint64_t key) {
  if (slots_.empty()) slots_.resize(128);
  const std::size_t mask = slots_.size() - 1;
  // Multiplicative hashing: consecutive seqs of one origin spread out.
  std::size_t i = (key * 0x9E3779B97F4A7C15ull) >> 32 & mask;
  while (slots_[i].key != key && slots_[i].key != 0) i = (i + 1) & mask;
  return slots_[i];
}

void ReactiveRouting::SeenTable::insert(Slot& empty, std::uint64_t key,
                                        double best) {
  EEND_CHECK(key != 0 && empty.key == 0);
  empty = Slot{key, best};
  if (2 * ++used_ > slots_.size()) grow();
}

void ReactiveRouting::SeenTable::grow() {
  std::vector<Slot> old(2 * slots_.size());
  old.swap(slots_);
  for (const Slot& s : old)
    if (s.key != 0) probe(s.key) = s;
}

void ReactiveRouting::handle_rreq(const mac::Packet& p, mac::NodeId from) {
  const auto& body = p.body<RreqBody>();
  if (p.origin == env_.id) return;
  (void)from;

  // Read only the link-cost inputs the metric uses; link_cost ignores the
  // others, so the defaults below never change a cost.
  const mac::NodeId prev = body.route.back();
  const double dist =
      uses_distance(cfg_.metric) ? env_.distance_to(prev) : 0.0;
  const bool me_am = uses_relay_state(cfg_.metric)
                         ? env_.power->is_active_mode()
                         : true;
  const double c = link_cost(cfg_.metric, env_.radio->card(), dist, me_am,
                             effective_rate_over_b(env_.rate_over_b));
  const double total = body.cost + c;

  // A copy that does not improve the best seen by the margin is dropped
  // before the loop scan: both returns leave every state untouched.
  const std::uint64_t key =
      std::uint64_t{p.origin} << 32 | std::uint64_t{body.seq};
  SeenTable::Slot& seen = rreq_best_.probe(key);
  if (seen.key == key && total >= seen.best * cfg_.cost_improve_factor) {
    ++stats_.rreq_suppressed;
    return;
  }
  if (contains(body.route, env_.id)) return;  // routing loop
  if (seen.key == key)
    seen.best = std::min(total, seen.best);
  else
    rreq_best_.insert(seen, key, total);

  const bool i_am_target = p.final_dest == env_.id;
  if (i_am_target) {
    // Reply along the accumulated route.
    RrepBody rep;
    rep.route = body.route;
    rep.route.push_back(env_.id);
    rep.cost = total;
    rep.index = static_cast<std::uint32_t>(rep.route.size() - 1);
    env_.power->notify_route_activity();

    mac::Packet out;
    out.uid = next_uid_++;
    out.category = energy::Category::Control;
    out.origin = env_.id;
    out.final_dest = p.origin;
    out.size_bits = rrep_bits(rep.route.size());
    out.created_at = env_.sim->now();
    out.type = kRrep;
    const mac::NodeId prev_hop = rep.route[rep.index - 1];
    RrepBody next = rep;
    next.index = rep.index - 1;
    out.payload = mac::Packet::wrap(env_.sim->pool(), std::move(next));
    ++stats_.rrep_sent;
    env_.mac->send_unicast(std::move(out), prev_hop, env_.max_tx_power());
    return;
  }

  if (static_cast<int>(body.route.size()) >= cfg_.max_route_len) return;
  if (!titan_participates()) return;

  RreqBody fwd = body;
  fwd.route.push_back(env_.id);
  fwd.cost = total;
  mac::Packet out = p;
  out.uid = next_uid_++;
  out.size_bits = rreq_bits(fwd.route.size());
  out.payload = mac::Packet::wrap(env_.sim->pool(), std::move(fwd));
  ++stats_.rreq_forwarded;
  env_.mac->send_broadcast(std::move(out), env_.max_tx_power());
}

void ReactiveRouting::install_route(mac::NodeId dest,
                                    std::vector<mac::NodeId> path,
                                    double cost) {
  auto it = cache_.find(dest);
  if (it == cache_.end() || cost < it->second.cost)
    cache_[dest] = CachedRoute{std::move(path), cost};
}

void ReactiveRouting::handle_rrep(const mac::Packet& p) {
  const auto& body = p.body<RrepBody>();
  if (body.index >= body.route.size() || body.route[body.index] != env_.id)
    return;
  env_.power->notify_route_activity();

  // Cache the route segment ahead of us (toward the replying target).
  std::vector<mac::NodeId> segment(body.route.begin() + body.index,
                                   body.route.end());
  install_route(body.route.back(), std::move(segment), body.cost);

  if (body.index == 0) {
    // Discovery complete at the origin.
    Discovery& d = discovery_[body.route.back()];
    if (d.active) {
      d.active = false;
      if (d.timeout_event != sim::kInvalidEvent)
        env_.sim->cancel(d.timeout_event);
    }
    flush_buffer(body.route.back());
    return;
  }

  mac::Packet fwd = p;
  RrepBody next = body;
  next.index = body.index - 1;
  fwd.payload = mac::Packet::wrap(env_.sim->pool(), std::move(next));
  ++stats_.rrep_sent;
  env_.mac->send_unicast(std::move(fwd), body.route[body.index - 1],
                         env_.max_tx_power());
}

// ------------------------------------------------------------- dispatch ---

void ReactiveRouting::on_receive(const mac::Packet& p, mac::NodeId from) {
  switch (p.type) {
    case kData: handle_data(p); break;
    case kRreq: handle_rreq(p, from); break;
    case kRrep: handle_rrep(p); break;
    case kRerr: handle_rerr(p); break;
    default: break;
  }
}

std::vector<mac::NodeId> ReactiveRouting::cached_route(
    mac::NodeId dest) const {
  const auto it = cache_.find(dest);
  return it == cache_.end() ? std::vector<mac::NodeId>{} : it->second.path;
}

}  // namespace eend::routing
