#include "routing/dsdv.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace eend::routing {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;
}  // namespace

DsdvRouting::DsdvRouting(NodeEnv env, DsdvConfig cfg)
    : RoutingProtocol(std::move(env)), cfg_(cfg) {
  env_.mac->set_receive_handler(
      [this](const mac::Packet& p, mac::NodeId from) { on_receive(p, from); });
}

DsdvEntry DsdvRouting::own_entry() {
  return DsdvEntry{env_.id, own_seq_, 0.0};
}

void DsdvRouting::start() {
  const std::size_t n = env_.channel->node_count();
  table_.assign(n, Entry{});
  link_cost_.assign(2 * n, std::numeric_limits<double>::quiet_NaN());
  table_[env_.id] = Entry{0, 0.0, env_.id, true, true, false};
  known_.insert(env_.id);
  const double first = env_.rng.uniform(0.0, cfg_.startup_jitter_s);
  env_.sim->schedule_in(first, [this] { periodic_dump(); });
  if (cfg_.quality_update_interval_s > 0.0) schedule_quality_tick();
}

void DsdvRouting::schedule_quality_tick() {
  const double delay =
      cfg_.quality_update_interval_s * env_.rng.uniform(0.7, 1.3);
  env_.sim->schedule_in(delay, [this] {
    // Re-assess a few routes: their advertised costs will be re-adopted by
    // neighbors with fresh quality noise, modeling fading-driven metric
    // drift that the distance-only phy cannot produce.
    std::vector<mac::NodeId> valid;
    // eend-lint: allow(unordered-iter) — pre-shuffle collection: known_'s
    // order is a function of the first-adoption sequence alone, which does
    // not depend on --jobs; walking ids in order instead would re-roll the
    // synthesized churn subset and invalidate the pinned dsdvh goldens. The
    // chosen subset is sorted by id before it goes on the wire.
    for (const mac::NodeId dest : known_)
      if (dest != env_.id && table_[dest].valid) valid.push_back(dest);
    env_.rng.shuffle(valid);
    const std::size_t n =
        std::min(cfg_.quality_update_entries, valid.size());
    for (std::size_t i = 0; i < n; ++i) mark_dirty(valid[i]);
    if (n > 0) schedule_triggered();
    schedule_quality_tick();
  });
}

void DsdvRouting::periodic_dump() {
  own_seq_ += 2;
  table_[env_.id].seq = own_seq_;
  std::vector<DsdvEntry> entries;
  entries.reserve(known_.size());
  // eend-lint: allow(unordered-iter) — wire order is behavior-neutral for
  // table CONTENTS (receivers fold each dest independently), but it fixes
  // the order receivers first adopt dests, i.e. the order of their own
  // known_, which the quality-churn shuffle input (see
  // schedule_quality_tick) pins. Sorting here re-rolls the dsdvh goldens.
  for (const mac::NodeId dest : known_) {
    const Entry& e = table_[dest];
    entries.push_back(DsdvEntry{dest, e.seq, e.valid ? e.metric : kInf});
  }
  broadcast_entries(std::move(entries));
  clear_dirty();
  env_.sim->schedule_in(cfg_.periodic_interval_s, [this] { periodic_dump(); });
}

void DsdvRouting::schedule_triggered() {
  if (dirty_.empty() || trigger_event_ != sim::kInvalidEvent) return;
  const double earliest =
      std::max(env_.sim->now(),
               last_update_tx_ + cfg_.triggered_min_interval_s);
  trigger_event_ = env_.sim->schedule_at(earliest, [this] {
    trigger_event_ = sim::kInvalidEvent;
    send_triggered();
  });
}

void DsdvRouting::send_triggered() {
  if (dirty_.empty()) return;
  // Ascending id order on the wire.
  std::sort(dirty_.begin(), dirty_.end());
  std::vector<DsdvEntry> entries;
  entries.reserve(dirty_.size() + 1);
  entries.push_back(own_entry());
  for (const mac::NodeId dest : dirty_) {
    const Entry& e = table_[dest];
    entries.push_back(DsdvEntry{dest, e.seq, e.valid ? e.metric : kInf});
  }
  clear_dirty();
  broadcast_entries(std::move(entries));
}

void DsdvRouting::mark_dirty(mac::NodeId dest) {
  Entry& e = table_[dest];
  if (e.dirty) return;
  e.dirty = true;
  dirty_.push_back(dest);
}

void DsdvRouting::clear_dirty() {
  for (const mac::NodeId dest : dirty_) table_[dest].dirty = false;
  dirty_.clear();
}

void DsdvRouting::broadcast_entries(std::vector<DsdvEntry> entries) {
  DsdvBody body;
  body.sender_is_am = env_.power->is_active_mode();
  const std::size_t count = entries.size();
  body.entries = std::move(entries);

  mac::Packet p;
  p.uid = next_uid_++;
  p.category = energy::Category::Control;
  p.origin = env_.id;
  p.final_dest = mac::kBroadcast;
  p.size_bits = dsdv_bits(count);
  p.created_at = env_.sim->now();
  p.type = kDsdvUpdate;
  p.payload = mac::Packet::wrap(env_.sim->pool(), std::move(body));
  ++stats_.updates_sent;
  last_update_tx_ = env_.sim->now();
  env_.mac->send_broadcast(std::move(p), env_.max_tx_power());
}

void DsdvRouting::on_pm_mode_change() {
  if (!cfg_.advertise_pm_changes) return;
  // Our reachability cost (as seen by neighbors evaluating h against our
  // PM state) changed: re-advertise the full table.
  for (mac::NodeId dest = 0; dest < table_.size(); ++dest)
    if (dest != env_.id && table_[dest].known) mark_dirty(dest);
  schedule_triggered();
}

void DsdvRouting::handle_update(const mac::Packet& p, mac::NodeId from) {
  const auto& body = p.body<DsdvBody>();
  double link = cached_link_cost(from, body.sender_is_am);
  if (cfg_.quality_noise > 0.0)
    link *= 1.0 + env_.rng.uniform(-cfg_.quality_noise, cfg_.quality_noise);
  bool changed = false;
  for (const DsdvEntry& adv : body.entries) {
    if (adv.dest == env_.id) continue;
    const bool broken = !std::isfinite(adv.metric);
    const double via = broken ? kInf : adv.metric + link;
    Entry& cur = table_[adv.dest];
    const bool have = cur.known;

    bool adopt = false;
    if (!have) {
      adopt = !broken;
    } else if (adv.seq > cur.seq) {
      adopt = true;
    } else if (adv.seq == cur.seq) {
      // Same sequence: better cost wins; the current next hop is always
      // authoritative (this is how cost *increases* — e.g. a relay
      // dropping to PSM under DSDVH — propagate).
      adopt = (cur.next_hop == from) || (via < cur.metric - kEps);
    }
    if (!adopt) continue;

    const bool materially_different =
        !have || cur.valid == broken || cur.next_hop != from ||
        std::abs(cur.metric - via) > kEps;
    if (!have) {
      cur.known = true;
      known_.insert(adv.dest);
    }
    cur.seq = adv.seq;
    cur.metric = via;
    cur.next_hop = from;
    cur.valid = !broken;
    if (materially_different) {
      mark_dirty(adv.dest);
      changed = true;
    }
  }
  if (changed) schedule_triggered();
}

double DsdvRouting::cached_link_cost(mac::NodeId from, bool sender_is_am) {
  double& cost = link_cost_[2 * std::size_t{from} + (sender_is_am ? 1 : 0)];
  if (std::isnan(cost)) {
    cost = link_cost(cfg_.metric, env_.radio->card(), env_.distance_to(from),
                     sender_is_am,
                     env_.rate_over_b > 0 ? env_.rate_over_b : 1.0);
  }
  return cost;
}

// ----------------------------------------------------------- data plane ---

void DsdvRouting::send_data(mac::Packet packet) {
  EEND_REQUIRE(packet.origin == env_.id);
  if (packet.final_dest == env_.id) {
    ++stats_.data_delivered;
    if (env_.deliver_app) env_.deliver_app(packet);
    return;
  }
  env_.power->notify_data_activity();
  forward(std::move(packet));
}

void DsdvRouting::forward(mac::Packet packet) {
  if (packet.ttl <= 0) {
    ++stats_.drops_ttl;
    return;
  }
  --packet.ttl;
  const Entry* route = valid_route(packet.final_dest);
  if (route == nullptr || !std::isfinite(route->metric)) {
    ++stats_.drops_no_route;
    return;
  }
  const mac::NodeId next = route->next_hop;
  packet.type = kData;
  if (!packet.payload) {
    packet.payload = mac::Packet::wrap(env_.sim->pool(), DataBody{});  // hop-by-hop: no route
  }
  env_.mac->send_unicast(std::move(packet), next, env_.data_tx_power(next),
                         [this, next](bool ok) {
                           if (!ok) handle_link_failure(next);
                         });
}

void DsdvRouting::handle_data(const mac::Packet& p) {
  env_.power->notify_data_activity();
  if (p.final_dest == env_.id) {
    ++stats_.data_delivered;
    if (env_.deliver_app) env_.deliver_app(p);
    return;
  }
  ++stats_.data_forwarded;
  forward(p);
}

void DsdvRouting::handle_link_failure(mac::NodeId next_hop) {
  ++stats_.drops_mac;
  bool changed = false;
  for (mac::NodeId dest = 0; dest < table_.size(); ++dest) {
    Entry& e = table_[dest];
    if (dest == env_.id || e.next_hop != next_hop || !e.valid) continue;
    e.valid = false;
    e.metric = kInf;
    e.seq += 1;  // odd sequence: link-break advertisement (DSDV rule)
    mark_dirty(dest);
    changed = true;
  }
  if (changed) schedule_triggered();
}

void DsdvRouting::on_receive(const mac::Packet& p, mac::NodeId from) {
  switch (p.type) {
    case kData: handle_data(p); break;
    case kDsdvUpdate: handle_update(p, from); break;
    default: break;
  }
}

const DsdvRouting::Entry* DsdvRouting::valid_route(mac::NodeId dest) const {
  if (dest >= table_.size() || !table_[dest].valid) return nullptr;
  return &table_[dest];
}

mac::NodeId DsdvRouting::next_hop_to(mac::NodeId dest) const {
  const Entry* route = valid_route(dest);
  return route == nullptr ? mac::kBroadcast : route->next_hop;
}

double DsdvRouting::route_cost(mac::NodeId dest) const {
  const Entry* route = valid_route(dest);
  return route == nullptr ? kInf : route->metric;
}

}  // namespace eend::routing
