// The reactive (DSR-style) protocol family.
//
// One engine covers five of the paper's protocols through configuration:
//
//   DSR        — metric Hop                       (idle-first, §4.3 v1)
//   MTPR       — metric Mtpr      (Eq. 10)        (comm-first,  §4.1)
//   MTPR+      — metric MtprPlus  (Eq. 11)        (comm-first,  §4.1)
//   DSRH       — metric JointH    (Eq. 12)        (joint opt.,  §4.2)
//                rate / norate via NodeEnv::rate_over_b
//   TITAN      — metric Hop + probabilistic RREQ participation biased
//                toward backbone (AM) nodes       (idle-first, §4.3 v2)
//
// Mechanics follow DSR [Johnson et al.]: flooded route requests accumulate
// a route and a metric cost; duplicate RREQs are suppressed unless they
// improve the best cost seen ("RREQs may be rebroadcast and multiple RREPs
// may be sent, if they advertise a lower cost"); replies travel back along
// the discovered route; data is source-routed; failed transmissions
// produce route errors toward the origin.
//
// Duplicate suppression is the flood's hot path: most RREQ receptions are
// copies that do not beat the best cost this node has seen. Each node keeps
// its best cost per (origin, seq) in a flat open-addressing table, and
// handle_rreq probes it before the loop scan, so a rejected copy costs one
// probe plus the metric's own link-cost inputs.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "routing/messages.hpp"
#include "routing/metric.hpp"
#include "routing/protocol.hpp"

namespace eend::routing {

struct ReactiveConfig {
  LinkMetric metric = LinkMetric::Hop;

  /// TITAN: PSM nodes participate in route discovery probabilistically.
  bool titan = false;
  double titan_pmin = 0.1;   ///< participation floor
  double titan_alpha = 1.0;  ///< participation scale: p = a / (1 + #AM)

  /// Initial discovery timeout; doubles per retry. Must comfortably cover
  /// a PSM-paced RREP return (one beacon interval per hop).
  double discovery_timeout_s = 3.0;
  int max_discovery_tries = 6;
  double send_buffer_timeout_s = 30.0;
  std::size_t send_buffer_limit = 64;
  int max_route_len = 32;

  /// A duplicate RREQ is only re-flooded (and re-answered) when its cost
  /// beats the best seen by this relative margin — the damper that keeps
  /// metric-driven discovery (MTPR/DSRH) from re-broadcasting on every
  /// epsilon improvement.
  double cost_improve_factor = 0.9;
};

class ReactiveRouting final : public RoutingProtocol {
 public:
  ReactiveRouting(NodeEnv env, ReactiveConfig cfg);

  void start() override;
  void send_data(mac::Packet packet) override;

  /// Exposed for tests: current cached route to `dest` (empty if none).
  std::vector<mac::NodeId> cached_route(mac::NodeId dest) const;

 private:
  struct CachedRoute {
    std::vector<mac::NodeId> path;  ///< this node .. dest
    double cost = 0.0;
  };
  struct Buffered {
    mac::Packet packet;
    double queued_at;
  };
  struct Discovery {
    bool active = false;
    int tries = 0;
    sim::EventId timeout_event = sim::kInvalidEvent;
  };

  /// Best cost seen per flood, keyed by (origin << 32) | seq. Linear
  /// probing over a power-of-two array that doubles at load 1/2; key 0
  /// marks an empty slot (sequence numbers start at 1). Only ever probed,
  /// never iterated, so the layout cannot reach any output. The first
  /// probe allocates 128 slots, room for the few dozen floods a node sees
  /// in a typical run (building a network allocates nothing): a table
  /// that started at 16 slots and doubled during the run raised the peak
  /// RSS of a 500-node flood run by up to 17 MB through heap
  /// fragmentation.
  class SeenTable {
   public:
    struct Slot {
      std::uint64_t key = 0;
      double best = 0.0;
    };
    /// The slot holding `key`, or the empty slot where it would go.
    Slot& probe(std::uint64_t key);
    /// Record `key` in the empty slot `probe(key)` returned.
    void insert(Slot& empty, std::uint64_t key, double best);

   private:
    void grow();
    std::vector<Slot> slots_;
    std::size_t used_ = 0;
  };

  void on_receive(const mac::Packet& p, mac::NodeId from);
  void handle_rreq(const mac::Packet& p, mac::NodeId from);
  void handle_rrep(const mac::Packet& p);
  void handle_rerr(const mac::Packet& p);
  void handle_data(const mac::Packet& p);

  void ensure_discovery(mac::NodeId dest);
  void issue_rreq(mac::NodeId dest);
  void on_discovery_timeout(mac::NodeId dest);
  void flush_buffer(mac::NodeId dest);
  void drop_buffer(mac::NodeId dest);

  /// Send a data packet along `route` starting from this node's position.
  void forward_data(mac::Packet packet, const DataBody& body);
  void handle_link_failure(const mac::Packet& packet, const DataBody& body);
  void send_rerr(const DataBody& body, mac::NodeId broken_to);
  void purge_link(mac::NodeId a, mac::NodeId b);
  void install_route(mac::NodeId dest, std::vector<mac::NodeId> path,
                     double cost);

  bool titan_participates();
  double effective_rate_over_b(double advertised) const;

  ReactiveConfig cfg_;
  std::unordered_map<mac::NodeId, CachedRoute> cache_;
  std::unordered_map<mac::NodeId, std::deque<Buffered>> buffer_;
  std::unordered_map<mac::NodeId, Discovery> discovery_;
  SeenTable rreq_best_;
  std::uint32_t next_seq_ = 1;
  std::uint64_t next_uid_ = 1;

  // Static topology info for TITAN's participation heuristic.
  std::size_t degree_ = 0;
  std::vector<mac::NodeId> neighbors_;
};

}  // namespace eend::routing
