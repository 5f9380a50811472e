// Per-node CSMA/CA MAC with PSM-aware buffered delivery.
//
// Transmission path:
//   * frames queue FIFO (bounded; overflow drops — the capacity-limit
//     mechanism behind the paper's high-rate delivery degradation);
//   * carrier sensing with binary-exponential random backoff;
//   * unicast reliability is abstracted: the frame airtime includes the
//     ACK exchange, and the sender learns synchronously whether the target
//     decoded the frame, retrying up to retry_limit before reporting
//     failure upward (DSR uses this to emit route errors);
//   * frames destined to PSM-sleeping nodes are announced at the next
//     beacon (the receiver is held awake per naive-PSM or Span rules) and
//     transmitted in the following data window. Broadcasts in a network
//     with PSM neighbors are likewise beacon-synchronized, which is the
//     transmission "scheduling" the paper credits for flood scalability.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "mac/channel.hpp"
#include "mac/packet.hpp"
#include "mac/psm.hpp"
#include "util/rng.hpp"

namespace eend::mac {

struct MacConfig {
  double slot_s = 20e-6;
  int cw_min_slots = 31;
  int cw_max_slots = 1023;
  int retry_limit = 6;        ///< unicast retransmissions after a collision
  int max_defer_rounds = 10;  ///< beacon-window defers before giving up
  int max_cs_defers = 400;    ///< carrier-sense busy retries before drop
  double frame_overhead_s = 4e-4;   ///< PHY preamble + IFS + ACK airtime
  std::uint32_t mac_header_bits = 224;  ///< 28-byte MAC header
  std::size_t queue_limit = 64;
  double bcast_jitter_s = 0.01;   ///< random delay before flooding forward
  double window_jitter_s = 0.03;  ///< unicast tx-start spread in a window
  /// Broadcasts deferred to PSM data windows spread over this fraction of
  /// the post-ATIM interval (desynchronizes beacon-aligned flood bursts).
  double bcast_window_fraction = 0.12;
  /// Broadcasts older than this are dropped instead of transmitted —
  /// stale flood fragments (RREQs from long-gone discovery rounds) must
  /// not clog the queue ahead of data.
  double bcast_max_age_s = 1.0;

  bool operator==(const MacConfig&) const = default;
};

/// MAC statistics used by the evaluation metrics.
struct MacStats {
  std::uint64_t queue_drops = 0;     ///< frames rejected: queue full
  std::uint64_t unicast_failures = 0;///< retry limit exhausted
  std::uint64_t cs_drops = 0;        ///< gave up waiting for a clear channel
  std::uint64_t defers_exhausted = 0;///< PSM window retries exhausted
  std::uint64_t stale_bcast_drops = 0;///< broadcasts aged out in the queue
  std::uint64_t frames_ok = 0;
};

class Mac {
 public:
  /// Result callback for unicasts: success = target decoded the frame.
  using SendCallback = std::function<void(bool success)>;
  /// Upcall for received packets addressed to this node (or broadcast).
  using ReceiveHandler = std::function<void(const Packet&, NodeId from)>;

  Mac(sim::Simulator& sim, Channel& channel, NodeRadio& radio,
      PsmScheduler* psm, Rng rng, MacConfig cfg);

  NodeId id() const { return radio_.id(); }
  const MacConfig& config() const { return cfg_; }
  const MacStats& stats() const { return stats_; }
  std::size_t queue_depth() const { return queue_.size(); }

  void set_receive_handler(ReceiveHandler fn) { on_receive_ = std::move(fn); }
  void set_promiscuous_handler(ReceiveHandler fn) {
    on_promiscuous_ = std::move(fn);
  }

  /// Enqueue a unicast. Returns false (and drops) when the queue is full;
  /// `cb` fires exactly once otherwise.
  bool send_unicast(Packet packet, NodeId next_hop, double tx_power,
                    SendCallback cb = nullptr);

  /// Enqueue a broadcast (fire-and-forget; no retries, no result).
  bool send_broadcast(Packet packet, double tx_power);

  /// Airtime of one frame carrying `size_bits` of payload.
  double frame_duration(std::uint32_t size_bits) const;

 private:
  struct Outgoing {
    Packet packet;
    NodeId next_hop;  // kBroadcast for broadcast
    double tx_power;
    SendCallback cb;
    double enqueued_at = 0.0;
    int retries = 0;
    int cs_defers = 0;
    int defer_rounds = 0;
    int backoff_stage = 0;
  };

  void on_frame_delivered(const Frame& f);
  void on_frame_overheard(const Frame& f);

  void process_head();
  void schedule_attempt(double delay);
  void attempt_head();
  void transmit_head();
  void defer_to_window(bool announce_broadcast);
  void finish_head(bool success);
  double backoff_delay(int stage);

  sim::Simulator& sim_;
  Channel& channel_;
  NodeRadio& radio_;
  PsmScheduler* psm_;  // nullptr when the whole network is always-on
  Rng rng_;
  MacConfig cfg_;
  MacStats stats_;

  std::deque<Outgoing> queue_;
  bool head_active_ = false;  // a timer/airtime event for the head exists
  ReceiveHandler on_receive_;
  ReceiveHandler on_promiscuous_;
};

}  // namespace eend::mac
