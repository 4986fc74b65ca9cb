// RailGuard: per-rail reliability — sequencing, acknowledgement,
// retransmission and the rail health state machine.
//
// One guard sits between the scheduler and each rail's driver. On the way
// down it seals every frame with the reliability envelope (per-track
// sequence number, piggybacked cumulative acks, CRC32C over the gathered
// spans); on the way up it validates, deduplicates and acknowledges frames
// before handing the bare packet to the scheduler. With acknowledgements
// enabled it additionally retains each posted frame until the peer acks
// it, retransmitting after a timeout with exponential backoff + jitter,
// and drives the healthy → suspect → dead state machine (see
// core/reliability.hpp). A dead rail's retained frames are surrendered via
// take_unacked() for the scheduler to requeue on the survivors.
//
// Two opt-in extensions close the lifecycle:
//
//  - Keepalive probing (`keepalive_enabled`): a rail with no receive
//    activity for `kKeepaliveIdleNs` gets envelope-only probe frames;
//    unanswered probes count as misses and declare the rail dead after
//    `kProbeMaxMisses` — so a killed link is detected even with zero
//    application traffic.
//  - Reconnection (`reconnect_enabled`): a dead rail moves to `probing`
//    and runs an epoch-bumping handshake with capped exponential backoff.
//    Every sealed frame carries the rail's current epoch; after a
//    completed handshake both peers reset their sequence/ack state under
//    the new epoch and frames from the previous incarnation are fenced by
//    epoch comparison and dropped (`stale_frames_dropped`). The scheduler
//    re-arms the rail through the `on_revived` hook.
//
// With acks disabled (the default) the guard is a thin sealing/validating
// shim with the exact legacy completion semantics: contributions are
// credited on local send completion and nothing is retained.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/reliability.hpp"
#include "core/types.hpp"
#include "drv/driver.hpp"
#include "obs/metrics.hpp"
#include "strat/strategy.hpp"
#include "util/rng.hpp"

namespace nmad::obs {
class MetricsRegistry;
}  // namespace nmad::obs

namespace nmad::strat {
class RateEstimator;
}  // namespace nmad::strat

namespace nmad::core {

/// Reliability counters for one rail. `state` mirrors the functional
/// RailState enum (0 healthy / 1 suspect / 2 dead / 3 probing) so the
/// metrics tree — and the CI bench gate — can see rail health; the enum
/// itself stays a plain member so the state machine works with
/// NMAD_METRICS=OFF.
struct RailGuardMetrics {
  obs::Counter retransmits;
  obs::Counter timeouts;
  obs::Counter acks_sent;  ///< standalone ack-only frames (piggybacks are free)
  obs::Counter acks_received;
  obs::Counter dup_frames;       ///< duplicate rx suppressed
  obs::Counter crc_drops;        ///< frames dropped on checksum mismatch
  obs::Counter malformed_drops;  ///< frames/packets dropped on decode failure
  obs::Counter state_transitions;
  obs::Counter requeued_packets;  ///< un-acked frames surrendered at death
  obs::Counter requeued_bytes;
  obs::Counter probes_sent;           ///< keepalive probe frames emitted
  obs::Counter stale_frames_dropped;  ///< frames fenced by epoch mismatch
  obs::Counter reconnects;            ///< completed reconnect handshakes
  obs::Gauge state;
  obs::Gauge epoch;  ///< current incarnation number (starts at 1)

  void register_into(obs::MetricsRegistry& registry,
                     const std::string& prefix) const;
};

class RailGuard {
 public:
  /// A retained frame surrendered by a dead (or epoch-reset) rail, ready
  /// to repost.
  struct PendingFrame {
    drv::SendDesc desc;
    std::vector<strat::Contribution> contribs;
  };

  /// Everything the guard needs from the scheduling layer. All hooks are
  /// installed once (init) and outlive the guard's driver interactions;
  /// the scheduler wraps them with its liveness token.
  struct Hooks {
    std::function<sim::TimeNs()> now;
    /// Run a callback after a delay (retransmission / delayed-ack timers).
    /// May be null when acks are disabled — no timers are armed then.
    std::function<void(sim::TimeNs, std::function<void()>)> timer;
    /// Credit send contributions (request completion accounting).
    std::function<void(const std::vector<strat::Contribution>&)> credit;
    /// Deliver a validated packet (envelope already stripped).
    std::function<void(drv::Track, std::span<const std::byte>)> deliver;
    /// Account a guard-initiated post (retransmit, standalone ack) in the
    /// rail metrics, exactly like a scheduler-initiated one.
    std::function<void(const drv::SendDesc&)> note_post;
    /// Kick the gate's pump (a track went idle / state changed / an ack
    /// freed backlog room).
    std::function<void()> kick;
    /// State machine transition (new state). kDead triggers failover.
    std::function<void(RailState)> on_state_change;
    /// The rail completed a reconnect handshake and is healthy again under
    /// a new epoch: the scheduler un-fails the gate, lets the strategy
    /// re-include the rail and reschedules the pump. Fired *after* the
    /// kHealthy on_state_change. May be null (unit harnesses).
    std::function<void()> on_revived;
    /// Surrender retained frames outside the death path: a live rail that
    /// passively adopts a peer's new epoch must requeue its un-acked
    /// frames (their sequence numbers belong to the fenced incarnation).
    /// May be null — the frames are then dropped, acceptable only in unit
    /// harnesses that never reuse them.
    std::function<void(std::vector<PendingFrame>)> requeue;
  };

  RailGuard() = default;
  RailGuard(const RailGuard&) = delete;
  RailGuard& operator=(const RailGuard&) = delete;
  /// Movable only before init(): gates build their rail vector first and
  /// the scheduler installs guards afterwards (the driver/timer lambdas
  /// capture `this`, which a post-init move would dangle). A pre-init
  /// guard is all default state, so moving is just fresh construction.
  RailGuard(RailGuard&& other) noexcept { (void)other; }
  RailGuard& operator=(RailGuard&&) = delete;

  void init(drv::Driver& driver, RailIndex index, ReliabilityConfig cfg,
            Hooks hooks);

  /// Feed the gate's rate estimator from this guard's observations:
  /// DMA-frame (bytes, duration) on local completion, ack RTTs (skipping
  /// retransmitted frames, Karn's rule), retransmit timeouts, and state
  /// transitions. Installed by the scheduler right after init; null (the
  /// default) disables the feed.
  void set_estimator(strat::RateEstimator* estimator) noexcept {
    estimator_ = estimator;
  }

  /// Seal `desc` (sequence + piggybacked acks + CRC) and post it. The
  /// caller must have checked the driver's track idle. With acks enabled
  /// the original descriptor is retained for retransmission and a
  /// non-owning alias goes to the driver; contributions are credited when
  /// the peer acks. With acks disabled the descriptor goes straight down
  /// and contributions are credited on local completion (legacy).
  void post(drv::SendDesc desc, std::vector<strat::Contribution> contribs);

  /// A frame arrived from the driver (envelope + packet). Validates,
  /// processes acks, deduplicates, then delivers the packet via hooks.
  void on_frame(drv::Track track, std::span<const std::byte> frame);

  /// Opportunistic progress: retransmit due frames and emit owed
  /// standalone acks on idle tracks. Called from the gate pump. Returns
  /// true if anything was posted.
  bool flush();

  /// The driver reported a hard failure: the rail dies immediately.
  void on_driver_error(const drv::RailError& err);

  /// Surrender every retained un-acked frame (dead rails only). Frames
  /// already acked by the peer but pending local completion are credited,
  /// not returned.
  [[nodiscard]] std::vector<PendingFrame> take_unacked();

  [[nodiscard]] RailState state() const noexcept {
    return state_.load(std::memory_order_relaxed);
  }
  /// A probing rail counts as dead for failover purposes: it carries no
  /// traffic and does not keep a gate alive.
  [[nodiscard]] bool alive() const noexcept {
    const RailState s = state();
    return s == RailState::kHealthy || s == RailState::kSuspect;
  }
  [[nodiscard]] bool healthy() const noexcept {
    return state() == RailState::kHealthy;
  }
  /// Current incarnation number. Starts at 1; each completed reconnect
  /// handshake bumps it. Frames sealed under an older epoch are fenced.
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::size_t unacked_count() const noexcept { return tx_.size(); }
  [[nodiscard]] const ReliabilityConfig& config() const noexcept { return cfg_; }

  RailGuardMetrics metrics;

 private:
  /// One retained (posted, un-acked) frame.
  struct TxEntry {
    std::uint32_t seq = 0;
    drv::Track track = drv::Track::kSmall;
    drv::SendDesc desc;  ///< original, owning descriptor
    std::vector<strat::Contribution> contribs;
    sim::TimeNs posted_at = 0;  ///< first post time (RTT / bandwidth samples)
    sim::TimeNs deadline = 0;
    std::uint32_t retries = 0;
    bool locally_done = false;  ///< driver reported local completion
    bool acked = false;
    bool in_flight = false;  ///< an alias of this frame occupies the track
  };

  /// Per-track receive state (dedup + cumulative ack bookkeeping).
  struct RxTrack {
    std::uint32_t contiguous = 0;  ///< all seqs <= this received
    std::set<std::uint32_t> beyond;
    std::uint32_t last_acked = 0;  ///< highest ack value sent to the peer
    bool force_ack = false;        ///< re-ack even without advance (dup seen)
  };

  void seal(drv::SendDesc& desc, std::uint8_t flags, std::uint32_t seq,
            std::uint32_t epoch);
  [[nodiscard]] drv::SendDesc make_alias(const TxEntry& entry) const;
  /// Local send completion of retained frame (seq, track), first
  /// transmission or retransmit: credits it if already acked, and takes an
  /// estimator sample only when it was never retransmitted.
  void on_local_completion(std::uint32_t seq, drv::Track track);
  void process_acks(const proto::FrameEnvelope& env);
  bool apply_ack(drv::Track track, std::uint32_t upto);
  [[nodiscard]] bool rx_accept(drv::Track track, std::uint32_t seq);
  [[nodiscard]] bool owes_ack() const noexcept;
  void note_ack_needed();
  bool try_send_standalone_ack();
  [[nodiscard]] sim::TimeNs next_rto(std::uint32_t retries);
  void arm_retransmit_timer();
  void on_retransmit_timer();
  void handle_deadlines();
  void transition(RailState next);
  void die(const char* reason);
  /// Send an envelope-only control frame (probe / probe reply / handshake)
  /// if the eager track is idle. Returns true when posted.
  bool try_send_control(std::uint8_t flags, std::uint32_t epoch);
  void arm_keepalive_timer();
  void on_keepalive_timer();
  /// A valid current-epoch frame arrived: reset probe bookkeeping (and
  /// heal a keepalive-induced suspect).
  void note_rx_alive();
  void arm_reconnect_timer();
  void on_reconnect_timer();
  /// Handshake frame processing (kFrameReconnect / kFrameReconnectAck).
  void handle_handshake(const proto::FrameEnvelope& env);
  /// Adopt epoch `e` as the live incarnation: surrender or credit every
  /// retained frame, reset sequence/ack state and go healthy.
  void adopt_epoch(std::uint32_t e, bool initiated);
  /// Reset per-incarnation sequencing state (tx_ must already be empty).
  void reset_link_state();
  /// take_unacked() body without the dead-state assert: credit acked
  /// entries, surrender the rest, clear tx_.
  [[nodiscard]] std::vector<PendingFrame> surrender_tx();

  drv::Driver* driver_ = nullptr;
  RailIndex index_ = 0;
  ReliabilityConfig cfg_;
  Hooks hooks_;
  strat::RateEstimator* estimator_ = nullptr;
  util::Xoshiro256 jitter_{0};

  /// Atomic so any thread may ask alive()/healthy() (the state gauge used
  /// to be the only externally visible copy, written with a plain store
  /// justified by single-threadedness). Transitions still happen only on
  /// the progression engine, under its lock in threaded mode.
  std::atomic<RailState> state_{RailState::kHealthy};
  std::uint32_t consecutive_timeouts_ = 0;

  std::uint32_t next_seq_[drv::kTrackCount] = {0, 0};
  std::deque<TxEntry> tx_;  ///< retained frames, oldest first per push order
  RxTrack rx_[drv::kTrackCount];

  bool rto_timer_armed_ = false;
  sim::TimeNs rto_timer_deadline_ = 0;
  bool ack_timer_armed_ = false;
  /// A standalone ack is owed now (delay expired or a duplicate arrived).
  bool ack_due_ = false;
  /// Re-entrancy latch: handle_deadlines can indirectly re-enter itself
  /// (transition -> pump -> flush) while iterating the retention queue.
  bool in_deadlines_ = false;

  // --- epoch fencing ---------------------------------------------------
  /// Current incarnation; sealed into every outgoing frame. Epoch 0 on a
  /// received frame means "unfenced" (legacy peers, raw-driver tests).
  std::uint32_t epoch_ = 1;
  /// Epoch proposed by our in-flight reconnect handshake (probing only).
  std::uint32_t pending_epoch_ = 0;

  // --- keepalive probing -----------------------------------------------
  sim::TimeNs last_rx_ = 0;       ///< last valid current-epoch receive
  sim::TimeNs probe_sent_at_ = 0; ///< 0 = no probe outstanding
  std::uint32_t probe_misses_ = 0;
  bool keepalive_timer_armed_ = false;

  // --- reconnection ----------------------------------------------------
  std::uint32_t reconnect_attempts_ = 0;
  sim::TimeNs reconnect_delay_ = 0;  ///< next backoff interval
  bool reconnect_timer_armed_ = false;
};

}  // namespace nmad::core
