// Reliability knobs and constants, and the rail health state machine's states.
//
// Kept in a leaf header (no gate/scheduler includes) so StrategyConfig can
// embed a ReliabilityConfig without cycles.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace nmad::core {

/// Health of one rail, driven by the RailGuard:
///
///   healthy --consecutive timeouts--> suspect --retries exhausted--> dead
///      ^                                 |                            ^ |
///      +---------- ack advance ----------+       driver RailError ----+ |
///      ^                                                               |
///      +------ reconnect handshake ------ probing <---reconnect timer--+
///
/// `suspect` rails receive no *new* traffic from the pump but keep
/// retransmitting — the retransmissions double as recovery probes, and one
/// acknowledged probe returns the rail to `healthy`. A `dead` rail is
/// quiesced: the scheduler requeues its un-acked frames and the strategies
/// re-split remaining work across the survivors. With
/// `reconnect_enabled` the guard then keeps trying to resurrect the rail:
/// it moves to `probing` and sends epoch-bumping reconnect handshakes with
/// capped exponential backoff; a completed handshake resets all sequencing
/// state, fences every frame of the previous incarnation by epoch, and
/// returns the rail to `healthy` through the adaptive striper's recovery
/// ramp. A probing rail counts as dead for failover purposes (it carries
/// no traffic and does not keep a gate alive).
enum class RailState : std::uint8_t {
  kHealthy = 0,
  kSuspect = 1,
  kDead = 2,
  kProbing = 3,
};

[[nodiscard]] constexpr const char* rail_state_name(RailState s) noexcept {
  switch (s) {
    case RailState::kHealthy: return "healthy";
    case RailState::kSuspect: return "suspect";
    case RailState::kDead: return "dead";
    case RailState::kProbing: return "probing";
  }
  return "unknown";
}

/// Per-gate reliability configuration (lives in StrategyConfig).
///
/// `ack_enabled = false` (the default) preserves the paper's
/// reliable-network behavior exactly: frames still carry a sealed envelope
/// (sequence + CRC32C, so corruption is always detected and duplicates
/// always suppressed), but nothing is retained, no acks are emitted and no
/// timers are armed — zero retransmit-path overhead on the calibrated
/// simulation timings and the clean benches.
struct ReliabilityConfig {
  bool ack_enabled = false;
  /// Initial retransmission timeout.
  sim::TimeNs rto_ns = 2'000'000;
  /// Backoff cap: each retry multiplies the RTO by kRtoBackoff up to this.
  sim::TimeNs rto_max_ns = 50'000'000;
  /// Retries after which the rail is declared dead.
  std::uint32_t max_retries = 6;
  /// Uniform jitter applied to each RTO (fraction of the deadline, so
  /// retransmissions of parallel rails do not synchronize).
  double rto_jitter = 0.1;

  // --- keepalive probing (requires ack_enabled) ---------------------------
  /// Emit heartbeat probes on rails with no recent receive activity, so a
  /// dead link is detected even with zero application traffic. Off by
  /// default: clean benches and legacy configurations arm no extra timers.
  bool keepalive_enabled = false;

  // --- reconnection (requires ack_enabled) --------------------------------
  /// Attempt to resurrect dead rails: revive the driver and run the
  /// epoch-bumping reconnect handshake. Off by default — dead stays
  /// terminal, the pre-resurrection semantics.
  bool reconnect_enabled = false;
  /// First reconnect attempt fires this long after death.
  sim::TimeNs reconnect_backoff_ns = 1'000'000;
  /// Backoff cap: each failed attempt multiplies the delay by
  /// kReconnectBackoffFactor up to this.
  sim::TimeNs reconnect_backoff_max_ns = 100'000'000;
  /// Give up after this many attempts; 0 = keep trying forever. Tests use
  /// a finite cap so simulated engines can drain.
  std::uint32_t reconnect_max_attempts = 0;
};

// Fixed reliability timings, shared by every gate.
/// Exponential backoff factor per retry, capped at rto_max_ns.
inline constexpr double kRtoBackoff = 2.0;
/// Consecutive timeouts (or keepalive probe misses) after which a healthy
/// rail turns suspect.
inline constexpr std::uint32_t kSuspectAfter = 2;
/// How long a standalone ack may be delayed waiting for a piggyback.
inline constexpr sim::TimeNs kAckDelayNs = 200'000;
/// Seed of the RTO jitter stream; rail i draws from kRtoJitterSeed + i.
inline constexpr std::uint64_t kRtoJitterSeed = 0x9e3779b9;
/// A rail idle (nothing received) for this long gets a keepalive probe.
inline constexpr sim::TimeNs kKeepaliveIdleNs = 5'000'000;
/// An unanswered probe counts as a miss after this long.
inline constexpr sim::TimeNs kProbeTimeoutNs = 2'000'000;
/// Consecutive probe misses before the rail is declared dead.
inline constexpr std::uint32_t kProbeMaxMisses = 3;
/// Exponential backoff factor between reconnect attempts, capped at
/// reconnect_backoff_max_ns.
inline constexpr double kReconnectBackoffFactor = 2.0;

/// Online adaptive-striping knobs (consumed by strat/rate_estimator and the
/// gate's ratio-refresh logic). Kept in this leaf header next to
/// ReliabilityConfig so StrategyConfig can embed both without cycles.
///
/// With `enabled = false` (the default) the estimator still ingests samples
/// — a handful of relaxed atomic stores per completion — but split ratios
/// stay frozen at their boot-time values, preserving the paper's v3
/// behavior exactly.
struct AdaptiveConfig {
  bool enabled = false;
  /// Estimate confidence halves for every such period without a sample.
  sim::TimeNs confidence_halflife_ns = 20'000'000;
  /// A recovered rail ramps linearly from kSuspectPenalty back to full
  /// weight over this long, instead of snapping back.
  sim::TimeNs recovery_ramp_ns = 5'000'000;
};

// Fixed adaptive-striping policy, shared by every gate.
/// EWMA smoothing factor applied per sample (0 < alpha <= 1).
inline constexpr double kEwmaAlpha = 0.25;
/// Minimum spacing between two ratio re-derivations (the adaptive
/// optimization window).
inline constexpr sim::TimeNs kRatioWindowNs = 500'000;
/// Skip installing re-derived ratios unless some rail's normalized weight
/// moved by more than this — hysteresis against ratio thrash.
inline constexpr double kRatioHysteresis = 0.03;
/// Weight multiplier for a rail the guard holds in `suspect`: its recovery
/// probes keep flowing but new stripes mostly avoid it.
inline constexpr double kSuspectPenalty = 0.25;
/// Floor on any live rail's normalized weight, so slow rails keep carrying
/// probe traffic and the estimator never starves of samples.
inline constexpr double kMinRailWeight = 0.05;
/// Each retransmit timeout multiplies the rail's confidence and EWMA
/// bandwidth by this: a silent rail sheds weight *before* the guard's state
/// machine declares it suspect or dead.
inline constexpr double kTimeoutPenalty = 0.5;

}  // namespace nmad::core
