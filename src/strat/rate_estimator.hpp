// RateEstimator: online per-rail bandwidth/latency estimation feeding the
// adaptive-striping policy (ROADMAP: re-derive split ratios online from the
// observations the reliability layer already produces).
//
// Signal sources — all things RailGuard and the drivers already emit:
//   * delivered-bytes deltas: every locally-completed DMA frame yields a
//     (bytes, duration) sample, so the estimate tracks the rate the fabric
//     actually granted (FairShareNet sharing included), not the nominal
//     link capacity;
//   * ack round-trip timing (ack_enabled gates): per-frame RTT samples,
//     skipping retransmitted frames (Karn's algorithm — a retried frame's
//     ack is ambiguous);
//   * retransmit timeouts: each one decays confidence and bandwidth, so a
//     silent rail sheds split weight *before* the guard turns it suspect;
//   * guard state transitions: suspect rails are down-weighted outright,
//     recovered rails ramp back in gradually.
//
// Thread model: all writers (note_*) run on the progression engine — under
// the world progress mutex in threaded mode, single-threaded in serial mode
// — so EWMA read-modify-write needs no CAS. Published estimates are relaxed
// atomics, safe to read from any thread (app-side observers, the obs
// snapshot path), exactly like the obs metric types. The policy methods
// (effective_rate, derive_ratios) are called by the gate on the progression
// engine only.
//
// The functional state lives in plain std::atomic fields, NOT in obs types:
// the estimator must keep working in NMAD_METRICS=OFF builds, where the obs
// gauges below compile out to no-ops.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/reliability.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace nmad::obs {
class MetricsRegistry;
}  // namespace nmad::obs

namespace nmad::strat {

class RateEstimator {
 public:
  RateEstimator(std::size_t rails, core::AdaptiveConfig cfg);

  [[nodiscard]] std::size_t rail_count() const noexcept { return rails_.size(); }

  // --- sample intake (progression engine only) -----------------------------
  /// A frame of `bytes` wire bytes finished its transfer after `duration`.
  /// Callers feed only DMA-track frames: PIO completions measure the host
  /// copy, not the link, and would pollute the split currency.
  void note_transfer(core::RailIndex rail, std::uint64_t bytes,
                     sim::TimeNs duration, sim::TimeNs now);
  /// Ack round-trip for a never-retransmitted frame (Karn: the caller must
  /// skip retried frames — their acks are ambiguous).
  void note_rtt(core::RailIndex rail, sim::TimeNs rtt, sim::TimeNs now);
  /// A retransmit timeout fired on the rail.
  void note_timeout(core::RailIndex rail, sim::TimeNs now);
  /// The guard's state machine moved the rail to `state`.
  void note_state(core::RailIndex rail, core::RailState state, sim::TimeNs now);

  // --- published estimates (relaxed atomics; any thread) -------------------
  /// EWMA delivered bandwidth in MB/s; 0 until the first sample.
  [[nodiscard]] double bandwidth_mbps(core::RailIndex rail) const;
  /// EWMA one-way latency (rtt/2) in µs; 0 until the first RTT sample.
  [[nodiscard]] double latency_us(core::RailIndex rail) const;
  /// Estimate confidence in [0, 1], decayed to `now` (halves every
  /// confidence_halflife_ns without a sample).
  [[nodiscard]] double confidence(core::RailIndex rail, sim::TimeNs now) const;
  [[nodiscard]] std::uint64_t samples(core::RailIndex rail) const;

  // --- policy (progression engine only) ------------------------------------
  /// Unnormalized effective rate of one rail in MB/s currency: the
  /// boot-time prior blended toward the live EWMA by the rail's current
  /// confidence, multiplied by the health factor (suspect penalty /
  /// recovery ramp; 0 for dead rails).
  [[nodiscard]] double effective_rate(core::RailIndex rail, double prior_mbps,
                                      sim::TimeNs now) const;

  /// Re-derive normalized split weights from the live estimates.
  /// `prior_mbps` carries the boot-time ratios scaled to MB/s currency;
  /// `current` is the currently installed normalized ratio vector. Returns
  /// nullopt when hysteresis holds the current ratios (no rail's weight
  /// moved by more than core::kRatioHysteresis).
  [[nodiscard]] std::optional<std::vector<double>> derive_ratios(
      std::span<const double> prior_mbps, std::span<const double> current,
      sim::TimeNs now) const;

  /// Record the weight the gate actually installed (metrics mirror only).
  void publish_weight(core::RailIndex rail, double weight);

  /// Register one rail's `est.*` gauges/counters under `prefix`
  /// (".../railN.est.").
  void register_rail_into(obs::MetricsRegistry& registry, core::RailIndex rail,
                          const std::string& prefix) const;

  RateEstimator(const RateEstimator&) = delete;
  RateEstimator& operator=(const RateEstimator&) = delete;

 private:
  struct RailEst {
    // Published estimates — relaxed atomics, readable from any thread.
    std::atomic<double> bw_mbps{0.0};
    std::atomic<double> rtt_ns{0.0};
    /// Confidence as of `last_event`; readers decay it forward to now.
    std::atomic<double> conf{0.0};
    std::atomic<sim::TimeNs> last_event{0};
    std::atomic<std::uint64_t> nsamples{0};
    // Health view, written on guard state transitions.
    std::atomic<std::uint8_t> state{
        static_cast<std::uint8_t>(core::RailState::kHealthy)};
    std::atomic<sim::TimeNs> recovered_at{0};
    // Metrics mirrors (no-ops with NMAD_METRICS=OFF).
    obs::Gauge g_bandwidth_mbps;
    obs::Gauge g_rtt_us;
    obs::Gauge g_confidence_pct;
    obs::Gauge g_weight_pct;
    obs::Counter c_samples;
  };

  /// Decayed confidence + sample bump, shared by every accepted sample.
  void bump_confidence(RailEst& r, sim::TimeNs now);
  [[nodiscard]] double decayed_conf(const RailEst& r, sim::TimeNs now) const;
  /// Suspect penalty / recovery ramp multiplier (0 for dead rails).
  [[nodiscard]] double health_factor(const RailEst& r, sim::TimeNs now) const;

  core::AdaptiveConfig cfg_;
  /// deque: RailEst holds atomics (immovable); deque never relocates and
  /// the set is fixed at construction.
  std::deque<RailEst> rails_;
};

}  // namespace nmad::strat
