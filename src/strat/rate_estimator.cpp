#include "strat/rate_estimator.hpp"

#include <algorithm>
#include <cmath>

#include "obs/registry.hpp"
#include "util/panic.hpp"

namespace nmad::strat {

namespace {

/// Relaxed load/store shorthands: all cross-thread traffic on the published
/// estimates is monotonic telemetry, same contract as the obs types.
double ld(const std::atomic<double>& a) {
  return a.load(std::memory_order_relaxed);
}
void st(std::atomic<double>& a, double v) {
  a.store(v, std::memory_order_relaxed);
}

}  // namespace

RateEstimator::RateEstimator(std::size_t rails, core::AdaptiveConfig cfg)
    : cfg_(cfg), rails_(rails) {
  NMAD_ASSERT(rails > 0, "estimator needs at least one rail");
  NMAD_ASSERT(cfg_.confidence_halflife_ns > 0, "confidence halflife must be > 0");
}

double RateEstimator::decayed_conf(const RailEst& r, sim::TimeNs now) const {
  const double c = ld(r.conf);
  if (c <= 0.0) return 0.0;
  const sim::TimeNs last = r.last_event.load(std::memory_order_relaxed);
  if (now <= last) return c;
  const double halflives = static_cast<double>(now - last) /
                           static_cast<double>(cfg_.confidence_halflife_ns);
  return c * std::exp2(-halflives);
}

void RateEstimator::bump_confidence(RailEst& r, sim::TimeNs now) {
  // Decay to now, then move toward 1 by one EWMA step: a steady sample
  // stream converges to full confidence, a stale estimate fades.
  const double c = decayed_conf(r, now);
  st(r.conf, c + core::kEwmaAlpha * (1.0 - c));
  r.last_event.store(now, std::memory_order_relaxed);
  r.nsamples.fetch_add(1, std::memory_order_relaxed);
  r.c_samples.inc();
  r.g_confidence_pct.set(static_cast<std::int64_t>(ld(r.conf) * 100.0));
}

void RateEstimator::note_transfer(core::RailIndex rail, std::uint64_t bytes,
                                  sim::TimeNs duration, sim::TimeNs now) {
  NMAD_ASSERT(rail < rails_.size(), "estimator rail index out of range");
  if (bytes == 0) return;
  RailEst& r = rails_[rail];
  // bytes[B] / duration[ns] * 1000 == MB/s with MB = 1e6 B (paper axis).
  const double mbps =
      static_cast<double>(bytes) * 1000.0 /
      static_cast<double>(std::max<sim::TimeNs>(duration, 1));
  const double prev = ld(r.bw_mbps);
  // Fast attack: when the observed rate is far outside the estimate (a
  // recovered link jumping back to nominal, or a sudden collapse), the
  // smooth alpha would take ~1/alpha samples to catch up — and an
  // under-weighted rail produces few samples. Double the step for >=2x
  // deviations so regime changes converge in a couple of observations.
  double alpha = core::kEwmaAlpha;
  if (prev > 0.0 && (mbps > 2.0 * prev || mbps < 0.5 * prev)) {
    alpha = std::min(2.0 * alpha, 0.75);
  }
  const double next = prev <= 0.0 ? mbps : prev + alpha * (mbps - prev);
  st(r.bw_mbps, next);
  bump_confidence(r, now);
  r.g_bandwidth_mbps.set(static_cast<std::int64_t>(next));
}

void RateEstimator::note_rtt(core::RailIndex rail, sim::TimeNs rtt,
                             sim::TimeNs now) {
  NMAD_ASSERT(rail < rails_.size(), "estimator rail index out of range");
  RailEst& r = rails_[rail];
  const double sample = static_cast<double>(std::max<sim::TimeNs>(rtt, 1));
  const double prev = ld(r.rtt_ns);
  const double next =
      prev <= 0.0 ? sample : prev + core::kEwmaAlpha * (sample - prev);
  st(r.rtt_ns, next);
  bump_confidence(r, now);
  r.g_rtt_us.set(static_cast<std::int64_t>(next / 2000.0));
}

void RateEstimator::note_timeout(core::RailIndex rail, sim::TimeNs now) {
  NMAD_ASSERT(rail < rails_.size(), "estimator rail index out of range");
  RailEst& r = rails_[rail];
  // A timeout is *evidence*, not absence of data: decay both what we
  // believe (bandwidth) and how much we believe it (confidence), so the
  // rail sheds split weight before the guard's state machine reacts.
  st(r.conf, decayed_conf(r, now) * core::kTimeoutPenalty);
  st(r.bw_mbps, ld(r.bw_mbps) * core::kTimeoutPenalty);
  r.last_event.store(now, std::memory_order_relaxed);
  r.g_bandwidth_mbps.set(static_cast<std::int64_t>(ld(r.bw_mbps)));
  r.g_confidence_pct.set(static_cast<std::int64_t>(ld(r.conf) * 100.0));
}

void RateEstimator::note_state(core::RailIndex rail, core::RailState state,
                               sim::TimeNs now) {
  NMAD_ASSERT(rail < rails_.size(), "estimator rail index out of range");
  RailEst& r = rails_[rail];
  const auto prev = static_cast<core::RailState>(
      r.state.exchange(static_cast<std::uint8_t>(state),
                       std::memory_order_relaxed));
  if (prev != core::RailState::kHealthy && state == core::RailState::kHealthy) {
    // Recovery — from suspect, or straight from dead/probing after a
    // reconnect handshake: start the ramp clock so the rail's weight
    // climbs back gradually instead of snapping to full.
    r.recovered_at.store(now, std::memory_order_relaxed);
  }
}

double RateEstimator::bandwidth_mbps(core::RailIndex rail) const {
  NMAD_ASSERT(rail < rails_.size(), "estimator rail index out of range");
  return ld(rails_[rail].bw_mbps);
}

double RateEstimator::latency_us(core::RailIndex rail) const {
  NMAD_ASSERT(rail < rails_.size(), "estimator rail index out of range");
  return ld(rails_[rail].rtt_ns) / 2000.0;
}

double RateEstimator::confidence(core::RailIndex rail, sim::TimeNs now) const {
  NMAD_ASSERT(rail < rails_.size(), "estimator rail index out of range");
  return decayed_conf(rails_[rail], now);
}

std::uint64_t RateEstimator::samples(core::RailIndex rail) const {
  NMAD_ASSERT(rail < rails_.size(), "estimator rail index out of range");
  return rails_[rail].nsamples.load(std::memory_order_relaxed);
}

double RateEstimator::health_factor(const RailEst& r, sim::TimeNs now) const {
  switch (static_cast<core::RailState>(r.state.load(std::memory_order_relaxed))) {
    case core::RailState::kDead:
    case core::RailState::kProbing:  // carries no traffic until the handshake
      return 0.0;
    case core::RailState::kSuspect:
      return core::kSuspectPenalty;
    case core::RailState::kHealthy:
      break;
  }
  const sim::TimeNs rec = r.recovered_at.load(std::memory_order_relaxed);
  if (rec == 0 || cfg_.recovery_ramp_ns <= 0 ||
      now >= rec + cfg_.recovery_ramp_ns) {
    return 1.0;
  }
  const double frac = static_cast<double>(now - rec) /
                      static_cast<double>(cfg_.recovery_ramp_ns);
  return core::kSuspectPenalty + (1.0 - core::kSuspectPenalty) * frac;
}

double RateEstimator::effective_rate(core::RailIndex rail, double prior_mbps,
                                     sim::TimeNs now) const {
  NMAD_ASSERT(rail < rails_.size(), "estimator rail index out of range");
  const RailEst& r = rails_[rail];
  const double c = decayed_conf(r, now);
  const double live = ld(r.bw_mbps);
  // Confidence-weighted blend: no samples -> the boot-time prior is the
  // law; a confident live estimate overrides it almost entirely.
  const double blended =
      live > 0.0 ? (1.0 - c) * prior_mbps + c * live : prior_mbps;
  return blended * health_factor(r, now);
}

std::optional<std::vector<double>> RateEstimator::derive_ratios(
    std::span<const double> prior_mbps, std::span<const double> current,
    sim::TimeNs now) const {
  NMAD_ASSERT(prior_mbps.size() == rails_.size() &&
                  current.size() == rails_.size(),
              "derive_ratios vector size mismatch");
  std::vector<double> next(rails_.size(), 0.0);
  double sum = 0.0;
  for (std::size_t i = 0; i < rails_.size(); ++i) {
    next[i] = effective_rate(static_cast<core::RailIndex>(i), prior_mbps[i], now);
    sum += next[i];
  }
  if (sum <= 0.0) return std::nullopt;  // every rail dead: about to fail anyway
  for (double& w : next) w /= sum;

  // Weight floor for live rails: a starved rail carries no traffic, so the
  // estimator would never observe its recovery.
  bool floored = false;
  for (std::size_t i = 0; i < rails_.size(); ++i) {
    const auto state = static_cast<core::RailState>(
        rails_[i].state.load(std::memory_order_relaxed));
    if (state != core::RailState::kDead && state != core::RailState::kProbing &&
        next[i] < core::kMinRailWeight) {
      next[i] = core::kMinRailWeight;
      floored = true;
    }
  }
  if (floored) {
    sum = 0.0;
    for (double w : next) sum += w;
    for (double& w : next) w /= sum;
  }

  double max_delta = 0.0;
  for (std::size_t i = 0; i < rails_.size(); ++i) {
    max_delta = std::max(max_delta, std::abs(next[i] - current[i]));
  }
  if (max_delta <= core::kRatioHysteresis) return std::nullopt;
  return next;
}

void RateEstimator::publish_weight(core::RailIndex rail, double weight) {
  NMAD_ASSERT(rail < rails_.size(), "estimator rail index out of range");
  rails_[rail].g_weight_pct.set(static_cast<std::int64_t>(weight * 100.0));
}

void RateEstimator::register_rail_into(obs::MetricsRegistry& registry,
                                       core::RailIndex rail,
                                       const std::string& prefix) const {
  NMAD_ASSERT(rail < rails_.size(), "estimator rail index out of range");
  const RailEst& r = rails_[rail];
  registry.add(prefix + "bandwidth_mbps", &r.g_bandwidth_mbps);
  registry.add(prefix + "rtt_us", &r.g_rtt_us);
  registry.add(prefix + "confidence_pct", &r.g_confidence_pct);
  registry.add(prefix + "weight_pct", &r.g_weight_pct);
  registry.add(prefix + "samples", &r.c_samples);
}

}  // namespace nmad::strat
