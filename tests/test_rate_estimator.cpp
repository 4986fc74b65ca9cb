// Unit tests for the online rail-rate estimator (strat/rate_estimator.hpp)
// on a hand-cranked clock: EWMA convergence, confidence decay, the
// timeout/suspect down-weighting signals, the recovery ramp, and the
// hysteresis that keeps ratios parked under sample noise.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "strat/rate_estimator.hpp"
#include "util/rng.hpp"

namespace {

using namespace nmad;
using strat::RateEstimator;

core::AdaptiveConfig test_cfg() {
  core::AdaptiveConfig cfg;
  cfg.enabled = true;
  return cfg;
}

/// One (bytes, duration) sample that reads as `mbps`: bytes * 1000 / ns.
void feed_mbps(RateEstimator& est, core::RailIndex rail, double mbps,
               sim::TimeNs now) {
  const sim::TimeNs duration = 1'000'000;  // 1 ms
  const auto bytes = static_cast<std::uint64_t>(mbps * 1000.0);
  est.note_transfer(rail, bytes, duration, now);
}

TEST(RateEstimator, StartsWithNoEstimateAndNoConfidence) {
  RateEstimator est(2, test_cfg());
  EXPECT_EQ(est.bandwidth_mbps(0), 0.0);
  EXPECT_EQ(est.latency_us(0), 0.0);
  EXPECT_EQ(est.confidence(0, 1'000'000), 0.0);
  EXPECT_EQ(est.samples(0), 0u);
}

TEST(RateEstimator, EwmaConvergesToSteadyRate) {
  RateEstimator est(1, test_cfg());
  sim::TimeNs now = 0;
  for (int i = 0; i < 40; ++i) {
    now += 1'000'000;
    feed_mbps(est, 0, 1000.0, now);
  }
  EXPECT_NEAR(est.bandwidth_mbps(0), 1000.0, 1.0);
  // Steady state balances the per-gap decay (2^(-1/20) per ms) against the
  // per-sample bump, just above 0.9 with the default alpha.
  EXPECT_GT(est.confidence(0, now), 0.85);
  EXPECT_EQ(est.samples(0), 40u);
}

TEST(RateEstimator, FirstSampleSetsEstimateDirectly) {
  RateEstimator est(1, test_cfg());
  feed_mbps(est, 0, 800.0, 1'000'000);
  EXPECT_NEAR(est.bandwidth_mbps(0), 800.0, 1.0);
}

TEST(RateEstimator, FastAttackTracksRegimeChangeInFewSamples) {
  RateEstimator est(1, test_cfg());
  sim::TimeNs now = 0;
  for (int i = 0; i < 40; ++i) {
    now += 1'000'000;
    feed_mbps(est, 0, 200.0, now);
  }
  // The link recovers to 1200 MB/s: a 6x jump must converge much faster
  // than 1/alpha smooth steps.
  for (int i = 0; i < 5; ++i) {
    now += 1'000'000;
    feed_mbps(est, 0, 1200.0, now);
  }
  EXPECT_GT(est.bandwidth_mbps(0), 1000.0);
}

TEST(RateEstimator, ConfidenceHalvesPerHalflifeWithoutSamples) {
  auto cfg = test_cfg();
  cfg.confidence_halflife_ns = 10'000'000;
  RateEstimator est(1, cfg);
  sim::TimeNs now = 0;
  for (int i = 0; i < 40; ++i) {
    now += 100'000;
    feed_mbps(est, 0, 1000.0, now);
  }
  const double c0 = est.confidence(0, now);
  ASSERT_GT(c0, 0.9);
  EXPECT_NEAR(est.confidence(0, now + cfg.confidence_halflife_ns), c0 / 2.0,
              0.01);
  EXPECT_NEAR(est.confidence(0, now + 2 * cfg.confidence_halflife_ns),
              c0 / 4.0, 0.01);
  // ...and the bandwidth estimate itself is retained (only trust decays).
  EXPECT_NEAR(est.bandwidth_mbps(0), 1000.0, 1.0);
}

TEST(RateEstimator, RttSamplesPublishOneWayLatency) {
  RateEstimator est(1, test_cfg());
  sim::TimeNs now = 0;
  for (int i = 0; i < 40; ++i) {
    now += 100'000;
    est.note_rtt(0, /*rtt=*/20'000, now);  // 20 us round trip
  }
  EXPECT_NEAR(est.latency_us(0), 10.0, 0.5);  // one-way us
}

TEST(RateEstimator, TimeoutDecaysBothBandwidthAndConfidence) {
  RateEstimator est(1, test_cfg());
  sim::TimeNs now = 0;
  for (int i = 0; i < 40; ++i) {
    now += 100'000;
    feed_mbps(est, 0, 1000.0, now);
  }
  const double c0 = est.confidence(0, now);
  est.note_timeout(0, now);
  EXPECT_NEAR(est.bandwidth_mbps(0), 500.0, 1.0);
  EXPECT_NEAR(est.confidence(0, now), c0 * 0.5, 0.01);
  est.note_timeout(0, now);
  EXPECT_NEAR(est.bandwidth_mbps(0), 250.0, 1.0);
}

TEST(RateEstimator, SuspectRailIsDownWeightedBeforeDeath) {
  RateEstimator est(1, test_cfg());
  sim::TimeNs now = 1'000'000;
  feed_mbps(est, 0, 1000.0, now);

  const double healthy = est.effective_rate(0, 1000.0, now);
  est.note_state(0, core::RailState::kSuspect, now);
  const double suspect = est.effective_rate(0, 1000.0, now);
  EXPECT_NEAR(suspect, healthy * core::kSuspectPenalty, 1.0);

  est.note_state(0, core::RailState::kDead, now);
  EXPECT_EQ(est.effective_rate(0, 1000.0, now), 0.0);
}

TEST(RateEstimator, RecoveryRampsWeightBackGradually) {
  auto cfg = test_cfg();
  cfg.recovery_ramp_ns = 10'000'000;
  RateEstimator est(1, cfg);
  const sim::TimeNs t0 = 1'000'000;
  feed_mbps(est, 0, 1000.0, t0);
  est.note_state(0, core::RailState::kSuspect, t0);
  est.note_state(0, core::RailState::kHealthy, t0);  // recovery at t0

  // Prior == live == 1000, so the confidence blend is exactly 1000 and the
  // effective rate isolates the health factor. Just after recovery the
  // rail re-enters near the suspect weight...
  EXPECT_LT(est.effective_rate(0, 1000.0, t0 + 1), 300.0);
  // ...climbs monotonically through the ramp...
  double prev = 0.0;
  for (int i = 1; i <= 10; ++i) {
    const sim::TimeNs t = t0 + i * (cfg.recovery_ramp_ns / 10);
    const double r = est.effective_rate(0, 1000.0, t);
    EXPECT_GE(r, prev);
    prev = r;
  }
  // ...and is fully restored once the ramp completes.
  EXPECT_NEAR(est.effective_rate(0, 1000.0, t0 + cfg.recovery_ramp_ns), 1000.0,
              10.0);
}

TEST(RateEstimator, PriorRulesUntilSamplesArrive) {
  RateEstimator est(2, test_cfg());
  const sim::TimeNs now = 1'000'000;
  // No samples: the effective rate IS the prior.
  EXPECT_EQ(est.effective_rate(0, 1200.0, now), 1200.0);
  // Confident live samples override a wrong prior almost entirely.
  sim::TimeNs t = 0;
  for (int i = 0; i < 40; ++i) {
    t += 100'000;
    feed_mbps(est, 1, 300.0, t);
  }
  EXPECT_NEAR(est.effective_rate(1, 850.0, t), 300.0, 40.0);
}

TEST(RateEstimator, DeriveRatiosShiftsTowardTheFasterRail) {
  RateEstimator est(2, test_cfg());
  const std::array<double, 2> prior{1200.0, 850.0};
  std::vector<double> current{0.585, 0.415};  // the boot-time normalized prior

  // Rail 0 degrades to 300 MB/s, rail 1 holds 850.
  sim::TimeNs now = 0;
  for (int i = 0; i < 40; ++i) {
    now += 100'000;
    feed_mbps(est, 0, 300.0, now);
    feed_mbps(est, 1, 850.0, now);
  }
  auto next = est.derive_ratios(prior, current, now);
  ASSERT_TRUE(next.has_value());
  EXPECT_NEAR((*next)[0], 300.0 / 1150.0, 0.05);
  EXPECT_NEAR((*next)[1], 850.0 / 1150.0, 0.05);
}

TEST(RateEstimator, HysteresisHoldsRatiosUnderNoisySamples) {
  RateEstimator est(2, test_cfg());
  const std::array<double, 2> prior{1000.0, 1000.0};
  std::vector<double> current{0.5, 0.5};
  util::Xoshiro256 rng(0xada9);

  // +-5% noise around symmetric rates: the derived weights wiggle inside
  // the hysteresis band, so the estimator must never propose an install.
  sim::TimeNs now = 0;
  int installs = 0;
  for (int i = 0; i < 200; ++i) {
    now += 100'000;
    const double n0 = 0.95 + 0.1 * (static_cast<double>(rng.next() % 1000) / 1000.0);
    const double n1 = 0.95 + 0.1 * (static_cast<double>(rng.next() % 1000) / 1000.0);
    feed_mbps(est, 0, 1000.0 * n0, now);
    feed_mbps(est, 1, 1000.0 * n1, now);
    if (auto next = est.derive_ratios(prior, current, now)) {
      current = *next;
      ++installs;
    }
  }
  EXPECT_EQ(installs, 0) << "ratio thrash under noise";
}

TEST(RateEstimator, MinWeightFloorKeepsProbeTrafficFlowing) {
  RateEstimator est(2, test_cfg());
  const std::array<double, 2> prior{1000.0, 1000.0};
  const std::vector<double> current{0.5, 0.5};

  // Rail 0 collapses to ~1% of rail 1: the floor must keep it at 5% so
  // its recovery stays observable.
  sim::TimeNs now = 0;
  for (int i = 0; i < 40; ++i) {
    now += 100'000;
    feed_mbps(est, 0, 10.0, now);
    feed_mbps(est, 1, 1000.0, now);
  }
  auto next = est.derive_ratios(prior, current, now);
  ASSERT_TRUE(next.has_value());
  EXPECT_NEAR((*next)[0], core::kMinRailWeight, 0.01);
  EXPECT_NEAR((*next)[0] + (*next)[1], 1.0, 1e-9);
}

TEST(RateEstimator, DeadRailGetsNoFloorAndAllDeadGetsNoRatios) {
  RateEstimator est(2, test_cfg());
  const std::array<double, 2> prior{1000.0, 1000.0};
  const std::vector<double> current{0.5, 0.5};
  const sim::TimeNs now = 1'000'000;

  est.note_state(0, core::RailState::kDead, now);
  auto next = est.derive_ratios(prior, current, now);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ((*next)[0], 0.0);
  EXPECT_NEAR((*next)[1], 1.0, 1e-9);

  est.note_state(1, core::RailState::kDead, now);
  EXPECT_FALSE(est.derive_ratios(prior, current, now).has_value());
}

}  // namespace
