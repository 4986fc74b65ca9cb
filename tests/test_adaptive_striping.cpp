// Integration tests for online adaptive striping: the estimator fed from
// real traffic re-derives a gate's split ratios when the fabric changes
// (sim/net_scenario.hpp profiles over FairShareNet), stays parked on a
// static network, and its published estimates are safe to read from
// application threads while progress threads write (the TSan soak).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "core/platform.hpp"
#include "drv/sim_driver.hpp"
#include "obs/metrics.hpp"
#include "sim/net_scenario.hpp"

namespace {

using namespace nmad;
using namespace nmad::core;

PlatformConfig adaptive_platform(bool enabled) {
  strat::StrategyConfig scfg;
  scfg.adaptive.enabled = enabled;
  return pin_serial(paper_platform("split_balance", scfg));
}

/// One wave of `n` 1 MB messages a->b, waited to completion.
void run_wave(TwoNodePlatform& p, int n = 2) {
  static const std::vector<std::byte> payload(1 << 20, std::byte{0x5a});
  std::vector<std::vector<std::byte>> sinks(n,
                                            std::vector<std::byte>(1 << 20));
  std::vector<RecvHandle> recvs;
  std::vector<SendHandle> sends;
  for (int i = 0; i < n; ++i) {
    recvs.push_back(p.b().irecv(p.gate_ba(), 0, sinks[i]));
  }
  for (int i = 0; i < n; ++i) {
    sends.push_back(p.a().isend(p.gate_ab(), 0, payload));
  }
  p.b().wait_all(sends, recvs);
}

TEST(AdaptiveStriping, RatiosShiftWhenARailDegrades) {
  TwoNodePlatform p(adaptive_platform(true));
  Gate& gate = p.a().scheduler().gate(p.gate_ab());
  const double boot_myri = gate.ratio(0);
  EXPECT_GT(boot_myri, gate.ratio(1));  // Myri-heavy boot prior

  // Degrade the Myri a->b link to a quarter of nominal and keep sending:
  // the estimator observes the granted rates and the gate re-derives the
  // split toward Quadrics within a few optimization windows.
  const sim::ConstraintId myri_ab = p.rails_a()[0]->tx_link();
  const double nominal = p.world().net().capacity(myri_ab);
  p.world().net().set_capacity(myri_ab, nominal * 0.25);
  for (int i = 0; i < 20; ++i) run_wave(p);

  EXPECT_LT(gate.ratio(0), boot_myri - 0.15);
  EXPECT_NEAR(gate.ratio(0) + gate.ratio(1), 1.0, 1e-6);
  // The estimator's live view backs the shift: Myri's observed bandwidth
  // sits near the degraded capacity, far below Quadrics'.
  EXPECT_LT(gate.estimator().bandwidth_mbps(0),
            gate.estimator().bandwidth_mbps(1));

  // Restore the link: the ratios climb back toward the boot prior.
  p.world().net().set_capacity(myri_ab, nominal);
  for (int i = 0; i < 20; ++i) run_wave(p);
  EXPECT_GT(gate.ratio(0), gate.ratio(1));
}

TEST(AdaptiveStriping, StaticNetworkKeepsBootRatios) {
  TwoNodePlatform p(adaptive_platform(true));
  Gate& gate = p.a().scheduler().gate(p.gate_ab());
  const double boot_myri = gate.ratio(0);
  for (int i = 0; i < 20; ++i) run_wave(p);
  // Hysteresis parks the ratios: steady estimates near the prior never
  // clear the install threshold, so there is no thrash to measure.
  EXPECT_NEAR(gate.ratio(0), boot_myri, kRatioHysteresis);
}

// Re-derivations are spaced at least kRatioWindowNs apart: a call one
// nanosecond short of the window is skipped, one at the window runs. Each
// re-derivation either installs (ratio_updates) or holds (ratio_holds);
// with metrics compiled out the counters read 0 and only the calls run.
TEST(AdaptiveStriping, RatioRefreshIsSpacedByTheWindow) {
  TwoNodePlatform p(adaptive_platform(true));
  Gate& gate = p.a().scheduler().gate(p.gate_ab());
  const auto refreshes = [&gate] {
    return gate.adaptive_metrics.ratio_updates.value() +
           gate.adaptive_metrics.ratio_holds.value();
  };
  const std::uint64_t before = refreshes();
  const sim::TimeNs t0 = 10 * kRatioWindowNs;
  gate.maybe_refresh_ratios(t0);
  const std::uint64_t after_first = refreshes();
  gate.maybe_refresh_ratios(t0 + kRatioWindowNs - 1);
  const std::uint64_t after_early = refreshes();
  gate.maybe_refresh_ratios(t0 + kRatioWindowNs);
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(after_first, before + 1);
    EXPECT_EQ(after_early, before + 1);
    EXPECT_EQ(refreshes(), before + 2);
  }
}

TEST(AdaptiveStriping, DisabledEstimatorStillObservesButNeverInstalls) {
  TwoNodePlatform p(adaptive_platform(false));
  Gate& gate = p.a().scheduler().gate(p.gate_ab());
  const double boot_myri = gate.ratio(0);

  const sim::ConstraintId myri_ab = p.rails_a()[0]->tx_link();
  p.world().net().set_capacity(myri_ab, p.world().net().capacity(myri_ab) * 0.25);
  for (int i = 0; i < 10; ++i) run_wave(p);

  // The estimator keeps ingesting (observability is free)...
  EXPECT_GT(gate.estimator().samples(0), 0u);
  // ...but the frozen gate never rewrites its ratios.
  EXPECT_EQ(gate.ratio(0), boot_myri);
}

TEST(NetScenario, ShapedLinkFollowsItsPhases) {
  sim::Engine engine;
  sim::FairShareNet net(engine);
  const sim::ConstraintId link = net.add_constraint(1000.0, "link");

  sim::NetScenario scenario(engine, net);
  scenario.shape_link(link, 1000.0,
                      sim::profile_degrade_recover(1'000'000, 3'000'000, 0.25));

  engine.run_for(1'500'000);
  EXPECT_DOUBLE_EQ(net.capacity(link), 250.0);
  engine.run_for(2'000'000);
  EXPECT_DOUBLE_EQ(net.capacity(link), 1000.0);
}

TEST(NetScenario, DriftStepsThroughIntermediateCapacities) {
  sim::Engine engine;
  sim::FairShareNet net(engine);
  const sim::ConstraintId link = net.add_constraint(1000.0, "link");

  sim::NetScenario scenario(engine, net);
  scenario.shape_link(link, 1000.0,
                      sim::profile_drift(0, 10'000'000, 1.0, 0.5, /*steps=*/10));

  engine.run_for(5'000'000);  // halfway through the drift
  EXPECT_LT(net.capacity(link), 1000.0);
  EXPECT_GT(net.capacity(link), 500.0);
  engine.run_for(6'000'000);
  EXPECT_DOUBLE_EQ(net.capacity(link), 500.0);
}

TEST(NetScenario, CrossTrafficInjectsWithinItsWindowOnly) {
  sim::Engine engine;
  sim::FairShareNet net(engine);
  const sim::ConstraintId link = net.add_constraint(1000.0, "link");

  sim::NetScenario scenario(engine, net);
  // 500 MB/s offered in 100 KB chunks over [1 ms, 3 ms): chunks drain
  // faster than they arrive, so the window leaves no standing backlog.
  scenario.add_cross_traffic(link, 500.0, 100 * 1024, 1'000'000, 3'000'000,
                             /*seed=*/7);

  engine.run_for(500'000);
  EXPECT_EQ(net.active_flows(), 0u);  // nothing before the window
  bool saw_flow = false;
  for (int i = 0; i < 50; ++i) {
    engine.run_for(50'000);
    saw_flow = saw_flow || net.active_flows() > 0;
  }
  EXPECT_TRUE(saw_flow);
  engine.run();  // past the stop time everything drains
  EXPECT_EQ(net.active_flows(), 0u);
}

// The concurrency contract under test: progress threads write the
// estimator (EWMA + confidence under the world mutex) while an application
// thread hammers the published relaxed-atomic reads. TSan must stay quiet.
TEST(AdaptiveStriping, ThreadedPublishedReadsAreRaceFree) {
  strat::StrategyConfig scfg;
  scfg.adaptive.enabled = true;
  PlatformConfig cfg = paper_platform("split_balance", scfg);
  cfg.progress_mode = ProgressMode::kThreaded;
  TwoNodePlatform p(cfg);
  strat::RateEstimator& est = p.a().scheduler().gate(p.gate_ab()).estimator();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      double acc = 0.0;
      for (RailIndex r = 0; r < 2; ++r) {
        acc += est.bandwidth_mbps(r);
        acc += est.latency_us(r);
        acc += est.confidence(r, 0);
        acc += static_cast<double>(est.samples(r));
      }
      reads.fetch_add(1, std::memory_order_relaxed);
      (void)acc;
    }
  });

  for (int i = 0; i < 30; ++i) run_wave(p);
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(est.samples(0) + est.samples(1), 0u);
}

}  // namespace
