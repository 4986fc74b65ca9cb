// Sampling subsystem tests: the boot-time measurements must recover the
// profiles' actual bulk bandwidths (that is the whole point of adaptive
// ratios), and the platform must install exactly the weights derived from
// them.
#include <gtest/gtest.h>

#include "core/platform.hpp"
#include "sampling/ratio_table.hpp"
#include "sampling/sampler.hpp"

namespace {

using namespace nmad;
using namespace nmad::sampling;

TEST(Sampler, RecoversProfileBandwidths) {
  const netmodel::HostProfile host;
  const auto samples =
      sample_rails(host, host, {netmodel::myri10g(), netmodel::quadrics_qm500()});
  ASSERT_EQ(samples.size(), 2u);

  EXPECT_EQ(samples[0].rail_name, "myri10g");
  EXPECT_EQ(samples[1].rail_name, "quadrics");
  // Fitted bulk bandwidth within 2% of the configured DMA rate.
  EXPECT_NEAR(samples[0].bandwidth_mbps, 1210.0, 1210.0 * 0.02);
  EXPECT_NEAR(samples[1].bandwidth_mbps, 858.0, 858.0 * 0.02);
  // Latency close to the calibrated minimum (isolated rail, no polling).
  EXPECT_NEAR(samples[0].latency_us, 2.8, 0.2);
  EXPECT_NEAR(samples[1].latency_us, 1.7, 0.2);
  // The linear model must fit bulk transfers almost perfectly.
  EXPECT_GT(samples[0].fit_r2, 0.999);
  EXPECT_GT(samples[1].fit_r2, 0.999);
}

TEST(Sampler, WeightsAreNormalizedAndOrdered) {
  const netmodel::HostProfile host;
  const auto weights =
      RatioTable(sample_rails(host, host,
                              {netmodel::myri10g(), netmodel::quadrics_qm500()}))
          .weights();
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_NEAR(weights[0] + weights[1], 1.0, 1e-12);
  EXPECT_GT(weights[0], weights[1]);  // myri is the faster bulk rail
  EXPECT_NEAR(weights[0], 1210.0 / (1210.0 + 858.0), 0.01);
}

TEST(Sampler, SamplingSizesSpanBulkRange) {
  const auto sizes = sampling_sizes();
  ASSERT_GE(sizes.size(), 4u);
  EXPECT_EQ(sizes.front(), 64u * 1024);
  EXPECT_EQ(sizes.back(), 4u * 1024 * 1024);
}

TEST(Platform, SampledRatiosInstalledOnGates) {
  const core::PlatformConfig paper = core::paper_platform("split_balance");
  const std::vector<double> expected =
      RatioTable(sample_rails(paper.host_a, paper.host_b, paper.links)).weights();
  ASSERT_EQ(expected.size(), 2u);
  EXPECT_NEAR(expected[0], 0.585, 0.02);  // 1210/(1210+858)

  // Threaded sessions are live before sampling ends, so that mode takes
  // the locked install path.
  for (const core::ProgressMode mode :
       {core::ProgressMode::kSerial, core::ProgressMode::kThreaded}) {
    SCOPED_TRACE(mode == core::ProgressMode::kSerial ? "serial" : "threaded");
    core::PlatformConfig cfg = paper;
    cfg.sampled_ratios = true;
    cfg.progress_mode = mode;
    core::TwoNodePlatform p(std::move(cfg));
    ASSERT_EQ(p.progress_mode(), mode);
    // Gate::set_ratios renormalizes the (already normalized) weights.
    for (const auto& ratios : {p.a().scheduler().gate(p.gate_ab()).ratios(),
                               p.b().scheduler().gate(p.gate_ba()).ratios()}) {
      ASSERT_EQ(ratios.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_DOUBLE_EQ(ratios[i], expected[i]);
      }
    }
    // Sampling runs in a scratch world: the main clock must still be at 0.
    EXPECT_EQ(p.now(), 0);
  }
}

}  // namespace
