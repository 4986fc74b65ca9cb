// Sampling subsystem tests: the boot-time measurements must recover the
// profiles' actual bulk bandwidths (that is the whole point of adaptive
// ratios), and the cache file must round-trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

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
  const auto weights = measure_rail_weights(
      host, host, {netmodel::myri10g(), netmodel::quadrics_qm500()});
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
  core::PlatformConfig cfg = core::paper_platform("split_balance");
  cfg.sampled_ratios = true;
  core::TwoNodePlatform p(std::move(cfg));
  const auto& ratios = p.a().scheduler().gate(p.gate_ab()).ratios();
  ASSERT_EQ(ratios.size(), 2u);
  EXPECT_NEAR(ratios[0], 0.585, 0.02);  // 1210/(1210+858)
  // Sampling runs in a scratch world: the main clock must still be at 0.
  EXPECT_EQ(p.now(), 0);
}

TEST(Platform, InvalidSamplingCacheIsRemeasured) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "nmad_denormal_slope.cache")
          .string();
  {
    std::ofstream out(path, std::ios::trunc);
    out << "# nmad sampling cache v1\n"
           "myri 3.0 1.0 1e-320 1.0\n"
           "quad 2.0 1.0 1e-3 1.0\n";
  }
  core::PlatformConfig cfg = core::paper_platform("split_balance");
  cfg.sampled_ratios = true;
  cfg.sampling_cache_path = path;
  core::TwoNodePlatform p(std::move(cfg));
  EXPECT_NEAR(p.a().scheduler().gate(p.gate_ab()).ratio(0), 0.585, 0.02);
  // The fresh measurement replaced the invalid cache.
  EXPECT_TRUE(RatioTable::load(path).has_value());
  std::remove(path.c_str());
}

TEST(RatioTable, SerializeParseRoundTrip) {
  const netmodel::HostProfile host;
  RatioTable table(sample_rails(host, host, {netmodel::myri10g(),
                                             netmodel::quadrics_qm500()}));
  const std::string text = table.serialize();
  const auto parsed = RatioTable::parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->samples().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(parsed->samples()[i].rail_name, table.samples()[i].rail_name);
    EXPECT_NEAR(parsed->samples()[i].latency_us, table.samples()[i].latency_us, 1e-5);
    EXPECT_NEAR(parsed->samples()[i].slope_us_per_byte,
                table.samples()[i].slope_us_per_byte, 1e-12);
    EXPECT_NEAR(parsed->samples()[i].bandwidth_mbps,
                table.samples()[i].bandwidth_mbps, 0.1);
  }
  const auto w1 = table.weights();
  const auto w2 = parsed->weights();
  EXPECT_NEAR(w1[0], w2[0], 1e-6);
}

TEST(RatioTable, ParseRejectsMalformedInput) {
  EXPECT_FALSE(RatioTable::parse("").has_value());
  EXPECT_FALSE(RatioTable::parse("wrong header\nmyri 1 2 3 4\n").has_value());
  EXPECT_FALSE(RatioTable::parse("# nmad sampling cache v1\n").has_value());
  EXPECT_FALSE(
      RatioTable::parse("# nmad sampling cache v1\nmyri not numbers\n").has_value());
  EXPECT_FALSE(
      RatioTable::parse("# nmad sampling cache v1\nmyri 1.0 2.0 -3.0e-4 1.0\n")
          .has_value());  // negative slope
  // Non-finite fields.
  EXPECT_FALSE(
      RatioTable::parse("# nmad sampling cache v1\nmyri inf 1.0 1e-3 1.0\n")
          .has_value());
  EXPECT_FALSE(
      RatioTable::parse("# nmad sampling cache v1\nmyri 3.0 nan 1e-3 1.0\n")
          .has_value());
  // A denormal slope is positive, but its bandwidth (1/slope) is inf.
  EXPECT_FALSE(
      RatioTable::parse("# nmad sampling cache v1\nmyri 3.0 1.0 1e-320 1.0\n")
          .has_value());
  // Each bandwidth is finite (1e308 MB/s), but their sum is not.
  EXPECT_FALSE(RatioTable::parse("# nmad sampling cache v1\n"
                                 "myri 3.0 1.0 1e-308 1.0\n"
                                 "quad 2.0 1.0 1e-308 1.0\n")
                   .has_value());
}

TEST(RatioTable, ParseSkipsCommentsAndBlankLines) {
  const auto parsed = RatioTable::parse(
      "# nmad sampling cache v1\n"
      "\n"
      "# a comment\n"
      "myri 2.8 10.0 8.264463e-04 0.9999\n");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->samples().size(), 1u);
  EXPECT_NEAR(parsed->samples()[0].bandwidth_mbps, 1210.0, 1.0);
}

TEST(RatioTable, FileSaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "nmad_sampling_test.cache").string();
  const netmodel::HostProfile host;
  RatioTable table(sample_rails(host, host, {netmodel::quadrics_qm500()}));
  ASSERT_TRUE(table.save(path).has_value());

  const auto loaded = RatioTable::load(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->samples().size(), 1u);
  EXPECT_EQ(loaded->samples()[0].rail_name, "quadrics");
  std::remove(path.c_str());

  EXPECT_FALSE(RatioTable::load("/nonexistent/dir/x.cache").has_value());
}

}  // namespace
