// Ablation A3 — stripping-ratio sweep. Forces the split ratio of the v3
// strategy across [0.1, 0.9] for the Myri-10G share of an 8 MB segment and
// compares against the sampling-derived adaptive ratio. The sampled ratio
// must sit at (or very near) the optimum of the forced sweep.

#include <cstdio>

#include "harness.hpp"
#include "sampling/ratio_table.hpp"
#include "sampling/sampler.hpp"

using namespace nmad;
using namespace nmad::bench;

namespace {

double bandwidth_with_ratio(double myri_share, const char* label = nullptr) {
  core::TwoNodePlatform p(core::paper_platform("split_balance"));
  p.a().scheduler().gate(p.gate_ab()).set_ratios({myri_share, 1.0 - myri_share});
  p.b().scheduler().gate(p.gate_ba()).set_ratios({myri_share, 1.0 - myri_share});
  const double us = pingpong_oneway_us(p, 8 * 1024 * 1024, PingPongOpts{});
  if (label != nullptr) record_metrics(label, p);
  return 8.0 * 1024 * 1024 / us;
}

}  // namespace

int main() {
  set_report_name("abl_split_ratio");
  std::printf("=== Ablation A3: forced stripping ratio vs sampled ratio ===\n\n");

  std::printf("# %-12s %s\n", "myri_share", "bandwidth_MB/s");
  double best_bw = 0.0;
  double best_ratio = 0.0;
  for (double r = 0.1; r <= 0.901; r += 0.1) {
    const double bw = bandwidth_with_ratio(r);
    if (bw > best_bw) {
      best_bw = bw;
      best_ratio = r;
    }
    std::printf("%-14.2f %.2f\n", r, bw);
  }

  const core::PlatformConfig paper = core::paper_platform("split_balance");
  const std::vector<double> sampled =
      sampling::RatioTable(
          sampling::sample_rails(paper.host_a, paper.host_b, paper.links))
          .weights();
  const double sampled_bw = bandwidth_with_ratio(sampled[0], "sampled-ratio");
  std::printf("\n# sampled myri share: %.3f -> %.2f MB/s (sweep best: %.2f at %.2f)\n\n",
              sampled[0], sampled_bw, best_bw, best_ratio);

  // The sampled ratio favors Myri-10G (the higher-bandwidth rail)...
  check_greater("A3 sampled myri share", sampled[0], 0.5);
  // ...and achieves at least 97% of the best forced ratio's bandwidth.
  check_greater("A3 sampled/best bandwidth (ratio)", sampled_bw / best_bw, 0.97);
  // The 50/50 point reproduces the iso-split deficit.
  check_greater("A3 best/iso bandwidth (ratio)", best_bw / bandwidth_with_ratio(0.5),
                1.05);
  return checks_exit_code();
}
