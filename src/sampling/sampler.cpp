#include "sampling/sampler.hpp"

#include "core/platform.hpp"
#include "sim/time.hpp"
#include "util/panic.hpp"
#include "util/stats.hpp"

namespace nmad::sampling {

namespace {

/// One-way transfer time of a single `size`-byte message over the platform,
/// measured from submission to receive completion.
double one_way_us(core::TwoNodePlatform& p, std::uint64_t size) {
  static std::vector<std::byte> payload;
  static std::vector<std::byte> sink;
  if (payload.size() < size) payload.resize(size, std::byte{0x5a});
  if (sink.size() < size) sink.resize(size);

  auto recv = p.b().irecv(p.gate_ba(), /*tag=*/7,
                          std::span<std::byte>(sink.data(), size));
  const sim::TimeNs t0 = p.now();
  auto send = p.a().isend(p.gate_ab(), /*tag=*/7,
                          std::span<const std::byte>(payload.data(), size));
  p.b().wait(recv);
  p.a().wait(send);
  return sim::ns_to_us(recv->completion_time() - t0);
}

}  // namespace

std::vector<std::uint64_t> sampling_sizes() {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t s = 64 * 1024; s <= 4 * 1024 * 1024; s *= 2) {
    sizes.push_back(s);
  }
  return sizes;
}

std::vector<RailSample> sample_rails(
    const netmodel::HostProfile& host_a, const netmodel::HostProfile& host_b,
    const std::vector<netmodel::NicProfile>& links) {
  std::vector<RailSample> samples;
  samples.reserve(links.size());

  for (const auto& nic : links) {
    // A scratch world containing only this rail: measurements are taken in
    // isolation, exactly like nmad's initialization-time sampling.
    core::PlatformConfig cfg;
    cfg.host_a = host_a;
    cfg.host_b = host_b;
    cfg.links = {nic};
    cfg.strategy = "single_rail";
    core::TwoNodePlatform p(std::move(cfg));

    RailSample sample;
    sample.rail_name = nic.name;
    sample.latency_us = one_way_us(p, 4);

    std::vector<double> xs;
    std::vector<double> ys;
    for (std::uint64_t size : sampling_sizes()) {
      xs.push_back(static_cast<double>(size));
      ys.push_back(one_way_us(p, size));
    }
    const util::LinearFit fit = util::fit_linear(xs, ys);
    NMAD_ASSERT(fit.slope > 0.0, "sampling produced non-positive slope");
    sample.intercept_us = fit.intercept;
    sample.slope_us_per_byte = fit.slope;
    sample.bandwidth_mbps = 1.0 / fit.slope;  // B/µs == MB/s
    sample.fit_r2 = fit.r2;
    samples.push_back(std::move(sample));
  }
  return samples;
}

}  // namespace nmad::sampling
