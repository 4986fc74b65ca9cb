// Boot-time network sampling (paper §3.4): "according to samplings
// performed on the different available NICs (this step is done at the
// NewMadeleine initialization time), an adaptive stripping ratio can be
// determined."
//
// Each rail is measured in isolation (a scratch single-link world built
// from the same host/NIC profiles): a small-message ping for latency and a
// sweep of bulk transfers fitted to T(s) = intercept + slope * s. The
// reciprocal slopes — the rails' effective bulk bandwidths — become the
// stripping weights (RatioTable::weights, sampling/ratio_table.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "netmodel/nic_profile.hpp"

namespace nmad::sampling {

struct RailSample {
  std::string rail_name;
  /// Measured one-way latency of a minimal message, µs.
  double latency_us = 0.0;
  /// Linear fit of one-way bulk transfer time: T(s) = intercept + slope*s.
  double intercept_us = 0.0;
  double slope_us_per_byte = 0.0;
  /// Effective bulk bandwidth (1 / slope), MB/s.
  double bandwidth_mbps = 0.0;
  /// Fit quality (coefficient of determination).
  double fit_r2 = 0.0;
};

/// Sizes used for the bulk sweep (64 KB .. 4 MB, doubling).
std::vector<std::uint64_t> sampling_sizes();

/// Measure every rail in isolation.
std::vector<RailSample> sample_rails(const netmodel::HostProfile& host_a,
                                     const netmodel::HostProfile& host_b,
                                     const std::vector<netmodel::NicProfile>& links);

}  // namespace nmad::sampling
