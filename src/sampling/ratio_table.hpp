// Split ratios from boot-time samples: each rail's weight is its share of
// the summed measured bulk bandwidths.
#pragma once

#include <utility>
#include <vector>

#include "sampling/sampler.hpp"

namespace nmad::sampling {

class RatioTable {
 public:
  explicit RatioTable(std::vector<RailSample> samples)
      : samples_(std::move(samples)) {}

  /// Normalized per-rail stripping weights (bandwidth shares).
  [[nodiscard]] std::vector<double> weights() const;

 private:
  std::vector<RailSample> samples_;
};

}  // namespace nmad::sampling
