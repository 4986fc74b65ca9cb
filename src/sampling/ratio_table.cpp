#include "sampling/ratio_table.hpp"

#include <numeric>

#include "util/panic.hpp"

namespace nmad::sampling {

std::vector<double> RatioTable::weights() const {
  NMAD_ASSERT(!samples_.empty(), "weights() on empty ratio table");
  std::vector<double> w;
  w.reserve(samples_.size());
  for (const RailSample& s : samples_) w.push_back(s.bandwidth_mbps);
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  NMAD_ASSERT(total > 0.0, "ratio table with zero total bandwidth");
  for (double& x : w) x /= total;
  return w;
}

}  // namespace nmad::sampling
