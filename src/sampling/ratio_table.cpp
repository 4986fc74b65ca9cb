#include "sampling/ratio_table.hpp"

#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

#include "util/fmt.hpp"
#include "util/panic.hpp"

namespace nmad::sampling {

namespace {
constexpr std::string_view kHeader = "# nmad sampling cache v1";
}  // namespace

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

std::string RatioTable::serialize() const {
  std::string out(kHeader);
  out += '\n';
  for (const RailSample& s : samples_) {
    out += util::sformat("%s %.6f %.6f %.9e %.6f\n", s.rail_name.c_str(),
                         s.latency_us, s.intercept_us, s.slope_us_per_byte,
                         s.fit_r2);
  }
  return out;
}

util::Expected<RatioTable> RatioTable::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return util::make_error("bad sampling cache header");
  }
  std::vector<RailSample> samples;
  double total_mbps = 0.0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    RailSample s;
    if (!(fields >> s.rail_name >> s.latency_us >> s.intercept_us >>
          s.slope_us_per_byte >> s.fit_r2)) {
      return util::make_error(
          util::sformat("bad sampling cache line: '%s'", line.c_str()));
    }
    if (s.slope_us_per_byte <= 0.0) {
      return util::make_error("non-positive slope in sampling cache");
    }
    // Extraction above already fails on inf, nan and overflowing fields,
    // but a denormal slope passes the sign check and its bandwidth
    // overflows; weights() would then divide inf by inf. The running total
    // must stay finite too, or every normalized weight collapses to 0.
    s.bandwidth_mbps = 1.0 / s.slope_us_per_byte;
    total_mbps += s.bandwidth_mbps;
    if (!std::isfinite(total_mbps)) {
      return util::make_error("sampling cache bandwidth is not finite");
    }
    samples.push_back(std::move(s));
  }
  if (samples.empty()) return util::make_error("empty sampling cache");
  return RatioTable(std::move(samples));
}

util::Status RatioTable::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return util::make_error(
        util::sformat("cannot open '%s' for writing", path.c_str()));
  }
  out << serialize();
  if (!out.good()) {
    return util::make_error(util::sformat("write to '%s' failed", path.c_str()));
  }
  return {};
}

util::Expected<RatioTable> RatioTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::make_error(util::sformat("cannot open '%s'", path.c_str()));
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

}  // namespace nmad::sampling
