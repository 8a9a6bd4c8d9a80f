#include "util/running_stats.hpp"

#include <algorithm>
#include <cmath>

namespace mnp::util {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  sum_sq_ += x * x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::stddev() const {
  if (n_ == 0) return 0.0;
  const double m = mean();
  const double var = sum_sq_ / static_cast<double>(n_) - m * m;
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

}  // namespace mnp::util
