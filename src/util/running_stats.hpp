// Simple running statistics for metric summaries (sweep aggregates).
#pragma once

#include <cstddef>
#include <limits>

namespace mnp::util {

/// Online mean/min/max/stddev accumulator over doubles.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  /// Population standard deviation.
  double stddev() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = std::numeric_limits<double>::max();
  double max_ = std::numeric_limits<double>::lowest();
};

}  // namespace mnp::util
