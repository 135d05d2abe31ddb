#include "metrics/entropy_stats.h"

namespace meanet::metrics {

void EntropyStats::add(float entropy, bool correct) {
  if (correct) {
    correct_sum_ += entropy;
    ++correct_count_;
  } else {
    wrong_sum_ += entropy;
    ++wrong_count_;
  }
}

double EntropyStats::mu_correct() const {
  return correct_count_ == 0 ? 0.0 : correct_sum_ / static_cast<double>(correct_count_);
}

double EntropyStats::mu_wrong() const {
  return wrong_count_ == 0 ? 0.0 : wrong_sum_ / static_cast<double>(wrong_count_);
}

}  // namespace meanet::metrics
