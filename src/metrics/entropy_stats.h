// Entropy statistics of main-block predictions (paper §III-C):
// correct predictions cluster near zero entropy, wrong predictions near
// a higher mean; the offload threshold is chosen in (mu_correct,
// mu_wrong).
#pragma once

#include <cstdint>
#include <utility>

namespace meanet::metrics {

class EntropyStats {
 public:
  void add(float entropy, bool correct);

  std::int64_t num_correct() const { return correct_count_; }
  std::int64_t num_wrong() const { return wrong_count_; }

  /// Mean entropy of correct predictions (0 when none observed).
  double mu_correct() const;
  /// Mean entropy of wrong predictions (0 when none observed).
  double mu_wrong() const;

  /// The paper's recommended threshold interval (mu_correct, mu_wrong).
  std::pair<double, double> threshold_range() const { return {mu_correct(), mu_wrong()}; }

  /// Midpoint of the threshold range — a reasonable default.
  double default_threshold() const { return 0.5 * (mu_correct() + mu_wrong()); }

 private:
  double correct_sum_ = 0.0;
  double wrong_sum_ = 0.0;
  std::int64_t correct_count_ = 0;
  std::int64_t wrong_count_ = 0;
};

}  // namespace meanet::metrics
