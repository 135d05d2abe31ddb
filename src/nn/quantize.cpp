#include "nn/quantize.h"

#include <cmath>
#include <stdexcept>

#include "nn/parameter.h"

namespace meanet::nn {

QuantizationReport quantize_weights(Layer& layer, int bits) {
  if (bits < 2 || bits > 16) {
    throw std::invalid_argument("quantize_weights: bits must be in [2, 16]");
  }
  QuantizationReport report;
  report.bits = bits;
  const float levels = static_cast<float>((1 << (bits - 1)) - 1);
  double error_sum = 0.0;
  for (Parameter* p : layer.parameters()) {
    float max_abs = 0.0f;
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      max_abs = std::max(max_abs, std::fabs(p->value[i]));
    }
    if (max_abs == 0.0f) {
      report.quantized_params += p->numel();
      continue;  // all-zero tensor is already exactly representable
    }
    const float scale = max_abs / levels;
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      const float original = p->value[i];
      const float quantized = std::round(original / scale) * scale;
      const float err = std::fabs(quantized - original);
      report.max_abs_error = std::max(report.max_abs_error, err);
      error_sum += err;
      p->value[i] = quantized;
    }
    report.quantized_params += p->numel();
  }
  if (report.quantized_params > 0) {
    report.mean_abs_error =
        static_cast<float>(error_sum / static_cast<double>(report.quantized_params));
  }
  return report;
}

}  // namespace meanet::nn
