// Post-training weight quantization for the edge deployment — the
// hybrid low-precision-edge / full-precision-cloud configuration the
// paper cites as complementary ([7], [43]).
//
// quantize_weights() fake-quantizes: symmetric uniform quantization per
// parameter tensor, scale = max|w| / (2^(bits-1) - 1),
// w_q = round(w / scale) * scale; weights are modified in place and
// inference runs on the rounded values in float arithmetic. This is the
// accuracy-measurement tool (bench/ablation_quantization). The real
// int8 serving path (EngineConfig::quantized_inference /
// ops::QuantizedScope) quantizes per output row inside the conv
// forward (ops::quantize_weight_rows, tensor/qgemm.h) and leaves the
// float weights untouched.
#pragma once

#include <cstdint>

#include "nn/layer.h"

namespace meanet::nn {

struct QuantizationReport {
  int bits = 0;
  std::int64_t quantized_params = 0;
  /// Largest absolute weight change introduced by quantization.
  float max_abs_error = 0.0f;
  /// Mean absolute weight change.
  float mean_abs_error = 0.0f;
};

/// Quantizes every parameter of `layer` (recursing through composites)
/// to `bits` bits. `bits` must be in [2, 16].
QuantizationReport quantize_weights(Layer& layer, int bits);

}  // namespace meanet::nn
