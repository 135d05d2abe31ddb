// int8 quantized GEMM: u8 activations · s8 weights -> s32, with a
// folded-scale requantization back to float in the epilogue.
//
// Quantization scheme (the standard symmetric-weight / asymmetric-
// activation serving layout):
//   - weights:     per-output-row symmetric, s8 in [-127, 127],
//                  w ≈ wq * scale[r]; rows are zero-padded in k to a
//                  multiple of 4 (the VNNI dot-product group size).
//   - activations: per-tensor, u8 with a fixed zero point of 128,
//                  x ≈ (xq - 128) * a_scale.
// The integer kernel accumulates sum_k xq*wq exactly in s32; the
// epilogue folds the zero point out with the precomputed row sums:
//   C[r,j] = (acc - 128 * row_sum[r]) * (scale[r] * a_scale) + bias[r]
// Accumulation is exact integer arithmetic and the epilogue uses one
// fused multiply-add in every tier, so the scalar and VNNI kernels are
// bit-identical — the int8 parity tests assert equality, not
// tolerance. Kernel tiers (tensor/simd.h): AVX512-VNNI / AVX-VNNI
// vpdpbusd, else scalar. There is deliberately no AVX2 vpmaddubsw
// tier — its int16 intermediate saturates (see simd.h).
//
// The quantized *serving* path is opt-in per thread:
// set_quantized_inference(true) (or a QuantizedScope) makes eval conv
// forwards on that thread quantize their (BN-folded) weights and
// im2col activations on the fly and run this kernel instead of the
// float GEMM. Thread-local so sessions with different
// EngineConfig::quantized_inference settings can share one process
// (each worker sets its own flag).
#pragma once

#include <cstddef>
#include <cstdint>

namespace meanet::ops {

// ----- Serving-path selection (thread-local) ---------------------------

/// True while eval conv forwards on the calling thread use the int8
/// path. Defaults to false.
bool quantized_inference();
void set_quantized_inference(bool on);

/// RAII set/restore of the calling thread's quantized-inference flag.
class QuantizedScope {
 public:
  explicit QuantizedScope(bool on) : previous_(quantized_inference()) {
    set_quantized_inference(on);
  }
  ~QuantizedScope() { set_quantized_inference(previous_); }
  QuantizedScope(const QuantizedScope&) = delete;
  QuantizedScope& operator=(const QuantizedScope&) = delete;

 private:
  bool previous_;
};

// ----- Quantization ----------------------------------------------------

/// Activation zero point: u8 codes are x/scale + 128.
constexpr int kActivationZeroPoint = 128;

/// k rounded up to the VNNI dot-product group (4).
constexpr int quantized_k_padded(int k) { return (k + 3) & ~3; }

/// Quantizes w [rows, cols] (row-major, ld = cols) per row into
/// wq [rows, k_padded(cols)] with zero-padded tails, per-row scales
/// (max|w_row| / 127; 0 for an all-zero row), and per-row sums of wq
/// (the zero-point correction term).
void quantize_weight_rows(const float* w, int rows, int cols, std::int8_t* wq, float* scales,
                          std::int32_t* row_sums);

/// Per-tensor activation scale: max|x| / 127 (0 for an all-zero
/// tensor, which makes the quantized codes collapse to the zero point
/// and the epilogue multiply by 0 — output degenerates to the bias,
/// exactly like the float path on zero input).
float activation_scale(const float* x, std::size_t n);

/// xq = clamp(round(x / scale) + 128, 0, 255); scale == 0 writes the
/// zero point everywhere.
void quantize_activations_u8(const float* x, std::size_t n, float scale, std::uint8_t* out);

// ----- Kernel ----------------------------------------------------------

/// C[r, j] = (sum_{p<k} act[p, j] * wq[r, p] - 128 * row_sums[r])
///           * (scales[r] * a_scale) + bias[r]        (bias null = 0)
/// act is u8 [k, n] row-major with ld = n (im2col columns, quantized);
/// wq is [rows, k_padded] with zero-padded tails. Overwrites the full
/// [rows, n] block of C (leading dimension ldc). Dispatches to the
/// active int8 kernel tier; scratch comes from the per-thread
/// workspace.
void qgemm_u8s8(int rows, int n, int k, int k_padded, const std::int8_t* wq, const float* scales,
                const std::int32_t* row_sums, const std::uint8_t* act, float a_scale,
                const float* bias, float* c, int ldc);

}  // namespace meanet::ops
