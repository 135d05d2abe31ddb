#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "reference_kernels.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace meanet::ops {
namespace {

Tensor transpose2d(const Tensor& t) {
  const int r = t.shape().dim(0), c = t.shape().dim(1);
  Tensor out(Shape{c, r});
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) out.at(j, i) = t.at(i, j);
  }
  return out;
}

class GemmTransposeTest : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmTransposeTest, MatchesNaiveReference) {
  const auto [ta, tb] = GetParam();
  util::Rng rng(11);
  const int m = 5, k = 7, n = 4;
  const Tensor a_logical = Tensor::normal(Shape{m, k}, rng);
  const Tensor b_logical = Tensor::normal(Shape{k, n}, rng);
  const Tensor a_stored = ta ? transpose2d(a_logical) : a_logical;
  const Tensor b_stored = tb ? transpose2d(b_logical) : b_logical;
  const Tensor expected = meanet::testing::reference_matmul(a_logical, b_logical);
  const Tensor got = matmul(a_stored, b_stored, ta, tb);
  EXPECT_TRUE(allclose(expected, got, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(AllModes, GemmTransposeTest,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

TEST(Gemm, Accumulates) {
  const int m = 2, n = 2, k = 2;
  Tensor a(Shape{m, k}, std::vector<float>{1, 0, 0, 1});
  Tensor b(Shape{k, n}, std::vector<float>{1, 2, 3, 4});
  Tensor c(Shape{m, n}, std::vector<float>{10, 10, 10, 10});
  gemm(false, false, m, n, k, a.data(), k, b.data(), n, c.data(), n);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 14.0f);
}

TEST(Matmul, RejectsMismatchedInner) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{4, 2});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

// ops has no float im2col (the conv GEMMs pack B straight from the
// images); these pin down the oracle the parity tests compare them with.
TEST(Im2Col, IdentityKernelCopiesPixels) {
  ConvGeometry g;
  g.in_channels = 1;
  g.in_height = 3;
  g.in_width = 3;
  g.kernel = 1;
  g.stride = 1;
  g.padding = 0;
  Tensor img(Shape{1, 1, 3, 3}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  std::vector<float> cols(9);
  testing::reference_im2col(img.data(), g.in_channels, g.in_height, g.in_width, g.kernel,
                            g.stride, g.padding, cols.data());
  for (int i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(cols[static_cast<std::size_t>(i)], img[i]);
}

TEST(Im2Col, PaddingProducesZeros) {
  ConvGeometry g;
  g.in_channels = 1;
  g.in_height = 2;
  g.in_width = 2;
  g.kernel = 3;
  g.stride = 1;
  g.padding = 1;
  Tensor img(Shape{1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  std::vector<float> cols(static_cast<std::size_t>(g.patch_size()) * 4);
  testing::reference_im2col(img.data(), g.in_channels, g.in_height, g.in_width, g.kernel,
                            g.stride, g.padding, cols.data());
  // First output position (0,0), kernel tap (0,0) reads padded corner.
  EXPECT_FLOAT_EQ(cols[0], 0.0f);
  // Kernel tap (1,1) at output (0,0) reads pixel (0,0) = 1.
  EXPECT_FLOAT_EQ(cols[static_cast<std::size_t>(4 * 4)], 1.0f);
}

TEST(Im2Col, StrideSkipsPositions) {
  ConvGeometry g;
  g.in_channels = 1;
  g.in_height = 4;
  g.in_width = 4;
  g.kernel = 2;
  g.stride = 2;
  g.padding = 0;
  EXPECT_EQ(g.out_height(), 2);
  EXPECT_EQ(g.out_width(), 2);
}

TEST(Col2Im, IsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> characterizes the adjoint, which is
  // exactly what the conv backward pass relies on.
  util::Rng rng(3);
  ConvGeometry g;
  g.in_channels = 2;
  g.in_height = 5;
  g.in_width = 4;
  g.kernel = 3;
  g.stride = 2;
  g.padding = 1;
  const int cols_elems = g.patch_size() * g.out_height() * g.out_width();
  const int img_elems = g.in_channels * g.in_height * g.in_width;

  const Tensor x = Tensor::normal(Shape{img_elems}, rng);
  const Tensor y = Tensor::normal(Shape{cols_elems}, rng);
  std::vector<float> cols(static_cast<std::size_t>(cols_elems), 0.0f);
  testing::reference_im2col(x.data(), g.in_channels, g.in_height, g.in_width, g.kernel,
                            g.stride, g.padding, cols.data());
  float lhs = 0.0f;
  for (int i = 0; i < cols_elems; ++i) lhs += cols[static_cast<std::size_t>(i)] * y[i];

  Tensor x_back(Shape{img_elems});
  col2im(y.data(), g, x_back.data());
  float rhs = 0.0f;
  for (int i = 0; i < img_elems; ++i) rhs += x[i] * x_back[i];

  EXPECT_NEAR(lhs, rhs, 1e-3f * std::max(1.0f, std::fabs(lhs)));
}

TEST(Softmax, RowsSumToOne) {
  util::Rng rng(5);
  const Tensor logits = Tensor::normal(Shape{6, 10}, rng, 0.0f, 3.0f);
  const Tensor p = softmax(logits);
  for (int r = 0; r < 6; ++r) {
    float total = 0.0f;
    for (int c = 0; c < 10; ++c) total += p.at(r, c);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(Softmax, NumericallyStableWithLargeLogits) {
  Tensor logits(Shape{1, 3}, std::vector<float>{1000.0f, 1000.0f, 900.0f});
  const Tensor p = softmax(logits);
  EXPECT_NEAR(p[0], 0.5f, 1e-5f);
  EXPECT_NEAR(p[2], 0.0f, 1e-5f);
}

TEST(LogSoftmax, MatchesLogOfSoftmax) {
  util::Rng rng(9);
  const Tensor logits = Tensor::normal(Shape{4, 7}, rng);
  const Tensor p = softmax(logits);
  const Tensor lp = log_softmax(logits);
  for (std::int64_t i = 0; i < p.numel(); ++i) {
    EXPECT_NEAR(lp[i], std::log(p[i]), 1e-5f);
  }
}

TEST(RowEntropy, UniformIsLogK) {
  Tensor p(Shape{1, 4}, std::vector<float>{0.25f, 0.25f, 0.25f, 0.25f});
  EXPECT_NEAR(row_entropy(p)[0], std::log(4.0f), 1e-6f);
}

TEST(RowEntropy, DeltaIsZero) {
  Tensor p(Shape{1, 3}, std::vector<float>{1.0f, 0.0f, 0.0f});
  EXPECT_FLOAT_EQ(row_entropy(p)[0], 0.0f);
}

TEST(RowArgmaxAndMax, FindCorrectEntries) {
  Tensor v(Shape{2, 3}, std::vector<float>{0.1f, 0.7f, 0.2f, 0.5f, 0.3f, 0.2f});
  const auto idx = row_argmax(v);
  const auto mx = row_max(v);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
  EXPECT_FLOAT_EQ(mx[0], 0.7f);
  EXPECT_FLOAT_EQ(mx[1], 0.5f);
}

TEST(RowArgmax, TieBreaksToFirst) {
  Tensor v(Shape{1, 3}, std::vector<float>{0.5f, 0.5f, 0.1f});
  EXPECT_EQ(row_argmax(v)[0], 0);
}

TEST(RowReductions, RejectZeroColumnInputs) {
  // [3, 0] is a legal shape, but its rows have no element: each
  // reduction that reads a row's first element must refuse it rather
  // than dereference an empty buffer (or, for argmax, name a column
  // that does not exist).
  const Tensor empty_rows(Shape{3, 0});
  Tensor out;
  std::vector<int> indices;
  std::vector<float> values;
  EXPECT_THROW(softmax_into(empty_rows, out), std::invalid_argument);
  EXPECT_THROW(softmax(empty_rows), std::invalid_argument);
  EXPECT_THROW(log_softmax(empty_rows), std::invalid_argument);
  EXPECT_THROW(row_argmax_into(empty_rows, indices), std::invalid_argument);
  EXPECT_THROW(row_max_into(empty_rows, values), std::invalid_argument);
  EXPECT_THROW(row_margin_into(empty_rows, values), std::invalid_argument);
  // A zero-row input with columns stays legal: nothing to reduce.
  const Tensor no_rows(Shape{0, 4});
  row_max_into(no_rows, values);
  EXPECT_TRUE(values.empty());
}

TEST(Workspace, RejectsRequestsBeyondATensorsExtentBeforeAllocating) {
  Workspace workspace;
  if constexpr (sizeof(std::size_t) > sizeof(int)) {
    // 2^32 + 5 floats once truncated to a 5-float buffer; a request just
    // above INT_MAX once failed with a misleading "non-negative" error.
    const std::size_t wraps = (std::size_t{1} << 32) + 5;
    EXPECT_THROW(workspace.buffer(Workspace::kPackB, wraps), std::length_error);
    const std::size_t above = static_cast<std::size_t>(INT_MAX) + 1;
    EXPECT_THROW(workspace.buffer(Workspace::kPackB, above), std::length_error);
  }
  // A refused request leaves the slot usable.
  float* small = workspace.buffer(Workspace::kPackB, 5);
  ASSERT_NE(small, nullptr);
  small[4] = 1.0f;
  EXPECT_EQ(small[4], 1.0f);
}

}  // namespace
}  // namespace meanet::ops
