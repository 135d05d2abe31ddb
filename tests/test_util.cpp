#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace meanet::util {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(1);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 500; ++i) {
    const int v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(2);
  std::vector<int> v{1, 2, 3, 4, 5};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(3);
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  // Distinct children should produce different streams.
  EXPECT_NE(child1.uniform_int(0, 1 << 20), child2.uniform_int(0, 1 << 20));
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(StringUtil, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
}

TEST(StringUtil, RenderTableAlignsColumns) {
  const std::string table = render_table({{"h1", "header2"}, {"a", "b"}});
  // Header row, separator row, data row.
  EXPECT_NE(table.find("h1"), std::string::npos);
  EXPECT_NE(table.find("---"), std::string::npos);
  EXPECT_NE(table.find("a"), std::string::npos);
}

TEST(Stopwatch, MeasuresNonNegativeTime) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
  sw.reset();
  EXPECT_GE(sw.milliseconds(), 0.0);
}

}  // namespace
}  // namespace meanet::util
