#include "kernels/transpose.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"

#include <vector>

#include "core/rng.hpp"

namespace xts::kernels {
namespace {

TEST(Transpose, RectangularCorrect) {
  const std::size_t rows = 37, cols = 53;
  Rng rng(1);
  std::vector<double> in(rows * cols), out(rows * cols);
  for (auto& x : in) x = rng.uniform(0, 1);
  transpose(rows, cols, in, out);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      EXPECT_DOUBLE_EQ(out[j * rows + i], in[i * cols + j]);
}

TEST(Transpose, DoubleTransposeIsIdentity) {
  const std::size_t rows = 64, cols = 96;
  Rng rng(2);
  std::vector<double> in(rows * cols), mid(rows * cols), out(rows * cols);
  for (auto& x : in) x = rng.uniform(0, 1);
  transpose(rows, cols, in, mid);
  transpose(cols, rows, mid, out);
  EXPECT_EQ(in, out);
}

TEST(Transpose, TooSmallSpansThrow) {
  std::vector<double> in(10), out(16);
  EXPECT_THROW(transpose(4, 4, in, out), UsageError);
  EXPECT_THROW(transpose(4, 4, out, in), UsageError);
}

TEST(TransposeWork, SixteenBytesPerElement) {
  EXPECT_DOUBLE_EQ(transpose_work(1000.0).stream_bytes, 16000.0);
}

}  // namespace
}  // namespace xts::kernels
