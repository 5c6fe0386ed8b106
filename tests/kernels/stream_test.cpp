#include "kernels/stream.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"

#include <vector>

namespace xts::kernels {
namespace {

TEST(Stream, TriadComputesCorrectly) {
  std::vector<double> a(100, 0.0), b(100), c(100);
  for (std::size_t i = 0; i < 100; ++i) {
    b[i] = static_cast<double>(i);
    c[i] = 2.0;
  }
  stream_triad(a, b, c, 3.0);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a[i], static_cast<double>(i) + 6.0);
}

TEST(Stream, MismatchedLengthsThrow) {
  std::vector<double> a(10), b(11), c(10);
  EXPECT_THROW(stream_triad(a, b, c, 1.0), UsageError);
  EXPECT_THROW(stream_triad(a, c, b, 1.0), UsageError);
  // An empty third span is a length mismatch too, not "no third span".
  std::vector<double> empty;
  EXPECT_THROW(stream_triad(a, c, empty, 1.0), UsageError);
}

TEST(StreamWork, TwentyFourBytesPerElement) {
  const auto w = triad_work(1.0e6);
  EXPECT_DOUBLE_EQ(w.stream_bytes, 24.0e6);
  // Pure-bandwidth descriptor: the ALU work hides under the streams.
  EXPECT_DOUBLE_EQ(w.flops, 0.0);
  EXPECT_DOUBLE_EQ(triad_bytes(1.0e6), 24.0e6);
}

}  // namespace
}  // namespace xts::kernels
