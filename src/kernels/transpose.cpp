#include "kernels/transpose.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace xts::kernels {

namespace {
constexpr std::size_t kBlock = 32;  // 32x32 doubles = 8 KiB tiles
}

void transpose(std::size_t rows, std::size_t cols, std::span<const double> in,
               std::span<double> out) {
  if (in.size() < rows * cols || out.size() < rows * cols)
    throw UsageError("transpose: span too small");
  for (std::size_t ib = 0; ib < rows; ib += kBlock) {
    const std::size_t imax = std::min(rows, ib + kBlock);
    for (std::size_t jb = 0; jb < cols; jb += kBlock) {
      const std::size_t jmax = std::min(cols, jb + kBlock);
      for (std::size_t i = ib; i < imax; ++i)
        for (std::size_t j = jb; j < jmax; ++j)
          out[j * rows + i] = in[i * cols + j];
    }
  }
}

machine::Work transpose_work(double elems) {
  machine::Work w;
  w.stream_bytes = 16.0 * elems;  // 8 B read + 8 B write per element
  return w;
}

}  // namespace xts::kernels
