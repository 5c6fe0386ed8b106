#pragma once

/// \file transpose.hpp
/// Cache-blocked matrix transpose: the local stage of PTRANS (Fig 10),
/// the low-temporal / high-spatial locality quadrant.

#include <cstddef>
#include <span>

#include "machine/work.hpp"

namespace xts::kernels {

/// out(j,i) = in(i,j); `in` is rows x cols row-major, `out` cols x rows.
void transpose(std::size_t rows, std::size_t cols, std::span<const double> in,
               std::span<double> out);

/// Work for transposing `elems` doubles (read + write streams).
[[nodiscard]] machine::Work transpose_work(double elems);

}  // namespace xts::kernels
