#pragma once

/// \file stream.hpp
/// STREAM kernels: the high-spatial / low-temporal locality quadrant
/// (Fig 7).  A single core can nearly saturate the socket, so the second
/// core adds little — the paper's central dual-core caveat.

#include <span>

#include "machine/work.hpp"

namespace xts::kernels {

/// a[i] = b[i] + scalar * c[i]  (STREAM Triad)
void stream_triad(std::span<double> a, std::span<const double> b,
                  std::span<const double> c, double scalar);

/// Work for one triad pass over n elements: 24 B/element of traffic
/// (two loads + one store, STREAM counting convention), 2 flops/element.
[[nodiscard]] machine::Work triad_work(double n);

/// Bytes moved by one triad pass (STREAM convention), for GB/s math.
[[nodiscard]] double triad_bytes(double n);

}  // namespace xts::kernels
