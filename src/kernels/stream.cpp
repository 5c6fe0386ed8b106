#include "kernels/stream.hpp"

#include "core/error.hpp"

namespace xts::kernels {

void stream_triad(std::span<double> a, std::span<const double> b,
                  std::span<const double> c, double scalar) {
  if (a.size() != b.size() || a.size() != c.size())
    throw UsageError("stream: span lengths differ");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = b[i] + scalar * c[i];
}

machine::Work triad_work(double n) {
  machine::Work w;
  // The 2 flops/element hide entirely under the memory streams on every
  // machine of interest, so the descriptor carries traffic only — the
  // additive cost model would otherwise double-count the ALU time.
  w.flops = 0.0;
  w.stream_bytes = triad_bytes(n);
  return w;
}

double triad_bytes(double n) { return 24.0 * n; }

}  // namespace xts::kernels
