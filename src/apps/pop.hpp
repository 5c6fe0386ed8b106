#pragma once

/// \file pop.hpp
/// Parallel Ocean Program proxy (paper §6.2, Figs 17-19).
///
/// POP's performance splits into two phases:
///  - baroclinic: 3D computation with nearest-neighbour halo exchange —
///    scales well everywhere;
///  - barotropic: a 2D implicit solve by conjugate gradient whose
///    MPI_Allreduce-dominated inner products make it latency-bound and
///    flat with scale.
///
/// The barotropic phase is timed by the message skeleton of a real
/// distributed conjugate-gradient solver: each rank owns a block of the
/// 2D grid and issues exactly the solver's halo exchanges, allreduces
/// and per-iteration compute — same order, peers, tags and byte counts —
/// without carrying or computing the vectors, since no output reads
/// them.  The real solver (`distributed_cg`, below) is kept and verified
/// against the serial one by the tests.  The Chronopoulos-Gear variant
/// (one fused allreduce per iteration instead of two) is the
/// algorithmic improvement the paper backported from POP 2.1.

#include <memory>
#include <vector>

#include "machine/config.hpp"
#include "vmpi/comm.hpp"

namespace xts::apps {

struct PopConfig {
  int nx = 3600;  ///< 0.1-degree benchmark grid (paper §6.2)
  int ny = 2400;
  int nz = 40;
  int steps_per_day = 180;     ///< baroclinic steps per simulated day
  int cg_iters_per_solve = 160;  ///< barotropic CG iterations per step
  bool chronopoulos_gear = false;
  int sample_steps = 2;        ///< timesteps actually simulated
  int sample_cg_iters = 24;    ///< CG iterations actually simulated
  vmpi::AllreduceAlgo allreduce = vmpi::AllreduceAlgo::kRecursiveDoubling;
};

struct PopResult {
  double baroclinic_seconds_per_day = 0.0;
  double barotropic_seconds_per_day = 0.0;
  [[nodiscard]] double seconds_per_day() const noexcept {
    return baroclinic_seconds_per_day + barotropic_seconds_per_day;
  }
  /// Fig 17/18 metric.
  [[nodiscard]] double simulated_years_per_day() const noexcept {
    return 86400.0 / (seconds_per_day() * 365.0);
  }
};

/// Run the POP proxy on `nranks` tasks of machine `m` in `mode`.
PopResult run_pop(const machine::MachineConfig& m, machine::ExecMode mode,
                  int nranks, const PopConfig& cfg = {});

/// Real distributed CG on an nx x ny 5-point Laplacian over a px x py
/// rank grid; returns the solution gathered at rank 0 plus iteration
/// count.  Tests use it to prove the distributed solver matches the
/// serial one; run_pop times the same solver's message skeleton.
struct DistributedCgResult {
  std::vector<double> x_at_root;  ///< full solution (rank 0), empty else
  int iterations = 0;
  double final_residual = 0.0;
};

/// 2D block decomposition helper: near-square factorization of p.
struct Decomp2D {
  int px = 1, py = 1;
};
[[nodiscard]] Decomp2D choose_decomp(int p);

/// Distributed CG solver task body (call from every rank of `comm`).
/// `b_global` must be identical on all ranks (each uses its block).
/// Writes the result on rank 0.
[[nodiscard]] Task<void> distributed_cg(
    vmpi::Comm& comm, int nx, int ny, const std::vector<double>& b_global,
    double tol, int max_iters, bool chronopoulos_gear,
    DistributedCgResult* out);

}  // namespace xts::apps
