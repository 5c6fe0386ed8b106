#pragma once

/// \file scenario.hpp
/// Fingerprint helpers for the simulator's config structs.
///
/// Header-only on purpose: the cache *library* links only against core,
/// but the drivers that build scenario keys already link machine /
/// lustre / apps, so these helpers live where both meet.  Each helper
/// adds every field of its struct under a dotted prefix
/// ("machine.nic.link_bw") — dotted paths keep fields from different
/// structs collision-free, and covering EVERY field is what makes
/// ablation sweeps (which mutate arbitrary machine parameters) safe to
/// cache: a mutated parameter always lands in the key.
///
/// What is never added here, by construction: --jobs and
/// heartbeat/telemetry settings — the simulator is byte-identical
/// across all of them (see fingerprint.hpp).

#include "apps/aorsa.hpp"
#include "apps/cam.hpp"
#include "apps/namd.hpp"
#include "apps/pop.hpp"
#include "apps/s3d.hpp"
#include "cache/fingerprint.hpp"
#include "lustre/lustre.hpp"
#include "machine/config.hpp"

namespace xts::cache {

inline void add_lustre(Fingerprint& fp, const lustre::LustreConfig& io,
                       std::string_view prefix) {
  const std::string p(prefix);
  fp.add(p + ".n_oss", io.n_oss)
      .add(p + ".osts_per_oss", io.osts_per_oss)
      .add(p + ".ost_bw", io.ost_bw)
      .add(p + ".oss_link_bw", io.oss_link_bw)
      .add(p + ".mds_op_time", io.mds_op_time)
      .add(p + ".rpc_overhead", io.rpc_overhead)
      .add(p + ".stripe_size", io.stripe_size)
      .add(p + ".ost_queue_depth", io.ost_queue_depth)
      .add(p + ".lock_conflict_time", io.lock_conflict_time);
}

inline void add_machine(Fingerprint& fp, const machine::MachineConfig& m,
                        std::string_view prefix = "machine") {
  const std::string p(prefix);
  fp.add(p + ".name", m.name)
      .add(p + ".core.clock_hz", m.core.clock_hz)
      .add(p + ".core.flops_per_cycle", m.core.flops_per_cycle)
      .add(p + ".cores_per_node", m.cores_per_node)
      .add(p + ".memory.peak_bw", m.memory.peak_bw)
      .add(p + ".memory.socket_stream_bw", m.memory.socket_stream_bw)
      .add(p + ".memory.core_stream_bw", m.memory.core_stream_bw)
      .add(p + ".memory.latency", m.memory.latency)
      .add(p + ".memory.ra_cost_factor", m.memory.ra_cost_factor)
      .add(p + ".memory.ra_contention", m.memory.ra_contention)
      .add(p + ".nic.injection_bw", m.nic.injection_bw)
      .add(p + ".nic.link_bw", m.nic.link_bw)
      .add(p + ".nic.tx_overhead", m.nic.tx_overhead)
      .add(p + ".nic.rx_overhead", m.nic.rx_overhead)
      .add(p + ".nic.per_hop_latency", m.nic.per_hop_latency)
      .add(p + ".nic.vn_forward_delay", m.nic.vn_forward_delay)
      .add(p + ".mpi.eager_threshold", m.mpi.eager_threshold)
      .add(p + ".mpi.rendezvous_ctrl_bytes", m.mpi.rendezvous_ctrl_bytes)
      .add(p + ".noise.period", m.noise.period)
      .add(p + ".noise.duration", m.noise.duration)
      .add(p + ".vector.is_vector", m.vector.is_vector)
      .add(p + ".vector.half_length", m.vector.half_length)
      .add(p + ".memcpy_bw", m.memcpy_bw)
      .add(p + ".bytes_per_core",
           static_cast<std::uint64_t>(m.bytes_per_core));
}

inline void add_cam(Fingerprint& fp, const apps::CamConfig& c,
                    std::string_view prefix = "cam") {
  const std::string p(prefix);
  fp.add(p + ".nlat", c.nlat)
      .add(p + ".nlon", c.nlon)
      .add(p + ".nlev", c.nlev)
      .add(p + ".steps_per_day", c.steps_per_day)
      .add(p + ".sample_steps", c.sample_steps)
      .add(p + ".checkpoint_steps", c.checkpoint_steps)
      .add(p + ".checkpoint_bytes_per_rank", c.checkpoint_bytes_per_rank)
      .add(p + ".checkpoint_stripes", c.checkpoint_stripes);
  add_lustre(fp, c.io, p + ".io");
}

inline void add_pop(Fingerprint& fp, const apps::PopConfig& c,
                    std::string_view prefix = "pop") {
  const std::string p(prefix);
  fp.add(p + ".nx", c.nx)
      .add(p + ".ny", c.ny)
      .add(p + ".nz", c.nz)
      .add(p + ".steps_per_day", c.steps_per_day)
      .add(p + ".cg_iters_per_solve", c.cg_iters_per_solve)
      .add(p + ".chronopoulos_gear", c.chronopoulos_gear)
      .add(p + ".sample_steps", c.sample_steps)
      .add(p + ".sample_cg_iters", c.sample_cg_iters)
      .add(p + ".allreduce", static_cast<int>(c.allreduce));
}

inline void add_namd(Fingerprint& fp, const apps::NamdConfig& c,
                     std::string_view prefix = "namd") {
  const std::string p(prefix);
  fp.add(p + ".atoms", c.atoms)
      .add(p + ".pme_grid", c.pme_grid)
      .add(p + ".sample_steps", c.sample_steps);
}

inline void add_s3d(Fingerprint& fp, const apps::S3dConfig& c,
                    std::string_view prefix = "s3d") {
  const std::string p(prefix);
  fp.add(p + ".points_per_task", c.points_per_task)
      .add(p + ".nvars", c.nvars)
      .add(p + ".rk_stages", c.rk_stages)
      .add(p + ".sample_steps", c.sample_steps)
      .add(p + ".checkpoint_steps", c.checkpoint_steps)
      .add(p + ".checkpoint_bytes_per_rank", c.checkpoint_bytes_per_rank)
      .add(p + ".checkpoint_stripes", c.checkpoint_stripes);
  add_lustre(fp, c.io, p + ".io");
}

inline void add_aorsa(Fingerprint& fp, const apps::AorsaConfig& c,
                      std::string_view prefix = "aorsa") {
  const std::string p(prefix);
  fp.add(p + ".mesh", c.mesh).add(p + ".lu_steps", c.lu_steps);
}

inline void add_ior(Fingerprint& fp, const lustre::IorConfig& c,
                    std::string_view prefix = "ior") {
  const std::string p(prefix);
  fp.add(p + ".clients", c.clients)
      .add(p + ".block_bytes", c.block_bytes)
      .add(p + ".xfer_bytes", c.xfer_bytes)
      .add(p + ".stripe_count", c.stripe_count)
      .add(p + ".file_per_process", c.file_per_process);
}

inline void add_checkpoint(Fingerprint& fp, const lustre::CheckpointConfig& c,
                           std::string_view prefix = "checkpoint") {
  const std::string p(prefix);
  fp.add(p + ".clients", c.clients)
      .add(p + ".bytes_per_client", c.bytes_per_client)
      .add(p + ".stripe_count", c.stripe_count)
      .add(p + ".shared_file", c.shared_file)
      .add(p + ".rounds", c.rounds)
      .add(p + ".restart_read", c.restart_read);
}

/// Start a scenario fingerprint with the fields every sweep point has:
/// a workload descriptor, the full platform, exec mode and rank count.
/// Callers chain the workload-specific config on top before done().
[[nodiscard]] inline Fingerprint scenario(std::string_view workload,
                                          const machine::MachineConfig& m,
                                          machine::ExecMode mode,
                                          int nranks) {
  Fingerprint fp;
  fp.add("workload", workload)
      .add("mode", machine::to_string(mode))
      .add("nranks", nranks);
  add_machine(fp, m);
  return fp;
}

}  // namespace xts::cache
