#include "machine/node.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/error.hpp"

namespace xts::machine {

namespace {
// Random-access phases are executed in chunks so that a sibling core
// starting or finishing its own random phase mid-kernel changes the
// observed latency from the next chunk on.
constexpr int kRandomChunks = 16;
}  // namespace

Node::Node(Engine& engine, const MachineConfig& cfg,
           std::uint64_t node_seed)
    : engine_(engine),
      cfg_(&cfg),
      noise_rng_(0x05e1de5c0de ^ node_seed),
      memory_(engine, cfg.memory.socket_stream_bw, cfg.name + ".mem",
              cfg.memory.core_stream_bw),
      nic_lock_(engine) {
  if (cfg.core.clock_hz <= 0.0)
    throw UsageError("Node: machine config has no core clock");
}

SimTime Node::flop_time(const Work& w) const noexcept {
  if (w.flops <= 0.0) return 0.0;
  const double eff = std::clamp(w.flop_efficiency, 1e-6, 1.0);
  return w.flops / (eff * cfg_->peak_flops_per_core());
}

double Node::random_access_cost(int active) const noexcept {
  const double extra =
      cfg_->memory.ra_contention * static_cast<double>(std::max(0, active - 1));
  return cfg_->memory.latency * cfg_->memory.ra_cost_factor * (1.0 + extra);
}

SimTime Node::uncontended_time(const Work& w) const noexcept {
  SimTime t = flop_time(w);
  if (w.stream_bytes > 0.0) t += w.stream_bytes / memory_.per_job_cap();
  if (w.random_accesses > 0.0) t += w.random_accesses * random_access_cost(1);
  return t;
}

SimTime Node::noisy(SimTime busy) {
  const auto& n = cfg_->noise;
  if (n.period <= 0.0 || busy <= 0.0) return busy;
  // Interruptions arrive Poisson-like at rate 1/period while the core
  // is busy.  The count is drawn per kernel (Gaussian approximation,
  // exact enough for expected >= ~1 and cheap at expected ~ 1e6), so
  // different nodes straggle differently — the variance, not the mean,
  // is what makes OS jitter poisonous to collectives (§2's case for
  // Catamount).
  const double expected = busy / n.period;
  const double u1 = std::max(1e-12, noise_rng_.uniform());
  const double u2 = noise_rng_.uniform();
  const double gauss = std::sqrt(-2.0 * std::log(u1)) *
                       std::cos(2.0 * std::numbers::pi * u2);
  const double hits = std::max(
      0.0, std::floor(expected + std::sqrt(expected) * gauss +
                      noise_rng_.uniform()));
  return busy + hits * n.duration;
}

Task<void> Node::execute(Work w) {
  if (w.flops < 0.0 || w.stream_bytes < 0.0 || w.random_accesses < 0.0)
    throw UsageError("Node::execute: negative work");
  const SimTime ft = noisy(flop_time(w));
  if (ft > 0.0) co_await Delay(engine_, ft);
  if (w.stream_bytes > 0.0)
    (void)co_await memory_.consume(w.stream_bytes);
  if (w.random_accesses > 0.0) {
    ++random_active_;
    const double chunk = w.random_accesses / kRandomChunks;
    for (int i = 0; i < kRandomChunks; ++i) {
      co_await Delay(engine_, chunk * random_access_cost(random_active_));
    }
    --random_active_;
  }
}

SimFutureV Node::memcpy_traffic(double bytes) {
  // A copy reads and writes every byte through the shared controller.
  return memory_.consume(2.0 * bytes);
}

}  // namespace xts::machine
