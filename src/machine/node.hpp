#pragma once

/// \file node.hpp
/// A simulated XT compute node: cores sharing one memory controller and
/// one NIC.  The vmpi layer places one (SN) or two (VN) ranks on a node;
/// kernels run through Node::execute.  NIC bandwidth sharing is not
/// modelled here: every message's flow crosses its node's injection and
/// ejection links in the net::FlowNetwork, so in VN mode two ranks'
/// messages halve each other's injection bandwidth there (Figs 12/13).

#include <memory>

#include "core/engine.hpp"
#include "core/resource.hpp"
#include "core/rng.hpp"
#include "core/task.hpp"
#include "machine/config.hpp"
#include "machine/work.hpp"

namespace xts::machine {

class Node {
 public:
  /// `node_seed` differentiates the per-node noise streams; nodes of a
  /// World get distinct seeds so OS jitter decorrelates across nodes
  /// (that decorrelation is what makes jitter hurt collectives).
  Node(Engine& engine, const MachineConfig& cfg,
       std::uint64_t node_seed = 0);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Execute a work descriptor on one core of this node.  Concurrent
  /// executions on sibling cores contend for the shared memory
  /// controller (streaming bandwidth) and inflate each other's random
  /// access latency.
  [[nodiscard]] Task<void> execute(Work w);

  /// Time `w` would take on an otherwise idle node (no contention).
  /// Used by tests and by coarse analytic paths.
  [[nodiscard]] SimTime uncontended_time(const Work& w) const noexcept;

  /// Core-private flop time for `w`.
  [[nodiscard]] SimTime flop_time(const Work& w) const noexcept;

  /// Effective cost of one random access given `active` concurrently
  /// random-accessing cores on the socket.
  [[nodiscard]] double random_access_cost(int active) const noexcept;

  /// Memory copy of `bytes` through the socket memory system (used for
  /// intra-node MPI messages, costed as read+write traffic).
  [[nodiscard]] SimFutureV memcpy_traffic(double bytes);

  /// Serialized NIC doorbell/mailbox access; in VN mode the non-owner
  /// core's messages are forwarded by the owner core through this.
  [[nodiscard]] FifoResource& nic_lock() noexcept { return nic_lock_; }

  [[nodiscard]] const MachineConfig& config() const noexcept { return *cfg_; }
  [[nodiscard]] Engine& engine() noexcept { return engine_; }
  [[nodiscard]] int active_random_streams() const noexcept {
    return random_active_;
  }

 private:
  [[nodiscard]] SimTime noisy(SimTime busy);

  Engine& engine_;
  const MachineConfig* cfg_;
  Rng noise_rng_;
  SharedServer memory_;
  FifoResource nic_lock_;
  int random_active_ = 0;
};

}  // namespace xts::machine
