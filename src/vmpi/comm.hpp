#pragma once

/// \file comm.hpp
/// Communicator: a rank's handle onto a group of ranks, with
/// point-to-point operations and the collective algorithms 2007-era
/// Cray MPT used:
///
///   barrier     dissemination
///   bcast       binomial tree
///   reduce      binomial tree (sum)
///   allreduce   recursive doubling (default) or reduce+bcast
///   alltoallv   pairwise exchange (timing only)
///
/// bcast, reduce and allreduce carry and combine real payloads.  Every
/// collective must be called by every member of the group in the same
/// order (as in MPI).

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/task.hpp"
#include "machine/work.hpp"
#include "vmpi/message.hpp"
#include "vmpi/world.hpp"

namespace xts::vmpi {

enum class AllreduceAlgo {
  kRecursiveDoubling,  ///< log P rounds, full vector each round
  kReduceBcast,        ///< binomial reduce to 0, binomial bcast
};

/// RAII span over a rank-local region (application phase, collective,
/// compute attribution).  A no-op unless an obsv::Session is active.
/// Move-only; safe to hold across co_await (it lives in the coroutine
/// frame) — the span closes when the scope is destroyed.
class SpanScope {
 public:
  SpanScope() = default;
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  SpanScope(SpanScope&& o) noexcept { *this = std::move(o); }
  SpanScope& operator=(SpanScope&& o) noexcept {
    if (this != &o) {
      close();
      world_ = o.world_;
      lane_ = o.lane_;
      name_ = o.name_;
      cat_ = o.cat_;
      t0_ = o.t0_;
      o.world_ = nullptr;
    }
    return *this;
  }
  ~SpanScope() { close(); }

  /// Emit the span now (idempotent; also called by the destructor).
  void close();

 private:
  friend class Comm;
  SpanScope(World& world, int lane, std::string_view name, obsv::Cat cat);

  World* world_ = nullptr;
  int lane_ = 0;
  std::uint32_t name_ = 0;
  obsv::Cat cat_ = obsv::Cat::kPhase;
  SimTime t0_ = 0.0;
};

class Comm {
 public:
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  [[nodiscard]] int rank() const noexcept { return my_index_; }
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(members_->size());
  }
  [[nodiscard]] SimTime now() const noexcept;

  /// Create this rank's handle for the subgroup `world_ranks` (every
  /// member must call with the identical list, in the same program
  /// order — mirrors MPI communicator-creation semantics).  Returns
  /// nullptr if this rank is not a member.
  [[nodiscard]] std::unique_ptr<Comm> subgroup(
      std::vector<int> world_ranks) const;

  // -- local work ---------------------------------------------------------

  /// Execute a work descriptor on this rank's core.
  [[nodiscard]] Task<void> compute(machine::Work w);

  /// Open a named application phase on this rank (e.g. "cam.physics").
  /// Keep the returned scope alive for the duration of the phase; when
  /// observability is off this costs one null check.
  [[nodiscard]] SpanScope phase(std::string_view name);

  // -- point-to-point (ranks are communicator-relative) -------------------

  /// Post a send; awaiting the task models the blocking CPU/NIC part and
  /// yields a future that completes on delivery.
  [[nodiscard]] Task<SimFutureV> send(int dst, Tag tag, double bytes);
  [[nodiscard]] Task<SimFutureV> send(int dst, Tag tag,
                                      std::vector<double> data);
  /// Post-and-forget convenience (send + wait for delivery).
  [[nodiscard]] Task<void> send_wait(int dst, Tag tag, double bytes);

  [[nodiscard]] Task<Message> recv(int src = kAnySource, Tag tag = kAnyTag);

  // -- collectives ---------------------------------------------------------

  [[nodiscard]] Task<void> barrier();
  /// Root's `data` is broadcast; every rank receives a copy.
  [[nodiscard]] Task<std::vector<double>> bcast(int root,
                                                std::vector<double> data);
  /// Timing-only broadcast of `bytes`.
  [[nodiscard]] Task<void> bcast_bytes(int root, double bytes);
  /// Element-wise sum at root (returns empty elsewhere).
  [[nodiscard]] Task<std::vector<double>> reduce_sum(
      int root, std::vector<double> contrib);
  [[nodiscard]] Task<std::vector<double>> allreduce_sum(
      std::vector<double> contrib,
      AllreduceAlgo algo = AllreduceAlgo::kRecursiveDoubling);
  /// Timing-only alltoallv: `bytes_to[d]` bytes to each rank d
  /// (bytes_to.size() == size()).
  [[nodiscard]] Task<void> alltoallv_bytes(std::vector<double> bytes_to);

 private:
  friend class World;  // constructs world handles over one shared
                       // identity member list (see World::World)
  Comm(World& world, int world_rank,
       std::shared_ptr<const std::vector<int>> members, int my_index,
       std::uint64_t gid);

  [[nodiscard]] int to_world(int comm_rank) const;
  void check_rank(int r, const char* what) const;
  [[nodiscard]] SpanScope coll_scope(std::string_view name);
  [[nodiscard]] Task<void> traced_compute(machine::Work w);

  /// One step of a collective: exchange with `partner` (send ours, recv
  /// theirs) — both sides must call symmetrically.
  [[nodiscard]] Task<Message> sendrecv(int partner, Tag tag,
                                       std::vector<double> data);
  [[nodiscard]] Task<Message> sendrecv_bytes(int send_to, int recv_from,
                                             Tag tag, double bytes);

  World& world_;
  int world_rank_;
  std::shared_ptr<const std::vector<int>> members_;
  int my_index_;
  std::uint64_t gid_;
  mutable std::uint64_t collective_seq_ = 0;
};

}  // namespace xts::vmpi
