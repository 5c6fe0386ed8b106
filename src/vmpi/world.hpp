#pragma once

/// \file world.hpp
/// The simulated parallel machine: engine + nodes + network + rank
/// placement + the point-to-point message engine.
///
/// Timing model for one message (paper §5.1.1, §5.2):
///
///   sender CPU:   tx_overhead, serialized per node through the NIC
///                 doorbell lock; a VN-mode non-owner core additionally
///                 pays vn_forward_delay (its message is handled by the
///                 owner core, §2).
///   network:      first-byte latency (hops x per_hop) plus a flow in
///                 the fair-sharing network (injection link -> torus
///                 links -> ejection link).  Messages above the eager
///                 threshold pay one extra control round-trip
///                 (rendezvous).
///   receiver:     rx_overhead (+ vn_forward_delay for a non-owner
///                 destination core), then tag matching.
///   intra-node:   bypasses the NIC: a memory copy through the shared
///                 controller (§2: "messages between two cores on the
///                 same socket are handled through a memory copy").

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "core/rng.hpp"
#include "core/slot_pool.hpp"
#include "core/task.hpp"
#include "machine/config.hpp"
#include "machine/node.hpp"
#include "network/flow_network.hpp"
#include "obsv/session.hpp"
#include "vmpi/message.hpp"

namespace xts::vmpi {

class Comm;

/// Rank-to-node placement policy.
enum class Placement { kBlock, kRandom };

struct WorldConfig {
  machine::MachineConfig machine;
  machine::ExecMode mode = machine::ExecMode::kVN;
  int nranks = 1;
  Placement placement = Placement::kBlock;
  std::uint64_t seed = 0x5eed;
  net::TorusDims dims{};  ///< all-zero => choose automatically
  net::Fairness fairness = net::Fairness::kMinShare;
};

class World {
 public:
  explicit World(WorldConfig cfg);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] Engine& engine() noexcept { return engine_; }
  [[nodiscard]] int nranks() const noexcept { return cfg_.nranks; }
  [[nodiscard]] const WorldConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] net::FlowNetwork& network() noexcept { return *network_; }

  [[nodiscard]] net::NodeId node_of(int rank) const;
  [[nodiscard]] int core_of(int rank) const;
  [[nodiscard]] machine::Node& node(int rank);
  [[nodiscard]] int node_count() const noexcept {
    return static_cast<int>(nodes_.size());
  }

  /// Run the same program on every rank (SPMD); returns the simulated
  /// time at which the last rank finished.  If a rank throws, the
  /// others run on until the event queue drains and the first
  /// exception is rethrown; otherwise throws SimError if ranks
  /// deadlock (event queue drained with ranks still blocked).  Either
  /// way the frames of unfinished ranks are destroyed.
  using RankProgram = std::function<Task<void>(Comm&)>;
  SimTime run(const RankProgram& program);

  /// World communicator handle for `rank` (valid during run()).
  [[nodiscard]] Comm& world_comm(int rank);

  // -- point-to-point engine (used by Comm; world-rank numbering) --------

  /// Blocking part of a send: sender CPU overhead + NIC serialization.
  /// The returned future completes when the payload has been delivered
  /// to the destination's matching engine.  `src`/`dst` are world
  /// ranks; `comm_src`/`gid` are the communicator-relative source and
  /// matching context recorded in the message.
  Task<SimFutureV> post_send(int src, int dst, int comm_src,
                             std::uint64_t gid, Tag tag, double bytes,
                             std::vector<double> data);

  /// Wait for a message addressed to world rank `dst` matching the
  /// communicator context `gid` and the src/tag filters
  /// (communicator-relative).
  Task<Message> match_recv(int dst, std::uint64_t gid, int src_filter,
                           Tag tag_filter);

  /// Total messages fully delivered (tests / stats).
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return messages_delivered_;
  }
  [[nodiscard]] double bytes_sent() const noexcept { return bytes_sent_; }
  /// Observability handle — null unless an obsv::Session was active
  /// when this World was constructed.
  [[nodiscard]] obsv::WorldObs* obs() const noexcept { return obs_; }

 private:
  struct PostedRecv {
    std::uint64_t gid = 0;
    int src_filter = 0;
    Tag tag_filter = 0;
    SimPromise<Message> promise;
  };

  void build_placement();
  void deliver(int dst, Message msg);
  [[nodiscard]] bool matches(const PostedRecv& r, const Message& m) const;
  /// `mid` is the trace correlation id (0 when not tracing);
  /// `posted_at` is when the sender entered post_send (latency metric).
  Task<void> transport(int src, int dst, Message msg, SimPromiseV delivered,
                       std::uint64_t mid, SimTime posted_at);
  [[nodiscard]] std::string describe_deadlock() const;
  void collect_summary();

  WorldConfig cfg_;
  Engine engine_;
  std::vector<std::unique_ptr<machine::Node>> nodes_;
  std::unique_ptr<net::FlowNetwork> network_;
  // -- per-rank state, struct-of-arrays and sized for million-rank
  // worlds: narrow element types, chain handles instead of per-rank
  // containers, shared slabs for anything whose population tracks
  // in-flight traffic rather than rank count.
  std::vector<std::int32_t> rank_node_;  ///< placement, by rank
  std::vector<std::uint8_t> rank_core_;  ///< cores_per_node <= 255
  SlotPool<Message> msg_pool_;        ///< unexpected-queue slab
  SlotPool<PostedRecv> recv_pool_;    ///< posted-recv slab
  std::vector<SlotChain> unexpected_;  ///< per dst rank, into msg_pool_
  std::vector<SlotChain> posted_;      ///< per dst rank, into recv_pool_
  std::vector<std::unique_ptr<Comm>> world_comms_;
  std::uint64_t messages_delivered_ = 0;
  double bytes_sent_ = 0.0;
  int ranks_finished_ = 0;
  // Always-on (cheap) blocked-rank bookkeeping for deadlock reporting.
  std::vector<std::uint8_t> rank_done_;
  std::vector<int> sends_inflight_;  ///< posted, not yet delivered (per src)

  // Observability (null/empty unless a session is active).  The
  // session owns obs_; obs_session_ lets the destructor detect that
  // the session is gone without touching freed memory.
  obsv::WorldObs* obs_ = nullptr;
  obsv::Session* obs_session_ = nullptr;
  struct SpanIds {
    std::uint32_t tx_wait = 0, tx = 0, rendezvous = 0, hops = 0, flow = 0,
                  rx_wait = 0, rx = 0, copy = 0, recv_wait = 0, run = 0;
  };
  SpanIds sid_{};
  std::vector<obsv::Counter*> rank_msgs_;   ///< msg.count by src rank
  std::vector<obsv::Counter*> rank_bytes_;  ///< msg.bytes by src rank
  obsv::Histogram* msg_latency_ = nullptr;

  friend class Comm;
  // Per-(rank, membership-hash) creation counters for deterministic
  // communicator group ids (see Comm::subgroup).  One lazily-populated
  // map for the whole World: most runs never create subgroups, and the
  // per-rank unordered_map vector this replaces cost ~56 bytes per
  // rank before the first subgroup existed.
  struct GroupKey {
    int rank;
    std::uint64_t hash;
    bool operator==(const GroupKey&) const noexcept = default;
  };
  struct GroupKeyHash {
    std::size_t operator()(const GroupKey& k) const noexcept {
      // splitmix-style mix of the membership hash with the rank.
      std::uint64_t x =
          k.hash ^ (static_cast<std::uint64_t>(k.rank) * 0x9e3779b97f4a7c15ULL);
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      return static_cast<std::size_t>(x);
    }
  };
  /// Creation counter for (rank, membership-hash), default 0.
  [[nodiscard]] std::uint32_t& group_counter(int rank, std::uint64_t hash) {
    return group_counters_[GroupKey{rank, hash}];
  }
  std::unordered_map<GroupKey, std::uint32_t, GroupKeyHash> group_counters_;
};

}  // namespace xts::vmpi
