#include "vmpi/comm.hpp"

#include <algorithm>
#include <bit>
#include <string>

namespace xts::vmpi {

namespace {

/// FNV-1a over the member list: the shared part of a subgroup id.
std::uint64_t hash_members(const std::vector<int>& members) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const int m : members) {
    h ^= static_cast<std::uint64_t>(m) + 0x9e3779b97f4a7c15ULL;
    h *= 1099511628211ULL;
  }
  return h;
}

void sum_into(std::vector<double>& acc, const std::vector<double>& other) {
  if (acc.size() != other.size())
    throw UsageError("allreduce/reduce: contribution sizes differ");
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += other[i];
}

int floor_pow2(int n) { return 1 << (std::bit_width(static_cast<unsigned>(n)) - 1); }

}  // namespace

Comm::Comm(World& world, int world_rank,
           std::shared_ptr<const std::vector<int>> members, int my_index,
           std::uint64_t gid)
    : world_(world),
      world_rank_(world_rank),
      members_(std::move(members)),
      my_index_(my_index),
      gid_(gid) {}

SimTime Comm::now() const noexcept { return world_.engine().now(); }

SpanScope::SpanScope(World& world, int lane, std::string_view name,
                     obsv::Cat cat)
    : lane_(lane), cat_(cat) {
  obsv::WorldObs* obs = world.obs();
  if (obs == nullptr) return;
  world_ = &world;
  name_ = obs->intern(name);
  t0_ = world.engine().now();
}

void SpanScope::close() {
  if (world_ == nullptr) return;
  obsv::WorldObs* obs = world_->obs();
  const SimTime t1 = world_->engine().now();
  if (obs->spans_enabled()) obs->span(lane_, cat_, name_, t0_, t1);
  if (obs->metrics()) {
    const std::string& name = obs->sink().name(name_);
    const char* family = cat_ == obsv::Cat::kCollective ? "coll.time"
                         : cat_ == obsv::Cat::kCompute  ? "compute.time"
                                                        : "phase.time";
    obs->registry().histogram(family, name).add(t1 - t0_);
  }
  world_ = nullptr;
}

SpanScope Comm::phase(std::string_view name) {
  return SpanScope(world_, world_rank_, name, obsv::Cat::kPhase);
}

SpanScope Comm::coll_scope(std::string_view name) {
  return SpanScope(world_, world_rank_, name, obsv::Cat::kCollective);
}

std::unique_ptr<Comm> Comm::subgroup(std::vector<int> world_ranks) const {
  if (world_ranks.empty()) throw UsageError("subgroup: empty member list");
  const auto it =
      std::find(world_ranks.begin(), world_ranks.end(), world_rank_);
  const std::uint64_t h = hash_members(world_ranks);
  if (it == world_ranks.end()) return nullptr;
  const int index = static_cast<int>(it - world_ranks.begin());
  // Per-rank creation counter for this membership: ranks creating the
  // same sequence of identical groups agree on the id (MPI requires
  // communicator creation to be ordered identically on all members).
  auto& counter = world_.group_counter(world_rank_, h);
  const std::uint64_t gid = (h ^ (static_cast<std::uint64_t>(counter) *
                                  0x2545F4914F6CDD1DULL)) |
                            1ULL;  // never collide with world gid 0
  ++counter;
  return std::unique_ptr<Comm>(new Comm(
      world_, world_rank_,
      std::make_shared<const std::vector<int>>(std::move(world_ranks)),
      index, gid));
}

int Comm::to_world(int comm_rank) const {
  check_rank(comm_rank, "rank");
  return (*members_)[static_cast<std::size_t>(comm_rank)];
}

void Comm::check_rank(int r, const char* what) const {
  if (r < 0 || r >= size())
    throw UsageError(std::string("Comm: bad ") + what + " " +
                     std::to_string(r) + " (size " + std::to_string(size()) +
                     ")");
}

Task<void> Comm::compute(machine::Work w) {
  // Fast path: no extra coroutine frame unless a session is observing.
  obsv::WorldObs* obs = world_.obs();
  if (obs == nullptr || !(obs->spans_enabled() || obs->metrics()))
    return world_.node(world_rank_).execute(w);
  return traced_compute(w);
}

Task<void> Comm::traced_compute(machine::Work w) {
  auto scope = SpanScope(world_, world_rank_, "compute", obsv::Cat::kCompute);
  co_await world_.node(world_rank_).execute(w);
}

Task<SimFutureV> Comm::send(int dst, Tag tag, double bytes) {
  check_rank(dst, "destination");
  if (tag < 0) throw UsageError("send: user tags must be non-negative");
  return world_.post_send(world_rank_, to_world(dst), my_index_, gid_, tag,
                          bytes, {});
}

Task<SimFutureV> Comm::send(int dst, Tag tag, std::vector<double> data) {
  check_rank(dst, "destination");
  if (tag < 0) throw UsageError("send: user tags must be non-negative");
  const double bytes = 8.0 * static_cast<double>(data.size());
  return world_.post_send(world_rank_, to_world(dst), my_index_, gid_, tag,
                          bytes, std::move(data));
}

Task<void> Comm::send_wait(int dst, Tag tag, double bytes) {
  auto fut = co_await send(dst, tag, bytes);
  (void)co_await std::move(fut);
}

Task<Message> Comm::recv(int src, Tag tag) {
  if (src != kAnySource) check_rank(src, "source");
  return world_.match_recv(world_rank_, gid_, src, tag);
}

// -- collective building blocks ---------------------------------------------

Task<Message> Comm::sendrecv(int partner, Tag tag, std::vector<double> data) {
  auto sent = co_await world_.post_send(world_rank_, to_world(partner),
                                        my_index_, gid_, tag,
                                        8.0 * static_cast<double>(data.size()),
                                        std::move(data));
  Message m = co_await world_.match_recv(world_rank_, gid_, partner, tag);
  (void)co_await std::move(sent);
  co_return m;
}

Task<Message> Comm::sendrecv_bytes(int send_to, int recv_from, Tag tag,
                                   double bytes) {
  auto sent = co_await world_.post_send(world_rank_, to_world(send_to),
                                        my_index_, gid_, tag, bytes, {});
  Message m = co_await world_.match_recv(world_rank_, gid_, recv_from, tag);
  (void)co_await std::move(sent);
  co_return m;
}

// -- collectives --------------------------------------------------------------

Task<void> Comm::barrier() {
  auto coll = coll_scope("coll.barrier");
  const std::uint64_t seq = collective_seq_++;
  const int p = size();
  if (p == 1) co_return;
  // Dissemination barrier: ceil(log2 p) rounds of 0-byte messages.
  for (int k = 1, round = 0; k < p; k <<= 1, ++round) {
    const int to = (my_index_ + k) % p;
    const int from = (my_index_ - k % p + p) % p;
    const Tag tag = tags::internal(gid_ & 0xFFFFFF, seq,
                                   static_cast<std::uint64_t>(round));
    (void)co_await sendrecv_bytes(to, from, tag, 0.0);
  }
}

Task<std::vector<double>> Comm::bcast(int root, std::vector<double> data) {
  auto coll = coll_scope("coll.bcast");
  check_rank(root, "root");
  const std::uint64_t seq = collective_seq_++;
  const int p = size();
  if (p == 1) co_return data;
  // Binomial tree on ranks relative to root.
  const int vrank = (my_index_ - root + p) % p;
  if (vrank != 0) {
    // Receive from parent: clear the lowest set bit.
    const int parent = ((vrank & (vrank - 1)) + root) % p;
    Message m = co_await world_.match_recv(
        world_rank_, gid_, (parent - 0 + p) % p,
        tags::internal(gid_ & 0xFFFFFF, seq, 0));
    data = std::move(m.data);
  }
  // Forward to children: vrank + 2^k for k above our lowest set bit.
  const int low = vrank == 0 ? p : (vrank & -vrank);
  std::vector<SimFutureV> pending;
  for (int k = 1; k < low && vrank + k < p; k <<= 1) {
    const int child = (vrank + k + root) % p;
    auto fut = co_await world_.post_send(
        world_rank_, to_world(child), my_index_, gid_,
        tags::internal(gid_ & 0xFFFFFF, seq, 0),
        8.0 * static_cast<double>(data.size()), data);
    pending.push_back(std::move(fut));
  }
  for (auto& f : pending) (void)co_await std::move(f);
  co_return data;
}

Task<void> Comm::bcast_bytes(int root, double bytes) {
  auto coll = coll_scope("coll.bcast");
  check_rank(root, "root");
  const std::uint64_t seq = collective_seq_++;
  const int p = size();
  if (p == 1) co_return;
  const int vrank = (my_index_ - root + p) % p;
  const Tag tag = tags::internal(gid_ & 0xFFFFFF, seq, 0);
  if (vrank != 0) {
    const int parent = ((vrank & (vrank - 1)) + root) % p;
    (void)co_await world_.match_recv(world_rank_, gid_, parent, tag);
  }
  const int low = vrank == 0 ? p : (vrank & -vrank);
  std::vector<SimFutureV> pending;
  for (int k = 1; k < low && vrank + k < p; k <<= 1) {
    const int child = (vrank + k + root) % p;
    auto fut = co_await world_.post_send(world_rank_, to_world(child),
                                         my_index_, gid_, tag, bytes, {});
    pending.push_back(std::move(fut));
  }
  for (auto& f : pending) (void)co_await std::move(f);
}

Task<std::vector<double>> Comm::reduce_sum(int root,
                                           std::vector<double> contrib) {
  auto coll = coll_scope("coll.reduce");
  check_rank(root, "root");
  const std::uint64_t seq = collective_seq_++;
  const int p = size();
  if (p == 1) co_return contrib;
  // Binomial tree reduction (mirror of bcast).
  const int vrank = (my_index_ - root + p) % p;
  for (int k = 1; k < p; k <<= 1) {
    const Tag tag = tags::internal(gid_ & 0xFFFFFF, seq,
                                   static_cast<std::uint64_t>(k));
    if (vrank & k) {
      const int parent = ((vrank - k) + root) % p;
      auto fut = co_await world_.post_send(
          world_rank_, to_world(parent), my_index_, gid_, tag,
          8.0 * static_cast<double>(contrib.size()), std::move(contrib));
      (void)co_await std::move(fut);
      contrib.clear();
      break;
    }
    if (vrank + k < p) {
      const int child = (vrank + k + root) % p;
      Message m = co_await world_.match_recv(world_rank_, gid_, child, tag);
      sum_into(contrib, m.data);
    }
  }
  if (my_index_ != root) contrib.clear();
  co_return contrib;
}

Task<std::vector<double>> Comm::allreduce_sum(std::vector<double> contrib,
                                              AllreduceAlgo algo) {
  auto coll = coll_scope("coll.allreduce");
  const int p = size();
  if (p == 1) co_return contrib;
  if (algo == AllreduceAlgo::kReduceBcast) {
    auto reduced = co_await reduce_sum(0, std::move(contrib));
    co_return co_await bcast(0, std::move(reduced));
  }

  const std::uint64_t seq = collective_seq_++;
  // Recursive doubling with the standard non-power-of-two fold:
  // the first `rem` even ranks fold into their odd neighbour, the core
  // 2^k ranks run recursive doubling, then the fold is undone.
  const int p2 = floor_pow2(p);
  const int rem = p - p2;
  auto tag = [&](std::uint64_t round) {
    return tags::internal(gid_ & 0xFFFFFF, seq, round);
  };

  int vrank;  // rank within the power-of-two core, or -1 if folded out
  if (my_index_ < 2 * rem) {
    if (my_index_ % 2 == 0) {
      auto fut = co_await world_.post_send(
          world_rank_, to_world(my_index_ + 1), my_index_, gid_, tag(1000),
          8.0 * static_cast<double>(contrib.size()), std::move(contrib));
      (void)co_await std::move(fut);
      vrank = -1;
      contrib.clear();
    } else {
      Message m = co_await world_.match_recv(world_rank_, gid_,
                                             my_index_ - 1, tag(1000));
      sum_into(contrib, m.data);
      vrank = my_index_ / 2;
    }
  } else {
    vrank = my_index_ - rem;
  }

  if (vrank >= 0) {
    for (int mask = 1, round = 0; mask < p2; mask <<= 1, ++round) {
      const int vpartner = vrank ^ mask;
      const int partner =
          vpartner < rem ? 2 * vpartner + 1 : vpartner + rem;
      Message m = co_await sendrecv(
          partner, tag(static_cast<std::uint64_t>(round)), contrib);
      sum_into(contrib, m.data);
    }
  }

  if (my_index_ < 2 * rem) {
    if (my_index_ % 2 == 0) {
      Message m = co_await world_.match_recv(world_rank_, gid_,
                                             my_index_ + 1, tag(2000));
      contrib = std::move(m.data);
    } else {
      auto fut = co_await world_.post_send(
          world_rank_, to_world(my_index_ - 1), my_index_, gid_, tag(2000),
          8.0 * static_cast<double>(contrib.size()), contrib);
      (void)co_await std::move(fut);
    }
  }
  co_return contrib;
}

Task<void> Comm::alltoallv_bytes(std::vector<double> bytes_to) {
  auto coll = coll_scope("coll.alltoallv");
  const int p = size();
  if (static_cast<int>(bytes_to.size()) != p)
    throw UsageError("alltoallv_bytes: need exactly size() entries");
  const std::uint64_t seq = collective_seq_++;
  for (int r = 1; r < p; ++r) {
    const int to = (my_index_ + r) % p;
    const int from = (my_index_ - r + p) % p;
    const Tag tag = tags::internal(gid_ & 0xFFFFFF, seq,
                                   static_cast<std::uint64_t>(r));
    (void)co_await sendrecv_bytes(to, from, tag,
                                  bytes_to[static_cast<std::size_t>(to)]);
  }
  co_return;
}

}  // namespace xts::vmpi
