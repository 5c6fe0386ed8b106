#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "machine/presets.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/world.hpp"

namespace xts::vmpi {
namespace {

WorldConfig make_cfg(int nranks) {
  WorldConfig cfg;
  cfg.machine = machine::xt4();
  cfg.nranks = nranks;
  return cfg;
}

// Helpers building vectors without initializer lists: GCC 12 rejects
// initializer-list temporaries inside coroutine bodies ("array used as
// initializer").
std::vector<double> vec2(double a, double b) {
  std::vector<double> v(2);
  v[0] = a;
  v[1] = b;
  return v;
}
std::vector<double> vec3(double a, double b, double e) {
  std::vector<double> v(3);
  v[0] = a;
  v[1] = b;
  v[2] = e;
  return v;
}

// Ring allgather and pairwise alltoall as test-local patterns over the
// payload point-to-point layer (Comm::send / Comm::recv): Comm itself
// keeps only the collectives the simulator calls.  Round r uses user
// tag r, so a round's messages only match their own round.
Task<std::vector<double>> ring_allgather(Comm& c, std::vector<double> mine) {
  const int p = c.size();
  const std::size_t chunk = mine.size();
  std::vector<double> result(chunk * static_cast<std::size_t>(p));
  std::copy(mine.begin(), mine.end(),
            result.begin() + static_cast<std::ptrdiff_t>(
                                 chunk * static_cast<std::size_t>(c.rank())));
  const int right = (c.rank() + 1) % p;
  const int left = (c.rank() - 1 + p) % p;
  std::vector<double> outgoing = std::move(mine);
  for (int r = 0; r < p - 1; ++r) {
    auto sent = co_await c.send(right, r, std::move(outgoing));
    Message m = co_await c.recv(left, r);
    (void)co_await std::move(sent);
    const int origin = (c.rank() - 1 - r + 2 * p) % p;
    std::copy(m.data.begin(), m.data.end(),
              result.begin() + static_cast<std::ptrdiff_t>(
                                   chunk * static_cast<std::size_t>(origin)));
    outgoing = std::move(m.data);
  }
  co_return result;
}

Task<std::vector<std::vector<double>>> pairwise_alltoall(
    Comm& c, std::vector<std::vector<double>> chunks) {
  const int p = c.size();
  const int me = c.rank();
  std::vector<std::vector<double>> received(static_cast<std::size_t>(p));
  received[static_cast<std::size_t>(me)] =
      std::move(chunks[static_cast<std::size_t>(me)]);
  for (int r = 1; r < p; ++r) {
    const int to = (me + r) % p;
    const int from = (me - r + p) % p;
    auto sent =
        co_await c.send(to, r, std::move(chunks[static_cast<std::size_t>(to)]));
    Message m = co_await c.recv(from, r);
    (void)co_await std::move(sent);
    received[static_cast<std::size_t>(from)] = std::move(m.data);
  }
  co_return received;
}

// Parameterized over rank counts including non-powers of two.
class Collectives : public ::testing::TestWithParam<int> {};

TEST_P(Collectives, BarrierCompletes) {
  World w(make_cfg(GetParam()));
  int done = 0;
  w.run([&](Comm& c) -> Task<void> {
    co_await c.barrier();
    ++done;
  });
  EXPECT_EQ(done, GetParam());
}

TEST_P(Collectives, BcastDeliversRootData) {
  const int p = GetParam();
  World w(make_cfg(p));
  const int root = p > 2 ? 2 : 0;
  const std::vector<double> payload{3.0, 1.0, 4.0, 1.0, 5.0};
  std::vector<int> ok(static_cast<size_t>(p), 0);
  w.run([&](Comm& c) -> Task<void> {
    std::vector<double> data;
    if (c.rank() == root) data = payload;
    auto result = co_await c.bcast(root, std::move(data));
    ok[static_cast<size_t>(c.rank())] = result == payload;
  });
  for (int r = 0; r < p; ++r) EXPECT_TRUE(ok[static_cast<size_t>(r)]) << r;
}

TEST_P(Collectives, ReduceSumsAtRoot) {
  const int p = GetParam();
  World w(make_cfg(p));
  std::vector<double> at_root;
  w.run([&](Comm& c) -> Task<void> {
    std::vector<double> contrib = vec2(c.rank() + 1, 1.0);
    auto result = co_await c.reduce_sum(0, std::move(contrib));
    if (c.rank() == 0) at_root = result;
  });
  const double expected = p * (p + 1) / 2.0;
  ASSERT_EQ(at_root.size(), 2u);
  EXPECT_DOUBLE_EQ(at_root[0], expected);
  EXPECT_DOUBLE_EQ(at_root[1], static_cast<double>(p));
}

TEST_P(Collectives, AllreduceMatchesSerialSum) {
  const int p = GetParam();
  World w(make_cfg(p));
  std::vector<std::vector<double>> results(static_cast<size_t>(p));
  w.run([&](Comm& c) -> Task<void> {
    std::vector<double> contrib =
        vec3(c.rank(), static_cast<double>(c.rank()) * c.rank(), 1.0);
    results[static_cast<size_t>(c.rank())] =
        co_await c.allreduce_sum(std::move(contrib));
  });
  double s1 = 0, s2 = 0;
  for (int r = 0; r < p; ++r) {
    s1 += r;
    s2 += static_cast<double>(r) * r;
  }
  for (int r = 0; r < p; ++r) {
    const auto& v = results[static_cast<size_t>(r)];
    ASSERT_EQ(v.size(), 3u) << "rank " << r;
    EXPECT_DOUBLE_EQ(v[0], s1);
    EXPECT_DOUBLE_EQ(v[1], s2);
    EXPECT_DOUBLE_EQ(v[2], static_cast<double>(p));
  }
}

TEST_P(Collectives, AllreduceReduceBcastAgrees) {
  const int p = GetParam();
  World w(make_cfg(p));
  bool all_ok = true;
  w.run([&](Comm& c) -> Task<void> {
    std::vector<double> contrib = vec2(1.0, c.rank());
    auto a = co_await c.allreduce_sum(contrib,
                                      AllreduceAlgo::kRecursiveDoubling);
    auto b = co_await c.allreduce_sum(contrib, AllreduceAlgo::kReduceBcast);
    if (a != b) all_ok = false;
  });
  EXPECT_TRUE(all_ok);
}

TEST_P(Collectives, AllgatherConcatenatesByRank) {
  const int p = GetParam();
  World w(make_cfg(p));
  std::vector<std::vector<double>> results(static_cast<size_t>(p));
  w.run([&](Comm& c) -> Task<void> {
    std::vector<double> mine = vec2(10 * c.rank(), 10 * c.rank() + 1);
    results[static_cast<size_t>(c.rank())] =
        co_await ring_allgather(c, std::move(mine));
  });
  std::vector<double> expected;
  for (int r = 0; r < p; ++r) {
    expected.push_back(10.0 * r);
    expected.push_back(10.0 * r + 1);
  }
  for (int r = 0; r < p; ++r)
    EXPECT_EQ(results[static_cast<size_t>(r)], expected) << "rank " << r;
}

TEST_P(Collectives, AlltoallPermutesChunks) {
  const int p = GetParam();
  World w(make_cfg(p));
  bool all_ok = true;
  w.run([&](Comm& c) -> Task<void> {
    // chunk for d encodes (me, d).
    std::vector<std::vector<double>> chunks(static_cast<size_t>(p));
    for (int d = 0; d < p; ++d)
      chunks[static_cast<size_t>(d)] = vec2(c.rank(), d);
    auto got = co_await pairwise_alltoall(c, std::move(chunks));
    for (int s = 0; s < p; ++s) {
      const auto& v = got[static_cast<size_t>(s)];
      if (v.size() != 2 || v[0] != static_cast<double>(s) ||
          v[1] != static_cast<double>(c.rank()))
        all_ok = false;
    }
  });
  EXPECT_TRUE(all_ok);
}

TEST_P(Collectives, AlltoallvBytesCompletes) {
  const int p = GetParam();
  World w(make_cfg(p));
  int done = 0;
  w.run([&](Comm& c) -> Task<void> {
    std::vector<double> bytes(static_cast<size_t>(p));
    for (int d = 0; d < p; ++d)
      bytes[static_cast<size_t>(d)] = 1024.0 * (1 + (c.rank() + d) % 3);
    co_await c.alltoallv_bytes(std::move(bytes));
    ++done;
  });
  EXPECT_EQ(done, p);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, Collectives,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 31));

TEST(CollectiveSemantics, BackToBackCollectivesDoNotCrosstalk) {
  World w(make_cfg(6));
  bool ok = true;
  w.run([&](Comm& c) -> Task<void> {
    for (int round = 0; round < 10; ++round) {
      std::vector<double> contrib(1, static_cast<double>(round));
      auto r = co_await c.allreduce_sum(std::move(contrib));
      if (r[0] != 6.0 * round) ok = false;
    }
  });
  EXPECT_TRUE(ok);
}

TEST(CollectiveSemantics, MismatchedContributionSizesThrow) {
  World w(make_cfg(2));
  EXPECT_THROW(w.run([&](Comm& c) -> Task<void> {
    std::vector<double> contrib(c.rank() == 0 ? 2 : 3, 1.0);
    (void)co_await c.allreduce_sum(std::move(contrib));
  }),
               UsageError);
}

TEST(CollectiveSemantics, AlltoallWrongChunkCountThrows) {
  World w(make_cfg(3));
  EXPECT_THROW(w.run([&](Comm& c) -> Task<void> {
    std::vector<double> bytes_to(2, 8.0);  // should be 3
    co_await c.alltoallv_bytes(std::move(bytes_to));
  }),
               UsageError);
}

TEST(Subgroups, SplitCollectivesStayWithinGroup) {
  World w(make_cfg(6));
  std::vector<double> sums(6, 0.0);
  w.run([&](Comm& c) -> Task<void> {
    // Even and odd ranks form separate groups.
    std::vector<int> members;
    for (int r = c.rank() % 2; r < 6; r += 2) members.push_back(r);
    auto sub = c.subgroup(members);
    if (!sub) co_return;  // checked via sums below
    std::vector<double> contrib(1, static_cast<double>(c.rank()));
    auto result = co_await sub->allreduce_sum(std::move(contrib));
    sums[static_cast<size_t>(c.rank())] = result[0];
  });
  // Evens: 0+2+4 = 6; odds: 1+3+5 = 9.
  for (int r = 0; r < 6; ++r)
    EXPECT_DOUBLE_EQ(sums[static_cast<size_t>(r)], r % 2 == 0 ? 6.0 : 9.0);
}

TEST(Subgroups, NonMemberGetsNull) {
  World w(make_cfg(4));
  std::vector<int> has_sub(4, -1);
  w.run([&](Comm& c) -> Task<void> {
    std::vector<int> members(2);
    members[0] = 0;
    members[1] = 1;
    auto sub = c.subgroup(std::move(members));
    has_sub[static_cast<size_t>(c.rank())] = sub != nullptr ? 1 : 0;
    co_return;
  });
  EXPECT_EQ(has_sub, (std::vector<int>{1, 1, 0, 0}));
}

TEST(Subgroups, RanksAreGroupRelative) {
  World w(make_cfg(4));
  int sub_rank_of_3 = -1, sub_size = -1, recv_src = -1;
  w.run([&](Comm& c) -> Task<void> {
    std::vector<int> members(2);
    members[0] = 2;
    members[1] = 3;
    auto sub = c.subgroup(std::move(members));
    if (sub) {
      if (c.rank() == 3) sub_rank_of_3 = sub->rank();
      sub_size = sub->size();
      if (sub->rank() == 0) {
        co_await sub->send_wait(1, 0, 8.0);
      } else {
        Message m = co_await sub->recv(0, 0);
        recv_src = m.src;  // group-relative source
      }
    }
    co_return;
  });
  EXPECT_EQ(sub_rank_of_3, 1);
  EXPECT_EQ(sub_size, 2);
  EXPECT_EQ(recv_src, 0);
}

}  // namespace
}  // namespace xts::vmpi
