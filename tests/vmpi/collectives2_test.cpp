#include <gtest/gtest.h>

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

// Linear gather and scatter as test-local patterns over the payload
// point-to-point layer (Comm::send / Comm::recv): Comm itself keeps only
// the collectives the simulator calls.  The root of a gather receives
// from kAnySource and places each part by Message::src.
constexpr Tag kGatherTag = 1;
constexpr Tag kScatterTag = 2;

Task<std::vector<double>> linear_gather(Comm& c, int root,
                                        std::vector<double> mine) {
  if (c.rank() != root) {
    auto fut = co_await c.send(root, kGatherTag, std::move(mine));
    (void)co_await std::move(fut);
    co_return std::vector<double>{};
  }
  std::vector<std::vector<double>> parts(static_cast<std::size_t>(c.size()));
  parts[static_cast<std::size_t>(root)] = std::move(mine);
  for (int i = 1; i < c.size(); ++i) {
    Message m = co_await c.recv(kAnySource, kGatherTag);
    parts[static_cast<std::size_t>(m.src)] = std::move(m.data);
  }
  std::vector<double> all;
  for (auto& part : parts) all.insert(all.end(), part.begin(), part.end());
  co_return all;
}

Task<std::vector<double>> linear_scatter(Comm& c, int root,
                                         std::vector<double> data,
                                         std::size_t chunk) {
  if (c.rank() != root) {
    Message m = co_await c.recv(root, kScatterTag);
    co_return std::move(m.data);
  }
  const auto part = [&](int d) {
    return std::vector<double>(
        data.begin() + static_cast<std::ptrdiff_t>(chunk * d),
        data.begin() + static_cast<std::ptrdiff_t>(chunk * (d + 1)));
  };
  std::vector<SimFutureV> pending;
  for (int d = 0; d < c.size(); ++d) {
    if (d == root) continue;
    pending.push_back(co_await c.send(d, kScatterTag, part(d)));
  }
  for (auto& f : pending) (void)co_await std::move(f);
  co_return part(root);
}

class Collectives2 : public ::testing::TestWithParam<int> {};

TEST_P(Collectives2, GatherOrdersByRank) {
  const int p = GetParam();
  World w(make_cfg(p));
  std::vector<double> at_root;
  w.run([&](Comm& c) -> Task<void> {
    std::vector<double> mine(2);
    mine[0] = static_cast<double>(c.rank());
    mine[1] = static_cast<double>(c.rank() * 10);
    auto r = co_await linear_gather(c, 0, std::move(mine));
    if (c.rank() == 0) at_root = std::move(r);
  });
  ASSERT_EQ(at_root.size(), static_cast<size_t>(2 * p));
  for (int r = 0; r < p; ++r) {
    EXPECT_DOUBLE_EQ(at_root[static_cast<size_t>(2 * r)], r);
    EXPECT_DOUBLE_EQ(at_root[static_cast<size_t>(2 * r + 1)], 10.0 * r);
  }
}

TEST_P(Collectives2, ScatterDistributesChunks) {
  const int p = GetParam();
  World w(make_cfg(p));
  std::vector<std::vector<double>> got(static_cast<size_t>(p));
  w.run([&](Comm& c) -> Task<void> {
    std::vector<double> data;
    if (c.rank() == 0) {
      data.resize(static_cast<size_t>(3 * p));
      std::iota(data.begin(), data.end(), 0.0);
    }
    got[static_cast<size_t>(c.rank())] =
        co_await linear_scatter(c, 0, std::move(data), 3);
  });
  for (int r = 0; r < p; ++r) {
    const auto& v = got[static_cast<size_t>(r)];
    ASSERT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v[0], 3.0 * r);
    EXPECT_DOUBLE_EQ(v[2], 3.0 * r + 2);
  }
}

TEST_P(Collectives2, GatherScatterRoundTrip) {
  const int p = GetParam();
  World w(make_cfg(p));
  std::vector<int> ok(static_cast<size_t>(p), 0);
  w.run([&](Comm& c) -> Task<void> {
    std::vector<double> mine(4, static_cast<double>(c.rank() + 1));
    auto gathered = co_await linear_gather(c, 0, mine);
    auto back = co_await linear_scatter(c, 0, std::move(gathered), 4);
    ok[static_cast<size_t>(c.rank())] = back == mine;
  });
  for (int r = 0; r < p; ++r) EXPECT_TRUE(ok[static_cast<size_t>(r)]) << r;
}

INSTANTIATE_TEST_SUITE_P(RankCounts, Collectives2,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12));

}  // namespace
}  // namespace xts::vmpi
