#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "machine/presets.hpp"
#include "obsv/session.hpp"
#include "obsv/snapshot.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/world.hpp"

// The decoder reads cache entries from disk, so a corrupt count must be
// rejected before it sizes a container.  This binary's operator new
// records the largest single request made while `g_tracking` is set.
// Plain and nothrow new both take malloc, so every delete may free.
namespace {
bool g_tracking = false;
std::size_t g_max_alloc = 0;
}  // namespace

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  if (g_tracking && n > g_max_alloc) g_max_alloc = n;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n) {
  if (void* p = operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
// Out of line, so GCC does not pair the malloc and free across the
// replaced operators (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace xts::obsv {
namespace {

/// One 8-rank World under a metrics + profiling session, recorded
/// through a ShardScope: the shard holds registry metrics, one world
/// summary and one profile.  Returns the shard's encoding; the session
/// stays active for decoding.
std::string encode_world_shard(Session& session) {
  Shard shard(session);
  {
    const ShardScope scope(&shard);
    vmpi::WorldConfig cfg;
    cfg.machine = machine::xt4();
    cfg.nranks = 8;
    vmpi::World w(std::move(cfg));
    w.run([](vmpi::Comm& c) -> Task<void> {
      {
        auto ph = c.phase("snap.exchange");
        const int next = (c.rank() + 1) % c.size();
        const int prev = (c.rank() + c.size() - 1) % c.size();
        co_await c.send_wait(next, 3, 4096.0 * (c.rank() + 1));
        (void)co_await c.recv(prev, 3);
      }
      std::vector<double> contrib(2, 1.0);
      (void)co_await c.allreduce_sum(std::move(contrib));
    });
  }
  return ShardSnapshot::encode(shard);
}

/// Decode into a fresh shard, tracking the largest allocation.
bool decode_fresh(Session& session, std::string_view data) {
  Shard shard(session);
  g_max_alloc = 0;
  g_tracking = true;
  bool ok = false;
  try {
    ok = ShardSnapshot::decode(shard, data);
  } catch (...) {
    ADD_FAILURE() << "decode threw on " << data.size() << " bytes";
  }
  g_tracking = false;
  return ok;
}

class Snapshot : public ::testing::Test {
 protected:
  void SetUp() override {
    Options opt;
    opt.metrics = true;
    opt.profiling = true;
    session_ = &Session::start(opt);
    bytes_ = encode_world_shard(*session_);
  }
  void TearDown() override { Session::stop(); }

  Session* session_ = nullptr;
  std::string bytes_;
};

TEST_F(Snapshot, DecodeThenEncodeIsByteIdentical) {
  Shard shard(*session_);
  ASSERT_TRUE(ShardSnapshot::decode(shard, bytes_));
  EXPECT_EQ(ShardSnapshot::encode(shard), bytes_);
  // The encoding covers every part: metrics, a summary and a profile.
  session_->absorb(std::move(shard));
  EXPECT_FALSE(session_->registry().counters().empty());
  EXPECT_FALSE(session_->registry().histograms().empty());
  ASSERT_EQ(session_->summaries().size(), 1u);
  EXPECT_EQ(session_->summaries()[0].nranks, 8);
  ASSERT_EQ(session_->profiles().size(), 1u);
  EXPECT_FALSE(session_->profiles()[0].matrix.empty());
  EXPECT_FALSE(session_->profiles()[0].phases.empty());
}

TEST_F(Snapshot, EveryStrictPrefixIsRejected) {
  const std::string_view all(bytes_);
  for (std::size_t n = 0; n < all.size(); ++n)
    ASSERT_FALSE(decode_fresh(*session_, all.substr(0, n)))
        << "prefix of " << n << " / " << all.size() << " bytes";
}

TEST_F(Snapshot, FlippedMagicOrVersionIsRejected) {
  for (const std::size_t at : {std::size_t{0}, std::size_t{4}}) {
    std::string bad = bytes_;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    EXPECT_FALSE(decode_fresh(*session_, bad)) << "byte " << at;
  }
}

TEST_F(Snapshot, HugeCountIsRejectedWithoutAllocating) {
  // Bytes 12..19 hold the registry's counter-family count (after magic,
  // version and the world count).
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 63;
  std::string bad = bytes_;
  std::memcpy(bad.data() + 12, &kHuge, sizeof(kHuge));
  EXPECT_FALSE(decode_fresh(*session_, bad));
  EXPECT_EQ(g_max_alloc, 0u);
}

TEST_F(Snapshot, HugeValueAnywhereNeverAllocatesPastTheInput) {
  // Every 8-byte window overwritten with 2^63: a count there must be
  // refused before any container is sized from it, and any other field
  // just decodes to a different value.  Each count is checked against
  // the bytes left, so allocations stay linear in the input (today the
  // worst window costs about 14x the input; the cap is 64x).
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 63;
  const std::size_t cap = 64 * bytes_.size();
  for (std::size_t at = 0; at + sizeof(kHuge) <= bytes_.size(); ++at) {
    std::string bad = bytes_;
    std::memcpy(bad.data() + at, &kHuge, sizeof(kHuge));
    (void)decode_fresh(*session_, bad);
    ASSERT_LE(g_max_alloc, cap) << "2^63 at byte " << at;
  }
}

}  // namespace
}  // namespace xts::obsv
