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

/// Fill `shard` by hand with every record kind the snapshot carries:
/// counter and histogram metrics, a world
/// summary with a link, an I/O summary with an OST and an OSS link, and
/// a profile with a phase, a matrix cell and a truncated critical path.
void fill_every_record(Session& session, Shard& shard) {
  {
    const ShardScope scope(&shard);
    Registry& reg = session.register_world()->registry();
    reg.counter("snap.counter", "a").add(1.5);
    reg.histogram("snap.hist").add(0.5);
    reg.histogram("snap.hist").add(4.0);
  }
  WorldSummary ws;
  ws.nranks = 8;
  ws.nodes = 2;
  ws.end_time = 1.0e-3;
  ws.messages = 16;
  ws.bytes_sent = 65536.0;
  ws.net_delivered = 32768.0;
  ws.peak_flows = 4;
  ws.engine_events = 99;
  ws.links.push_back({7, 3, 32768.0, 2.0e-4, 1.0e-4, 2});
  shard.add(std::move(ws));
  IoSummary io;
  io.mds_ops = 3;
  io.creates = 2;
  io.commits = 1;
  io.mds_busy_time = 0.125;
  io.mds_wait_time = 0.0625;
  io.mds_peak_queue = 2;
  io.bytes_written = 1048576.0;
  io.bytes_read = 4096.0;
  io.lock_conflicts = 5;
  io.lock_wait_time = 0.25;
  io.stripe_imbalance_max = 1.5;
  io.osts.push_back({4, 1, 1048576.0, 0.5, 0.25, 3, 6, 17});
  io.oss_links.push_back({1, 1048576.0, 0.375, 0.125, 2});
  shard.add(std::move(io));
  WorldProfileResult p;
  p.nranks = 2;
  p.t_end = 1.0e-3;
  p.ranks.resize(2);
  p.ranks[1].buckets[0] = 1.0e-3;
  PhaseProfile ph;
  ph.name = "snap.phase";
  ph.total[1] = 5.0e-4;
  ph.time = {2.5e-4, 5.0e-4, 2.5e-4, 1};
  ph.stragglers = {1, 0};
  p.phases.push_back(std::move(ph));
  p.bucket_imbalance[2] = {1.0, 2.0, 0.5, 0};
  p.stragglers = {0};
  p.matrix.push_back({0, 1, 3, 12288.0, 7.5e-6});
  p.messages = 3;
  p.bytes = 12288.0;
  CritStep step;
  step.kind = CritStep::Kind::kMessage;
  step.rank = 0;
  step.other = 1;
  step.t1 = 2.5e-6;
  step.bytes = 4096.0;
  step.buckets[3] = 2.5e-6;
  p.critical_path.steps = {CritStep{}, step};
  p.critical_path.buckets[3] = 2.5e-6;
  p.critical_path.length = 2.5e-6;
  p.critical_path.t_end = 2.5e-6;
  p.critical_path.messages = 1;
  p.critical_path.ranks = {0, 1};
  p.critical_path.links.push_back({7, 3, 1});
  p.critical_path.truncated = true;
  p.dropped_records = 2;
  shard.add(std::move(p));
}

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x00000100000001b3ULL;
  }
  return h;
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

// The wire format is pinned: a hand-built shard holding every record
// kind encodes to exactly these bytes.  Changing kPinnedSize or
// kPinnedDigest changes what stored cache entries mean, so it requires
// bumping the snapshot kVersion (obsv/snapshot.cpp).
TEST_F(Snapshot, EveryRecordKindRoundTripsToPinnedBytes) {
  constexpr std::size_t kPinnedSize = 1803;
  constexpr std::uint64_t kPinnedDigest = 0x3bb1d51d62d2a6a9ULL;
  Shard shard(*session_);
  fill_every_record(*session_, shard);
  const std::string bytes = ShardSnapshot::encode(shard);
  Shard decoded(*session_);
  ASSERT_TRUE(ShardSnapshot::decode(decoded, bytes));
  EXPECT_EQ(ShardSnapshot::encode(decoded), bytes);
  EXPECT_EQ(bytes.size(), kPinnedSize);
  EXPECT_EQ(fnv1a64(bytes), kPinnedDigest);
  session_->absorb(std::move(decoded));
  ASSERT_EQ(session_->io_summaries().size(), 1u);
  EXPECT_EQ(session_->io_summaries()[0].osts.at(0).chunks, 17u);
  EXPECT_EQ(session_->io_summaries()[0].oss_links.at(0).peak_jobs, 2);
  ASSERT_EQ(session_->profiles().size(), 1u);
  EXPECT_TRUE(session_->profiles()[0].critical_path.truncated);
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
