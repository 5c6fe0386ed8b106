#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/hostprof.hpp"
#include "machine/presets.hpp"
#include "obsv/telemetry.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/world.hpp"

namespace xts::obsv {
namespace {

void spin_for(std::chrono::milliseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

class HostProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HostProfile::reset();
    HostProfile::enable(true);
  }
  void TearDown() override {
    HostProfile::enable(false);
    HostProfile::reset();
  }
};

TEST(HostProfileDisabled, ScopedTimerIsNoop) {
  ASSERT_FALSE(HostProfile::enabled());
  HostProfile::reset();
  {
    const ScopedHostTimer t(HostSubsys::kEngine);
    spin_for(std::chrono::milliseconds(2));
  }
  const HostProfile::Totals totals = HostProfile::fold();
  EXPECT_DOUBLE_EQ(totals[HostSubsys::kEngine], 0.0);
}

TEST_F(HostProfileTest, ScopedTimerAccumulates) {
  {
    const ScopedHostTimer t(HostSubsys::kRates);
    spin_for(std::chrono::milliseconds(5));
  }
  const HostProfile::Totals totals = HostProfile::fold();
  // Generous bounds: clocks are real, the box may be busy.
  EXPECT_GE(totals[HostSubsys::kRates], 0.004);
  EXPECT_LT(totals[HostSubsys::kRates], 1.0);
  EXPECT_DOUBLE_EQ(totals[HostSubsys::kEngine], 0.0);
}

TEST_F(HostProfileTest, NestedScopeAttributionIsExclusive) {
  {
    const ScopedHostTimer outer(HostSubsys::kEngine);
    spin_for(std::chrono::milliseconds(4));
    {
      const ScopedHostTimer inner(HostSubsys::kRates);
      spin_for(std::chrono::milliseconds(4));
    }
    spin_for(std::chrono::milliseconds(4));
  }
  const HostProfile::Totals totals = HostProfile::fold();
  // Exclusive attribution: the inner window is charged to kRates only,
  // so kEngine holds ~8 ms, not ~12 ms.
  EXPECT_GE(totals[HostSubsys::kEngine], 0.006);
  EXPECT_GE(totals[HostSubsys::kRates], 0.003);
  const double sum =
      totals[HostSubsys::kEngine] + totals[HostSubsys::kRates];
  EXPECT_GE(sum, 0.010);
  EXPECT_LT(sum, 2.0);
  // No double counting: engine alone stays clearly under the total.
  EXPECT_LT(totals[HostSubsys::kEngine], sum);
}

// The shape runner::sweep produces: several worker threads each
// charging the engine loop into their own shard.
TEST_F(HostProfileTest, FoldSumsAcrossThreads) {
  constexpr int kThreads = 3;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([] {
      const ScopedHostTimer t(HostSubsys::kEngine);
      spin_for(std::chrono::milliseconds(3));
    });
  }
  for (std::thread& w : workers) w.join();
  const HostProfile::Totals totals = HostProfile::fold();
  // Each thread contributed >= ~3 ms into its own shard.
  EXPECT_GE(totals[HostSubsys::kEngine], kThreads * 0.002);
}

TEST_F(HostProfileTest, ResetZeroesEveryShard) {
  {
    const ScopedHostTimer t(HostSubsys::kExport);
    spin_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(HostProfile::fold()[HostSubsys::kExport], 0.0);
  HostProfile::reset();
  const HostProfile::Totals totals = HostProfile::fold();
  for (std::size_t i = 0; i < kHostSubsysCount; ++i)
    EXPECT_DOUBLE_EQ(totals.seconds[i], 0.0);
}

TEST(HostSubsysNames, AllDistinctAndNonEmpty) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kHostSubsysCount; ++i)
    names.emplace_back(host_subsys_name(static_cast<HostSubsys>(i)));
  for (const std::string& n : names) EXPECT_FALSE(n.empty());
  for (std::size_t i = 0; i < names.size(); ++i)
    for (std::size_t j = i + 1; j < names.size(); ++j)
      EXPECT_NE(names[i], names[j]);
}

TEST(HostGauges, RusageAndRssArePlausible) {
  // No current <= peak assertion: ru_maxrss and /proc/self/statm use
  // slightly different page accounting, so they can disagree by a few
  // pages in either direction.
  EXPECT_GT(host_peak_rss_bytes(), 0L);
  EXPECT_GT(host_current_rss_bytes(), 0L);
  const HostFaults faults = host_page_faults();
  EXPECT_GE(faults.major, 0L);
  EXPECT_GE(faults.minor, 0L);
}

/// End-to-end: arm telemetry with a stream file, run a real World so
/// the Engine/FlowNetwork publish progress, stop, and validate the
/// JSONL schema.  Substring checks only — the writer emits compact
/// JSON with no spaces.
TEST(TelemetryE2E, StreamSchemaAndProgressPublishing) {
  ASSERT_FALSE(telemetry::active());
  EXPECT_EQ(telemetry::progress(), nullptr);

  const std::string path =
      ::testing::TempDir() + "xtsim_telemetry_test.jsonl";
  TelemetryOptions opt;
  opt.stream_path = path;
  telemetry::start(opt);
  ASSERT_TRUE(telemetry::active());
  RunProgress* progress = telemetry::progress();
  ASSERT_NE(progress, nullptr);

  {
    vmpi::WorldConfig cfg;
    cfg.machine = machine::xt4();
    cfg.nranks = 8;
    vmpi::World w(std::move(cfg));
    w.run([](vmpi::Comm& c) -> Task<void> {
      co_await c.send_wait((c.rank() + 1) % c.size(), 0, 4096.0);
      (void)co_await c.recv(vmpi::kAnySource, 0);
      co_await c.barrier();
    });
  }
  // The World wired the progress atomics and published at teardown.
  EXPECT_GT(progress->events.load(std::memory_order_relaxed), 0u);
  EXPECT_GT(progress->sim_time.load(std::memory_order_relaxed), 0.0);

  telemetry::stop();
  EXPECT_FALSE(telemetry::active());
  EXPECT_EQ(telemetry::progress(), nullptr);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string stream = buf.str();
  std::remove(path.c_str());

  // Start marker first, then >= 1 heartbeat (the final one is
  // guaranteed even for sub-period runs), then exactly one breakdown.
  EXPECT_EQ(stream.rfind("{\"xtsim_telemetry\":1", 0), 0u);
  EXPECT_TRUE(contains(stream, "\"kind\":\"start\""));
  EXPECT_TRUE(contains(stream, "\"schema\":2"));
  EXPECT_GE(count_of(stream, "\"kind\":\"heartbeat\""), 1u);
  EXPECT_TRUE(contains(stream, "\"final\":true"));
  for (const char* key :
       {"\"wall_s\":", "\"sim_s\":", "\"events\":", "\"events_per_s\":",
        "\"sim_rate\":", "\"queue_depth\":", "\"flows\":",
        "\"rss_bytes\":"})
    EXPECT_TRUE(contains(stream, key)) << key;
  EXPECT_EQ(count_of(stream, "\"kind\":\"breakdown\""), 1u);
  for (const char* key :
       {"\"engine\"", "\"net.rates\"", "\"obsv.export\"", "\"telemetry\"",
        "\"other\"", "\"peak_rss_bytes\"", "\"major_faults\"", "\"minor_faults\""})
    EXPECT_TRUE(contains(stream, key)) << key;
}

TEST(TelemetryE2E, StopWithoutStartIsSafe) {
  ASSERT_FALSE(telemetry::active());
  telemetry::stop();  // must not crash or emit
  EXPECT_FALSE(telemetry::active());
}

}  // namespace
}  // namespace xts::obsv
