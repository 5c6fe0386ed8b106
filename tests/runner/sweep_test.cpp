#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cache/fingerprint.hpp"
#include "cache/store.hpp"
#include "core/cache_stats.hpp"
#include "core/error.hpp"
#include "machine/presets.hpp"
#include "obsv/session.hpp"
#include "runner/sweep.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/world.hpp"

namespace xts::runner {
namespace {

TEST(Sweep, ResultsFollowSubmissionOrder) {
  const std::size_t n = 32;
  // Ascending weights force the scheduler to execute in *reverse*
  // submission order; results must still come back in submission order.
  std::vector<std::function<int()>> points;
  std::vector<double> weights;
  for (std::size_t i = 0; i < n; ++i) {
    points.emplace_back([i] { return static_cast<int>(10 * i); });
    weights.push_back(static_cast<double>(i));
  }
  const auto r = sweep(std::move(points), 4, weights);
  ASSERT_EQ(r.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(r[i], static_cast<int>(10 * i));
}

TEST(Sweep, EmptyPointsReturnsEmpty) {
  EXPECT_TRUE(sweep(std::vector<std::function<int()>>{}, 4).empty());
}

TEST(Sweep, DefaultJobsIsPositive) { EXPECT_GE(default_jobs(), 1); }

TEST(Sweep, Jobs1RunsInlineOnCallingThread) {
  const auto main_id = std::this_thread::get_id();
  std::vector<std::thread::id> seen(3);
  std::vector<bool> in(3, false);
  std::vector<std::function<int()>> points;
  for (std::size_t i = 0; i < seen.size(); ++i)
    points.emplace_back([&, i] {
      seen[i] = std::this_thread::get_id();
      in[i] = in_sweep();
      return 0;
    });
  EXPECT_FALSE(in_sweep());
  (void)sweep(std::move(points), 1);
  EXPECT_FALSE(in_sweep());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], main_id);
    EXPECT_TRUE(in[i]);
  }
}

TEST(Sweep, FirstSubmissionOrderExceptionWinsAndSiblingsStillRun) {
  std::atomic<int> ran{0};
  std::vector<std::function<int()>> points;
  std::vector<double> weights;
  for (int i = 0; i < 8; ++i) {
    points.emplace_back([&ran, i]() -> int {
      ran.fetch_add(1);
      if (i == 2) throw std::runtime_error("second");
      if (i == 5) throw std::runtime_error("fifth");
      return i;
    });
    // Make the later-submitted throwing point execute first.
    weights.push_back(i == 5 ? 100.0 : 1.0);
  }
  try {
    (void)sweep(std::move(points), 4, weights);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "second");
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(Sweep, NestedSubmitIsRejected) {
  std::vector<std::function<int()>> points;
  points.emplace_back([] {
    std::vector<std::function<int()>> inner;
    inner.emplace_back([] { return 1; });
    return sweep(std::move(inner), 1)[0];
  });
  EXPECT_THROW((void)sweep(std::move(points), 2), UsageError);
}

TEST(Sweep, WeightsSizeMismatchIsRejected) {
  std::vector<std::function<int()>> points;
  points.emplace_back([] { return 1; });
  EXPECT_THROW((void)sweep(std::move(points), 2, {1.0, 2.0}), UsageError);
}

// ---------------------------------------------------------------------
// Shard merge determinism: with a session observing, the merged
// session state after a sweep must be identical at any jobs count.

double run_world_point(int nranks, int tag) {
  vmpi::WorldConfig cfg;
  cfg.machine = machine::xt4();
  cfg.nranks = nranks;
  vmpi::World w(std::move(cfg));
  return w.run([tag](vmpi::Comm& c) -> Task<void> {
    auto ph = c.phase("sweeptest.phase");
    const int partner = c.rank() ^ 1;
    co_await c.send_wait(partner, tag, 64.0 * (tag + 1));
    (void)co_await c.recv(partner, tag);
    co_await c.barrier();
  });
}

struct SessionFingerprint {
  std::vector<std::tuple<std::uint32_t, int, double, std::uint64_t>>
      summaries;  // (world, nranks, end_time, messages)
  std::vector<std::tuple<std::uint32_t, std::string, std::int32_t, double,
                         double, std::uint64_t>>
      events;  // (world, name, lane, t0, t1, id)
  std::vector<std::tuple<std::string, double, std::size_t>>
      counters;  // (family, total, labels)
  std::vector<double> results;
};

SessionFingerprint run_sweep_under_session(int jobs) {
  obsv::Options opt;
  opt.tracing = true;
  opt.metrics = true;
  obsv::Session& session = obsv::Session::start(opt);

  std::vector<std::function<double()>> points;
  std::vector<double> weights;
  for (int i = 0; i < 6; ++i) {
    const int nranks = 2 + 2 * (i % 3);
    points.emplace_back([nranks, i] { return run_world_point(nranks, i); });
    weights.push_back(static_cast<double>(nranks));
  }
  SessionFingerprint fp;
  fp.results = sweep(std::move(points), jobs, weights);

  for (const auto& s : session.summaries())
    fp.summaries.emplace_back(s.world, s.nranks, s.end_time, s.messages);
  session.sink().for_each([&](const obsv::TraceEvent& e) {
    fp.events.emplace_back(e.world, session.sink().name(e.name), e.lane,
                           e.t0, e.t1, e.id);
  });
  for (const auto& [family, fam] : session.registry().counters())
    fp.counters.emplace_back(family,
                             session.registry().counter_total(family),
                             session.registry().counter_labels(family));
  obsv::Session::stop();
  return fp;
}

TEST(SweepObsv, MergedSessionStateIdenticalAtAnyJobs) {
  const auto serial = run_sweep_under_session(1);
  const auto parallel = run_sweep_under_session(8);

  EXPECT_EQ(serial.results, parallel.results);
  ASSERT_FALSE(serial.summaries.empty());
  EXPECT_EQ(serial.summaries, parallel.summaries);
  ASSERT_FALSE(serial.events.empty());
  EXPECT_EQ(serial.events, parallel.events);
  ASSERT_FALSE(serial.counters.empty());
  EXPECT_EQ(serial.counters, parallel.counters);
  // World ordinals are rebased in submission order: 6 worlds, 0..5.
  for (std::size_t i = 0; i < serial.summaries.size(); ++i)
    EXPECT_EQ(std::get<0>(serial.summaries[i]),
              static_cast<std::uint32_t>(i));
}

TEST(SweepObsv, NoSessionNeedsNoShards) {
  ASSERT_EQ(obsv::Session::active(), nullptr);
  std::vector<std::function<double()>> points;
  for (int i = 0; i < 4; ++i)
    points.emplace_back([i] { return run_world_point(2, i); });
  const auto r = sweep(std::move(points), 2);
  ASSERT_EQ(r.size(), 4u);
  for (const double t : r) EXPECT_GT(t, 0.0);
}

// ---------------------------------------------------------------------
// Scenario-result cache integration: probe-before-schedule, in-flight
// dedup, replay fidelity.  All tests use a memory-only store
// (Store::configure("")), so nothing touches disk.

struct CacheCounters {
  std::uint64_t hits, misses, dedups, writes, bypassed;
  static CacheCounters now() {
    auto& s = scenario_cache_stats();
    return {s.hits.load(), s.misses.load(), s.dedups.load(),
            s.writes.load(), s.bypassed.load()};
  }
  CacheCounters since(const CacheCounters& base) const {
    return {hits - base.hits, misses - base.misses, dedups - base.dedups,
            writes - base.writes, bypassed - base.bypassed};
  }
};

class SweepCache : public ::testing::Test {
 protected:
  void SetUp() override { cache::Store::reset(); }
  void TearDown() override {
    cache::Store::reset();
    if (obsv::Session::active() != nullptr) obsv::Session::stop();
  }
  static cache::Key key_of(int i) {
    return cache::Fingerprint().add("point", i).done();
  }
};

TEST_F(SweepCache, SecondSweepReplaysFromTheStore) {
  cache::Store::configure("");
  std::atomic<int> executed{0};
  const auto run = [&] {
    std::vector<std::function<double()>> points;
    std::vector<cache::Key> keys;
    for (int i = 0; i < 5; ++i) {
      points.emplace_back([&executed, i] {
        executed.fetch_add(1);
        return 1.5 * i;
      });
      keys.push_back(key_of(i));
    }
    return sweep(std::move(points), 2, {}, keys);
  };
  const auto base = CacheCounters::now();
  const auto cold = run();
  auto d = CacheCounters::now().since(base);
  EXPECT_EQ(executed.load(), 5);
  EXPECT_EQ(d.misses, 5u);
  EXPECT_EQ(d.writes, 5u);
  EXPECT_EQ(d.hits, 0u);

  const auto warm = run();
  d = CacheCounters::now().since(base);
  EXPECT_EQ(executed.load(), 5) << "warm sweep must not execute points";
  EXPECT_EQ(d.hits, 5u);
  EXPECT_EQ(warm, cold);
}

TEST_F(SweepCache, NoStoreArmedIgnoresKeys) {
  ASSERT_EQ(cache::Store::process(), nullptr);
  std::atomic<int> executed{0};
  for (int round = 0; round < 2; ++round) {
    std::vector<std::function<double()>> points;
    std::vector<cache::Key> keys;
    for (int i = 0; i < 3; ++i) {
      points.emplace_back([&executed] {
        executed.fetch_add(1);
        return 1.0;
      });
      keys.push_back(key_of(i));
    }
    (void)sweep(std::move(points), 2, {}, keys);
  }
  EXPECT_EQ(executed.load(), 6);
}

TEST_F(SweepCache, InFlightDuplicatesRunOnce) {
  cache::Store::configure("");
  std::atomic<int> executed{0};
  std::vector<std::function<double()>> points;
  std::vector<cache::Key> keys;
  for (int i = 0; i < 6; ++i) {
    points.emplace_back([&executed, i] {
      executed.fetch_add(1);
      return 7.0 + i / 3;  // same value for aliased triples
    });
    keys.push_back(key_of(i / 3));  // two distinct keys, 3 points each
  }
  const auto base = CacheCounters::now();
  const auto r = sweep(std::move(points), 4, {}, keys);
  const auto d = CacheCounters::now().since(base);
  EXPECT_EQ(executed.load(), 2);
  EXPECT_EQ(d.dedups, 4u);
  EXPECT_EQ(d.misses, 2u);
  EXPECT_EQ(r, (std::vector<double>{7.0, 7.0, 7.0, 8.0, 8.0, 8.0}));
}

TEST_F(SweepCache, InvalidKeysAlwaysRun) {
  cache::Store::configure("");
  std::atomic<int> executed{0};
  for (int round = 0; round < 2; ++round) {
    std::vector<std::function<double()>> points;
    std::vector<cache::Key> keys(3);  // all default: valid == false
    for (int i = 0; i < 3; ++i)
      points.emplace_back([&executed] {
        executed.fetch_add(1);
        return 0.0;
      });
    (void)sweep(std::move(points), 2, {}, keys);
  }
  EXPECT_EQ(executed.load(), 6);
}

TEST_F(SweepCache, ErrorsAreNotCachedAndAliasesShareThem) {
  cache::Store::configure("");
  std::atomic<int> executed{0};
  const auto run = [&] {
    std::vector<std::function<double()>> points;
    std::vector<cache::Key> keys;
    for (int i = 0; i < 3; ++i) {
      points.emplace_back([&executed]() -> double {
        executed.fetch_add(1);
        throw std::runtime_error("boom");
      });
      keys.push_back(key_of(42));  // all three alias one key
    }
    return sweep(std::move(points), 2, {}, keys);
  };
  const auto base = CacheCounters::now();
  EXPECT_THROW((void)run(), std::runtime_error);
  EXPECT_EQ(executed.load(), 1);  // canonical ran, aliases shared the error
  EXPECT_EQ(CacheCounters::now().since(base).writes, 0u);
  // Nothing was stored: the rerun executes (and throws) again.
  EXPECT_THROW((void)run(), std::runtime_error);
  EXPECT_EQ(executed.load(), 2);
  EXPECT_EQ(CacheCounters::now().since(base).writes, 0u);
}

TEST_F(SweepCache, KeysSizeMismatchIsRejected) {
  cache::Store::configure("");
  std::vector<std::function<double()>> points;
  points.emplace_back([] { return 1.0; });
  const std::vector<cache::Key> keys(2);
  EXPECT_THROW((void)sweep(std::move(points), 2, {}, keys), UsageError);
}

TEST_F(SweepCache, TracingSessionBypassesTheCache) {
  cache::Store::configure("");
  obsv::Options opt;
  opt.tracing = true;
  (void)obsv::Session::start(opt);
  std::atomic<int> executed{0};
  const auto base = CacheCounters::now();
  for (int round = 0; round < 2; ++round) {
    std::vector<std::function<double()>> points;
    std::vector<cache::Key> keys;
    for (int i = 0; i < 3; ++i) {
      points.emplace_back([&executed] {
        executed.fetch_add(1);
        return 2.0;
      });
      keys.push_back(key_of(i));
    }
    (void)sweep(std::move(points), 2, {}, keys);
  }
  obsv::Session::stop();
  const auto d = CacheCounters::now().since(base);
  EXPECT_EQ(executed.load(), 6) << "tracing runs must never be replayed";
  EXPECT_EQ(d.bypassed, 6u);
  EXPECT_EQ(d.hits + d.misses + d.writes, 0u);
}

/// The acceptance property behind `--metrics` byte-identity: a warm
/// sweep under a metrics session reproduces the exact merged session
/// state (world summaries, counter families) a cold sweep built, while
/// executing zero points.
TEST_F(SweepCache, ReplayReproducesMergedSessionState) {
  cache::Store::configure("");
  std::atomic<int> executed{0};
  struct Observed {
    std::vector<double> results;
    std::vector<std::tuple<std::uint32_t, int, double, std::uint64_t>>
        summaries;
    std::vector<std::tuple<std::string, double, std::size_t>> counters;
  };
  const auto run = [&] {
    obsv::Options opt;
    opt.metrics = true;
    obsv::Session& session = obsv::Session::start(opt);
    std::vector<std::function<double()>> points;
    std::vector<cache::Key> keys;
    for (int i = 0; i < 4; ++i) {
      const int nranks = 2 + 2 * (i % 2);
      points.emplace_back([&executed, nranks, i] {
        executed.fetch_add(1);
        return run_world_point(nranks, i);
      });
      keys.push_back(key_of(i));
    }
    Observed o;
    o.results = sweep(std::move(points), 2, {}, keys);
    for (const auto& s : session.summaries())
      o.summaries.emplace_back(s.world, s.nranks, s.end_time, s.messages);
    for (const auto& [family, fam] : session.registry().counters())
      o.counters.emplace_back(family,
                              session.registry().counter_total(family),
                              session.registry().counter_labels(family));
    obsv::Session::stop();
    return o;
  };
  const auto cold = run();
  ASSERT_EQ(executed.load(), 4);
  ASSERT_FALSE(cold.summaries.empty());
  ASSERT_FALSE(cold.counters.empty());
  const auto warm = run();
  EXPECT_EQ(executed.load(), 4) << "warm sweep must replay, not rerun";
  EXPECT_EQ(warm.results, cold.results);
  EXPECT_EQ(warm.summaries, cold.summaries);
  EXPECT_EQ(warm.counters, cold.counters);
}

}  // namespace
}  // namespace xts::runner
