#include <gtest/gtest.h>

#include "core/error.hpp"
#include "obsv/metrics.hpp"

namespace xts::obsv {
namespace {

TEST(Metrics, CounterAccumulates) {
  Registry reg;
  Counter& c = reg.counter("msg.count", "rank 0");
  c.add();
  c.add(3.0);
  EXPECT_DOUBLE_EQ(c.value(), 4.0);
  // Same (family, label) resolves to the same metric.
  EXPECT_EQ(&reg.counter("msg.count", "rank 0"), &c);
}

TEST(Metrics, CounterLabelAggregation) {
  Registry reg;
  reg.counter("msg.bytes", "rank 0").add(100.0);
  reg.counter("msg.bytes", "rank 1").add(250.0);
  reg.counter("msg.bytes", "rank 2").add(50.0);
  reg.counter("other", "rank 0").add(1.0e9);
  EXPECT_DOUBLE_EQ(reg.counter_total("msg.bytes"), 400.0);
  EXPECT_EQ(reg.counter_labels("msg.bytes"), 3u);
  EXPECT_DOUBLE_EQ(reg.counter_total("absent"), 0.0);
  EXPECT_EQ(reg.counter_labels("absent"), 0u);
}

TEST(Metrics, PointerStabilityAcrossInserts) {
  Registry reg;
  Counter* first = &reg.counter("family", "a");
  first->add(1.0);
  // Node-based storage: later inserts must not move earlier metrics
  // (instrumented sites cache these pointers).
  for (int i = 0; i < 1000; ++i)
    reg.counter("family", "label " + std::to_string(i)).add(1.0);
  EXPECT_EQ(&reg.counter("family", "a"), first);
  EXPECT_DOUBLE_EQ(first->value(), 1.0);
}

TEST(Metrics, HistogramMomentsAndPercentiles) {
  Registry reg;
  Histogram& h = reg.histogram("msg.latency");
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_NEAR(h.percentile(0.95), 95.05, 1e-9);
  EXPECT_THROW((void)reg.histogram("fresh").percentile(0.5), UsageError);
}

TEST(Metrics, DeterministicIterationOrder) {
  Registry reg;
  reg.counter("b", "z").add(1.0);
  reg.counter("a", "y").add(1.0);
  reg.counter("a", "x").add(1.0);
  std::string order;
  for (const auto& [family, labels] : reg.counters())
    for (const auto& [label, c] : labels) order += family + "/" + label + " ";
  EXPECT_EQ(order, "a/x a/y b/z ");
}

TEST(Metrics, ClearEmptiesEverything) {
  Registry reg;
  EXPECT_TRUE(reg.empty());
  reg.counter("c").add(1.0);
  reg.histogram("h").add(1.0);
  EXPECT_FALSE(reg.empty());
  reg.clear();
  EXPECT_TRUE(reg.empty());
}

}  // namespace
}  // namespace xts::obsv
