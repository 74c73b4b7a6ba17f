// Tests for the benchmark's own statistics code (stats.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace {

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(e2e::median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(e2e::median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(e2e::median({}), std::invalid_argument);
}

// Reference values from Python: statistics.quantiles(v, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const e2e::Quartiles q = e2e::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  const e2e::Quartiles r = e2e::quartiles({7, 1, 4, 9, 2});
  EXPECT_DOUBLE_EQ(r.q1, 1.5);
  EXPECT_DOUBLE_EQ(r.q2, 4.0);
  EXPECT_DOUBLE_EQ(r.q3, 8.0);
  const e2e::Quartiles two = e2e::quartiles({1, 2});
  EXPECT_DOUBLE_EQ(two.q1, 0.75); // Python extrapolates at the ends
  EXPECT_DOUBLE_EQ(two.q2, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  EXPECT_THROW(e2e::quartiles({1}), std::invalid_argument);
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  EXPECT_EQ(e2e::samples_beyond(100, 90), 10u);
  EXPECT_EQ(e2e::samples_beyond(99, 90), 9u);
  EXPECT_EQ(e2e::samples_beyond(99, 89), 10u);
  EXPECT_EQ(e2e::samples_beyond(1000, 99), 10u);
  EXPECT_EQ(e2e::samples_beyond(5, 90), 0u);

  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(i);
  }
  EXPECT_DOUBLE_EQ(e2e::tail_percentile(v, 90), 90.0);
  v.pop_back();
  EXPECT_THROW(e2e::tail_percentile(v, 90), std::invalid_argument);
  EXPECT_DOUBLE_EQ(e2e::tail_percentile(v, 89), 89.0);
}

TEST(PerStep, NormalisesTotals) {
  EXPECT_DOUBLE_EQ(e2e::per_step(120.0, 6), 20.0);
  EXPECT_THROW(e2e::per_step(1.0, 0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(e2e::ratio(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(e2e::ratio(3, 0), 0.0);
}

TEST(Spans, SelfTimeSubtractsChildCoverage) {
  e2e::SpanRecorder rec;
  // run [0, 100) with children [10, 30) and [20, 50) (overlapping: covered
  // 40) and a grandchild [12, 18) inside the first child.
  const int root = rec.add({"run", -1, 0, 100});
  const int a = rec.add({"Invoke", root, 10, 30});
  rec.add({"Invoke", root, 20, 50});
  rec.add({"plan", a, 12, 18});
  const std::vector<double> self = e2e::self_times_ns(rec.spans());
  EXPECT_DOUBLE_EQ(self[0], 60.0);
  EXPECT_DOUBLE_EQ(self[1], 14.0);
  EXPECT_DOUBLE_EQ(self[2], 30.0);
  EXPECT_DOUBLE_EQ(self[3], 6.0);
  EXPECT_DOUBLE_EQ(e2e::total_ns(rec.spans(), "Invoke"), 50.0);
}

TEST(Spans, ScopesNestAndDisabledRecorderRecordsNothing) {
  e2e::SpanRecorder rec;
  {
    e2e::SpanRecorder::Scope off(rec, "ignored");
  }
  EXPECT_TRUE(rec.spans().empty());
  rec.set_enabled(true);
  {
    e2e::SpanRecorder::Scope outer(rec, "outer");
    e2e::SpanRecorder::Scope inner(rec, "inner");
  }
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[0].parent, -1);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_LE(rec.spans()[0].start_ns, rec.spans()[1].start_ns);
  EXPECT_GE(rec.spans()[0].end_ns, rec.spans()[1].end_ns);
}

sim::TraceEvent event(char kind, int device, double start, double end) {
  sim::TraceEvent e;
  e.kind = kind;
  e.device = device;
  e.start = start;
  e.end = end;
  return e;
}

TEST(Timeline, BusyAndIdleFractionsFromHandBuiltTrace) {
  // Window [0, 10). Device 0 computes [0, 4), device 1 [2, 6), device 2
  // [9, 12) clipped to [9, 10): 9 kernel-seconds, and kernels cover [0, 6)
  // and [9, 10), so no device computes for 3 of 10 seconds. The copy and
  // the wait are not compute.
  const std::vector<sim::TraceEvent> trace = {
      event('K', 0, 0, 4), event('K', 1, 2, 6), event('C', 0, 5, 9),
      event('K', 2, 9, 12), event('W', 0, 0, 10)};
  EXPECT_DOUBLE_EQ(e2e::kernel_busy_frac(trace, 0, 10), 0.9);
  EXPECT_DOUBLE_EQ(e2e::compute_idle_frac(trace, 0, 10), 0.3);
  EXPECT_DOUBLE_EQ(e2e::compute_idle_frac({}, 0, 10), 1.0);
}

TEST(Timeline, UnionLength) {
  EXPECT_DOUBLE_EQ(e2e::union_length({{0, 2}, {1, 3}, {5, 6}, {5.5, 5.75}}),
                   4.0);
  EXPECT_DOUBLE_EQ(e2e::union_length({{3, 3}, {4, 2}}), 0.0);
  EXPECT_DOUBLE_EQ(e2e::union_length({}), 0.0);
}

} // namespace
