#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/time.h"
#include "metrics/collector.h"

namespace daris::metrics {
namespace {

using common::from_ms;
using common::from_sec;
using common::Priority;

JobEvent finished_job(Priority p, double release_ms, double finish_ms,
                      double deadline_ms) {
  JobEvent ev;
  ev.priority = p;
  ev.release = from_ms(release_ms);
  ev.finish = from_ms(finish_ms);
  ev.relative_deadline = from_ms(deadline_ms);
  ev.missed = ev.finish > ev.release + ev.relative_deadline;
  return ev;
}

TEST(Collector, CountsPerPriorityClass) {
  Collector c;
  c.on_release(finished_job(Priority::kHigh, 0, 0, 10));
  c.on_release(finished_job(Priority::kLow, 0, 0, 10));
  c.on_release(finished_job(Priority::kLow, 0, 0, 10));
  EXPECT_EQ(c.summary(Priority::kHigh).released, 1u);
  EXPECT_EQ(c.summary(Priority::kLow).released, 2u);
}

TEST(Collector, DmrMissedOverCompleted) {
  Collector c;
  c.on_finish(finished_job(Priority::kLow, 0, 5, 10));    // hit
  c.on_finish(finished_job(Priority::kLow, 0, 15, 10));   // miss
  c.on_finish(finished_job(Priority::kLow, 0, 8, 10));    // hit
  c.on_finish(finished_job(Priority::kLow, 0, 20, 10));   // miss
  EXPECT_DOUBLE_EQ(c.summary(Priority::kLow).dmr(), 0.5);
  EXPECT_DOUBLE_EQ(c.summary(Priority::kHigh).dmr(), 0.0);
}

TEST(Collector, WarmupJobsExcludedFromWindow) {
  Collector c;
  c.set_measure_start(from_ms(100.0));
  c.on_finish(finished_job(Priority::kHigh, 0, 50, 10));   // warm-up miss
  c.on_finish(finished_job(Priority::kHigh, 100, 105, 10));  // counted hit
  const auto& s = c.summary(Priority::kHigh);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.missed, 0u);
  EXPECT_EQ(s.response_ms.count(), 1u);
}

TEST(Collector, ResponseTimesInMilliseconds) {
  Collector c;
  c.on_finish(finished_job(Priority::kHigh, 10, 14, 100));
  c.on_finish(finished_job(Priority::kHigh, 20, 32, 100));
  const auto& r = c.summary(Priority::kHigh).response_ms;
  EXPECT_DOUBLE_EQ(r.min(), 4.0);
  EXPECT_DOUBLE_EQ(r.max(), 12.0);
}

TEST(Collector, RejectionRate) {
  Collector c;
  for (int i = 0; i < 4; ++i) c.on_release(finished_job(Priority::kLow, 0, 0, 1));
  c.on_reject(finished_job(Priority::kLow, 0, 0, 1));
  EXPECT_DOUBLE_EQ(c.summary(Priority::kLow).rejection_rate(), 0.25);
}

TEST(Collector, ThroughputOverMeasureWindow) {
  Collector c;
  c.set_measure_start(from_sec(1.0));
  for (int i = 0; i < 30; ++i) {
    c.on_finish(finished_job(Priority::kLow, 1000 + i, 1100 + i, 1000));
  }
  // 30 jobs over [1s, 4s] = 10 JPS.
  EXPECT_NEAR(c.throughput_jps(from_sec(4.0)), 10.0, 1e-9);
  EXPECT_EQ(c.total_completed(), 30u);
}

TEST(Collector, ThroughputZeroOnEmptyWindow) {
  Collector c;
  c.set_measure_start(from_sec(2.0));
  EXPECT_EQ(c.throughput_jps(from_sec(1.0)), 0.0);
}

TEST(Collector, StageTraceGating) {
  Collector c;
  StageEvent ev;
  ev.execution_us = 5.0;
  c.on_stage(ev);
  EXPECT_TRUE(c.stage_trace().empty());  // disabled by default
  c.enable_stage_trace(true);
  c.on_stage(ev);
  ASSERT_EQ(c.stage_trace().size(), 1u);
  EXPECT_EQ(c.stage_trace()[0].execution_us, 5.0);
}

TEST(Collector, ReadsFoldEveryDeviceLaneWithoutAFinalizeStep) {
  Collector c;
  c.grow_gpu_count(3);
  c.enable_stage_trace(true);
  // Finishes from three devices, interleaved across lanes.
  const int finish_gpu[] = {2, 0, 1, 2, 1, 0, 2};
  const double finish_ms[] = {4, 5, 6, 7, 30, 9, 40};  // > 20 ms misses
  for (int i = 0; i < 7; ++i) {
    JobEvent ev = finished_job(Priority::kLow, 0, finish_ms[i], 20);
    ev.gpu = finish_gpu[i];
    c.on_finish(ev);
  }
  // Stages, each lane's stream time-sorted but the lanes interleaved so the
  // recording order is not the (when, gpu) order.
  struct At {
    int gpu;
    double when_ms;
  };
  const At stages[] = {{2, 5}, {0, 5}, {1, 3}, {2, 7}, {0, 7}, {1, 9}, {0, 8}};
  for (const At& at : stages) {
    StageEvent ev;
    ev.gpu = at.gpu;
    ev.when = from_ms(at.when_ms);
    c.on_stage(ev);
  }

  const ClassSummary lp = c.summary(Priority::kLow);
  EXPECT_EQ(lp.accepted, 7u);
  EXPECT_EQ(lp.completed, 7u);
  EXPECT_EQ(lp.missed, 2u);
  std::vector<double> samples = lp.response_ms.samples();
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(samples, (std::vector<double>{4, 5, 6, 7, 9, 30, 40}));
  const Collector::ClassCounts counts = c.class_counts(Priority::kLow);
  EXPECT_EQ(counts.completed, 7u);
  EXPECT_EQ(counts.missed, 2u);
  EXPECT_EQ(c.total_completed(), 7u);

  const std::vector<StageEvent> trace = c.stage_trace();
  const At want[] = {{1, 3}, {0, 5}, {2, 5}, {0, 7}, {2, 7}, {0, 8}, {1, 9}};
  ASSERT_EQ(trace.size(), 7u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].gpu, want[i].gpu) << i;
    EXPECT_EQ(trace[i].when, from_ms(want[i].when_ms)) << i;
  }
}

TEST(Collector, BareSchedulerEventsLandInLaneZero) {
  Collector c;  // never sized: one lane
  JobEvent ev = finished_job(Priority::kHigh, 0, 3, 10);
  ev.gpu = -1;
  c.on_finish(ev);
  EXPECT_EQ(c.gpu_count(), 1);
  EXPECT_EQ(c.summary(Priority::kHigh).completed, 1u);
}

TEST(ClassSummary, EmptyIsZero) {
  ClassSummary s;
  EXPECT_EQ(s.dmr(), 0.0);
  EXPECT_EQ(s.rejection_rate(), 0.0);
}

}  // namespace
}  // namespace daris::metrics
