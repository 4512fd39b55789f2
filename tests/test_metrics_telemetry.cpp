// Telemetry layer (docs/OBSERVABILITY.md): the time-series sampler's
// cadence, ring, and JSON shape; the structured event log's fold back to
// RoutingCounters — pinned against the live collector counters over a real
// overloaded cluster run, the property that makes the log the source of
// truth; and the end-to-end capture run_cluster wires up.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "experiments/cluster_runner.h"
#include "metrics/eventlog.h"
#include "metrics/timeseries.h"
#include "sim/simulator.h"
#include "workload/taskset.h"

namespace daris::metrics {
namespace {

TEST(TimeSeries, SamplesEveryPeriodOverTheHorizon) {
  sim::Simulator sim;
  double gauge = 0.0;
  TimeSeries ts;
  const int track = ts.add_track("g", -1, [&gauge] { return gauge; });
  sim.schedule_at(common::from_us(55.0), [&gauge] { gauge = 1.0; });
  ts.start(sim, common::from_us(10.0), common::from_us(100.0));
  sim.run();
  // Ticks at 0, 10, ..., 100 inclusive.
  ASSERT_EQ(ts.size(), 11u);
  EXPECT_EQ(ts.stamp(0), 0);
  EXPECT_EQ(ts.stamp(10), common::from_us(100.0));
  // The probe reads live state: samples before the t=55 mutation see 0.
  EXPECT_DOUBLE_EQ(ts.value(track, 5), 0.0);
  EXPECT_DOUBLE_EQ(ts.value(track, 6), 1.0);
}

TEST(TimeSeries, RingOverwritesOldestWhenOutrun) {
  sim::Simulator sim;
  TimeSeries ts;
  ts.add_track("g", -1, [] { return 0.0; });
  ts.start(sim, common::from_us(10.0), common::from_us(100.0));
  sim.run();
  const std::size_t held = ts.size();  // 11 of capacity 12
  ts.sample_now(common::from_us(110.0));
  ts.sample_now(common::from_us(120.0));
  EXPECT_EQ(ts.size(), held + 1) << "ring is full; the oldest sample went";
  EXPECT_EQ(ts.stamp(0), common::from_us(10.0));
  EXPECT_EQ(ts.stamp(ts.size() - 1), common::from_us(120.0));
}

TEST(TimeSeries, StopIsIdempotentAndKeepsSamples) {
  sim::Simulator sim;
  TimeSeries ts;
  ts.add_track("g", -1, [] { return 2.0; });
  ts.start(sim, common::from_us(10.0), common::from_us(50.0));
  sim.run();
  const std::size_t held = ts.size();
  ts.stop();
  ts.stop();
  EXPECT_EQ(ts.size(), held);
}

TEST(TimeSeries, AppendJsonShape) {
  TimeSeries ts;
  ts.add_track("gpu/util", 0, [] { return 0.5; });
  ts.sample_now(common::from_us(10.0));
  ts.sample_now(common::from_us(20.0));
  std::string json;
  ts.append_json(&json);
  EXPECT_NE(json.find("\"period_us\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"gpu/util\", \"device\": 0"),
            std::string::npos);
  EXPECT_NE(json.find("[10, 0.5], [20, 0.5]"), std::string::npos);
}

TEST(EventLogFold, MirrorsLiveCounterSemantics) {
  EventLog log;
  log.append(0, EventKind::kAdmit, EventCause::kHomeAdmit, 0, -1, 1);
  log.append(1, EventKind::kReject, EventCause::kInfeasible, 0, -1, 2);
  log.append(2, EventKind::kReject, EventCause::kBacklog, 0, -1, 3);
  log.append(3, EventKind::kReject, EventCause::kPeerReject, 1, -1, 4);
  log.append(4, EventKind::kMigrate, EventCause::kSpill, 0, 1, 5);
  log.append(5, EventKind::kTransfer, EventCause::kColdModel, 1, -1, 5, 44.5);
  // Lifecycle records carry no routing counts.
  log.append(6, EventKind::kFault, EventCause::kFailStop, 1, -1, -1, 3.0);
  log.append(7, EventKind::kRehome, EventCause::kNone, 1, 0, 5);
  log.append(8, EventKind::kDrain, EventCause::kScaleDown, 0);
  const auto fold = log.fold_routing(2);
  ASSERT_EQ(fold.size(), 2u);
  EXPECT_EQ(fold[0].routed, 4u);  // admit + infeasible + backlog + migrate
  EXPECT_EQ(fold[0].home_admits, 1u);
  EXPECT_EQ(fold[0].infeasible, 1u);
  EXPECT_EQ(fold[0].dropped, 1u);  // backlog guard, NOT the infeasible shed
  EXPECT_EQ(fold[0].migrated_out, 1u);
  EXPECT_EQ(fold[0].migrated_in, 0u);
  EXPECT_EQ(fold[1].routed, 1u);
  EXPECT_EQ(fold[1].dropped, 1u);
  EXPECT_EQ(fold[1].migrated_in, 1u);
  EXPECT_EQ(fold[1].transfers_in, 1u);
  EXPECT_DOUBLE_EQ(fold[1].transferred_mb, 44.5);
}

TEST(EventLogFold, OutOfRangeDevicesAreIgnored) {
  EventLog log;
  log.append(0, EventKind::kAdmit, EventCause::kHomeAdmit, 5);
  log.append(1, EventKind::kMigrate, EventCause::kSpill, 0, 9, 2);
  const auto fold = log.fold_routing(1);
  ASSERT_EQ(fold.size(), 1u);
  EXPECT_EQ(fold[0].routed, 1u);
  EXPECT_EQ(fold[0].migrated_out, 1u);  // the in-range half still counts
  EXPECT_TRUE(log.fold_routing(0).empty());
}

/// An overloaded heterogeneous-arrival fleet with telemetry on. Zero-delay
/// transfers so no transfer is in flight when the horizon cuts the run —
/// the precondition for exact fold == live equality.
exp::ClusterResult telemetry_run() {
  exp::ClusterConfig cfg;
  cfg.taskset = workload::replicated_taskset(workload::mixed_taskset(), 3);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 4;
  cfg.sched.oversubscription = 4.0;
  cfg.num_gpus = 3;
  cfg.arrivals = exp::ArrivalMode::kPoisson;
  cfg.rate_scale = 2.5;  // overload: forces rejects, spills, migrations
  cfg.duration_s = 1.0;
  cfg.warmup_s = 0.25;
  cfg.transfer_us_per_mb = 0.0;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_period_s = 0.01;
  return exp::run_cluster(cfg);
}

TEST(TelemetryCluster, FoldedEventLogMatchesLiveRoutingCounters) {
  const exp::ClusterResult r = telemetry_run();
  ASSERT_FALSE(r.events.empty());
  const auto fold = r.events.fold_routing(static_cast<int>(r.per_gpu.size()));
  ASSERT_EQ(fold.size(), r.per_gpu.size());
  std::uint64_t migrations = 0;
  for (std::size_t g = 0; g < fold.size(); ++g) {
    const RoutingCounters& live = r.per_gpu[g].routing;
    EXPECT_EQ(fold[g].routed, live.routed) << "gpu " << g;
    EXPECT_EQ(fold[g].home_admits, live.home_admits) << "gpu " << g;
    EXPECT_EQ(fold[g].migrated_in, live.migrated_in) << "gpu " << g;
    EXPECT_EQ(fold[g].migrated_out, live.migrated_out) << "gpu " << g;
    EXPECT_EQ(fold[g].dropped, live.dropped) << "gpu " << g;
    EXPECT_EQ(fold[g].infeasible, live.infeasible) << "gpu " << g;
    EXPECT_EQ(fold[g].transfers_in, live.transfers_in) << "gpu " << g;
    EXPECT_DOUBLE_EQ(fold[g].transferred_mb, live.transferred_mb)
        << "gpu " << g;
    migrations += fold[g].migrated_in;
  }
  EXPECT_GT(migrations, 0u)
      << "the overload config must actually exercise the migration records";
}

TEST(TelemetryCluster, CaptureCarriesDocumentedTracksAndProfile) {
  const exp::ClusterResult r = telemetry_run();
  ASSERT_GT(r.timeseries.track_count(), 0);
  ASSERT_GT(r.timeseries.size(), 0u);
  std::set<std::string> names;
  for (int t = 0; t < r.timeseries.track_count(); ++t) {
    names.insert(r.timeseries.track_name(t));
  }
  for (const char* expected :
       {"gpu/util", "gpu/queue_hp", "gpu/queue_lp", "gpu/hot_models",
        "gpu/transfers_in", "gpu/health", "fleet/backlog", "fleet/hp_dmr_w",
        "fleet/lp_dmr_w", "fleet/jobs_lost"}) {
    EXPECT_TRUE(names.count(expected) == 1) << "missing track " << expected;
  }
  EXPECT_GT(r.profile.events_executed, 0u);
  EXPECT_GT(r.profile.pool_slots, 0u);
  EXPECT_GT(r.profile.solver_flushes, 0u);
  EXPECT_GE(r.profile.wall_ms_total, r.profile.wall_ms_run);
}

/// Records of `kind` (and `cause`, unless kNone) in the run's event log.
std::uint64_t records(const exp::ClusterResult& r, EventKind kind,
                      EventCause cause = EventCause::kNone) {
  std::uint64_t n = 0;
  for (const FleetEvent& ev : r.events.events()) {
    if (ev.kind == kind && (cause == EventCause::kNone || ev.cause == cause)) {
      ++n;
    }
  }
  return n;
}

TEST(TelemetryCluster, ResultCountersEqualTheirRecordCounts) {
  // Every layer that records outcomes, armed at once: an overloaded fleet
  // with resilience (retries, hedging, breakers), self-healing rebalancing
  // and a fail-stop mid-run.
  exp::ClusterConfig cfg;
  cfg.taskset = workload::replicated_taskset(workload::mixed_taskset(), 3);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 4;
  cfg.sched.oversubscription = 4.0;
  cfg.num_gpus = 4;
  cfg.arrivals = exp::ArrivalMode::kPoisson;
  cfg.rate_scale = 2.5;
  cfg.duration_s = 1.0;
  cfg.warmup_s = 0.25;
  cfg.rebalance.enabled = true;
  cfg.resilience.enabled = true;
  cfg.resilience.hedge = true;
  cfg.resilience.breaker = true;
  exp::FaultSpec fail;
  fail.kind = exp::FaultSpec::Kind::kFail;
  fail.gpu = 1;
  fail.at_s = 0.6;
  cfg.faults.push_back(fail);
  cfg.telemetry.enabled = true;
  const exp::ClusterResult r = exp::run_cluster(cfg);
  ASSERT_TRUE(r.conservation_ok) << r.conservation_detail;

  EXPECT_EQ(r.retries, records(r, EventKind::kRetry, EventCause::kBackoff));
  EXPECT_EQ(r.retry_abandoned_budget,
            records(r, EventKind::kRetry, EventCause::kBudgetExhausted));
  EXPECT_EQ(r.retry_abandoned_expired,
            records(r, EventKind::kRetry, EventCause::kExpired));
  EXPECT_EQ(r.retry_abandoned_attempts,
            records(r, EventKind::kRetry, EventCause::kMaxAttempts));
  EXPECT_EQ(r.hedges, records(r, EventKind::kHedge, EventCause::kHedgeLaunch));
  EXPECT_EQ(r.hedge_wins, records(r, EventKind::kHedge, EventCause::kHedgeWin));
  EXPECT_EQ(r.hedge_cancels,
            records(r, EventKind::kHedge, EventCause::kHedgeCancel));
  EXPECT_EQ(r.breaker_opens,
            records(r, EventKind::kBreaker, EventCause::kBreakerOpen));
  EXPECT_EQ(r.breaker_closes,
            records(r, EventKind::kBreaker, EventCause::kBreakerClose));
  EXPECT_EQ(r.rehomes, records(r, EventKind::kRehome, EventCause::kDemandShift));
  EXPECT_EQ(r.steals, records(r, EventKind::kSteal));
  double lost = 0.0;
  for (const FleetEvent& ev : r.events.events()) {
    if (ev.kind == EventKind::kFault && ev.cause == EventCause::kFailStop) {
      lost += ev.value;
    }
  }
  EXPECT_EQ(static_cast<double>(r.jobs_lost), lost);

  // The run must exercise what it checks.
  EXPECT_GT(r.retries, 0u);
  EXPECT_GT(r.hedges, 0u);
  EXPECT_GT(r.breaker_opens, 0u);
  EXPECT_GT(r.rehomes, 0u);
  EXPECT_GT(r.steals, 0u);
  EXPECT_GT(r.jobs_lost, 0u);
}

TEST(TelemetryCluster, DisabledByDefaultLeavesCaptureEmpty) {
  exp::ClusterConfig cfg;
  cfg.taskset = workload::replicated_taskset(workload::mixed_taskset(), 2);
  cfg.num_gpus = 2;
  cfg.duration_s = 0.5;
  cfg.warmup_s = 0.1;
  const exp::ClusterResult r = exp::run_cluster(cfg);
  EXPECT_EQ(r.timeseries.track_count(), 0);
  EXPECT_TRUE(r.events.empty());
  EXPECT_GT(r.profile.events_executed, 0u)
      << "the self-profiler is unconditional";
}

}  // namespace
}  // namespace daris::metrics
