// Self-healing rebalancing: the donation/claim protocol underneath work
// stealing (StageQueue::remove_job, Scheduler::donatable_lp_jobs /
// revoke_job), the demand-aware packer, transfer coalescing in the router,
// and the cluster-level contracts — steal/rehome/coalesce schedules are
// bit-identical across repeat runs, and a disabled rebalancer is inert.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/rebalancer.h"
#include "cluster/router.h"
#include "daris/stage_queue.h"
#include "experiments/cluster_runner.h"
#include "sim/sharded.h"

namespace daris::cluster {
namespace {

using common::Priority;

/// Same deterministic fixture as test_cluster.cpp: jitter-free fleet,
/// single-context single-stream GPUs, one shared ResNet18 model; tests of
/// delayed transfers pass a nonzero rate.
struct Harness {
  explicit Harness(int num_gpus, double transfer_us_per_mb = 0.0) {
    FleetConfig cfg;
    cfg.num_gpus = num_gpus;
    cfg.gpu.jitter_cv = 0.0;
    cfg.transfer_us_per_mb = transfer_us_per_mb;
    cfg.sched.policy = rt::Policy::kMps;
    cfg.sched.num_contexts = 1;
    model = std::make_unique<dnn::CompiledModel>(
        dnn::compiled_model(dnn::ModelKind::kResNet18, 1, cfg.gpu));
    fleet = std::make_unique<Fleet>(engine, cfg, collector);
  }

  int add_task(Priority priority, double total_afet_us, int home_gpu) {
    rt::TaskSpec spec;
    spec.model = dnn::ModelKind::kResNet18;
    spec.period = common::from_ms(10.0);
    spec.relative_deadline = spec.period;
    spec.priority = priority;
    const int id = fleet->add_task(spec, model.get(), home_gpu);
    fleet->set_afet(
        id, std::vector<double>(
                model->stage_count(),
                total_afet_us / static_cast<double>(model->stage_count())));
    return id;
  }

  sim::ShardedSimulator engine{0};  // zero shards: single-threaded engine
  sim::Simulator& sim = engine.control();
  metrics::Collector collector;
  std::unique_ptr<dnn::CompiledModel> model;
  std::unique_ptr<Fleet> fleet;
};

// --- StageQueue::remove_job -----------------------------------------------

TEST(StageQueue, RemoveJobDropsOnlyThatJobsStages) {
  rt::StageQueue q;
  rt::Job a;
  rt::Job b;
  q.push({&a, 0, 0, 100, 0});
  q.push({&b, 0, 0, 50, 0});
  q.push({&a, 1, 1, 10, 0});
  q.push({&b, 1, 0, 100, 0});
  EXPECT_EQ(q.remove_job(&a), 2u);
  EXPECT_EQ(q.size(), 2u);
  // Survivors pop in their original order: level before deadline.
  rt::ReadyStage s = q.pop();
  EXPECT_EQ(s.job, &b);
  EXPECT_EQ(s.stage, 0u);
  s = q.pop();
  EXPECT_EQ(s.job, &b);
  EXPECT_EQ(s.stage, 1u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.remove_job(&a), 0u);  // nothing left to remove
}

TEST(StageQueue, RemoveJobPreservesFifoTieBreak) {
  // Four entries at one (level, deadline): removal must not disturb the
  // insertion-order tie-break of the survivors.
  rt::StageQueue q;
  rt::Job a;
  rt::Job b;
  q.push({&a, 0, 0, 100, 0});
  q.push({&b, 0, 0, 100, 0});
  q.push({&a, 1, 0, 100, 0});
  q.push({&b, 1, 0, 100, 0});
  EXPECT_EQ(q.remove_job(&a), 2u);
  EXPECT_EQ(q.pop().stage, 0u);
  EXPECT_EQ(q.pop().stage, 1u);
}

// --- donation / claim protocol --------------------------------------------

TEST(Donation, ReleaseThenRevokeMovesAQueuedJob) {
  Harness h(2);
  const int a = h.add_task(Priority::kLow, 2000.0, 0);
  const int b = h.add_task(Priority::kLow, 2000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, h.collector);

  router.release(a);
  // Let a's first stage reach the stream, then queue b behind it.
  h.sim.run_until(common::from_us(100.0));
  router.release(b);
  ASSERT_EQ(h.fleet->scheduler(0).jobs_in_flight(), 2u);

  const auto jobs = h.fleet->scheduler(0).donatable_lp_jobs();
  ASSERT_EQ(jobs.size(), 1u);  // a started; only b is donatable
  EXPECT_EQ(jobs[0].task_id, b);
  EXPECT_TRUE(h.fleet->scheduler(0).job_stealable(jobs[0].job_id));

  // The claim: thief admits the job backdated to its original release,
  // victim unwinds its copy.
  ASSERT_TRUE(h.fleet->scheduler(1).release_job(b, /*report=*/false,
                                                jobs[0].release));
  EXPECT_TRUE(h.fleet->scheduler(0).revoke_job(jobs[0].job_id));
  EXPECT_EQ(h.fleet->scheduler(0).jobs_in_flight(), 1u);
  EXPECT_EQ(h.fleet->scheduler(1).jobs_in_flight(), 1u);
  EXPECT_FALSE(h.fleet->scheduler(0).job_stealable(jobs[0].job_id));
  EXPECT_FALSE(h.fleet->scheduler(0).revoke_job(jobs[0].job_id));
  EXPECT_TRUE(h.fleet->scheduler(0).donatable_lp_jobs().empty());

  // Revocation unwound the admission accounting: the victim's context can
  // admit 0.7 more utilisation again (0.2 + 0.2 + 0.7 would not fit).
  const int c = h.add_task(Priority::kLow, 7000.0, 0);
  EXPECT_TRUE(h.fleet->scheduler(0).release_job(c, /*report=*/false));

  h.sim.run();
  EXPECT_EQ(h.fleet->scheduler(1).jobs_completed(), 1u);
  EXPECT_GE(h.fleet->scheduler(0).jobs_completed(), 2u);
}

TEST(Donation, StartedJobsAreNeitherListedNorRevocable) {
  Harness h(2);
  const int a = h.add_task(Priority::kLow, 2000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, h.collector);
  router.release(a);
  h.sim.run_until(common::from_us(100.0));  // first stage is on the stream
  EXPECT_TRUE(h.fleet->scheduler(0).donatable_lp_jobs().empty());
  EXPECT_FALSE(h.fleet->scheduler(0).revoke_job(1));  // unknown / started
}

// --- pack_homes ------------------------------------------------------------

TEST(PackHomes, HeavyKindClaimsHostsLeastFillFirst) {
  // Two kinds, 4 tasks, 2 equal devices. Kind 0 carries 6/8 of the load and
  // claims both hosts (one task each); kind 1 then packs onto the single
  // least-filled host.
  const std::vector<double> load = {3.0, 3.0, 1.0, 1.0};
  const std::vector<int> kind = {0, 0, 1, 1};
  const std::vector<double> scale = {1.0, 1.0};
  const std::vector<int> homes = pack_homes(load, kind, scale);
  ASSERT_EQ(homes.size(), 4u);
  EXPECT_EQ(homes[0], 0);
  EXPECT_EQ(homes[1], 1);
  EXPECT_EQ(homes[2], homes[3]);  // light kind stays on one host
  // Deterministic: the same inputs repack identically.
  EXPECT_EQ(pack_homes(load, kind, scale), homes);
}

TEST(PackHomes, UnavailableDevicesReceiveNothing) {
  const std::vector<double> load = {3.0, 3.0, 1.0, 1.0};
  const std::vector<int> kind = {0, 0, 1, 1};
  const std::vector<double> scale = {0.0, 1.0, 1.0};  // GPU 0 failed/draining
  const std::vector<int> homes = pack_homes(load, kind, scale);
  for (const int h : homes) EXPECT_NE(h, 0);
  // The surviving pair splits the heavy kind exactly as the 2-device case.
  EXPECT_EQ(homes[0], 1);
  EXPECT_EQ(homes[1], 2);
}

TEST(PackHomes, DegenerateFleetsFallBackSafely) {
  const std::vector<double> load = {1.0, 2.0};
  const std::vector<int> kind = {0, 1};
  // One device: everything homes there.
  EXPECT_EQ(pack_homes(load, kind, {0.0, 1.0}),
            (std::vector<int>{1, 1}));
  // No device: the all-zero default (callers gate on placeability anyway).
  EXPECT_EQ(pack_homes(load, kind, {0.0, 0.0}),
            (std::vector<int>{0, 0}));
  // No load: everything on the first available device, no NaN fills.
  EXPECT_EQ(pack_homes({0.0, 0.0}, kind, {1.0, 1.0}),
            (std::vector<int>{0, 0}));
}

// --- transfer coalescing ---------------------------------------------------

TEST(Coalesce, ConcurrentColdMigrationsShareOneCopy) {
  Harness h(2, /*transfer_us_per_mb=*/100.0);
  const int a = h.add_task(Priority::kLow, 9000.0, 0);
  const int b = h.add_task(Priority::kLow, 3000.0, 0);
  const int c = h.add_task(Priority::kLow, 3000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet,
                RouterConfig{RoutingPolicy::kModelAffinity, 0.75,
                             /*coalesce=*/true, 1},
                h.collector);

  router.release(a);  // fills GPU 0 (0.9)
  router.release(b);  // rejected on 0, cold-migrates: leads the copy to 1
  router.release(c);  // rejected on 0, attaches to b's in-flight copy
  EXPECT_EQ(h.collector.fleet_routing().transfers_in, 1u);
  EXPECT_DOUBLE_EQ(h.collector.fleet_routing().transferred_mb,
                   h.model->weight_mb);
  EXPECT_EQ(h.collector.fleet_routing().coalesced, 1u);
  EXPECT_DOUBLE_EQ(h.collector.fleet_routing().coalesced_mb,
                   h.model->weight_mb);
  EXPECT_EQ(router.pending_transfers(), 2u);
  EXPECT_EQ(router.pending_transfers_to(1), 2);

  // One copy lands; the leader delivers first and warms the model, then the
  // attached job is admitted against the now-hot weights.
  h.sim.run();
  EXPECT_EQ(router.pending_transfers(), 0u);
  EXPECT_EQ(h.collector.fleet_routing().migrated_in, 2u);
  EXPECT_EQ(h.collector.fleet_routing().sheds(), 0u);
  EXPECT_TRUE(h.fleet->model_hot(1, b));
  EXPECT_EQ(h.fleet->scheduler(1).jobs_completed(), 2u);
}

TEST(Coalesce, OffByDefaultShipsEveryCopy) {
  Harness h(2, /*transfer_us_per_mb=*/100.0);
  const int a = h.add_task(Priority::kLow, 9000.0, 0);
  const int b = h.add_task(Priority::kLow, 3000.0, 0);
  const int c = h.add_task(Priority::kLow, 3000.0, 0);
  h.fleet->run_offline_phase();
  Router router(*h.fleet, RoutingPolicy::kModelAffinity, 1, h.collector);
  router.release(a);
  router.release(b);
  router.release(c);
  // The legacy accounting: both migrations charge the full copy.
  EXPECT_EQ(h.collector.fleet_routing().transfers_in, 2u);
  EXPECT_DOUBLE_EQ(h.collector.fleet_routing().transferred_mb,
                   2.0 * h.model->weight_mb);
  EXPECT_EQ(h.collector.fleet_routing().coalesced, 0u);
}

// --- cluster-level contracts -----------------------------------------------

bool identical(const exp::ClusterResult& a, const exp::ClusterResult& b) {
  if (a.per_gpu.size() != b.per_gpu.size()) return false;
  for (std::size_t g = 0; g < a.per_gpu.size(); ++g) {
    if (a.per_gpu[g].completed != b.per_gpu[g].completed) return false;
  }
  return a.total_jps == b.total_jps && a.hp.completed == b.hp.completed &&
         a.lp.completed == b.lp.completed && a.hp.missed == b.hp.missed &&
         a.lp.missed == b.lp.missed &&
         a.cross_gpu_migrations == b.cross_gpu_migrations &&
         a.drops == b.drops && a.transfers == b.transfers &&
         a.transferred_mb == b.transferred_mb &&
         a.arrivals == b.arrivals && a.jobs_lost == b.jobs_lost &&
         a.steals == b.steals && a.steal_scans == b.steal_scans &&
         a.rehomes == b.rehomes && a.rehome_rounds == b.rehome_rounds &&
         a.coalesced_transfers == b.coalesced_transfers &&
         a.coalesced_mb_saved == b.coalesced_mb_saved &&
         a.transfer_cancels == b.transfer_cancels;
}

exp::ClusterConfig fleet_config(int num_gpus) {
  exp::ClusterConfig cfg;
  cfg.taskset =
      workload::replicated_taskset(workload::mixed_taskset(), num_gpus);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 6;
  cfg.sched.oversubscription = 6.0;
  cfg.num_gpus = num_gpus;
  cfg.routing = RoutingPolicy::kHybrid;
  cfg.duration_s = 3.0;
  cfg.warmup_s = 0.5;
  return cfg;
}

exp::ClusterConfig stealing_config() {
  // A 4x flash crowd on a 3-GPU fleet packed for the steady state: the
  // backlog guard trips at the overloaded homes and steal scans move queued
  // LP jobs to warm peers.
  exp::ClusterConfig cfg = fleet_config(3);
  cfg.arrivals = exp::ArrivalMode::kTrace;
  workload::TraceGenConfig gen;
  gen.duration_s = 3.0;
  gen.mean_rate_jps = 2000.0;
  gen.diurnal_amplitude = 0.0;
  workload::FlashCrowd spike;
  spike.start_s = 1.0;
  spike.duration_s = 1.5;
  spike.factor = 4.0;
  gen.flashes.push_back(spike);
  gen.seed = 7;
  cfg.trace = workload::generate_trace(workload::trace_mix(cfg.taskset), gen);
  cfg.rebalance.enabled = true;
  cfg.rebalance.rehome = false;
  cfg.rebalance.max_steals_per_scan = 8;
  return cfg;
}

exp::ClusterConfig rehoming_config() {
  // GPU 0 of 3 drains with no replacement at modest open-loop load: the
  // fault-instant rehoming piles its homes on one survivor, and the
  // periodic demand-aware rounds redistribute them.
  exp::ClusterConfig cfg = fleet_config(3);
  cfg.arrivals = exp::ArrivalMode::kPoisson;
  cfg.rate_scale = 0.7;
  exp::FaultSpec drain;
  drain.kind = exp::FaultSpec::Kind::kDrain;
  drain.gpu = 0;
  drain.at_s = 0.75;
  cfg.faults.push_back(drain);
  cfg.rebalance.enabled = true;
  cfg.rebalance.steal = false;
  return cfg;
}

TEST(Rebalance, StealScheduleIsBitIdenticalAcrossRuns) {
  const exp::ClusterConfig cfg = stealing_config();
  const exp::ClusterResult a = exp::run_cluster(cfg);
  const exp::ClusterResult b = exp::run_cluster(cfg);
  EXPECT_TRUE(identical(a, b));
  EXPECT_GT(a.steals, 0u);
  EXPECT_GT(a.steal_scans, 0u);
  EXPECT_EQ(a.rehomes, 0u);  // rehoming was off
}

TEST(Rebalance, RehomeScheduleIsBitIdenticalAcrossRuns) {
  const exp::ClusterConfig cfg = rehoming_config();
  const exp::ClusterResult a = exp::run_cluster(cfg);
  const exp::ClusterResult b = exp::run_cluster(cfg);
  EXPECT_TRUE(identical(a, b));
  EXPECT_GT(a.rehomes, 0u);
  EXPECT_GT(a.rehome_rounds, 0u);
  EXPECT_EQ(a.steals, 0u);   // stealing was off
  EXPECT_EQ(a.jobs_lost, 0u);  // drain is graceful
}

TEST(Rebalance, DisabledRebalancerIsInert) {
  exp::ClusterConfig cfg = stealing_config();
  cfg.rebalance = RebalanceConfig{};
  const exp::ClusterResult a = exp::run_cluster(cfg);
  const exp::ClusterResult b = exp::run_cluster(cfg);
  EXPECT_TRUE(identical(a, b));
  EXPECT_EQ(a.steals, 0u);
  EXPECT_EQ(a.steal_scans, 0u);
  EXPECT_EQ(a.rehomes, 0u);
  EXPECT_EQ(a.coalesced_transfers, 0u);
  EXPECT_DOUBLE_EQ(a.coalesced_mb_saved, 0.0);
}

}  // namespace
}  // namespace daris::cluster
