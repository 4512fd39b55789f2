// Multi-GPU serving walkthrough: a three-GPU fleet behind the hybrid
// affinity+spillover routing front-end, driven by open-loop Poisson
// arrivals, with cold-model migrations paying real weight transfers
// (docs/CLUSTER.md is the policy guide).
//
// This is the cluster-level counterpart of quickstart.cpp. It shows the two
// ways to run a fleet:
//   1. the one-call harness (exp::run_cluster), which is what benches use;
//   2. the underlying objects (Fleet + Router + OpenLoopDriver) wired by
//      hand, for applications that need custom placement or instrumentation.
#include <cstdio>

#include "common/table.h"
#include "experiments/cluster_runner.h"
#include "metrics/trace_report.h"
#include "sim/sharded.h"

using namespace daris;

int main() {
  std::printf("== cluster_serving: 3 GPUs, hybrid affinity+spillover ==\n\n");

  // --- 1. One-call harness -------------------------------------------------
  // Mixed Table II workload, replicated per GPU so each device sees the
  // paper's 150% operating point; Poisson arrivals make the load open-loop
  // (releases do not wait for completions).
  exp::ClusterConfig cfg;
  cfg.taskset = workload::replicated_taskset(workload::mixed_taskset(), 3);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 6;
  cfg.sched.oversubscription = 6.0;
  cfg.num_gpus = 3;
  // Hybrid affinity+spillover (see docs/CLUSTER.md for the policy guide):
  // LP jobs stay on their model-affine home GPU until its load crosses
  // spill_threshold, then spill to the best-scoring peer. Migrations of a
  // rejected job to a device whose weights are cold pay a per-MB transfer.
  cfg.routing = cluster::RoutingPolicy::kHybrid;
  cfg.spill_threshold = 0.75;
  cfg.transfer_us_per_mb = 80.0;  // ~PCIe 3.0 x16; 0 = zero-delay premise
  cfg.arrivals = exp::ArrivalMode::kPoisson;
  cfg.duration_s = 2.0;
  cfg.warmup_s = 0.5;
  cfg.stage_trace = true;

  const exp::ClusterResult r = exp::run_cluster(cfg);

  std::printf("fleet throughput: %.0f JPS (%llu arrivals)\n", r.total_jps,
              static_cast<unsigned long long>(r.arrivals));
  std::printf("HP: %.2f%% DMR | LP: %.2f%% DMR, %.1f%% rejected\n",
              100.0 * r.hp.dmr(), 100.0 * r.lp.dmr(),
              100.0 * r.lp.rejection_rate());
  std::printf("cross-GPU migrations: %llu (%llu weight transfers, %.0f MB), "
              "drops: %llu (%llu infeasible)\n\n",
              static_cast<unsigned long long>(r.cross_gpu_migrations),
              static_cast<unsigned long long>(r.transfers), r.transferred_mb,
              static_cast<unsigned long long>(r.drops),
              static_cast<unsigned long long>(r.infeasible_rejects));

  common::Table per_gpu({"GPU", "util", "completed", "routed", "home admits",
                         "migr in", "migr out", "dropped"});
  for (std::size_t g = 0; g < r.per_gpu.size(); ++g) {
    const auto& s = r.per_gpu[g];
    per_gpu.add_row(
        {common::fmt_int(static_cast<long long>(g)),
         common::fmt_percent(s.utilization, 0),
         common::fmt_int(static_cast<long long>(s.completed)),
         common::fmt_int(static_cast<long long>(s.routing.routed)),
         common::fmt_int(static_cast<long long>(s.routing.home_admits)),
         common::fmt_int(static_cast<long long>(s.routing.migrated_in)),
         common::fmt_int(static_cast<long long>(s.routing.migrated_out)),
         common::fmt_int(static_cast<long long>(s.routing.dropped))});
  }
  std::printf("%s\n", per_gpu.to_string().c_str());
  std::printf("%s\n", metrics::trace_report(r.stage_trace).to_string().c_str());

  // --- 2. The same fleet wired by hand ------------------------------------
  // Everything the harness does is public API: build a Fleet on the event
  // engine (zero device shards: one single-threaded simulator), register
  // tasks with a home GPU, route releases through a Router, and drive it
  // with any ReleaseFn-based driver.
  sim::ShardedSimulator engine(0);
  sim::Simulator& sim = engine.control();
  metrics::Collector collector;  // the fleet sizes it to its GPUs

  cluster::FleetConfig fleet_cfg;
  fleet_cfg.num_gpus = 2;
  fleet_cfg.sched.policy = rt::Policy::kMps;
  fleet_cfg.sched.num_contexts = 4;
  fleet_cfg.sched.oversubscription = 4.0;
  // Heterogeneous fleets instead set fleet_cfg.nodes: one GpuNodeSpec per
  // device with its own compute_scale (SMs + bandwidth) and memory_mb
  // budget for pinned model weights.
  cluster::Fleet fleet(engine, fleet_cfg, collector);

  const auto model = dnn::compiled_model(dnn::ModelKind::kResNet18, 1,
                                         fleet_cfg.gpu);
  // LP so the routing policy places it: HP jobs always start at their home
  // GPU (the device carrying their admission reservation).
  rt::TaskSpec spec;
  spec.model = dnn::ModelKind::kResNet18;
  spec.period = common::period_for_jps(60.0);
  spec.relative_deadline = spec.period;
  spec.priority = common::Priority::kLow;
  const int task = fleet.add_task(spec, &model, /*home_gpu=*/0);
  fleet.set_afet(task, std::vector<double>(model.stage_count(), 500.0));
  fleet.run_offline_phase();

  cluster::RouterConfig router_cfg;
  router_cfg.policy = cluster::RoutingPolicy::kRoundRobin;
  router_cfg.seed = 1;
  cluster::Router router(fleet, router_cfg, collector);
  workload::TaskSetSpec taskset;
  taskset.tasks.push_back(spec);
  workload::PeriodicDriver driver(
      sim, taskset, [&router](int id) { router.release(id); },
      common::from_sec(1.0));
  driver.start();
  sim.run_until(common::from_sec(1.0));

  std::printf("hand-wired fleet: GPU0 served %llu jobs, GPU1 served %llu "
              "(round-robin)\n",
              static_cast<unsigned long long>(fleet.jobs_completed(0)),
              static_cast<unsigned long long>(fleet.jobs_completed(1)));
  return 0;
}
