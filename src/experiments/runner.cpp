#include "experiments/runner.h"

#include <cstdio>
#include <utility>

#include "experiments/cluster_runner.h"

namespace daris::exp {

RunResult run_daris(const RunConfig& config) {
  ClusterConfig cluster;
  cluster.taskset = config.taskset;
  cluster.sched = config.sched;
  cluster.gpu = config.gpu;
  cluster.num_gpus = 1;
  cluster.arrivals = ArrivalMode::kPeriodic;
  cluster.duration_s = config.duration_s;
  cluster.warmup_s = config.warmup_s;
  cluster.seed = config.seed;
  cluster.stage_trace = config.stage_trace;
  ClusterResult r = run_cluster(cluster);

  RunResult result;
  result.total_jps = r.total_jps;
  result.hp = std::move(r.hp);
  result.lp = std::move(r.lp);
  result.gpu_utilization = r.per_gpu[0].utilization;
  result.migrations = r.intra_gpu_migrations;
  result.stage_trace = std::move(r.stage_trace);
  result.profile = r.profile;
  return result;
}

std::string relative_error(double measured, double expected) {
  if (expected == 0.0) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%",
                100.0 * (measured - expected) / expected);
  return buf;
}

}  // namespace daris::exp
