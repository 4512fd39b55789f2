// Single-GPU experiment runner: the paper's setting (one GPU, strictly
// periodic releases) as a narrow config/result pair over run_cluster
// (experiments/cluster_runner.h), which does all the wiring. run_daris is
// exactly run_cluster with num_gpus = 1 and ArrivalMode::kPeriodic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "daris/config.h"
#include "gpusim/gpu_spec.h"
#include "metrics/collector.h"
#include "metrics/profile.h"
#include "workload/taskset.h"

namespace daris::exp {

struct RunConfig {
  workload::TaskSetSpec taskset;
  rt::SchedulerConfig sched;
  gpusim::GpuSpec gpu = gpusim::GpuSpec::rtx2080ti();
  double duration_s = 6.0;
  double warmup_s = 1.0;
  std::uint64_t seed = 42;
  bool stage_trace = false;
};

struct RunResult {
  double total_jps = 0.0;
  metrics::ClassSummary hp;
  metrics::ClassSummary lp;
  double gpu_utilization = 0.0;
  std::uint64_t migrations = 0;
  std::vector<metrics::StageEvent> stage_trace;
  /// Self-profiler counters (always filled; see metrics/profile.h).
  metrics::RunProfile profile;
};

/// Runs DARIS on the configured task set on one GPU and returns the measured
/// summary: the one-GPU periodic case of run_cluster.
RunResult run_daris(const RunConfig& config);

/// Paper-vs-measured helper: relative error string like "+3.2%".
std::string relative_error(double measured, double expected);

}  // namespace daris::exp
