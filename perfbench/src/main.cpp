// perfbench: runs one repetition of a named benchmark workload and prints
// one JSON record on stdout. It drives the program only through public entry
// points (exp::run_daris, exp::run_cluster, the workload generators,
// dnn::compiled_model and rt::profile_afet) and times them with its own
// spans. perfbench/run.py repeats it, checks the records against each other
// and folds them into the benchmark's metrics; perfbench/README.md defines
// the workloads and every metric.
//
//   perfbench --workload paper-grid|fleet-poisson-16|fleet-flash-64
//             --seed N [--traced | --setup-only]
//
// --traced adds, after the timed workload, the offline calls as separate
// spans (dnn.compile, daris.afet) and, on the fleet workloads, an unsharded
// replay whose fingerprint must equal the sharded run's. --setup-only runs
// the same setup with a zero simulated horizon, so a fresh process can be
// timed setting up again without simulating.

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "daris/offline.h"
#include "dnn/zoo.h"
#include "experiments/cluster_runner.h"
#include "experiments/grid.h"
#include "experiments/runner.h"
#include "metrics/eventlog.h"
#include "metrics/trace_export.h"
#include "metrics/trace_report.h"
#include "spans.h"
#include "workload/taskset.h"
#include "workload/trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using namespace daris;

// ---------------------------------------------------------------------------
// Digests. FNV-1a over an exactly formatted string of every behaviour
// counter a run returns, so equal digests mean byte-identical behaviour.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void put(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g;", v);
  *out += buf;
}

void put(std::string* out, std::uint64_t v) {
  *out += std::to_string(v);
  *out += ';';
}

void put_class(std::string* out, const metrics::ClassSummary& c) {
  put(out, c.released);
  put(out, c.accepted);
  put(out, c.rejected);
  put(out, c.completed);
  put(out, c.missed);
  put(out, c.response_ms.percentile(99.0));
}

std::string digest_inputs(const workload::TaskSetSpec& taskset,
                          const workload::Trace* trace) {
  std::string s;
  for (const rt::TaskSpec& t : taskset.tasks) {
    put(&s, static_cast<std::uint64_t>(t.model));
    put(&s, static_cast<std::uint64_t>(t.period));
    put(&s, static_cast<std::uint64_t>(t.relative_deadline));
    put(&s, static_cast<std::uint64_t>(t.priority));
    put(&s, static_cast<std::uint64_t>(t.phase));
  }
  if (trace != nullptr) {
    for (const workload::TraceRow& r : trace->rows) {
      put(&s, r.arrival_us);
      put(&s, static_cast<std::uint64_t>(r.model) * 2 +
                  static_cast<std::uint64_t>(r.slo));
    }
  }
  return hex(fnv1a(s));
}

std::string fingerprint(const exp::RunResult& r) {
  std::string s;
  put(&s, r.total_jps);
  put_class(&s, r.hp);
  put_class(&s, r.lp);
  put(&s, r.gpu_utilization);
  put(&s, r.migrations);
  return hex(fnv1a(s));
}

/// `telemetry` is the serialised time series and event log (empty when
/// telemetry is off), so the sampler's output is part of the behaviour.
std::string fingerprint(const exp::ClusterResult& r,
                        const metrics::TraceReport& rep,
                        const std::string& telemetry) {
  std::string s;
  put(&s, r.total_jps);
  put_class(&s, r.hp);
  put_class(&s, r.lp);
  for (const std::uint64_t v :
       {r.cross_gpu_migrations, r.drops, r.infeasible_rejects, r.transfers,
        r.intra_gpu_migrations, r.arrivals, r.steals, r.steal_scans,
        r.rehomes, r.rehome_rounds, r.coalesced_transfers,
        r.transfer_cancels, r.jobs_lost, r.unmatched_rows, r.first_attempts,
        r.retries, r.retry_admits, r.retry_abandoned_budget,
        r.retry_abandoned_expired, r.retry_abandoned_attempts, r.hedges,
        r.hedge_wins, r.hedge_cancels, r.hedge_waste, r.hedge_rescued_misses,
        r.breaker_opens, r.breaker_closes}) {
    put(&s, v);
  }
  put(&s, r.transferred_mb);
  put(&s, r.coalesced_mb_saved);
  put(&s, r.hedge_client_p99_ms);
  put(&s, static_cast<std::uint64_t>(r.conservation_ok));
  for (const exp::GpuSummary& g : r.per_gpu) {
    put(&s, g.completed);
    put(&s, g.intra_migrations);
    put(&s, g.utilization);
  }
  put(&s, rep.stages);
  put(&s, rep.context_switches);
  put(&s, rep.gpu_migrations);
  put(&s, rep.starved_stages);
  put(&s, rep.worst_stall_us);
  return hex(fnv1a(telemetry, fnv1a(s)));
}

// ---------------------------------------------------------------------------
// The record one repetition prints.
// ---------------------------------------------------------------------------

/// One simulated run (a grid point or a fleet run): the unit the benchmark
/// counts as an operation.
struct Op {
  std::string fingerprint;
  bool conservation_ok = true;
  double run_s = 0.0;
};

/// Simulated outcomes pooled over every op of a repetition.
struct Pool {
  std::uint64_t released[2] = {0, 0};
  std::uint64_t rejected[2] = {0, 0};
  std::uint64_t accepted[2] = {0, 0};
  std::uint64_t completed[2] = {0, 0};
  std::uint64_t missed[2] = {0, 0};
  // Resilience retries. Each re-enters the router as a new release and
  // follows one shed attempt, so run.py subtracts them from `released` and
  // `rejected` to count jobs rather than attempts.
  std::uint64_t retries[2] = {0, 0};
  common::Percentiles response_ms[2];
  double window_s = 0.0;  // simulated measurement seconds, summed

  void add(const metrics::ClassSummary& hp, const metrics::ClassSummary& lp,
           double window) {
    const metrics::ClassSummary* cls[2] = {&hp, &lp};
    for (int c = 0; c < 2; ++c) {
      released[c] += cls[c]->released;
      rejected[c] += cls[c]->rejected;
      accepted[c] += cls[c]->accepted;
      completed[c] += cls[c]->completed;
      missed[c] += cls[c]->missed;
      for (const double v : cls[c]->response_ms.samples()) {
        response_ms[c].add(v);
      }
    }
    window_s += window;
  }
};

static_assert(static_cast<int>(common::Priority::kHigh) == 0 &&
                  static_cast<int>(common::Priority::kLow) == 1,
              "Pool indexes classes by Priority");

struct Record {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  bool setup_only = false;
  std::string input_digest;
  std::vector<Op> ops;
  std::optional<Op> replay;  // traced fleet runs: the unsharded replay
  double gen_s = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double wall_s = 0.0;
  Pool pool;
  std::map<std::string, double> layers;  // per-layer counts and ratios
  SpanLog spans;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double u(std::uint64_t v) { return static_cast<double>(v); }

void add_sim_counts(Record* rec, const metrics::RunProfile& p) {
  auto& L = rec->layers;
  L["sim.events"] += u(p.events_executed);
  L["sim.callbacks_heap"] += u(p.callbacks_heap);
  if (u(p.heap_high_water) > L["sim.heap_high_water"]) {
    L["sim.heap_high_water"] = u(p.heap_high_water);
  }
  L["gpusim.flushes"] += u(p.solver_flushes);
  L["gpusim.contexts_solved"] += u(p.solver_contexts_solved);
  L["gpusim.contexts_reused"] += u(p.solver_contexts_reused);
}

/// Compiles every distinct model of the task set the way the harness does
/// (one CompiledModel per kind, batch from the scheduler config).
std::vector<std::unique_ptr<dnn::CompiledModel>> compile_models(
    const workload::TaskSetSpec& taskset, const rt::SchedulerConfig& sched,
    const gpusim::GpuSpec& gpu) {
  std::map<dnn::ModelKind, bool> kinds;
  for (const rt::TaskSpec& t : taskset.tasks) kinds[t.model] = true;
  std::vector<std::unique_ptr<dnn::CompiledModel>> models;
  for (const auto& kv : kinds) {
    models.push_back(std::make_unique<dnn::CompiledModel>(
        dnn::compiled_model(kv.first, sched.batch, gpu)));
  }
  return models;
}

/// The offline phase's two public calls, timed as their own spans on the
/// workload's inputs (traced repetitions only). Called outside the
/// "workload" span, so the traced wall time holds no work that the untraced
/// run does not do.
void time_offline(Record* rec, const workload::TaskSetSpec& taskset,
                  rt::SchedulerConfig sched, const gpusim::GpuSpec& gpu,
                  std::uint64_t seed) {
  sched.canonicalize();
  std::vector<std::unique_ptr<dnn::CompiledModel>> models;
  {
    auto span = rec->spans.open("dnn.compile");
    models = compile_models(taskset, sched, gpu);
  }
  std::vector<const dnn::CompiledModel*> distinct;
  for (const auto& m : models) distinct.push_back(m.get());
  auto span = rec->spans.open("daris.afet");
  const rt::AfetResult afet =
      rt::profile_afet(gpu, sched, distinct, /*jobs_per_stream=*/16, seed);
  if (afet.per_stage_us.size() != distinct.size()) {
    std::fprintf(stderr, "perfbench: AFET profiled %zu of %zu models\n",
                 afet.per_stage_us.size(), distinct.size());
    std::exit(1);
  }
}

// ---------------------------------------------------------------------------
// paper-grid: DARIS on one GPU over the full Sec. V grid, Fig. 7 mixed task
// set, periodic releases.
// ---------------------------------------------------------------------------

exp::RunConfig grid_config(const workload::TaskSetSpec& taskset,
                           const exp::GridPoint& point, std::uint64_t seed) {
  exp::RunConfig cfg;
  cfg.taskset = taskset;
  cfg.sched = point.sched;
  cfg.seed = seed;
  return cfg;
}

void run_paper_grid(Record* rec) {
  workload::TaskSetSpec taskset;
  const std::vector<exp::GridPoint> grid = exp::paper_grid();
  {
    const auto root = rec->spans.open("workload");
    {
      auto span = rec->spans.open("workload.gen");
      taskset = workload::mixed_taskset(rec->seed);
    }
    rec->gen_s = rec->spans.total_s("workload.gen");
    rec->input_digest = digest_inputs(taskset, nullptr);

    double util_sum = 0.0;
    for (const exp::GridPoint& point : grid) {
      exp::RunConfig cfg = grid_config(taskset, point, rec->seed);
      if (rec->setup_only) cfg.duration_s = 0.0;
      exp::RunResult r;
      {
        auto span = rec->spans.open("experiments.run_daris");
        r = exp::run_daris(cfg);
      }
      {
        // The paper's runs keep no stage trace, so these fold and export
        // nothing; they are timed so every workload reports the same spans.
        auto report_span = rec->spans.open("metrics.trace_report");
        metrics::trace_report(r.stage_trace);
      }
      {
        auto export_span = rec->spans.open("metrics.export");
        metrics::TraceRecorder spans;
        spans.add_stage_events(r.stage_trace);
        rec->layers["metrics.export_mb"] +=
            u(metrics::to_chrome_trace_json(spans.spans()).size()) / 1e6;
      }
      Op op;
      op.fingerprint = fingerprint(r);
      op.run_s = r.profile.wall_ms_run / 1e3;
      rec->ops.push_back(op);
      rec->setup_s += r.profile.wall_ms_offline / 1e3;
      rec->run_s += op.run_s;
      rec->pool.add(r.hp, r.lp, cfg.duration_s - cfg.warmup_s);
      add_sim_counts(rec, r.profile);
      util_sum += r.gpu_utilization;
      rec->layers["daris.intra_migrations"] += u(r.migrations);
      rec->layers["workload.arrivals"] += u(r.hp.released + r.lp.released);
    }
    rec->layers["gpusim.sm_util"] = ratio(util_sum, u(grid.size()));
    rec->setup_s += rec->gen_s;
  }
  if (!rec->traced) return;
  for (const exp::GridPoint& point : grid) {
    const exp::RunConfig cfg = grid_config(taskset, point, rec->seed);
    time_offline(rec, taskset, cfg.sched, cfg.gpu, cfg.seed);
  }
}

// ---------------------------------------------------------------------------
// Fleet workloads.
// ---------------------------------------------------------------------------

/// The fleet shape docs/CLUSTER.md recommends: the mixed Table II set
/// replicated per GPU, MPS 6x1 at OS 6, hybrid routing, on the sharded
/// engine with one lane per host core.
exp::ClusterConfig fleet_config(int gpus, std::uint64_t seed) {
  exp::ClusterConfig cfg;
  cfg.taskset =
      workload::replicated_taskset(workload::mixed_taskset(seed), gpus, seed);
  cfg.sched.policy = rt::Policy::kMps;
  cfg.sched.num_contexts = 6;
  cfg.sched.oversubscription = 6.0;
  cfg.num_gpus = gpus;
  cfg.routing = cluster::RoutingPolicy::kHybrid;
  cfg.seed = seed;
  cfg.sharded = true;
  cfg.sim_threads = static_cast<int>(std::thread::hardware_concurrency());
  return cfg;
}

exp::ClusterConfig poisson_16(std::uint64_t seed) {
  exp::ClusterConfig cfg = fleet_config(16, seed);
  cfg.arrivals = exp::ArrivalMode::kPoisson;
  cfg.rate_scale = 1.0;
  cfg.duration_s = 6.0;
  cfg.warmup_s = 0.5;
  return cfg;
}

/// The flash-crowd-64 scenario (2.5x spike over ~43k JPS, self-healing and
/// resilience stack at the scenario's settings) with every input drawn from
/// `seed`, plus the stage trace and telemetry whose exports the workload
/// times. Hedging and breakers stay off, as in the scenario: breakers
/// collapse goodput in a fleet-wide crowd (docs/RESILIENCE.md).
exp::ClusterConfig flash_64(std::uint64_t seed) {
  exp::ClusterConfig cfg = fleet_config(64, seed);
  cfg.arrivals = exp::ArrivalMode::kTrace;
  cfg.duration_s = 2.5;
  cfg.warmup_s = 0.5;
  workload::TraceGenConfig gen;
  gen.duration_s = 2.5;
  gen.mean_rate_jps = 2000.0 * 64.0 / 3.0;
  workload::FlashCrowd spike;
  spike.start_s = 1.0;
  spike.duration_s = 0.8;
  spike.factor = 2.5;
  gen.flashes.push_back(spike);
  gen.seed = seed;
  cfg.trace = workload::generate_trace(workload::trace_mix(cfg.taskset), gen);
  cfg.rebalance.enabled = true;
  cfg.rebalance.max_steals_per_scan = 8;
  cfg.resilience.enabled = true;
  cfg.stage_trace = true;
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_period_s = 0.005;
  return cfg;
}

std::string telemetry_json(const exp::ClusterResult& r) {
  std::string out;
  r.timeseries.append_json(&out);
  r.events.append_json_array(&out);
  return out;
}

/// Counts the run's resilience retries per class from the event log (its
/// retry records name the task). Hedging is off in both fleet workloads, so
/// retries are the only attempts beyond a job's first; the count must match
/// the run's own retry counter, or the per-job miss fractions would be wrong.
void count_retries(Record* rec, const exp::ClusterConfig& cfg,
                   const exp::ClusterResult& r) {
  std::uint64_t logged = 0;
  for (const metrics::FleetEvent& ev : r.events.events()) {
    if (ev.kind != metrics::EventKind::kRetry ||
        ev.cause != metrics::EventCause::kBackoff) {
      continue;
    }
    const rt::TaskSpec& task =
        cfg.taskset.tasks.at(static_cast<std::size_t>(ev.task));
    ++rec->pool.retries[static_cast<int>(task.priority)];
    ++logged;
  }
  if (logged != r.retries || r.hedges != 0) {
    std::fprintf(stderr,
                 "perfbench: %llu retries logged of %llu, %llu hedges; "
                 "cannot count jobs per class\n",
                 static_cast<unsigned long long>(logged),
                 static_cast<unsigned long long>(r.retries),
                 static_cast<unsigned long long>(r.hedges));
    std::exit(1);
  }
}

void run_fleet(Record* rec, exp::ClusterConfig (*make)(std::uint64_t)) {
  exp::ClusterConfig cfg;
  exp::ClusterResult r;
  metrics::TraceReport report;
  std::string telemetry;
  {
    const auto root = rec->spans.open("workload");
    {
      auto span = rec->spans.open("workload.gen");
      cfg = make(rec->seed);
    }
    if (rec->setup_only) cfg.duration_s = 0.0;
    rec->gen_s = rec->spans.total_s("workload.gen");
    rec->input_digest =
        digest_inputs(cfg.taskset, cfg.arrivals == exp::ArrivalMode::kTrace
                                       ? &cfg.trace
                                       : nullptr);
    {
      auto span = rec->spans.open("experiments.run_cluster");
      r = exp::run_cluster(cfg);
    }
    {
      auto span = rec->spans.open("metrics.trace_report");
      report = metrics::trace_report(r.stage_trace);
    }
    double export_bytes = 0.0;
    {
      auto span = rec->spans.open("metrics.export");
      if (cfg.telemetry.enabled) {
        metrics::TraceRecorder spans;
        spans.add_stage_events_by_gpu(r.stage_trace);
        const std::string perfetto = metrics::to_chrome_trace_json(
            spans.spans(), &r.timeseries, &r.events);
        telemetry = telemetry_json(r);
        export_bytes = u(perfetto.size() + telemetry.size());
      }
    }
    Op op;
    op.fingerprint = fingerprint(r, report, telemetry);
    op.conservation_ok = r.conservation_ok;
    op.run_s = r.profile.wall_ms_run / 1e3;
    if (!r.conservation_ok) {
      std::fprintf(stderr, "perfbench: conservation: %s\n",
                   r.conservation_detail.c_str());
    }
    rec->ops.push_back(op);
    rec->setup_s = rec->gen_s + r.profile.wall_ms_offline / 1e3;
    rec->run_s = op.run_s;
    rec->pool.add(r.hp, r.lp, cfg.duration_s - cfg.warmup_s);
    count_retries(rec, cfg, r);
    add_sim_counts(rec, r.profile);

    auto& L = rec->layers;
    double util_sum = 0.0;
    for (const exp::GpuSummary& g : r.per_gpu) util_sum += g.utilization;
    L["gpusim.sm_util"] = ratio(util_sum, u(r.per_gpu.size()));
    L["daris.intra_migrations"] = u(r.intra_gpu_migrations);
    L["workload.arrivals"] = u(r.arrivals);
    L["cluster.migrations"] = u(r.cross_gpu_migrations);
    L["cluster.drops"] = u(r.drops);
    L["cluster.infeasible"] = u(r.infeasible_rejects);
    L["cluster.transfers"] = u(r.transfers);
    L["cluster.transferred_mb"] = r.transferred_mb;
    L["cluster.coalesced"] = u(r.coalesced_transfers);
    L["cluster.steals"] = u(r.steals);
    L["cluster.steal_yield"] = ratio(u(r.steals), u(r.steal_scans));
    L["cluster.rehomes"] = u(r.rehomes);
    L["cluster.retries"] = u(r.retries);
    L["cluster.retry_admit_ratio"] = ratio(u(r.retry_admits), u(r.retries));
    L["cluster.hedges"] = u(r.hedges);
    L["cluster.hedge_win_ratio"] = ratio(u(r.hedge_wins), u(r.hedges));
    L["cluster.hedge_waste"] = u(r.hedge_waste);
    L["cluster.breaker_opens"] = u(r.breaker_opens);
    L["metrics.stage_events"] = u(r.stage_trace.size());
    L["metrics.log_records"] = u(r.events.size());
    L["metrics.samples"] =
        u(r.timeseries.size()) * static_cast<double>(r.timeseries.track_count());
    L["metrics.export_mb"] = export_bytes / 1e6;
  }

  if (!rec->traced) return;
  time_offline(rec, cfg.taskset, cfg.sched, cfg.gpu, cfg.seed);

  // Identity replay on the single-threaded engine: same config, same seed.
  // Outside the "workload" span, so the traced wall time stays comparable
  // with the untraced one.
  auto span = rec->spans.open("replay.unsharded");
  cfg.sharded = false;
  const exp::ClusterResult base = exp::run_cluster(cfg);
  const metrics::TraceReport base_report =
      metrics::trace_report(base.stage_trace);
  Op replay;
  replay.fingerprint = fingerprint(
      base, base_report, cfg.telemetry.enabled ? telemetry_json(base) : "");
  replay.conservation_ok = base.conservation_ok;
  replay.run_s = base.profile.wall_ms_run / 1e3;
  rec->replay = replay;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

void kv(std::string* out, const char* key, double v, bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\":%.17g%s", key, v, comma ? "," : "");
  *out += buf;
}

void kv(std::string* out, const char* key, const std::string& v) {
  *out += '"';
  *out += key;
  *out += "\":\"";
  *out += v;  // values here are identifiers, digests and version strings
  *out += "\",";
}

void op_json(std::string* out, const Op& op) {
  *out += "{";
  kv(out, "fingerprint", op.fingerprint);
  kv(out, "conservation_ok", op.conservation_ok ? 1.0 : 0.0);
  kv(out, "run_s", op.run_s, false);
  *out += "}";
}

std::string to_json(const Record& rec, double cpu_s, double peak_rss_mb) {
  std::string out = "{";
  kv(&out, "workload", rec.workload);
  kv(&out, "seed", u(rec.seed));
  kv(&out, "traced", rec.traced ? 1.0 : 0.0);
  kv(&out, "build_type", std::string(PERFBENCH_BUILD_TYPE));
  kv(&out, "compiler", std::string(PERFBENCH_COMPILER));
  kv(&out, "nproc", u(std::thread::hardware_concurrency()));
  kv(&out, "input_digest", rec.input_digest);
  std::string all;
  for (const Op& op : rec.ops) all += op.fingerprint;
  kv(&out, "fingerprint", hex(fnv1a(all)));
  kv(&out, "gen_s", rec.gen_s);
  kv(&out, "setup_s", rec.setup_s);
  kv(&out, "run_s", rec.run_s);
  kv(&out, "wall_s", rec.wall_s);
  kv(&out, "cpu_s", cpu_s);
  kv(&out, "peak_rss_mb", peak_rss_mb);

  const Pool& p = rec.pool;
  out += "\"sim\":{";
  kv(&out, "window_s", p.window_s);
  const char* names[2] = {"hp", "lp"};
  std::string key;
  for (int c = 0; c < 2; ++c) {
    for (const auto& [field, value] :
         std::initializer_list<std::pair<const char*, double>>{
             {"released", u(p.released[c])},
             {"rejected", u(p.rejected[c])},
             {"accepted", u(p.accepted[c])},
             {"completed", u(p.completed[c])},
             {"missed", u(p.missed[c])},
             {"retries", u(p.retries[c])},
             {"p99_ms", p.response_ms[c].percentile(99.0)},
             {"samples", u(p.response_ms[c].count())}}) {
      key = std::string(names[c]) + "_" + field;
      kv(&out, key.c_str(), value);
    }
  }
  out.back() = '}';
  out += ",\"layers\":{";
  for (const auto& [name, value] : rec.layers) kv(&out, name.c_str(), value);
  if (out.back() == ',') out.pop_back();
  out += "},\"ops\":[";
  for (std::size_t i = 0; i < rec.ops.size(); ++i) {
    if (i) out += ',';
    op_json(&out, rec.ops[i]);
  }
  out += "]";
  if (rec.replay) {
    out += ",\"replay\":";
    op_json(&out, *rec.replay);
  }
  out += ",\"spans\":";
  rec.spans.append_json(&out);
  out += "}";
  return out;
}

/// Peak resident set of this process image, in KiB. VmHWM belongs to the
/// address space exec created, unlike ru_maxrss, which a child inherits from
/// the process that forked it (here, the Python script).
double peak_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper-grid|fleet-poisson-16|fleet-flash-64 --seed N "
               "[--traced | --setup-only]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Record rec;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--traced") {
      rec.traced = true;
    } else if (arg == "--setup-only") {
      rec.setup_only = true;
    } else if (arg == "--workload" && i + 1 < argc) {
      rec.workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      rec.seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') return usage("--seed takes a number");
      have_seed = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (rec.traced && rec.setup_only) {
    return usage("--traced and --setup-only exclude each other");
  }
#ifndef NDEBUG
  return usage("refusing to time a build with assertions on (not Release)");
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return usage("refusing to time a build that is not CMAKE_BUILD_TYPE=Release");
  }

  if (rec.workload == "paper-grid") {
    run_paper_grid(&rec);
  } else if (rec.workload == "fleet-poisson-16") {
    run_fleet(&rec, &poisson_16);
  } else if (rec.workload == "fleet-flash-64") {
    run_fleet(&rec, &flash_64);
  } else {
    return usage(("unknown workload '" + rec.workload + "'").c_str());
  }
  rec.wall_s = rec.spans.total_s("workload");

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double cpu_s =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  const double peak_rss_mb = peak_rss_kib() / 1024.0;
  if (peak_rss_mb <= 0.0) {
    std::fprintf(stderr, "perfbench: cannot read VmHWM from /proc/self/status\n");
    return 1;
  }
  std::printf("%s\n", to_json(rec, cpu_s, peak_rss_mb).c_str());
  return 0;
}
