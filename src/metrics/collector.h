// Run-time metrics: per-priority throughput, deadline-miss rate, response
// times, and optional per-stage execution/MRET traces (Fig. 9).
//
// The Collector is the one home of a run's outcome counters: the per-class
// counts and samples, the per-GPU RoutingCounters, and the fleet-wide
// OutcomeCounters of the fault, rebalancing and resilience layers. The
// cluster layers keep no tallies of their own; each decision is one call
// here that bumps its counter and appends its event-log record.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/priority.h"
#include "common/stats.h"
#include "common/time.h"

namespace daris::metrics {

// Defined in metrics/eventlog.h; forward-declared here so the collector can
// own the log without an include cycle (eventlog.h needs RoutingCounters).
enum class EventKind : std::uint8_t;
enum class EventCause : std::uint8_t;
class EventLog;

using common::Duration;
using common::Priority;
using common::Time;

struct JobEvent {
  int task_id = 0;
  Priority priority = Priority::kHigh;
  Time release = 0;
  Time finish = 0;
  Duration relative_deadline = 0;
  bool missed = false;
  int gpu = -1;  // device index in a cluster run (-1: single GPU)
};

struct StageEvent {
  int task_id = 0;
  std::size_t stage = 0;
  Time when = 0;
  double execution_us = 0.0;  // measured et_{i,j}
  double mret_us = 0.0;       // prediction in force when the stage started
  int context = -1;           // context the stage executed on
  int gpu = -1;               // device index in a cluster run (-1: single GPU)
};

/// Summary over one priority class.
struct ClassSummary {
  std::uint64_t released = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t missed = 0;

  common::Percentiles response_ms;

  /// Deadline-miss rate: misses over accepted jobs (paper Sec. VI),
  /// evaluated over jobs completing inside the measurement window.
  double dmr() const {
    return completed == 0
               ? 0.0
               : static_cast<double>(missed) / static_cast<double>(completed);
  }
  double rejection_rate() const {
    return released == 0
               ? 0.0
               : static_cast<double>(rejected) / static_cast<double>(released);
  }
};

/// Cluster-level routing outcomes for one GPU (also summed fleet-wide).
/// Filled by `cluster::Router` and `cluster::Rebalancer`.
struct RoutingCounters {
  std::uint64_t routed = 0;        // arrivals first offered to this GPU
  std::uint64_t home_admits = 0;   // admitted by the GPU they were routed to
  std::uint64_t migrated_in = 0;   // admitted here after a peer rejected them
  std::uint64_t migrated_out = 0;  // rejected here, admitted on a peer
  std::uint64_t dropped = 0;       // shed after routing here: backlog
                                   // guard, or rejected here and by the
                                   // offered peer
  std::uint64_t infeasible = 0;    // shed by the fleet admission controller
                                   // (charged to the task's home GPU)
  std::uint64_t transfers_in = 0;  // cross-GPU weight transfers landing here
  double transferred_mb = 0.0;     // MB shipped into this GPU by migrations
  std::uint64_t steals_in = 0;     // queued LP jobs claimed by this GPU
  std::uint64_t steals_out = 0;    // queued LP jobs claimed off this GPU
  std::uint64_t coalesced = 0;     // migrations here that attached to an
                                   // in-flight weight copy
  double coalesced_mb = 0.0;       // MB those attachments did NOT re-ship

  /// Jobs shed after routing here, any cause: summed fleet-wide this is
  /// exp::ClusterResult::drops, and per GPU the circuit breaker's shed
  /// signal.
  std::uint64_t sheds() const { return dropped + infeasible; }

  RoutingCounters& operator+=(const RoutingCounters& o) {
    routed += o.routed;
    home_admits += o.home_admits;
    migrated_in += o.migrated_in;
    migrated_out += o.migrated_out;
    dropped += o.dropped;
    infeasible += o.infeasible;
    transfers_in += o.transfers_in;
    transferred_mb += o.transferred_mb;
    steals_in += o.steals_in;
    steals_out += o.steals_out;
    coalesced += o.coalesced;
    coalesced_mb += o.coalesced_mb;
    return *this;
  }
};

/// Fleet-wide control-plane outcomes beside routing: the client resilience
/// layer, the rebalancer's scans and rounds, transfer cancellation and
/// fail-stop losses. Every write happens in the control phase, so one struct
/// serves the fleet (no lanes). A counter with a log record is bumped only by
/// the collector call that appends the record (the kind and cause in its
/// comment); the rest have no record and are plain fields their layer bumps
/// through Collector::outcomes().
struct OutcomeCounters {
  // cluster::ResiliencePolicy
  std::uint64_t first_attempts = 0;      // releases entering the layer
  std::uint64_t retries = 0;             // retry/backoff: re-released
  std::uint64_t retry_admits = 0;        // retries that ended in an admission
  std::uint64_t abandoned_budget = 0;    // retry/budget-exhausted
  std::uint64_t abandoned_expired = 0;   // retry/expired
  std::uint64_t abandoned_attempts = 0;  // retry/max-attempts
  std::uint64_t hedges = 0;              // hedge/hedge-launch
  std::uint64_t hedge_wins = 0;          // hedge/hedge-win
  std::uint64_t hedge_cancels = 0;       // hedge/hedge-cancel
  std::uint64_t hedge_waste = 0;         // pairs where both copies ran
  std::uint64_t hedge_rescued_misses = 0;  // see exp::ClusterResult
  std::uint64_t breaker_opens = 0;       // breaker/breaker-open
  std::uint64_t breaker_closes = 0;      // breaker/breaker-close
  // cluster::Rebalancer
  std::uint64_t steal_scans = 0;         // backlog-triggered scans executed
  std::uint64_t rehomes = 0;             // rehome/demand-shift
  std::uint64_t rehome_rounds = 0;       // rounds that moved at least one home
  // cluster::Router
  std::uint64_t transfer_cancels = 0;    // in-flight copies cut by a fault
  // cluster::Fleet
  std::uint64_t jobs_lost = 0;           // summed fault/fail-stop values
};

class Collector {
 public:
  Collector();
  ~Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// When true, stage events are stored (memory-heavy; off by default).
  void enable_stage_trace(bool on) { trace_stages_ = on; }

  /// Measurement window: jobs finishing before `start` are warm-up and only
  /// counted toward acceptance statistics.
  void set_measure_start(Time start) { measure_start_ = start; }

  // --- per-device lanes ----------------------------------------------------
  //
  // Every device records into its own lane: on_finish/on_stage write
  // lane[ev.gpu] (a bare scheduler with gpu == -1 writes lane 0), and the
  // lane also holds the device's routing counters. In a sharded fleet run
  // finishes and stages fire from device-shard events on pool worker
  // threads, and exactly one thread executes a given device's events in any
  // window, so lane writers never race; every other hook (release/reject
  // from the router, routing counters, the outcome counters, the event log)
  // runs in the control phase while the pool is parked at the barrier. The
  // flat class counts hold only those control-phase releases and rejects.
  //
  // Readers fold the lanes on every call: counters sum, response samples
  // concatenate in lane order (Percentiles queries are order-insensitive),
  // and stage traces merge into (when, gpu) order. Per-lane streams are
  // time-sorted, so one canonical timeline comes out whatever the engine,
  // and its fold (metrics/trace_report.h tracks per-task consecutive
  // stages, and a task occupies one device at a time) is the same sharded
  // or not.

  /// Widens the lanes to `n` devices without touching recorded state; never
  /// shrinks. cluster::Fleet calls it on construction and on a live GPU add
  /// (control phase only: a sharded run's lanes must not move mid-window).
  void grow_gpu_count(int n);
  int gpu_count() const { return static_cast<int>(lanes_.size()); }

  void on_release(const JobEvent& ev);
  void on_reject(const JobEvent& ev);
  void on_finish(const JobEvent& ev);
  void on_stage(const StageEvent& ev);

  /// Counter-only class summary: summary()'s counters without copying the
  /// response samples. Cheap enough for mid-run telemetry probes.
  struct ClassCounts {
    std::uint64_t released = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t missed = 0;
  };
  ClassCounts class_counts(Priority p) const;

  // --- routing decisions (cluster::Router, cluster::Rebalancer) ----------
  //
  // One call per decision: each bumps the per-GPU RoutingCounters and, when
  // the event log is on, appends the matching record, so the counters and
  // the log cannot disagree.

  /// A release of ev.priority routed to ev.gpu (no record: the outcome
  /// call that follows logs it).
  void on_route(const JobEvent& ev);
  /// The job was admitted by the GPU it was routed to (kAdmit).
  void on_admit(Time when, int gpu, int task);
  /// The job was shed after routing to ev.gpu: counts a reject of its class
  /// and an infeasible (cause kInfeasible) or dropped job on ev.gpu, and
  /// logs kReject at ev.release.
  void on_shed(const JobEvent& ev, EventCause cause);
  /// Admitted on `to_gpu` after `from_gpu` rejected it (kMigrate).
  void on_migrate(Time when, int from_gpu, int to_gpu, int task);
  /// A migration shipped `mb` of model weights onto `to_gpu` (kTransfer).
  void on_transfer(Time when, int to_gpu, int task, double mb);
  /// A migration to `to_gpu` attached to an in-flight weight copy instead
  /// of re-shipping `mb` (kCoalesce).
  void on_coalesce(Time when, int to_gpu, int task, double mb);
  /// A queued LP job was claimed off `victim` by `thief` (kSteal).
  void on_steal(Time when, int victim, int thief, int task);

  // --- lifecycle and resilience decisions (cluster::Fleet, Rebalancer,
  // ResiliencePolicy) -------------------------------------------------------
  //
  // Same contract as the routing calls: the cause picks the OutcomeCounters
  // field the call bumps (if any), and the record is appended when the log
  // is on.

  /// A device fault: kFailStop (value = in-flight jobs lost, summed into
  /// jobs_lost), kStraggler (value = compute-scale factor) or kScaleUp.
  void on_fault(Time when, int gpu, EventCause cause, double value);
  /// Rehome of a task's home reservation; kDemandShift (the rebalancer's
  /// periodic moves) counts a rehome, kNone (fault-driven) only logs.
  void on_rehome(Time when, int from_gpu, int to_gpu, int task,
                 EventCause cause);
  void on_drain(Time when, int gpu);
  /// A retry released (kBackoff) or abandoned (kBudgetExhausted, kExpired,
  /// kMaxAttempts); value = attempt number.
  void on_retry(Time when, int gpu, int task, EventCause cause, int attempt);
  /// A hedge launched, won or cancelled (`gpu` = primary, `peer` = hedge
  /// device).
  void on_hedge(Time when, int gpu, int peer, int task, EventCause cause);
  /// A breaker opened, half-opened or closed (value = the window's
  /// miss+shed rate).
  void on_breaker(Time when, int gpu, EventCause cause, double rate);

  /// The control-phase outcome counters; the mutable form is for the
  /// record-less fields (see OutcomeCounters).
  const OutcomeCounters& outcomes() const { return outcomes_; }
  OutcomeCounters& outcomes() { return outcomes_; }

  // --- structured event log (metrics/eventlog.h) -------------------------
  //
  // Typed, timestamped records of the fleet's routing, lifecycle and
  // resilience decisions, each appended by the on_* call above that counts
  // it. Disabled by default; nothing is appended until enable_event_log
  // reserves the storage, so telemetry-off runs do no extra work.
  // EventLog::fold_routing reproduces the RoutingCounters from the records
  // alone (tested).

  /// Creates (or resets) the log with room for `capacity` records.
  void enable_event_log(std::size_t capacity);
  EventLog* event_log() { return event_log_.get(); }
  const EventLog* event_log() const { return event_log_.get(); }

  const RoutingCounters& routing(int gpu) const {
    return lanes_[static_cast<std::size_t>(gpu)].routing;
  }
  /// Sum of the per-GPU routing counters.
  RoutingCounters fleet_routing() const;

  ClassSummary summary(Priority p) const;
  std::vector<StageEvent> stage_trace() const;

  std::uint64_t total_completed() const;

  /// Aggregate throughput in jobs per second over [measure_start, horizon].
  double throughput_jps(Time horizon) const;

 private:
  // Cache-line aligned so neighbouring devices' worker threads never share
  // a line.
  struct alignas(64) Lane {
    ClassSummary cls[2];
    std::vector<StageEvent> stages;
    RoutingCounters routing;
  };

  Lane& lane(int gpu) {
    assert(gpu < gpu_count());
    return lanes_[static_cast<std::size_t>(gpu < 0 ? 0 : gpu)];
  }
  /// Appends a record when the event log is on.
  void log(Time when, EventKind kind, EventCause cause, int gpu, int peer,
           int task, double value = 0.0);

  ClassSummary classes_[2];  // control-phase releases and rejects
  OutcomeCounters outcomes_;
  std::vector<Lane> lanes_;
  bool trace_stages_ = false;
  Time measure_start_ = 0;
  std::unique_ptr<EventLog> event_log_;
};

}  // namespace daris::metrics
