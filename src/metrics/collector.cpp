#include "metrics/collector.h"

#include <algorithm>

#include "metrics/eventlog.h"

namespace daris::metrics {

Collector::Collector() : lanes_(1) {}
Collector::~Collector() = default;

void Collector::enable_event_log(std::size_t capacity) {
  event_log_ = std::make_unique<EventLog>();
  event_log_->reserve(capacity);
}

void Collector::log(Time when, EventKind kind, EventCause cause, int gpu,
                    int peer, int task, double value) {
  if (event_log_) event_log_->append(when, kind, cause, gpu, peer, task, value);
}

void Collector::on_fault(Time when, int gpu, EventCause cause,
                         double value) {
  if (cause == EventCause::kFailStop) {
    outcomes_.jobs_lost += static_cast<std::uint64_t>(value);
  }
  log(when, EventKind::kFault, cause, gpu, -1, -1, value);
}

void Collector::on_rehome(Time when, int from_gpu, int to_gpu, int task,
                          EventCause cause) {
  if (cause == EventCause::kDemandShift) ++outcomes_.rehomes;
  log(when, EventKind::kRehome, cause, from_gpu, to_gpu, task);
}

void Collector::on_drain(Time when, int gpu) {
  log(when, EventKind::kDrain, EventCause::kScaleDown, gpu, -1, -1);
}

void Collector::on_retry(Time when, int gpu, int task, EventCause cause,
                         int attempt) {
  switch (cause) {
    case EventCause::kBackoff:
      ++outcomes_.retries;
      break;
    case EventCause::kBudgetExhausted:
      ++outcomes_.abandoned_budget;
      break;
    case EventCause::kExpired:
      ++outcomes_.abandoned_expired;
      break;
    case EventCause::kMaxAttempts:
      ++outcomes_.abandoned_attempts;
      break;
    default:
      break;
  }
  log(when, EventKind::kRetry, cause, gpu, -1, task,
      static_cast<double>(attempt));
}

void Collector::on_hedge(Time when, int gpu, int peer, int task,
                         EventCause cause) {
  switch (cause) {
    case EventCause::kHedgeLaunch:
      ++outcomes_.hedges;
      break;
    case EventCause::kHedgeWin:
      ++outcomes_.hedge_wins;
      break;
    case EventCause::kHedgeCancel:
      ++outcomes_.hedge_cancels;
      break;
    default:
      break;
  }
  log(when, EventKind::kHedge, cause, gpu, peer, task);
}

void Collector::on_breaker(Time when, int gpu, EventCause cause,
                           double rate) {
  if (cause == EventCause::kBreakerOpen) ++outcomes_.breaker_opens;
  if (cause == EventCause::kBreakerClose) ++outcomes_.breaker_closes;
  log(when, EventKind::kBreaker, cause, gpu, -1, -1, rate);
}

void Collector::on_release(const JobEvent& ev) {
  ++classes_[static_cast<std::size_t>(ev.priority)].released;
}

void Collector::on_reject(const JobEvent& ev) {
  ++classes_[static_cast<std::size_t>(ev.priority)].rejected;
}

void Collector::on_finish(const JobEvent& ev) {
  auto& c = lane(ev.gpu).cls[static_cast<std::size_t>(ev.priority)];
  ++c.accepted;
  if (ev.finish < measure_start_) return;  // warm-up
  ++c.completed;
  if (ev.missed) ++c.missed;
  c.response_ms.add(common::to_ms(ev.finish - ev.release));
}

void Collector::on_stage(const StageEvent& ev) {
  if (trace_stages_) lane(ev.gpu).stages.push_back(ev);
}

void Collector::grow_gpu_count(int n) {
  if (n > gpu_count()) lanes_.resize(static_cast<std::size_t>(n));
}

Collector::ClassCounts Collector::class_counts(Priority p) const {
  const auto i = static_cast<std::size_t>(p);
  ClassCounts c{classes_[i].released, 0, classes_[i].rejected, 0, 0};
  for (const auto& lane : lanes_) {
    c.accepted += lane.cls[i].accepted;
    c.completed += lane.cls[i].completed;
    c.missed += lane.cls[i].missed;
  }
  return c;
}

ClassSummary Collector::summary(Priority p) const {
  const auto i = static_cast<std::size_t>(p);
  ClassSummary s;
  s.released = classes_[i].released;
  s.rejected = classes_[i].rejected;
  for (const auto& lane : lanes_) {
    s.accepted += lane.cls[i].accepted;
    s.completed += lane.cls[i].completed;
    s.missed += lane.cls[i].missed;
    for (const double x : lane.cls[i].response_ms.samples()) {
      s.response_ms.add(x);
    }
  }
  return s;
}

std::vector<StageEvent> Collector::stage_trace() const {
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane.stages.size();
  std::vector<StageEvent> out;
  out.reserve(total);
  for (const auto& lane : lanes_) {
    out.insert(out.end(), lane.stages.begin(), lane.stages.end());
  }
  // Per-lane streams are time-sorted and appended in device order, so a
  // stable sort on time yields the canonical (when, gpu) timeline.
  std::stable_sort(out.begin(), out.end(),
                   [](const StageEvent& a, const StageEvent& b) {
                     return a.when < b.when;
                   });
  return out;
}

void Collector::on_route(const JobEvent& ev) {
  on_release(ev);
  ++lane(ev.gpu).routing.routed;
}

void Collector::on_admit(Time when, int gpu, int task) {
  ++lane(gpu).routing.home_admits;
  log(when, EventKind::kAdmit, EventCause::kHomeAdmit, gpu, -1, task);
}

void Collector::on_shed(const JobEvent& ev, EventCause cause) {
  on_reject(ev);
  auto& r = lane(ev.gpu).routing;
  if (cause == EventCause::kInfeasible) {
    ++r.infeasible;
  } else {
    ++r.dropped;
  }
  log(ev.release, EventKind::kReject, cause, ev.gpu, -1, ev.task_id);
}

void Collector::on_migrate(Time when, int from_gpu, int to_gpu, int task) {
  ++lane(from_gpu).routing.migrated_out;
  ++lane(to_gpu).routing.migrated_in;
  log(when, EventKind::kMigrate, EventCause::kSpill, from_gpu, to_gpu, task);
}

void Collector::on_transfer(Time when, int to_gpu, int task, double mb) {
  auto& r = lane(to_gpu).routing;
  ++r.transfers_in;
  r.transferred_mb += mb;
  log(when, EventKind::kTransfer, EventCause::kColdModel, to_gpu, -1, task,
      mb);
}

void Collector::on_coalesce(Time when, int to_gpu, int task, double mb) {
  auto& r = lane(to_gpu).routing;
  ++r.coalesced;
  r.coalesced_mb += mb;
  log(when, EventKind::kCoalesce, EventCause::kCoalesced, to_gpu, -1, task,
      mb);
}

void Collector::on_steal(Time when, int victim, int thief, int task) {
  ++lane(victim).routing.steals_out;
  ++lane(thief).routing.steals_in;
  log(when, EventKind::kSteal, EventCause::kBacklogSteal, victim, thief,
      task);
}

RoutingCounters Collector::fleet_routing() const {
  RoutingCounters total;
  for (const auto& lane : lanes_) total += lane.routing;
  return total;
}

std::uint64_t Collector::total_completed() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) {
    n += lane.cls[0].completed + lane.cls[1].completed;
  }
  return n;
}

double Collector::throughput_jps(Time horizon) const {
  const Time span = horizon - measure_start_;
  if (span <= 0) return 0.0;
  return static_cast<double>(total_completed()) / common::to_sec(span);
}

}  // namespace daris::metrics
