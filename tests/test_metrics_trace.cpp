#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "metrics/eventlog.h"
#include "metrics/timeseries.h"
#include "metrics/trace_export.h"
#include "metrics/trace_report.h"

namespace daris::metrics {
namespace {

using common::from_ms;
using common::from_us;

TEST(TraceExport, EmptyIsValidJsonArray) {
  EXPECT_EQ(to_chrome_trace_json({}), "[\n]\n");
}

TEST(TraceExport, SpanFieldsSerialised) {
  TraceSpan s;
  s.name = "task1.stage0";
  s.group = 2;
  s.lane = 1;
  s.begin = from_ms(1.0);
  s.duration = from_ms(0.5);
  const std::string json = to_chrome_trace_json({s});
  EXPECT_NE(json.find("\"name\": \"task1.stage0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 500}"), std::string::npos);
  // A stage span carries no args: nothing on the stage path knows the job's
  // priority or outcome.
  EXPECT_EQ(json.find("\"args\""), std::string::npos);
}

TEST(TraceExport, EscapesQuotesInNames) {
  TraceSpan s;
  s.name = "we\"ird\\name";
  const std::string json = to_chrome_trace_json({s});
  EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(TraceExport, EscapesControlCharacters) {
  TraceSpan s;
  s.name = std::string("line\nbreak\ttab\x01raw", 18);
  const std::string json = to_chrome_trace_json({s});
  EXPECT_NE(json.find("line\\u000abreak\\u0009tab\\u0001raw"),
            std::string::npos);
  EXPECT_EQ(json.find("line\nbreak"), std::string::npos)
      << "no raw control characters may survive inside the name string";
}

TEST(TraceExport, NullSectionsMatchSpanOnlyOverload) {
  TraceSpan s;
  s.name = "task0.stage0";
  s.begin = from_ms(1.0);
  s.duration = from_ms(2.0);
  const std::vector<TraceSpan> spans = {s};
  EXPECT_EQ(to_chrome_trace_json(spans),
            to_chrome_trace_json(spans, nullptr, nullptr));
}

TEST(TraceExport, UnifiedGoldenOutput) {
  TraceSpan s;
  s.name = "a";
  TimeSeries series;
  series.add_track("gpu/util", 0, [] { return 1.5; });
  series.sample_now(common::from_us(5.0));
  EventLog log;
  log.append(common::from_us(7.0), EventKind::kFault, EventCause::kFailStop,
             /*gpu=*/1, /*peer=*/-1, /*task=*/-1, /*value=*/2.0);
  const std::string json = to_chrome_trace_json({s}, &series, &log);
  EXPECT_EQ(json,
            "[\n"
            "  {\"name\": \"a\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0,"
            " \"ts\": 0, \"dur\": 0},\n"
            "  {\"name\": \"gpu/util\", \"ph\": \"C\", \"pid\": 0,"
            " \"ts\": 5, \"args\": {\"value\": 1.5}},\n"
            "  {\"name\": \"fault:fail-stop\", \"ph\": \"i\", \"s\": \"p\","
            " \"pid\": 1, \"tid\": -1, \"ts\": 7,"
            " \"args\": {\"peer\": -1, \"value\": 2}}\n"
            "]\n");
}

TEST(TraceExport, RoutingInstantsMarkOwnLaneOnly) {
  // Device-lifecycle instants (fault/drain/rehome) draw process-wide marker
  // lines (scope "p"); routing records stay on their own thread row ("t").
  EventLog log;
  log.append(0, EventKind::kAdmit, EventCause::kHomeAdmit, 0, -1, 3);
  log.append(0, EventKind::kDrain, EventCause::kScaleDown, 1);
  const std::string json = to_chrome_trace_json({}, nullptr, &log);
  EXPECT_NE(json.find("\"name\": \"admit:home-admit\", \"ph\": \"i\","
                      " \"s\": \"t\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"drain:scale-down\", \"ph\": \"i\","
                      " \"s\": \"p\""),
            std::string::npos);
}

TEST(TraceExport, OrderingIsStable) {
  // Spans first, then counter samples grouped by track in registration
  // order, then instants in append order — and the whole export is a pure
  // function of its inputs (two calls are byte-identical).
  TraceSpan s;
  s.name = "span";
  TimeSeries series;
  series.add_track("first", 0, [] { return 1.0; });
  series.add_track("second", 1, [] { return 2.0; });
  series.sample_now(0);
  series.sample_now(common::from_us(10.0));
  EventLog log;
  log.append(common::from_us(3.0), EventKind::kReject, EventCause::kBacklog,
             0, -1, 7);
  const std::string json = to_chrome_trace_json({s}, &series, &log);
  EXPECT_EQ(json, to_chrome_trace_json({s}, &series, &log));
  const std::size_t span_pos = json.find("\"span\"");
  const std::size_t first_pos = json.find("\"first\"");
  const std::size_t second_pos = json.find("\"second\"");
  const std::size_t instant_pos = json.find("\"reject:backlog\"");
  ASSERT_NE(span_pos, std::string::npos);
  ASSERT_NE(first_pos, std::string::npos);
  ASSERT_NE(second_pos, std::string::npos);
  ASSERT_NE(instant_pos, std::string::npos);
  EXPECT_LT(span_pos, first_pos);
  EXPECT_LT(json.rfind("\"first\""), second_pos)
      << "all of track 0's samples precede track 1's";
  EXPECT_LT(second_pos, instant_pos);
}

// Minimal recursive-descent JSON syntax checker: enough grammar to certify
// the export parses (objects, arrays, strings with escapes, numbers,
// true/false/null). Returns false on any syntax error or trailing garbage.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '"') return ++pos_, true;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(TraceExport, UnifiedExportParsesAsJson) {
  TraceSpan hostile;
  hostile.name = "we\"ird\\na\nme\x02";
  hostile.group = -1;
  hostile.lane = 3;
  hostile.begin = from_ms(0.25);
  hostile.duration = from_ms(1.75);
  TimeSeries series;
  series.add_track("gpu/util", 0, [] { return 0.125; });
  series.add_track("fleet/backlog", -1, [] { return 42.0; });
  for (int i = 0; i < 5; ++i) {
    series.sample_now(common::from_us(100.0 * i));
  }
  EventLog log;
  log.append(common::from_us(50.0), EventKind::kMigrate, EventCause::kSpill,
             0, 1, 9);
  log.append(common::from_us(60.0), EventKind::kTransfer,
             EventCause::kColdModel, 1, -1, 9, 44.5);
  log.append(common::from_us(70.0), EventKind::kFault, EventCause::kStraggler,
             2, -1, -1, 0.5);
  const std::string json = to_chrome_trace_json({hostile}, &series, &log);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // And the sanity check that the checker rejects broken input.
  EXPECT_FALSE(JsonChecker("[{\"a\": }]").valid());
  EXPECT_FALSE(JsonChecker("[1, 2").valid());
  EXPECT_FALSE(JsonChecker(std::string("[\"a\nb\"]")).valid());
}

TEST(TraceRecorder, BuildsStageSpansBackdatedByExecution) {
  StageEvent s;
  s.task_id = 2;
  s.stage = 1;
  s.when = from_ms(5.0);
  s.execution_us = 1000.0;
  TraceRecorder rec;
  rec.add_stage_events({s});
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec.spans()[0].name, "task2.stage1");
  EXPECT_EQ(rec.spans()[0].begin, from_ms(4.0));
  EXPECT_EQ(rec.spans()[0].duration, from_ms(1.0));
}

TEST(TraceRecorder, MultipleSpansCommaSeparated) {
  TraceRecorder rec;
  rec.add(TraceSpan{});
  rec.add(TraceSpan{});
  const std::string json = to_chrome_trace_json(rec.spans());
  // Two objects, one comma between them.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"ph\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 2u);
}

StageEvent stage_ev(int task, std::size_t stage, double exec_us,
                    double mret_us, int context, int gpu) {
  StageEvent s;
  s.task_id = task;
  s.stage = stage;
  s.execution_us = exec_us;
  s.mret_us = mret_us;
  s.context = context;
  s.gpu = gpu;
  return s;
}

TEST(TraceReport, EmptyStream) {
  const TraceReport r = trace_report({});
  EXPECT_EQ(r.stages, 0u);
  EXPECT_EQ(r.tasks, 0u);
  EXPECT_EQ(r.gpu_migrations, 0u);
  EXPECT_EQ(r.worst_stall_task, -1);
  EXPECT_FALSE(r.to_string().empty());
}

TEST(TraceReport, CountsMigrationsFromConsecutiveStages) {
  // Task 0 moves context (same GPU) then moves GPU; task 1 never moves.
  const std::vector<StageEvent> stream = {
      stage_ev(0, 0, 100, 100, /*context=*/0, /*gpu=*/0),
      stage_ev(1, 0, 100, 100, 2, 0),
      stage_ev(0, 1, 100, 100, 1, 0),  // context switch
      stage_ev(0, 2, 100, 100, 1, 1),  // GPU migration
      stage_ev(1, 1, 100, 100, 2, 0),
  };
  const TraceReport r = trace_report(stream);
  EXPECT_EQ(r.stages, 5u);
  EXPECT_EQ(r.tasks, 2u);
  EXPECT_EQ(r.context_switches, 1u);
  EXPECT_EQ(r.gpu_migrations, 1u);
}

TEST(TraceReport, StarvationAndWorstStall) {
  const std::vector<StageEvent> stream = {
      stage_ev(0, 0, 150, 100, 0, 0),   // stalled 50us but not starved
      stage_ev(3, 1, 900, 300, 0, 0),   // starved (3x) and worst stall
      stage_ev(3, 2, 400, 250, 0, 0),   // below the 2x default factor
  };
  const TraceReport r = trace_report(stream);
  EXPECT_EQ(r.starved_stages, 1u);
  EXPECT_DOUBLE_EQ(r.worst_stall_us, 600.0);
  EXPECT_EQ(r.worst_stall_task, 3);
  EXPECT_EQ(r.worst_stall_stage, 1u);
  ASSERT_EQ(r.worst_stall_per_task_us.size(), 4u);
  EXPECT_DOUBLE_EQ(r.worst_stall_per_task_us[0], 50.0);
  EXPECT_DOUBLE_EQ(r.worst_stall_per_task_us[3], 600.0);
  EXPECT_NE(r.to_string().find("worst stall"), std::string::npos);
}

TEST(TraceReport, StarvationFactorConfigurable) {
  const std::vector<StageEvent> stream = {
      stage_ev(0, 0, 150, 100, 0, 0),
  };
  EXPECT_EQ(trace_report(stream, 1.4).starved_stages, 1u);
  EXPECT_EQ(trace_report(stream, 2.0).starved_stages, 0u);
}

/// Routes four jobs through every routing call: three to GPU 0 (admitted,
/// migrated to GPU 1 with a weight transfer, shed as infeasible) and one to
/// GPU 1 (shed after a peer rejection).
void route_four_jobs(Collector& c) {
  c.grow_gpu_count(2);
  JobEvent ev;
  ev.priority = common::Priority::kLow;
  ev.gpu = 0;
  for (int task = 0; task < 3; ++task) {
    ev.task_id = task;
    c.on_route(ev);
  }
  c.on_admit(from_us(1.0), /*gpu=*/0, /*task=*/0);
  c.on_transfer(from_us(2.0), /*to_gpu=*/1, /*task=*/1, /*mb=*/44.5);
  c.on_migrate(from_us(3.0), /*from_gpu=*/0, /*to_gpu=*/1, /*task=*/1);
  ev.task_id = 2;
  c.on_shed(ev, EventCause::kInfeasible);
  ev.task_id = 3;
  ev.gpu = 1;
  c.on_route(ev);
  c.on_shed(ev, EventCause::kPeerReject);
  c.on_transfer(from_us(4.0), /*to_gpu=*/1, /*task=*/3, /*mb=*/0.5);
}

TEST(CollectorRouting, PerGpuAndFleetCounters) {
  Collector c;
  route_four_jobs(c);
  EXPECT_EQ(c.routing(0).routed, 3u);
  EXPECT_EQ(c.routing(0).home_admits, 1u);
  EXPECT_EQ(c.routing(0).migrated_out, 1u);
  EXPECT_EQ(c.routing(0).infeasible, 1u);
  EXPECT_EQ(c.routing(1).migrated_in, 1u);
  EXPECT_EQ(c.routing(1).dropped, 1u);
  EXPECT_EQ(c.routing(1).transfers_in, 2u);
  EXPECT_DOUBLE_EQ(c.routing(1).transferred_mb, 45.0);
  const RoutingCounters fleet = c.fleet_routing();
  EXPECT_EQ(fleet.routed, 4u);
  EXPECT_EQ(fleet.migrated_in, 1u);
  EXPECT_EQ(fleet.migrated_out, 1u);
  EXPECT_EQ(fleet.dropped, 1u);
  EXPECT_EQ(fleet.infeasible, 1u);
  EXPECT_EQ(fleet.sheds(), 2u);
  EXPECT_EQ(fleet.transfers_in, 2u);
  EXPECT_DOUBLE_EQ(fleet.transferred_mb, 45.0);
  // Routing and shedding also count the class's releases and rejects.
  EXPECT_EQ(c.summary(common::Priority::kLow).released, 4u);
  EXPECT_EQ(c.summary(common::Priority::kLow).rejected, 2u);
}

TEST(CollectorRouting, EachDecisionIsOneRecordWhenTheLogIsOn) {
  Collector c;
  c.enable_event_log(16);
  route_four_jobs(c);
  // on_route only counts; the six outcome calls append one record each.
  ASSERT_EQ(c.event_log()->size(), 6u);
  const auto fold = c.event_log()->fold_routing(c.gpu_count());
  ASSERT_EQ(fold.size(), 2u);
  for (std::size_t g = 0; g < fold.size(); ++g) {
    const RoutingCounters& live = c.routing(static_cast<int>(g));
    EXPECT_EQ(fold[g].routed, live.routed) << g;
    EXPECT_EQ(fold[g].home_admits, live.home_admits) << g;
    EXPECT_EQ(fold[g].migrated_in, live.migrated_in) << g;
    EXPECT_EQ(fold[g].migrated_out, live.migrated_out) << g;
    EXPECT_EQ(fold[g].dropped, live.dropped) << g;
    EXPECT_EQ(fold[g].infeasible, live.infeasible) << g;
    EXPECT_EQ(fold[g].transfers_in, live.transfers_in) << g;
    EXPECT_EQ(fold[g].transferred_mb, live.transferred_mb) << g;
  }
  // A shed is logged at the job's release time.
  EXPECT_EQ(c.event_log()->events()[3].kind, EventKind::kReject);
  EXPECT_EQ(c.event_log()->events()[3].cause, EventCause::kInfeasible);
}

/// One call per cause of every lifecycle and resilience decision, in a fixed
/// order: 4 retry, 3 hedge, 3 breaker, 2 rehome and 3 fault records.
void decide_fifteen_outcomes(Collector& c) {
  c.on_retry(from_us(1.0), -1, 3, EventCause::kBackoff, 2);
  c.on_retry(from_us(2.0), -1, 3, EventCause::kBudgetExhausted, 2);
  c.on_retry(from_us(3.0), -1, 3, EventCause::kExpired, 3);
  c.on_retry(from_us(4.0), -1, 3, EventCause::kMaxAttempts, 3);
  c.on_hedge(from_us(5.0), 0, 1, 3, EventCause::kHedgeLaunch);
  c.on_hedge(from_us(6.0), 0, 1, 3, EventCause::kHedgeWin);
  c.on_hedge(from_us(6.0), 0, 1, 3, EventCause::kHedgeCancel);
  c.on_breaker(from_us(7.0), 1, EventCause::kBreakerOpen, 0.75);
  c.on_breaker(from_us(8.0), 1, EventCause::kBreakerHalfOpen, 0.0);
  c.on_breaker(from_us(9.0), 1, EventCause::kBreakerClose, 0.1);
  c.on_rehome(from_us(10.0), 0, 1, 3, EventCause::kDemandShift);
  c.on_rehome(from_us(11.0), 1, 0, 4, EventCause::kNone);  // fault-driven
  c.on_fault(from_us(12.0), 1, EventCause::kFailStop, 5.0);
  c.on_fault(from_us(13.0), 0, EventCause::kStraggler, 0.5);
  c.on_fault(from_us(14.0), 0, EventCause::kFailStop, 2.0);
}

void expect_fifteen_outcomes_counted(const OutcomeCounters& o) {
  EXPECT_EQ(o.retries, 1u);
  EXPECT_EQ(o.abandoned_budget, 1u);
  EXPECT_EQ(o.abandoned_expired, 1u);
  EXPECT_EQ(o.abandoned_attempts, 1u);
  EXPECT_EQ(o.hedges, 1u);
  EXPECT_EQ(o.hedge_wins, 1u);
  EXPECT_EQ(o.hedge_cancels, 1u);
  EXPECT_EQ(o.breaker_opens, 1u);
  EXPECT_EQ(o.breaker_closes, 1u);
  EXPECT_EQ(o.rehomes, 1u);  // demand-shift only
  EXPECT_EQ(o.jobs_lost, 7u);  // fail-stop values summed
  // Outcomes without a record are never bumped by a decision call.
  EXPECT_EQ(o.first_attempts, 0u);
  EXPECT_EQ(o.retry_admits, 0u);
  EXPECT_EQ(o.hedge_waste, 0u);
  EXPECT_EQ(o.steal_scans, 0u);
  EXPECT_EQ(o.rehome_rounds, 0u);
  EXPECT_EQ(o.transfer_cancels, 0u);
}

TEST(CollectorOutcomes, EachDecisionCountsWithTheLogOff) {
  Collector c;
  c.grow_gpu_count(2);
  decide_fifteen_outcomes(c);
  EXPECT_EQ(c.event_log(), nullptr);
  expect_fifteen_outcomes_counted(c.outcomes());
}

TEST(CollectorOutcomes, EachDecisionIsOneRecordWhenTheLogIsOn) {
  Collector c;
  c.grow_gpu_count(2);
  c.enable_event_log(32);
  decide_fifteen_outcomes(c);
  expect_fifteen_outcomes_counted(c.outcomes());
  const auto& ev = c.event_log()->events();
  ASSERT_EQ(ev.size(), 15u);
  const EventKind kinds[15] = {
      EventKind::kRetry,   EventKind::kRetry,   EventKind::kRetry,
      EventKind::kRetry,   EventKind::kHedge,   EventKind::kHedge,
      EventKind::kHedge,   EventKind::kBreaker, EventKind::kBreaker,
      EventKind::kBreaker, EventKind::kRehome,  EventKind::kRehome,
      EventKind::kFault,   EventKind::kFault,   EventKind::kFault};
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].kind, kinds[i]) << i;
  }
  // Payloads: attempt number, hedge peer, breaker rate, rehome target,
  // jobs lost.
  EXPECT_EQ(ev[0].value, 2.0);
  EXPECT_EQ(ev[4].peer, 1);
  EXPECT_EQ(ev[7].value, 0.75);
  EXPECT_EQ(ev[10].peer, 1);
  EXPECT_EQ(ev[12].value, 5.0);
}

}  // namespace
}  // namespace daris::metrics
