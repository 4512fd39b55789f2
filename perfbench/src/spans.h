// Host-time spans recorded by the benchmark around its calls into the
// program's layers. A span has a name, a start, an end and the span that was
// open when it began (its parent), so the folding script can compute each
// layer's self time. Spans live in memory and are written out once, at the
// end of the repetition.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    int parent = -1;  // index into spans(), -1 for a root
    std::string name;
    double begin_s = 0.0;  // seconds since the log was created
    double end_s = -1.0;   // < begin_s while still open
    double duration_s() const { return end_s - begin_s; }
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanLog* log, int id) : log_(log), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { log_->close(id_); }

   private:
    SpanLog* log_;
    int id_;
  };

  /// Opens a span as a child of the innermost open span.
  Scope open(std::string name) {
    Span s;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.name = std::move(name);
    s.begin_s = now_s();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return Scope(this, id);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of every closed span called `name`.
  double total_s(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name && s.end_s >= s.begin_s) sum += s.duration_s();
    }
    return sum;
  }

  /// JSON array of [parent, name, begin_s, end_s] rows; a row's index is its
  /// span id.
  void append_json(std::string* out) const {
    *out += '[';
    char buf[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf, "%s[%d,\"", i ? "," : "", s.parent);
      *out += buf;
      *out += s.name;  // names are benchmark-chosen identifiers
      std::snprintf(buf, sizeof buf, "\",%.9f,%.9f]", s.begin_s, s.end_s);
      *out += buf;
    }
    *out += ']';
  }

 private:
  double now_s() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = now_s();
    // Scopes nest lexically, so the closing span is the innermost one.
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
