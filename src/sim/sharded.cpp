#include "sim/sharded.h"

#include <algorithm>
#include <cassert>

namespace daris::sim {

namespace {

// One busy-wait step. Windows are typically a handful of microseconds of
// simulation work, so a short spin beats a futex round trip; the pause/yield
// keeps the spinning hardware thread polite.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

// Spin budget before falling back to the condition variable (or, mid-run, to
// yielding). Generous enough that back-to-back windows never sleep, small
// enough that an idle pool (e.g. during a long serial control cascade) parks
// or yields within ~100us.
constexpr int kSpinIterations = 20000;

}  // namespace

ShardedSimulator::ShardedSimulator(int device_shards, int threads) {
  if (device_shards < 0) device_shards = 0;
  shards_.reserve(static_cast<std::size_t>(device_shards) + 4);
  for (int i = 0; i < device_shards; ++i) {
    shards_.push_back(std::make_unique<Simulator>());
  }
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const int hw = static_cast<int>(hw_raw == 0 ? 1 : hw_raw);
  if (threads <= 0) threads = hw;
  threads_ = std::max(1, std::min(threads, std::max(device_shards, 1)));
  // More lanes than cores (explicitly requested — the differential tests do
  // this to force real cross-thread execution on small CI boxes): spinning
  // would burn whole scheduler quanta per window, so the pool drops straight
  // to the futex path and never goes hot.
  oversubscribed_ = threads_ > hw;
  cursors_ = std::make_unique<Cursor[]>(static_cast<std::size_t>(threads_));
  // Lanes 0..threads_-2 are pool workers; lane threads_-1 is the caller.
  for (int lane = 0; lane + 1 < threads_; ++lane) {
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

ShardedSimulator::~ShardedSimulator() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_.store(true, std::memory_order_seq_cst);
    cv_work_.notify_all();
  }
  for (auto& w : workers_) w.join();
}

int ShardedSimulator::add_shard() {
  shards_.push_back(std::make_unique<Simulator>());
  shards_.back()->advance_to(control_.now());
  return static_cast<int>(shards_.size()) - 1;
}

std::ptrdiff_t ShardedSimulator::claim(int lane, std::uint32_t tag) {
  std::atomic<std::uint64_t>& word =
      cursors_[static_cast<std::size_t>(lane)].word;
  std::uint64_t cur = word.load(std::memory_order_acquire);
  for (;;) {
    const std::uint64_t next = (cur >> 16) & 0xFFFF;
    if ((cur >> 32) != tag || next >= (cur & 0xFFFF)) return -1;
    if (word.compare_exchange_weak(cur, cur + (1ull << 16),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      return lane + static_cast<std::ptrdiff_t>(next) * threads_;
    }
  }
}

void ShardedSimulator::join_window(int lane, std::uint32_t tag) {
  std::size_t shards = 0;
  std::size_t executed = 0;
  for (int i = 0; i < threads_; ++i) {
    const int owner = (lane + i) % threads_;
    for (std::ptrdiff_t s = claim(owner, tag); s >= 0; s = claim(owner, tag)) {
      executed += shards_[static_cast<std::size_t>(s)]->run_until(bound_);
      ++shards;
    }
  }
  if (shards == 0) return;
  if (executed != 0) drained_.fetch_add(executed, std::memory_order_relaxed);
  if (shards_left_.fetch_sub(shards, std::memory_order_seq_cst) == shards) {
    // Last shard reported: notify only if the caller gave up spinning —
    // caller_waiting_ vs shards_left_ is the same Dekker pairing as epoch_
    // vs sleepers_, so a caller about to wait cannot be missed.
    if (caller_waiting_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lk(mu_);
      cv_done_.notify_one();
    }
  }
}

std::size_t ShardedSimulator::drain_shards(common::Time bound) {
  const std::size_t n = shards_.size();
  if (n == 0) return 0;
  // Window fast path: shard heaps are quiescent here (the previous parallel
  // phase completed through the shards_left_ barrier), so their heads can be
  // read directly. Windows whose shards hold nothing at or before `bound`
  // — back-to-back control timers, mostly — skip the dispatch entirely.
  bool any_work = false;
  for (const auto& s : shards_) {
    if (s->next_event_time() <= bound) {
      any_work = true;
      break;
    }
  }
  if (!any_work) return 0;
  if (threads_ <= 1 || workers_.empty()) {
    std::size_t executed = 0;
    for (auto& s : shards_) executed += s->run_until(bound);
    return executed;
  }
  const auto lanes = static_cast<std::size_t>(threads_);
  assert(n / lanes < 0xFFFF);
  const std::uint64_t e = epoch_.load(std::memory_order_relaxed) + 1;
  const auto tag = static_cast<std::uint32_t>(e);
  bound_ = bound;
  drained_.store(0, std::memory_order_relaxed);
  shards_left_.store(n, std::memory_order_relaxed);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::uint64_t end = lane < n ? (n - lane + lanes - 1) / lanes : 0;
    cursors_[lane].word.store(std::uint64_t{tag} << 32 | end,
                              std::memory_order_release);
  }
  epoch_.store(e, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    // A worker past its sleepers_ increment is inside the mutex until it
    // enters cv_work_.wait(), so locking here cannot race ahead of it.
    std::lock_guard<std::mutex> lk(mu_);
    cv_work_.notify_all();
  }
  join_window(threads_ - 1, tag);
  for (int spin = oversubscribed_ ? kSpinIterations : 0;
       shards_left_.load(std::memory_order_acquire) > 0; ++spin) {
    if (spin < kSpinIterations) {
      cpu_relax();
      continue;
    }
    caller_waiting_.store(true, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_done_.wait(lk, [&] {
        return shards_left_.load(std::memory_order_seq_cst) == 0;
      });
    }
    caller_waiting_.store(false, std::memory_order_relaxed);
  }
  return drained_.load(std::memory_order_relaxed);
}

void ShardedSimulator::worker_loop(int lane) {
  std::uint64_t seen = 0;
  for (;;) {
    int spin = oversubscribed_ ? kSpinIterations : 0;
    std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
    while (e == seen && !stop_.load(std::memory_order_acquire)) {
      if (!oversubscribed_ && hot_.load(std::memory_order_relaxed)) {
        // Mid-run: the next window is microseconds away, so never park.
        // Past the spin budget, yield: on a busy host the core goes to a
        // runnable thread (the caller's serial control phase, say) instead
        // of to this wait.
        if (++spin > kSpinIterations) {
          std::this_thread::yield();
        } else {
          cpu_relax();
        }
      } else if (++spin > kSpinIterations) {
        std::unique_lock<std::mutex> lk(mu_);
        sleepers_.fetch_add(1, std::memory_order_seq_cst);
        cv_work_.wait(lk, [&] {
          return epoch_.load(std::memory_order_seq_cst) != seen ||
                 stop_.load(std::memory_order_acquire);
        });
        sleepers_.fetch_sub(1, std::memory_order_seq_cst);
        spin = 0;
      } else {
        cpu_relax();
      }
      e = epoch_.load(std::memory_order_seq_cst);
    }
    if (e == seen) return;  // stop_ with no new work
    seen = e;
    join_window(lane, static_cast<std::uint32_t>(e));
  }
}

std::size_t ShardedSimulator::run_until(common::Time deadline) {
  if (shards_.empty()) return control_.run_until(deadline);
  // Keep the pool hot for the whole run: between windows workers spin on
  // epoch_ instead of parking, so per-window dispatch is a fetch_add plus a
  // few cache-line transfers. They fall back to the futex path once the run
  // returns and hot_ drops.
  if (!workers_.empty() && !oversubscribed_) {
    hot_.store(true, std::memory_order_relaxed);
  }
  std::size_t executed = 0;
  for (;;) {
    const common::Time tc = control_.next_event_time();
    if (tc > deadline) {
      // No control work left in the window: drain every shard through the
      // deadline and advance all clocks to it.
      executed += drain_shards(deadline);
      executed += control_.run_until(deadline);
      for (auto& s : shards_) s->advance_to(deadline);
      hot_.store(false, std::memory_order_relaxed);
      return executed;
    }
    // Parallel phase: device-local events strictly before Tc.
    executed += drain_shards(tc - 1);
    // Control phase: clocks first (control callbacks read device now()),
    // then the serial (when, seq)-ordered batch at Tc, cascades included.
    for (auto& s : shards_) s->advance_to(tc);
    executed += control_.run_until(tc);
  }
}

std::size_t ShardedSimulator::pending() const {
  std::size_t n = control_.pending();
  for (const auto& s : shards_) n += s->pending();
  return n;
}

bool ShardedSimulator::empty() const {
  if (!control_.empty()) return false;
  for (const auto& s : shards_) {
    if (!s->empty()) return false;
  }
  return true;
}

void ShardedSimulator::reserve(std::size_t control_events,
                               std::size_t per_shard_events) {
  control_.reserve(control_events);
  for (auto& s : shards_) s->reserve(per_shard_events);
}

Simulator::Stats ShardedSimulator::stats() const {
  Simulator::Stats total = control_.stats();
  for (const auto& s : shards_) {
    const Simulator::Stats st = s->stats();
    total.events_executed += st.events_executed;
    total.callbacks_inline += st.callbacks_inline;
    total.callbacks_heap += st.callbacks_heap;
    total.heap_high_water += st.heap_high_water;
    total.pool_slots += st.pool_slots;
  }
  return total;
}

}  // namespace daris::sim
