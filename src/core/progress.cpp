#include "core/progress.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "obs/registry.hpp"
#include "sim/engine.hpp"
#include "util/log.hpp"
#include "util/panic.hpp"

namespace nmad::core {

namespace {

/// Monotonic engine identity — never reused, so a thread-local cache entry
/// for a destroyed engine can never alias a live one (even if the new
/// engine reuses the old one's heap address).
std::atomic<std::uint64_t> g_engine_ids{1};

/// Process-wide submitting-thread identity (std::thread::id is not usable
/// as a cheap map key across implementations).
std::atomic<std::uint64_t> g_thread_ids{1};

std::uint64_t this_thread_id() {
  thread_local std::uint64_t id = 0;
  if (id == 0) id = g_thread_ids.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Thread-local memo of this thread's lane slot per engine: the fast path
/// of submit()/pop_completion() resolves the lane without touching the
/// engine's registration mutex. Misses (cold thread, evicted entry) fall
/// back to the authoritative map, which always returns the SAME slot for
/// the same thread — an eviction can never split one thread's stream
/// across two lanes.
struct LaneCacheEntry {
  std::uint64_t engine_id = 0;  ///< 0 = empty
  std::uint32_t slot = 0;
};
constexpr std::size_t kLaneCacheSize = 8;
thread_local std::array<LaneCacheEntry, kLaneCacheSize> tls_lane_cache{};
thread_local std::uint32_t tls_lane_cache_clock = 0;

/// Max engine events fired per lock acquisition — bounds how long one
/// thread holds the world mutex before others get a turn.
constexpr std::size_t kEngineBatch = 64;
/// Max submissions popped per lane per drain round — bounds the world
/// mutex hold time while keeping the round-robin fair across lanes.
constexpr std::size_t kDrainChunk = 256;
/// Backoff rounds a progress thread spends waiting on a full completion
/// ring before spilling to the lane's overflow list. Bounded because the
/// producer holds the world mutex: an application thread that stopped
/// draining its ring must cost the engine bounded time.
constexpr std::size_t kCompletionSpinRounds = 64;

}  // namespace

ProgressMode progress_mode_from_env() {
  const char* v = std::getenv("NMAD_PROGRESS_MODE");
  if (v == nullptr) return ProgressMode::kDefault;
  if (std::strcmp(v, "threaded") == 0) return ProgressMode::kThreaded;
  if (std::strcmp(v, "serial") == 0) return ProgressMode::kSerial;
  NMAD_LOG_WARN("core", "NMAD_PROGRESS_MODE=%s not recognized, using serial", v);
  return ProgressMode::kDefault;
}

ProgressMode resolve_progress_mode(ProgressMode requested) {
  if (requested != ProgressMode::kDefault) return requested;
  const ProgressMode env = progress_mode_from_env();
  return env == ProgressMode::kDefault ? ProgressMode::kSerial : env;
}

const char* to_string(ProgressMode mode) {
  switch (mode) {
    case ProgressMode::kDefault:
      return "default";
    case ProgressMode::kSerial:
      return "serial";
    case ProgressMode::kThreaded:
      return "threaded";
  }
  NMAD_PANIC("bad ProgressMode");
}

ProgressEngine::ProgressEngine(Scheduler& scheduler, Config config, Hooks hooks)
    : scheduler_(scheduler),
      cfg_(config),
      hooks_(std::move(hooks)),
      engine_id_(g_engine_ids.fetch_add(1, std::memory_order_relaxed)) {
  NMAD_ASSERT(hooks_.lock != nullptr, "ProgressEngine needs a progress mutex");
  NMAD_ASSERT(cfg_.threads >= 1, "ProgressEngine needs at least one thread");
  // Fired on a progress thread under the world lock; that lock serializes
  // the progress threads into one logical producer per completion ring.
  scheduler_.set_completion_hook(
      [this](const CompletionEvent& ev) { deliver_completion(ev); });
  threads_.reserve(cfg_.threads);
  for (std::size_t i = 0; i < cfg_.threads; ++i) {
    threads_.emplace_back([this, i] { thread_main(i); });
  }
}

ProgressEngine::~ProgressEngine() {
  stop();
  scheduler_.set_completion_hook(nullptr);
}

void ProgressEngine::stop() {
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

std::uint32_t ProgressEngine::caller_slot() {
  for (const LaneCacheEntry& e : tls_lane_cache) {
    if (e.engine_id == engine_id_) return e.slot;
  }
  const std::uint64_t tid = this_thread_id();
  std::uint32_t slot;
  {
    std::lock_guard<std::mutex> lock(lanes_mu_);
    auto it = slot_by_thread_.find(tid);
    if (it != slot_by_thread_.end()) {
      slot = it->second;
    } else {
      slot = lane_count_.load(std::memory_order_relaxed);
      NMAD_ASSERT(slot < kMaxSubmitLanes,
                  "too many submitting threads for one progress engine "
                  "(kMaxSubmitLanes)");
      lanes_[slot] = std::make_unique<ThreadLane>(cfg_.submission_capacity,
                                                  cfg_.completion_capacity);
      slot_by_thread_.emplace(tid, slot);
      // Release-publish the lane AFTER its construction so progress
      // threads that acquire lane_count_ see a fully built ThreadLane.
      lane_count_.store(slot + 1, std::memory_order_release);
    }
  }
  // Memoize: prefer an empty cache entry, else evict round-robin.
  for (LaneCacheEntry& e : tls_lane_cache) {
    if (e.engine_id == 0) {
      e = LaneCacheEntry{engine_id_, slot};
      return slot;
    }
  }
  tls_lane_cache[tls_lane_cache_clock++ % kLaneCacheSize] =
      LaneCacheEntry{engine_id_, slot};
  return slot;
}

void ProgressEngine::push_submission(ThreadLane& lane, SubmitOp op) {
  // Backpressure: the ring is bounded, so a submission burst faster than
  // the progression can drain simply slows the application thread down to
  // the drain rate. Lossless — spins forever rather than dropping.
  const bool pushed = spsc_push_backoff(
      lane.submission, std::move(op), ~std::uint64_t{0}, [this] {
        submission_stalls_.fetch_add(1, std::memory_order_relaxed);
      });
  NMAD_ASSERT(pushed, "unbounded submission push returned");
}

void ProgressEngine::submit(SendHandle h) {
  const std::uint32_t slot = caller_slot();
  h->note_submit_lane(slot);
  SubmitOp op;
  op.send = std::move(h);
  push_submission(*lanes_[slot], std::move(op));
}

void ProgressEngine::submit(RecvHandle h) {
  const std::uint32_t slot = caller_slot();
  h->note_submit_lane(slot);
  SubmitOp op;
  op.recv = std::move(h);
  push_submission(*lanes_[slot], std::move(op));
}

bool ProgressEngine::drain_submissions() {
  bool any = false;
  const std::uint32_t n = lane_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    ThreadLane& lane = *lanes_[i];
    SubmitOp op;
    for (std::size_t k = 0; k < kDrainChunk; ++k) {
      // An empty ring has nothing to pop: leave the lane without touching
      // the in-flight count. Raising it on every idle drain would keep
      // resetting the wait() watchdog's quiet window, and on an
      // oversubscribed host a genuine deadlock would never panic.
      if (lane.submission.empty()) break;
      // Account the op as in flight BEFORE popping: between the pop (ring
      // now empty) and submit (engine now busy) the wait() watchdog would
      // otherwise sample the world as quiet — and a drain thread starved
      // right here for kWaitStallTimeout would turn that into a spurious
      // deadlock panic. The increment is sequenced before the pop's head
      // release-store, so a waiter that observes the empty ring also
      // observes the in-flight count.
      inflight_submissions_.fetch_add(1, std::memory_order_relaxed);
      if (!lane.submission.try_pop(op)) {
        inflight_submissions_.fetch_sub(1, std::memory_order_release);
        break;
      }
      if (op.send != nullptr) {
        scheduler_.submit_send(std::move(op.send));
      } else if (op.recv != nullptr) {
        scheduler_.submit_recv(std::move(op.recv));
      }
      inflight_submissions_.fetch_sub(1, std::memory_order_release);
      any = true;
    }
  }
  return any;
}

void ProgressEngine::flush_submissions() {
  std::lock_guard<std::mutex> lock(*hooks_.lock);
  // Loop until one full round-robin pass over all lanes moves nothing:
  // everything pushed before the call is then in the scheduler. Requests
  // racing in concurrently may land in a later pass or stay queued.
  while (drain_submissions()) {
  }
}

void ProgressEngine::deliver_completion(const CompletionEvent& ev) {
  completions_enqueued_.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t lanes = lane_count_.load(std::memory_order_acquire);
  if (ev.lane == kNoSubmitLane || ev.lane >= lanes) {
    std::lock_guard<std::mutex> lock(fallback_mu_);
    fallback_.push_back(ev);
    fallback_nonempty_.store(true, std::memory_order_release);
    return;
  }
  ThreadLane& lane = *lanes_[ev.lane];
  {
    // While the overflow is non-empty, the ring must not be fed — the
    // consumer drains ring-before-overflow, so a ring push here would
    // deliver this event ahead of older spilled ones.
    std::lock_guard<std::mutex> lock(lane.overflow_mu);
    if (!lane.overflow.empty()) {
      completion_overflows_.fetch_add(1, std::memory_order_relaxed);
      lane.overflow.push_back(ev);
      return;
    }
  }
  CompletionEvent copy = ev;
  const bool pushed = spsc_push_backoff(
      lane.completion, std::move(copy), kCompletionSpinRounds, [this] {
        completion_stalls_.fetch_add(1, std::memory_order_relaxed);
      });
  if (pushed) return;
  // Bounded spin exhausted: the submitting thread is not draining its
  // ring. Spill losslessly — the producer holds the world mutex and must
  // never block indefinitely on the application.
  completion_overflows_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(lane.overflow_mu);
  lane.overflow.push_back(std::move(copy));
  lane.overflow_nonempty.store(true, std::memory_order_release);
}

bool ProgressEngine::pop_completion(CompletionEvent& out) {
  const std::uint32_t slot = caller_slot();
  ThreadLane& lane = *lanes_[slot];
  // Ring before overflow: ring entries are always older (the producer
  // stops feeding the ring once the lane has spilled).
  if (lane.completion.try_pop(out)) return true;
  if (lane.overflow_nonempty.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(lane.overflow_mu);
    if (!lane.overflow.empty()) {
      out = std::move(lane.overflow.front());
      lane.overflow.pop_front();
      if (lane.overflow.empty()) {
        lane.overflow_nonempty.store(false, std::memory_order_release);
      }
      return true;
    }
  }
  if (fallback_nonempty_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(fallback_mu_);
    if (!fallback_.empty()) {
      out = std::move(fallback_.front());
      fallback_.pop_front();
      if (fallback_.empty()) {
        fallback_nonempty_.store(false, std::memory_order_release);
      }
      return true;
    }
  }
  return false;
}

bool ProgressEngine::submissions_idle() const {
  const std::uint32_t n = lane_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!lanes_[i]->submission.empty()) return false;
  }
  // Checked after the rings: an op popped but not yet in the scheduler is
  // still pending work (see drain_submissions). The acquire pairs with the
  // drain's release decrement, so count==0 implies the submit's engine
  // events are visible to a subsequent engine->idle() sample.
  return inflight_submissions_.load(std::memory_order_acquire) == 0;
}

void ProgressEngine::register_metrics(obs::MetricsRegistry& registry,
                                      const std::string& prefix) {
  registry.add(prefix + "submit.stalls", &submission_stalls_);
  registry.add(prefix + "ring.stalls", &completion_stalls_);
  registry.add(prefix + "ring.overflows", &completion_overflows_);
  registry.add(prefix + "completions", &completions_enqueued_);
}

void ProgressEngine::thread_main(std::size_t rail) {
  std::uint32_t idle_rounds = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    bool progressed = false;
    if (hooks_.lock->try_lock()) {
      std::lock_guard<std::mutex> guard(*hooks_.lock, std::adopt_lock);
      if (drain_submissions()) progressed = true;
      if (hooks_.engine != nullptr) {
        for (std::size_t i = 0; i < kEngineBatch; ++i) {
          if (!hooks_.engine->step()) break;
          progressed = true;
        }
      }
      if (hooks_.poll && hooks_.poll(rail)) progressed = true;
      if (!progressed && hooks_.idle) hooks_.idle();
    }
    if (progressed) {
      idle_rounds = 0;
    } else {
      ring_backoff(++idle_rounds);
    }
  }
}

void ProgressEngine::wait(const std::function<bool()>& pred) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point quiet_since{};
  bool quiet = false;
  std::uint32_t round = 0;
  while (!pred()) {
    ring_backoff(++round);
    // Deadlock watchdog: "quiet" must hold CONTINUOUSLY for the timeout —
    // a progress thread can be mid-callback with the queues momentarily
    // empty, so one quiet sample proves nothing.
    const bool is_quiet =
        (hooks_.engine == nullptr || hooks_.engine->idle()) &&
        submissions_idle();
    if (!is_quiet) {
      quiet = false;
      continue;
    }
    const auto now = Clock::now();
    if (!quiet) {
      quiet = true;
      quiet_since = now;
    } else if (now - quiet_since > kWaitStallTimeout) {
      NMAD_PANIC(
          "threaded wait stalled: engine idle, submissions drained, predicate "
          "still false (deadlock in the communication pattern?)");
    }
  }
}

}  // namespace nmad::core
