// Threaded progression: dedicated progress threads drive the scheduler so
// the application thread never enters it (paper §2 — request processing is
// disconnected from the API calls; here even the *driving* of that
// processing leaves the application thread).
//
// Data flow in threaded mode (T app threads, one lane each):
//
//   app thread t (of T)             progress threads (one per rail)
//   -------------------             ------------------------------
//   Scheduler::make_send/recv       loop:
//     (no shared mutable state)       try_lock(world progress mutex)
//   lane[t].submission  -------->      drain all lanes, round-robin
//     SPSC try_push, lock-free         -> Scheduler::submit_send/recv
//   poll Request::done()               step sim engine (batch)
//     acquire load                     poll rail driver (real drivers)
//   lane[t].completion  <--------      route CompletionEvent to the
//     SPSC try_pop, lock-free            submitting thread's lane
//                                     idle hook (e.g. chaos flush)
//                                   backoff when no progress
//
// Each submitting application thread registers a ThreadLane on its first
// submit(): an SPSC submission ring it alone produces into, and an SPSC
// completion ring it alone consumes from. Producer-side submission is
// therefore wait-free across threads — T threads submit with zero shared
// cache lines — while the progression side stays single-consumer per ring
// (progress threads take turns under the world mutex, which provides the
// happens-before edge the SPSC contract needs). Completion events carry
// the submitting thread's lane (stamped on the request before it enters
// the ring) and are routed back to that lane's completion ring. The
// alternative — one combining MPMC ring — was rejected: every submit would
// CAS on one shared head, exactly the cache-line ping-pong this PR
// removes; see docs/ARCHITECTURE.md "Many-thread submission".
//
// Backpressure is bounded and lossless, never drop-on-full:
//  * submission ring full -> the submitting thread spins with escalating
//    backoff until the drain side catches up (counted in
//    submission_stalls()); the application is slowed to the drain rate.
//  * completion ring full -> the progress thread (which holds the world
//    mutex and must never block on the application) spins a BOUNDED number
//    of backoff rounds (counted in completion_stalls()), then spills the
//    event to the lane's mutex-protected overflow list (counted in
//    completion_overflows()). The ring-then-overflow order is preserved:
//    once a lane has overflowed, new events append to the overflow until
//    the consumer drains it, so pop_completion() still yields that lane's
//    events in settlement order.
//
// The scheduler, strategies and gates stay single-threaded code: every
// entry into them happens with the world progress mutex held (on a sim
// world that is SimWorld::progress_mutex() — one lock for the whole world
// because engine events cross sessions). The lock-free surface is exactly
// the application-side hot path: building requests, pushing submissions,
// polling completion flags and draining the per-thread completion ring.
//
// Mode selection: ProgressMode::kDefault resolves the NMAD_PROGRESS_MODE
// environment variable ("serial" | "threaded"); an explicit kSerial or
// kThreaded wins over the environment, which lets tests that depend on
// serial determinism (aggregation-window counts, virtual-time traces) pin
// themselves while the rest of the suite follows the environment.
//
// Shutdown order: every ProgressEngine sharing a sim engine must be
// stopped before ANY of their sessions is destroyed — engine events cross
// sessions, so a still-running thread of session B can fire an event into
// session A's scheduler. TwoNodePlatform handles this in its destructor.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/request.hpp"
#include "core/scheduler.hpp"
#include "core/spsc_ring.hpp"

namespace nmad::sim {
class Engine;
}  // namespace nmad::sim

namespace nmad::core {

enum class ProgressMode : std::uint8_t {
  kDefault,   ///< resolve NMAD_PROGRESS_MODE, fall back to serial
  kSerial,    ///< classic single-threaded progression (bit-reproducible)
  kThreaded,  ///< per-rail progress threads + per-thread submission lanes
};

/// NMAD_PROGRESS_MODE environment override: "threaded" | "serial" (anything
/// else, or unset, is kDefault).
[[nodiscard]] ProgressMode progress_mode_from_env();

/// kDefault -> environment -> kSerial; explicit modes pass through.
[[nodiscard]] ProgressMode resolve_progress_mode(ProgressMode requested);

[[nodiscard]] const char* to_string(ProgressMode mode);

/// Hard cap on submitting application threads per engine — lanes live in a
/// fixed array so progress threads can index them without a lock. 64 app
/// threads per session is far beyond any supported deployment; exceeding
/// it panics loudly rather than serializing silently.
inline constexpr std::size_t kMaxSubmitLanes = 64;

/// wait() panics after this long with the engine idle, all submission
/// rings empty and its predicate still false (application deadlock — the
/// serial mode equivalent is run_until() draining the queue).
inline constexpr std::chrono::milliseconds kWaitStallTimeout{5000};

class ProgressEngine {
 public:
  struct Config {
    std::size_t threads = 1;  ///< progress threads (one per rail)
    /// Per-lane ring capacities (rounded up to powers of two).
    std::size_t submission_capacity = 1024;
    std::size_t completion_capacity = 4096;
  };

  struct Hooks {
    /// World progress mutex (required): serializes every scheduler entry
    /// and every engine step across all sessions of the world.
    std::mutex* lock = nullptr;
    /// Discrete-event engine stepped under the lock (sim worlds). May be
    /// null for real drivers, where `poll` does the work instead.
    sim::Engine* engine = nullptr;
    /// Poll rail `i`'s driver (under the lock); returns true on progress.
    /// Null over the simulator — delivery rides engine events there.
    std::function<bool(std::size_t)> poll;
    /// Called under the lock when a full round made no progress (e.g. the
    /// chaos harness flushes its buffered frames here).
    std::function<void()> idle;
  };

  /// Installs itself as `scheduler`'s completion hook and starts the
  /// progress threads. Gates may still be added afterwards (lazy session
  /// establishment) as long as the connect happens under the world
  /// progress mutex — gate storage is pointer-stable, so running threads
  /// never observe a torn gate table.
  ProgressEngine(Scheduler& scheduler, Config config, Hooks hooks);
  /// stop()s and uninstalls the completion hook.
  ~ProgressEngine();
  ProgressEngine(const ProgressEngine&) = delete;
  ProgressEngine& operator=(const ProgressEngine&) = delete;

  /// Join all progress threads (idempotent). After this the engine routes
  /// nothing; the owning Session falls back to serial entry points.
  void stop();

  // --- application-thread interface ---------------------------------------
  /// Enqueue a made request for submission on the calling thread's lane
  /// (registered on first use). Wait-free across threads on the fast path;
  /// spins with escalating backoff while the lane's ring is full —
  /// lossless backpressure, counted in submission_stalls().
  void submit(SendHandle h);
  void submit(RecvHandle h);

  /// Block until pred() holds, while progress threads do the work. Panics
  /// if the world goes fully quiet (engine idle, every lane drained) for
  /// longer than kWaitStallTimeout with pred still false.
  void wait(const std::function<bool()>& pred);

  /// Pause the progress threads for a burst of submissions: while the
  /// returned lock is held no thread can drain any lane or step the
  /// engine, so every request pushed lands in ONE strategy optimization
  /// window — the serial semantics, where the engine only runs inside
  /// wait(). The lock is the WORLD mutex: bursts taken on different
  /// sessions of the same world exclude each other (and all progress), so
  /// two app threads holding "different sessions' bursts" are really
  /// serialized on one lock — see Session::submission_burst(). Other
  /// threads may keep submitting on their own lanes while a burst is held
  /// (their pushes land in the same frozen window). Never wait() while
  /// holding it, and never push more requests per lane than the lane's
  /// ring capacity (the drain side is blocked).
  [[nodiscard]] std::unique_lock<std::mutex> pause() {
    return std::unique_lock<std::mutex>(*hooks_.lock);
  }

  /// Drain every lane's submission ring from the calling thread (takes the
  /// world lock): on return every request submit()ed — by ANY thread —
  /// before the call has reached the scheduler. Lets an application
  /// sequence cross-session submissions deterministically (e.g. guarantee
  /// receives are in the matching table before the peer's sends are
  /// released). Requests pushed concurrently with the call may or may not
  /// be included.
  void flush_submissions();

  /// Drain one settled-request event for a request submitted by THIS
  /// thread (observational — a delayed event never delays request
  /// completion; the request's done flag is the authoritative signal).
  /// FIFO in settlement order per lane. Events for requests submitted
  /// outside the engine (kNoSubmitLane) are delivered to any popping
  /// thread from a shared fallback queue.
  bool pop_completion(CompletionEvent& out);

  // --- backpressure / routing counters (ground truth, live even with
  // NMAD_METRICS=OFF — gates in tests and benches read these) -------------
  /// Submission pushes that found the lane ring full and had to spin.
  [[nodiscard]] std::uint64_t submission_stalls() const noexcept {
    return submission_stalls_.load(std::memory_order_relaxed);
  }
  /// Completion pushes that found the lane ring full and had to spin.
  [[nodiscard]] std::uint64_t completion_stalls() const noexcept {
    return completion_stalls_.load(std::memory_order_relaxed);
  }
  /// Completion events spilled to a lane overflow list after the bounded
  /// spin — still delivered, never dropped; nonzero means an application
  /// thread stopped draining its completion ring while traffic settled.
  [[nodiscard]] std::uint64_t completion_overflows() const noexcept {
    return completion_overflows_.load(std::memory_order_relaxed);
  }
  /// Total completion events delivered (ring + overflow + fallback).
  [[nodiscard]] std::uint64_t completions_enqueued() const noexcept {
    return completions_enqueued_.load(std::memory_order_relaxed);
  }
  /// Lanes registered so far (== distinct threads that submitted).
  [[nodiscard]] std::uint32_t lane_count() const noexcept {
    return lane_count_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return threads_.size();
  }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// Register the engine's counters into `registry` under `prefix`
  /// (e.g. "a.progress."). Ground-truth atomics, so they register and
  /// report even when obs counters are compiled out.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix);

 private:
  /// Exactly one handle set. Default-constructed (both null) marks a
  /// moved-from ring slot.
  struct SubmitOp {
    SendHandle send;
    RecvHandle recv;
  };

  /// One submitting application thread's private channel pair plus the
  /// lossless spill path for its completion ring.
  struct ThreadLane {
    ThreadLane(std::size_t sub_cap, std::size_t comp_cap)
        : submission(sub_cap), completion(comp_cap) {}
    SpscRing<SubmitOp> submission;
    SpscRing<CompletionEvent> completion;
    /// Order-preserving pressure relief: while non-empty, the producer
    /// appends here (never to the ring) and the consumer drains the ring
    /// first — so ring entries are always older than overflow entries.
    std::mutex overflow_mu;
    std::deque<CompletionEvent> overflow;
    std::atomic<bool> overflow_nonempty{false};
  };

  void thread_main(std::size_t rail);
  bool drain_submissions();  // under the lock
  void push_submission(ThreadLane& lane, SubmitOp op);
  /// Route a settled-request event to its submitter's lane (under the
  /// world lock — the serialization that makes progress threads a single
  /// logical SPSC producer per completion ring).
  void deliver_completion(const CompletionEvent& ev);
  /// The calling thread's lane slot, registering a new lane on first use.
  [[nodiscard]] std::uint32_t caller_slot();
  /// All lanes' submission rings empty (the wait() watchdog's quiet test).
  [[nodiscard]] bool submissions_idle() const;

  Scheduler& scheduler_;
  Config cfg_;
  Hooks hooks_;

  /// Engine identity for the thread-local lane cache (never reused, so a
  /// stale cache entry can never alias a new engine).
  const std::uint64_t engine_id_;
  /// Lane registry: the map (under lanes_mu_) is authoritative for
  /// thread -> slot; the fixed array + release-published count let progress
  /// threads iterate lanes without taking the mutex.
  mutable std::mutex lanes_mu_;
  std::unordered_map<std::uint64_t, std::uint32_t> slot_by_thread_;
  std::array<std::unique_ptr<ThreadLane>, kMaxSubmitLanes> lanes_;
  std::atomic<std::uint32_t> lane_count_{0};

  /// Events for requests with no lane stamp (submitted outside the
  /// engine, e.g. made before start_threaded): any popping thread may
  /// consume them.
  std::mutex fallback_mu_;
  std::deque<CompletionEvent> fallback_;
  std::atomic<bool> fallback_nonempty_{false};

  std::atomic<std::uint64_t> submission_stalls_{0};
  std::atomic<std::uint64_t> completion_stalls_{0};
  std::atomic<std::uint64_t> completion_overflows_{0};
  std::atomic<std::uint64_t> completions_enqueued_{0};
  /// Ops popped from a submission ring but not yet handed to the
  /// scheduler; keeps the wait() watchdog from sampling a mid-drain
  /// instant as global quiescence.
  std::atomic<std::uint64_t> inflight_submissions_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace nmad::core
