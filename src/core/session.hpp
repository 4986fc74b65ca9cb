// Session: the collect layer (paper §2, top layer) — the application-facing
// message-passing API. Messages are built incrementally from segments
// (pack interface) or submitted in one call; all operations are
// non-blocking, and wait() drives the progression engine until completion.
//
// The same Session runs over the simulator (virtual time) or over real
// drivers: the difference is encapsulated in the clock and progress
// functions supplied at construction.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/request_group.hpp"
#include "core/scheduler.hpp"

namespace nmad::sim {
class Engine;
}  // namespace nmad::sim

namespace nmad::core {

class ProgressEngine;
class Session;

/// Incremental construction of an outgoing message (one or more segments).
/// Segments reference user memory: they are not copied at pack time and
/// must stay valid until the submitted request completes.
class PackBuilder {
 public:
  PackBuilder& add(std::span<const std::byte> segment);
  /// Submit the message; the builder must not be reused afterwards.
  SendHandle submit();

 private:
  friend class Session;
  PackBuilder(Session& session, GateId gate, Tag tag)
      : session_(&session), gate_(gate), tag_(tag) {}
  Session* session_;
  GateId gate_;
  Tag tag_;
  std::vector<std::span<const std::byte>> segments_;
  bool submitted_ = false;
};

/// Incremental extraction of an incoming message into scattered user
/// buffers. The message is received into the registered spans in order.
class UnpackBuilder {
 public:
  UnpackBuilder& add(std::span<std::byte> segment);
  /// Post the receive. The segments hold the payload once the request
  /// completes (test() or wait() observes it).
  RecvHandle submit();

 private:
  friend class Session;
  UnpackBuilder(Session& session, GateId gate, Tag tag)
      : session_(&session), gate_(gate), tag_(tag) {}
  Session* session_;
  GateId gate_;
  Tag tag_;
  std::vector<std::span<std::byte>> segments_;
  bool submitted_ = false;
};

class Session {
 public:
  /// `progress(pred)` must drive the underlying engine until pred() holds
  /// (panicking or returning with pred false only if progress is
  /// impossible — a deadlock in the application's communication pattern).
  using ProgressFn = std::function<void(const std::function<bool()>&)>;

  /// `timer` is optional: required only when gates enable ack/retransmit
  /// (core/reliability.hpp) — it backs the RTO and delayed-ack timers.
  Session(std::string name, Scheduler::ClockFn clock, Scheduler::DeferFn defer,
          ProgressFn progress, Scheduler::TimerFn timer = nullptr);
  ~Session();

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }

  // --- threaded progression (core/progress.hpp) ---------------------------
  /// Switch this session to threaded progression: each submitting app
  /// thread gets its own lock-free submission/completion ring pair and
  /// `threads` progress threads (one per rail) drive the scheduler under
  /// `world_mutex`. Later connect()s are allowed if made under
  /// `world_mutex` (lazy establishment); all sessions sharing
  /// `engine` must be stop_threaded()'d before any of them is destroyed
  /// (engine events cross sessions). `engine` may be null for real
  /// drivers — then `poll` does the work. `idle` runs under the lock when
  /// a progress round moves nothing. `submit_ring_capacity` /
  /// `completion_ring_capacity` size each per-thread ring; 0 keeps the
  /// engine defaults (1024 / 4096).
  void start_threaded(std::mutex& world_mutex, sim::Engine* engine,
                      std::size_t threads,
                      std::function<void()> idle = nullptr,
                      std::function<bool(std::size_t)> poll = nullptr,
                      std::size_t submit_ring_capacity = 0,
                      std::size_t completion_ring_capacity = 0);
  /// Join the progress threads and fall back to serial entry points.
  void stop_threaded();
  [[nodiscard]] bool threaded() const noexcept {
    return progress_engine_ != nullptr;
  }
  /// The live engine in threaded mode (per-thread completion rings,
  /// backpressure counters); null in serial mode.
  [[nodiscard]] ProgressEngine* progress_engine() noexcept {
    return progress_engine_.get();
  }
  /// Burst scope: in threaded mode, blocks the progress threads while the
  /// returned lock is held so a series of isend/irecv calls lands in one
  /// strategy optimization window (the serial semantics). Returns an empty
  /// (lock-free) guard in serial mode.
  ///
  /// The lock is the WORLD progress mutex, shared by every session of the
  /// world: a burst taken on session A also freezes session B's drain (and
  /// the whole sim engine), and two app threads taking "bursts on
  /// different sessions" simply serialize — the second blocks until the
  /// first releases; their windows never overlap and never deadlock
  /// (single lock). OTHER threads may keep submitting on any session while
  /// a burst is held: pushes are lock-free and land in the frozen window,
  /// bounded per thread by the per-lane ring capacity (beyond it the
  /// submitter spins until the burst ends). Never wait() while holding a
  /// burst — the engine cannot run.
  [[nodiscard]] std::unique_lock<std::mutex> submission_burst();
  /// Threaded mode: block until every isend/irecv issued — by any thread,
  /// on this session — before this call has been drained into the
  /// scheduler (e.g. so receives are matchable before a peer's sends are
  /// released). Takes the world mutex, so it blocks while any burst is
  /// held (do not call it from a thread holding one). Submissions racing
  /// in concurrently with the call may or may not be included. No-op in
  /// serial mode, where submission is synchronous.
  void flush_submissions();

  /// Create a gate towards a peer over the given rails, with a strategy
  /// created by strat::make_strategy(strategy_name, cfg).
  GateId connect(std::vector<drv::Driver*> rails, std::string_view strategy_name,
                 const strat::StrategyConfig& cfg = {});

  // --- contiguous convenience API ----------------------------------------
  SendHandle isend(GateId gate, Tag tag, std::span<const std::byte> data);
  RecvHandle irecv(GateId gate, Tag tag, std::span<std::byte> buffer);

  /// Submit a multi-segment message in one call.
  SendHandle isend_segments(GateId gate, Tag tag,
                            std::vector<std::span<const std::byte>> segments);

  // --- incremental pack/unpack API ----------------------------------------
  [[nodiscard]] PackBuilder pack(GateId gate, Tag tag) {
    return PackBuilder(*this, gate, tag);
  }
  [[nodiscard]] UnpackBuilder unpack(GateId gate, Tag tag) {
    return UnpackBuilder(*this, gate, tag);
  }

  // --- completion ----------------------------------------------------------
  void wait(const SendHandle& h);
  void wait(const RecvHandle& h);
  void wait_all(std::span<const SendHandle> sends, std::span<const RecvHandle> recvs);
  /// Wait until every member of a (possibly multi-gate) group settles.
  void wait_group(const RequestGroup& group) {
    wait_all(group.sends(), group.recvs());
  }
  [[nodiscard]] static bool test(const SendHandle& h) { return h->completed(); }
  [[nodiscard]] static bool test(const RecvHandle& h) { return h->completed(); }

  [[nodiscard]] sim::TimeNs now() const { return scheduler_.now(); }

  // --- observability --------------------------------------------------------
  /// Register every metric of this session (request aggregates, per-gate
  /// strategy counters, per-rail counters incl. driver internals) under
  /// `prefix` (e.g. "a."). Empty prefix uses "<session name>.".
  void register_metrics(obs::MetricsRegistry& registry, std::string prefix = "");

 private:
  friend class UnpackBuilder;

  /// Hand a made receive to the scheduler or the progression engine.
  RecvHandle submit_recv(RecvHandle h);

  std::string name_;
  Scheduler scheduler_;
  ProgressFn progress_;
  /// Live only in threaded mode. Declared after scheduler_ so it is
  /// destroyed (threads joined, completion hook removed) first.
  std::unique_ptr<ProgressEngine> progress_engine_;
};

}  // namespace nmad::core
