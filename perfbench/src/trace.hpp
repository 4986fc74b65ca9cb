// In-memory span tracing for the traced run, recorded from outside the
// library: around the benchmark's own Session/Communicator calls, around
// every sim::Engine::step the traced progress function fires, around the
// deferred-progression and timer callbacks the traced worlds hand to each
// Session, and — via TracingDriver, a pass-through drv::Driver — around
// post_send and the deliver / on_sent upcalls at the driver boundary.
//
// Each thread appends to its own log (no locks on the recording path);
// logs are read only after every recording thread has joined. A span's
// self time is its duration minus the durations of its direct children.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "drv/driver.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : std::uint8_t {
  kStep,           ///< one sim::Engine::step (sim layer + NIC model)
  kPostSend,       ///< drv::Driver::post_send (drv layer)
  kDeliver,        ///< DeliverFn upcall: guard, decode, reassembly, match
  kSent,           ///< on_sent upcall: completion credit, strategy re-consult
  kPump,           ///< deferred progression point: strategy, encode, seal, post
  kTimer,          ///< RailGuard timer: retransmit / delayed ack
  kIsend,          ///< Session::isend
  kIrecv,          ///< Session::irecv
  kIsendSegments,  ///< Session::isend_segments
  kWait,           ///< Session::wait (serial: engine steps are children)
  kCollPost,       ///< coll::Communicator::iallreduce
  kCollWait,       ///< coll::wait_all (engine steps are children)
  kCount
};
inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kCount);

[[nodiscard]] const char* span_name(SpanKind kind) noexcept;

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< 0 while open
  std::int32_t parent = -1;  ///< index in the same thread's log
  std::uint32_t op = 0;      ///< benchmark op the span belongs to
  std::uint32_t bytes = 0;   ///< frame bytes (driver spans), else 0
  SpanKind kind = SpanKind::kStep;
};

struct KindTotals {
  std::int64_t self_ns = 0;
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// Span totals of one measured window [t0, t1].
struct Ledger {
  /// Spans on the thread that created the tracer (the application thread;
  /// in serial mode every span).
  std::array<KindTotals, kSpanKinds> app{};
  /// Spans on every other thread (progress threads in threaded mode).
  std::array<KindTotals, kSpanKinds> helpers{};
  std::int64_t app_roots_ns = 0;
  std::int64_t app_self_ns = 0;  ///< sum of app-thread self times
  std::int64_t helper_roots_ns = 0;
  std::size_t helper_threads = 0;
  /// Frame sizes posted in the window (driver spans, every thread).
  std::vector<std::uint32_t> frame_bytes;
  /// False if an app-thread span was left open or straddles the window —
  /// the ledger would then not reconcile with the window's wall time.
  bool balanced = true;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int32_t open(SpanKind kind, std::size_t bytes);
  void close(std::int32_t index);
  void set_op(std::uint32_t op) noexcept { op_.store(op, std::memory_order_relaxed); }

  /// Totals over spans that lie inside [t0, t1]. Call only after every
  /// thread that recorded into this tracer has been joined.
  [[nodiscard]] Ledger analyze(std::int64_t t0, std::int64_t t1) const;

 private:
  struct ThreadLog {
    std::vector<SpanRecord> records;
    std::int32_t top = -1;
    bool app = false;
  };
  ThreadLog& local();

  const std::uint64_t id_;
  const std::thread::id app_thread_;
  std::mutex logs_mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  std::atomic<std::uint32_t> op_{0};
};

/// RAII span; a null tracer makes it a no-op (the untraced path).
class Span {
 public:
  Span(Tracer* tracer, SpanKind kind, std::size_t bytes = 0) : tracer_(tracer) {
    if (tracer_ != nullptr) index_ = tracer_->open(kind, bytes);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_ = -1;
};

/// Pass-through driver that records spans around post_send and the
/// deliver / on_sent upcalls, then forwards to the wrapped endpoint.
class TracingDriver final : public nmad::drv::Driver {
 public:
  TracingDriver(nmad::drv::Driver& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] const nmad::drv::Capabilities& caps() const noexcept override {
    return inner_.caps();
  }
  [[nodiscard]] bool send_idle(nmad::drv::Track track) const noexcept override {
    return inner_.send_idle(track);
  }
  void post_send(nmad::drv::SendDesc desc, Callback on_sent) override;
  void set_deliver(DeliverFn deliver) override;
  void set_error(ErrorFn on_error) override { inner_.set_error(std::move(on_error)); }
  bool progress() override { return inner_.progress(); }
  bool revive() override { return inner_.revive(); }
  void register_metrics(nmad::obs::MetricsRegistry& registry,
                        const std::string& prefix) const override {
    inner_.register_metrics(registry, prefix);
  }

 private:
  nmad::drv::Driver& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
