// The simulated worlds the workloads run on, in two builds each:
//
//  - platform worlds go through core::TwoNodePlatform /
//    core::MultiNodePlatform, exactly as users assemble them (the
//    end-to-end runs, tracing off);
//  - traced worlds assemble the same topology from public pieces
//    (drv::SimWorld, core::Session::connect, sampling::sample_rails +
//    Gate::set_ratios) with every SimDriver wrapped in a TracingDriver and
//    a progress function that steps the engine itself under spans.
//
// On serial worlds both builds fire the identical event sequence, so the
// traced run reproduces the untraced virtual times and counters exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "coll/communicator.hpp"
#include "core/platform.hpp"
#include "obs/registry.hpp"
#include "trace.hpp"

namespace perfbench {

/// Per-wait wall-clock deadline for serial drive loops. The clock is read
/// once every 256 checks so the watchdog costs nothing per event.
class Watchdog {
 public:
  /// A budget <= 0 expires at the first check (fault injection).
  void arm(std::int64_t budget_ns) noexcept {
    const bool now = budget_ns <= 0;
    deadline_ = now ? std::numeric_limits<std::int64_t>::min() : now_ns() + budget_ns;
    countdown_ = now ? 1 : kStride;
  }
  [[nodiscard]] bool expired() noexcept {
    if (--countdown_ != 0) return false;
    countdown_ = kStride;
    return now_ns() > deadline_;
  }

 private:
  static constexpr std::uint32_t kStride = 256;
  std::int64_t deadline_ = 0;
  std::uint32_t countdown_ = kStride;
};

/// Two hosts, one gate each way (the paper's testbed shape).
class TwoNodeWorld {
 public:
  virtual ~TwoNodeWorld() = default;
  virtual nmad::core::Session& a() = 0;
  virtual nmad::core::Session& b() = 0;
  [[nodiscard]] virtual nmad::core::GateId gate_ab() const = 0;
  [[nodiscard]] virtual nmad::core::GateId gate_ba() const = 0;
  virtual nmad::drv::SimWorld& sim() = 0;
  [[nodiscard]] virtual bool threaded() const = 0;
  /// Serial worlds: step the engine until pred() holds; false if the
  /// engine drained or the watchdog expired first.
  virtual bool drive(const std::function<bool()>& pred, Watchdog& watchdog) = 0;

  void register_metrics(nmad::obs::MetricsRegistry& registry) {
    a().register_metrics(registry, "a.");
    b().register_metrics(registry, "b.");
  }
};

std::unique_ptr<TwoNodeWorld> make_platform_world(nmad::core::PlatformConfig config);
/// The traced worlds always run boot-time sampling over their rail set and
/// report its wall time in `sampling_s`; only configs with sampled_ratios
/// install the result (sampling runs in a scratch world, so the traced
/// world's own event sequence is unaffected).
std::unique_ptr<TwoNodeWorld> make_traced_world(nmad::core::PlatformConfig config,
                                                Tracer& tracer, double& sampling_s);

/// N ranks with one communicator each (lazy multi-node platform).
class CollWorld {
 public:
  virtual ~CollWorld() = default;
  virtual nmad::coll::Communicator& comm(std::size_t rank) = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
  virtual nmad::sim::Engine& engine() = 0;
  /// Serial drive hooks for coll::wait_all, bounded by `watchdog`.
  virtual nmad::coll::DriveHooks hooks(Watchdog& watchdog) = 0;

  void register_metrics(nmad::obs::MetricsRegistry& registry);
};

std::unique_ptr<CollWorld> make_platform_coll_world(nmad::core::MultiNodeConfig config);
std::unique_ptr<CollWorld> make_traced_coll_world(nmad::core::MultiNodeConfig config,
                                                  Tracer& tracer, double& sampling_s);

}  // namespace perfbench
