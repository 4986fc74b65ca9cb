// The benchmark's workloads. Each one turns a seed into a fixed batch of
// operations and runs it in repetitions: build the world and warm it up
// (timed as set-up), then run the measured batch with every delivered
// payload checked byte-exact against the seeded source pattern.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"
#include "trace.hpp"

namespace perfbench {

/// Deliberate faults for the oracle's self-test (never used in a
/// measured run): flip one received byte, drop one send, or expire the
/// watchdog on one wait.
enum class Inject : std::uint8_t { kNone, kCorrupt, kDrop, kStall };

/// One repetition: set-up, then the measured batch.
struct RepStats {
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< measured batch, wall clock
  double cpu_s = 0.0;   ///< measured batch, process user + sys
  std::vector<double> op_wall_us;
  std::vector<double> op_vt_us;  ///< virtual time per op
  double vt_batch_us = 0.0;      ///< virtual time of the whole batch
  std::uint64_t payload_bytes = 0;  ///< bytes the oracle verified
  std::uint64_t ops = 0;  ///< ops attempted, warm-up included
  std::uint64_t failed = 0;         ///< failed, mismatched or hung ops
  std::uint64_t events = 0;         ///< engine events fired in the batch
  std::uint64_t events_total = 0;   ///< engine events since construction
  bool aborted = false;  ///< an op hung or failed; the repetition stopped
  nmad::obs::Snapshot delta;        ///< counters over the measured batch
  nmad::obs::Snapshot final;        ///< every metric at batch end
  // Traced repetitions only.
  Ledger ledger;
  std::int64_t wall_ns = 0;
  double sampling_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Serial workloads are deterministic: every repetition of one seed
  /// reproduces the same virtual times and counters.
  [[nodiscard]] virtual bool serial() const = 0;
  /// Run one repetition; `tracer` non-null selects the traced world.
  virtual RepStats run_rep(Tracer* tracer) = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Panic-hook target on the application thread: unwinds the failing wait
/// as an exception the repetition counts as a failed op.
[[noreturn]] void throw_library_panic(std::string_view msg);
/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Inject inject);

}  // namespace perfbench
