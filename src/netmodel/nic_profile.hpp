// Performance profiles of the simulated NICs.
//
// Each profile is a LogGP-flavored parameterization of one network
// technology. The presets are calibrated to the numbers the paper reports
// for its experimental platform (§3.1): Myri-10G/MX at 2.8 µs / ~1200 MB/s
// and Quadrics QM500/Elan at 1.7 µs / ~850 MB/s, over a host I/O bus of
// ~2 GB/s. The *shape* reproduction of Figures 2–7 comes from how the
// scheduler and strategies interact with these parameters, not from the
// absolute values.
#pragma once

#include <cstdint>
#include <string>

#include "util/expected.hpp"

namespace nmad::netmodel {

struct NicProfile {
  std::string name;

  // --- Eager / PIO path (packets <= pio_threshold) -------------------------
  /// CPU time to initiate a send (descriptor setup, header write), µs.
  double send_overhead_us = 0.5;
  /// CPU time on the receiving host per delivered packet, µs.
  double recv_overhead_us = 0.5;
  /// Wire + NIC hardware latency (one way, excluding host overheads), µs.
  double wire_latency_us = 1.8;
  /// Host->NIC copy bandwidth of a PIO transfer, MB/s. The CPU is occupied
  /// for payload_bytes / pio_bandwidth during the copy.
  double pio_bandwidth_mbps = 1400.0;
  /// Largest packet sent via PIO on the eager track; larger packets use the
  /// rendezvous/DMA path. This is the paper's "PIO threshold" (§3.2): below
  /// it, transfers monopolize the CPU and cannot overlap.
  std::uint32_t pio_threshold = 8 * 1024;

  // --- Rendezvous / DMA path (packets > pio_threshold) ---------------------
  /// CPU time to program one DMA descriptor, µs (the CPU is then free).
  double dma_setup_us = 0.4;
  /// NIC link bandwidth for DMA transfers, MB/s (before bus sharing).
  double dma_bandwidth_mbps = 1280.0;
  /// Extra NIC-side latency to start a DMA once programmed, µs.
  double dma_start_us = 1.0;

  // --- Progression ----------------------------------------------------------
  /// Cost of one poll of this NIC when it has nothing to deliver, µs. Paid
  /// by the progression engine for every *other* rail it has to watch —
  /// the Fig. 6 gap between the multi-rail and Quadrics-only curves.
  double poll_cost_us = 0.4;

  /// Aggregation memcpy bandwidth (host memory copy), MB/s. Segments
  /// coalesced by an aggregating strategy pay bytes/copy_bandwidth of CPU.
  /// Not NIC-specific physically, but kept per-profile so heterogeneous
  /// hosts can be modeled; presets all use the platform's memcpy speed
  /// (cache-warm staging copies — the paper: "the overhead incurred by
  /// memory copies is very low").
  double copy_bandwidth_mbps = 5000.0;

  /// Sanity-check all parameters; returns an error naming the bad field.
  [[nodiscard]] util::Status validate() const;

  /// Predicted one-way time for a minimal (4-byte) eager packet, µs.
  /// Useful as the "latency" figure of merit; presets are calibrated so
  /// this matches the paper (2.8 µs Myri-10G, 1.7 µs Quadrics).
  [[nodiscard]] double min_latency_us() const noexcept {
    return send_overhead_us + wire_latency_us + recv_overhead_us;
  }
};

/// Preset calibrated to the paper's MX/Myri-10G measurements.
NicProfile myri10g();
/// Preset calibrated to the paper's Elan/Quadrics QM500 measurements.
NicProfile quadrics_qm500();
/// Dolphin SCI-style profile (nmad also ships a SiSCI driver); low latency,
/// modest bandwidth. Not used in the paper's figures; available for
/// extended experiments.
NicProfile dolphin_sci();
/// Myrinet-2000 / GM-2 profile (nmad's fourth driver, paper §2); the
/// previous Myricom generation — much slower than Myri-10G/MX.
NicProfile myrinet2000_gm2();
/// Commodity GigE/TCP profile, for contrast experiments.
NicProfile gige_tcp();

/// Host platform parameters shared by all NICs of one node.
struct HostProfile {
  std::string name = "opteron-1.8";
  /// Effective I/O bus capacity, MB/s. The paper's board is "theoretically
  /// able to support data transfers up to approximately 2 GB/s"; the
  /// effective ceiling is set slightly below.
  double bus_bandwidth_mbps = 1950.0;
  /// Number of CPU cores available to the progression engine for PIO
  /// (1 = the paper's implementation; >1 models its §4 future work).
  int pio_cores = 1;

  [[nodiscard]] util::Status validate() const;
  bool operator==(const HostProfile&) const = default;
};

/// Look up a preset by name ("myri10g", "quadrics", "sci", "tcp").
util::Expected<NicProfile> nic_profile_by_name(const std::string& name);

}  // namespace nmad::netmodel
