// Beyond the paper's two-node testbed: the library is not structurally
// limited to a pair of hosts. These tests build three-node topologies
// (one session per node, one gate per peer) and heterogeneous rail sets,
// checking that scheduling state is correctly isolated per gate.
#include <gtest/gtest.h>

#include <vector>

#include "core/platform.hpp"
#include "util/rng.hpp"

namespace {

using namespace nmad;
using namespace nmad::core;

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte(rng.next() & 0xff);
  return out;
}

/// Three nodes in a triangle; every edge is a 2-rail (myri + quadrics)
/// multi-rail link. Sessions share one simulated world.
MultiNodePlatform triangle(const char* strategy = "aggreg_greedy") {
  MultiNodeConfig cfg;
  cfg.nodes = 3;
  cfg.strategy = strategy;
  cfg.progress_mode = ProgressMode::kSerial;
  return MultiNodePlatform(cfg);
}

TEST(MultiNode, RingExchangeAcrossThreeNodes) {
  auto t = triangle();
  const std::size_t kSize = 50000;
  std::array<std::vector<std::byte>, 3> payloads{
      random_bytes(kSize, 1), random_bytes(kSize, 2), random_bytes(kSize, 3)};
  std::array<std::vector<std::byte>, 3> sinks{
      std::vector<std::byte>(kSize), std::vector<std::byte>(kSize),
      std::vector<std::byte>(kSize)};

  // Ring: i sends to (i+1) % 3.
  std::vector<RecvHandle> recvs;
  std::vector<SendHandle> sends;
  for (int i = 0; i < 3; ++i) {
    const int from = (i + 2) % 3;
    recvs.push_back(t.session(i).irecv(t.gate(i, from), 0, sinks[i]));
  }
  for (int i = 0; i < 3; ++i) {
    const int to = (i + 1) % 3;
    sends.push_back(t.session(i).isend(t.gate(i, to), 0, payloads[i]));
  }
  t.session(0).wait_all(sends, recvs);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sinks[i], payloads[(i + 2) % 3]) << "node " << i;
  }
}

TEST(MultiNode, GatesKeepIndependentSequenceSpaces) {
  // Same tag, messages to two different peers: per-gate sequence numbers
  // must not interfere.
  auto t = triangle();
  const auto to1 = random_bytes(3000, 4);
  const auto to2 = random_bytes(7000, 5);
  std::vector<std::byte> sink1(3000), sink2(7000);

  auto r1 = t.session(1).irecv(t.gate(1, 0), 9, sink1);
  auto r2 = t.session(2).irecv(t.gate(2, 0), 9, sink2);
  auto s1 = t.session(0).isend(t.gate(0, 1), 9, to1);
  auto s2 = t.session(0).isend(t.gate(0, 2), 9, to2);
  t.session(0).wait_all(std::vector<SendHandle>{s1, s2},
                        std::vector<RecvHandle>{r1, r2});
  EXPECT_EQ(sink1, to1);
  EXPECT_EQ(sink2, to2);
}

TEST(MultiNode, HubNodeCpuCouplesItsLinks) {
  // Node 0 sends large messages to nodes 1 and 2 simultaneously; both
  // transfers cross node 0's I/O bus, so their aggregate is bus-capped
  // while each alone would run at link speed.
  auto t = triangle("single_rail");  // rail 0 = myri on each gate
  const std::size_t kSize = 4 << 20;
  const auto payload = random_bytes(kSize, 6);
  std::vector<std::byte> sink1(kSize), sink2(kSize);

  auto r1 = t.session(1).irecv(t.gate(1, 0), 0, sink1);
  auto r2 = t.session(2).irecv(t.gate(2, 0), 0, sink2);
  const sim::TimeNs t0 = t.now();
  auto s1 = t.session(0).isend(t.gate(0, 1), 0, payload);
  auto s2 = t.session(0).isend(t.gate(0, 2), 0, payload);
  t.session(0).wait_all(std::vector<SendHandle>{s1, s2},
                        std::vector<RecvHandle>{r1, r2});
  EXPECT_EQ(sink1, payload);
  EXPECT_EQ(sink2, payload);

  const double us = sim::ns_to_us(
      std::max(r1->completion_time(), r2->completion_time()) - t0);
  const double aggregate_mbps = 2.0 * kSize / us;
  // Two myri links could carry 2x1210, but node 0's bus caps at 1950.
  EXPECT_LT(aggregate_mbps, 1960.0);
  EXPECT_GT(aggregate_mbps, 1700.0);
}

TEST(MultiNode, HeterogeneousFourRailGate) {
  // One gate bundling four different technologies, with adaptive split.
  PlatformConfig cfg;
  cfg.host_a.bus_bandwidth_mbps = 4000.0;  // wide bus to let all rails matter
  cfg.host_b = cfg.host_a;
  cfg.links = {netmodel::myri10g(), netmodel::quadrics_qm500(),
               netmodel::dolphin_sci(), netmodel::gige_tcp()};
  cfg.strategy = "split_balance";
  TwoNodePlatform p(pin_serial(cfg));
  Session& a = p.a();
  Session& b = p.b();
  const GateId gab = p.gate_ab();

  const std::size_t kSize = 8 << 20;
  const auto payload = random_bytes(kSize, 7);
  std::vector<std::byte> sink(kSize);
  auto recv = b.irecv(p.gate_ba(), 0, sink);
  auto send = a.isend(gab, 0, payload);
  b.wait(recv);
  a.wait(send);
  EXPECT_EQ(sink, payload);

  // All four DMA tracks carried a chunk, fastest rail the biggest.
  auto& gate = a.scheduler().gate(gab);
  std::uint64_t myri_bytes = gate.rail(0).tx.payload_bytes[1];
  for (RailIndex i = 0; i < 4; ++i) {
    EXPECT_EQ(gate.rail(i).tx.packets[1], 1u) << "rail " << i;
    EXPECT_LE(gate.rail(i).tx.payload_bytes[1], myri_bytes);
  }
}

}  // namespace
