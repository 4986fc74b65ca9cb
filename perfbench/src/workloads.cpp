#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <ctime>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/platform.hpp"
#include "netmodel/nic_profile.hpp"
#include "util/rng.hpp"
#include "worlds.hpp"

namespace perfbench {

using namespace nmad;

namespace {

// Every payload is a window of one seeded pattern; receivers compare what
// arrived against the same window, byte for byte.
constexpr std::size_t kPatternBytes = std::size_t{16} << 20;
/// Budget of one serial wait before the watchdog calls the op hung.
constexpr std::int64_t kWaitBudgetNs = 5'000'000'000;
constexpr core::Tag kTag = 7;

// pingpong_small: round trips of 4 B .. 32 KB on the paper platform (v2).
constexpr std::size_t kPingPongOps = 4000;
constexpr std::size_t kPingPongWarm = 200;
// stream_large: one-way 64 KB .. 8 MB messages, 4 in flight (v3 + acks).
constexpr std::size_t kStreamOps = 384;
constexpr std::size_t kStreamWarm = 4;
constexpr std::size_t kStreamWindow = 4;
// threaded_rate: ~1 KB eager messages, 32 in flight, threaded progression.
// One size per run, drawn from the seed in 1 KB +- 24 B: a fixed size is the
// message-rate convention, and the seed still moves the model a little.
constexpr std::size_t kRateOps = 20000;
constexpr std::size_t kRateWarm = 512;
constexpr std::size_t kRateWindow = 32;
constexpr std::uint32_t kRateMinBytes = 1000;
constexpr std::uint32_t kRateMaxBytes = 1048;
// allreduce_hier: 16 ranks on 4 hosts, 8 B .. 256 KB u64 sum allreduces.
constexpr std::size_t kCollRanks = 16;
constexpr std::size_t kCollHostSize = 4;
constexpr std::size_t kCollOps = 128;
constexpr std::size_t kCollWarm = 2;
constexpr std::uint32_t kCollMaxBytes = 256 * 1024;
constexpr std::size_t kCollRankStride = 64 * 1024;

/// Raised by the panic hook on the application thread: the library's own
/// threaded-wait watchdog fired (or an invariant broke) inside a wait.
struct LibraryPanic : std::runtime_error {
  using std::runtime_error::runtime_error;
};

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::vector<std::byte> make_pattern(std::uint64_t seed) {
  std::vector<std::byte> bytes(kPatternBytes);
  util::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  for (std::size_t i = 0; i < bytes.size(); i += sizeof(std::uint64_t)) {
    const std::uint64_t word = rng.next();
    std::memcpy(bytes.data() + i, &word, sizeof(word));
  }
  return bytes;
}

struct Op {
  std::uint32_t bytes = 0;
  std::uint32_t segments = 1;
  std::size_t off_a = 0;  ///< pattern offset of the (first) payload
  std::size_t off_b = 0;  ///< pattern offset of the reply payload
};

/// `n` sizes log-uniform over [lo, hi], stratified (one draw per 1/n
/// quantile) so every seed covers the range evenly. The order interleaves
/// the four size quartiles — each run of four consecutive ops holds one
/// size from each, shuffled — so the mix of sizes sharing a window is alike
/// under every seed while the exact sequence still depends on it.
/// Offsets keep `reach` bytes beyond each window inside the pattern.
std::vector<Op> make_ops(util::Xoshiro256& rng, std::size_t n, std::uint32_t lo,
                         std::uint32_t hi, std::uint32_t align, std::size_t reach) {
  constexpr std::size_t kBands = 4;
  std::vector<std::uint32_t> sizes(n);
  const double span = std::log(static_cast<double>(hi) / lo);
  for (std::size_t i = 0; i < n; ++i) {
    const double u =
        (static_cast<double>(i) + rng.next_double()) / static_cast<double>(n);
    const auto bytes = static_cast<std::uint32_t>(lo * std::exp(span * u));
    sizes[i] = std::clamp(bytes / align * align, lo, hi);
  }
  const std::size_t per_band = n / kBands;
  std::vector<std::vector<std::uint32_t>> bands(kBands);
  for (std::size_t b = 0; b < kBands; ++b) {
    bands[b].assign(sizes.begin() + static_cast<std::ptrdiff_t>(b * per_band),
                    sizes.begin() + static_cast<std::ptrdiff_t>((b + 1) * per_band));
    std::shuffle(bands[b].begin(), bands[b].end(), rng);
  }
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t g = 0; g < per_band; ++g) {
    std::array<std::uint32_t, kBands> group{};
    for (std::size_t b = 0; b < kBands; ++b) group[b] = bands[b][g];
    std::shuffle(group.begin(), group.end(), rng);
    for (std::uint32_t bytes : group) ops.push_back(Op{bytes, 1, 0, 0});
  }
  // Leftover sizes when n is not a multiple of the band count.
  for (std::size_t i = kBands * per_band; i < n; ++i) {
    ops.push_back(Op{sizes[i], 1, 0, 0});
  }
  for (Op& op : ops) {
    static constexpr std::uint32_t kSegments[] = {1, 2, 4};
    op.segments = kSegments[rng.next_below(3)];
    const std::size_t room = kPatternBytes - reach - op.bytes;
    op.off_a = rng.next_below(room) / align * align;
    op.off_b = rng.next_below(room) / align * align;
  }
  return ops;
}

std::vector<std::span<const std::byte>> split(std::span<const std::byte> data,
                                              std::uint32_t parts) {
  std::vector<std::span<const std::byte>> out;
  const std::size_t base = data.size() / parts;
  std::size_t at = 0;
  for (std::uint32_t p = 0; p < parts; ++p) {
    const std::size_t len = p + 1 == parts ? data.size() - at : base;
    out.push_back(data.subspan(at, len));
    at += len;
  }
  return out;
}

/// Snapshot a world's metrics; in threaded mode under the world progress
/// mutex (driver stats are plain cells written by progress threads).
obs::Snapshot snapshot(TwoNodeWorld& w) {
  std::unique_lock<std::mutex> lock;
  if (w.threaded()) lock = std::unique_lock<std::mutex>(w.sim().progress_mutex());
  obs::MetricsRegistry registry;
  w.register_metrics(registry);
  return registry.snapshot();
}
obs::Snapshot snapshot(CollWorld& w) {
  obs::MetricsRegistry registry;
  w.register_metrics(registry);
  return registry.snapshot();
}
sim::Engine& engine_of(TwoNodeWorld& w) { return w.sim().engine(); }
sim::Engine& engine_of(CollWorld& w) { return w.engine(); }

/// Measured-batch bookkeeping shared by every workload.
class Batch {
 public:
  template <typename World>
  Batch(RepStats& st, World& w) : st_(st) {
    before_ = snapshot(w);
    ev0_ = engine_of(w).events_fired();
    vt0_ = engine_of(w).now();
    cpu0_ = cpu_seconds();
    wall0_ = now_ns();
  }
  template <typename World>
  void finish(World& w) {
    wall1_ = now_ns();
    st_.cpu_s = cpu_seconds() - cpu0_;
    st_.wall_ns = wall1_ - wall0_;
    st_.wall_s = static_cast<double>(st_.wall_ns) * 1e-9;
    st_.vt_batch_us = sim::ns_to_us(engine_of(w).now() - vt0_);
    st_.events_total = engine_of(w).events_fired();
    st_.events = st_.events_total - ev0_;
    st_.final = snapshot(w);
    st_.delta = obs::delta(before_, st_.final);
  }
  [[nodiscard]] std::int64_t wall0() const noexcept { return wall0_; }
  [[nodiscard]] std::int64_t wall1() const noexcept { return wall1_; }

 private:
  RepStats& st_;
  obs::Snapshot before_;
  std::uint64_t ev0_ = 0;
  sim::TimeNs vt0_ = 0;
  double cpu0_ = 0.0;
  std::int64_t wall0_ = 0;
  std::int64_t wall1_ = 0;
};

/// The benchmark's calls into the Session API, each under a span when
/// traced.
struct Api {
  Tracer* tracer = nullptr;
  TwoNodeWorld* world = nullptr;
  Watchdog watchdog;

  void set_op(std::size_t i) {
    if (tracer != nullptr) tracer->set_op(static_cast<std::uint32_t>(i));
  }
  core::RecvHandle irecv(core::Session& s, core::GateId g, std::span<std::byte> buf) {
    Span span(tracer, SpanKind::kIrecv);
    return s.irecv(g, kTag, buf);
  }
  core::SendHandle isend(core::Session& s, core::GateId g,
                         std::span<const std::byte> data) {
    Span span(tracer, SpanKind::kIsend);
    return s.isend(g, kTag, data);
  }
  core::SendHandle isend_segments(core::Session& s, core::GateId g,
                                  std::vector<std::span<const std::byte>> segs) {
    Span span(tracer, SpanKind::kIsendSegments);
    return s.isend_segments(g, kTag, std::move(segs));
  }
  /// Session::wait, preceded in serial mode by a watchdog-bounded drive of
  /// the engine. False if the request failed or never settled. `stall`
  /// (fault injection) waits for a completion that never comes.
  template <typename Handle>
  bool wait(core::Session& s, const Handle& h, bool stall = false) {
    Span span(tracer, SpanKind::kWait);
    if (!world->threaded()) {
      watchdog.arm(stall ? 0 : kWaitBudgetNs);
      if (!world->drive([&] { return !stall && h->done(); }, watchdog)) return false;
    }
    s.wait(h);
    return h->completed();
  }
};

bool same_bytes(std::span<const std::byte> got, std::span<const std::byte> want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), want.size()) == 0;
}

/// Common skeleton of the two-node workloads: build, warm up, measure.
class TwoNodeWorkload : public Workload {
 public:
  TwoNodeWorkload(std::uint64_t seed, Inject inject)
      : pattern_(make_pattern(seed)), inject_(inject) {}

  RepStats run_rep(Tracer* tracer) override {
    RepStats st;
    const std::int64_t t0 = now_ns();
    std::unique_ptr<TwoNodeWorld> w =
        tracer != nullptr ? make_traced_world(config(), *tracer, st.sampling_s)
                          : make_platform_world(config());
    Api api{tracer, w.get(), {}};
    bool ok = true;
    try {
      ok = run_ops(api, warm_, st);
      st.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
      if (ok) {
        Batch batch(st, *w);
        ok = run_ops(api, ops_, st);
        batch.finish(*w);
        w.reset();  // join progress threads before reading their span logs
        if (tracer != nullptr) st.ledger = tracer->analyze(batch.wall0(), batch.wall1());
      }
    } catch (const LibraryPanic&) {
      st.failed += 1;
      ok = false;
    }
    st.aborted = !ok;
    return st;
  }

 protected:
  [[nodiscard]] virtual core::PlatformConfig config() const = 0;
  /// Run `ops`, recording per-op samples for the measured batch. Returns
  /// false if an op hung or failed (the repetition is then abandoned).
  virtual bool run_ops(Api& api, const std::vector<Op>& ops, RepStats& st) = 0;

  [[nodiscard]] std::span<const std::byte> payload(std::size_t off,
                                                   std::uint32_t bytes) const {
    return std::span<const std::byte>(pattern_).subspan(off, bytes);
  }
  /// Fault injection targets the middle op of the measured batch.
  [[nodiscard]] bool inject_at(const std::vector<Op>& ops, std::size_t i,
                               Inject kind) const {
    return inject_ == kind && &ops == &ops_ && i == ops_.size() / 2;
  }

  std::vector<std::byte> pattern_;
  Inject inject_;
  std::vector<Op> ops_;
  std::vector<Op> warm_;
};

// --- pingpong_small ----------------------------------------------------------

class PingPong final : public TwoNodeWorkload {
 public:
  PingPong(std::uint64_t seed, Inject inject) : TwoNodeWorkload(seed, inject) {
    util::Xoshiro256 rng(seed);
    ops_ = make_ops(rng, kPingPongOps, 4, 32 * 1024, 1, 0);
    warm_ = make_ops(rng, kPingPongWarm, 4, 32 * 1024, 1, 0);
    buf_a_.resize(32 * 1024);
    buf_b_.resize(32 * 1024);
  }
  bool serial() const override { return true; }

 private:
  core::PlatformConfig config() const override {
    return core::pin_serial(core::paper_platform("aggreg_greedy"));
  }

  bool run_ops(Api& api, const std::vector<Op>& ops, RepStats& st) override {
    TwoNodeWorld& w = *api.world;
    const bool measured = &ops == &ops_;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      api.set_op(i);
      st.ops += 1;
      const std::int64_t t0 = now_ns();
      const sim::TimeNs v0 = w.sim().now();
      const auto ping = payload(op.off_a, op.bytes);
      const auto pong = payload(op.off_b, op.bytes);
      const std::span<std::byte> in_b(buf_b_.data(), op.bytes);
      const std::span<std::byte> in_a(buf_a_.data(), op.bytes);

      core::RecvHandle rb = api.irecv(w.b(), w.gate_ba(), in_b);
      core::RecvHandle ra = api.irecv(w.a(), w.gate_ab(), in_a);
      core::SendHandle sa;
      if (!inject_at(ops, i, Inject::kDrop)) {
        sa = api.isend_segments(w.a(), w.gate_ab(), split(ping, op.segments));
      }
      if (!api.wait(w.b(), rb, inject_at(ops, i, Inject::kStall))) {
        st.failed += 1;
        return false;
      }
      if (inject_at(ops, i, Inject::kCorrupt)) in_b[op.bytes / 2] ^= std::byte{1};
      bool ok = rb->received_len() == op.bytes && same_bytes(in_b, ping);
      core::SendHandle sb =
          api.isend_segments(w.b(), w.gate_ba(), split(pong, op.segments));
      if (!api.wait(w.a(), ra) || sa == nullptr || !api.wait(w.a(), sa) ||
          !api.wait(w.b(), sb)) {
        st.failed += 1;
        return false;
      }
      ok = ok && ra->received_len() == op.bytes && same_bytes(in_a, pong);
      if (!ok) st.failed += 1;
      if (!measured) continue;
      st.payload_bytes += 2ull * op.bytes;
      st.op_vt_us.push_back(sim::ns_to_us(w.sim().now() - v0));
      st.op_wall_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    return true;
  }

  std::vector<std::byte> buf_a_;
  std::vector<std::byte> buf_b_;
};

// --- stream_large / threaded_rate -----------------------------------------

/// A one-way stream A -> B keeping `window` messages in flight: each op is
/// one message, timed from its post to its verified delivery.
class Stream : public TwoNodeWorkload {
 public:
  Stream(std::uint64_t seed, Inject inject, std::size_t window, std::uint32_t max_bytes)
      : TwoNodeWorkload(seed, inject), window_(window) {
    recv_.assign(window, std::vector<std::byte>(max_bytes));
  }

 private:
  struct Slot {
    core::RecvHandle recv;
    core::SendHandle send;
    std::int64_t t0 = 0;
    sim::TimeNs v0 = 0;
  };

  bool run_ops(Api& api, const std::vector<Op>& ops, RepStats& st) override {
    TwoNodeWorld& w = *api.world;
    const bool measured = &ops == &ops_;
    std::vector<Slot> slots(window_);
    auto post = [&](std::size_t i) {
      Slot& s = slots[i % window_];
      const Op& op = ops[i];
      api.set_op(i);
      st.ops += 1;
      s.t0 = now_ns();
      s.v0 = w.sim().now();
      s.recv = api.irecv(w.b(), w.gate_ba(),
                         std::span<std::byte>(recv_[i % window_].data(), op.bytes));
      s.send = inject_at(ops, i, Inject::kDrop)
                   ? nullptr
                   : api.isend(w.a(), w.gate_ab(), payload(op.off_a, op.bytes));
    };
    const std::size_t n = ops.size();
    for (std::size_t i = 0; i < std::min(window_, n); ++i) post(i);
    for (std::size_t i = 0; i < n; ++i) {
      Slot& s = slots[i % window_];
      const Op& op = ops[i];
      const bool delivered = api.wait(w.b(), s.recv, inject_at(ops, i, Inject::kStall));
      if (!delivered || s.send == nullptr || !api.wait(w.a(), s.send)) {
        // The op and everything still in flight behind it are lost.
        st.failed += measured ? std::min(window_, n - i) : 1;
        return false;
      }
      const std::span<std::byte> in(recv_[i % window_].data(), op.bytes);
      if (inject_at(ops, i, Inject::kCorrupt)) in[op.bytes / 2] ^= std::byte{1};
      const bool ok = s.recv->received_len() == op.bytes &&
                      same_bytes(in, payload(op.off_a, op.bytes));
      if (!ok) st.failed += 1;
      if (measured) {
        st.payload_bytes += op.bytes;
        st.op_vt_us.push_back(sim::ns_to_us(w.sim().now() - s.v0));
        st.op_wall_us.push_back(static_cast<double>(now_ns() - s.t0) * 1e-3);
      }
      if (i + window_ < n) post(i + window_);
    }
    return true;
  }

  std::size_t window_;
  std::vector<std::vector<std::byte>> recv_;
};

class StreamLarge final : public Stream {
 public:
  StreamLarge(std::uint64_t seed, Inject inject)
      : Stream(seed, inject, kStreamWindow, 8u << 20) {
    util::Xoshiro256 rng(seed);
    ops_ = make_ops(rng, kStreamOps, 64 * 1024, 8u << 20, 1, 0);
    warm_ = make_ops(rng, kStreamWarm, 64 * 1024, 8u << 20, 1, 0);
  }
  bool serial() const override { return true; }

 private:
  core::PlatformConfig config() const override {
    strat::StrategyConfig cfg;
    cfg.reliability.ack_enabled = true;
    core::PlatformConfig pc =
        core::pin_serial(core::paper_platform("split_balance", cfg));
    pc.sampled_ratios = true;
    return pc;
  }
};

class ThreadedRate final : public Stream {
 public:
  ThreadedRate(std::uint64_t seed, Inject inject)
      : Stream(seed, inject, kRateWindow, kRateMaxBytes) {
    util::Xoshiro256 rng(seed);
    const auto bytes = static_cast<std::uint32_t>(
        kRateMinBytes + rng.next_below(kRateMaxBytes - kRateMinBytes + 1));
    ops_ = make_ops(rng, kRateOps, bytes, bytes, 1, 0);
    warm_ = make_ops(rng, kRateWarm, bytes, bytes, 1, 0);
  }
  bool serial() const override { return false; }

 private:
  core::PlatformConfig config() const override {
    core::PlatformConfig pc = core::paper_platform("aggreg_greedy");
    pc.progress_mode = core::ProgressMode::kThreaded;
    pc.progress_threads = 1;  // 1 app + 2 progress threads on 4 cores
    return pc;
  }
};

// --- allreduce_hier ----------------------------------------------------------

class AllreduceHier final : public Workload {
 public:
  AllreduceHier(std::uint64_t seed, Inject inject)
      : pattern_(make_pattern(seed)), inject_(inject) {
    util::Xoshiro256 rng(seed);
    const std::size_t reach = (kCollRanks - 1) * kCollRankStride;
    ops_ = make_ops(rng, kCollOps, 8, kCollMaxBytes, 8, reach);
    warm_ = make_ops(rng, kCollWarm, kCollMaxBytes, kCollMaxBytes, 8, reach);
    results_.assign(kCollRanks, std::vector<std::byte>(kCollMaxBytes));
    expect_.resize(kCollMaxBytes);
  }
  bool serial() const override { return true; }

  RepStats run_rep(Tracer* tracer) override {
    RepStats st;
    const std::int64_t t0 = now_ns();
    std::unique_ptr<CollWorld> w =
        tracer != nullptr ? make_traced_coll_world(config(), *tracer, st.sampling_s)
                          : make_platform_coll_world(config());
    Watchdog watchdog;
    const coll::DriveHooks hooks = w->hooks(watchdog);
    bool ok = run_ops(*w, hooks, watchdog, warm_, nullptr, st);
    st.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
    if (ok) {
      Batch batch(st, *w);
      ok = run_ops(*w, hooks, watchdog, ops_, tracer, st);
      batch.finish(*w);
      w.reset();
      if (tracer != nullptr) st.ledger = tracer->analyze(batch.wall0(), batch.wall1());
    }
    st.aborted = !ok;
    return st;
  }

 private:
  static core::MultiNodeConfig config() {
    core::MultiNodeConfig cfg;
    cfg.nodes = kCollRanks;
    cfg.links = {netmodel::gige_tcp()};            // slow cross-host rail
    cfg.intra_host_links = {netmodel::myri10g()};  // fast same-host rail
    cfg.strategy = "single_rail";
    for (std::size_t r = 0; r < kCollRanks; ++r) cfg.hosts.push_back(r / kCollHostSize);
    cfg.lazy = true;
    cfg.progress_mode = core::ProgressMode::kSerial;
    return cfg;
  }

  bool run_ops(CollWorld& w, const coll::DriveHooks& hooks, Watchdog& watchdog,
               const std::vector<Op>& ops, Tracer* tracer, RepStats& st) {
    const bool measured = &ops == &ops_;
    const coll::CombineFn sum = coll::combine_fn<std::uint64_t>(coll::ReduceKind::kSum);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i];
      const bool at = measured && i == ops.size() / 2;
      if (tracer != nullptr) tracer->set_op(static_cast<std::uint32_t>(i));
      st.ops += 1;
      const std::int64_t t0 = now_ns();
      const sim::TimeNs v0 = w.engine().now();
      auto contrib = [&](std::size_t r) {
        return std::span<const std::byte>(pattern_).subspan(
            op.off_a + r * kCollRankStride, op.bytes);
      };
      std::vector<coll::CollHandle> handles;
      for (std::size_t r = 0; r < w.size(); ++r) {
        if (at && inject_ == Inject::kDrop && r == 0) continue;
        Span span(tracer, SpanKind::kCollPost);
        handles.push_back(w.comm(r).iallreduce(
            contrib(r), std::span<std::byte>(results_[r].data(), op.bytes), sum,
            sizeof(std::uint64_t)));
      }
      bool done = false;
      {
        Span span(tracer, SpanKind::kCollWait);
        watchdog.arm(at && inject_ == Inject::kStall ? 0 : kWaitBudgetNs);
        done = coll::wait_all(handles, hooks);
      }
      if (!done) {
        st.failed += 1;
        return false;
      }
      // Expected sum, element by element (wrapping u64 arithmetic).
      for (std::size_t e = 0; e < op.bytes; e += sizeof(std::uint64_t)) {
        std::uint64_t acc = 0;
        for (std::size_t r = 0; r < w.size(); ++r) {
          std::uint64_t v = 0;
          std::memcpy(&v, contrib(r).data() + e, sizeof(v));
          acc += v;
        }
        std::memcpy(expect_.data() + e, &acc, sizeof(acc));
      }
      if (at && inject_ == Inject::kCorrupt) results_[0][op.bytes / 2] ^= std::byte{1};
      bool ok = true;
      for (std::size_t r = 0; r < w.size(); ++r) {
        ok = ok && same_bytes(std::span<const std::byte>(results_[r].data(), op.bytes),
                              std::span<const std::byte>(expect_.data(), op.bytes));
      }
      if (!ok) st.failed += 1;
      if (!measured) continue;
      st.payload_bytes += std::uint64_t{op.bytes} * w.size();
      st.op_vt_us.push_back(sim::ns_to_us(w.engine().now() - v0));
      st.op_wall_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    return true;
  }

  std::vector<std::byte> pattern_;
  Inject inject_;
  std::vector<Op> ops_;
  std::vector<Op> warm_;
  std::vector<std::vector<std::byte>> results_;
  std::vector<std::byte> expect_;
};

}  // namespace

[[noreturn]] void throw_library_panic(std::string_view msg) {
  throw LibraryPanic(std::string(msg));
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"pingpong_small", "stream_large",
                                                 "threaded_rate", "allreduce_hier"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Inject inject) {
  if (name == "pingpong_small") return std::make_unique<PingPong>(seed, inject);
  if (name == "stream_large") return std::make_unique<StreamLarge>(seed, inject);
  if (name == "threaded_rate") return std::make_unique<ThreadedRate>(seed, inject);
  if (name == "allreduce_hier") return std::make_unique<AllreduceHier>(seed, inject);
  return nullptr;
}

}  // namespace perfbench
