// perfbench: host-cost benchmark of the nmad library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the workload through the public platforms and prints the
// end-to-end metrics; --trace 1 alternates untraced and traced
// repetitions and prints the per-layer ledger. The last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"};
// progress and a readable summary go to standard error. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "proto/crc32c.hpp"
#include "util/panic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using nmad::obs::Snapshot;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Inject inject = Inject::kNone;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--inject") {
      if (val == "corrupt") a.inject = Inject::kCorrupt;
      else if (val == "drop") a.inject = Inject::kDrop;
      else if (val == "stall") a.inject = Inject::kStall;
      else usage("unknown --inject (corrupt | drop | stall)");
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 120.0)) usage("--seconds out of range");
  return a;
}

// Serial waits carry their own wall-clock deadline and the threaded wait
// has the library's stall watchdog; its panic (or any library assertion)
// on the application thread unwinds the failing wait as a counted failure.
// A panic on a progress thread cannot be unwound: it aborts the run.
std::thread::id g_app_thread;

[[noreturn]] void on_panic(std::string_view msg) {
  if (std::this_thread::get_id() == g_app_thread) throw_library_panic(msg);
  std::fprintf(stderr, "perfbench: library panic on a progress thread: %.*s\n",
               static_cast<int>(msg.size()), msg.data());
  std::abort();
}

// --- statistics ----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

template <typename F>
double median_of(const std::vector<RepStats>& reps, F f) {
  std::vector<double> v;
  for (const RepStats& r : reps) v.push_back(f(r));
  return median(std::move(v));
}

double ops_per_s(const RepStats& r) {
  return static_cast<double>(r.op_wall_us.size()) / r.wall_s;
}

/// Sum of the counters whose name ends with `suffix` and contains `part`.
double sum_counters(const Snapshot& s, const std::string& part,
                    const std::string& suffix) {
  double total = 0.0;
  for (const auto& [name, value] : s.counters) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0 &&
        name.find(part) != std::string::npos) {
      total += static_cast<double>(value);
    }
  }
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool same_snapshot(const Snapshot& x, const Snapshot& y) {
  if (x.counters != y.counters || x.labels != y.labels) return false;
  if (x.gauges.size() != y.gauges.size() || x.histograms.size() != y.histograms.size()) {
    return false;
  }
  for (const auto& [name, g] : x.gauges) {
    auto it = y.gauges.find(name);
    if (it == y.gauges.end() || it->second.value != g.value ||
        it->second.high_water != g.high_water) {
      return false;
    }
  }
  for (const auto& [name, h] : x.histograms) {
    auto it = y.histograms.find(name);
    if (it == y.histograms.end() || it->second.count != h.count ||
        it->second.sum != h.sum || it->second.buckets != h.buckets) {
      return false;
    }
  }
  return true;
}

/// Same virtual times, event counts and metrics: the two repetitions ran
/// the same program on the same inputs.
bool same_model(const RepStats& x, const RepStats& y) {
  return x.op_vt_us == y.op_vt_us && x.events_total == y.events_total &&
         same_snapshot(x.final, y.final);
}

// --- output ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Per-op latency percentile. When one repetition holds enough ops for
/// the p99 to have ten samples beyond it, the percentile of each repetition
/// is taken and the median over repetitions reported (every repetition runs
/// the same batch, so one disturbed by the host cannot drag the tail);
/// smaller batches pool the ops of every repetition.
double op_percentile(const std::vector<RepStats>& reps, bool virtual_time, double q) {
  auto samples = [&](const RepStats& r) -> const std::vector<double>& {
    return virtual_time ? r.op_vt_us : r.op_wall_us;
  };
  if (samples(reps.front()).size() >= 1000) {
    return median_of(reps, [&](const RepStats& r) { return percentile(samples(r), q); });
  }
  std::vector<double> pooled;
  for (const RepStats& r : reps) {
    pooled.insert(pooled.end(), samples(r).begin(), samples(r).end());
  }
  return percentile(std::move(pooled), q);
}

std::vector<Metric> end_to_end(const std::vector<RepStats>& reps) {
  return {
      {"setup_s", median_of(reps, [](const RepStats& r) { return r.setup_s; }), "s"},
      {"ops_per_s", median_of(reps, ops_per_s), "1/s"},
      {"payload_MBps",
       median_of(reps, [](const RepStats& r) {
         return static_cast<double>(r.payload_bytes) / r.wall_s * 1e-6;
       }),
       "MB/s"},
      {"op_wall_us_p50", op_percentile(reps, false, 0.50), "us"},
      {"op_wall_us_p99", op_percentile(reps, false, 0.99), "us"},
      {"cpu_us_per_op",
       median_of(reps, [](const RepStats& r) {
         return r.cpu_s * 1e6 / static_cast<double>(r.op_wall_us.size());
       }),
       "us"},
      {"peak_rss_MB", peak_rss_mb(), "MB"},
      {"vt_op_us_p50", op_percentile(reps, true, 0.50), "us"},
      {"vt_op_us_p99", op_percentile(reps, true, 0.99), "us"},
      {"vt_goodput_MBps",
       median_of(reps, [](const RepStats& r) {
         return static_cast<double>(r.payload_bytes) / r.vt_batch_us;
       }),
       "MB/s"},
  };
}

/// proto::crc32c over buffers of the traced frames' sizes: the library
/// runs CRC32C once on send and once on receive per frame, so this is half
/// of the run's computed CRC time. Returns ns for one pass.
double crc_replay_ns(const std::vector<std::uint32_t>& frames, std::uint64_t& bytes) {
  bytes = 0;
  if (frames.empty()) return 0.0;
  std::vector<std::byte> buf(*std::max_element(frames.begin(), frames.end()));
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::byte>(i * 131u);
  std::uint32_t fold = 0;  // crc32c lives in the library: calls are not elided
  const std::int64_t t0 = now_ns();
  for (std::uint32_t n : frames) {
    fold ^= nmad::proto::crc32c(std::span<const std::byte>(buf.data(), n));
    bytes += n;
  }
  const std::int64_t t1 = now_ns();
  (void)fold;
  return static_cast<double>(t1 - t0);
}

/// Per-layer metrics of one traced repetition (see README.md).
std::vector<Metric> layer_metrics(const RepStats& r) {
  const Ledger& L = r.ledger;
  // Totals of one span kind over every thread, as doubles.
  struct Totals {
    double self_ns, count, bytes;
  };
  auto tot = [&](SpanKind k) {
    const KindTotals& a = L.app[static_cast<std::size_t>(k)];
    const KindTotals& h = L.helpers[static_cast<std::size_t>(k)];
    return Totals{static_cast<double>(a.self_ns + h.self_ns),
                  static_cast<double>(a.count + h.count),
                  static_cast<double>(a.bytes + h.bytes)};
  };
  auto per_kb = [](double ns, double bytes) { return ratio(ns, bytes / 1024.0); };
  const double ops = static_cast<double>(r.op_wall_us.size());
  const double wall = static_cast<double>(r.wall_ns);
  const double helpers = static_cast<double>(L.helper_threads);
  const double thread_ns = wall * (1.0 + helpers);  // traced thread time
  const double payload = static_cast<double>(r.payload_bytes);
  const Totals post = tot(SpanKind::kPostSend);
  const Totals deliver = tot(SpanKind::kDeliver);
  const Totals sent = tot(SpanKind::kSent);
  const Totals step = tot(SpanKind::kStep);
  const Totals wait = tot(SpanKind::kWait);
  const Totals pump = tot(SpanKind::kPump);
  const Totals timer = tot(SpanKind::kTimer);
  const Totals isend = tot(SpanKind::kIsend);
  const Totals irecv = tot(SpanKind::kIrecv);
  const Totals isegs = tot(SpanKind::kIsendSegments);
  const double submit_ns = isend.self_ns + irecv.self_ns + isegs.self_ns;
  const double submit_calls = isend.count + irecv.count + isegs.count;
  const double core_ns = submit_ns + deliver.self_ns + sent.self_ns + wait.self_ns +
                        pump.self_ns + timer.self_ns;
  const double coll_ns =
      tot(SpanKind::kCollPost).self_ns + tot(SpanKind::kCollWait).self_ns;
  std::uint64_t crc_bytes = 0;
  const double crc_ns = crc_replay_ns(L.frame_bytes, crc_bytes);
  const Snapshot& d = r.delta;
  const double small = sum_counters(d, ".strat.", ".small_submitted");
  const double eager = sum_counters(d, ".strat.", ".aggregation_hits") +
                       sum_counters(d, ".strat.", ".aggregation_misses");
  const double pool_hits = sum_counters(d, ".pool.", "_hits");
  const double pool_misses = sum_counters(d, ".pool.", "_misses");
  const double staged = sum_counters(d, ".rail", ".bytes_copied");
  return {
      {"core.submit_ns_per_call", ratio(submit_ns, submit_calls), "ns/call"},
      {"core.deliver_self_ns_per_frame", ratio(deliver.self_ns, deliver.count),
       "ns/frame"},
      {"core.deliver_self_ns_per_KB", per_kb(deliver.self_ns, deliver.bytes), "ns/KB"},
      {"core.sent_self_ns_per_frame", ratio(sent.self_ns, sent.count), "ns/frame"},
      {"core.sent_self_ns_per_KB", per_kb(sent.self_ns, sent.bytes), "ns/KB"},
      {"core.share", core_ns / thread_ns, "fraction"},
      {"core.wait_ns_per_op", ratio(wait.self_ns, ops), "ns/op"},
      {"core.progress.busy_share",
       ratio(static_cast<double>(L.helper_roots_ns), wall * helpers), "fraction"},
      {"core.progress.submit_stalls", sum_counters(d, ".progress.", "submit.stalls"),
       "count"},
      {"core.progress.ring_overflows", sum_counters(d, ".progress.", "ring.overflows"),
       "count"},
      {"core.rail_guard.acks_per_frame", ratio(sum_counters(d, ".rail", ".acks_sent"),
                                               post.count), "acks/frame"},
      {"core.rail_guard.retransmits_per_op",
       ratio(sum_counters(d, ".rail", ".retransmits"), ops), "count/op"},
      {"proto.crc_ns_per_KB", per_kb(crc_ns, static_cast<double>(crc_bytes)), "ns/KB"},
      {"proto.crc_share", 2.0 * crc_ns / thread_ns, "fraction"},
      {"proto.frames_per_op", ratio(post.count, ops), "frames/op"},
      {"proto.wire_bytes_per_payload_byte", ratio(post.bytes, payload), "B/B"},
      {"proto.pool_hit_ratio", ratio(pool_hits, pool_hits + pool_misses), "fraction"},
      {"drv.post_send_ns_per_frame", ratio(post.self_ns, post.count), "ns/frame"},
      {"drv.post_send_ns_per_KB", per_kb(post.self_ns, post.bytes), "ns/KB"},
      {"drv.share", post.self_ns / thread_ns, "fraction"},
      {"drv.bytes_copied_per_payload_byte", ratio(post.bytes + staged, payload), "B/B"},
      {"drv.allocs_hot_path_per_op",
       ratio(sum_counters(d, ".rail", ".allocs_hot_path"), ops), "allocs/op"},
      {"sim.self_ns_per_event", ratio(step.self_ns, step.count), "ns/event"},
      {"sim.events_per_op", ratio(static_cast<double>(r.events), ops), "events/op"},
      {"sim.share", step.self_ns / thread_ns, "fraction"},
      {"strat.aggregation_ratio", ratio(small, eager), "seg/pkt"},
      {"strat.chunks_per_large_msg",
       ratio(sum_counters(d, ".strat.", ".chunks_created"),
             sum_counters(d, ".strat.", ".large_submitted")),
       "chunks/msg"},
      {"coll.post_ns_per_op", ratio(coll_ns, ops), "ns/op"},
      {"coll.rounds_per_op", ratio(sum_counters(d, "", ".rounds"), ops), "rounds/op"},
      {"coll.inter_sends_per_op", ratio(sum_counters(d, "", ".level_inter_sends"), ops),
       "sends/op"},
      {"sampling.setup_s", r.sampling_s, "s"},
      {"bench.residual_share", static_cast<double>(r.wall_ns - L.app_roots_ns) / wall,
       "fraction"},
  };
}

/// The raw span ledger of one traced repetition, for readers of stderr.
void print_spans(const RepStats& r) {
  std::fprintf(stderr, "  %-20s %10s %12s %10s  (first traced repetition)\n", "span",
               "count", "self_ms", "share");
  const double wall = static_cast<double>(r.wall_ns);
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    const KindTotals& a = r.ledger.app[k];
    const KindTotals& h = r.ledger.helpers[k];
    if (a.count + h.count == 0) continue;
    const double self = static_cast<double>(a.self_ns + h.self_ns);
    std::fprintf(stderr, "  %-20s %10llu %12.3f %10.4f\n",
                 span_name(static_cast<SpanKind>(k)),
                 static_cast<unsigned long long>(a.count + h.count), self * 1e-6,
                 self / (wall * static_cast<double>(1 + r.ledger.helper_threads)));
  }
}

/// Metrics that count work rather than time it: on serial workloads they
/// must repeat exactly for one seed.
bool is_count(const std::string& name) {
  static const char* const kCounts[] = {
      "sim.events_per_op", "proto.frames_per_op", "proto.wire_bytes_per_payload_byte",
      "strat.aggregation_ratio", "strat.chunks_per_large_msg", "coll.rounds_per_op",
      "coll.inter_sends_per_op", "core.rail_guard.acks_per_frame",
      "core.rail_guard.retransmits_per_op", "proto.pool_hit_ratio",
      "drv.bytes_copied_per_payload_byte", "drv.allocs_hot_path_per_op"};
  for (const char* c : kCounts) {
    if (name == c) return true;
  }
  return false;
}

/// The host stamp a ledger is recorded with.
std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown CPU";
  char line[256];
  std::string model = "unknown CPU";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* value = std::strchr(line, ':');
      if (value != nullptr) {
        value += std::strspn(value + 1, " \t") + 1;
        model.assign(value, std::strcspn(value, "\n"));
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

int run(const Args& args) {
  std::unique_ptr<Workload> wl = make_workload(args.workload, args.seed, args.inject);
  if (wl == nullptr) usage(("unknown workload " + args.workload).c_str());

  const std::int64_t start = now_ns();
  const auto elapsed = [&] { return static_cast<double>(now_ns() - start) * 1e-9; };
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Metrics come from completed repetitions only; an abandoned one counts
  // in attempted / failed.
  auto keep = [&](std::vector<RepStats>& into, RepStats r) {
    attempted += r.ops;
    failed += r.failed;
    if (r.aborted || r.failed != 0) correct = false;
    if (!r.aborted) into.push_back(std::move(r));
  };

  std::vector<RepStats> plain;
  std::vector<RepStats> traced;
  // Repetitions continue while another one fits in the budget; a failed
  // repetition ends the run (a deterministic fault would repeat).
  double last = 0.0;
  while (correct && (plain.size() < 3 || elapsed() + last <= args.seconds)) {
    const double t0 = elapsed();
    keep(plain, wl->run_rep(nullptr));
    if (args.trace && correct) {
      Tracer tracer;
      keep(traced, wl->run_rep(&tracer));
    }
    last = elapsed() - t0;
  }
  std::fprintf(stderr, "perfbench: %s seed=%llu reps=%zu traced=%zu wall=%.2fs\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               plain.size(), traced.size(), elapsed());
  std::fprintf(stderr, "perfbench: host %s, nproc %u, build %s\n", cpu_model().c_str(),
               std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);

  if (wl->serial() && !plain.empty()) {
    // Deterministic model: every repetition reproduces the first one's
    // virtual times, events and counters — traced ones included.
    for (const auto* set : {&plain, &traced}) {
      for (const RepStats& r : *set) {
        if (!same_model(plain.front(), r)) {
          std::fprintf(stderr, "perfbench: repetition diverged from the first one\n");
          correct = false;
        }
      }
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace && !plain.empty()) {
    metrics = end_to_end(plain);
  } else if (args.trace && !traced.empty()) {
    // Timings: median over traced repetitions. Counts: the first
    // repetition's, which every later one must repeat exactly (serial).
    std::vector<std::vector<Metric>> per;
    for (const RepStats& r : traced) {
      // Self times partition the root spans, so layers + residual must
      // account for the batch wall time to the nanosecond.
      if (!r.ledger.balanced || r.ledger.app_self_ns != r.ledger.app_roots_ns ||
          r.ledger.app_roots_ns > r.wall_ns) {
        std::fprintf(stderr, "perfbench: span ledger does not reconcile\n");
        correct = false;
      }
      per.push_back(layer_metrics(r));
    }
    print_spans(traced.front());
    metrics = per.front();
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      std::vector<double> values;
      for (const auto& rep : per) values.push_back(rep[m].value);
      if (!is_count(metrics[m].name)) {
        metrics[m].value = median(values);
      } else if (wl->serial() &&
                 std::any_of(values.begin(), values.end(),
                             [&](double v) { return v != values.front(); })) {
        std::fprintf(stderr, "perfbench: count %s changed between repetitions\n",
                     metrics[m].name.c_str());
        correct = false;
      }
    }
    metrics.push_back({"bench.trace_overhead",
                       median_of(plain, ops_per_s) / median_of(traced, ops_per_s), "x"});
  }
  print_result(correct, std::max<std::uint64_t>(attempted, 1), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  g_app_thread = std::this_thread::get_id();
  nmad::util::set_panic_hook(&on_panic);
  return run(args);
}
