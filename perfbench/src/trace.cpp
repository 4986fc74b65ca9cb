#include "trace.hpp"

#include <utility>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_tracer_ids{1};

/// This thread's log in the tracer it last recorded into. Tracer ids are
/// never reused, so a stale entry can never alias a newer tracer.
struct LocalLog {
  std::uint64_t tracer = 0;
  void* log = nullptr;
};
thread_local LocalLog tls_log;

}  // namespace

const char* span_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kStep: return "sim.step";
    case SpanKind::kPostSend: return "drv.post_send";
    case SpanKind::kDeliver: return "core.deliver";
    case SpanKind::kSent: return "core.on_sent";
    case SpanKind::kPump: return "core.pump";
    case SpanKind::kTimer: return "core.timer";
    case SpanKind::kIsend: return "api.isend";
    case SpanKind::kIrecv: return "api.irecv";
    case SpanKind::kIsendSegments: return "api.isend_segments";
    case SpanKind::kWait: return "api.wait";
    case SpanKind::kCollPost: return "coll.iallreduce";
    case SpanKind::kCollWait: return "coll.wait_all";
    case SpanKind::kCount: break;
  }
  return "?";
}

Tracer::Tracer()
    : id_(g_tracer_ids.fetch_add(1, std::memory_order_relaxed)),
      app_thread_(std::this_thread::get_id()) {}

Tracer::ThreadLog& Tracer::local() {
  if (tls_log.tracer == id_) return *static_cast<ThreadLog*>(tls_log.log);
  auto log = std::make_unique<ThreadLog>();
  log->app = std::this_thread::get_id() == app_thread_;
  log->records.reserve(log->app ? (1u << 20) : (1u << 16));
  ThreadLog* raw = log.get();
  {
    std::lock_guard<std::mutex> lock(logs_mu_);
    logs_.push_back(std::move(log));
  }
  tls_log = LocalLog{id_, raw};
  return *raw;
}

std::int32_t Tracer::open(SpanKind kind, std::size_t bytes) {
  ThreadLog& log = local();
  SpanRecord rec;
  rec.parent = log.top;
  rec.op = op_.load(std::memory_order_relaxed);
  rec.bytes = static_cast<std::uint32_t>(bytes);
  rec.kind = kind;
  const auto index = static_cast<std::int32_t>(log.records.size());
  log.top = index;
  rec.start_ns = now_ns();
  log.records.push_back(rec);
  return index;
}

void Tracer::close(std::int32_t index) {
  const std::int64_t t = now_ns();
  ThreadLog& log = local();
  SpanRecord& rec = log.records[static_cast<std::size_t>(index)];
  rec.end_ns = t;
  log.top = rec.parent;
}

Ledger Tracer::analyze(std::int64_t t0, std::int64_t t1) const {
  Ledger out;
  for (const auto& log : logs_) {
    const std::vector<SpanRecord>& recs = log->records;
    auto& totals = log->app ? out.app : out.helpers;
    std::int64_t& roots = log->app ? out.app_roots_ns : out.helper_roots_ns;
    if (!log->app) ++out.helper_threads;
    if (log->app && log->top != -1) out.balanced = false;
    // Children close before their parent and sit after it in the log, so
    // one backward pass accumulates every child's duration into its parent.
    std::vector<std::int64_t> child_ns(recs.size(), 0);
    for (std::size_t i = recs.size(); i-- > 0;) {
      const SpanRecord& r = recs[i];
      if (r.end_ns == 0) continue;  // still open (helper thread mid-span)
      const std::int64_t dur = r.end_ns - r.start_ns;
      if (r.parent >= 0) child_ns[static_cast<std::size_t>(r.parent)] += dur;
      const bool inside = r.start_ns >= t0 && r.end_ns <= t1;
      const bool outside = r.end_ns < t0 || r.start_ns > t1;
      if (!inside) {
        if (log->app && !outside) out.balanced = false;
        continue;
      }
      KindTotals& k = totals[static_cast<std::size_t>(r.kind)];
      k.self_ns += dur - child_ns[i];
      k.count += 1;
      k.bytes += r.bytes;
      if (r.parent < 0) roots += dur;
      if (log->app) out.app_self_ns += dur - child_ns[i];
      if (r.kind == SpanKind::kPostSend) out.frame_bytes.push_back(r.bytes);
    }
  }
  return out;
}

void TracingDriver::post_send(nmad::drv::SendDesc desc, Callback on_sent) {
  const std::size_t bytes = desc.frame_size();
  Span span(&tracer_, SpanKind::kPostSend, bytes);
  if (on_sent) {
    on_sent = [tracer = &tracer_, bytes, inner = std::move(on_sent)] {
      Span sent(tracer, SpanKind::kSent, bytes);
      inner();
    };
  }
  inner_.post_send(std::move(desc), std::move(on_sent));
}

void TracingDriver::set_deliver(DeliverFn deliver) {
  inner_.set_deliver([tracer = &tracer_, inner = std::move(deliver)](
                         nmad::drv::Track track,
                         std::span<const std::byte> frame) {
    Span span(tracer, SpanKind::kDeliver, frame.size());
    inner(track, frame);
  });
}

}  // namespace perfbench
