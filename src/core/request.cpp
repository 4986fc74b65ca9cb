#include "core/request.hpp"

#include <algorithm>
#include <cstring>

#include "util/panic.hpp"

namespace nmad::core {

// State transitions run on the progression engine (serialized by its lock
// in threaded mode), so the read-check-write sequences below are
// single-writer; the release store publishes every side effect (delivered
// bytes, the scatter copy, received_len_, completion_time_) to application
// threads that observe done() with an acquire load.

RecvRequest::RecvRequest(Tag tag, std::vector<std::span<std::byte>> segments)
    : tag_(tag), scatter_(std::move(segments)) {
  std::size_t total = 0;
  for (const auto& seg : scatter_) total += seg.size();
  staging_.resize(total);
  buffer_ = staging_;
}

void SendRequest::credit_sent(std::uint32_t bytes, sim::TimeNs now) {
  const RequestState st = state_.load(std::memory_order_relaxed);
  if (st == RequestState::kFailed) return;  // stale credit after failover
  NMAD_ASSERT(st == RequestState::kPending, "credit on completed send");
  const std::uint32_t sent =
      bytes_sent_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  NMAD_ASSERT(sent <= total_len_, "send credited beyond message length");
  if (sent == total_len_) {
    completion_time_.store(now, std::memory_order_relaxed);
    state_.store(RequestState::kCompleted, std::memory_order_release);
  }
}

void SendRequest::fail(sim::TimeNs now) {
  if (state_.load(std::memory_order_relaxed) != RequestState::kPending) return;
  completion_time_.store(now, std::memory_order_relaxed);
  state_.store(RequestState::kFailed, std::memory_order_release);
}

void RecvRequest::complete(std::uint32_t received_len, sim::TimeNs now) {
  NMAD_ASSERT(state_.load(std::memory_order_relaxed) == RequestState::kPending,
              "double completion of recv");
  NMAD_ASSERT(received_len <= buffer_.size(), "received more than buffer holds");
  std::size_t offset = 0;
  for (const auto& seg : scatter_) {
    if (offset >= received_len) break;
    const std::size_t n = std::min<std::size_t>(seg.size(), received_len - offset);
    std::memcpy(seg.data(), staging_.data() + offset, n);
    offset += n;
  }
  received_len_.store(received_len, std::memory_order_relaxed);
  completion_time_.store(now, std::memory_order_relaxed);
  state_.store(RequestState::kCompleted, std::memory_order_release);
}

void RecvRequest::fail(sim::TimeNs now) {
  if (state_.load(std::memory_order_relaxed) != RequestState::kPending) return;
  completion_time_.store(now, std::memory_order_relaxed);
  state_.store(RequestState::kFailed, std::memory_order_release);
}

}  // namespace nmad::core
