// Non-blocking communication requests (the collect layer's currency).
//
// A request is created by Session::isend / Session::irecv and completed
// asynchronously by the scheduling layer. Handles returned to the
// application are shared_ptrs; the scheduler keeps raw pointers that are
// guaranteed valid because the Session retains every live request until
// completion.
//
// Thread model: under the threaded progression engine the application
// thread polls done()/completed()/failed() while a progress thread settles
// the request. The state is therefore an atomic, written with release and
// read with acquire ordering so everything the engine wrote before settling
// (received bytes in the user buffer, received_len_, completion_time_) is
// visible to the application once done() returns true — for a scatter
// receive that includes the copy into its segments. The auxiliary cells
// (bytes_sent_, received_len_, completion_time_, seq_) are relaxed atomics:
// they are single-writer (the progression engine, serialized by its lock)
// and carry no synchronization duty of their own.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace nmad::core {

enum class RequestState : std::uint8_t {
  kPending,    ///< submitted, data still moving
  kCompleted,  ///< all data locally sent / fully received
  kFailed,     ///< every rail of the request's gate died before completion
};

class SendRequest {
 public:
  SendRequest(Tag tag, std::vector<ConstSegment> segments,
              std::uint32_t total_len)
      : tag_(tag), segments_(std::move(segments)), total_len_(total_len) {}

  [[nodiscard]] Tag tag() const noexcept { return tag_; }
  /// Send ordinal for this (gate, tag) stream. Assigned when the scheduler
  /// accepts the submission — in threaded mode that is on a progress
  /// thread, in ring order, so it always matches application post order.
  [[nodiscard]] MsgSeq seq() const noexcept {
    return seq_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] MsgKey key() const noexcept { return MsgKey{tag_, seq()}; }
  [[nodiscard]] const std::vector<ConstSegment>& segments() const noexcept {
    return segments_;
  }
  [[nodiscard]] std::uint32_t total_len() const noexcept { return total_len_; }

  [[nodiscard]] bool completed() const noexcept {
    return state_.load(std::memory_order_acquire) == RequestState::kCompleted;
  }
  [[nodiscard]] bool failed() const noexcept {
    return state_.load(std::memory_order_acquire) == RequestState::kFailed;
  }
  /// Settled either way — the state a wait() terminates on.
  [[nodiscard]] bool done() const noexcept {
    return state_.load(std::memory_order_acquire) != RequestState::kPending;
  }
  /// Virtual time of local completion; -1 while pending.
  [[nodiscard]] sim::TimeNs completion_time() const noexcept {
    return completion_time_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t bytes_sent() const noexcept {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] GateId gate() const noexcept { return gate_; }

  // --- scheduling-layer interface ----------------------------------------
  /// Bind the per-(gate, tag) sequence number (set once at submission).
  void assign_seq(MsgSeq seq) noexcept {
    seq_.store(seq, std::memory_order_relaxed);
  }
  /// Credit locally-completed payload bytes; completes the request when the
  /// whole message has left the node. Zero-length messages complete on
  /// their (empty) packet's completion.
  void credit_sent(std::uint32_t bytes, sim::TimeNs now);
  /// Mark the request failed (all rails of its gate are dead). No-op once
  /// completed.
  void fail(sim::TimeNs now);
  /// Stamp the submission instant (set once by the scheduler at isend).
  void note_submit_time(sim::TimeNs t) noexcept { submit_time_ = t; }
  [[nodiscard]] sim::TimeNs submit_time() const noexcept { return submit_time_; }
  void note_gate(GateId g) noexcept { gate_ = g; }
  /// Stamp the submitting thread's engine lane (set once, before the
  /// request enters the submission ring; the ring's release/acquire pair
  /// publishes it to the progression side). Routes the completion event
  /// back to the submitting thread's completion ring.
  void note_submit_lane(SubmitLane lane) noexcept {
    submit_lane_.store(lane, std::memory_order_relaxed);
  }
  [[nodiscard]] SubmitLane submit_lane() const noexcept {
    return submit_lane_.load(std::memory_order_relaxed);
  }

 private:
  Tag tag_;
  std::atomic<MsgSeq> seq_{0};
  std::vector<ConstSegment> segments_;
  std::uint32_t total_len_;
  std::atomic<std::uint32_t> bytes_sent_{0};
  std::atomic<RequestState> state_{RequestState::kPending};
  std::atomic<sim::TimeNs> completion_time_{-1};
  sim::TimeNs submit_time_ = 0;
  GateId gate_ = 0;
  std::atomic<SubmitLane> submit_lane_{kNoSubmitLane};
};

class RecvRequest {
 public:
  RecvRequest(Tag tag, std::span<std::byte> buffer)
      : tag_(tag), buffer_(buffer) {}
  /// Scatter receive: the message lands in a staging buffer the request
  /// owns and is copied into `segments`, in order, when it completes.
  RecvRequest(Tag tag, std::vector<std::span<std::byte>> segments);

  [[nodiscard]] Tag tag() const noexcept { return tag_; }
  /// Receive ordinal for this (gate, tag) stream (assigned at submission).
  [[nodiscard]] MsgSeq seq() const noexcept {
    return seq_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] MsgKey key() const noexcept { return MsgKey{tag_, seq()}; }
  [[nodiscard]] std::span<std::byte> buffer() const noexcept { return buffer_; }

  [[nodiscard]] bool completed() const noexcept {
    return state_.load(std::memory_order_acquire) == RequestState::kCompleted;
  }
  [[nodiscard]] bool failed() const noexcept {
    return state_.load(std::memory_order_acquire) == RequestState::kFailed;
  }
  /// Settled either way — the state a wait() terminates on.
  [[nodiscard]] bool done() const noexcept {
    return state_.load(std::memory_order_acquire) != RequestState::kPending;
  }
  [[nodiscard]] sim::TimeNs completion_time() const noexcept {
    return completion_time_.load(std::memory_order_relaxed);
  }
  /// Actual message length (valid once completed).
  [[nodiscard]] std::uint32_t received_len() const noexcept {
    return received_len_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] GateId gate() const noexcept { return gate_; }

  // --- scheduling-layer interface ----------------------------------------
  void assign_seq(MsgSeq seq) noexcept {
    seq_.store(seq, std::memory_order_relaxed);
  }
  void complete(std::uint32_t received_len, sim::TimeNs now);
  /// Mark the request failed (all rails of its gate are dead). No-op once
  /// completed.
  void fail(sim::TimeNs now);
  /// Stamp the posting instant (set once by the scheduler at irecv).
  void note_submit_time(sim::TimeNs t) noexcept { submit_time_ = t; }
  [[nodiscard]] sim::TimeNs submit_time() const noexcept { return submit_time_; }
  void note_gate(GateId g) noexcept { gate_ = g; }
  /// See SendRequest::note_submit_lane.
  void note_submit_lane(SubmitLane lane) noexcept {
    submit_lane_.store(lane, std::memory_order_relaxed);
  }
  [[nodiscard]] SubmitLane submit_lane() const noexcept {
    return submit_lane_.load(std::memory_order_relaxed);
  }

 private:
  Tag tag_;
  std::atomic<MsgSeq> seq_{0};
  std::span<std::byte> buffer_;
  /// Scatter receives only: the storage behind buffer_ and its targets.
  std::vector<std::byte> staging_;
  std::vector<std::span<std::byte>> scatter_;
  std::atomic<std::uint32_t> received_len_{0};
  std::atomic<RequestState> state_{RequestState::kPending};
  std::atomic<sim::TimeNs> completion_time_{-1};
  sim::TimeNs submit_time_ = 0;
  GateId gate_ = 0;
  std::atomic<SubmitLane> submit_lane_{kNoSubmitLane};
};

using SendHandle = std::shared_ptr<SendRequest>;
using RecvHandle = std::shared_ptr<RecvRequest>;

}  // namespace nmad::core
