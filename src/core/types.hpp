// Shared vocabulary types of the core (collect + scheduling) layers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "proto/wire.hpp"
#include "sim/time.hpp"

namespace nmad::core {

using Tag = proto::Tag;
using MsgSeq = proto::MsgSeq;

/// Identifies one message within one gate direction: sequence numbers are
/// assigned *per tag* on the sending side, so the k-th receive posted for a
/// tag matches the k-th message sent with that tag — deterministic matching
/// even when multi-rail transfers arrive out of order.
struct MsgKey {
  Tag tag = 0;
  MsgSeq seq = 0;
  friend auto operator<=>(const MsgKey&, const MsgKey&) = default;
};

/// A view of one contiguous piece of user memory inside a message.
struct ConstSegment {
  std::span<const std::byte> data;
  /// Byte offset of this segment within the logical message.
  std::uint32_t msg_offset = 0;
};

/// First tag of the space reserved for library-internal protocols: the
/// collectives layer (coll::Communicator, whose dissemination barrier also
/// backs api::Communicator::barrier) carves its per-instance tag streams
/// out of [kReservedTagBase, 0xffffffff]. User-facing API layers must
/// reject application tags at or above this value — a user message on a
/// reserved tag would silently cross-match against protocol traffic.
inline constexpr Tag kReservedTagBase = 0xffff0000u;

/// Index of a rail within a gate.
using RailIndex = std::uint32_t;

/// Index of a per-thread submission/completion lane inside one threaded
/// progression engine (core/progress.hpp). Lanes are allocated densely per
/// engine, one per submitting application thread, on that thread's first
/// submit.
using SubmitLane = std::uint32_t;

/// "No lane": the request was submitted synchronously (serial mode) or by
/// a path that bypassed the engine — its completion event routes to the
/// engine's shared fallback queue instead of a per-thread ring.
inline constexpr SubmitLane kNoSubmitLane = 0xffffffffu;

/// Identifies one gate within one scheduler.
using GateId = std::uint32_t;

/// "No gate": the sentinel for peers a sparse mesh never connected, and the
/// marker lazy platforms leave in peer-gate vectors until first use (see
/// core::MultiNodePlatform and coll::Communicator's gate resolver).
inline constexpr GateId kNoGate = static_cast<GateId>(-1);

}  // namespace nmad::core
