#include "drv/chaos_driver.hpp"

#include <algorithm>
#include <utility>

#include "obs/registry.hpp"
#include "util/panic.hpp"

namespace nmad::drv {

ChaosDriver::ChaosDriver(Driver& inner, std::uint64_t seed, ChaosConfig cfg)
    : inner_(&inner),
      rng_(seed),
      flap_rng_(seed ^ 0x9e3779b97f4a7c15ULL),
      cfg_(std::move(cfg)) {
  NMAD_ASSERT(cfg_.window >= 1, "chaos window must be >= 1");
  NMAD_ASSERT(!cfg_.flap.enabled || cfg_.clock != nullptr,
              "flap windows need a chaos clock");
  NMAD_ASSERT(!cfg_.flap.enabled ||
                  (cfg_.flap.up_ns > 0 && cfg_.flap.down_ns > 0),
              "flap windows must have positive lengths");
}

ChaosDriver::~ChaosDriver() {
  // Stragglers held past teardown would reference freed pool blocks on the
  // next access; push them through the upcall now (which is a guarded no-op
  // once the scheduler is gone) and insist the buffer really drained.
  flush();
  NMAD_ASSERT(pending_.empty(), "chaos driver destroyed with frames in flight");
}

void ChaosDriver::post_send(SendDesc desc, Callback on_sent) {
  if (killed_) {
    // A dead NIC port: the frame vanishes and local completion never
    // fires. Callers are expected to have checked send_idle() (false once
    // killed), but a post raced against kill() must not crash.
    stats_.swallowed_sends += 1;
    (void)desc;
    (void)on_sent;
    return;
  }
  inner_->post_send(std::move(desc), std::move(on_sent));
}

void ChaosDriver::set_deliver(DeliverFn deliver) {
  deliver_ = std::move(deliver);
  inner_->set_deliver([this](Track track, std::span<const std::byte> wire) {
    on_inner_deliver(track, wire);
  });
}

void ChaosDriver::on_inner_deliver(Track track, std::span<const std::byte> wire) {
  stats_.frames_seen += 1;
  if (killed_) {
    stats_.discarded_recvs += 1;
    return;
  }
  if (flap_down_now()) {
    // Receive-side blackout: the frame vanishes on the wire. Sends keep
    // completing locally so the tracks never wedge — the peers only see
    // silence, which is what the keepalive/retransmit machinery probes.
    stats_.flap_drops += 1;
    return;
  }
  const FaultProfile& p = cfg_.track[static_cast<std::size_t>(track)];
  if (p.drop > 0.0 && rng_.next_double() < p.drop) {
    stats_.drops += 1;
    return;
  }
  Held held{track, std::vector<std::byte>(wire.begin(), wire.end())};
  if (p.corrupt > 0.0 && !held.wire.empty() &&
      rng_.next_double() < p.corrupt) {
    // Flip one random bit in one random byte: the classic single-event
    // upset the CRC must catch.
    const std::size_t at = rng_.next_below(held.wire.size());
    held.wire[at] ^= std::byte(1u << rng_.next_below(8));
    stats_.corruptions += 1;
  }
  if (p.duplicate > 0.0 && rng_.next_double() < p.duplicate) {
    pending_.push_back(held);
    stats_.duplicates += 1;
  }
  pending_.push_back(std::move(held));
  if (pending_.size() >= cfg_.window) release_all();
}

void ChaosDriver::release_all() {
  std::shuffle(pending_.begin(), pending_.end(), rng_);
  // Swap out first: a deliver upcall may trigger sends whose completions
  // append new pending packets.
  std::vector<Held> batch;
  batch.swap(pending_);
  for (const Held& held : batch) {
    NMAD_ASSERT(deliver_ != nullptr, "chaos delivery with no upcall");
    deliver_(held.track, std::span<const std::byte>(held.wire));
  }
}

void ChaosDriver::kill() {
  if (killed_) return;
  killed_ = true;
  // Frames already buffered die with the port.
  stats_.discarded_recvs += pending_.size();
  pending_.clear();
}

bool ChaosDriver::revive() {
  if (!revivable_) return false;
  if (killed_) {
    killed_ = false;
    stats_.revives += 1;
  }
  return inner_->revive();
}

bool ChaosDriver::flap_down_now() {
  if (!cfg_.flap.enabled) return false;
  const sim::TimeNs now = cfg_.clock();
  if (now < cfg_.flap.start_ns) return false;
  const auto draw_window = [this](sim::TimeNs mean) {
    const double scaled =
        static_cast<double>(mean) *
        (1.0 + kFlapJitter * (flap_rng_.next_double() - 0.5));
    return std::max<sim::TimeNs>(1, static_cast<sim::TimeNs>(scaled));
  };
  if (!flap_initialized_) {
    // The schedule starts in an up window at start_ns.
    flap_initialized_ = true;
    flap_down_ = false;
    flap_next_edge_ = cfg_.flap.start_ns + draw_window(cfg_.flap.up_ns);
  }
  // Advance the alternating up/down schedule to `now`. Each window length
  // is its mean ± kFlapJitter/2, drawn from the dedicated flap stream — the
  // boundaries depend only on the seed, never on traffic timing.
  while (now >= flap_next_edge_) {
    flap_down_ = !flap_down_;
    if (flap_down_) stats_.flap_downs += 1;
    flap_next_edge_ +=
        draw_window(flap_down_ ? cfg_.flap.down_ns : cfg_.flap.up_ns);
  }
  return flap_down_;
}

void ChaosDriver::flush() {
  while (!pending_.empty()) release_all();
}

void ChaosDriver::register_metrics(obs::MetricsRegistry& registry,
                                   const std::string& prefix) const {
  inner_->register_metrics(registry, prefix);
  registry.add_raw(prefix + "chaos.frames_seen", &stats_.frames_seen);
  registry.add_raw(prefix + "chaos.drops", &stats_.drops);
  registry.add_raw(prefix + "chaos.duplicates", &stats_.duplicates);
  registry.add_raw(prefix + "chaos.corruptions", &stats_.corruptions);
  registry.add_raw(prefix + "chaos.swallowed_sends", &stats_.swallowed_sends);
  registry.add_raw(prefix + "chaos.discarded_recvs", &stats_.discarded_recvs);
  registry.add_raw(prefix + "chaos.revives", &stats_.revives);
  registry.add_raw(prefix + "chaos.flap_downs", &stats_.flap_downs);
  registry.add_raw(prefix + "chaos.flap_drops", &stats_.flap_drops);
}

}  // namespace nmad::drv
