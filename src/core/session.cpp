#include "core/session.hpp"

#include <utility>

#include "core/progress.hpp"
#include "util/panic.hpp"

namespace nmad::core {

PackBuilder& PackBuilder::add(std::span<const std::byte> segment) {
  NMAD_ASSERT(!submitted_, "PackBuilder reused after submit");
  segments_.push_back(segment);
  return *this;
}

SendHandle PackBuilder::submit() {
  NMAD_ASSERT(!submitted_, "PackBuilder submitted twice");
  submitted_ = true;
  return session_->isend_segments(gate_, tag_, std::move(segments_));
}

UnpackBuilder& UnpackBuilder::add(std::span<std::byte> segment) {
  NMAD_ASSERT(!submitted_, "UnpackBuilder reused after submit");
  segments_.push_back(segment);
  return *this;
}

RecvHandle UnpackBuilder::submit() {
  NMAD_ASSERT(!submitted_, "UnpackBuilder submitted twice");
  submitted_ = true;
  return session_->submit_recv(
      session_->scheduler_.make_recv(gate_, tag_, std::move(segments_)));
}

Session::Session(std::string name, Scheduler::ClockFn clock,
                 Scheduler::DeferFn defer, ProgressFn progress,
                 Scheduler::TimerFn timer)
    : name_(std::move(name)),
      scheduler_(std::move(clock), std::move(defer), std::move(timer)),
      progress_(std::move(progress)) {
  NMAD_ASSERT(progress_ != nullptr, "Session needs a progress function");
}

Session::~Session() = default;

void Session::start_threaded(std::mutex& world_mutex, sim::Engine* engine,
                             std::size_t threads, std::function<void()> idle,
                             std::function<bool(std::size_t)> poll,
                             std::size_t submit_ring_capacity,
                             std::size_t completion_ring_capacity) {
  NMAD_ASSERT(progress_engine_ == nullptr, "session already threaded");
  ProgressEngine::Config cfg;
  cfg.threads = threads == 0 ? 1 : threads;
  if (submit_ring_capacity != 0) cfg.submission_capacity = submit_ring_capacity;
  if (completion_ring_capacity != 0) {
    cfg.completion_capacity = completion_ring_capacity;
  }
  ProgressEngine::Hooks hooks;
  hooks.lock = &world_mutex;
  hooks.engine = engine;
  hooks.idle = std::move(idle);
  hooks.poll = std::move(poll);
  progress_engine_ =
      std::make_unique<ProgressEngine>(scheduler_, cfg, std::move(hooks));
}

void Session::stop_threaded() { progress_engine_.reset(); }

std::unique_lock<std::mutex> Session::submission_burst() {
  if (progress_engine_ != nullptr) return progress_engine_->pause();
  return {};
}

void Session::flush_submissions() {
  if (progress_engine_ != nullptr) progress_engine_->flush_submissions();
}

void Session::register_metrics(obs::MetricsRegistry& registry, std::string prefix) {
  if (prefix.empty()) prefix = name_ + ".";
  scheduler_.register_metrics(registry, prefix);
  if (progress_engine_ != nullptr) {
    progress_engine_->register_metrics(registry, prefix + "progress.");
  }
}

GateId Session::connect(std::vector<drv::Driver*> rails,
                        std::string_view strategy_name,
                        const strat::StrategyConfig& cfg) {
  return scheduler_.add_gate(std::move(rails),
                             strat::make_strategy(strategy_name, cfg), cfg);
}

SendHandle Session::isend(GateId gate, Tag tag, std::span<const std::byte> data) {
  return isend_segments(gate, tag, {data});
}

SendHandle Session::isend_segments(GateId gate, Tag tag,
                                   std::vector<std::span<const std::byte>> segments) {
  SendHandle h = scheduler_.make_send(gate, tag, std::move(segments));
  if (progress_engine_ != nullptr) {
    progress_engine_->submit(h);
  } else {
    scheduler_.submit_send(h);
  }
  return h;
}

RecvHandle Session::irecv(GateId gate, Tag tag, std::span<std::byte> buffer) {
  return submit_recv(scheduler_.make_recv(gate, tag, buffer));
}

RecvHandle Session::submit_recv(RecvHandle h) {
  if (progress_engine_ != nullptr) {
    progress_engine_->submit(h);
  } else {
    scheduler_.submit_recv(h);
  }
  return h;
}

void Session::wait(const SendHandle& h) {
  if (progress_engine_ != nullptr) {
    progress_engine_->wait([&] { return h->done(); });
  } else {
    progress_([&] { return h->done(); });
  }
  NMAD_ASSERT(h->done(), "wait returned with incomplete send (deadlock?)");
}

void Session::wait(const RecvHandle& h) {
  if (progress_engine_ != nullptr) {
    progress_engine_->wait([&] { return h->done(); });
  } else {
    progress_([&] { return h->done(); });
  }
  NMAD_ASSERT(h->done(), "wait returned with incomplete recv (deadlock?)");
}

void Session::wait_all(std::span<const SendHandle> sends,
                       std::span<const RecvHandle> recvs) {
  // A request also settles by *failing* (its gate lost every rail) — wait
  // returns then too; callers distinguish via completed()/failed().
  auto all_done = [&] {
    for (const auto& h : sends) {
      if (!h->done()) return false;
    }
    for (const auto& h : recvs) {
      if (!h->done()) return false;
    }
    return true;
  };
  if (progress_engine_ != nullptr) {
    progress_engine_->wait(all_done);
  } else {
    progress_(all_done);
  }
  NMAD_ASSERT(all_done(), "wait_all returned with incomplete requests (deadlock?)");
}

}  // namespace nmad::core
