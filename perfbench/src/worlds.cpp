#include "worlds.hpp"

#include <string>
#include <utility>

#include "drv/sim_driver.hpp"
#include "sampling/ratio_table.hpp"
#include "sampling/sampler.hpp"

namespace perfbench {

using namespace nmad;
using core::Scheduler;

namespace {

/// A Session's defer and timer hooks over `world`'s engine, exactly as the
/// platforms build them, with each callback run under a span so the
/// scheduler work they carry is not charged to the engine step.
Scheduler::DeferFn traced_defer(drv::SimWorld& world, Tracer& tracer) {
  return [&world, &tracer](std::function<void()> fn) {
    world.engine().schedule(0, [&tracer, fn = std::move(fn)] {
      Span span(&tracer, SpanKind::kPump);
      fn();
    });
  };
}
Scheduler::TimerFn traced_timer(drv::SimWorld& world, Tracer& tracer) {
  return [&world, &tracer](sim::TimeNs delay, std::function<void()> fn) {
    world.engine().schedule(delay, [&tracer, fn = std::move(fn)] {
      Span span(&tracer, SpanKind::kTimer);
      fn();
    });
  };
}

/// Engine::run_until's exact pred/step sequence, one span per step and a
/// watchdog check between steps (null: no deadline).
bool traced_run_until(sim::Engine& engine, Tracer& tracer,
                      const std::function<bool()>& pred, Watchdog* watchdog) {
  while (!pred()) {
    if (watchdog != nullptr && watchdog->expired()) return false;
    Span span(&tracer, SpanKind::kStep);
    if (!engine.step()) return false;
  }
  return true;
}

// --- two-node worlds ---------------------------------------------------------

class PlatformTwoNode final : public TwoNodeWorld {
 public:
  explicit PlatformTwoNode(core::PlatformConfig config) : p_(std::move(config)) {}

  core::Session& a() override { return p_.a(); }
  core::Session& b() override { return p_.b(); }
  core::GateId gate_ab() const override { return p_.gate_ab(); }
  core::GateId gate_ba() const override { return p_.gate_ba(); }
  drv::SimWorld& sim() override { return p_.world(); }
  bool threaded() const override {
    return p_.progress_mode() == core::ProgressMode::kThreaded;
  }
  bool drive(const std::function<bool()>& pred, Watchdog& watchdog) override {
    return p_.world().engine().run_until(
               [&] { return pred() || watchdog.expired(); }) &&
           pred();
  }

 private:
  core::TwoNodePlatform p_;
};

/// core::TwoNodePlatform's constructor, step for step, over traced drivers.
class TracedTwoNode final : public TwoNodeWorld {
 public:
  TracedTwoNode(core::PlatformConfig config, Tracer& tracer, double& sampling_s)
      : config_(std::move(config)), tracer_(tracer) {
    const drv::NodeId na = world_.add_node(config_.host_a);
    const drv::NodeId nb = world_.add_node(config_.host_b);
    std::vector<drv::Driver*> rails_a;
    std::vector<drv::Driver*> rails_b;
    for (const auto& nic : config_.links) {
      auto [ea, eb] = world_.add_link(na, nb, nic);
      rails_a.push_back(wrap(*ea));
      rails_b.push_back(wrap(*eb));
    }

    drv::SimWorld* w = &world_;
    auto clock = [w] { return w->now(); };
    auto progress = [this](const std::function<bool()>& pred) {
      (void)traced_run_until(world_.engine(), tracer_, pred, nullptr);
    };
    a_ = std::make_unique<core::Session>("A", clock, traced_defer(world_, tracer_),
                                         progress, traced_timer(world_, tracer_));
    b_ = std::make_unique<core::Session>("B", clock, traced_defer(world_, tracer_),
                                         progress, traced_timer(world_, tracer_));
    gate_ab_ = a_->connect(rails_a, config_.strategy, config_.strat_cfg);
    gate_ba_ = b_->connect(rails_b, config_.strategy, config_.strat_cfg);

    const std::int64_t t0 = now_ns();
    const auto samples =
        sampling::sample_rails(config_.host_a, config_.host_b, config_.links);
    const std::vector<double> weights = sampling::RatioTable(samples).weights();
    sampling_s = static_cast<double>(now_ns() - t0) * 1e-9;
    if (config_.sampled_ratios) {
      a_->scheduler().gate(gate_ab_).set_ratios(weights);
      b_->scheduler().gate(gate_ba_).set_ratios(weights);
    }

    mode_ = core::resolve_progress_mode(config_.progress_mode);
    if (mode_ == core::ProgressMode::kThreaded) {
      const std::size_t threads = config_.progress_threads != 0
                                      ? config_.progress_threads
                                      : config_.links.size();
      a_->start_threaded(w->progress_mutex(), &w->engine(), threads, nullptr,
                         nullptr, config_.submit_ring_capacity,
                         config_.completion_ring_capacity);
      b_->start_threaded(w->progress_mutex(), &w->engine(), threads, nullptr,
                         nullptr, config_.submit_ring_capacity,
                         config_.completion_ring_capacity);
    }
  }

  ~TracedTwoNode() override {
    a_->stop_threaded();
    b_->stop_threaded();
  }

  core::Session& a() override { return *a_; }
  core::Session& b() override { return *b_; }
  core::GateId gate_ab() const override { return gate_ab_; }
  core::GateId gate_ba() const override { return gate_ba_; }
  drv::SimWorld& sim() override { return world_; }
  bool threaded() const override { return mode_ == core::ProgressMode::kThreaded; }
  bool drive(const std::function<bool()>& pred, Watchdog& watchdog) override {
    return traced_run_until(world_.engine(), tracer_, pred, &watchdog);
  }

 private:
  drv::Driver* wrap(drv::SimDriver& endpoint) {
    wrappers_.push_back(std::make_unique<TracingDriver>(endpoint, tracer_));
    return wrappers_.back().get();
  }

  core::PlatformConfig config_;
  Tracer& tracer_;
  core::ProgressMode mode_ = core::ProgressMode::kSerial;
  drv::SimWorld world_;
  std::vector<std::unique_ptr<TracingDriver>> wrappers_;
  std::unique_ptr<core::Session> a_;
  std::unique_ptr<core::Session> b_;
  core::GateId gate_ab_ = 0;
  core::GateId gate_ba_ = 0;
};

// --- collective worlds -------------------------------------------------------

class PlatformColl final : public CollWorld {
 public:
  explicit PlatformColl(core::MultiNodeConfig config) : p_(std::move(config)) {
    comms_.reserve(p_.nodes());
    for (std::size_t r = 0; r < p_.nodes(); ++r) {
      comms_.push_back(coll::make_communicator(p_, r));
    }
  }

  coll::Communicator& comm(std::size_t rank) override { return comms_[rank]; }
  std::size_t size() const override { return comms_.size(); }
  sim::Engine& engine() override { return p_.world().engine(); }
  coll::DriveHooks hooks(Watchdog& watchdog) override {
    coll::DriveHooks hooks;
    hooks.run_until = [this, &watchdog](const std::function<bool()>& pred) {
      return p_.run_until([&] { return pred() || watchdog.expired(); }) && pred();
    };
    return hooks;
  }

 private:
  core::MultiNodePlatform p_;
  std::vector<coll::Communicator> comms_;
};

/// core::MultiNodePlatform's lazy establishment (serial, no chaos) and
/// coll::make_communicator, step for step, over traced drivers.
class TracedColl final : public CollWorld {
 public:
  TracedColl(core::MultiNodeConfig config, Tracer& tracer, double& sampling_s)
      : config_(std::move(config)), tracer_(tracer) {
    NMAD_ASSERT(config_.lazy && config_.edges.empty() && !config_.chaos,
                "traced collective world mirrors lazy, chaos-free platforms");
    if (config_.links.empty()) {
      config_.links = {netmodel::myri10g(), netmodel::quadrics_qm500()};
    }
    std::vector<netmodel::NicProfile> rail_set = config_.links;
    rail_set.insert(rail_set.end(), config_.intra_host_links.begin(),
                    config_.intra_host_links.end());
    const std::int64_t t0 = now_ns();
    (void)sampling::sample_rails(config_.host, config_.host, rail_set);
    sampling_s = static_cast<double>(now_ns() - t0) * 1e-9;

    const std::size_t n = config_.nodes;
    for (std::size_t i = 0; i < n; ++i) {
      node_ids_.push_back(world_.add_node(config_.host));
    }
    endpoints_.assign(n, std::vector<std::vector<drv::Driver*>>(n));
    sessions_.resize(n);
    gate_.assign(n, std::vector<core::GateId>(n, core::kNoGate));

    comms_.reserve(n);
    for (std::size_t r = 0; r < n; ++r) {
      comms_.emplace_back(ensure_session(r), gate_[r], r);
      comms_.back().set_gate_resolver(
          [this, r](std::size_t peer) { return ensure_gate(r, peer); });
      if (!config_.hosts.empty()) {
        comms_.back().set_topology(std::make_shared<const coll::Topology>(
            coll::Topology::from_hosts(config_.hosts)));
      }
    }
  }

  coll::Communicator& comm(std::size_t rank) override { return comms_[rank]; }
  std::size_t size() const override { return comms_.size(); }
  sim::Engine& engine() override { return world_.engine(); }
  coll::DriveHooks hooks(Watchdog& watchdog) override {
    coll::DriveHooks hooks;
    hooks.run_until = [this, &watchdog](const std::function<bool()>& pred) {
      return traced_run_until(world_.engine(), tracer_, pred, &watchdog);
    };
    return hooks;
  }

 private:
  core::Session& ensure_session(std::size_t i) {
    if (sessions_[i] != nullptr) return *sessions_[i];
    drv::SimWorld* w = &world_;
    auto clock = [w] { return w->now(); };
    auto progress = [this](const std::function<bool()>& pred) {
      (void)traced_run_until(world_.engine(), tracer_, pred, nullptr);
    };
    sessions_[i] = std::make_unique<core::Session>(
        "n" + std::to_string(i), clock, traced_defer(world_, tracer_), progress,
        traced_timer(world_, tracer_));
    return *sessions_[i];
  }

  core::GateId ensure_gate(std::size_t i, std::size_t j) {
    if (gate_[i][j] == core::kNoGate) establish_edge(i, j);
    return gate_[i][j];
  }

  void establish_edge(std::size_t i, std::size_t j) {
    if (i > j) std::swap(i, j);
    core::Session& si = ensure_session(i);
    core::Session& sj = ensure_session(j);
    const bool intra = !config_.intra_host_links.empty() &&
                       config_.hosts[i] == config_.hosts[j];
    const auto& nics = intra ? config_.intra_host_links : config_.links;
    for (const auto& nic : nics) {
      auto [ei, ej] = world_.add_link(node_ids_[i], node_ids_[j], nic);
      endpoints_[i][j].push_back(wrap(*ei));
      endpoints_[j][i].push_back(wrap(*ej));
    }
    gate_[i][j] = si.connect(endpoints_[i][j], config_.strategy, config_.strat_cfg);
    gate_[j][i] = sj.connect(endpoints_[j][i], config_.strategy, config_.strat_cfg);
  }

  drv::Driver* wrap(drv::SimDriver& endpoint) {
    wrappers_.push_back(std::make_unique<TracingDriver>(endpoint, tracer_));
    return wrappers_.back().get();
  }

  core::MultiNodeConfig config_;
  Tracer& tracer_;
  drv::SimWorld world_;
  std::vector<drv::NodeId> node_ids_;
  std::vector<std::unique_ptr<TracingDriver>> wrappers_;
  std::vector<std::vector<std::vector<drv::Driver*>>> endpoints_;
  std::vector<std::unique_ptr<core::Session>> sessions_;
  std::vector<std::vector<core::GateId>> gate_;
  std::vector<coll::Communicator> comms_;
};

}  // namespace

void CollWorld::register_metrics(obs::MetricsRegistry& registry) {
  for (std::size_t r = 0; r < size(); ++r) {
    const std::string rank = std::to_string(r);
    comm(r).session().register_metrics(registry, "n" + rank + ".");
    comm(r).register_metrics(registry, "c" + rank + ".");
  }
}

std::unique_ptr<TwoNodeWorld> make_platform_world(core::PlatformConfig config) {
  return std::make_unique<PlatformTwoNode>(std::move(config));
}

std::unique_ptr<TwoNodeWorld> make_traced_world(core::PlatformConfig config,
                                                Tracer& tracer, double& sampling_s) {
  return std::make_unique<TracedTwoNode>(std::move(config), tracer, sampling_s);
}

std::unique_ptr<CollWorld> make_platform_coll_world(core::MultiNodeConfig config) {
  return std::make_unique<PlatformColl>(std::move(config));
}

std::unique_ptr<CollWorld> make_traced_coll_world(core::MultiNodeConfig config,
                                                  Tracer& tracer, double& sampling_s) {
  return std::make_unique<TracedColl>(std::move(config), tracer, sampling_s);
}

}  // namespace perfbench
