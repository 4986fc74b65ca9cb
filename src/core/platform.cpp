#include "core/platform.hpp"

#include <algorithm>
#include <utility>

#include "drv/sim_driver.hpp"
#include "obs/registry.hpp"
#include "sampling/ratio_table.hpp"
#include "sampling/sampler.hpp"
#include "util/panic.hpp"

namespace nmad::core {

PlatformConfig paper_platform(std::string strategy, strat::StrategyConfig cfg) {
  PlatformConfig config;
  config.links = {netmodel::myri10g(), netmodel::quadrics_qm500()};
  config.strategy = std::move(strategy);
  config.strat_cfg = cfg;
  return config;
}

// --- MultiNodePlatform ------------------------------------------------------

MultiNodePlatform::MultiNodePlatform(MultiNodeConfig config)
    : config_(std::move(config)), world_(std::make_unique<drv::SimWorld>()) {
  NMAD_ASSERT(config_.nodes >= 2, "multi-node platform needs >= 2 nodes");
  if (config_.links.empty()) {
    config_.links = {netmodel::myri10g(), netmodel::quadrics_qm500()};
  }
  const std::size_t n = config_.nodes;
  NMAD_ASSERT(config_.hosts.empty() || config_.hosts.size() == n,
              "hosts must be empty or one label per node");
  mode_ = resolve_progress_mode(config_.progress_mode);
  chaos_next_seed_ = config_.chaos_seed;
  if (config_.chaos && config_.chaos->flap.enabled && !config_.chaos->clock) {
    drv::SimWorld* w = world_.get();
    config_.chaos->clock = [w] { return w->now(); };
  }

  node_ids_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    node_ids_.push_back(world_->add_node(config_.host));
  }

  // Edge set: the historical full mesh, or — when config.edges names the
  // pairs a workload actually uses — only those, so large worlds stay
  // cheap (a 16-rank pattern point builds its handful of links, not 120).
  // A lazy world establishes only the named edges now; everything else is
  // created on first use (ensure_gate).
  std::vector<std::pair<std::size_t, std::size_t>> edges = config_.edges;
  if (!edges.empty()) {
    for (auto& [i, j] : edges) {
      NMAD_ASSERT(i < n && j < n, "sparse-mesh edge endpoint out of range");
      NMAD_ASSERT(i != j, "sparse-mesh edge is a self-loop");
      if (i > j) std::swap(i, j);
    }
    std::sort(edges.begin(), edges.end());
    NMAD_ASSERT(std::adjacent_find(edges.begin(), edges.end()) == edges.end(),
                "duplicate sparse-mesh edge");
  } else if (!config_.lazy) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) edges.emplace_back(i, j);
    }
  }

  endpoint_.assign(n, std::vector<std::vector<drv::Driver*>>(n));
  sim_endpoint_.assign(n, std::vector<std::vector<drv::SimDriver*>>(n));
  sessions_.resize(n);
  gate_.assign(n, std::vector<GateId>(n, kNoGate));

  if (!config_.lazy) {
    // Eager worlds create every session up front, exactly as before.
    for (std::size_t i = 0; i < n; ++i) (void)ensure_session(i);
  }
  for (const auto& [i, j] : edges) establish_edge(i, j, /*lazily=*/false);
}

Session& MultiNodePlatform::ensure_session(std::size_t i) {
  NMAD_ASSERT(i < sessions_.size(), "node index out of range");
  if (sessions_[i] != nullptr) return *sessions_[i];
  drv::SimWorld* w = world_.get();
  auto clock = [w] { return w->now(); };
  auto defer = [w](std::function<void()> fn) {
    w->engine().schedule(0, std::move(fn));
  };
  auto timer = [w](sim::TimeNs delay, std::function<void()> fn) {
    w->engine().schedule(delay, std::move(fn));
  };
  // Serial progress: the chaos-aware drive loop. Session::wait's deadlock
  // assertion fires if this returns with the predicate unmet.
  auto progress = [this](const std::function<bool()>& pred) {
    (void)run_until(pred);
  };
  sessions_[i] = std::make_unique<Session>("n" + std::to_string(i), clock,
                                           defer, progress, timer);
  if (mode_ == ProgressMode::kThreaded) {
    const std::size_t threads = config_.progress_threads != 0
                                    ? config_.progress_threads
                                    : config_.links.size();
    // The idle hook releases chaos-held frames from a progress thread
    // (under the world mutex) whenever the engine drains, so a run can
    // never stall below the scrambling window. wrappers_ only mutates
    // under the same mutex (establish_edge), so the iteration is safe.
    std::function<void()> idle;
    if (config_.chaos) {
      idle = [this] {
        for (auto& wr : wrappers_) wr->flush();
      };
    }
    sessions_[i]->start_threaded(w->progress_mutex(), &w->engine(), threads,
                                 idle, nullptr, config_.submit_ring_capacity,
                                 config_.completion_ring_capacity);
  }
  return *sessions_[i];
}

void MultiNodePlatform::establish_edge(std::size_t i, std::size_t j,
                                       bool lazily) {
  NMAD_ASSERT(i != j && i < config_.nodes && j < config_.nodes,
              "bad edge endpoints");
  if (i > j) std::swap(i, j);
  NMAD_ASSERT(gate_[i][j] == kNoGate, "edge already established");

  Session& si = ensure_session(i);
  Session& sj = ensure_session(j);

  // In threaded mode the progress threads are already stepping the world;
  // every scheduler/engine mutation below must happen under the world
  // progress mutex. Gate storage is pointer-stable (the scheduler holds
  // unique_ptrs), so in-flight requests on other gates are unaffected.
  std::unique_lock<std::mutex> guard;
  if (mode_ == ProgressMode::kThreaded) {
    guard = std::unique_lock<std::mutex>(world_->progress_mutex());
  }

  auto wrap = [&](drv::SimDriver* ep) -> drv::Driver* {
    if (!config_.chaos) return ep;
    wrappers_.push_back(std::make_unique<drv::ChaosDriver>(
        *ep, chaos_next_seed_++, *config_.chaos));
    return wrappers_.back().get();
  };
  // Same-host edges ride the (fast) intra-host rail set when one is
  // configured — the locality asymmetry hierarchical collectives exploit.
  const bool intra =
      !config_.intra_host_links.empty() && host_of(i) == host_of(j);
  const auto& nics = intra ? config_.intra_host_links : config_.links;
  for (const auto& nic : nics) {
    auto [ei, ej] = world_->add_link(node_ids_[i], node_ids_[j], nic);
    endpoint_[i][j].push_back(wrap(ei));
    endpoint_[j][i].push_back(wrap(ej));
    sim_endpoint_[i][j].push_back(ei);
    sim_endpoint_[j][i].push_back(ej);
  }
  gate_[i][j] = si.connect(endpoint_[i][j], config_.strategy, config_.strat_cfg);
  gate_[j][i] = sj.connect(endpoint_[j][i], config_.strategy, config_.strat_cfg);

  ++established_edges_;
  sessions_established_.inc();
  if (lazily) {
    ++lazy_edges_;
    sessions_lazy_created_.inc();
  }
}

Session& MultiNodePlatform::session(std::size_t i) {
  NMAD_ASSERT(config_.lazy || sessions_[i] != nullptr,
              "session missing from an eager world");
  return ensure_session(i);
}

GateId MultiNodePlatform::ensure_gate(std::size_t i, std::size_t j) {
  NMAD_ASSERT(i != j && i < config_.nodes && j < config_.nodes,
              "bad edge endpoints");
  if (gate_[i][j] == kNoGate) {
    NMAD_ASSERT(config_.lazy, "edge not in the mesh (non-lazy world)");
    establish_edge(i, j, /*lazily=*/true);
  }
  return gate_[i][j];
}

MultiNodePlatform::~MultiNodePlatform() {
  // Engine events cross sessions: every progress thread must stop before
  // any session's scheduler is destroyed.
  for (auto& s : sessions_) {
    if (s) s->stop_threaded();
  }
  // Drain the chaos buffers while the sessions (the deliver upcall
  // targets) are still alive; the wrappers' own destructor flush must
  // find nothing left.
  for (auto& wr : wrappers_) wr->flush();
}

bool MultiNodePlatform::run_until(const std::function<bool()>& pred) {
  // The sessions' live state, not the construction-time mode: a threaded
  // world whose sessions all stop_threaded() falls back to serial.
  NMAD_ASSERT(std::none_of(sessions_.begin(), sessions_.end(),
                           [](const auto& s) { return s && s->threaded(); }),
              "run_until drives the engine from the app thread (serial only)");
  for (int round = 0; round < 1000; ++round) {
    if (world_->engine().run_until(pred)) return true;
    // Engine drained with the predicate unmet: frames may be parked below
    // the chaos scrambling window. Release them and retry; if nothing was
    // held and the engine is idle, the pattern is genuinely stuck.
    if (!flush_chaos() && world_->engine().idle()) return false;
  }
  return false;
}

bool MultiNodePlatform::flush_chaos() {
  bool any = false;
  for (auto& wr : wrappers_) {
    any |= wr->buffered() > 0;
    wr->flush();
  }
  return any;
}

drv::ChaosDriver& MultiNodePlatform::chaos_endpoint(std::size_t node,
                                                    std::size_t peer,
                                                    std::size_t link) {
  NMAD_ASSERT(config_.chaos.has_value(), "platform built without chaos");
  NMAD_ASSERT(link < endpoint_[node][peer].size(), "edge not in the mesh");
  // With chaos configured every endpoint was constructed as a wrapper.
  return *static_cast<drv::ChaosDriver*>(endpoint_[node][peer][link]);
}

drv::SimDriver& MultiNodePlatform::sim_endpoint(std::size_t node,
                                                std::size_t peer,
                                                std::size_t link) {
  NMAD_ASSERT(link < sim_endpoint_[node][peer].size(), "edge not in the mesh");
  return *sim_endpoint_[node][peer][link];
}

void MultiNodePlatform::kill_link(std::size_t i, std::size_t j, std::size_t link) {
  chaos_endpoint(i, j, link).kill();
  chaos_endpoint(j, i, link).kill();
}

void MultiNodePlatform::register_metrics(obs::MetricsRegistry& registry) {
  registry.add("platform.sessions_established", &sessions_established_);
  registry.add("platform.sessions_lazy_created", &sessions_lazy_created_);
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i] == nullptr) continue;  // lazy world: never touched
    sessions_[i]->register_metrics(registry, "n" + std::to_string(i) + ".");
  }
}

// --- TwoNodePlatform --------------------------------------------------------

namespace {

MultiNodeConfig two_node_config(const PlatformConfig& config) {
  NMAD_ASSERT(!config.links.empty(), "platform needs at least one link");
  NMAD_ASSERT(config.host_a == config.host_b,
              "two-node platform needs host_a == host_b");
  MultiNodeConfig m;
  m.nodes = 2;
  m.host = config.host_a;
  m.links = config.links;
  m.strategy = config.strategy;
  m.strat_cfg = config.strat_cfg;
  m.progress_mode = config.progress_mode;
  m.progress_threads = config.progress_threads;
  m.submit_ring_capacity = config.submit_ring_capacity;
  m.completion_ring_capacity = config.completion_ring_capacity;
  return m;
}

}  // namespace

TwoNodePlatform::TwoNodePlatform(PlatformConfig config)
    : config_(std::move(config)), platform_(two_node_config(config_)) {
  if (!config_.sampled_ratios) return;
  const std::vector<double> weights =
      sampling::RatioTable(
          sampling::sample_rails(config_.host_a, config_.host_b, config_.links))
          .weights();
  // Threaded sessions started their progress threads when they were
  // created, so the ratios go in under the world progress mutex.
  std::unique_lock<std::mutex> guard;
  if (progress_mode() == ProgressMode::kThreaded) {
    guard = std::unique_lock<std::mutex>(world().progress_mutex());
  }
  a().scheduler().gate(gate_ab()).set_ratios(weights);
  b().scheduler().gate(gate_ba()).set_ratios(weights);
}

}  // namespace nmad::core
