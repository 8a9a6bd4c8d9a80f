#include "harness/experiment.hpp"

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "harness/observe.hpp"
#include "mnp/mnp_node.hpp"
#include "mnp/program_image.hpp"
#include "net/tdma_mac.hpp"
#include "node/network.hpp"
#include "scenario/scenario_engine.hpp"
#include "scenario/scenario_link_model.hpp"
#include "sim/audit.hpp"
#include "sim/simulator.hpp"
#include "storage/eeprom.hpp"

namespace mnp::harness {

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kMnp: return "MNP";
    case Protocol::kDeluge: return "Deluge";
    case Protocol::kMoap: return "MOAP";
    case Protocol::kXnp: return "XNP";
    case Protocol::kNcast: return "NCast";
  }
  return "?";
}

std::uint16_t image_packets_per_segment(const ExperimentConfig& cfg) {
  switch (cfg.protocol) {
    case Protocol::kDeluge:
      return cfg.deluge.packets_per_page;
    case Protocol::kNcast:
      return cfg.ncast.generation_size;
    default:
      // MOAP/XNP stream linearly; segment geometry only shapes the image
      // container, so MNP's layout works for them too.
      return cfg.mnp.packets_per_segment;
  }
}

std::size_t image_payload_bytes(const ExperimentConfig& cfg) {
  switch (cfg.protocol) {
    case Protocol::kMnp: return cfg.mnp.payload_bytes;
    case Protocol::kDeluge: return cfg.deluge.payload_bytes;
    case Protocol::kMoap: return cfg.moap.payload_bytes;
    case Protocol::kXnp: return cfg.xnp.payload_bytes;
    case Protocol::kNcast: return cfg.ncast.payload_bytes;
  }
  return 22;
}

namespace {

void install_protocol(const ExperimentConfig& cfg, node::Network& network,
                      const std::shared_ptr<const core::ProgramImage>& image) {
  for (net::NodeId id = 0; id < network.size(); ++id) {
    const bool is_base = id == cfg.base;
    std::unique_ptr<node::Application> app;
    switch (cfg.protocol) {
      case Protocol::kMnp: {
        auto mnp_app = is_base
                           ? std::make_unique<core::MnpNode>(cfg.mnp, image)
                           : std::make_unique<core::MnpNode>(cfg.mnp);
        if (!cfg.battery_levels.empty() && id < cfg.battery_levels.size()) {
          mnp_app->set_battery_level(cfg.battery_levels[id]);
        }
        app = std::move(mnp_app);
        break;
      }
      case Protocol::kDeluge:
        app = is_base
                  ? std::make_unique<baselines::DelugeNode>(cfg.deluge, image)
                  : std::make_unique<baselines::DelugeNode>(cfg.deluge);
        break;
      case Protocol::kMoap:
        app = is_base ? std::make_unique<baselines::MoapNode>(cfg.moap, image)
                      : std::make_unique<baselines::MoapNode>(cfg.moap);
        break;
      case Protocol::kXnp:
        app = is_base ? std::make_unique<baselines::XnpNode>(cfg.xnp, image)
                      : std::make_unique<baselines::XnpNode>(cfg.xnp);
        break;
      case Protocol::kNcast:
        app = is_base
                  ? std::make_unique<baselines::NcastNode>(cfg.ncast, image)
                  : std::make_unique<baselines::NcastNode>(cfg.ncast);
        break;
    }
    network.node(id).set_application(std::move(app));
  }
}

/// Feeds per-node Application::audit_digest values to the determinism
/// auditor. Stack-local to run_experiment: installed before boot (but
/// after install_protocol, because it caches the application pointers —
/// reboots reuse the same Application object, so the cache stays valid),
/// detached before the Network dies.
class NetworkAuditProbe final : public sim::AuditProbe {
 public:
  explicit NetworkAuditProbe(node::Network& network) {
    apps_.reserve(network.size());
    for (net::NodeId id = 0; id < network.size(); ++id) {
      apps_.push_back(network.node(id).application());
    }
  }
  std::size_t node_count() const override { return apps_.size(); }
  void node_digests(std::uint64_t* out) override {
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      out[i] = apps_[i] != nullptr ? apps_[i]->audit_digest() : 0;
    }
  }

 private:
  std::vector<const node::Application*> apps_;
};

}  // namespace

RunResult run_experiment(const ExperimentConfig& cfg) {
  return run_experiment(cfg, nullptr);
}

RunResult run_experiment(const ExperimentConfig& config,
                         Observation* observation) {
  // A scenario changes protocol behaviour in exactly one way: rebooted
  // nodes must find their download progress in EEPROM, so the journal
  // flags flip on. Fault-free runs keep them off (and keep the repo's
  // exact write-accounting guarantees).
  ExperimentConfig cfg = config;
  const bool scenario_active = !cfg.scenario.empty();
  if (scenario_active) {
    cfg.mnp.journal_progress = true;
    cfg.deluge.journal_progress = true;
    cfg.moap.journal_progress = true;
    cfg.ncast.journal_progress = true;
  }

  sim::Simulator sim(cfg.seed);
  sim.scheduler().set_tie_break(cfg.tie_break);
  // The shared asset is only a construction shortcut: the run always works
  // on a private copy (mobility mutates positions), and a pointer that
  // disagrees with the config fields is ignored rather than trusted.
  const bool shared_grid_ok = cfg.shared_topology != nullptr &&
                              cfg.shared_topology->grid_rows() == cfg.rows &&
                              cfg.shared_topology->grid_cols() == cfg.cols &&
                              cfg.shared_topology->grid_spacing() ==
                                  cfg.spacing_ft;
  net::Topology topo =
      shared_grid_ok ? *cfg.shared_topology
                     : net::Topology::grid(cfg.rows, cfg.cols, cfg.spacing_ft);

  const auto make_links =
      [&cfg, &sim](const net::Topology& owned) -> std::unique_ptr<net::LinkModel> {
    if (cfg.empirical_links) {
      net::EmpiricalLinkModel::Params lp;
      lp.range_ft = cfg.range_ft;
      lp.interference_factor = cfg.interference_factor;
      lp.edge_noise_stddev = cfg.link_noise_stddev;
      return std::make_unique<net::EmpiricalLinkModel>(owned, lp,
                                                       sim.fork_rng(0x11A7ULL));
    }
    return std::make_unique<net::DiskLinkModel>(owned, cfg.range_ft,
                                                cfg.interference_factor);
  };

  // With a scenario the link model is wrapped in the mutable decorator the
  // engine drives; the pointer is captured as the factory runs.
  scenario::ScenarioLinkModel* scenario_links = nullptr;
  node::Network::LinkModelFactory link_factory = make_links;
  if (scenario_active) {
    link_factory = [&make_links, &scenario_links](const net::Topology& owned)
        -> std::unique_ptr<net::LinkModel> {
      auto wrapped = std::make_unique<scenario::ScenarioLinkModel>(
          make_links(owned), owned.size());
      scenario_links = wrapped.get();
      return wrapped;
    };
  }

  node::Node::MacFactory mac_factory;  // null => CSMA
  if (cfg.mac == MacType::kTdma) {
    const std::uint32_t m = net::TdmaMac::tile_for_grid(
        cfg.spacing_ft, cfg.range_ft, cfg.interference_factor);
    mac_factory = [&cfg, m](net::NodeId id, net::Radio& radio,
                            sim::Simulator& s) -> std::unique_ptr<net::Mac> {
      net::TdmaMac::Params mp;
      mp.slot_duration = cfg.tdma_slot;
      mp.frame_slots = m * m;
      mp.my_slot = net::TdmaMac::slot_for(id / cfg.cols, id % cfg.cols, m);
      return std::make_unique<net::TdmaMac>(radio, s.scheduler(), mp);
    };
  }

  node::Network network(sim, std::move(topo), link_factory, cfg.channel, {},
                        mac_factory);

  // Trace wiring must precede boot: radios log from their first flip.
  if (observation) {
    observation->node_count = network.size();
    if (observation->with_trace) network.attach_event_log(observation->log);
  }

  const bool shared_image_ok =
      cfg.shared_image != nullptr && cfg.shared_image->id() == cfg.program_id &&
      cfg.shared_image->total_bytes() == cfg.program_bytes &&
      cfg.shared_image->packets_per_segment() ==
          image_packets_per_segment(cfg) &&
      cfg.shared_image->payload_bytes() == image_payload_bytes(cfg);
  auto image = shared_image_ok
                   ? cfg.shared_image
                   : std::make_shared<const core::ProgramImage>(
                         cfg.program_id, cfg.program_bytes,
                         image_packets_per_segment(cfg),
                         image_payload_bytes(cfg));
  install_protocol(cfg, network, image);

  // Determinism audit: the scheduler reports a state hash at every event
  // boundary. Installed after the applications exist (the probe caches
  // their pointers) but before boot so even the boot jitter is covered;
  // the probe and the scheduler hook are detached before `network` and
  // `sim` go out of scope (the Audit itself lives in the Observation).
  const bool with_audit = observation != nullptr && observation->with_audit;
  std::optional<NetworkAuditProbe> audit_probe;
  if (with_audit) {
    observation->audit.reset();
    audit_probe.emplace(network);
    observation->audit.set_probe(&*audit_probe);
    sim.scheduler().set_audit(&observation->audit);
  }
  const auto detach_audit = [&] {
    if (!with_audit) return;
    observation->audit.set_probe(nullptr);
    sim.scheduler().set_audit(nullptr);
  };

  network.boot_all(cfg.boot_jitter);

  std::optional<scenario::ScenarioEngine> engine;
  if (scenario_active) {
    engine.emplace(cfg.scenario, network, scenario_links, cfg.base);
    std::string scenario_error;
    if (!engine->arm(&scenario_error)) {
      std::fprintf(stderr, "scenario '%s': %s\n", cfg.scenario.name().c_str(),
                   scenario_error.c_str());
      RunResult bad;
      bad.scenario_error = std::move(scenario_error);
      detach_audit();
      return bad;
    }
  }

  // Pre-scheduled cumulative-energy samples for the trace's counter
  // tracks. The sampler lambda reads state but never touches an RNG, so
  // an observed run's protocol behaviour is identical to an unobserved
  // one. Events past the completion time simply never fire;
  // `samplers_pending` counts the samplers still queued, so that they
  // cannot keep a drained run going.
  std::size_t samplers_pending = 0;
  const bool sample_energy = observation && observation->with_trace &&
                             observation->energy_sample_interval > 0;
  if (sample_energy) {
    observation->counters.clear();
    observation->counters.reserve(network.size());
    for (net::NodeId id = 0; id < network.size(); ++id) {
      obs::CounterSeries series;
      series.name = "energy_nah";
      series.pid = id;
      observation->counters.push_back(std::move(series));
    }
    // Channel cache-health tracks (row repairs / world invalidations) under
    // the virtual "network" process: spikes line up with mobility bursts
    // and partition edges on the same timeline as the protocol events.
    for (const char* name : {"cache_repairs", "cache_invalidations"}) {
      obs::CounterSeries series;
      series.name = name;
      series.pid = static_cast<std::uint32_t>(network.size());
      series.process = "network";
      observation->counters.push_back(std::move(series));
    }
    node::Network* net_ptr = &network;
    sim::Simulator* sim_ptr = &sim;
    std::size_t* pending = &samplers_pending;
    const auto take_sample = [net_ptr, sim_ptr, observation, pending] {
      --*pending;
      const sim::Time now = sim_ptr->now();
      const std::size_t n = net_ptr->size();
      for (net::NodeId id = 0; id < n; ++id) {
        observation->counters[id].samples.emplace_back(
            now, net_ptr->node(id).meter().total_nah(now));
      }
      observation->counters[n].samples.emplace_back(
          now, static_cast<double>(net_ptr->channel().cache_repairs()));
      observation->counters[n + 1].samples.emplace_back(
          now, static_cast<double>(net_ptr->channel().cache_invalidations()));
    };
    // Bounded so a pathological interval cannot flood the event queue.
    const sim::Time interval = observation->energy_sample_interval;
    std::size_t scheduled = 0;
    for (sim::Time t = 0; t <= cfg.max_sim_time && scheduled < 20000;
         t += interval, ++scheduled) {
      sim.scheduler().post_at(t, take_sample);
      ++samplers_pending;
    }
  }

  node::StatsCollector& stats = network.stats();

  // Live-progress samples (fleet-service streaming): same pattern as the
  // energy sampler above — pre-scheduled read-only callbacks that cannot
  // perturb the protocol trajectory, bounded so a tiny interval cannot
  // flood the queue. Events past the completion time never fire.
  if (observation && observation->on_progress &&
      observation->progress_interval > 0) {
    node::Network* net_ptr = &network;
    sim::Simulator* sim_ptr = &sim;
    std::size_t* pending = &samplers_pending;
    const auto sample_progress = [net_ptr, sim_ptr, observation, pending] {
      --*pending;
      RunProgress p;
      p.sim_time = sim_ptr->now();
      p.completed_nodes = net_ptr->stats().completed_count();
      p.transmissions = net_ptr->channel().transmissions();
      p.deliveries = net_ptr->channel().deliveries();
      observation->on_progress(p);
    };
    const sim::Time interval = observation->progress_interval;
    std::size_t scheduled = 0;
    for (sim::Time t = interval; t <= cfg.max_sim_time && scheduled < 20000;
         t += interval, ++scheduled) {
      sim.scheduler().post_at(t, sample_progress);
      ++samplers_pending;
    }
  }

  // A run whose queue holds only samplers has drained: an unobserved run
  // stops right there, so an observed one must too.
  sim::Scheduler& sched = sim.scheduler();
  const auto drained = [&sched, &samplers_pending] {
    return sched.pending_events() == samplers_pending;
  };
  if (engine) {
    // Fault runs cannot stop at "everyone completed": a node may complete,
    // crash, and still have a reboot pending — and a partition window must
    // fully elapse so its closing edge lands in the trace.
    sim.run_until_condition(cfg.max_sim_time, [&engine, &drained] {
      return engine->converged() || drained();
    });
  } else {
    sim.run_until_condition(cfg.max_sim_time, [&stats, &drained] {
      return stats.all_completed() || drained();
    });
  }

  // ---- run-end metrics, observation capture (before any verification
  // EEPROM reads) ----------------------------------------------------------
  network.publish_energy_metrics(sim.now());
  obs::MetricsRegistry& m = network.metrics();
  m.set(m.register_gauge("run.completed_nodes", obs::Unit::kCount, false),
        static_cast<double>(stats.completed_count()));
  m.set(m.register_gauge("run.sim_time_us", obs::Unit::kMicroseconds, false),
        static_cast<double>(sim.now()));
  // Flash in memory: the network's one copy, and at their peaks the pages
  // nodes held with bytes of their own and as write marks only.
  const storage::PageStore& flash = network.page_store();
  m.set(m.register_gauge("flash.store_pages", obs::Unit::kCount, false),
        static_cast<double>(flash.pages()));
  m.set(m.register_gauge("flash.own_pages_peak", obs::Unit::kCount, false),
        static_cast<double>(flash.own_pages_peak()));
  m.set(m.register_gauge("flash.mark_pages_peak", obs::Unit::kCount, false),
        static_cast<double>(flash.mark_pages_peak()));
  if (observation) {
    observation->metrics = m;
    if (sample_energy) {
      // Close each energy/cache track at the instant the run ended.
      const sim::Time now = sim.now();
      for (net::NodeId id = 0; id < network.size(); ++id) {
        auto& samples = observation->counters[id].samples;
        if (samples.empty() || samples.back().first < now) {
          samples.emplace_back(now, network.node(id).meter().total_nah(now));
        }
      }
      const double cache_finals[2] = {
          static_cast<double>(network.channel().cache_repairs()),
          static_cast<double>(network.channel().cache_invalidations())};
      for (std::size_t c = 0; c < 2; ++c) {
        auto& samples = observation->counters[network.size() + c].samples;
        if (samples.empty() || samples.back().first < now) {
          samples.emplace_back(now, cache_finals[c]);
        }
      }
    }
    if (observation->with_trace && !stats.timeline().empty()) {
      // Per-minute message-class rates as counter tracks under a virtual
      // "network" process (pid = node count; real pids are node ids).
      static const char* kClassSeries[4] = {
          "msgs_per_min_adv", "msgs_per_min_req", "msgs_per_min_data",
          "msgs_per_min_other"};
      const auto& tl = stats.timeline();
      const std::int64_t last_minute = tl.rbegin()->first;
      for (std::size_t c = 0; c < 4; ++c) {
        obs::CounterSeries series;
        series.name = kClassSeries[c];
        series.pid = static_cast<std::uint32_t>(network.size());
        series.process = "network";
        for (std::int64_t minute = 0; minute <= last_minute; ++minute) {
          const auto it = tl.find(minute);
          series.samples.emplace_back(
              minute * sim::minutes(1),
              it == tl.end() ? 0.0 : static_cast<double>(it->second[c]));
        }
        observation->counters.push_back(std::move(series));
      }
    }
  }

  // ---- capture metrics (before any verification EEPROM reads) -----------
  RunResult result;
  result.rows = cfg.rows;
  result.cols = cfg.cols;
  result.measured_at = sim.now();
  result.all_completed = stats.all_completed();
  result.completed_count = stats.completed_count();
  result.completion_time = stats.completion_time();
  result.sender_order = stats.sender_order();
  result.timeline = stats.timeline();
  result.transmissions = network.channel().transmissions();
  result.deliveries = network.channel().deliveries();
  result.collisions = network.channel().collisions();
  result.bulk_overlaps = network.channel().concurrent_bulk_overlaps();
  if (engine) {
    result.scenario_injected = engine->injected();
    for (net::NodeId id = 0; id < network.size(); ++id) {
      if (network.node(id).is_dead()) ++result.dead_nodes;
    }
  }

  result.nodes.resize(network.size());
  for (net::NodeId id = 0; id < network.size(); ++id) {
    const node::NodeStats& ns = stats.node(id);
    node::Node& n = network.node(id);
    NodeResult& out = result.nodes[id];
    out.completion = ns.completion_time;
    out.active_radio = n.meter().active_radio_time(sim.now());
    out.active_radio_after_first_adv =
        n.meter().active_radio_time_after_first_adv(sim.now());
    out.parent = ns.parent;
    out.became_sender = ns.became_sender;
    out.tx_total = ns.total_sent();
    out.rx_total = ns.total_received();
    out.tx_adv = ns.sent_of(net::PacketType::kAdvertisement) +
                 ns.sent_of(net::PacketType::kDelugeSummary) +
                 ns.sent_of(net::PacketType::kMoapPublish) +
                 ns.sent_of(net::PacketType::kNcastAdv);
    out.tx_req = ns.sent_of(net::PacketType::kDownloadRequest) +
                 ns.sent_of(net::PacketType::kDelugeRequest) +
                 ns.sent_of(net::PacketType::kMoapSubscribe) +
                 ns.sent_of(net::PacketType::kMoapNack) +
                 ns.sent_of(net::PacketType::kXnpFixRequest) +
                 ns.sent_of(net::PacketType::kNcastRequest);
    out.tx_data = ns.sent_of(net::PacketType::kData) +
                  ns.sent_of(net::PacketType::kDelugeData) +
                  ns.sent_of(net::PacketType::kMoapData) +
                  ns.sent_of(net::PacketType::kXnpData) +
                  ns.sent_of(net::PacketType::kNcastCoded);
    out.eeprom_writes = n.eeprom().total_writes();
    out.collisions_suffered = ns.collisions_suffered;
    out.energy_nah = n.meter().total_nah(sim.now());
  }

  // ---- verify images byte-exactly (accuracy requirement) ----------------
  for (net::NodeId id = 0; id < network.size(); ++id) {
    if (id == cfg.base) {
      result.nodes[id].image_verified = true;
      continue;
    }
    if (result.nodes[id].completion < 0) continue;
    auto stored = network.node(id).eeprom().read(0, image->total_bytes());
    result.nodes[id].image_verified = image->matches(stored);
  }
  detach_audit();
  return result;
}

}  // namespace mnp::harness
