#include "traced.hpp"

#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "mnp/mnp_node.hpp"
#include "mnp/program_image.hpp"
#include "net/csma_mac.hpp"
#include "node/network.hpp"
#include "scenario/scenario_engine.hpp"
#include "scenario/scenario_link_model.hpp"
#include "sim/simulator.hpp"

namespace e2ebench {

using mnp::harness::ExperimentConfig;
using mnp::harness::Protocol;
using mnp::harness::RunResult;
namespace net = mnp::net;
namespace node = mnp::node;
namespace sim = mnp::sim;

namespace {

std::unique_ptr<node::Application> make_application(
    const ExperimentConfig& cfg, bool is_base,
    const std::shared_ptr<const mnp::core::ProgramImage>& image) {
  using namespace mnp::baselines;
  switch (cfg.protocol) {
    case Protocol::kMnp:
      return is_base ? std::make_unique<mnp::core::MnpNode>(cfg.mnp, image)
                     : std::make_unique<mnp::core::MnpNode>(cfg.mnp);
    case Protocol::kDeluge:
      return is_base ? std::make_unique<DelugeNode>(cfg.deluge, image)
                     : std::make_unique<DelugeNode>(cfg.deluge);
    case Protocol::kMoap:
      return is_base ? std::make_unique<MoapNode>(cfg.moap, image)
                     : std::make_unique<MoapNode>(cfg.moap);
    case Protocol::kXnp:
      return is_base ? std::make_unique<XnpNode>(cfg.xnp, image)
                     : std::make_unique<XnpNode>(cfg.xnp);
    case Protocol::kNcast:
      return is_base ? std::make_unique<NcastNode>(cfg.ncast, image)
                     : std::make_unique<NcastNode>(cfg.ncast);
  }
  return nullptr;
}

}  // namespace

// Mirrors harness::run_experiment with no Observation: the same
// construction order (and so the same RNG forks), the same run-end
// predicate and the same result capture, with decorators spliced in at
// the assembly's public seams.
RunResult run_traced(const ExperimentConfig& config, Tracer& tracer) {
  ExperimentConfig cfg = config;
  const bool scenario_active = !cfg.scenario.empty();
  if (scenario_active) {
    cfg.mnp.journal_progress = true;
    cfg.deluge.journal_progress = true;
    cfg.moap.journal_progress = true;
    cfg.ncast.journal_progress = true;
  }
  tracer.running = false;

  sim::Simulator sim(cfg.seed);
  sim.scheduler().set_tie_break(cfg.tie_break);
  net::Topology topo = net::Topology::grid(cfg.rows, cfg.cols, cfg.spacing_ft);

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
  mnp::scenario::ScenarioLinkModel* scenario_links = nullptr;
  const node::Network::LinkModelFactory link_factory =
      [&](const net::Topology& owned) -> std::unique_ptr<net::LinkModel> {
    std::unique_ptr<net::LinkModel> links = make_links(owned);
    if (scenario_active) {
      auto wrapped = std::make_unique<mnp::scenario::ScenarioLinkModel>(
          std::move(links), owned.size());
      scenario_links = wrapped.get();
      links = std::move(wrapped);
    }
    return std::make_unique<TimedLinkModel>(std::move(links), tracer);
  };

  // Node builds its default CSMA MAC with this exact fork at this exact
  // point of its construction; anything else shifts the RNG tree.
  const node::Node::MacFactory mac_factory =
      [&tracer](net::NodeId id, net::Radio& radio,
                sim::Simulator& s) -> std::unique_ptr<net::Mac> {
    return std::make_unique<TimedMac>(
        std::make_unique<net::CsmaMac>(radio, s.scheduler(),
                                       s.fork_rng(0x3A5Cu + id)),
        tracer);
  };

  node::Network network(sim, std::move(topo), link_factory, cfg.channel, {},
                        mac_factory);
  node::StatsCollector& stats = network.stats();
  TimedObserver observer(stats, network.channel(), tracer);
  network.channel().set_observer(&observer);

  auto image = std::make_shared<const mnp::core::ProgramImage>(
      cfg.program_id, cfg.program_bytes,
      mnp::harness::image_packets_per_segment(cfg),
      mnp::harness::image_payload_bytes(cfg));
  LayerTime& on_packet = tracer.on_packet[static_cast<int>(cfg.protocol)];
  for (net::NodeId id = 0; id < network.size(); ++id) {
    network.node(id).set_application(std::make_unique<TimedApplication>(
        make_application(cfg, id == cfg.base, image), on_packet, tracer));
  }

  network.boot_all(cfg.boot_jitter);

  std::optional<mnp::scenario::ScenarioEngine> engine;
  if (scenario_active) {
    engine.emplace(cfg.scenario, network, scenario_links, cfg.base);
    std::string scenario_error;
    if (!engine->arm(&scenario_error)) {
      std::fprintf(stderr, "scenario '%s': %s\n", cfg.scenario.name().c_str(),
                   scenario_error.c_str());
      RunResult bad;
      bad.scenario_error = std::move(scenario_error);
      return bad;
    }
  }

  // The event loop: Simulator::run_until_condition, one timed step() at a
  // time.
  sim::Scheduler& sched = sim.scheduler();
  const auto done = [&] {
    return engine ? engine->converged() : stats.all_completed();
  };
  tracer.running = true;
  const std::uint64_t allocs_before = g_heap_allocs;
  g_count_allocs = true;
  while (!done()) {
    if (sched.empty() || sim.now() >= cfg.max_sim_time) break;
    const sim::Time next = sched.next_event_time();
    if (next == sim::kNever || next > cfg.max_sim_time) break;
    tracer.begin_event();
    const std::int64_t t0 = now_ns();
    sched.step();
    tracer.end_event(now_ns() - t0);
    tracer.pending_peak = std::max(tracer.pending_peak, sched.pending_events());
    tracer.tombstones_peak =
        std::max(tracer.tombstones_peak, sched.tombstone_events());
  }
  g_count_allocs = false;
  tracer.heap_allocs += g_heap_allocs - allocs_before;
  tracer.running = false;

  // ---- result capture, as run_experiment does it ---------------------------
  net::Channel& channel = network.channel();
  channel.set_observer(&stats);  // `observer` dies before `network`
  RunResult result;
  result.rows = cfg.rows;
  result.cols = cfg.cols;
  result.measured_at = sim.now();
  result.all_completed = stats.all_completed();
  result.completed_count = stats.completed_count();
  result.completion_time = stats.completion_time();
  result.sender_order = stats.sender_order();
  result.timeline = stats.timeline();
  result.transmissions = channel.transmissions();
  result.deliveries = channel.deliveries();
  result.collisions = channel.collisions();
  result.bulk_overlaps = channel.concurrent_bulk_overlaps();
  if (engine) {
    result.scenario_injected = engine->injected();
    for (net::NodeId id = 0; id < network.size(); ++id) {
      if (network.node(id).is_dead()) ++result.dead_nodes;
    }
  }

  result.nodes.resize(network.size());
  for (net::NodeId id = 0; id < network.size(); ++id) {
    using net::PacketType;
    const node::NodeStats& ns = stats.node(id);
    node::Node& n = network.node(id);
    mnp::harness::NodeResult& out = result.nodes[id];
    out.completion = ns.completion_time;
    out.active_radio = n.meter().active_radio_time(sim.now());
    out.active_radio_after_first_adv =
        n.meter().active_radio_time_after_first_adv(sim.now());
    out.parent = ns.parent;
    out.became_sender = ns.became_sender;
    out.tx_total = ns.total_sent();
    out.rx_total = ns.total_received();
    out.tx_adv = ns.sent_of(PacketType::kAdvertisement) +
                 ns.sent_of(PacketType::kDelugeSummary) +
                 ns.sent_of(PacketType::kMoapPublish) +
                 ns.sent_of(PacketType::kNcastAdv);
    out.tx_req = ns.sent_of(PacketType::kDownloadRequest) +
                 ns.sent_of(PacketType::kDelugeRequest) +
                 ns.sent_of(PacketType::kMoapSubscribe) +
                 ns.sent_of(PacketType::kMoapNack) +
                 ns.sent_of(PacketType::kXnpFixRequest) +
                 ns.sent_of(PacketType::kNcastRequest);
    out.tx_data = ns.sent_of(PacketType::kData) +
                  ns.sent_of(PacketType::kDelugeData) +
                  ns.sent_of(PacketType::kMoapData) +
                  ns.sent_of(PacketType::kXnpData) +
                  ns.sent_of(PacketType::kNcastCoded);
    out.eeprom_writes = n.eeprom().total_writes();
    out.collisions_suffered = ns.collisions_suffered;
    out.energy_nah = n.meter().total_nah(sim.now());
  }

  for (net::NodeId id = 0; id < network.size(); ++id) {
    if (id == cfg.base) {
      result.nodes[id].image_verified = true;
      continue;
    }
    if (result.nodes[id].completion < 0) continue;
    auto stored = network.node(id).eeprom().read(0, image->total_bytes());
    result.nodes[id].image_verified = image->matches(stored);
  }

  tracer.tx += result.transmissions;
  tracer.deliveries += result.deliveries;
  tracer.collisions += result.collisions;
  tracer.bulk_overlaps += result.bulk_overlaps;
  tracer.cache_repairs += channel.cache_repairs();
  tracer.cache_invalidations += channel.cache_invalidations();
  tracer.frame_node_allocs += channel.frame_pool().node_allocations();
  tracer.frame_payload_allocs += channel.frame_pool().payload_allocations();
  tracer.scenario_injected += result.scenario_injected;
  return result;
}

}  // namespace e2ebench
