// Protocol trace: attach the event log to a small dissemination and print
// one node's life — every state transition of the paper's Fig.-4 machine,
// plus its segment/image completions. Pass a node id to inspect (default:
// the far corner). Exits 1 when the dissemination does not complete.
#include <cstdlib>
#include <iostream>
#include <memory>

#include "mnp/mnp_node.hpp"
#include "node/network.hpp"
#include "sim/simulator.hpp"
#include "trace/event_log.hpp"

int main(int argc, char** argv) {
  using namespace mnp;
  constexpr std::size_t kRows = 4, kCols = 4;
  const net::NodeId focus =
      argc > 1 ? static_cast<net::NodeId>(std::atoi(argv[1]))
               : static_cast<net::NodeId>(kRows * kCols - 1);

  sim::Simulator sim(12);
  node::Network network(
      sim, net::Topology::grid(kRows, kCols, 10.0), [&](const net::Topology& t) {
        net::EmpiricalLinkModel::Params lp;
        lp.range_ft = 25.0;
        return std::make_unique<net::EmpiricalLinkModel>(t, lp,
                                                         sim.fork_rng(0x11A7));
      });
  trace::EventLog log;
  network.stats().set_event_log(&log);

  core::MnpConfig cfg;
  auto image = std::make_shared<const core::ProgramImage>(
      1, 2 * cfg.packets_per_segment * cfg.payload_bytes);
  for (net::NodeId id = 0; id < network.size(); ++id) {
    network.node(id).set_application(
        id == 0 ? std::make_unique<core::MnpNode>(cfg, image)
                : std::make_unique<core::MnpNode>(cfg));
  }
  network.boot_all();
  const bool completed = sim.run_until_condition(
      sim::hours(1), [&] { return network.stats().all_completed(); });

  std::cout << "dissemination " << (completed ? "finished" : "incomplete")
            << " at " << sim::format_time(sim.now())
            << "; log holds " << log.size() << " events (" << log.dropped()
            << " evicted)\n\n";
  std::cout << "event counts:\n";
  for (const auto& [kind, count] : log.counts_by_kind()) {
    std::cout << "  " << trace::to_string(kind) << ": " << count << "\n";
  }
  std::cout << "\nstate-machine life of node " << focus << ":\n";
  for (const auto& e : log.for_node(focus)) {
    if (e.kind == trace::EventKind::kPacketSent ||
        e.kind == trace::EventKind::kPacketReceived) {
      continue;  // too chatty for this view
    }
    std::cout << "  " << sim::format_time(e.time) << "  "
              << trace::to_string(e.kind)
              << (e.detail.empty() ? "" : "  " + e.detail) << "\n";
  }
  return completed ? 0 : 1;
}
