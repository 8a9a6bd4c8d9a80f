// Subset dissemination (paper section 6): two different programs flow
// simultaneously to two disjoint halves of the same field, from two base
// stations, sharing one radio channel. Nodes ignore (and sleep through)
// transfers of the program they are not subscribed to, while the sender
// election still coordinates across programs because the channel is shared.
#include <iostream>
#include <memory>

#include "mnp/mnp_node.hpp"
#include "node/network.hpp"
#include "sim/simulator.hpp"
#include "util/ascii_grid.hpp"

int main() {
  using namespace mnp;
  constexpr std::size_t kRows = 6, kCols = 12;

  sim::Simulator sim(7);
  node::Network network(
      sim, net::Topology::grid(kRows, kCols, 10.0), [&](const net::Topology& t) {
        net::EmpiricalLinkModel::Params lp;
        lp.range_ft = 25.0;
        return std::make_unique<net::EmpiricalLinkModel>(t, lp,
                                                         sim.fork_rng(0x11A7));
      });

  core::MnpConfig cfg;
  auto sensing = std::make_shared<const core::ProgramImage>(
      10, 2 * cfg.packets_per_segment * cfg.payload_bytes);
  auto tracking = std::make_shared<const core::ProgramImage>(
      20, 2 * cfg.packets_per_segment * cfg.payload_bytes);

  std::vector<core::MnpNode*> apps(network.size());
  for (net::NodeId id = 0; id < network.size(); ++id) {
    const bool left = (id % kCols) < kCols / 2;
    core::MnpConfig node_cfg = cfg;
    node_cfg.target_program = left ? 10 : 20;
    std::unique_ptr<core::MnpNode> app;
    if (id == 0) {
      app = std::make_unique<core::MnpNode>(node_cfg, sensing);
    } else if (id == kCols - 1) {
      app = std::make_unique<core::MnpNode>(node_cfg, tracking);
    } else {
      app = std::make_unique<core::MnpNode>(node_cfg);
    }
    apps[id] = app.get();
    network.node(id).set_application(std::move(app));
  }
  network.boot_all();

  std::cout << "Disseminating program 10 (left half, base upper-left) and\n"
               "program 20 (right half, base upper-right) concurrently...\n\n";
  sim.run_until_condition(sim::hours(2), [&] {
    return network.complete_image_count() == network.size();
  });

  std::size_t correct = 0;
  for (net::NodeId id = 0; id < network.size(); ++id) {
    const bool left = (id % kCols) < kCols / 2;
    if (apps[id]->reboot(left ? *sensing : *tracking)) ++correct;
  }
  std::cout << "finished at " << sim::format_time(sim.now()) << ": "
            << network.complete_image_count() << "/" << network.size()
            << " nodes complete, " << correct << "/" << network.size()
            << " verified against their subscribed program\n\n";
  std::cout << "program map ('s' = sensing, 't' = tracking, upper = base):\n"
            << util::render_grid(kRows, kCols, [&](std::size_t r, std::size_t c) {
                 const net::NodeId id = static_cast<net::NodeId>(r * kCols + c);
                 const bool left = c < kCols / 2;
                 const bool base = id == 0 || id == kCols - 1;
                 char cell = left ? 's' : 't';
                 if (base) cell = static_cast<char>(cell - 32);  // upper
                 if (!apps[id]->has_complete_image()) cell = '.';
                 return std::string(1, cell);
               });
  return correct == network.size() ? 0 : 1;
}
