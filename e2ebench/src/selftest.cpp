// e2e_selftest: checks that the traced run measures the same program the
// timed samples run.
//  1. Every decorator forwards every virtual of its interface (recording
//     fakes behind each decorator).
//  2. Tiny grids for each protocol plus a tiny churn case: the traced
//     assembly's RunResult equals run_experiment's field for field, and the
//     decorator call counts match the channel's own counters.
//  3. Workload generation is a pure function of the seed.
// Exits 0 when every check passes.
#include <cstdio>
#include <string>

#include "traced.hpp"
#include "workloads.hpp"

namespace {

namespace net = mnp::net;
using e2ebench::Tracer;
using mnp::harness::ExperimentConfig;
using mnp::harness::Protocol;
using mnp::harness::RunResult;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

class FakeLinks final : public net::LinkModel {
 public:
  mutable int calls[5] = {0, 0, 0, 0, 0};
  double packet_success(net::NodeId, net::NodeId, double) const override {
    ++calls[0];
    return 0.25;
  }
  bool interferes(net::NodeId, net::NodeId, double) const override {
    ++calls[1];
    return true;
  }
  std::uint64_t revision() const override {
    ++calls[2];
    return 7;
  }
  double max_interference_range(double power_scale) const override {
    ++calls[3];
    return 40.0 * power_scale;
  }
  bool changed_nodes_since(std::uint64_t since,
                           std::vector<net::NodeId>& out) const override {
    ++calls[4];
    out.push_back(3);
    return since == 5;
  }
};

class FakeApp final : public mnp::node::Application {
 public:
  mutable int packets = 0, complete = 0, resets = 0, digests = 0;
  void start(mnp::node::Node&) override {}
  void on_packet(const net::Packet&) override { ++packets; }
  bool has_complete_image() const override {
    ++complete;
    return true;
  }
  void reset_for_reboot() override { ++resets; }
  std::uint64_t audit_digest() const override {
    ++digests;
    return 0xABCD;
  }
};

class FakeMac final : public net::Mac {
 public:
  mutable int attach = 0, frame_sends = 0, packet_sends = 0, flushes = 0,
              send_done = 0;
  void attach_metrics(mnp::obs::MetricsRegistry&) override { ++attach; }
  bool send(net::FramePtr) override {
    ++frame_sends;
    return false;
  }
  bool send(net::Packet) override {
    ++packet_sends;
    return true;
  }
  void flush() override { ++flushes; }
  std::size_t queue_depth() const override { return 3; }
  bool idle() const override { return false; }
  std::uint64_t packets_sent() const override { return 11; }
  std::uint64_t packets_dropped() const override { return 13; }
  void set_send_done(std::function<void(const net::Packet&)>) override {
    ++send_done;
  }
};

void test_forwarding() {
  Tracer t;
  auto links_owned = std::make_unique<FakeLinks>();
  const FakeLinks& links = *links_owned;
  const e2ebench::TimedLinkModel timed_links(std::move(links_owned), t);
  std::vector<net::NodeId> out;
  check(timed_links.packet_success(1, 2, 1.0) == 0.25, "link packet_success value");
  check(timed_links.interferes(1, 2, 1.0), "link interferes value");
  check(timed_links.revision() == 7, "link revision forwarded");
  check(timed_links.max_interference_range(0.5) == 20.0,
        "link max_interference_range forwarded");
  check(!timed_links.changed_nodes_since(4, out) && out.size() == 1,
        "link changed_nodes_since forwarded");
  for (int c : links.calls) check(c == 1, "link: each virtual reaches the inner model once");
  check(t.link_setup.calls == 2, "link: hot calls timed");

  auto app_owned = std::make_unique<FakeApp>();
  const FakeApp& app = *app_owned;
  e2ebench::TimedApplication timed_app(std::move(app_owned), t.on_packet[0], t);
  timed_app.on_packet(net::Packet{});
  check(timed_app.has_complete_image(), "app has_complete_image value");
  timed_app.reset_for_reboot();
  check(timed_app.audit_digest() == 0xABCD, "app audit_digest value");
  check(app.packets == 1 && app.complete == 1 && app.resets == 1 &&
            app.digests == 1,
        "app: each virtual reaches the protocol once");
  check(t.on_packet[0].calls == 1 && t.saw_receive, "app: on_packet timed and classified");

  auto mac_owned = std::make_unique<FakeMac>();
  const FakeMac& mac = *mac_owned;
  e2ebench::TimedMac timed_mac(std::move(mac_owned), t);
  mnp::obs::MetricsRegistry registry;
  timed_mac.attach_metrics(registry);
  check(!timed_mac.send(net::FramePtr{}), "mac frame send value");
  check(timed_mac.send(net::Packet{}), "mac packet send value");
  timed_mac.flush();
  timed_mac.set_send_done([](const net::Packet&) {});
  check(timed_mac.queue_depth() == 3 && !timed_mac.idle() &&
            timed_mac.packets_sent() == 11 && timed_mac.packets_dropped() == 13,
        "mac queries forwarded");
  check(mac.attach == 1 && mac.frame_sends == 1 && mac.packet_sends == 1 &&
            mac.flushes == 1 && mac.send_done == 1,
        "mac: each virtual reaches the inner MAC once");
  check(t.mac_send.calls == 2 && t.mac_drops == 1 && t.mac_queue_peak == 3,
        "mac: sends timed, drops and queue peak recorded");
}

void test_fidelity(const std::string& name, const ExperimentConfig& cfg,
                   bool must_complete) {
  const RunResult ref = mnp::harness::run_experiment(cfg);
  Tracer t;
  const RunResult got = e2ebench::run_traced(cfg, t);
  check(e2ebench::encode(got) == e2ebench::encode(ref),
        name + ": traced RunResult equals run_experiment's");
  if (must_complete) {
    const std::string err = e2ebench::check_run(ref);
    check(err.empty(), name + ": correctness checks (" + err + ")");
  }
  check(got.transmissions > 0, name + ": traffic flowed");
  check(t.tx == got.transmissions, name + ": chan.tx recorded");
  check(t.stats_transmit.calls == got.transmissions,
        name + ": stats.on_transmit calls == chan.tx");
  check(t.stats_deliver.calls == got.deliveries,
        name + ": stats.on_deliver calls == chan.deliveries");
  check(t.stats_collision.calls == got.collisions,
        name + ": stats.on_collision calls == chan.collisions");
  check(t.on_packet[static_cast<int>(cfg.protocol)].calls == got.deliveries,
        name + ": on_packet calls == chan.deliveries");
  check(t.mac_send.calls - t.mac_drops >= got.transmissions,
        name + ": every transmission came through an accepted MAC send");
  check(t.tx_start.events == got.transmissions,
        name + ": one tx-start event per transmission");
  check(t.link_run.calls > 0, name + ": link model queried while running");
  std::printf("ran %-10s tx=%llu events=%llu\n", name.c_str(),
              static_cast<unsigned long long>(got.transmissions),
              static_cast<unsigned long long>(t.events()));
}

void test_workload_generation() {
  for (const std::string& w : e2ebench::workload_names()) {
    const auto a = e2ebench::workload_configs(w, 42);
    const auto b = e2ebench::workload_configs(w, 42);
    check(!a.empty() && a.size() == b.size(), w + ": configs generated");
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
      check(e2ebench::describe(a[i]) == e2ebench::describe(b[i]) &&
                a[i].scenario.events().size() == b[i].scenario.events().size(),
            w + ": same seed, same config");
    }
  }
  const auto movers = [](std::uint64_t seed) {
    std::vector<mnp::net::NodeId> ids;
    const auto scenario = e2ebench::churn_scenario(30, 30, 10.0, seed);
    for (const auto& e : scenario.events()) {
      if (e.kind == mnp::scenario::EventKind::kMove) ids.push_back(e.node);
    }
    return ids;
  };
  check(e2ebench::churn_scenario(30, 30, 10.0, 3).events().size() == 2 + 45,
        "churn: crash wave, partition, 45 moves");
  check(movers(3) == movers(3) && movers(3) != movers(4),
        "churn: the seed picks the movers");
  check(e2ebench::workload_configs("no_such_workload", 1).empty(),
        "unknown workload rejected");
}

}  // namespace

int main() {
  test_forwarding();
  test_workload_generation();
  test_fidelity("mnp", e2ebench::grid_config(Protocol::kMnp, 5, 2, 11), true);
  test_fidelity("deluge", e2ebench::grid_config(Protocol::kDeluge, 5, 1, 12), true);
  test_fidelity("moap", e2ebench::grid_config(Protocol::kMoap, 5, 1, 13), true);
  test_fidelity("ncast", e2ebench::grid_config(Protocol::kNcast, 5, 1, 14), true);
  ExperimentConfig xnp = e2ebench::grid_config(Protocol::kXnp, 3, 1, 15);
  xnp.max_sim_time = mnp::sim::minutes(20);
  test_fidelity("xnp", xnp, false);
  ExperimentConfig churn = e2ebench::grid_config(Protocol::kMnp, 8, 2, 16);
  churn.scenario = e2ebench::churn_scenario(churn.rows, churn.cols,
                                            churn.spacing_ft, 16);
  test_fidelity("mnp_churn", churn, true);
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
