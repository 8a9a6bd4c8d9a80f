// mnp_paper: the paper's evaluation as one registry of claims.
//
// Every table, figure, ablation and comparison of DESIGN.md section 3 is
// one Claim, keyed by its experiment id: the fixed-seed runs behind it, a
// renderer printing the figure's rows, and a predicate stating
// EXPERIMENTS.md's verdict on those runs. Claims EXPERIMENTS.md marks as
// reproduced are gated: a failing one makes the binary exit 1, and ctest
// runs each id as one test under the `claims` label. The two documented
// non-reproductions are reported: they print but never fail.
//
//   mnp_paper [ID...] [--trace-out PATH] [--metrics-out PATH] [--audit-out PATH]
//
// No ids runs every claim. Output: each figure, then one "claim <id>:
// PASS|FAIL|REPORTED — <statement> [<measured>]" line per claim, then "N of M
// claims hold". Output files describe the last claim's last run (A6: its sweep).
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "energy/energy_model.hpp"
#include "harness/observe.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"

namespace {

using namespace mnp;
using harness::ExperimentConfig;
using harness::RunResult;

struct Run {
  const char* label;
  ExperimentConfig cfg;
  RunResult r;
};

/// What one claim's runs produced, in run order. A seed sweep (A6) leaves
/// its aggregate in `sweep` instead.
struct Outcome {
  std::vector<Run> runs;
  harness::SweepResult sweep;
};

/// A predicate's answer plus the measured values it judged.
struct Verdict {
  bool holds;
  std::string measured;
};

[[gnu::format(printf, 1, 2)]] std::string fmt(const char* format, ...) {
  va_list args, size_args;
  va_start(args, format);
  va_copy(size_args, args);
  std::string out(static_cast<std::size_t>(std::vsnprintf(nullptr, 0, format, size_args)), '\0');
  va_end(size_args);
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

/// Runs one claim's configurations. When an output flag was given every
/// run is observed, a run that overflowed the event ring exits 1 (figure
/// runs must never drop telemetry silently), and the files are rewritten
/// after each run, so they end up describing the claim's last one.
class Session {
 public:
  explicit Session(const harness::ObsCli& cli) : cli_(cli) {}

  /// Runs and records `cfg`; the returned result lives until the next run.
  const RunResult& run(const ExperimentConfig& cfg, const char* label = "") {
    harness::Observation observation;
    observation.with_audit = cli_.wants_audit();
    out_.runs.push_back({label, cfg, harness::run_experiment(
                             cfg, cli_.enabled() ? &observation : nullptr)});
    finish(cfg, cfg.seed, 1, observation);
    return out_.runs.back().r;
  }

  /// `runs` seeds from `first_seed` through run_sweep, on MNP_SWEEP_JOBS
  /// workers; observed like mnp_sim_cli --runs (metrics merged over seeds).
  void sweep(const ExperimentConfig& cfg, std::size_t runs, std::uint64_t first_seed) {
    harness::Observation observation;
    observation.with_audit = cli_.wants_audit();
    harness::SweepOptions options;
    if (cli_.enabled()) options.observe = &observation;
    out_.sweep = harness::run_sweep(cfg, runs, first_seed, options);
    finish(cfg, first_seed, runs, observation);
  }

  const Outcome& outcome() const { return out_; }

 private:
  void finish(const ExperimentConfig& cfg, std::uint64_t first_seed, std::size_t runs,
              const harness::Observation& observation) {
    if (!cli_.enabled()) return;
    if (observation.log.dropped() != 0) {
      std::cerr << "event ring overflowed: " << observation.log.dropped()
                << " dropped event(s); raise the Observation trace capacity\n";
      std::exit(1);
    }
    if (!cli_.write(cfg, first_seed, runs, observation)) std::exit(1);
  }

  const harness::ObsCli& cli_;
  Outcome out_;
};

enum Gate { kReported, kGated };  // kReported: a documented non-reproduction

struct Claim {
  const char* id;                    // DESIGN.md section 3 experiment id
  void (*run)(Session&);             // the claim's fixed-seed runs
  void (*render)(const Outcome&);    // the figure's rows
  Verdict (*judge)(const Outcome&);  // does the statement hold on the runs?
  Gate gate;
  const char* statement;             // the claim, as EXPERIMENTS.md judges it
};

// ---- shared configurations and measurements ---------------------------------
/// MNP on a rows x cols grid (10 ft spacing, base in the corner).
ExperimentConfig grid(std::size_t rows, std::size_t cols, std::uint16_t segments,
                      std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.set_program_segments(segments);
  cfg.seed = seed;
  return cfg;
}

/// The run Figs. 8, 9, 11 and 12 all read: 20x20, 5 segments (~14 KB).
ExperimentConfig fig8_config() { return grid(20, 20, 5, 8); }
void run_fig8(Session& s) { s.run(fig8_config()); }

bool all_complete(const Outcome& o) {
  return std::all_of(o.runs.begin(), o.runs.end(),
                     [](const Run& run) { return run.r.all_completed; });
}

/// Nodes some other node took its code from (the figures' effective senders).
std::size_t effective_senders(const RunResult& r) {
  std::set<int> parents;
  for (const auto& n : r.nodes) parents.insert(n.parent);
  return parents.size() - parents.count(-1);
}

double completion_s(const RunResult& r) { return sim::to_seconds(r.completion_time); }

std::size_t complete_pct(const RunResult& r) {
  return 100 * r.completed_count / r.nodes.size();
}

unsigned long long ull(std::uint64_t v) { return v; }

/// Coefficient of determination of the least-squares line through points.
double r_squared(const std::vector<std::pair<double, double>>& points) {
  const double n = static_cast<double>(points.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (const auto& [x, y] : points) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    syy += y * y;
  }
  const double cov = sxy - sx * sy / n;
  return cov * cov / ((sxx - sx * sx / n) * (syy - sy * sy / n));
}

// ---- T1: Table 1, the cost model every energy number is priced with --------
/// Table-1 pricing of a run, split by component (nAh).
struct Charge { double tx = 0, rx = 0, idle = 0, eeprom = 0, total = 0; };

Charge charge(const RunResult& r) {
  const energy::EnergyModel m;
  Charge c;
  for (const auto& n : r.nodes) {
    c.tx += static_cast<double>(n.tx_total) * m.tx_packet_nah;
    c.rx += static_cast<double>(n.rx_total) * m.rx_packet_nah;
    c.idle += m.idle_cost_nah(n.active_radio);
  }
  c.total = r.total_energy_nah();
  c.eeprom = c.total - c.tx - c.rx - c.idle;
  return c;
}

void run_t1(Session& s) { s.run(grid(5, 5, 2, 1)); }

void render_t1(const Outcome& o) {
  std::cout << "=== Table 1: Power required by various Mica operations ===\n\n";
  const energy::EnergyModel m;
  std::printf("%-38s %10s\n", "Operation", "nAh");
  std::printf("%-38s %10.3f\n", "Transmitting a packet", m.tx_packet_nah);
  std::printf("%-38s %10.3f\n", "Receiving a packet", m.rx_packet_nah);
  std::printf("%-38s %10.3f\n", "Idle listening for 1 millisecond", m.idle_listen_per_ms_nah);
  std::printf("%-38s %10.3f\n", "EEPROM Read Data (16B)", m.eeprom_read_16b_nah);
  std::printf("%-38s %10.3f\n", "EEPROM Write Data (16B)", m.eeprom_write_16b_nah);

  std::cout << "\n--- applied to one 5x5 / 2-segment MNP dissemination ---\n";
  const Charge c = charge(o.runs[0].r);
  std::printf("\n%-28s %14s %8s\n", "component", "nAh", "share");
  std::printf("%-28s %14.0f %7.1f%%\n", "transmissions", c.tx, 100 * c.tx / c.total);
  std::printf("%-28s %14.0f %7.1f%%\n", "receptions", c.rx, 100 * c.rx / c.total);
  std::printf("%-28s %14.0f %7.1f%%\n", "idle listening", c.idle, 100 * c.idle / c.total);
  std::printf("%-28s %14.0f %7.1f%%\n", "EEPROM (rest)", c.eeprom, 100 * c.eeprom / c.total);
  std::printf("%-28s %14.0f\n", "total", c.total);
}

Verdict judge_t1(const Outcome& o) {
  const Charge c = charge(o.runs[0].r);
  return {c.idle > std::max({c.tx, c.rx, c.eeprom}),
          fmt("idle %.1f%%, EEPROM %.1f%%, rx %.1f%%, tx %.1f%%", 100 * c.idle / c.total,
              100 * c.eeprom / c.total, 100 * c.rx / c.total, 100 * c.tx / c.total)};
}

// ---- F5-F7: the testbed grids, basic MNP at two power levels ----------------
using Power = std::pair<const char*, double>;  // a power level and its range in feet

/// Basic MNP (no pipelining) pushing one 200-packet segment (~4.4 KB) from
/// the corner of a 3 ft grid, at a higher and then a lower power level.
void run_testbed(Session& s, std::size_t rows, std::size_t cols, std::uint64_t seed,
                 Power high, Power low) {
  for (const auto& [label, range_ft] : {high, low}) {
    ExperimentConfig cfg = grid(rows, cols, 1, seed);
    cfg.spacing_ft = 3.0;
    cfg.range_ft = range_ft;
    cfg.mnp.pipelining = false;
    cfg.mnp.packets_per_segment = 200;  // one large EEPROM-tracked segment
    cfg.program_bytes = 200 * 22;
    s.run(cfg, label);
  }
}

void run_f5(Session& s) {
  run_testbed(s, 5, 4, 11, {"power level 4", 9.0}, {"power level 3", 6.0});
}
void run_f6(Session& s) {
  run_testbed(s, 7, 7, 21, {"full power", 20.0}, {"power level 10", 10.0});
}
void run_f7(Session& s) {
  run_testbed(s, 2, 10, 31, {"full power", 12.0}, {"power level 10", 7.0});
}

void render_testbed(const Outcome& o, bool show_range) {
  for (const Run& run : o.runs) {
    std::cout << "---- " << run.label;
    if (show_range) std::cout << " (range " << run.cfg.range_ft << " ft)";
    std::cout << " ----\n";
    harness::print_summary(std::cout, run.label, run.r);
    harness::print_parent_map(std::cout, run.r, run.cfg.base);
    harness::print_sender_order(std::cout, run.r);
    std::cout << "\n";
  }
}

void render_f5(const Outcome& o) {
  std::cout << "=== Fig. 5: indoor 5x4 grid, basic MNP (no pipelining) ===\n"
               "(power level -> range mapping: level 4 ~ 9 ft, level 3 ~ 6 ft\n"
               " at 3 ft inter-node spacing)\n\n";
  render_testbed(o, true);
}

void render_f6(const Outcome& o) {
  std::cout << "=== Fig. 6: outdoor 7x7 grid, basic MNP ===\n\n";
  render_testbed(o, false);
}

void render_f7(const Outcome& o) {
  std::cout << "=== Fig. 7: outdoor 2x10 grid, basic MNP ===\n\n";
  render_testbed(o, false);
}

/// The higher power level ran first.
Verdict judge_power(const Outcome& o) {
  const RunResult& high = o.runs[0].r;
  const RunResult& low = o.runs[1].r;
  return {all_complete(o) && effective_senders(low) > effective_senders(high) &&
              low.completion_time > high.completion_time,
          fmt("senders %zu -> %zu, completion %.1f s -> %.1f s", effective_senders(high),
              effective_senders(low), completion_s(high), completion_s(low))};
}

Verdict judge_f6(const Outcome& o) {
  Verdict v = judge_power(o);
  const std::uint64_t overlaps = o.runs[0].r.bulk_overlaps;
  v.holds = v.holds && overlaps == 0;
  v.measured += fmt(", full-power bulk overlaps %llu", ull(overlaps));
  return v;
}

// ---- F8: active radio time by location --------------------------------------
/// Means of `value` over the grid's edge ring and over its central 6x6
/// block (rows and columns 7-12 of 20): the regions Figs. 8 and 11 contrast.
struct Regions { double center, edge; };

Regions regions(const RunResult& r, double (*value)(const harness::NodeResult&)) {
  double center = 0, edge = 0;
  std::size_t center_n = 0, edge_n = 0;
  for (std::size_t row = 0; row < r.rows; ++row) {
    for (std::size_t col = 0; col < r.cols; ++col) {
      const double v = value(r.nodes[row * r.cols + col]);
      if (row == 0 || col == 0 || row + 1 == r.rows || col + 1 == r.cols) {
        edge += v;
        ++edge_n;
      } else if (row >= 7 && row <= 12 && col >= 7 && col <= 12) {
        center += v;
        ++center_n;
      }
    }
  }
  return {center / static_cast<double>(center_n), edge / static_cast<double>(edge_n)};
}

double art_s(const harness::NodeResult& n) { return sim::to_seconds(n.active_radio); }

void render_f8(const Outcome& o) {
  const RunResult& r = o.runs[0].r;
  std::cout << "=== Fig. 8: active radio time, 20x20 grid, 5 segments (~14 KB) ===\n\n";
  harness::print_summary(std::cout, "MNP 20x20 / 5 segments", r);
  std::cout << "\n";
  harness::print_active_radio(std::cout, r);
  const Regions art = regions(r, art_s);
  std::cout << std::fixed << std::setprecision(1);
  std::cout << "\ncenter-region avg ART: " << art.center
            << " s; edge-region avg ART: " << art.edge << " s\n";
  std::cout << "completion time: " << sim::format_time(r.completion_time)
            << "; avg ART / completion = "
            << 100.0 * r.avg_active_radio_s() / completion_s(r) << "%\n";
}

Verdict judge_f8(const Outcome& o) {
  const RunResult& r = o.runs[0].r;
  const double on = r.avg_active_radio_s() / completion_s(r);
  const Regions art = regions(r, art_s);
  return {r.all_completed && on < 0.75 && art.center < art.edge,
          fmt("ART %.1f%% of completion, center %.1f s vs edge %.1f s", 100 * on,
              art.center, art.edge)};
}

// ---- F9: active radio time without initial idle listening -------------------
struct ArtStats { util::RunningStats total, post_adv; };

ArtStats art_stats(const RunResult& r) {
  ArtStats s;
  for (const auto& n : r.nodes) {
    s.total.add(sim::to_seconds(n.active_radio));
    s.post_adv.add(sim::to_seconds(n.active_radio_after_first_adv));
  }
  return s;
}

double cv(const util::RunningStats& s) { return s.stddev() / s.mean(); }

void render_f9(const Outcome& o) {
  const RunResult& r = o.runs[0].r;
  std::cout << "=== Fig. 9: ART without initial idle listening, 20x20, 5 segments ===\n\n";
  std::cout << "ART after first advertisement, by node id (s):\n";
  for (std::size_t i = 0; i < r.nodes.size(); ++i) {
    std::cout << std::setw(7) << std::fixed << std::setprecision(1)
              << sim::to_seconds(r.nodes[i].active_radio_after_first_adv);
    if ((i + 1) % r.cols == 0) std::cout << "\n";
  }
  const ArtStats s = art_stats(r);
  const std::pair<const char*, const util::RunningStats*> rows[] = {
      {"total ART   | ", &s.total}, {"post-adv ART| ", &s.post_adv}};
  std::cout << "\n            |    mean |     min |     max |  stddev\n";
  for (const auto& [name, stats] : rows) {
    std::cout << name << std::setw(7) << stats->mean() << " | " << std::setw(7)
              << stats->min() << " | " << std::setw(7) << stats->max() << " | "
              << std::setw(7) << stats->stddev() << "\n";
  }
  std::cout << "\ncoefficient of variation: total " << std::setprecision(2)
            << cv(s.total) << " vs post-adv " << cv(s.post_adv) << "\n";
}

Verdict judge_f9(const Outcome& o) {
  const ArtStats s = art_stats(o.runs[0].r);
  return {cv(s.post_adv) < cv(s.total), fmt("%.2f -> %.2f", cv(s.total), cv(s.post_adv))};
}

// ---- F10: program size sweep ------------------------------------------------
void run_f10(Session& s) {
  for (std::uint16_t segments = 1; segments <= 10; ++segments) {
    s.run(grid(20, 20, segments, 10));
  }
}

unsigned segments(const ExperimentConfig& cfg) {
  return static_cast<unsigned>(cfg.program_bytes /
                               (cfg.mnp.packets_per_segment * cfg.mnp.payload_bytes));
}

void render_f10(const Outcome& o) {
  std::cout << "=== Fig. 10: program size sweep, 20x20 grid ===\n\n";
  std::printf("%8s %8s %14s %12s %20s\n", "segments", "KB", "completion(s)", "ART(s)",
              "ART w/o init idle(s)");
  for (const Run& run : o.runs) {
    std::printf("%8u %8.1f %14.1f %12.1f %20.1f\n", segments(run.cfg),
                static_cast<double>(run.cfg.program_bytes) / 1024.0, completion_s(run.r),
                run.r.avg_active_radio_s(), run.r.avg_active_radio_after_adv_s());
  }
}

Verdict judge_f10(const Outcome& o) {
  std::vector<std::pair<double, double>> points;
  for (const Run& run : o.runs) points.emplace_back(segments(run.cfg), completion_s(run.r));
  const double r2 = r_squared(points);
  return {all_complete(o) && r2 >= 0.98, fmt("R^2 = %.4f", r2)};
}

// ---- F11: transmissions and receptions by location --------------------------
/// The node that transmitted the most (the lowest id on ties).
std::size_t top_transmitter(const RunResult& r) {
  const auto fewer = [](const auto& a, const auto& b) { return a.tx_total < b.tx_total; };
  return static_cast<std::size_t>(
      std::max_element(r.nodes.begin(), r.nodes.end(), fewer) - r.nodes.begin());
}

double rx_count(const harness::NodeResult& n) { return static_cast<double>(n.rx_total); }

void render_f11(const Outcome& o) {
  const RunResult& r = o.runs[0].r;
  std::cout << "=== Fig. 11: tx/rx distribution, 20x20 grid, 5 segments ===\n\n";
  harness::print_tx_rx_distribution(std::cout, r);
  const std::size_t top = top_transmitter(r);
  const Regions rx = regions(r, rx_count);
  std::cout << std::fixed << std::setprecision(1);
  std::cout << "\navg messages sent per node: " << r.avg_messages_sent() << "\n";
  std::cout << "base station tx: " << r.nodes[o.runs[0].cfg.base].tx_total
            << "; network max tx: " << r.nodes[top].tx_total << " at node " << top << "\n";
  std::cout << "center avg rx: " << rx.center << "; edge avg rx: " << rx.edge << "\n";
}

Verdict judge_f11(const Outcome& o) {
  const RunResult& r = o.runs[0].r;
  const std::size_t top = top_transmitter(r);
  const Regions rx = regions(r, rx_count);
  return {top == o.runs[0].cfg.base && rx.center > rx.edge,
          fmt("top transmitter node %zu (%llu tx), center rx %.1f vs edge %.1f", top,
              ull(r.nodes[top].tx_total), rx.center, rx.edge)};
}

// ---- F12: message-type timeline ---------------------------------------------
/// Data messages per minute over minutes [first, last].
util::RunningStats data_rate(const RunResult& r, std::int64_t first, std::int64_t last) {
  util::RunningStats rate;
  for (const auto& [minute, counts] : r.timeline) {
    if (minute >= first && minute <= last) rate.add(static_cast<double>(counts[2]));
  }
  return rate;
}

std::int64_t last_minute(const RunResult& r) {
  return r.timeline.empty() ? 0 : r.timeline.rbegin()->first;
}

void render_f12(const Outcome& o) {
  const RunResult& r = o.runs[0].r;
  std::cout << "=== Fig. 12: message-type timeline, 20x20 grid, 5 segments ===\n\n";
  harness::print_timeline(std::cout, r);
  // The core of the run: past ramp-up minute 0, before the final partial minutes.
  const util::RunningStats core = data_rate(r, 1, last_minute(r) - 2);
  std::cout << "\ndata msgs/minute over the core of the run: mean " << core.mean()
            << ", min " << core.min() << ", max " << core.max() << "\n";
}

Verdict judge_f12(const Outcome& o) {
  const std::int64_t last = last_minute(o.runs[0].r);
  const util::RunningStats middle = data_rate(o.runs[0].r, (last + 3) / 4, 3 * last / 4);
  const double slowest = middle.min() / middle.mean();
  return {middle.count() > 0 && slowest >= 0.6,
          fmt("slowest minute at %.2f of the %.0f/min mean", slowest, middle.mean())};
}

// ---- F13: propagation progress ----------------------------------------------
/// Mean completion time (s) per ring of 4 Manhattan hops from the base
/// corner, keyed by the ring's nearest distance.
std::vector<std::pair<double, double>> rings(const RunResult& r) {
  std::vector<std::pair<double, int>> sums((r.rows + r.cols + 2) / 4);
  for (std::size_t row = 0; row < r.rows; ++row) {
    for (std::size_t col = 0; col < r.cols; ++col) {
      sums[(row + col) / 4].first += sim::to_seconds(r.nodes[row * r.cols + col].completion);
      ++sums[(row + col) / 4].second;
    }
  }
  std::vector<std::pair<double, double>> out;
  for (std::size_t i = 0; i < sums.size(); ++i) {
    out.emplace_back(4.0 * static_cast<double>(i), sums[i].first / sums[i].second);
  }
  return out;
}

void run_f13(Session& s) { s.run(grid(15, 15, 1, 13)); }

void render_f13(const Outcome& o) {
  const RunResult& r = o.runs[0].r;
  std::cout << "=== Fig. 13: propagation progress, 15x15 grid, 1 segment ===\n\n";
  harness::print_summary(std::cout, "MNP 15x15 / 1 segment", r);
  std::cout << "\n";
  harness::print_propagation_snapshots(std::cout, r, {0.3, 0.6, 0.9});
  std::cout << "completion time by Manhattan distance ring from base:\n";
  for (const auto& [ring, avg] : rings(r)) {
    const int first = static_cast<int>(ring);
    std::cout << "  ring " << first << "-" << first + 3 << ": avg " << avg << " s\n";
  }
}

Verdict judge_f13(const Outcome& o) {
  const double r2 = r_squared(rings(o.runs[0].r));
  return {o.runs[0].r.all_completed && r2 >= 0.98, fmt("R^2 = %.4f", r2)};
}

// ---- 5-D: MNP vs Deluge -----------------------------------------------------
void run_5d(Session& s) {
  for (std::uint16_t segments : {2, 5}) {
    for (auto protocol : {harness::Protocol::kMnp, harness::Protocol::kDeluge}) {
      ExperimentConfig cfg = grid(20, 20, segments, 17);
      cfg.protocol = protocol;
      cfg.max_sim_time = sim::hours(6);
      s.run(cfg);
    }
  }
}

void render_5d(const Outcome& o) {
  std::cout << "=== MNP vs Deluge, 20x20 grid ===\n\n";
  std::printf("%-8s %8s %14s %10s %16s %12s %12s\n", "proto", "KB", "completion(s)",
              "ART(s)", "ART/completion", "msgs/node", "energy/node");
  for (std::size_t i = 0; i + 1 < o.runs.size(); i += 2) {  // MNP, then Deluge
    for (const Run* run : {&o.runs[i], &o.runs[i + 1]}) {
      const RunResult& r = run->r;
      const double completion = completion_s(r);
      std::printf("%-8s %8.1f %14.1f %10.1f %15.1f%% %12.1f %12.0f\n",
                  harness::protocol_name(run->cfg.protocol),
                  static_cast<double>(run->cfg.program_bytes) / 1024.0, completion,
                  r.avg_active_radio_s(),
                  completion > 0 ? 100.0 * r.avg_active_radio_s() / completion : 0.0,
                  r.avg_messages_sent(),
                  r.total_energy_nah() / static_cast<double>(r.nodes.size()));
    }
    const RunResult& mnp_r = o.runs[i].r;
    const RunResult& del_r = o.runs[i + 1].r;
    std::printf("  -> MNP/Deluge completion: %.2fx; MNP/Deluge ART: %.2fx; "
                "bulk overlaps MNP %llu vs Deluge %llu\n\n",
                completion_s(mnp_r) / completion_s(del_r),
                mnp_r.avg_active_radio_s() / del_r.avg_active_radio_s(),
                ull(mnp_r.bulk_overlaps), ull(del_r.bulk_overlaps));
  }
}

Verdict judge_5d(const Outcome& o) {
  Verdict v{all_complete(o), ""};
  for (std::size_t i = 0; i + 1 < o.runs.size(); i += 2) {
    const RunResult& del_r = o.runs[i + 1].r;
    const double on = del_r.avg_active_radio_s() / completion_s(del_r);
    const double energy = o.runs[i].r.total_energy_nah() / del_r.total_energy_nah();
    v.holds = v.holds && on >= 0.99 && energy < 1.0;
    v.measured += fmt("%s%u segments: Deluge ART %.1f%% of completion, MNP/Deluge "
                      "energy %.2fx", i == 0 ? "" : "; ", segments(o.runs[i].cfg),
                      100 * on, energy);
  }
  return v;
}

// ---- 5-E: diagonal vs edge propagation --------------------------------------
/// Seconds per foot of physical distance for the code to reach the nodes
/// along the two edges and along the diagonal from the base corner.
struct Speeds {
  double edge, diag;
  double ratio() const { return edge > 0 ? diag / edge : 0.0; }
};

Speeds speeds(const Run& run) {
  const std::size_t n = run.r.rows;
  double sum[2] = {0, 0};  // edges, diagonal
  int reached[2] = {0, 0};
  const auto add = [&](int line, std::size_t node, double ft) {
    const sim::Time t = run.r.nodes[node].completion;
    if (t < 0) return;
    sum[line] += sim::to_seconds(t) / ft;
    ++reached[line];
  };
  for (std::size_t i = 1; i < n; ++i) {
    const double ft = static_cast<double>(i) * run.cfg.spacing_ft;
    add(0, i, ft);      // along row 0
    add(0, i * n, ft);  // along column 0
  }
  for (std::size_t i = 1; i < n; ++i) {
    add(1, i * n + i, static_cast<double>(i) * run.cfg.spacing_ft * 1.41421356);
  }
  return {reached[0] ? sum[0] / reached[0] : 0.0, reached[1] ? sum[1] / reached[1] : 0.0};
}

void run_5e(Session& s) {
  for (auto protocol : {harness::Protocol::kMnp, harness::Protocol::kDeluge}) {
    ExperimentConfig cfg = grid(15, 15, 1, 29);  // one MNP segment
    cfg.protocol = protocol;
    if (protocol == harness::Protocol::kDeluge) cfg.program_bytes = 48 * 22;  // one page
    cfg.max_sim_time = sim::hours(6);
    s.run(cfg);
  }
}

void render_5e(const Outcome& o) {
  std::cout << "=== Edge vs diagonal propagation speed, dense 15x15 grid ===\n\n";
  std::printf("%-8s %18s %18s %18s %14s\n", "proto", "edge (s per ft)", "diag (s per ft)",
              "diag/edge ratio", "collisions");
  for (const Run& run : o.runs) {
    const Speeds s = speeds(run);
    std::printf("%-8s %18.3f %18.3f %18.2f %14llu\n", harness::protocol_name(run.cfg.protocol),
                s.edge, s.diag, s.ratio(), ull(run.r.collisions));
  }
}

Verdict judge_5e(const Outcome& o) {
  const double mnp_ratio = speeds(o.runs[0]).ratio();
  const double deluge_ratio = speeds(o.runs[1]).ratio();
  return {deluge_ratio > mnp_ratio,
          fmt("diag/edge: Deluge %.2f, MNP %.2f", deluge_ratio, mnp_ratio)};
}

// ---- A1: feature ablation ---------------------------------------------------
struct Variant {
  const char* name;
  void (*tweak)(core::MnpConfig&);
};

const Variant kVariants[] = {
    {"full MNP", [](core::MnpConfig&) {}},
    {"no pipelining", [](core::MnpConfig& c) { c.pipelining = false; }},
    {"no query/update", [](core::MnpConfig& c) { c.query_update_enabled = false; }},
    {"no napping", [](core::MnpConfig& c) { c.nap_between_advertisements = false; }},
    {"no adv backoff", [](core::MnpConfig& c) { c.adv_interval_cap = c.adv_interval_max; }},
};

void run_a1(Session& s) {
  for (const Variant& v : kVariants) {
    ExperimentConfig cfg = grid(10, 10, 3, 41);
    v.tweak(cfg.mnp);
    s.run(cfg, v.name);
  }
}

void render_a1(const Outcome& o) {
  std::cout << "=== Ablation: MNP feature toggles, 10x10 grid, 3 segments ===\n\n";
  std::printf("%-18s %14s %10s %12s %12s %10s\n", "variant", "completion(s)", "ART(s)",
              "msgs/node", "overlaps", "complete");
  for (const Run& run : o.runs) {
    std::printf("%-18s %14.1f %10.1f %12.1f %12llu %9zu%%\n", run.label,
                completion_s(run.r), run.r.avg_active_radio_s(), run.r.avg_messages_sent(),
                ull(run.r.bulk_overlaps), complete_pct(run.r));
  }
}

Verdict judge_a1(const Outcome& o) {
  const RunResult& full = o.runs[0].r;
  const double pipelining = completion_s(o.runs[1].r) / completion_s(full);
  const double query = completion_s(o.runs[2].r) / completion_s(full);
  const double napping = o.runs[3].r.avg_active_radio_s() / full.avg_active_radio_s();
  const double backoff = o.runs[4].r.avg_messages_sent() / full.avg_messages_sent();
  return {all_complete(o) && pipelining > 1 && query > 1 && napping > 1 && backoff > 1,
          fmt("completion x%.2f without pipelining, x%.2f without query/update; ART "
              "x%.2f without napping; msgs/node x%.2f without adv backoff",
              pipelining, query, napping, backoff)};
}

// ---- A2: battery-aware advertising ------------------------------------------
void run_a2(Session& s) {
  for (bool aware : {false, true}) {
    ExperimentConfig cfg = grid(8, 8, 2, 53);
    cfg.mnp.battery_aware = aware;
    for (std::size_t i = 0; i < 64; ++i) {  // a checkerboard of 30% batteries
      cfg.battery_levels.push_back((i / 8 + i % 8) % 2 == 1 ? 0.3 : 1.0);
    }
    s.run(cfg, aware ? "battery-aware" : "baseline");
  }
}

/// Average data packets forwarded by weak (drained) and strong nodes,
/// excluding the base.
struct Load {
  double weak, strong;
  double ratio() const { return strong > 0 ? weak / strong : 0.0; }
};

Load load(const Run& run) {
  double sum[2] = {0, 0};  // weak, strong
  std::size_t nodes[2] = {0, 0};
  for (std::size_t i = 0; i < run.r.nodes.size(); ++i) {
    if (i == run.cfg.base) continue;
    const int strong = run.cfg.battery_levels[i] < 1.0 ? 0 : 1;
    sum[strong] += static_cast<double>(run.r.nodes[i].tx_data);
    ++nodes[strong];
  }
  return {sum[0] / static_cast<double>(nodes[0]), sum[1] / static_cast<double>(nodes[1])};
}

void render_a2(const Outcome& o) {
  std::cout << "=== Battery-aware advertising (paper section 6 extension) ===\n\n";
  std::printf("%-14s %18s %18s %14s %10s\n", "mode", "weak avg data tx",
              "strong avg data tx", "weak/strong", "complete");
  for (const Run& run : o.runs) {
    const Load l = load(run);
    std::printf("%-14s %18.1f %18.1f %14.2f %9zu%%\n", run.label, l.weak, l.strong,
                l.ratio(), complete_pct(run.r));
  }
}

Verdict judge_a2(const Outcome& o) {
  const double baseline = load(o.runs[0]).ratio();
  const double aware = load(o.runs[1]).ratio();
  return {all_complete(o) && aware < baseline,
          fmt("weak/strong %.2f -> %.2f", baseline, aware)};
}

// ---- A3: network lifetime across reprogramming rounds -----------------------
// Battery capacity is scaled down so depletion shows within a few rounds
// (a real AA pack outlives hundreds of reprogrammings).
constexpr double kCapacityNah = 4.0e6;
constexpr std::size_t kRounds = 6;

/// Each node's battery after a round: its start level minus the charge the
/// round used, floored at 5%.
std::vector<double> battery_after(const ExperimentConfig& cfg, const RunResult& r) {
  std::vector<double> left = cfg.battery_levels;
  for (std::size_t i = 0; i < left.size(); ++i) {
    left[i] = std::max(0.05, left[i] - r.nodes[i].energy_nah / kCapacityNah);
  }
  return left;
}

/// Battery left after a round on every node but the mains-powered base.
util::RunningStats battery_left(const Run& run) {
  const std::vector<double> left = battery_after(run.cfg, run.r);
  util::RunningStats stats;
  for (std::size_t i = 0; i < left.size(); ++i) {
    if (i != run.cfg.base) stats.add(left[i]);
  }
  return stats;
}

void run_a3(Session& s) {
  for (bool aware : {false, true}) {
    std::vector<double> battery(36, 1.0);
    for (std::size_t round = 1; round <= kRounds; ++round) {
      ExperimentConfig cfg = grid(6, 6, 2, 90 + round);
      cfg.program_id = static_cast<std::uint16_t>(round);
      cfg.mnp.battery_aware = aware;
      cfg.battery_levels = battery;
      battery = battery_after(cfg, s.run(cfg, aware ? "battery-aware" : "baseline"));
    }
  }
}

void render_a3(const Outcome& o) {
  std::cout << "=== Repeated reprogramming rounds, 6x6 grid, 2 segments ===\n"
            << "(virtual battery " << kCapacityNah << " nAh per node)\n\n";
  for (std::size_t i = 0; i < o.runs.size(); ++i) {
    const std::size_t round = i % kRounds + 1;
    if (round == 1) {
      std::printf("--- %s ---\n", o.runs[i].label);
      std::printf("%-6s %10s %10s %10s %10s\n", "round", "min batt", "avg batt", "stddev",
                  "complete");
    }
    const util::RunningStats left = battery_left(o.runs[i]);
    std::printf("%-6zu %10.3f %10.3f %10.3f %9zu%%\n", round, left.min(), left.mean(),
                left.stddev(), complete_pct(o.runs[i].r));
    if (round == kRounds) std::printf("\n");
  }
}

Verdict judge_a3(const Outcome& o) {
  const double baseline = battery_left(o.runs[kRounds - 1]).min();
  const double aware = battery_left(o.runs[2 * kRounds - 1]).min();
  return {aware > baseline, fmt("min battery after round %zu: %.3f battery-aware vs "
                                "%.3f baseline", kRounds, aware, baseline)};
}

// ---- A4: MNP over SS-TDMA ---------------------------------------------------
void run_a4(Session& s) {
  for (auto mac : {harness::MacType::kCsma, harness::MacType::kTdma}) {
    ExperimentConfig cfg = grid(10, 10, 2, 77);
    cfg.mac = mac;
    cfg.max_sim_time = sim::hours(6);
    s.run(cfg, mac == harness::MacType::kCsma ? "CSMA" : "TDMA");
  }
}

void render_a4(const Outcome& o) {
  std::cout << "=== MNP over CSMA vs MNP over SS-TDMA, 10x10 grid ===\n\n";
  std::printf("%-8s %14s %10s %12s %12s %12s %10s\n", "MAC", "completion(s)", "ART(s)",
              "collisions", "overlaps", "msgs/node", "complete");
  for (const Run& run : o.runs) {
    std::printf("%-8s %14.1f %10.1f %12llu %12llu %12.1f %9zu%%\n", run.label,
                completion_s(run.r), run.r.avg_active_radio_s(), ull(run.r.collisions),
                ull(run.r.bulk_overlaps), run.r.avg_messages_sent(), complete_pct(run.r));
  }
}

Verdict judge_a4(const Outcome& o) {
  const RunResult& csma = o.runs[0].r;
  const RunResult& tdma = o.runs[1].r;
  return {all_complete(o) && tdma.collisions == 0 && tdma.bulk_overlaps == 0,
          fmt("TDMA %llu collisions, %llu overlaps; CSMA %llu, %llu", ull(tdma.collisions),
              ull(tdma.bulk_overlaps), ull(csma.collisions), ull(csma.bulk_overlaps))};
}

// ---- A5: pre-wave duty-cycled wakeup ----------------------------------------
void run_a5(Session& s) {
  for (double duty : {0.0, 0.15}) {
    ExperimentConfig cfg = fig8_config();
    cfg.max_sim_time = sim::hours(6);
    cfg.mnp.pre_wave_duty_cycle = duty;
    s.run(cfg, duty > 0 ? "duty-cycled pre-wave" : "always-on (paper)");
  }
}

double initial_idle_s(const RunResult& r) {
  return r.avg_active_radio_s() - r.avg_active_radio_after_adv_s();
}

void render_a5(const Outcome& o) {
  std::cout << "=== Pre-wave duty cycling (Fig. 9's proposal), 20x20, 5 segments ===\n\n";
  std::printf("%-22s %14s %10s %22s %10s\n", "mode", "completion(s)", "ART(s)",
              "initial idle (s/node)", "complete");
  for (const Run& run : o.runs) {
    std::printf("%-22s %14.1f %10.1f %22.1f %9zu%%\n", run.label, completion_s(run.r),
                run.r.avg_active_radio_s(), initial_idle_s(run.r), complete_pct(run.r));
  }
}

Verdict judge_a5(const Outcome& o) {
  const RunResult& on = o.runs[0].r;
  const RunResult& duty = o.runs[1].r;
  const double cost = completion_s(duty) / completion_s(on) - 1;
  return {all_complete(o) && initial_idle_s(duty) < initial_idle_s(on) &&
              duty.avg_active_radio_s() < on.avg_active_radio_s() && cost < 0.1,
          fmt("initial idle %.1f -> %.1f s/node, ART %.1f -> %.1f s, completion %+.1f%%",
              initial_idle_s(on), initial_idle_s(duty), on.avg_active_radio_s(),
              duty.avg_active_radio_s(), 100 * cost)};
}

// ---- A6: seed stability -----------------------------------------------------
void run_a6(Session& s) { s.sweep(grid(10, 10, 2, 100), 10, 100); }

void render_a6(const Outcome& o) {
  const harness::SweepResult& s = o.sweep;
  std::cout << "=== Seed stability: MNP 10x10, 2 segments, " << s.runs << " seeds, "
            << harness::resolve_sweep_jobs(0) << " job(s) ===\n\n";
  std::cout << "runs fully completed: " << s.fully_completed_runs << "/" << s.runs
            << "\n\n";
  using harness::format_stat;
  std::cout << "completion time (s): " << format_stat(s.completion_s) << "\n";
  std::cout << "avg ART (s):         " << format_stat(s.avg_art_s) << "\n";
  std::cout << "avg ART post-adv (s):" << format_stat(s.avg_art_post_adv_s) << "\n";
  std::cout << "msgs/node:           " << format_stat(s.avg_msgs) << "\n";
  std::cout << "effective senders:   " << format_stat(s.effective_senders) << "\n";
  std::cout << "collisions:          " << format_stat(s.collisions, 0) << "\n";
  std::cout << "bulk overlaps:       " << format_stat(s.bulk_overlaps, 0) << "\n";
  std::cout << "energy/node (nAh):   " << format_stat(s.energy_per_node_nah, 0) << "\n";
}

Verdict judge_a6(const Outcome& o) {
  const harness::SweepResult& s = o.sweep;
  return {s.runs > 0 && s.fully_completed_runs == s.runs,
          fmt("%zu/%zu seeds complete", s.fully_completed_runs, s.runs)};
}

// ---- NC: coded vs uncoded dissemination under link loss ---------------------
/// Disk links whose success is scaled by `degrade` for the whole run, plus a
/// crash or a move at 30 s. Only the pure-loss cases are judged.
struct LossCase {
  const char* name;
  double degrade;  // link success multiplier (0.8 => 20% loss)
  bool churn, mobility;
  bool judged() const { return !churn && !mobility; }
};

const LossCase kLossCases[] = {
    {"loss20", 0.8, false, false},
    {"loss40", 0.6, false, false},
    {"churn", 0.8, true, false},
    {"mobility", 0.8, false, true},
};

/// Each case with MNP, then with NCast.
void run_nc(Session& s) {
  for (const LossCase& c : kLossCases) {
    for (auto protocol : {harness::Protocol::kMnp, harness::Protocol::kNcast}) {
      ExperimentConfig cfg = grid(4, 4, 2, 1);
      cfg.protocol = protocol;
      cfg.range_ft = 25.0;
      cfg.empirical_links = false;  // the loss is exactly the degrade factor
      cfg.max_sim_time = sim::hours(4);
      scenario::ScenarioBuilder b;
      b.degrade(sim::msec(1), sim::hours(4), c.degrade);
      if (c.churn) b.kill(sim::sec(30), 5, /*down_for=*/sim::sec(60));
      if (c.mobility) b.move(sim::sec(30), 15, 5.0, 5.0, /*over=*/sim::sec(30));
      cfg.scenario = b.build(c.name);
      s.run(cfg, c.name);
    }
  }
}

bool all_verified(const RunResult& r) {
  return r.all_completed && r.verified_count() == r.nodes.size();
}

void render_nc(const Outcome& o) {
  std::cout << "=== Coded vs uncoded dissemination under link loss, 4x4 grid, "
               "2 segments ===\n\n";
  std::printf("%-9s %5s %-6s %9s %10s %14s %9s\n", "case", "loss", "proto", "messages",
              "msgs/node", "completion(s)", "verified");
  for (std::size_t i = 0; i < o.runs.size(); ++i) {
    const Run& run = o.runs[i];
    std::printf("%-9s %4.0f%% %-6s %9llu %10.1f %14.1f %9s\n", run.label,
                100 * (1 - kLossCases[i / 2].degrade), harness::protocol_name(run.cfg.protocol),
                ull(run.r.transmissions), run.r.avg_messages_sent(), completion_s(run.r),
                all_verified(run.r) ? "yes" : "no");
  }
}

Verdict judge_nc(const Outcome& o) {
  bool holds = true;
  std::string judged, not_judged;
  for (std::size_t i = 0; i + 1 < o.runs.size(); i += 2) {  // MNP, then NCast
    const LossCase& c = kLossCases[i / 2];
    const RunResult& mnp_r = o.runs[i].r;
    const RunResult& ncast_r = o.runs[i + 1].r;
    if (c.judged()) {
      holds = holds && all_verified(mnp_r) && all_verified(ncast_r) &&
              ncast_r.transmissions < mnp_r.transmissions;
    }
    std::string& out = c.judged() ? judged : not_judged;
    out += fmt("%s%s %llu vs %llu", out.empty() ? "" : ", ", c.name,
               ull(mnp_r.transmissions), ull(ncast_r.transmissions));
  }
  return {holds, "MNP vs NCast msgs: " + judged + "; not judged: " + not_judged};
}

// ---- the registry -----------------------------------------------------------
const Claim kClaims[] = {
    {"t1", run_t1, render_t1, judge_t1, kGated,
     "idle listening is the largest part of a run's charge"},
    {"f5", run_f5, render_f5, judge_power, kGated,
     "lower power gives more effective senders and a longer completion"},
    {"f6", run_f6, render_f6, judge_f6, kGated,
     "lower power: more senders, longer completion; full power: no bulk overlaps"},
    {"f7", run_f7, render_f7, judge_power, kGated,
     "lower power gives more effective senders and a longer completion"},
    {"f8", run_fig8, render_f8, judge_f8, kGated,
     "radios sleep >25% of the run (ART < 75% of completion); center ART < edge ART"},
    {"f9", run_fig8, render_f9, judge_f9, kGated,
     "dropping initial idle listening lowers per-node ART's coefficient of variation"},
    {"f10", run_f10, render_f10, judge_f10, kGated,
     "completion time is linear in program size: R^2 >= 0.98 over 1-10 segments"},
    {"f11", run_fig8, render_f11, judge_f11, kGated,
     "the base transmits the most, and center nodes receive more than edge nodes"},
    {"f12", run_fig8, render_f12, judge_f12, kGated,
     "steady data flow: no middle-half minute below 60% of the mean data rate"},
    {"f13", run_f13, render_f13, judge_f13, kGated,
     "the code spreads at a steady rate: ring time vs distance has R^2 >= 0.98"},
    {"5d", run_5d, render_5d, judge_5d, kGated,
     "Deluge's ART >= 99% of completion; MNP uses less energy per node at both sizes"},
    {"5e", run_5e, render_5e, judge_5e, kReported,
     "Deluge's diagonal lags its edges more than MNP's (Hui and Culler's anomaly)"},
    {"a1", run_a1, render_a1, judge_a1, kGated,
     "each feature pays off in completion, ART or msgs/node; every variant completes"},
    {"a2", run_a2, render_a2, judge_a2, kGated,
     "battery-aware advertising moves forwarding off weak nodes; all complete"},
    {"a3", run_a3, render_a3, judge_a3, kReported,
     "battery-aware rounds end with a higher minimum battery than the baseline"},
    {"a4", run_a4, render_a4, judge_a4, kGated,
     "MNP over TDMA has no collisions and no bulk overlaps; both MACs complete"},
    {"a5", run_a5, render_a5, judge_a5, kGated,
     "pre-wave duty cycling cuts initial idle and ART at < 10% completion cost"},
    {"a6", run_a6, render_a6, judge_a6, kGated,
     "every seed of the 10x10 run completes"},
    {"nc", run_nc, render_nc, judge_nc, kGated,
     "NCast completes byte-exact with fewer messages than MNP at 20% and 40% link loss"},
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [ID...] [--trace-out PATH] [--metrics-out PATH] [--audit-out PATH]\nids:";
  for (const Claim& c : kClaims) std::cerr << ' ' << c.id;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  harness::ObsCli cli;
  std::vector<const Claim*> selected;
  for (int i = 1; i < argc; ++i) {
    if (cli.parse_arg(argc, argv, i)) continue;
    const auto it = std::find_if(std::begin(kClaims), std::end(kClaims),
                                 [&](const Claim& c) { return !std::strcmp(c.id, argv[i]); });
    if (it == std::end(kClaims)) return usage(argv[0]);
    selected.push_back(it);
  }
  if (selected.empty()) {
    for (const Claim& c : kClaims) selected.push_back(&c);
  }

  const std::ios defaults(nullptr);
  std::string verdicts;
  std::size_t held = 0;
  bool gate_failed = false;
  for (const Claim* c : selected) {
    Session session(cli);
    c->run(session);
    std::cout.copyfmt(defaults);  // every figure starts from a fresh stream
    c->render(session.outcome());
    std::cout << "\n";
    const Verdict v = c->judge(session.outcome());
    verdicts += fmt("claim %s: %s — %s [%s]\n", c->id,
                    c->gate == kReported ? "REPORTED" : v.holds ? "PASS" : "FAIL", c->statement,
                    v.measured.c_str());
    held += v.holds ? 1 : 0;
    gate_failed = gate_failed || (c->gate == kGated && !v.holds);
  }
  std::cout << verdicts << held << " of " << selected.size() << " claims hold\n";
  return gate_failed ? 1 : 0;
}
