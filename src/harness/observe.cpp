#include "harness/observe.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <ostream>

#include "harness/config_schema.hpp"
#include "obs/json_writer.hpp"

// Stamped by CMake from `git describe`; manifest-only (never in the trace
// JSON, so the golden trace file does not churn with every commit).
#ifndef MNP_GIT_DESCRIBE
#define MNP_GIT_DESCRIBE "unknown"
#endif

namespace mnp::harness {

const char* build_git_describe() { return MNP_GIT_DESCRIBE; }

void write_trace_json(std::ostream& os, const Observation& observation) {
  obs::write_chrome_trace(os, observation.log, observation.node_count,
                          observation.counters);
}

namespace {

void append_u64(std::string& s, std::uint64_t v) {
  char buf[20];
  char* p = buf + sizeof(buf);
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  s.append(p, buf + sizeof(buf));
}

void append_i64(std::string& s, std::int64_t v) {
  if (v < 0) {
    s.push_back('-');
    append_u64(s, static_cast<std::uint64_t>(-(v + 1)) + 1);
    return;
  }
  append_u64(s, static_cast<std::uint64_t>(v));
}

void append_hex16(std::string& s, std::uint64_t v) {
  static const char kDigits[] = "0123456789abcdef";
  char buf[16];
  for (int i = 15; i >= 0; --i) {
    buf[i] = kDigits[v & 0xF];
    v >>= 4;
  }
  s.append(buf, 16);
}

}  // namespace

void write_audit_log(std::ostream& os, const ExperimentConfig& cfg,
                     const Observation& observation) {
  const auto& recs = observation.audit.records();
  // Hand-rolled formatting into one buffer: a smoke run emits tens of
  // thousands of records, and per-line snprintf + stream insertion is
  // measurably slower than the audited simulation itself.
  std::string out;
  out.reserve(80 + recs.size() * 96);
  out += "# mnp-audit v1\nmeta seed ";
  append_u64(out, cfg.seed);
  out += " nodes ";
  append_u64(out, observation.node_count);
  out += " tie-break ";
  out += cfg.tie_break == sim::TieBreak::kFifo ? "fifo" : "lifo";
  out += " events ";
  append_u64(out, recs.size());
  out += " chain ";
  append_hex16(out, observation.audit.chain());
  out += '\n';
  for (const sim::AuditRecord& r : recs) {
    out += "rec ";
    append_u64(out, r.index);
    out += ' ';
    append_i64(out, static_cast<std::int64_t>(r.time));
    out += ' ';
    append_i64(out, r.node);
    out += ' ';
    append_hex16(out, r.pending);
    out += ' ';
    append_hex16(out, r.nodes);
    out += ' ';
    append_hex16(out, r.chain);
    out += '\n';
  }
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

namespace {

void write_config(obs::JsonWriter& w, const ExperimentConfig& cfg) {
  w.begin_object();
  // Schema v5: every row of the config schema, so the manifest names
  // exactly the config that produced it.
  write_config_fields(w, cfg);
  // Schema v2: which fault schedule (if any) shaped this run. The event
  // count pins the parsed scenario, not just its label.
  w.key("scenario");
  w.value(cfg.scenario.empty() ? std::string_view{}
                               : std::string_view(cfg.scenario.name()));
  w.key("scenario_events");
  w.value(static_cast<std::uint64_t>(cfg.scenario.events().size()));
  w.end_object();
}

}  // namespace

void write_run_manifest(std::ostream& os, const ExperimentConfig& cfg,
                        std::uint64_t first_seed, std::size_t runs,
                        const Observation& observation) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema_version");
  w.value(obs::kTelemetrySchemaVersion);
  w.key("tool");
  w.value("mnp_sim");
  w.key("git_describe");
  w.value(MNP_GIT_DESCRIBE);
  w.key("config");
  write_config(w, cfg);
  w.key("seeds");
  w.begin_object();
  w.key("first");
  w.value(first_seed);
  w.key("runs");
  w.value(static_cast<std::uint64_t>(runs));
  w.end_object();
  w.key("node_count");
  w.value(static_cast<std::uint64_t>(observation.node_count));
  w.key("dropped_events");
  w.value(observation.log.dropped());
  // Only audited runs carry the field, so every pre-audit golden manifest
  // stays byte-identical.
  if (observation.with_audit) {
    char chain[17];
    std::snprintf(chain, sizeof(chain), "%016llx",
                  static_cast<unsigned long long>(observation.audit.chain()));
    w.key("audit");
    w.begin_object();
    w.key("events");
    w.value(static_cast<std::uint64_t>(observation.audit.records().size()));
    w.key("chain");
    w.value(chain);
    w.end_object();
  }
  w.key("metrics");
  observation.metrics.write_json(w);
  w.end_object();
  os << w.str() << '\n';
}

bool ObsCli::parse_arg(int argc, char** argv, int& i) {
  const auto take_value = [&](std::string& into) {
    if (i + 1 >= argc) {
      std::cerr << argv[i] << " requires a path argument\n";
      std::exit(2);
    }
    into = argv[++i];
    return true;
  };
  if (!std::strcmp(argv[i], "--trace-out")) return take_value(trace_path);
  if (!std::strcmp(argv[i], "--metrics-out")) return take_value(metrics_path);
  if (!std::strcmp(argv[i], "--audit-out")) return take_value(audit_path);
  return false;
}

ObsCli parse_obs_args(int argc, char** argv) {
  ObsCli cli;
  for (int i = 1; i < argc; ++i) {
    if (!cli.parse_arg(argc, argv, i)) {
      std::cerr << "usage: " << argv[0]
                << " [--trace-out PATH] [--metrics-out PATH]"
                << " [--audit-out PATH]\n";
      std::exit(2);
    }
  }
  return cli;
}

bool finish_observation(const ObsCli& cli, const ExperimentConfig& cfg,
                        const Observation& observation) {
  if (!cli.enabled()) return true;
  if (observation.log.dropped() != 0) {
    std::cerr << "event ring overflowed: " << observation.log.dropped()
              << " dropped event(s); raise the Observation trace capacity\n";
    return false;
  }
  return cli.write(cfg, cfg.seed, 1, observation);
}

bool ObsCli::write(const ExperimentConfig& cfg, std::uint64_t first_seed,
                   std::size_t runs, const Observation& observation) const {
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "cannot open " << trace_path << " for writing\n";
      return false;
    }
    write_trace_json(out, observation);
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::cerr << "cannot open " << metrics_path << " for writing\n";
      return false;
    }
    write_run_manifest(out, cfg, first_seed, runs, observation);
  }
  if (!audit_path.empty()) {
    std::ofstream out(audit_path);
    if (!out) {
      std::cerr << "cannot open " << audit_path << " for writing\n";
      return false;
    }
    write_audit_log(out, cfg, observation);
  }
  return true;
}

}  // namespace mnp::harness
