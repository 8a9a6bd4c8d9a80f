// mnp_fleet: command-line client for the mnp_simd daemon (DESIGN.md §14).
//
//   mnp_fleet health  [--host IP] --port N
//   mnp_fleet version [--host IP] --port N
//   mnp_fleet metricsz [--host IP] --port N
//   mnp_fleet submit  [--host IP] --port N [experiment flags]
//                     [--seed N] [--runs N | --seeds 1,2,3]
//                     [--scenario PATH] [--wait]
//   mnp_fleet status  [--host IP] --port N --id N
//   mnp_fleet metrics [--host IP] --port N --id N [--out PATH]
//
// Experiment flags are mnp_sim_cli's config flags: both CLIs take them
// from the one config schema (harness/config_schema.hpp), and each flag is
// shipped as the schema key the daemon parses, so a run submitted here
// hashes identically to the same run described as JSON by any other
// client. Bad values fail here, before anything is sent.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/config_schema.hpp"
#include "service/http_client.hpp"
#include "service/json.hpp"
#include "service/run_request.hpp"

namespace {

using mnp::service::http_request;
using mnp::service::http_stream_lines;
using mnp::service::HttpResponse;

[[noreturn]] void usage(const char* self) {
  std::cerr
      << "usage: " << self
      << " health|version|metricsz|submit|status|metrics [options]\n"
      << "  common: [--host IP] --port N\n"
      << "  submit: config flags (below), [--seed N]\n"
      << "          [--runs N | --seeds 1,2,3] [--scenario PATH] [--wait]\n"
      << "  status/metrics: --id N; metrics also [--out PATH]\n";
  mnp::harness::write_config_usage(std::cerr);
  std::exit(2);
}

/// "1,2,3" -> {1, 2, 3}; false on anything but comma-separated integers.
bool parse_seed_list(const std::string& csv, std::vector<std::uint64_t>* out) {
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    std::uint64_t seed = 0;
    if (!mnp::harness::parse_uint_text(item, &seed)) return false;
    out->push_back(seed);
  }
  return !out->empty();
}

int fail(const HttpResponse& res, const char* what) {
  if (!res.ok) {
    std::cerr << "mnp_fleet: " << what << ": " << res.error << "\n";
  } else {
    std::cerr << "mnp_fleet: " << what << ": HTTP " << res.status << "\n"
              << res.body << "\n";
  }
  return 1;
}

/// Extracts run ids from a submit response ({"runs":[{"id":N,...},...]}).
std::vector<std::uint64_t> submitted_ids(const std::string& body) {
  std::vector<std::uint64_t> ids;
  const auto parsed = mnp::service::parse_json(body);
  if (!parsed.ok) return ids;
  const auto* runs = parsed.value.find("runs");
  if (runs == nullptr) return ids;
  for (const auto& run : runs->items) {
    const auto* id = run.find("id");
    if (id != nullptr) ids.push_back(static_cast<std::uint64_t>(id->number));
  }
  return ids;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  const std::string command = argv[1];
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint64_t id = 0;
  bool have_id = false;
  bool wait = false;
  std::string out_path;
  std::string scenario_text;
  std::uint64_t first_seed = 1;
  std::uint64_t runs = 1;
  std::vector<std::uint64_t> explicit_seeds;
  mnp::harness::ExperimentConfig cfg;  // validates flags client-side
  std::vector<mnp::harness::ConfigOption> options;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  auto need_uint = [&](int& i) {
    const char* flag = argv[i];
    const char* value = need_value(i);
    std::uint64_t n = 0;
    if (!mnp::harness::parse_uint_text(value, &n)) {
      std::cerr << "mnp_fleet: " << flag << ": invalid value '" << value
                << "'\n";
      std::exit(2);
    }
    return n;
  };

  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    std::string error;
    switch (mnp::harness::apply_config_arg(cfg, argc, argv, i, &options,
                                           &error)) {
      case mnp::harness::ConfigArg::kApplied: continue;
      case mnp::harness::ConfigArg::kInvalid:
        std::cerr << "mnp_fleet: " << error << "\n";
        return 2;
      case mnp::harness::ConfigArg::kNotConfig: break;
    }
    if (!std::strcmp(arg, "--host")) {
      host = need_value(i);
    } else if (!std::strcmp(arg, "--port")) {
      const std::uint64_t p = need_uint(i);
      if (p > 65535) usage(argv[0]);
      port = static_cast<std::uint16_t>(p);
    } else if (!std::strcmp(arg, "--id")) {
      id = need_uint(i);
      have_id = true;
    } else if (!std::strcmp(arg, "--out")) {
      out_path = need_value(i);
    } else if (!std::strcmp(arg, "--wait")) {
      wait = true;
    } else if (!std::strcmp(arg, "--seed")) {
      first_seed = need_uint(i);
    } else if (!std::strcmp(arg, "--runs")) {
      runs = need_uint(i);
      if (runs == 0 || runs > 100000) usage(argv[0]);
    } else if (!std::strcmp(arg, "--seeds")) {
      if (!parse_seed_list(need_value(i), &explicit_seeds)) usage(argv[0]);
    } else if (!std::strcmp(arg, "--scenario")) {
      std::ifstream f(need_value(i));
      if (!f) {
        std::cerr << "mnp_fleet: cannot read scenario file\n";
        return 2;
      }
      std::stringstream text;
      text << f.rdbuf();
      scenario_text = text.str();
    } else {
      usage(argv[0]);
    }
  }
  if (port == 0) usage(argv[0]);

  if (command == "health" || command == "version" || command == "metricsz") {
    const std::string target =
        command == "health" ? "/healthz" : "/" + command;
    const HttpResponse res = http_request(host, port, "GET", target, "");
    if (!res.ok || res.status != 200) return fail(res, target.c_str());
    std::cout << res.body << "\n";
    return 0;
  }

  if (command == "status") {
    if (!have_id) usage(argv[0]);
    const HttpResponse res = http_request(
        host, port, "GET", "/runs/" + std::to_string(id), "");
    if (!res.ok || res.status != 200) return fail(res, "status");
    std::cout << res.body << "\n";
    return 0;
  }

  if (command == "metrics") {
    if (!have_id) usage(argv[0]);
    std::ofstream out_file;
    if (!out_path.empty()) {
      out_file.open(out_path);
      if (!out_file) {
        std::cerr << "mnp_fleet: cannot open " << out_path << "\n";
        return 1;
      }
    }
    std::ostream& out = out_path.empty() ? std::cout : out_file;
    // Stream: for a finished run this is one buffered body; for an
    // in-flight run, NDJSON lines arrive live until the final manifest.
    const std::string target = "/runs/" + std::to_string(id) + "/metrics";
    const HttpResponse res =
        http_stream_lines(host, port, target, [&](std::string_view line) {
          out << line << "\n";
          return true;
        });
    if (!res.ok || res.status != 200) return fail(res, "metrics");
    return 0;
  }

  if (command != "submit") usage(argv[0]);

  std::vector<std::uint64_t> seeds = explicit_seeds;
  if (seeds.empty()) {
    for (std::size_t i = 0; i < runs; ++i) {
      seeds.push_back(first_seed + i);
    }
  }
  const std::string body =
      mnp::service::run_request_json(options, scenario_text, seeds);
  const HttpResponse res = http_request(host, port, "POST", "/runs", body);
  if (!res.ok || res.status != 200) return fail(res, "submit");
  std::cout << res.body << "\n";
  if (!wait) return 0;

  // Poll each run to a terminal state; exit nonzero if any failed.
  bool all_done_ok = true;
  for (const std::uint64_t run_id : submitted_ids(res.body)) {
    for (;;) {
      const HttpResponse status = http_request(
          host, port, "GET", "/runs/" + std::to_string(run_id), "");
      if (!status.ok || status.status != 200) return fail(status, "poll");
      const auto parsed = mnp::service::parse_json(status.body);
      const auto* state =
          parsed.ok ? parsed.value.find("state") : nullptr;
      const std::string name = state != nullptr ? state->string : "";
      if (name == "done" || name == "failed") {
        std::cout << status.body << "\n";
        if (name == "failed") all_done_ok = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  }
  return all_done_ok ? 0 : 1;
}
