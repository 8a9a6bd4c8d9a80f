// mnp_simd: the fleet-operations daemon — a long-running simulation
// server exposing the experiment harness over loopback HTTP
// (DESIGN.md §14).
//
//   mnp_simd [--port N] [--jobs N] [--progress-interval-s F]
//            [--port-file PATH]
//
//   --port N                TCP port on 127.0.0.1 (default 7077; 0 picks
//                           an ephemeral port)
//   --jobs N                scheduler worker threads (default: resolve
//                           MNP_SWEEP_JOBS, clamped to hardware)
//   --progress-interval-s F simulated-time cadence of live NDJSON
//                           progress samples (default 30; 0 disables)
//   --port-file PATH        write the bound port to PATH (CI scripts
//                           poll this instead of parsing stdout)
//
// The daemon prints "mnp_simd listening on 127.0.0.1:<port>" once ready
// and runs until SIGINT/SIGTERM.
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "harness/config_schema.hpp"
#include "service/server.hpp"
#include "sim/time.hpp"

namespace {

[[noreturn]] void usage(const char* self) {
  std::cerr << "usage: " << self
            << " [--port N] [--jobs N] [--progress-interval-s F]"
               " [--port-file PATH]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mnp;
  service::FleetServerOptions options;
  options.port = 7077;
  std::string port_file;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  auto need_uint = [&](int& i, std::uint64_t max) {
    std::uint64_t n = 0;
    if (!harness::parse_uint_text(need_value(i), &n) || n > max) {
      usage(argv[0]);
    }
    return n;
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--port")) {
      options.port = static_cast<std::uint16_t>(need_uint(i, 65535));
    } else if (!std::strcmp(arg, "--jobs")) {
      options.jobs = need_uint(i, 4096);
    } else if (!std::strcmp(arg, "--progress-interval-s")) {
      const char* value = need_value(i);
      char* end = nullptr;
      const double s = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(s >= 0.0) || s > 1e9) {
        usage(argv[0]);
      }
      options.progress_interval = static_cast<sim::Time>(s * 1e6);
    } else if (!std::strcmp(arg, "--port-file")) {
      port_file = need_value(i);
    } else {
      usage(argv[0]);
    }
  }

  // Handle SIGINT/SIGTERM via sigwait so shutdown is a plain function
  // return: stop the HTTP server, join every worker, exit 0.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  service::FleetServer server(options);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "mnp_simd: " << error << "\n";
    return 1;
  }
  if (!port_file.empty()) {
    std::ofstream f(port_file);
    f << server.port() << "\n";
  }
  std::cout << "mnp_simd listening on 127.0.0.1:" << server.port()
            << std::endl;

  int sig = 0;
  sigwait(&stop_signals, &sig);
  std::cout << "mnp_simd: signal " << sig << ", draining ("
            << server.store().size() << " run(s) in store)" << std::endl;
  server.stop();
  return 0;
}
