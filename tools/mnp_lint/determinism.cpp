// Rule family 2: determinism lint.
//
// The simulator's contract (DESIGN.md section 2) is that a (seed, config)
// pair fully determines every trace byte. Two things silently break that:
// wall-clock / global-PRNG calls, and iteration over unordered containers
// feeding any output path. Both are banned by identifier under src/; the
// per-file allowlist documents vetted exceptions (e.g. the fleet daemon's
// one wall-clock access point, src/service/wallclock.cpp, whose readings
// never reach a simulation).

#include "lexer.hpp"
#include "lint.hpp"

namespace mnp::lint {

namespace {

constexpr const char* kRule = "determinism";

/// Identifiers banned outright wherever they appear.
const std::set<std::string>& banned_idents() {
  static const std::set<std::string> kBanned = {
      "rand",          "srand",          "drand48",
      "lrand48",       "random_device",  "system_clock",
      "high_resolution_clock",           "gettimeofday",
      "clock_gettime", "getrandom",      "rand_r",
      "steady_clock",
  };
  return kBanned;
}

/// Unordered containers: allowed only with an allowlist entry explaining
/// why iteration order cannot reach simulator output.
const std::set<std::string>& unordered_containers() {
  static const std::set<std::string> kContainers = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kContainers;
}

}  // namespace

std::vector<Diagnostic> check_determinism(const SourceFile& file,
                                          const Allowlist& allow) {
  std::vector<Diagnostic> diags;
  const std::vector<Token> tokens = lex(file.content);
  auto report = [&](int line, const std::string& token,
                    const std::string& why) {
    if (allow.allows(kRule, file.path, token)) return;
    diags.push_back(Diagnostic{
        kRule, file.path, line,
        "'" + token + "' " + why +
            " — use sim::Rng / sim::Scheduler time, or allowlist with "
            "justification"});
  };

  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (!t.ident()) continue;
    if (banned_idents().count(t.text)) {
      report(t.line, t.text, "is nondeterministic across runs");
      continue;
    }
    if (unordered_containers().count(t.text)) {
      report(t.line, t.text,
             "has seed-dependent iteration order");
      continue;
    }
    // `time(...)` / `clock(...)` as calls only, and only when they are not
    // member accesses (`sched.time()` is the simulator clock and fine).
    if ((t.text == "time" || t.text == "clock") && tokens[i + 1].is("(") &&
        (i == 0 || !(tokens[i - 1].is(".") || tokens[i - 1].is("->")))) {
      report(t.line, t.text, "() reads the wall clock");
    }
  }
  return diags;
}

}  // namespace mnp::lint
