// mnp_lint: repo-specific static analysis for the MNP simulator.
//
// Rule families (DESIGN.md sections 8 and 12):
//
//  * state-machine — reconstructs each protocol's transition table from
//    its `change_state(State::kX)` / `state_ = State::kX` sites using
//    guard/switch/assert context tracking, and diffs the result against a
//    checked-in machine spec (tools/mnp_lint/*_transitions.txt). A
//    transition the spec forbids, a spec transition with no implementing
//    code, or a transition site whose source state cannot be resolved are
//    all errors.
//
//  * determinism — bans wall-clock and global-PRNG identifiers
//    (std::rand, srand, time(...), system_clock, random_device, ...) and
//    unordered associative containers under src/, bench/ and tools/;
//    per-file allowlist entries (allowlist.txt) document the vetted
//    exceptions.
//
//  * hygiene — every codec Reader primitive bounds-checks before touching
//    the buffer, value-returning factories in net/frame.hpp and storage/
//    carry [[nodiscard]], and no `new`/`delete` appears outside the
//    pooled allocators in net/frame.cpp.
//
//  * timer-discipline — using the transition specs, verifies every timer
//    armed in a protocol state is cancelled or re-armed on every outgoing
//    edge of that state (the stale-timer-fires-in-wrong-state bug). The
//    spec-independent reboot-reset sub-rule additionally requires
//    reset_for_reboot() to cancel every timer the file owns.
//
//  * allowlist — staleness: an allowlist.txt entry whose file is no
//    longer in the scanned set, or whose token no longer appears in that
//    file, is an error so justifications can't rot silently.
//
// Everything operates on in-memory SourceFiles so the GTest suite
// (tests/test_mnp_lint.cpp) can feed fixture snippets; main.cpp wires the
// same entry points to the real tree.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace mnp::lint {

struct Diagnostic {
  std::string rule;     // "state-machine", "determinism", "hygiene"
  std::string file;
  int line = 0;
  std::string message;

  std::string str() const;
};

struct SourceFile {
  std::string path;     // repo-relative, e.g. "src/mnp/mnp_node.cpp"
  std::string content;
};

/// One protocol state machine spec, parsed from a *_transitions.txt file.
struct MachineSpec {
  std::string name;                  // "mnp", "deluge", ...
  std::string file;                  // source file implementing it
  std::vector<std::string> states;   // declared state universe
  /// Transient pseudo-state (the paper's Fail) and the function that
  /// implements passing through it; both empty when the machine has none.
  std::string transient_state;
  std::string transient_fn;
  std::string initial;
  std::set<std::pair<std::string, std::string>> transitions;

  bool has_state(const std::string& s) const;
};

/// One allowlist line: "<rule> <file> <token>  # justification".
struct AllowEntry {
  std::string rule, file, token;
};

/// Allowlist: lines of "<rule> <file> <token>  # justification".
class Allowlist {
 public:
  void add(std::string rule, std::string file, std::string token);
  bool allows(const std::string& rule, const std::string& file,
              const std::string& token) const;
  std::size_t size() const { return entries_.size(); }
  const std::vector<AllowEntry>& entries() const { return entries_; }

 private:
  std::vector<AllowEntry> entries_;
};

/// Parses a spec file; returns false and sets *error on malformed input.
bool parse_machine_spec(const std::string& text, MachineSpec* spec,
                        std::string* error);

/// Parses allowlist.txt (unknown lines are ignored as comments).
Allowlist parse_allowlist(const std::string& text);

/// One extracted transition with the site that implements it.
struct ExtractedTransition {
  std::string from, to;
  int line = 0;
};

/// Reconstructs the transition table of `spec`'s machine from `file`.
/// Extraction problems (unknown state names, unattributable transition
/// sites) are appended to *diags.
std::vector<ExtractedTransition> extract_transitions(
    const SourceFile& file, const MachineSpec& spec,
    std::vector<Diagnostic>* diags);

/// Full rule family 1: extraction + both diff directions against the spec.
std::vector<Diagnostic> check_state_machine(const SourceFile& file,
                                            const MachineSpec& spec);

/// Rule family 2 over one file.
std::vector<Diagnostic> check_determinism(const SourceFile& file,
                                          const Allowlist& allow);

/// Rule family 3 over one file.
std::vector<Diagnostic> check_hygiene(const SourceFile& file,
                                      const Allowlist& allow);

/// Timer usage model of one protocol file, extracted alongside the
/// transition table by the state-machine extractor.
struct TimerModel {
  /// One transition site: the edge, the function whose analysis emitted
  /// it (cancel lookups chase its call graph), and the timers whose
  /// expiry callbacks enclose the site — a timer that has already fired
  /// is no longer pending and needs no cancel.
  struct Site {
    std::string from, to, fn;
    std::set<std::string> fired;
    int line = 0;
  };
  /// timer ident -> states an arm site was attributed to.
  std::map<std::string, std::set<std::string>> armed_in;
  /// function -> timers it cancels or re-arms, transitively over the
  /// unqualified call graph.
  std::map<std::string, std::set<std::string>> handled;
  std::vector<Site> sites;
};

/// Extracts the timer model (arm sites resolve source states through the
/// same guard/helper attribution as transitions). Extraction problems are
/// appended to *diags when non-null; pass nullptr to suppress duplicates
/// of check_state_machine's diagnostics.
TimerModel extract_timer_model(const SourceFile& file,
                               const MachineSpec& spec,
                               std::vector<Diagnostic>* diags);

/// Timer discipline over one protocol file against its machine spec.
std::vector<Diagnostic> check_timer_discipline(const SourceFile& file,
                                               const MachineSpec& spec,
                                               const Allowlist& allow);

/// Spec-independent sub-rule: a file defining reset_for_reboot() must
/// cancel or reassign every *timer_ member it uses (transitively).
std::vector<Diagnostic> check_reboot_reset(const SourceFile& file,
                                           const Allowlist& allow);

/// Staleness: every allowlist entry must name a scanned file that still
/// contains the allowlisted token.
std::vector<Diagnostic> check_allowlist_staleness(
    const std::vector<SourceFile>& files, const Allowlist& allow);

/// Runs every family over a file set. Machine specs apply to the file
/// whose path ends with spec.file; determinism applies to all files;
/// hygiene and reboot-reset to src/.
std::vector<Diagnostic> run_all(const std::vector<SourceFile>& files,
                                const std::vector<MachineSpec>& specs,
                                const Allowlist& allow);

}  // namespace mnp::lint
