// mnp_lint's own test suite (ISSUE: every rule family must demonstrably
// fail on a seeded-bad fixture, not just pass on the real tree — the
// real-tree gate is the mnp_lint.src CTest test).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "lint.hpp"

namespace lint = mnp::lint;

namespace {

bool has_diag(const std::vector<lint::Diagnostic>& diags,
              const std::string& rule, const std::string& needle) {
  return std::any_of(diags.begin(), diags.end(), [&](const auto& d) {
    return d.rule == rule && d.message.find(needle) != std::string::npos;
  });
}

std::string diags_str(const std::vector<lint::Diagnostic>& diags) {
  std::string out;
  for (const auto& d : diags) out += d.str() + "\n";
  return out;
}

// --- lexer ------------------------------------------------------------------

TEST(Lexer, StripsCommentsStringsAndPreprocessor) {
  const auto tokens = lint::lex(
      "#include <ctime>  // rand in a comment\n"
      "/* std::rand() */ int x = f(\"rand srand time(\");\n");
  for (const auto& t : tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "ctime");
  }
  // The string literal survives as an empty placeholder token.
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_TRUE(std::any_of(tokens.begin(), tokens.end(), [](const auto& t) {
    return t.kind == lint::Token::Kind::kString;
  }));
}

TEST(Lexer, TracksLinesAndTwoCharPunctuators) {
  const auto tokens = lint::lex("a\nb != c\nd->e");
  ASSERT_GE(tokens.size(), 7u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[2].text, "!=");
  EXPECT_EQ(tokens[2].line, 2);
  EXPECT_EQ(tokens[5].text, "->");
  EXPECT_EQ(tokens[5].line, 3);
}

TEST(Lexer, MatchDelimHonorsNesting) {
  const auto tokens = lint::lex("f(a, g(b), h[i{j}])");
  ASSERT_TRUE(tokens[1].is("("));
  EXPECT_TRUE(tokens[lint::match_delim(tokens, 1)].is(")"));
  EXPECT_EQ(lint::match_delim(tokens, 1), tokens.size() - 2);
}

// --- spec / allowlist parsing ----------------------------------------------

constexpr const char* kTinySpec = R"(
# toy machine
machine toy
file src/toy.cpp
states Idle Run Sleep Fail
transient Fail fail
initial Idle
Idle -> Run
Run -> Sleep                # with a comment
Sleep -> Idle
Run -> Fail
Fail -> Idle
)";

TEST(Spec, ParsesDirectivesAndTransitions) {
  lint::MachineSpec spec;
  std::string error;
  ASSERT_TRUE(lint::parse_machine_spec(kTinySpec, &spec, &error)) << error;
  EXPECT_EQ(spec.name, "toy");
  EXPECT_EQ(spec.file, "src/toy.cpp");
  EXPECT_EQ(spec.states.size(), 4u);
  EXPECT_EQ(spec.transient_state, "Fail");
  EXPECT_EQ(spec.transient_fn, "fail");
  EXPECT_EQ(spec.initial, "Idle");
  EXPECT_EQ(spec.transitions.size(), 5u);
  EXPECT_TRUE(spec.transitions.count({"Idle", "Run"}));
}

TEST(Spec, RejectsUndeclaredStatesSelfLoopsAndDuplicates) {
  lint::MachineSpec spec;
  std::string error;
  EXPECT_FALSE(lint::parse_machine_spec(
      "machine m\nfile f.cpp\nstates A B\nA -> C\n", &spec, &error));
  EXPECT_NE(error.find("undeclared"), std::string::npos);
  EXPECT_FALSE(lint::parse_machine_spec(
      "machine m\nfile f.cpp\nstates A B\nA -> A\n", &spec, &error));
  EXPECT_FALSE(lint::parse_machine_spec(
      "machine m\nfile f.cpp\nstates A B\nA -> B\nA -> B\n", &spec, &error));
  EXPECT_FALSE(lint::parse_machine_spec("states A\nA -> A\n", &spec, &error));
}

TEST(Allowlist, MatchesOnPathSuffix) {
  const lint::Allowlist allow = lint::parse_allowlist(
      "# comment only\n"
      "determinism src/util/index.cpp unordered_multimap  # vetted\n");
  EXPECT_EQ(allow.size(), 1u);
  EXPECT_TRUE(allow.allows("determinism", "src/util/index.cpp",
                           "unordered_multimap"));
  EXPECT_TRUE(allow.allows("determinism", "/repo/src/util/index.cpp",
                           "unordered_multimap"));
  // Suffix match must align on a path component.
  EXPECT_FALSE(allow.allows("determinism", "src/util/not_index.cpp",
                            "unordered_multimap"));
  EXPECT_FALSE(allow.allows("determinism", "src/other.cpp",
                            "unordered_multimap"));
  EXPECT_FALSE(allow.allows("hygiene", "src/util/index.cpp",
                            "unordered_multimap"));
}

// --- rule family 1: state machine -------------------------------------------

lint::MachineSpec tiny_spec() {
  lint::MachineSpec spec;
  std::string error;
  EXPECT_TRUE(lint::parse_machine_spec(kTinySpec, &spec, &error)) << error;
  return spec;
}

// A fixture covering every context idiom the extractor understands:
// asserts, switch labels, != guards with early return, helper
// attribution, deferred (lambda) targets and a transient function.
constexpr const char* kGoodMachine = R"cpp(
void Toy::start() {
  assert(state_ == State::kIdle);
  begin_run();  // Idle -> Run via helper attribution
}
void Toy::begin_run() {
  change_state(State::kRun);
  timer_ = schedule([this] { fail(); });  // deferred Run -> Fail
}
void Toy::on_tick() {
  switch (state_) {
    case State::kRun:
      change_state(State::kSleep);  // Run -> Sleep
      break;
    default:
      break;
  }
}
void Toy::on_wake() {
  if (state_ != State::kSleep) return;
  change_state(State::kIdle);  // Sleep -> Idle
}
void Toy::fail() {
  change_state(State::kIdle);  // Fail -> Idle
}
)cpp";

TEST(StateMachine, CleanImplementationMatchesSpec) {
  const lint::SourceFile file{"src/toy.cpp", kGoodMachine};
  const auto diags = lint::check_state_machine(file, tiny_spec());
  EXPECT_TRUE(diags.empty()) << diags_str(diags);
}

TEST(StateMachine, ExtractsTheFullTable) {
  const lint::SourceFile file{"src/toy.cpp", kGoodMachine};
  std::vector<lint::Diagnostic> diags;
  const auto table = lint::extract_transitions(file, tiny_spec(), &diags);
  EXPECT_TRUE(diags.empty()) << diags_str(diags);
  std::set<std::pair<std::string, std::string>> edges;
  for (const auto& tr : table) edges.emplace(tr.from, tr.to);
  EXPECT_EQ(edges, tiny_spec().transitions);
}

TEST(StateMachine, FlagsForbiddenSleepToForwardTransition) {
  // The MNP spec deliberately omits Sleep -> Forward: a sleeping node must
  // win sender selection again before forwarding. Seed exactly that bug.
  const lint::SourceFile file{
      "src/toy.cpp",
      "void Toy::on_wake() {\n"
      "  if (state_ != State::kSleep) return;\n"
      "  change_state(State::kRun);\n"  // spec says Sleep -> Idle only
      "}\n"};
  const auto diags = lint::check_state_machine(file, tiny_spec());
  EXPECT_TRUE(has_diag(diags, "state-machine",
                       "forbidden transition Sleep -> Run"))
      << diags_str(diags);
}

TEST(StateMachine, FlagsSpecTransitionWithNoImplementation) {
  const lint::SourceFile file{
      "src/toy.cpp",
      "void Toy::on_wake() {\n"
      "  if (state_ != State::kSleep) return;\n"
      "  change_state(State::kIdle);\n"
      "}\n"};
  const auto diags = lint::check_state_machine(file, tiny_spec());
  EXPECT_TRUE(has_diag(diags, "state-machine",
                       "spec transition Idle -> Run has no implementing"))
      << diags_str(diags);
}

TEST(StateMachine, FlagsUnresolvableTransitionSite) {
  // A public entry point that mutates state with no guard anywhere.
  const lint::SourceFile file{"src/toy.cpp",
                              "void Toy::on_packet() {\n"
                              "  change_state(State::kRun);\n"
                              "}\n"};
  const auto diags = lint::check_state_machine(file, tiny_spec());
  EXPECT_TRUE(has_diag(diags, "state-machine", "unresolvable"))
      << diags_str(diags);
}

TEST(StateMachine, FlagsStateNameOutsideTheSpec) {
  const lint::SourceFile file{"src/toy.cpp",
                              "void Toy::on_wake() {\n"
                              "  assert(state_ == State::kIdle);\n"
                              "  change_state(State::kWarp);\n"
                              "}\n"};
  const auto diags = lint::check_state_machine(file, tiny_spec());
  EXPECT_TRUE(has_diag(diags, "state-machine", "unknown state State::kWarp"))
      << diags_str(diags);
}

TEST(StateMachine, DirectAssignmentIdiomAndElseBranch) {
  // Baseline idiom: state_ = State::kX; plus else-branch refinement.
  const lint::SourceFile file{
      "src/toy.cpp",
      "void Toy::poll() {\n"
      "  if (state_ == State::kIdle) {\n"
      "    state_ = State::kRun;\n"
      "  } else if (state_ == State::kRun) {\n"
      "    state_ = State::kSleep;\n"
      "  }\n"
      "}\n"
      "void Toy::wake() {\n"
      "  if (state_ != State::kSleep) return;\n"
      "  state_ = State::kIdle;\n"
      "}\n"
      "void Toy::never() {\n"
      "  if (state_ == State::kRun) fail();\n"  // Run -> Fail
      "}\n"
      "void Toy::fail() { state_ = State::kIdle; }\n"};
  const auto diags = lint::check_state_machine(file, tiny_spec());
  EXPECT_TRUE(diags.empty()) << diags_str(diags);
}

// --- rule family 2: determinism ---------------------------------------------

TEST(Determinism, FlagsWallClockAndGlobalPrng) {
  const lint::Allowlist empty;
  const lint::SourceFile file{
      "src/sim/bad.cpp",
      "int f() { return std::rand(); }\n"
      "long g() { return time(nullptr); }\n"
      "auto h() { return std::chrono::system_clock::now(); }\n"
      "std::random_device rd;\n"};
  const auto diags = lint::check_determinism(file, empty);
  EXPECT_TRUE(has_diag(diags, "determinism", "'rand'")) << diags_str(diags);
  EXPECT_TRUE(has_diag(diags, "determinism", "'time'")) << diags_str(diags);
  EXPECT_TRUE(has_diag(diags, "determinism", "'system_clock'"));
  EXPECT_TRUE(has_diag(diags, "determinism", "'random_device'"));
}

TEST(Determinism, IgnoresMemberCallsCommentsAndLookalikes) {
  const lint::Allowlist empty;
  const lint::SourceFile file{
      "src/sim/good.cpp",
      "// std::rand() would be wrong here\n"
      "sim::Time t = sched.time();\n"        // simulator clock member
      "auto s = format_time(now);\n"         // identifier merely contains
      "auto a = airtime(bytes);\n"
      "log(\"rand srand time(\");\n"};
  const auto diags = lint::check_determinism(file, empty);
  EXPECT_TRUE(diags.empty()) << diags_str(diags);
}

TEST(Determinism, FlagsUnorderedContainersUnlessAllowlisted) {
  const lint::SourceFile file{
      "src/util/index.cpp",
      "std::unordered_multimap<std::uint64_t, std::size_t> index;\n"};
  const lint::Allowlist empty;
  EXPECT_TRUE(has_diag(lint::check_determinism(file, empty), "determinism",
                       "unordered_multimap"));
  const lint::Allowlist allow = lint::parse_allowlist(
      "determinism src/util/index.cpp unordered_multimap\n");
  EXPECT_TRUE(lint::check_determinism(file, allow).empty());
  // The entry is file-scoped: the same container elsewhere still fails.
  const lint::SourceFile other{"src/mnp/mnp_node.cpp", file.content};
  EXPECT_FALSE(lint::check_determinism(other, allow).empty());
}

// --- rule family 3: hygiene -------------------------------------------------

TEST(Hygiene, FlagsUncheckedReaderBufferAccess) {
  const lint::Allowlist empty;
  const lint::SourceFile file{
      "src/net/codec.cpp",
      "class Reader {\n"
      " public:\n"
      "  bool u8(std::uint8_t& v) {\n"
      "    v = data_[pos_++];\n"  // no size_ check first
      "    return true;\n"
      "  }\n"
      " private:\n"
      "  const std::uint8_t* data_;\n"
      "  std::size_t size_;\n"
      "  std::size_t pos_ = 0;\n"
      "};\n"};
  const auto diags = lint::check_hygiene(file, empty);
  EXPECT_TRUE(has_diag(diags, "hygiene", "Reader::u8")) << diags_str(diags);
}

TEST(Hygiene, AcceptsBoundsCheckedReaderAndDecode) {
  const lint::Allowlist empty;
  const lint::SourceFile file{
      "src/net/codec.cpp",
      "class Reader {\n"
      " public:\n"
      "  bool u8(std::uint8_t& v) {\n"
      "    if (pos_ + 1 > size_) return false;\n"
      "    v = data_[pos_++];\n"
      "    return true;\n"
      "  }\n"
      "};\n"
      "std::optional<Packet> decode(const std::uint8_t* frame,\n"
      "                             std::size_t length) {\n"
      "  if (length < 7) return std::nullopt;\n"
      "  return parse(frame[0]);\n"
      "}\n"};
  const auto diags = lint::check_hygiene(file, empty);
  EXPECT_TRUE(diags.empty()) << diags_str(diags);
}

TEST(Hygiene, FlagsDecodeIndexingBeforeLengthCheck) {
  const lint::Allowlist empty;
  const lint::SourceFile file{
      "src/net/codec.cpp",
      "std::optional<Packet> decode(const std::uint8_t* frame,\n"
      "                             std::size_t length) {\n"
      "  return parse(frame[0]);\n"
      "}\n"};
  EXPECT_TRUE(has_diag(lint::check_hygiene(file, empty), "hygiene",
                       "decode()"));
}

TEST(Hygiene, FlagsFactoryMissingNodiscard) {
  const lint::Allowlist empty;
  const lint::SourceFile file{
      "src/storage/eeprom.hpp",
      "class Eeprom {\n"
      " public:\n"
      "  std::vector<std::uint8_t> read(std::size_t off, std::size_t len);\n"
      "  void read_into(std::size_t off, std::vector<std::uint8_t>& out);\n"
      "};\n"};
  const auto diags = lint::check_hygiene(file, empty);
  EXPECT_TRUE(has_diag(diags, "hygiene", "'read'")) << diags_str(diags);
  // read_into returns void: not flagged.
  EXPECT_FALSE(has_diag(diags, "hygiene", "'read_into'"));
}

TEST(Hygiene, AcceptsAnnotatedFactories) {
  const lint::Allowlist empty;
  const lint::SourceFile file{
      "src/net/frame.hpp",
      "class FramePool {\n"
      " public:\n"
      "  [[nodiscard]] FramePtr adopt(Packet&& pkt);\n"
      "  [[nodiscard]] std::vector<std::uint8_t> acquire_payload();\n"
      "};\n"};
  const auto diags = lint::check_hygiene(file, empty);
  EXPECT_TRUE(diags.empty()) << diags_str(diags);
}

TEST(Hygiene, NodiscardRuleOnlyAppliesToFactoryHeaders) {
  const lint::Allowlist empty;
  const lint::SourceFile file{
      "src/mnp/mnp_node.hpp",
      "std::vector<std::uint8_t> read(std::size_t off);\n"};
  EXPECT_TRUE(lint::check_hygiene(file, empty).empty());
}

TEST(Hygiene, FlagsRawAllocationOutsideThePool) {
  const lint::Allowlist allow = lint::parse_allowlist(
      "allocation src/net/frame.cpp new\n"
      "allocation src/net/frame.cpp delete\n");
  const lint::SourceFile bad{"src/mnp/mnp_node.cpp",
                             "auto* p = new Packet();\ndelete p;\n"};
  const auto diags = lint::check_hygiene(bad, allow);
  EXPECT_TRUE(has_diag(diags, "hygiene", "'new'")) << diags_str(diags);
  EXPECT_TRUE(has_diag(diags, "hygiene", "'delete'"));

  const lint::SourceFile pool{"src/net/frame.cpp",
                              "auto* n = new detail::FrameNode();\ndelete n;\n"};
  EXPECT_TRUE(lint::check_hygiene(pool, allow).empty());

  // Deleted special members are not allocations.
  const lint::SourceFile deleted{"src/util/pin.hpp",
                                 "Pin(const Pin&) = delete;\n"};
  EXPECT_TRUE(lint::check_hygiene(deleted, allow).empty());
}

// --- rule family 4: timer discipline ----------------------------------------

TEST(TimerDiscipline, FlagsTimerLeakedAcrossTransition) {
  // The classic stale-timer bug: Run arms poll_timer_, the Run -> Sleep
  // edge neither cancels nor re-arms it, and the expiry later fires into
  // a state that never expected it.
  const lint::SourceFile file{
      "src/toy.cpp",
      "void Toy::start() {\n"
      "  assert(state_ == State::kIdle);\n"
      "  change_state(State::kRun);\n"
      "  poll_timer_ = scheduler_.schedule_after(50, [this] {});\n"
      "}\n"
      "void Toy::on_quiet() {\n"
      "  if (state_ != State::kRun) return;\n"
      "  change_state(State::kSleep);\n"  // poll_timer_ still pending
      "}\n"};
  const auto diags =
      lint::check_timer_discipline(file, tiny_spec(), lint::Allowlist{});
  EXPECT_TRUE(has_diag(diags, "timer-discipline",
                       "'poll_timer_' is armed in state Run"))
      << diags_str(diags);
  EXPECT_TRUE(has_diag(diags, "timer-discipline", "Run -> Sleep"));
}

TEST(TimerDiscipline, AcceptsCancelOnEveryOutgoingEdge) {
  const lint::SourceFile file{
      "src/toy.cpp",
      "void Toy::start() {\n"
      "  assert(state_ == State::kIdle);\n"
      "  change_state(State::kRun);\n"
      "  poll_timer_ = scheduler_.schedule_after(50, [this] {});\n"
      "}\n"
      "void Toy::on_quiet() {\n"
      "  if (state_ != State::kRun) return;\n"
      "  poll_timer_.cancel();\n"
      "  change_state(State::kSleep);\n"
      "}\n"};
  const auto diags =
      lint::check_timer_discipline(file, tiny_spec(), lint::Allowlist{});
  EXPECT_TRUE(diags.empty()) << diags_str(diags);
}

TEST(TimerDiscipline, ExemptsTransitionInsideTheTimersOwnExpiry) {
  // A transition inside poll_timer_'s own callback runs with the timer
  // already fired — nothing is pending, nothing to cancel.
  const lint::SourceFile file{
      "src/toy.cpp",
      "void Toy::start() {\n"
      "  assert(state_ == State::kIdle);\n"
      "  change_state(State::kRun);\n"
      "  poll_timer_ = scheduler_.schedule_after(50, [this] {\n"
      "    if (state_ != State::kRun) return;\n"
      "    change_state(State::kSleep);\n"
      "  });\n"
      "}\n"};
  const auto diags =
      lint::check_timer_discipline(file, tiny_spec(), lint::Allowlist{});
  EXPECT_TRUE(diags.empty()) << diags_str(diags);
}

TEST(TimerDiscipline, AllowlistedTimerSurvivesTransitions) {
  const lint::SourceFile file{
      "src/toy.cpp",
      "void Toy::start() {\n"
      "  assert(state_ == State::kIdle);\n"
      "  change_state(State::kRun);\n"
      "  poll_timer_ = scheduler_.schedule_after(50, [this] {});\n"
      "}\n"
      "void Toy::on_quiet() {\n"
      "  if (state_ != State::kRun) return;\n"
      "  change_state(State::kSleep);\n"
      "}\n"};
  const lint::Allowlist allow = lint::parse_allowlist(
      "timer-discipline src/toy.cpp poll_timer_  # survives by design\n");
  EXPECT_TRUE(lint::check_timer_discipline(file, tiny_spec(), allow).empty());
}

TEST(RebootReset, FlagsTimerNotCancelledByReset) {
  const lint::SourceFile file{
      "src/toy.cpp",
      "void Toy::tick() {\n"
      "  adv_timer_ = scheduler_.schedule_after(10, [this] {});\n"
      "  req_timer_ = scheduler_.schedule_after(20, [this] {});\n"
      "}\n"
      "void Toy::reset_for_reboot() {\n"
      "  adv_timer_.cancel();\n"  // req_timer_ forgotten
      "}\n"};
  const auto diags = lint::check_reboot_reset(file, lint::Allowlist{});
  EXPECT_TRUE(has_diag(diags, "reboot-reset",
                       "'req_timer_' is not cancelled by reset_for_reboot"))
      << diags_str(diags);
  EXPECT_FALSE(has_diag(diags, "reboot-reset", "'adv_timer_'"));
}

TEST(RebootReset, FollowsHelperCallsTransitively) {
  const lint::SourceFile file{
      "src/toy.cpp",
      "void Toy::tick() {\n"
      "  adv_timer_ = scheduler_.schedule_after(10, [this] {});\n"
      "  req_timer_ = scheduler_.schedule_after(20, [this] {});\n"
      "}\n"
      "void Toy::stop_timers() {\n"
      "  adv_timer_.cancel();\n"
      "  req_timer_.cancel();\n"
      "}\n"
      "void Toy::reset_for_reboot() {\n"
      "  stop_timers();\n"
      "}\n"};
  const auto diags = lint::check_reboot_reset(file, lint::Allowlist{});
  EXPECT_TRUE(diags.empty()) << diags_str(diags);
}

TEST(RebootReset, CancelInsideAnArmedLambdaDoesNotCount) {
  // The cancel runs when the timer fires, not during the reset itself.
  const lint::SourceFile file{
      "src/toy.cpp",
      "void Toy::reset_for_reboot() {\n"
      "  adv_timer_ = scheduler_.schedule_after(10, [this] {\n"
      "    req_timer_.cancel();\n"
      "  });\n"
      "}\n"};
  const auto diags = lint::check_reboot_reset(file, lint::Allowlist{});
  EXPECT_TRUE(has_diag(diags, "reboot-reset", "'req_timer_'"))
      << diags_str(diags);
}

// --- rule family 5: allowlist staleness -------------------------------------

TEST(AllowlistStaleness, FlagsEntryForFileNotInTheScannedSet) {
  const lint::Allowlist allow = lint::parse_allowlist(
      "determinism src/gone.cpp unordered_map  # file was deleted\n");
  const auto diags = lint::check_allowlist_staleness(
      {{"src/other.cpp", "int x;\n"}}, allow);
  EXPECT_TRUE(has_diag(diags, "allowlist", "not in the scanned file set"))
      << diags_str(diags);
}

TEST(AllowlistStaleness, FlagsEntryWhoseTokenDisappeared) {
  const lint::Allowlist allow = lint::parse_allowlist(
      "determinism src/delta.cpp unordered_map  # refactored away\n");
  const auto diags = lint::check_allowlist_staleness(
      {{"src/delta.cpp", "std::map<int, int> index;\n"}}, allow);
  EXPECT_TRUE(has_diag(diags, "allowlist", "no longer appears"))
      << diags_str(diags);
}

TEST(AllowlistStaleness, AcceptsLiveEntries) {
  const lint::Allowlist allow = lint::parse_allowlist(
      "determinism src/delta.cpp unordered_map  # vetted: sorted on output\n");
  const auto diags = lint::check_allowlist_staleness(
      {{"src/delta.cpp", "std::unordered_map<int, int> index;\n"}}, allow);
  EXPECT_TRUE(diags.empty()) << diags_str(diags);
}

// --- run_all ----------------------------------------------------------------

TEST(RunAll, DeterminismCoversBenchAndToolsFiles) {
  // The scan set grew beyond src/: a wall-clock call in a tool or bench
  // harness skews measurements just as silently.
  std::vector<lint::SourceFile> files = {
      {"tools/mnp_lint/main.cpp", "long f() { return time(nullptr); }\n"},
      {"bench/bench_sweep.cpp", "int g() { return std::rand(); }\n"},
  };
  const auto diags = lint::run_all(files, {}, lint::Allowlist{});
  EXPECT_TRUE(has_diag(diags, "determinism", "'time'")) << diags_str(diags);
  EXPECT_TRUE(has_diag(diags, "determinism", "'rand'"));
}

TEST(RunAll, AppliesEverySpecAndFamily) {
  std::vector<lint::SourceFile> files = {
      {"src/toy.cpp", kGoodMachine},
      {"src/other.cpp", "int f() { return std::rand(); }\n"},
  };
  const auto diags =
      lint::run_all(files, {tiny_spec()}, lint::Allowlist{});
  EXPECT_TRUE(has_diag(diags, "determinism", "'rand'")) << diags_str(diags);
  EXPECT_FALSE(has_diag(diags, "state-machine", "forbidden"));
}

TEST(RunAll, ReportsSpecWithNoMatchingFile) {
  const auto diags = lint::run_all({{"src/other.cpp", "int x;\n"}},
                                   {tiny_spec()}, lint::Allowlist{});
  EXPECT_TRUE(has_diag(diags, "state-machine", "not in the scanned set"))
      << diags_str(diags);
}

}  // namespace
