// Rule family 3: hygiene rules, plus the run_all driver.
//
//  (a) codec bounds: every member function of a *Reader* class in
//      net/codec.cpp that touches the raw buffer (`data_[...]`,
//      `data_ + ...`) must compare against `size_` first, and decode()
//      must validate `length` before indexing `frame[...]`. The malformed
//      -frame fuzz tests catch most violations dynamically; this rule
//      catches them before a fuzz corpus has to.
//
//  (b) [[nodiscard]] factories: value-returning functions in
//      net/frame.hpp and storage/*.hpp whose names promise a resource
//      (acquire*/adopt*/read*/make*/create*/clone*) must be annotated —
//      dropping an acquired payload buffer or an EEPROM read is always a
//      bug.
//
//  (c) allocation: no raw `new` / `delete` outside the pooled allocators
//      in net/frame.cpp (allowlisted there); protocol and sim code uses
//      containers and the frame pool.

#include <array>
#include <optional>

#include "lexer.hpp"
#include "lint.hpp"

namespace mnp::lint {

namespace {

constexpr const char* kRule = "hygiene";

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool has_prefix(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool is_comparison(const Token& t) {
  return t.is("<") || t.is(">") || t.is("<=") || t.is(">=");
}

/// Checks one function body [begin, end): if it reads the raw buffer
/// (`buf[...]` / `buf + ...`), a `guard` comparison must come first.
void check_bounds_body(const std::vector<Token>& t, std::size_t begin,
                       std::size_t end, const std::string& buf,
                       const std::string& guard, const std::string& what,
                       const SourceFile& file,
                       std::vector<Diagnostic>* diags) {
  std::optional<std::size_t> first_access;
  for (std::size_t i = begin; i < end; ++i) {
    if (t[i].is(buf) && (t[i + 1].is("[") || t[i + 1].is("+"))) {
      first_access = i;
      break;
    }
  }
  if (!first_access) return;
  for (std::size_t i = begin; i < *first_access; ++i) {
    if (!t[i].is(guard)) continue;
    if ((i > begin && is_comparison(t[i - 1])) || is_comparison(t[i + 1])) {
      return;  // bounds check precedes the access
    }
  }
  diags->push_back(Diagnostic{
      kRule, file.path, t[*first_access].line,
      what + " reads '" + buf + "' without checking '" + guard +
          "' first"});
}

/// (a) codec bounds rule over one file.
void check_codec_bounds(const SourceFile& file, const std::vector<Token>& t,
                        std::vector<Diagnostic>* diags) {
  // Reader-class member functions.
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!(t[i].is("class") && t[i + 1].ident() &&
          t[i + 1].text.find("Reader") != std::string::npos)) {
      continue;
    }
    std::size_t open = i + 2;
    while (open < t.size() && !t[open].is("{") && !t[open].is(";")) ++open;
    if (!t[open].is("{")) continue;
    const std::size_t close = match_delim(t, open);
    for (std::size_t j = open + 1; j < close; ++j) {
      if (!(t[j].ident() && t[j + 1].is("("))) continue;
      std::size_t k = match_delim(t, j + 1) + 1;
      while (t[k].is("const") || t[k].is("noexcept")) ++k;
      if (!t[k].is("{")) continue;  // ctor init-list, declarations
      const std::size_t body_end = match_delim(t, k);
      check_bounds_body(t, k + 1, body_end, "data_", "size_",
                        "Reader::" + t[j].text, file, diags);
      j = body_end;
    }
    i = close;
  }
  // decode(): `length` must gate `frame[...]`.
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!(t[i].is("decode") && t[i + 1].is("("))) continue;
    std::size_t k = match_delim(t, i + 1) + 1;
    while (t[k].is("const") || t[k].is("noexcept")) ++k;
    if (!t[k].is("{")) continue;
    const std::size_t body_end = match_delim(t, k);
    check_bounds_body(t, k + 1, body_end, "frame", "length", "decode()", file,
                      diags);
    i = body_end;
  }
}

/// (b) [[nodiscard]] factory rule over one header.
void check_nodiscard(const SourceFile& file, const std::vector<Token>& t,
                     std::vector<Diagnostic>* diags) {
  static const std::array<const char*, 5> kPrefixes = {
      "acquire", "adopt", "make", "create", "clone"};
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (!(t[i].ident() && t[i + 1].is("("))) continue;
    const std::string& name = t[i].text;
    bool factory = name == "read" || has_prefix(name, "read_");
    for (const char* p : kPrefixes) factory = factory || has_prefix(name, p);
    if (!factory) continue;
    // Qualified names and member calls are uses, not declarations.
    if (t[i - 1].is("::") || t[i - 1].is(".") || t[i - 1].is("->")) continue;
    // Walk back over the return type to the start of the declaration.
    std::size_t b = i;
    while (b > 0 && !(t[b - 1].is(";") || t[b - 1].is("{") ||
                      t[b - 1].is("}") || t[b - 1].is(":"))) {
      --b;
    }
    if (b == i) continue;  // no return type at all: a call, not a decl
    bool returns_void = false, has_nodiscard = false, has_type = false;
    for (std::size_t j = b; j < i; ++j) {
      if (t[j].is("void") && !t[j + 1].is("*")) returns_void = true;
      if (t[j].is("nodiscard")) has_nodiscard = true;
      if (t[j].ident()) has_type = true;
    }
    if (!has_type || returns_void || has_nodiscard) continue;
    diags->push_back(Diagnostic{
        kRule, file.path, t[i].line,
        "value-returning factory '" + name +
            "' must be [[nodiscard]]: dropping its result is always a bug"});
  }
}

/// (c) raw allocation rule.
void check_allocation(const SourceFile& file, const std::vector<Token>& t,
                      const Allowlist& allow,
                      std::vector<Diagnostic>* diags) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].is("new") && !(i > 0 && t[i - 1].is("."))) {
      if (allow.allows("allocation", file.path, "new")) continue;
      diags->push_back(Diagnostic{
          kRule, file.path, t[i].line,
          "raw 'new' outside the pooled allocators in net/frame.cpp"});
    }
    if (t[i].is("delete") && !(i > 0 && t[i - 1].is("="))) {
      if (allow.allows("allocation", file.path, "delete")) continue;
      diags->push_back(Diagnostic{
          kRule, file.path, t[i].line,
          "raw 'delete' outside the pooled allocators in net/frame.cpp"});
    }
  }
}

}  // namespace

std::vector<Diagnostic> check_hygiene(const SourceFile& file,
                                      const Allowlist& allow) {
  std::vector<Diagnostic> diags;
  const std::vector<Token> tokens = lex(file.content);
  if (ends_with(file.path, "codec.cpp")) {
    check_codec_bounds(file, tokens, &diags);
  }
  if (ends_with(file.path, ".hpp") &&
      (ends_with(file.path, "net/frame.hpp") ||
       file.path.find("storage/") != std::string::npos)) {
    check_nodiscard(file, tokens, &diags);
  }
  check_allocation(file, tokens, allow, &diags);
  return diags;
}

std::vector<Diagnostic> run_all(const std::vector<SourceFile>& files,
                                const std::vector<MachineSpec>& specs,
                                const Allowlist& allow) {
  std::vector<Diagnostic> diags;
  auto append = [&](std::vector<Diagnostic> more) {
    for (Diagnostic& d : more) diags.push_back(std::move(d));
  };
  for (const MachineSpec& spec : specs) {
    bool found = false;
    for (const SourceFile& f : files) {
      if (!ends_with(f.path, spec.file)) continue;
      append(check_state_machine(f, spec));
      append(check_timer_discipline(f, spec, allow));
      found = true;
    }
    if (!found) {
      diags.push_back(Diagnostic{
          "state-machine", spec.file, 0,
          "spec '" + spec.name + "' names a file not in the scanned set"});
    }
  }
  for (const SourceFile& f : files) {
    // Determinism applies everywhere the scan reaches (src/bench/tools);
    // the structural rules are scoped to the simulator sources.
    append(check_determinism(f, allow));
    if (has_prefix(f.path, "src/")) {
      append(check_hygiene(f, allow));
      append(check_reboot_reset(f, allow));
    }
  }
  append(check_allowlist_staleness(files, allow));
  return diags;
}

}  // namespace mnp::lint
