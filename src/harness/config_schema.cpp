#include "harness/config_schema.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <ostream>
#include <type_traits>

#include "obs/json_writer.hpp"

namespace mnp::harness {

namespace {

using C = ExperimentConfig;

// Choice spellings, indexed by enumerator value.
constexpr std::string_view kProtocolNames[] = {"mnp", "deluge", "moap", "xnp",
                                               "ncast"};
constexpr std::string_view kMacNames[] = {"csma", "tdma"};
constexpr std::string_view kTieBreakNames[] = {"fifo", "lifo"};
static_assert(static_cast<int>(Protocol::kNcast) == 4 &&
              static_cast<int>(MacType::kTdma) == 1 &&
              static_cast<int>(sim::TieBreak::kLifo) == 1);

template <typename E>
constexpr std::span<const std::string_view> choice_names() {
  if constexpr (std::is_same_v<E, Protocol>) return kProtocolNames;
  if constexpr (std::is_same_v<E, MacType>) return kMacNames;
  if constexpr (std::is_same_v<E, sim::TieBreak>) return kTieBreakNames;
}

// --- scalar spellings ------------------------------------------------------

bool whole(std::string_view v, const char* end) {
  return end == v.data() + v.size();
}

bool read_real(const ConfigField& f, std::string_view v, double* out) {
  double d = 0.0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), d);
  if (ec != std::errc() || !whole(v, end) || !std::isfinite(d) || d < f.min ||
      d > f.max) {
    return false;
  }
  *out = d;
  return true;
}

template <typename T>
bool read_int(const ConfigField& f, std::string_view v, T* out) {
  using Wide =
      std::conditional_t<std::is_signed_v<T>, std::int64_t, std::uint64_t>;
  Wide n{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
  const auto d = static_cast<double>(n);
  if (ec != std::errc() || !whole(v, end) || d < f.min || d > f.max) {
    return false;
  }
  *out = static_cast<T>(n);
  return true;
}

/// Shortest exact spelling; "null" for the non-finite values a config
/// built in code may hold (no input spells them).
std::string real_text(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

template <typename T>
bool read_value(const ConfigField& f, std::string_view v, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (v == "true" || v == "1") {
      *out = true;
    } else if (v == "false" || v == "0") {
      *out = false;
    } else {
      return false;
    }
    return true;
  } else if constexpr (std::is_enum_v<T>) {
    const auto names = choice_names<T>();
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (v == names[i]) {
        *out = static_cast<T>(i);
        return true;
      }
    }
    return false;
  } else if constexpr (std::is_integral_v<T>) {
    return read_int(f, v, out);
  } else if constexpr (std::is_floating_point_v<T>) {
    return read_real(f, v, out);
  } else {
    static_assert(std::is_same_v<T, std::vector<double>>);
    T list;
    while (!v.empty()) {
      const std::size_t comma = v.find(',');
      double d = 0.0;
      if (!read_real(f, v.substr(0, comma), &d)) return false;
      list.push_back(d);
      if (comma == std::string_view::npos) break;
      v.remove_prefix(comma + 1);
      if (v.empty()) return false;  // trailing comma
    }
    *out = std::move(list);
    return true;
  }
}

template <typename T>
std::string value_text(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_enum_v<T>) {
    return std::string(choice_names<T>()[static_cast<std::size_t>(value)]);
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else if constexpr (std::is_floating_point_v<T>) {
    return real_text(value);
  } else {
    std::string out;
    for (const double d : value) {
      if (!out.empty()) out += ',';
      out += real_text(d);
    }
    return out;
  }
}

// --- row builders ----------------------------------------------------------

/// The member a path of member pointers names: (cfg.*a).*b ...
template <auto... Path, typename Cfg>
auto& member(Cfg& cfg) {
  return (cfg .* ... .* Path);
}

template <auto... Path>
using MemberT =
    std::remove_cvref_t<decltype(member<Path...>(std::declval<C&>()))>;

template <typename T>
constexpr FieldType type_of() {
  if constexpr (std::is_same_v<T, bool>) return FieldType::kBool;
  // Every 64-bit signed member of the configs is a sim::Time.
  if constexpr (std::is_same_v<T, sim::Time>) return FieldType::kTime;
  if constexpr (std::is_enum_v<T>) return FieldType::kChoice;
  if constexpr (std::is_integral_v<T>) return FieldType::kInt;
  if constexpr (std::is_floating_point_v<T>) return FieldType::kReal;
  if constexpr (std::is_same_v<T, std::vector<double>>) {
    return FieldType::kRealList;
  }
}

struct Row : ConfigField {
  Row& range(double lo, double hi) {
    min = lo;
    max = hi;
    return *this;
  }
  /// An input with no CLI flag: a request key only.
  Row& request() {
    input = true;
    return *this;
  }
  /// An input whose CLI flag `spelling` takes a value.
  Row& cli(std::string_view spelling) {
    input = true;
    flag = spelling;
    return *this;
  }
  /// An input whose CLI switch `spelling` applies `value`.
  Row& toggle(std::string_view spelling, std::string_view value) {
    input = true;
    flag = spelling;
    flag_value = value;
    return *this;
  }
};

/// Default bounds: integers are non-negative and fit their member, times
/// are at least 1 us (no timer may spin at one instant), reals are any
/// finite number.
template <typename T>
void default_bounds(ConfigField& f) {
  if constexpr (std::is_same_v<T, sim::Time>) {
    f.min = 1.0;
    f.max = static_cast<double>(std::numeric_limits<sim::Time>::max());
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    f.min = 0.0;
    f.max = static_cast<double>(std::numeric_limits<T>::max());
  } else if constexpr (std::is_floating_point_v<T> ||
                       std::is_same_v<T, std::vector<double>>) {
    f.min = -std::numeric_limits<double>::max();
    f.max = std::numeric_limits<double>::max();
  }
}

/// A row bound to the member at `Path`.
template <auto... Path>
Row field(std::string_view key, std::string_view help) {
  using T = MemberT<Path...>;
  Row r;
  r.key = key;
  r.type = type_of<T>();
  r.help = help;
  if constexpr (std::is_enum_v<T>) r.choices = choice_names<T>();
  default_bounds<T>(r);
  r.assign = [](const ConfigField& self, C& cfg, std::string_view v) {
    T parsed{};
    if (!read_value(self, v, &parsed)) return false;
    member<Path...>(cfg) = std::move(parsed);
    return true;
  };
  r.text = [](const C& cfg) { return value_text(member<Path...>(cfg)); };
  return r;
}

template <typename F>
struct SetterArg;
template <typename T>
struct SetterArg<void (*)(C&, T)> {
  using type = T;
};

/// An input-only row: parses a T and hands it to `Apply`.
template <auto Apply>
Row setter(std::string_view key, std::string_view help) {
  using T = typename SetterArg<decltype(Apply)>::type;
  Row r;
  r.key = key;
  r.type = type_of<T>();
  r.help = help;
  default_bounds<T>(r);
  r.assign = [](const ConfigField& self, C& cfg, std::string_view v) {
    T parsed{};
    if (!read_value(self, v, &parsed)) return false;
    Apply(cfg, parsed);
    return true;
  };
  return r;
}

void set_segments(C& cfg, std::uint16_t segments) {
  cfg.set_program_segments(segments);
}
void set_max_sim_time_s(C& cfg, double s) {
  cfg.max_sim_time = static_cast<sim::Time>(s * 1e6);
}
void set_boot_jitter_ms(C& cfg, double ms) {
  cfg.boot_jitter = static_cast<sim::Time>(ms * 1e3);
}

// Input bounds. Nodes sit within net::kMaxCoordinateFt of the origin and
// a spatial-grid cell is at least 0.25 x range_ft x interference_factor
// wide (0.25 is the lowest power scale), so cell coordinates fit their
// int32; the TDMA tile side, 2 x range_ft x interference_factor /
// spacing_ft, fits its uint32 likewise.
using net::kMaxDistanceFt;
using net::kMaxNodesPerSide;
constexpr double kMaxInterferenceFactor = 10;
// One EEPROM (storage::Eeprom::kDefaultCapacity).
constexpr double kMaxProgramBytes = 512 * 1024;

std::vector<ConfigField> build_fields() {
  using M = core::MnpConfig;
  using D = baselines::DelugeConfig;
  using O = baselines::MoapConfig;
  using X = baselines::XnpConfig;
  using N = baselines::NcastConfig;
  constexpr auto mnp = &C::mnp;
  constexpr auto deluge = &C::deluge;
  constexpr auto moap = &C::moap;
  constexpr auto xnp = &C::xnp;
  constexpr auto ncast = &C::ncast;
  constexpr auto chan = &C::channel;
  // No input changes the MNP segment geometry, so its default decides how
  // many segments fit one EEPROM.
  const M geometry{};
  const double max_segments =
      std::floor(kMaxProgramBytes /
                 static_cast<double>(geometry.packets_per_segment *
                                     geometry.payload_bytes));
  return {
      // --- run identity and deployment --------------------------------
      field<&C::protocol>("protocol", "protocol to run").cli("--protocol"),
      field<&C::mac>("mac", "medium access").cli("--mac"),
      field<&C::tie_break>("tie_break",
                           "same-timestamp event order (lifo + --audit-out "
                           "hunts order-sensitive logic)")
          .cli("--tie-break"),
      field<&C::rows>("rows", "grid rows")
          .range(1, kMaxNodesPerSide)
          .cli("--rows"),
      field<&C::cols>("cols", "grid columns")
          .range(1, kMaxNodesPerSide)
          .cli("--cols"),
      field<&C::spacing_ft>("spacing_ft", "inter-node distance, ft")
          .range(1, kMaxDistanceFt)
          .cli("--spacing"),
      field<&C::base>("base", "base station node index").request(),
      field<&C::tdma_slot>("tdma_slot_us", "TDMA slot length"),
      // --- radio and channel ------------------------------------------
      field<&C::range_ft>("range_ft", "radio range, ft (the power knob)")
          .range(1, kMaxDistanceFt)
          .cli("--range"),
      field<&C::interference_factor>("interference_factor",
                                     "interference reach / radio range")
          .range(1, kMaxInterferenceFactor)
          .request(),
      field<&C::empirical_links>("empirical_links",
                                 "lossy empirical links (false: ideal disk)")
          .toggle("--disk-links", "false"),
      field<&C::link_noise_stddev>("link_noise_stddev",
                                   "per-edge link quality noise")
          .range(0, 1)
          .request(),
      field<chan, &net::Channel::Params::bitrate_bps>("chan_bitrate_bps",
                                                      "radio bitrate, bit/s"),
      field<chan, &net::Channel::Params::neighbor_cache>(
          "chan_neighbor_cache", "cached neighbor rows (false: O(N) scans)"),
      // --- program ------------------------------------------------------
      field<&C::program_id>("program_id", "program id").cli("--program-id"),
      field<&C::program_bytes>("program_bytes", "program size, bytes")
          .range(1, kMaxProgramBytes)
          .cli("--bytes"),
      setter<&set_segments>("segments",
                            "program size in MNP segments (sets "
                            "program_bytes)")
          .range(1, max_segments)
          .cli("--segments"),
      // --- run control ----------------------------------------------------
      field<&C::max_sim_time>("max_sim_time_us", "simulated-time horizon"),
      // 9e18 us leaves 2e17 us below INT64_MAX for timers past the horizon.
      setter<&set_max_sim_time_s>("max_sim_time_s",
                                  "simulated-time horizon, s")
          .range(1e-6, 9e12)
          .cli("--max-sim-time-s"),
      field<&C::boot_jitter>("boot_jitter_us", "boot times spread over this")
          .range(0, 9e18),
      setter<&set_boot_jitter_ms>("boot_jitter_ms",
                                  "boot times spread over this, ms")
          .range(0, 9e15)
          .cli("--boot-jitter-ms"),
      field<&C::battery_levels>("battery_levels",
                                "per-node battery fractions (MNP "
                                "battery-aware mode; empty = all full)"),
      // --- MNP ------------------------------------------------------------
      field<mnp, &M::packets_per_segment>("mnp_packets_per_segment",
                                          "packets per segment"),
      field<mnp, &M::payload_bytes>("mnp_payload_bytes",
                                    "code bytes per data packet"),
      field<mnp, &M::eeprom_base_offset>("mnp_eeprom_base_offset",
                                         "EEPROM offset of the image"),
      field<mnp, &M::adv_rounds_before_decision>(
          "mnp_adv_rounds_before_decision",
          "advertisements before a source decides (K)"),
      field<mnp, &M::adv_interval_min>("mnp_adv_interval_min_us",
                                       "advertisement interval, low end"),
      field<mnp, &M::adv_interval_max>("mnp_adv_interval_max_us",
                                       "advertisement interval, high end"),
      field<mnp, &M::adv_interval_cap>("mnp_adv_interval_cap_us",
                                       "backed-off advertisement interval cap"),
      field<mnp, &M::pipelining>("pipelining", "segment pipelining")
          .toggle("--no-pipelining", "false"),
      field<mnp, &M::lower_segment_priority_threshold>(
          "mnp_lower_segment_priority_threshold",
          "requesters that make a lower segment win (rule 4)"),
      field<mnp, &M::pre_wave_duty_cycle>(
          "duty_cycle", "pre-wave radio duty cycle (0 = always on)")
          .range(0, 1)
          .cli("--duty-cycle"),
      field<mnp, &M::pre_wave_period>("mnp_pre_wave_period_us",
                                      "pre-wave duty-cycle period"),
      field<mnp, &M::nap_between_advertisements>(
          "mnp_nap_between_advertisements",
          "quiescent sources nap between advertisements"),
      field<mnp, &M::nap_threshold>("mnp_nap_threshold_us",
                                    "interval from which sources nap"),
      field<mnp, &M::post_adv_listen>("mnp_post_adv_listen_us",
                                      "listen window after an advertisement"),
      field<mnp, &M::sleep_multiplier>("mnp_sleep_multiplier",
                                       "sleep = this x segment transfer time"),
      field<mnp, &M::per_packet_time_estimate>(
          "mnp_per_packet_time_estimate_us", "per-packet service estimate"),
      field<mnp, &M::download_idle_timeout>("mnp_download_idle_timeout_us",
                                            "download stall timeout"),
      field<mnp, &M::forward_pump_interval>("mnp_forward_pump_interval_us",
                                            "forwarding pump period"),
      field<mnp, &M::request_delay_max>("mnp_request_delay_max_us",
                                        "request jitter window"),
      field<mnp, &M::query_update_enabled>("query_update",
                                           "query/update repair phase")
          .toggle("--no-query-update", "false"),
      field<mnp, &M::update_missing_threshold>(
          "mnp_update_missing_threshold",
          "most missing packets repaired by query/update"),
      field<mnp, &M::query_idle_timeout>("mnp_query_idle_timeout_us",
                                         "query phase idle timeout"),
      field<mnp, &M::update_idle_timeout>("mnp_update_idle_timeout_us",
                                          "update state idle timeout"),
      field<mnp, &M::battery_aware>("battery_aware",
                                    "scale advertisement power by battery")
          .toggle("--battery-aware", "true"),
      field<mnp, &M::target_program>("mnp_target_program",
                                     "only join this program id (0 = any)"),
      field<mnp, &M::estimate_neighborhood_completion>(
          "mnp_estimate_neighborhood_completion",
          "local neighborhood-completion estimate"),
      field<mnp, &M::journal_progress>(
          "mnp_journal_progress",
          "journal segments to EEPROM (forced on by scenarios)"),
      // --- Deluge -----------------------------------------------------------
      field<deluge, &D::packets_per_page>("deluge_packets_per_page",
                                          "packets per page"),
      field<deluge, &D::payload_bytes>("deluge_payload_bytes",
                                       "code bytes per data packet"),
      field<deluge, &D::tau_low>("deluge_tau_low_us", "Trickle interval min"),
      field<deluge, &D::tau_high>("deluge_tau_high_us", "Trickle interval max"),
      field<deluge, &D::suppression_k>("deluge_suppression_k",
                                       "summaries heard before suppression"),
      field<deluge, &D::request_delay_max>("deluge_request_delay_max_us",
                                           "request jitter window"),
      field<deluge, &D::max_request_rounds>("deluge_max_request_rounds",
                                            "request retries per page"),
      field<deluge, &D::rx_idle_timeout>("deluge_rx_idle_timeout_us",
                                         "receive stall timeout"),
      field<deluge, &D::tx_pump_interval>("deluge_tx_pump_interval_us",
                                          "transmit pump period"),
      field<deluge, &D::journal_progress>(
          "deluge_journal_progress",
          "journal pages to EEPROM (forced on by scenarios)"),
      // --- MOAP -------------------------------------------------------------
      field<moap, &O::payload_bytes>("moap_payload_bytes",
                                     "code bytes per data packet"),
      field<moap, &O::publish_interval_min>("moap_publish_interval_min_us",
                                            "publish interval, low end"),
      field<moap, &O::publish_interval_max>("moap_publish_interval_max_us",
                                            "publish interval, high end"),
      field<moap, &O::publish_interval_cap>("moap_publish_interval_cap_us",
                                            "backed-off publish interval cap"),
      field<moap, &O::publish_defer>("moap_publish_defer_us",
                                     "publish deferral while a stream is heard"),
      field<moap, &O::subscribe_window>("moap_subscribe_window_us",
                                        "subscription collection window"),
      field<moap, &O::pump_interval>("moap_pump_interval_us",
                                     "stream pump period"),
      field<moap, &O::nack_window>("moap_nack_window",
                                   "gap age (packets) that triggers a NACK"),
      field<moap, &O::nack_min_gap>("moap_nack_min_gap_us",
                                    "minimum spacing of NACKs"),
      field<moap, &O::rx_idle_timeout>("moap_rx_idle_timeout_us",
                                       "receive stall timeout"),
      field<moap, &O::repair_idle_timeout>("moap_repair_idle_timeout_us",
                                           "repair phase idle timeout"),
      field<moap, &O::journal_progress>(
          "moap_journal_progress",
          "journal prefix chunks to EEPROM (forced on by scenarios)"),
      // --- XNP --------------------------------------------------------------
      field<xnp, &X::payload_bytes>("xnp_payload_bytes",
                                    "code bytes per data packet"),
      field<xnp, &X::pump_interval>("xnp_pump_interval_us",
                                    "data pump period"),
      field<xnp, &X::query_gap>("xnp_query_gap_us",
                                "pause before the first query round"),
      field<xnp, &X::fix_request_window>("xnp_fix_request_window_us",
                                         "fix request spread window"),
      field<xnp, &X::quiet_rounds_to_stop>("xnp_quiet_rounds_to_stop",
                                           "silent query rounds that end it"),
      field<xnp, &X::max_query_rounds>("xnp_max_query_rounds",
                                       "query round limit"),
      field<xnp, &X::fix_requests_per_query>(
          "xnp_fix_requests_per_query",
          "missing packets claimed per query round"),
      // --- NCast ------------------------------------------------------------
      field<ncast, &N::generation_size>("ncast_generation_size",
                                        "source packets per generation"),
      field<ncast, &N::payload_bytes>("ncast_payload_bytes",
                                      "symbol bytes per coded packet"),
      field<ncast, &N::tau_low>("ncast_tau_low_us", "Trickle interval min"),
      field<ncast, &N::tau_high>("ncast_tau_high_us", "Trickle interval max"),
      field<ncast, &N::suppression_k>("ncast_suppression_k",
                                      "advertisements heard before suppression"),
      field<ncast, &N::request_delay_max>("ncast_request_delay_max_us",
                                          "request jitter window"),
      field<ncast, &N::max_request_rounds>("ncast_max_request_rounds",
                                           "request retries per generation"),
      field<ncast, &N::rx_idle_timeout>("ncast_rx_idle_timeout_us",
                                        "receive stall timeout"),
      field<ncast, &N::tx_pump_interval>("ncast_tx_pump_interval_us",
                                         "transmit pump period"),
      field<ncast, &N::tx_redundancy>("ncast_tx_redundancy",
                                      "coded packets beyond the rank deficit"),
      field<ncast, &N::journal_progress>(
          "ncast_journal_progress",
          "journal generations to EEPROM (forced on by scenarios)"),
  };
}

std::string joined_choices(const ConfigField& f) {
  std::string out;
  for (const std::string_view name : f.choices) {
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

std::string placeholder(const ConfigField& f) {
  switch (f.type) {
    case FieldType::kBool: return "true|false";
    case FieldType::kInt: return "N";
    case FieldType::kReal: return "X";
    case FieldType::kTime: return "US";
    case FieldType::kChoice: return joined_choices(f);
    case FieldType::kRealList: return "X,X,...";
  }
  return {};
}

std::string expected(const ConfigField& f) {
  switch (f.type) {
    case FieldType::kBool: return "true or false";
    case FieldType::kChoice: return "one of " + joined_choices(f);
    case FieldType::kRealList:
      return "comma-separated numbers in [" + real_text(f.min) + ", " +
             real_text(f.max) + "]";
    case FieldType::kInt:
    case FieldType::kTime:
      return "an integer in [" + real_text(f.min) + ", " + real_text(f.max) +
             "]";
    case FieldType::kReal:
      return "a number in [" + real_text(f.min) + ", " + real_text(f.max) +
             "]";
  }
  return {};
}

}  // namespace

const std::vector<ConfigField>& config_fields() {
  static const std::vector<ConfigField> kFields = build_fields();
  return kFields;
}

const ConfigField* find_config_field(std::string_view key) {
  for (const ConfigField& f : config_fields()) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

bool apply_config_option(ExperimentConfig& cfg, std::string_view key,
                         std::string_view value, std::string* error) {
  const ConfigField* f = find_config_field(key);
  if (f == nullptr || !f->input) {
    if (error != nullptr) *error = "unknown option '" + std::string(key) + "'";
    return false;
  }
  if (!f->assign(*f, cfg, value)) {
    if (error != nullptr) {
      *error = "option '" + std::string(key) + "': invalid value '" +
               std::string(value) + "' (expected " + expected(*f) + ")";
    }
    return false;
  }
  return true;
}

void write_config_fields(obs::JsonWriter& w, const ExperimentConfig& cfg) {
  for (const ConfigField& f : config_fields()) {
    if (!f.rendered()) continue;
    w.key(f.key);
    const std::string text = f.text(cfg);
    switch (f.type) {
      case FieldType::kBool: w.value(text == "true"); break;
      case FieldType::kChoice: w.value(std::string_view(text)); break;
      case FieldType::kInt:
      case FieldType::kTime:
      case FieldType::kReal: w.raw(text); break;
      case FieldType::kRealList: {
        w.begin_array();
        std::string_view rest = text;
        while (!rest.empty()) {
          const std::size_t comma = rest.find(',');
          w.raw(rest.substr(0, comma));
          if (comma == std::string_view::npos) break;
          rest.remove_prefix(comma + 1);
        }
        w.end_array();
        break;
      }
    }
  }
}

ConfigArg apply_config_arg(ExperimentConfig& cfg, int argc, char** argv,
                           int& i, std::vector<ConfigOption>* options,
                           std::string* error) {
  const std::string_view arg = argv[i];
  for (const ConfigField& f : config_fields()) {
    if (f.flag.empty() || arg != f.flag) continue;
    std::string_view value = f.flag_value;
    if (value.empty()) {
      if (i + 1 >= argc) {
        if (error != nullptr) *error = std::string(arg) + " requires a value";
        return ConfigArg::kInvalid;
      }
      value = argv[++i];
    }
    if (!apply_config_option(cfg, f.key, value, error)) {
      return ConfigArg::kInvalid;
    }
    if (options != nullptr) options->emplace_back(f.key, value);
    return ConfigArg::kApplied;
  }
  return ConfigArg::kNotConfig;
}

void write_config_usage(std::ostream& os) {
  const ExperimentConfig defaults;
  os << "config flags [default]:\n";
  for (const ConfigField& f : config_fields()) {
    if (f.flag.empty()) continue;
    std::string spelling(f.flag);
    if (f.flag_value.empty()) spelling.append(" ").append(placeholder(f));
    spelling.resize(std::max<std::size_t>(spelling.size(), 32), ' ');
    os << "  " << spelling << ' ' << f.help;
    if (!f.flag_value.empty()) os << " := " << f.flag_value;
    if (f.rendered()) os << " [" << f.text(defaults) << "]";
    os << '\n';
  }
}

bool parse_uint_text(std::string_view text, std::uint64_t* out) {
  std::uint64_t n = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), n);
  if (ec != std::errc() || !whole(text, end)) return false;
  *out = n;
  return true;
}

}  // namespace mnp::harness
