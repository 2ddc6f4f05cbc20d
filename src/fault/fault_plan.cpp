#include "fault/fault_plan.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pals {
namespace fault {
namespace {

struct KeyValue {
  std::string key;
  std::string value;
};

std::vector<KeyValue> parse_args(const std::string& entry,
                                 const std::string& args) {
  std::vector<KeyValue> out;
  for (const std::string& field : split(args, ',')) {
    const std::string_view kv = trim(field);
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    PALS_CHECK_MSG(eq != std::string_view::npos && eq > 0,
                   "fault spec '" << entry << "': expected key=value, got '"
                                  << kv << "'");
    out.push_back(KeyValue{std::string(trim(kv.substr(0, eq))),
                           std::string(trim(kv.substr(eq + 1)))});
  }
  PALS_CHECK_MSG(!out.empty(), "fault spec '" << entry << "' has no arguments");
  return out;
}

/// Duration with an optional unit suffix: "0.5", "0.5s" or "250ms".
double parse_seconds_value(const std::string& value) {
  std::string number = value;
  double scale = 1.0;
  if (number.size() > 2 && number.ends_with("ms")) {
    scale = 1e-3;
    number.resize(number.size() - 2);
  } else if (number.size() > 1 && number.back() == 's') {
    number.pop_back();
  }
  return parse_double(number) * scale;
}

/// Multiplier with an optional "x" suffix: "4" or "4x".
double parse_factor_value(const std::string& value) {
  std::string number = value;
  if (number.size() > 1 && number.back() == 'x') number.pop_back();
  return parse_double(number);
}

Rank parse_rank(const std::string& entry, const std::string& value) {
  if (value == "all") return -1;
  const long long r = parse_int(value);
  PALS_CHECK_MSG(r >= 0, "fault spec '" << entry << "': rank must be >= 0 or 'all'");
  return static_cast<Rank>(r);
}

FaultKind kind_by_name(const std::string& entry, const std::string& name) {
  if (name == "link_degrade") return FaultKind::kLinkDegrade;
  if (name == "node_slowdown") return FaultKind::kNodeSlowdown;
  if (name == "gear_stuck") return FaultKind::kGearStuck;
  if (name == "msg_delay_jitter") return FaultKind::kMsgDelayJitter;
  if (name == "scenario_flaky") return FaultKind::kScenarioFlaky;
  if (name == "scenario_crash") return FaultKind::kScenarioCrash;
  throw Error("fault spec '" + entry + "': unknown kind '" + name +
              "' (try link_degrade, node_slowdown, gear_stuck, "
              "msg_delay_jitter, scenario_flaky, scenario_crash)");
}

FaultSpec parse_spec(const std::string& entry) {
  const std::size_t colon = entry.find(':');
  PALS_CHECK_MSG(colon != std::string::npos && colon > 0,
                 "fault spec '" << entry << "': expected kind:key=value,...");
  FaultSpec spec;
  spec.kind = kind_by_name(entry, std::string(trim(entry.substr(0, colon))));

  for (const KeyValue& kv : parse_args(entry, entry.substr(colon + 1))) {
    const auto reject = [&] {
      throw Error("fault spec '" + entry + "': key '" + kv.key +
                  "' is not valid for " + to_string(spec.kind));
    };
    if (kv.key == "rank") {
      if (spec.kind == FaultKind::kScenarioFlaky ||
          spec.kind == FaultKind::kScenarioCrash)
        reject();
      spec.rank = parse_rank(entry, kv.value);
    } else if (kv.key == "t") {
      if (spec.kind != FaultKind::kLinkDegrade &&
          spec.kind != FaultKind::kNodeSlowdown)
        reject();
      spec.start = parse_seconds_value(kv.value);
    } else if (kv.key == "factor") {
      if (spec.kind != FaultKind::kLinkDegrade &&
          spec.kind != FaultKind::kNodeSlowdown)
        reject();
      spec.factor = parse_factor_value(kv.value);
    } else if (kv.key == "gear") {
      if (spec.kind != FaultKind::kGearStuck) reject();
      if (kv.value == "min")
        spec.gear = StuckGear::kMin;
      else if (kv.value == "max")
        spec.gear = StuckGear::kMax;
      else
        throw Error("fault spec '" + entry + "': gear must be min or max, got '" +
                    kv.value + "'");
    } else if (kv.key == "max") {
      if (spec.kind != FaultKind::kMsgDelayJitter) reject();
      spec.max_jitter = parse_seconds_value(kv.value);
    } else if (kv.key == "index") {
      if (spec.kind != FaultKind::kScenarioFlaky &&
          spec.kind != FaultKind::kScenarioCrash)
        reject();
      spec.index = parse_int(kv.value);
      PALS_CHECK_MSG(spec.index >= 0,
                     "fault spec '" << entry << "': index must be >= 0");
    } else if (kv.key == "rate") {
      if (spec.kind != FaultKind::kScenarioFlaky &&
          spec.kind != FaultKind::kScenarioCrash)
        reject();
      spec.rate = parse_double(kv.value);
    } else if (kv.key == "failures") {
      if (spec.kind != FaultKind::kScenarioFlaky) reject();
      spec.failures = static_cast<int>(parse_int(kv.value));
    } else {
      reject();
    }
  }
  return spec;
}

void validate_spec(const FaultSpec& spec) {
  const std::string what = spec.describe();
  switch (spec.kind) {
    case FaultKind::kLinkDegrade:
    case FaultKind::kNodeSlowdown:
      PALS_CHECK_MSG(spec.factor >= 1.0,
                     "fault '" << what << "': factor must be >= 1");
      PALS_CHECK_MSG(spec.start >= 0.0,
                     "fault '" << what << "': t must be >= 0");
      break;
    case FaultKind::kGearStuck:
      PALS_CHECK_MSG(spec.rank >= 0,
                     "fault '" << what << "': gear_stuck needs rank=<r>");
      break;
    case FaultKind::kMsgDelayJitter:
      PALS_CHECK_MSG(spec.max_jitter > 0.0,
                     "fault '" << what << "': max must be > 0");
      break;
    case FaultKind::kScenarioFlaky:
      PALS_CHECK_MSG(spec.failures > 0,
                     "fault '" << what << "': failures must be > 0");
      [[fallthrough]];
    case FaultKind::kScenarioCrash:
      PALS_CHECK_MSG(spec.index >= 0 || spec.rate > 0.0,
                     "fault '" << what
                               << "': needs index=<k> or rate=<fraction>");
      PALS_CHECK_MSG(spec.rate >= 0.0 && spec.rate <= 1.0,
                     "fault '" << what << "': rate must be in [0, 1]");
      break;
  }
}

}  // namespace

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDegrade: return "link_degrade";
    case FaultKind::kNodeSlowdown: return "node_slowdown";
    case FaultKind::kGearStuck: return "gear_stuck";
    case FaultKind::kMsgDelayJitter: return "msg_delay_jitter";
    case FaultKind::kScenarioFlaky: return "scenario_flaky";
    case FaultKind::kScenarioCrash: return "scenario_crash";
  }
  return "unknown";
}

std::string to_string(StuckGear gear) {
  return gear == StuckGear::kMin ? "min" : "max";
}

std::string FaultSpec::describe() const {
  std::string out = to_string(kind) + ":";
  const auto rank_field = [this] {
    return "rank=" + (rank < 0 ? std::string("all") : std::to_string(rank));
  };
  switch (kind) {
    case FaultKind::kLinkDegrade:
    case FaultKind::kNodeSlowdown:
      out += rank_field() + ",t=" + format_fixed(start, 6) +
             ",factor=" + format_fixed(factor, 6);
      break;
    case FaultKind::kGearStuck:
      out += rank_field() + ",gear=" + to_string(gear);
      break;
    case FaultKind::kMsgDelayJitter:
      out += rank_field() + ",max=" + format_fixed(max_jitter, 9);
      break;
    case FaultKind::kScenarioFlaky:
      out += (index >= 0 ? "index=" + std::to_string(index)
                         : "rate=" + format_fixed(rate, 6)) +
             ",failures=" + std::to_string(failures);
      break;
    case FaultKind::kScenarioCrash:
      out += index >= 0 ? "index=" + std::to_string(index)
                        : "rate=" + format_fixed(rate, 6);
      break;
  }
  return out;
}

bool FaultPlan::perturbs_scenarios() const {
  for (const FaultSpec& s : specs)
    if (s.kind == FaultKind::kScenarioFlaky ||
        s.kind == FaultKind::kScenarioCrash)
      return true;
  return false;
}

std::string FaultPlan::describe() const {
  std::string out = "seed=" + std::to_string(seed);
  for (const FaultSpec& s : specs) out += "; " + s.describe();
  return out;
}

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::string normalized = text;
  for (char& c : normalized)
    if (c == '\n' || c == '\r') c = ';';
  for (const std::string& raw : split(normalized, ';')) {
    std::string_view entry = trim(raw);
    const std::size_t hash = entry.find('#');
    if (hash != std::string_view::npos) entry = trim(entry.substr(0, hash));
    if (entry.empty()) continue;
    if (starts_with(entry, "seed=")) {
      const long long seed = parse_int(entry.substr(5));
      PALS_CHECK_MSG(seed >= 0, "fault plan seed must be >= 0, got " << seed);
      plan.seed = static_cast<std::uint64_t>(seed);
      continue;
    }
    plan.specs.push_back(parse_spec(std::string(entry)));
  }
  plan.validate();
  return plan;
}

FaultPlan FaultPlan::from_file(const std::string& path) {
  std::ifstream in(path);
  PALS_CHECK_MSG(in.good(), "cannot open fault plan '" << path << "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

FaultPlan FaultPlan::from_file_or_inline(const std::string& source) {
  if (std::ifstream probe(source); probe.good()) return from_file(source);
  return parse(source);
}

void FaultPlan::validate() const {
  for (const FaultSpec& s : specs) validate_spec(s);
}

}  // namespace fault
}  // namespace pals
