// pals::obs::bench — unified benchmark-run subsystem.
//
// Every benchmark in this repo used to roll its own timing loop and its
// own output format; nothing could compare two runs, and nothing failed
// when a PR regressed the hot path. This layer fixes the methodology
// once:
//
//  * A benchmark *case* is a callable run `warmup` times (discarded) and
//    then `repetitions` times, each repetition timed individually.
//    Per-metric statistics — median, MAD, p95, mean, min/max and the
//    coefficient of variation — summarize the noisy wall-clock side;
//    a CV above `unstable_cv` flags the metric (and its case) unstable.
//  * Alongside the noisy timings, every repetition snapshots the
//    *deterministic work counters* from an obs::Registry (simulation
//    metrics only — see obs::is_host_metric): simulated events, messages
//    matched, bytes read, queue peak, scenarios completed, ... The
//    registry is reset before each repetition, so the recorded values
//    are per-repetition and must be identical across repetitions — the
//    runner verifies this (`counters_deterministic`) and compare gates
//    on them byte-exactly, independent of machine speed.
//  * A Report serializes to a schema-versioned JSON document
//    (BENCH_suite.json) carrying the methodology, the environment
//    fingerprint (obs/envinfo.hpp) and the per-case results; the
//    deterministic section alone serializes via counters_json() for
//    byte-comparison in CI.
//  * compare_reports() gates a candidate report against a baseline:
//    hard (byte-exact) on counters, relative-threshold on timing
//    medians ("*_seconds" lower-better, "*_per_second" higher-better).
//
// The framework lives in pals_obs (it needs only util + the registry);
// the macro-benchmark suite that feeds it lives in tools/pals_bench.cpp.
// See docs/bench.md.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/envinfo.hpp"
#include "obs/metrics.hpp"

namespace pals {

struct JsonValue;  // util/json.hpp

namespace obs {
namespace bench {

/// Bumped whenever the report layout changes incompatibly; compare
/// refuses to gate across versions.
inline constexpr int kSchemaVersion = 1;

/// Measurement methodology, pinned into every report so a reader can
/// judge how trustworthy the numbers are.
struct Methodology {
  int warmup = 1;           ///< discarded repetitions before measurement
  int repetitions = 5;      ///< measured repetitions per case
  double unstable_cv = 0.10;  ///< CV above this flags a metric unstable

  bool operator==(const Methodology&) const = default;
};

/// One timing-style metric summarized over the repetitions. All raw
/// samples are kept (repetition order) so trajectories stay re-analyzable.
struct MetricStats {
  std::string name;  ///< "wall_seconds", "events_per_second", ...
  std::vector<double> samples;
  double median = 0.0;
  double mad = 0.0;  ///< median absolute deviation from the median
  double p95 = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double cv = 0.0;        ///< coefficient of variation (stddev / mean)
  bool unstable = false;  ///< cv > methodology.unstable_cv

  bool operator==(const MetricStats&) const = default;
};

/// Compute the full statistics block over `samples` (throws on empty).
MetricStats summarize_metric(std::string name, std::vector<double> samples,
                             double unstable_cv);

/// One deterministic work counter (registry counter delta or gauge value
/// over a repetition).
struct CounterValue {
  std::string name;
  std::int64_t value = 0;

  bool operator==(const CounterValue&) const = default;
};

/// One benchmark case's results.
struct CaseResult {
  std::string name;
  std::vector<MetricStats> timing;     ///< sorted by metric name
  std::vector<CounterValue> counters;  ///< sorted by name; the byte-exact
                                       ///< deterministic section
  /// False when the per-repetition counter snapshots disagreed — a
  /// determinism bug in the measured code path, reported hard by the
  /// driver.
  bool counters_deterministic = true;
  bool unstable = false;  ///< any timing metric unstable

  const MetricStats* find_timing(std::string_view metric) const;
  const CounterValue* find_counter(std::string_view counter) const;
};

/// A full suite run: methodology + environment + per-case results.
struct Report {
  int schema_version = kSchemaVersion;
  std::string suite;  ///< suite label; pals_bench writes "macro"
  Methodology methodology;
  EnvInfo env;
  std::uint64_t peak_rss_bytes = 0;  ///< getrusage high-water mark
  std::vector<CaseResult> cases;     ///< suite registration order

  const CaseResult* find(std::string_view case_name) const;
  bool counters_deterministic() const;

  /// The schema-versioned BENCH_suite.json document. Doubles are
  /// rendered with format_roundtrip, so from_json() recovers them
  /// bit-exactly.
  std::string to_json() const;
  /// Deterministic section only — schema, suite and per-case counters.
  /// Byte-identical across repeated runs and --jobs values whenever the
  /// measured code paths honour the obs determinism contract.
  std::string counters_json() const;
  /// One-line trajectory record for --history files: git SHA, suite and
  /// per-case wall_seconds medians. Newline-terminated.
  std::string history_line() const;
};

/// Parse a report (full or counters-only) back from its JSON document.
/// Throws pals::Error naming the offending key on structural problems —
/// pals_json_check --bench exposes this as a validator.
Report report_from_json(const JsonValue& document);
Report report_from_file(const std::string& path);

/// Per-repetition sample sink handed to case bodies: sample() records an
/// extra timing-style metric for this repetition (e.g. a derived
/// events_per_second). Every repetition must sample the same metric set.
class Sink {
 public:
  void sample(const std::string& metric, double value);

  const std::map<std::string, double>& samples() const { return samples_; }

 private:
  std::map<std::string, double> samples_;
};

/// One registered benchmark case. The body runs `warmup + repetitions`
/// times; the runner times it, snapshots the registry around it, and
/// collects Sink samples.
struct Case {
  std::string name;
  std::function<void(Sink&)> body;
};

struct RunOptions {
  Methodology methodology;
  /// Registry the measured code writes its work counters to; null means
  /// obs::default_registry(). The runner reset()s it before every
  /// repetition, so per-repetition values are absolute.
  Registry* registry = nullptr;
  /// Optional per-case progress callback ("case replay.throughput: ...").
  std::function<void(const std::string&)> log;
};

/// Run every case under the methodology and assemble the report
/// (environment fingerprint and peak RSS included). Throws pals::Error
/// on malformed suites (no cases, duplicate names, inconsistent Sink
/// metric sets across repetitions).
Report run_suite(const std::string& suite_name, const std::vector<Case>& cases,
                 const RunOptions& options = {});

struct CompareOptions {
  /// Allowed relative timing drift on medians: a "*_seconds" metric
  /// regresses when candidate > baseline * (1 + threshold); a
  /// "*_per_second" metric when candidate < baseline / (1 + threshold).
  /// 0.5 tolerates 50% noise but still catches a 2x regression.
  double timing_threshold = 0.5;
  /// Gate only the deterministic counter sections (CI mode: byte-exact,
  /// machine-independent).
  bool counters_only = false;
};

struct CompareFailure {
  std::string case_name;  ///< empty for report-level failures
  std::string what;
};

struct CompareResult {
  bool ok = true;
  std::vector<CompareFailure> failures;
  std::vector<std::string> notes;  ///< non-gating observations

  /// Human-readable multi-line verdict.
  std::string to_text() const;
};

/// Gate `candidate` against `baseline`: schema versions must match, the
/// case sets must agree, every shared counter must be byte-exact, and
/// (unless counters_only) timing medians must stay inside the threshold.
CompareResult compare_reports(const Report& baseline, const Report& candidate,
                              const CompareOptions& options = {});

}  // namespace bench
}  // namespace obs
}  // namespace pals
