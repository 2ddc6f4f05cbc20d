// pals_perfbench — one run of one benchmark workload.
//
//   pals_perfbench --workload=sweep-static|sweep-dynamic|serve-zipf
//                  --seed=N --seconds=S --trace=0|1 --work-dir=DIR
//
// --trace=0 measures the end-to-end metrics with nothing traced;
// --trace=1 composes every cell from public calls with one span per call
// and reports the per-layer metrics, the per-layer self times and the
// tracing overhead. Both check every row against its reference. Human-
// readable lines go to stdout first; the last line is one JSON report
// that perfbench/run.py turns into the benchmark result. README.md in
// this directory documents the workloads and metrics.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/journal.hpp"
#include "compose.hpp"
#include "loadgen.hpp"
#include "obs/envinfo.hpp"
#include "obs/record.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

constexpr double kMiB = 1024.0 * 1024.0;
/// serve-zipf: server workers and client connections.
constexpr int kServeWorkers = 2;
/// Offered rate of serve-zipf's fixed-rate phase (queries/s); about a
/// sixth of what the two workers complete back to back.
constexpr double kServeRate = 100.0;
/// serve-zipf rounds: seconds of open loop, then queries back to back.
constexpr double kChunkSeconds = 2.0;
constexpr std::size_t kClosedLoopQueries = 240;
/// serve-zipf's latency limit (ms) on the tail percentile; see README.md.
constexpr double kLatencyLimitMs = 20.0;
/// Queries per ramp step, and the ramp's resolution: adjacent rates at
/// its end are at most 4% apart.
constexpr std::size_t kStepQueries = 300;
constexpr double kRampResolution = 1.04;
/// Queries of the traced serve run composed in process per pass.
constexpr std::size_t kComposedQueries = 150;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (!pals::starts_with(arg, "--") || eq == std::string::npos)
      throw std::invalid_argument("bad argument '" + arg + "'");
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") args.workload = value;
    else if (key == "seed") args.seed = static_cast<std::uint64_t>(pals::parse_int(value));
    else if (key == "seconds") args.seconds = pals::parse_double(value);
    else if (key == "trace") args.trace = value == "1";
    else if (key == "work-dir") args.work_dir = value;
    else throw std::invalid_argument("unknown option --" + key);
  }
  if (args.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// Everything one run reports.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, value, unit);
    std::cout << "  " << name << " = " << pals::format_roundtrip(value) << " "
              << unit << "\n";
  }

  void attempt(std::uint64_t n) { attempted_ += n; }

  void fail(std::uint64_t n, const std::string& why) {
    if (n == 0) return;
    failed_ += n;
    if (failures_.size() < 20) failures_.push_back(why);
    std::cout << "FAILED (" << n << "): " << why << "\n";
  }

  /// An exact-repeat count: every record of `name` in a run must agree.
  void count(const std::string& name, std::uint64_t value) {
    const auto [it, inserted] = counts_.emplace(name, value);
    if (!inserted && it->second != value)
      fail(1, "count " + name + " drifted: " + std::to_string(it->second) +
                  " then " + std::to_string(value));
  }

  void note(const std::string& line) {
    notes_.push_back(line);
    std::cout << line << "\n";
  }

  std::string to_json(const Args& args) const {
    std::string out = "{\"workload\":\"" + pals::json_escape(args.workload) +
                      "\",\"seed\":" + std::to_string(args.seed) +
                      ",\"trace\":" + (args.trace ? "1" : "0") +
                      ",\"env\":" + pals::obs::collect_env_info().to_json() +
                      ",\"attempted\":" + std::to_string(attempted_) +
                      ",\"failed\":" + std::to_string(failed_) +
                      ",\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i)
      out += (i ? ",\"" : "\"") + pals::json_escape(failures_[i]) + "\"";
    out += "],\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, value, unit] = metrics_[i];
      out += (i ? ",\"" : "\"") + pals::json_escape(name) +
             "\":{\"value\":" + pals::format_roundtrip(value) +
             ",\"unit\":\"" + pals::json_escape(unit) + "\"}";
    }
    out += "},\"counts\":{";
    bool first = true;
    for (const auto& [name, value] : counts_) {
      out += (first ? "\"" : ",\"") + pals::json_escape(name) +
             "\":" + std::to_string(value);
      first = false;
    }
    out += "},\"notes\":[";
    for (std::size_t i = 0; i < notes_.size(); ++i)
      out += (i ? ",\"" : "\"") + pals::json_escape(notes_[i]) + "\"";
    out += "]}";
    return out;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::tuple<std::string, double, std::string>> metrics_;
  std::map<std::string, std::uint64_t> counts_;
  std::vector<std::string> notes_;
};

/// Rows of `got` that differ from `want` (a missing row differs).
std::size_t mismatches(const std::vector<std::string>& got,
                       const std::vector<std::string>& want) {
  std::size_t bad = got.size() > want.size() ? got.size() - want.size()
                                             : want.size() - got.size();
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
    if (got[i] != want[i]) ++bad;
  return bad;
}

void check_rows(Report& report, const std::vector<std::string>& got,
                const std::vector<std::string>& want, const std::string& what) {
  report.fail(mismatches(got, want), what + " rows differ from the reference");
}

void record_counts(Report& report, const Counts& c) {
  report.count("workloads.events", c.workload_events);
  report.count("replay.events", c.replay_events);
  report.count("core.controller_switches", c.controller_switches);
  report.count("analysis.journal_records", c.journal_records);
}

std::string percent(double share) { return pals::format_fixed(100.0 * share, 1) + "%"; }

// --- sweeps ----------------------------------------------------------------

SweepWorkload sweep_workload(const Args& args) {
  return args.workload == "sweep-static" ? sweep_static(args.seed)
                                         : sweep_dynamic(args.seed);
}

std::vector<std::string> distinct_workloads(const SweepWorkload& workload) {
  std::vector<std::string> specs;
  for (const pals::Scenario& s : workload.scenarios)
    if (std::find(specs.begin(), specs.end(), s.workload) == specs.end())
      specs.push_back(s.workload);
  return specs;
}

/// Set-up: generate the workload traces into a fresh shared TraceCache.
double build_trace_cache(const SweepWorkload& workload, pals::TraceCache& cache,
                         Report& report) {
  const auto start = Clock::now();
  std::uint64_t events = 0;
  for (const std::string& spec : distinct_workloads(workload)) {
    const pals::WorkloadRef ref = pals::resolve_workload(spec, workload.iterations);
    events += cache.get(ref.key, ref.build).total_events();
  }
  const double seconds = seconds_since(start);
  report.count("workloads.events", events);
  return seconds;
}

pals::SweepOptions sweep_options(const SweepWorkload& workload,
                                 pals::TraceCache* cache) {
  pals::SweepOptions options;
  options.iterations = workload.iterations;
  options.jobs = workload.jobs;
  options.trace_cache = cache;
  return options;
}

std::vector<std::string> render_rows(const pals::SweepResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const pals::ExperimentRow& row : result.rows)
    rows.push_back(pals::serve::csv_data_line(row));
  return rows;
}

/// One run_sweep call; checks its journal when the workload keeps one.
pals::SweepResult measured_sweep(const SweepWorkload& workload,
                                 pals::SweepOptions options,
                                 const std::string& journal_path,
                                 Report& report) {
  if (workload.journal) options.journal_path = journal_path;
  pals::SweepResult result = pals::run_sweep(workload.scenarios, options);
  report.attempt(workload.scenarios.size());
  report.fail(result.errors.size(), "quarantined sweep cells");
  if (workload.journal) {
    report.count("analysis.journal_records", result.stats.journal_records);
    const pals::JournalReadReport journal = pals::read_journal(journal_path);
    report.fail(journal.records.size() == workload.scenarios.size() ? 0 : 1,
                "journal does not hold one record per cell");
    std::filesystem::remove(journal_path);
  }
  return result;
}

void run_sweep_untraced(const Args& args, Report& report) {
  const SweepWorkload workload = sweep_workload(args);
  const std::string journal = args.work_dir + "/journal.palsj";
  std::vector<double> setup;
  std::vector<double> rates;
  std::vector<double> cell_seconds;
  std::vector<std::vector<std::string>> measured;
  // Host speed drifts over seconds, so every sample (set-up included) is
  // taken repeatedly across the whole run and reported as a median.
  const auto start = Clock::now();
  while (measured.size() < 3 || seconds_since(start) < args.seconds) {
    {
      static std::vector<std::uint32_t> next = [] {
        std::vector<std::uint32_t> order(1u << 21);
        std::iota(order.begin(), order.end(), 0u);
        std::mt19937 g(1);
        std::shuffle(order.begin() + 1, order.end(), g);
        std::vector<std::uint32_t> nx(order.size());
        for (std::size_t k = 0; k < order.size(); ++k) nx[order[k]] = order[(k + 1) % order.size()];
        return nx;
      }();
      static volatile std::uint64_t sink;
      auto s = Clock::now();
      std::uint32_t i = 0;
      for (int k = 0; k < 100000; ++k) i = next[i];
      const double chase = seconds_since(s);
      s = Clock::now();
      std::uint64_t acc = 0;
      for (int r = 0; r < 2; ++r) for (auto v : next) acc += v;
      const double stream = seconds_since(s);
      s = Clock::now();
      std::uint64_t x = i + acc;
      for (int k = 0; k < 3000000; ++k) x = (x * 6364136223846793005ULL + 1442695040888963407ULL) ^ (x >> 17);
      const double alu = seconds_since(s);
      sink = x;
      std::cout << "PROBE " << chase << " " << stream << " " << alu << "\n";
    }
    pals::TraceCache cache;
    setup.push_back(build_trace_cache(workload, cache, report));
    const pals::SweepResult result = measured_sweep(
        workload, sweep_options(workload, &cache), journal, report);
    rates.push_back(static_cast<double>(result.rows.size()) /
                    result.stats.wall_seconds);
    std::cout << "SWEEP " << rates.back() << " " << median(result.scenario_seconds) << "\n";
    cell_seconds.insert(cell_seconds.end(), result.scenario_seconds.begin(),
                        result.scenario_seconds.end());
    measured.push_back(render_rows(result));
  }
  const double peak_rss = static_cast<double>(pals::obs::peak_rss_bytes());

  Tracer off(false);
  const Pass reference =
      compose_sweep(workload, workload.journal ? journal : "", off, false);
  std::filesystem::remove(journal);
  record_counts(report, reference.counts);
  for (const auto& rows : measured) check_rows(report, rows, reference.rows, "run_sweep");

  const Tail cell_tail = tail(cell_seconds, workload.tail_percentile);
  report.note("sweep: " + std::to_string(workload.scenarios.size()) +
              " cells x " + std::to_string(measured.size()) + " runs at --jobs=" +
              std::to_string(workload.jobs) + "; cell latency over " +
              std::to_string(cell_tail.samples) + " cells, tail = " +
              cell_tail.label());
  // The host's neighbours slow some sweeps of every run by up to a third;
  // the fastest tenth is the program's own speed.
  report.metric("cells_per_s", percentile(rates, 90.0), "1/s");
  report.metric("query_p50_ms", 1000.0 * median(cell_seconds), "ms");
  report.metric("query_tail_ms", 1000.0 * cell_tail.value, "ms");
  report.metric("peak_rss_mib", peak_rss / kMiB, "MiB");
  report.metric("setup_s", median(setup), "s");
}

/// Every per-layer metric, in report order. A traced run reports all of
/// them; a layer the workload leaves idle reports 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"workloads.build_ms", "ms"},
      {"workloads.events", "count"},
      {"replay.baseline_ms", "ms"},
      {"replay.scaled_ms", "ms"},
      {"replay.events", "count"},
      {"replay.events_per_s", "1/s"},
      {"replay.queue_peak", "count"},
      {"replay.records", "count"},
      {"trace.rescale_ms", "ms"},
      {"trace.rescale_bytes", "B"},
      {"core.assign_ms", "ms"},
      {"core.pipeline_ms", "ms"},
      {"core.pipeline_glue_ms", "ms"},
      {"core.controller_ms", "ms"},
      {"core.controller_iterations", "count"},
      {"core.controller_switches", "count"},
      {"power.energy_ms", "ms"},
      {"analysis.bounds_ms", "ms"},
      {"analysis.render_ms", "ms"},
      {"analysis.journal_append_p50_ms", "ms"},
      {"analysis.journal_append_p99_ms", "ms"},
      {"analysis.journal_bytes", "B"},
      {"analysis.sweep_baselines_ms", "ms"},
      {"analysis.sweep_busy_ratio", "ratio"},
      {"serve.parse_ms", "ms"},
      {"serve.render_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_miss_ms", "ms"},
      {"serve.cache_evictions", "count"},
      {"serve.cache_entry_mib", "MiB"},
      {"serve.execute_ms", "ms"},
      {"serve.wait_ms", "ms"},
      {"serve.max_qps_at_slo", "1/s"},
      {"loadgen.lag_p99_ms", "ms"},
      {"self.bench_ms", "ms"},
      {"self.workloads_ms", "ms"},
      {"self.replay_ms", "ms"},
      {"self.trace_ms", "ms"},
      {"self.core_ms", "ms"},
      {"self.power_ms", "ms"},
      {"self.analysis_ms", "ms"},
      {"self.serve_ms", "ms"},
      {"tracing.overhead_pct", "%"},
  };
  return units;
}

void report_layer_metrics(Report& report,
                          const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : layer_metric_units()) {
    const auto it = values.find(name);
    report.metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

/// Append one traced pass's timings to `into`; counts are per pass.
void append(Pass& into, const Pass& pass) {
  into.call_seconds.insert(into.call_seconds.end(), pass.call_seconds.begin(),
                           pass.call_seconds.end());
  into.glue_seconds.insert(into.glue_seconds.end(), pass.glue_seconds.begin(),
                           pass.glue_seconds.end());
  into.counts = pass.counts;
}

/// The per-layer values every traced run has: span timings of `rounds`
/// traced passes over `units` cells or queries, the last pass's counts,
/// the per-layer self times and the tracing overhead.
std::map<std::string, double> layer_values(Report& report, const Tracer& traced,
                                           const Pass& composed, std::size_t units,
                                           std::size_t rounds,
                                           const std::vector<double>& traced_walls,
                                           const std::vector<double>& untraced_walls) {
  const Counts& counts = composed.counts;
  const double per_unit = 1000.0 / static_cast<double>(units * rounds);
  const auto mean_ms = [&](const char* name) {
    return 1000.0 * mean(traced.seconds_of(name));
  };
  const auto per_unit_ms = [&](const char* name) {
    return per_unit * sum(traced.seconds_of(name));
  };
  const auto count = [](std::uint64_t value) { return static_cast<double>(value); };
  std::map<std::string, double> v;
  v["workloads.build_ms"] = mean_ms("workloads.build");
  v["workloads.events"] = count(counts.workload_events);
  v["replay.baseline_ms"] = mean_ms("replay.baseline");
  v["replay.scaled_ms"] = mean_ms("replay.scaled");
  v["replay.events"] = count(counts.replay_events);
  // Events replayed inside run_controller_pipeline have no replay span.
  const double replay_seconds = sum(traced.seconds_of("replay.baseline")) +
                                sum(traced.seconds_of("replay.scaled"));
  if (replay_seconds > 0.0)
    v["replay.events_per_s"] =
        count(counts.replay_events - counts.controller_replay_events) *
        static_cast<double>(rounds) / replay_seconds;
  v["replay.queue_peak"] = count(counts.queue_peak);
  v["replay.records"] = count(counts.replay_records);
  v["trace.rescale_ms"] = mean_ms("trace.rescale");
  v["trace.rescale_bytes"] = count(counts.rescale_bytes);
  v["core.assign_ms"] = mean_ms("core.assign");
  v["core.pipeline_ms"] = 1000.0 * mean(composed.call_seconds);
  if (!composed.glue_seconds.empty())
    v["core.pipeline_glue_ms"] = 1000.0 * median(composed.glue_seconds);
  v["core.controller_ms"] = mean_ms("core.controller");
  v["core.controller_iterations"] = count(counts.controller_iterations);
  v["core.controller_switches"] = count(counts.controller_switches);
  v["power.energy_ms"] = per_unit_ms("power.energy");
  v["analysis.bounds_ms"] = per_unit_ms("analysis.bounds");
  v["analysis.render_ms"] = per_unit_ms("analysis.render");
  const std::vector<double> appends = traced.seconds_of("analysis.journal_append");
  if (!appends.empty()) {
    v["analysis.journal_append_p50_ms"] = 1000.0 * median(appends);
    v["analysis.journal_append_p99_ms"] = 1000.0 * tail(appends, 99.0).value;
  }
  v["analysis.journal_bytes"] = count(counts.journal_bytes);

  // The waterfall: self time per layer, per cell or query.
  const std::map<std::string, double> self = traced.self_seconds_by_layer();
  double total = 0.0;
  for (const auto& entry : self) total += entry.second;
  std::string largest;
  double largest_seconds = -1.0;
  for (const auto& [layer, seconds] : self) {
    v["self." + layer + "_ms"] = per_unit * seconds;
    report.note("  self time " + layer + ": " +
                pals::format_fixed(per_unit * seconds, 4) + " ms per unit, " +
                percent(total > 0.0 ? seconds / total : 0.0));
    if (seconds > largest_seconds) {
      largest = layer;
      largest_seconds = seconds;
    }
  }
  report.note("largest self time: " + largest);

  const double overhead = median(traced_walls) / median(untraced_walls) - 1.0;
  v["tracing.overhead_pct"] = 100.0 * overhead;
  report.note("tracing overhead " + percent(overhead) + ": traced pass " +
              pals::format_fixed(median(traced_walls), 3) + " s vs untraced " +
              pals::format_fixed(median(untraced_walls), 3) + " s (medians of " +
              std::to_string(rounds) + ")");
  return v;
}

void run_sweep_traced(const Args& args, Report& report) {
  const SweepWorkload workload = sweep_workload(args);
  pals::TraceCache cache;
  build_trace_cache(workload, cache, report);
  const std::string journal = args.work_dir + "/journal.palsj";
  const pals::SweepResult swept =
      measured_sweep(workload, sweep_options(workload, &cache), journal, report);
  const std::vector<std::string> sweep_rows = render_rows(swept);
  const double busy =
      sum(swept.scenario_seconds) / (workload.jobs * swept.stats.wall_seconds);

  Tracer traced(true);
  Tracer off(false);
  const std::string journal_path = workload.journal ? journal : "";
  std::vector<double> traced_walls, untraced_walls;
  Pass composed;
  std::size_t rounds = 0;
  const auto start = Clock::now();
  while (rounds == 0 || seconds_since(start) < args.seconds) {
    // Alternate which pass goes first, so neither always runs warm.
    Pass untraced;
    if (rounds % 2 == 1) untraced = compose_sweep(workload, journal_path, off, true);
    Pass pass = compose_sweep(workload, journal_path, traced, true);
    if (rounds % 2 == 0) untraced = compose_sweep(workload, journal_path, off, true);
    std::filesystem::remove(journal);
    report.attempt(workload.scenarios.size());
    check_rows(report, pass.rows, sweep_rows, "composed (traced) vs run_sweep");
    check_rows(report, untraced.rows, sweep_rows, "composed (untraced) vs run_sweep");
    report.fail(pass.pipeline_mismatches + untraced.pipeline_mismatches,
                "run_pipeline rows differ from the composed cells");
    record_counts(report, pass.counts);
    record_counts(report, untraced.counts);
    traced_walls.push_back(pass.wall_seconds);
    untraced_walls.push_back(untraced.wall_seconds);
    append(composed, pass);
    ++rounds;
  }

  const std::size_t cells = workload.scenarios.size();
  std::map<std::string, double> values = layer_values(
      report, traced, composed, cells, rounds, traced_walls, untraced_walls);
  // run_sweep's phase 1 is the baseline replays of each pass.
  values["analysis.sweep_baselines_ms"] =
      1000.0 * sum(traced.seconds_of("replay.baseline")) /
      static_cast<double>(rounds);
  values["analysis.sweep_busy_ratio"] = busy;
  report_layer_metrics(report, values);
  report.note("traced run: " + std::to_string(rounds) + " rounds of " +
              std::to_string(cells) + " composed cells, each followed by a "
              "timed run_pipeline call on the same inputs");
  report.note("run_controller_pipeline has no public seam inside it: each "
              "controller cell's pipeline is one core.controller span");
}

// --- serve -----------------------------------------------------------------

/// An in-process serve::Server on its own thread, ready on return.
class ServerHarness {
 public:
  explicit ServerHarness(pals::serve::ServerOptions options) {
    std::future<void> ready = ready_.get_future();
    options.on_ready = [this] { ready_.set_value(); };
    server_ = std::make_unique<pals::serve::Server>(std::move(options));
    thread_ = std::thread([this] {
      try {
        server_->run();
      } catch (...) {
        error_ = std::current_exception();
        try {
          ready_.set_exception(error_);
        } catch (const std::future_error&) {
          // Already ready: stop() rethrows error_ instead.
        }
      }
    });
    try {
      ready.get();
    } catch (...) {
      thread_.join();
      throw;
    }
  }

  ~ServerHarness() {
    if (thread_.joinable()) {
      server_->request_drain();
      thread_.join();
    }
  }

  ServerHarness(const ServerHarness&) = delete;
  ServerHarness& operator=(const ServerHarness&) = delete;

  /// Drain and join; rethrows a failure of the serving thread.
  void stop() {
    server_->request_drain();
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

  pals::serve::Server& server() { return *server_; }

 private:
  std::promise<void> ready_;
  std::unique_ptr<pals::serve::Server> server_;
  std::exception_ptr error_;
  std::thread thread_;
};

pals::serve::ServerOptions server_options(const ServeWorkload& workload,
                                          const std::string& socket_path) {
  pals::serve::ServerOptions options;
  options.socket_path = socket_path;
  options.jobs = kServeWorkers;
  options.cache_bytes = workload.cache_bytes;
  options.poll_seconds = 0.02;
  return options;
}

void ping(const std::string& socket_path) {
  pals::UnixStream stream = pals::UnixStream::connect(socket_path);
  std::string line;
  if (!stream.write_all("{\"schema\":\"pals-serve-v1\",\"kind\":\"ping\"}\n") ||
      stream.read_line(line, 4096, 10.0) != pals::ReadLineStatus::kLine ||
      !pals::serve::parse_response(line).has_pong)
    throw std::runtime_error("server did not answer ping");
}

/// Set-up: seconds from starting a server until it answers a ping.
double serve_setup(const ServeWorkload& workload, const std::string& socket) {
  const auto start = Clock::now();
  ServerHarness harness(server_options(workload, socket));
  ping(socket);
  const double seconds = seconds_since(start);
  harness.stop();
  return seconds;
}

struct Phase {
  std::vector<Query> queries;
  std::vector<Outcome> outcomes;
};

Phase run_phase(const ServeWorkload& workload, const std::string& socket,
                double rate, double seconds, std::uint64_t phase_id) {
  Phase phase;
  phase.queries = workload.stream(rate, seconds, phase_id);
  phase.outcomes = run_open_loop(socket, phase.queries, kServeWorkers);
  return phase;
}

/// Latencies (seconds) of a phase; failures count as missing any limit.
std::vector<double> latencies(const Phase& phase) {
  std::vector<double> out;
  for (const Outcome& o : phase.outcomes)
    out.push_back(o.ok ? o.latency() : std::numeric_limits<double>::infinity());
  return out;
}

/// Does the phase meet the latency limit without a growing backlog?
bool meets_slo(const Phase& phase, double tail_percentile) {
  const std::vector<double> all = latencies(phase);
  if (all.empty()) return true;
  if (tail(all, tail_percentile).value * 1000.0 > kLatencyLimitMs) return false;
  // A growing backlog shows in the last quarter of the step.
  const std::vector<double> last(all.end() - static_cast<std::ptrdiff_t>(
                                                 std::max<std::size_t>(1, all.size() / 4)),
                                 all.end());
  return median(last) * 1000.0 <= kLatencyLimitMs;
}

/// Compare every served row with the composed cell it asked for.
void check_served(Report& report, const std::vector<const Phase*>& phases) {
  std::map<std::string, std::string> cells;  // cell -> request line
  for (const Phase* phase : phases)
    for (const Query& q : phase->queries) cells.emplace(q.cell, q.line);
  std::vector<std::string> lines;
  for (const auto& [cell, line] : cells) lines.push_back(line);
  Tracer off(false);
  const Pass reference = compose_serve(lines, 0, off, false);
  std::map<std::string, std::string> want;
  std::size_t i = 0;
  for (const auto& entry : cells) want[entry.first] = reference.rows[i++];
  for (const Phase* phase : phases) {
    std::size_t failed = 0, wrong = 0;
    std::string first_error;
    for (std::size_t k = 0; k < phase->queries.size(); ++k) {
      const Outcome& o = phase->outcomes[k];
      if (!o.ok) {
        ++failed;
        if (first_error.empty()) first_error = o.error;
      } else if (o.csv != want.at(phase->queries[k].cell)) {
        ++wrong;
      }
    }
    report.attempt(phase->queries.size());
    report.fail(failed, "failed queries: " + first_error);
    report.fail(wrong, "served rows differ from the composed cell");
  }
}

/// The highest offered rate that meets the limit. The rate doubles from
/// twice kServeRate until a step fails, then bisects (geometrically)
/// between the last passing and the first failing rate until they are at
/// most kRampResolution apart. Returns 0 if even kServeRate / 4 misses the
/// limit; stops refining once `budget_seconds` are spent.
double ramp(const ServeWorkload& workload, const std::string& socket,
            double budget_seconds, std::vector<std::unique_ptr<Phase>>& phases) {
  const auto start = Clock::now();
  std::uint64_t phase_id = 1u << 20;
  const auto step = [&](double rate) {
    phases.push_back(std::make_unique<Phase>(run_phase(
        workload, socket, rate, static_cast<double>(kStepQueries) / rate,
        phase_id++)));
    return meets_slo(*phases.back(), workload.tail_percentile);
  };
  double pass = 0.0;
  double fail = 0.0;
  for (double rate = 2.0 * kServeRate; fail == 0.0;) {
    if (step(rate)) {
      pass = rate;
      rate *= 2.0;
    } else if (pass > 0.0) {
      fail = rate;
    } else if (rate > kServeRate / 4.0) {
      rate /= 2.0;
    } else {
      return 0.0;
    }
  }
  while (fail / pass > kRampResolution &&
         seconds_since(start) < budget_seconds) {
    const double rate = std::sqrt(pass * fail);
    (step(rate) ? pass : fail) = rate;
  }
  return pass;
}

/// Queries sent back to back (each connection sends its next query when
/// the previous answer arrives): the server's completion rate when kept busy.
Phase run_closed_loop(const ServeWorkload& workload, const std::string& socket,
                      std::uint64_t phase_id) {
  Phase phase;
  phase.queries = workload.stream(1000.0, 0.5, phase_id);
  phase.queries.resize(std::min(phase.queries.size(), kClosedLoopQueries));
  for (Query& q : phase.queries) q.due_seconds = 0.0;
  phase.outcomes = run_open_loop(socket, phase.queries, kServeWorkers);
  return phase;
}

void run_serve_untraced(const Args& args, Report& report) {
  const ServeWorkload workload = serve_zipf(args.seed);
  const std::string socket = args.work_dir + "/serve.sock";
  const std::string setup_socket = args.work_dir + "/setup.sock";

  // Rounds of a fixed-rate chunk and a closed-loop chunk against one
  // server, repeated across the run (host speed drifts over seconds).
  // Round 0 fills the cache and is checked but not measured.
  ServerHarness harness(server_options(workload, socket));
  std::vector<std::unique_ptr<Phase>> phases;
  std::vector<double> setup, latency, rates;
  const auto start = Clock::now();
  for (std::uint64_t round = 0; round < 3 || seconds_since(start) < args.seconds;
       ++round) {
    for (int k = 0; k < 3; ++k) setup.push_back(serve_setup(workload, setup_socket));
    phases.push_back(std::make_unique<Phase>(
        run_phase(workload, socket, kServeRate, kChunkSeconds, 2 * round)));
    const Phase& fixed = *phases.back();
    phases.push_back(std::make_unique<Phase>(
        run_closed_loop(workload, socket, 2 * round + 1)));
    const Phase& closed = *phases.back();
    if (round == 0) continue;
    const std::vector<double> chunk = latencies(fixed);
    latency.insert(latency.end(), chunk.begin(), chunk.end());
    double wall = 0.0;
    for (const Outcome& o : closed.outcomes) wall = std::max(wall, o.done);
    rates.push_back(static_cast<double>(closed.queries.size()) / wall);
  }
  harness.stop();
  const double peak_rss = static_cast<double>(pals::obs::peak_rss_bytes());

  std::vector<const Phase*> checked;
  for (const auto& phase : phases) checked.push_back(phase.get());
  check_served(report, checked);

  const Tail query_tail = tail(latency, workload.tail_percentile);
  report.note("serve-zipf: " + std::to_string(phases.size() / 2) +
              " rounds of an open loop at " + pals::format_fixed(kServeRate, 0) +
              " queries/s for " + pals::format_fixed(kChunkSeconds, 0) +
              " s and " + std::to_string(kClosedLoopQueries) +
              " queries back to back, over " + std::to_string(kServeWorkers) +
              " connections; latency from due time over " +
              std::to_string(query_tail.samples) + " queries, tail = " +
              query_tail.label());
  report.metric("cells_per_s", median(rates), "1/s");
  report.metric("query_p50_ms", 1000.0 * median(latency), "ms");
  report.metric("query_tail_ms", 1000.0 * query_tail.value, "ms");
  report.metric("peak_rss_mib", peak_rss / kMiB, "MiB");
  report.metric("setup_s", median(setup), "s");
}

void run_serve_traced(const Args& args, Report& report) {
  const ServeWorkload workload = serve_zipf(args.seed);
  const std::string socket = args.work_dir + "/serve.sock";

  // Served over the socket: queue wait, cache behaviour under load and
  // the generator's own lateness.
  ServerHarness harness(server_options(workload, socket));
  const double socket_seconds = 0.3 * args.seconds;
  const Phase fixed = run_phase(workload, socket, kServeRate, socket_seconds, 1);
  const pals::serve::WarmCacheStats cache = harness.server().cache().stats();
  std::vector<std::unique_ptr<Phase>> steps;
  const double max_qps = ramp(workload, socket, 0.5 * args.seconds, steps);
  harness.stop();
  std::vector<const Phase*> checked = {&fixed};
  for (const auto& step : steps) checked.push_back(step.get());
  check_served(report, checked);
  report.note("ramp: " + std::to_string(steps.size()) + " steps of " +
              std::to_string(kStepQueries) + " queries, " +
              tail(latencies(*steps.back()), workload.tail_percentile).label() +
              " limit " + pals::format_fixed(kLatencyLimitMs, 0) +
              " ms: max_qps_at_slo = " + pals::format_fixed(max_qps, 1) +
              " queries/s");
  std::vector<double> execute_ms, wait_ms, lag_ms;
  for (const Outcome& o : fixed.outcomes) {
    lag_ms.push_back(1000.0 * o.lag);
    if (!o.ok) continue;
    execute_ms.push_back(o.elapsed_ms);
    wait_ms.push_back(1000.0 * o.latency() - o.elapsed_ms);
  }

  // In process: the same queries composed call by call, serially, against
  // a WarmCache of the same budget.
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < std::min(fixed.queries.size(), kComposedQueries); ++i)
    lines.push_back(fixed.queries[i].line);
  Tracer traced(true);
  Tracer off(false);
  std::vector<double> traced_walls, untraced_walls;
  Pass composed;
  std::size_t rounds = 0;
  const auto start = Clock::now();
  while (rounds == 0 || seconds_since(start) < 0.7 * args.seconds) {
    const Pass reference = reference_serve(lines, workload.cache_bytes);
    Pass untraced;
    if (rounds % 2 == 1) untraced = compose_serve(lines, workload.cache_bytes, off, true);
    Pass pass = compose_serve(lines, workload.cache_bytes, traced, true);
    if (rounds % 2 == 0) untraced = compose_serve(lines, workload.cache_bytes, off, true);
    report.attempt(lines.size());
    check_rows(report, pass.rows, reference.rows, "composed (traced) vs QueryEngine::execute");
    check_rows(report, untraced.rows, reference.rows, "composed (untraced) vs QueryEngine::execute");
    report.fail(pass.pipeline_mismatches + untraced.pipeline_mismatches,
                "run_pipeline rows differ from the composed queries");
    record_counts(report, pass.counts);
    report.count("serve.cache_misses", pass.counts.cache_misses);
    traced_walls.push_back(pass.wall_seconds);
    untraced_walls.push_back(untraced.wall_seconds);
    append(composed, pass);
    ++rounds;
  }

  std::map<std::string, double> values = layer_values(
      report, traced, composed, lines.size(), rounds, traced_walls, untraced_walls);
  const Counts& counts = composed.counts;
  values["serve.parse_ms"] = 1000.0 * mean(traced.seconds_of("serve.parse"));
  values["serve.render_ms"] = 1000.0 * mean(traced.seconds_of("serve.render"));
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  if (lookups > 0.0)
    values["serve.cache_hit_ratio"] = static_cast<double>(cache.hits) / lookups;
  values["serve.cache_miss_ms"] = 1000.0 * mean(traced.seconds_of("serve.cache_build"));
  values["serve.cache_evictions"] = static_cast<double>(cache.evictions);
  if (counts.cache_misses > 0)
    values["serve.cache_entry_mib"] = static_cast<double>(counts.cache_entry_bytes) /
                                      static_cast<double>(counts.cache_misses) / kMiB;
  if (!execute_ms.empty()) {
    values["serve.execute_ms"] = median(execute_ms);
    values["serve.wait_ms"] = median(wait_ms);
  }
  values["loadgen.lag_p99_ms"] = tail(lag_ms, 99.0).value;
  values["serve.max_qps_at_slo"] = max_qps;
  report_layer_metrics(report, values);
  report.note("traced run: socket phase of " + std::to_string(fixed.queries.size()) +
              " queries at " + pals::format_fixed(kServeRate, 0) +
              " queries/s (server cache hits " + std::to_string(cache.hits) +
              ", misses " + std::to_string(cache.misses) + ", evictions " +
              std::to_string(cache.evictions) + "), then " +
              std::to_string(rounds) + " rounds of its first " +
              std::to_string(lines.size()) +
              " queries composed in process, each followed by a timed "
              "run_pipeline call");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pals_perfbench: " << e.what() << "\n";
    return 2;
  }
  Report report;
  try {
    std::filesystem::create_directories(args.work_dir);
    std::cout << "pals_perfbench " << args.workload << " seed=" << args.seed
              << " trace=" << (args.trace ? 1 : 0) << "\n"
              << "env " << pals::obs::collect_env_info().to_json() << "\n";
    if (args.workload == "sweep-static" || args.workload == "sweep-dynamic") {
      args.trace ? run_sweep_traced(args, report) : run_sweep_untraced(args, report);
    } else if (args.workload == "serve-zipf") {
      args.trace ? run_serve_traced(args, report) : run_serve_untraced(args, report);
    } else {
      std::cerr << "pals_perfbench: unknown workload '" << args.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "pals_perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cout << report.to_json(args) << std::endl;
  return 0;
}
