// pals_bench — the continuous-benchmarking observatory driver.
//
// Runs the registered macro-benchmark suite under the pals::obs::bench
// methodology (docs/bench.md) and emits one schema-versioned report:
//
//   pals_bench --suite [--out BENCH_suite.json] [--counters-out FILE]
//              [--history FILE] [--warmup N] [--repetitions N] [--jobs N]
//              [--filter SUBSTRING] [--quiet]
//   pals_bench --compare BASELINE.json CANDIDATE.json
//              [--timing-threshold 0.5] [--counters-only]
//   pals_bench --list
//
// Suite cases cover the hot paths ROADMAP item 3 will optimize: replay
// throughput, the full DVFS pipeline, the parallel sweep engine, the
// sharded sweep + journal merge, the online-controller replay, the
// static bounds analyzer, trace binary and text I/O, the trace linter,
// the serve daemon's in-process query path, and the single layers
// frequency assignment, energy integration, trace generation and
// critical-path extraction. Every case carries deterministic work
// counters from obs::default_registry() alongside its wall-clock
// statistics; --compare gates byte-exactly on the former and with a
// relative threshold on the latter. Exit codes: 0 ok, 1 regression /
// counter drift / non-deterministic counters, 2 usage.
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/critical_path.hpp"
#include "analysis/experiments.hpp"
#include "analysis/sweep.hpp"
#include "core/algorithms.hpp"
#include "core/controllers.hpp"
#include "core/pipeline.hpp"
#include "lint/lint.hpp"
#include "obs/bench.hpp"
#include "obs/record.hpp"
#include "power/gearset.hpp"
#include "power/power_model.hpp"
#include "replay/replay.hpp"
#include "serve/cache.hpp"
#include "serve/query.hpp"
#include "shard/merge.hpp"
#include "trace/binary_io.hpp"
#include "trace/io.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/exit_codes.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace pals {
namespace {

namespace bench = obs::bench;

/// The registered macro suite. Traces are prebuilt into `cache` so case
/// bodies measure the subsystem under test, not workload generation, and
/// so the deterministic counters are identical from the first repetition
/// (workload generation records no obs metrics, but trace parsing would).
const Trace& suite_trace(TraceCache& cache, const std::string& spec) {
  const WorkloadRef ref = resolve_workload(spec, 10);
  return cache.get(ref.key, ref.build);
}

/// A baseline replay prebuilt before any case runs, so a case that
/// consumes it times only its own layer. The runner resets the registry
/// before every repetition, so the prebuild's replay counters never
/// reach a report.
std::shared_ptr<const ReplayResult> suite_replay(TraceCache& cache,
                                                 const std::string& spec) {
  return std::make_shared<const ReplayResult>(
      replay(suite_trace(cache, spec), ReplayConfig{}));
}

std::vector<bench::Case> build_suite(TraceCache& cache, int jobs) {
  std::vector<bench::Case> cases;

  // Raw DES throughput: one replay of the paper's CG-32 instance.
  cases.push_back({"replay.throughput", [&cache](bench::Sink& sink) {
    const Trace& trace = suite_trace(cache, "CG-32");
    const auto start = std::chrono::steady_clock::now();
    const ReplayResult result = replay(trace, ReplayConfig{});
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (seconds > 0.0)
      sink.sample("events_per_second",
                  static_cast<double>(result.simulated_events) / seconds);
  }});

  // The full power-analysis pipeline: baseline replay, assignment,
  // scale table, scaled replay, energy.
  cases.push_back({"pipeline.stages", [&cache](bench::Sink&) {
    const Trace& trace = suite_trace(cache, "CG-32");
    const PipelineConfig config = default_pipeline_config(paper_uniform(6));
    const PipelineResult result = run_pipeline(trace, config);
    if (result.scaled_time <= 0.0) throw Error("pipeline produced no result");
  }});

  // The parallel sweep engine over a small grid (2 workloads x 2 gear
  // sets); cells_per_second is the sweep-scaling headline number.
  cases.push_back({"sweep.cells", [&cache, jobs](bench::Sink& sink) {
    suite_trace(cache, "cg:16:0.9:4");  // pre-warm so rep 1 matches rep N
    suite_trace(cache, "mg:16:0.9:4");
    SweepGrid grid;
    grid.workloads = {"cg:16:0.9:4", "mg:16:0.9:4"};
    grid.gear_sets = {"uniform-6", "avg-discrete"};
    grid.iterations = 4;
    SweepOptions options;
    options.jobs = jobs;
    options.trace_cache = &cache;
    const SweepResult result = run_sweep(grid, options);
    if (result.stats.scenarios_per_second > 0.0)
      sink.sample("cells_per_second", result.stats.scenarios_per_second);
  }});

  // Sharded execution (docs/sharding.md): the same grid split across 3
  // in-process shard runs — each journaling its owned subset — plus the
  // shard-journal merge. merged_cells_per_second prices the sharding
  // overhead (partitioning, journal I/O, merge) against sweep.cells.
  cases.push_back({"sweep.sharded", [&cache](bench::Sink& sink) {
    suite_trace(cache, "cg:16:0.9:4");  // pre-warm so rep 1 matches rep N
    suite_trace(cache, "mg:16:0.9:4");
    SweepGrid grid;
    grid.workloads = {"cg:16:0.9:4", "mg:16:0.9:4"};
    grid.gear_sets = {"uniform-6", "avg-discrete"};
    grid.iterations = 4;
    const std::vector<Scenario> scenarios = grid.expand();
    // Unique per process and removed when the case ends, so concurrent
    // pals_bench runs never share it.
    struct RemovedOnExit {
      std::filesystem::path path;
      ~RemovedOnExit() {
        std::error_code ignored;
        std::filesystem::remove_all(path, ignored);
      }
    } const scratch{std::filesystem::temp_directory_path() /
                    ("pals_bench_sharded." + std::to_string(::getpid()))};
    const std::filesystem::path& dir = scratch.path;
    std::filesystem::remove_all(dir);
    constexpr std::size_t kShards = 3;
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::string> journals;
    SweepOptions options;
    options.jobs = 1;
    options.iterations = grid.iterations;
    options.trace_cache = &cache;
    options.shard_count = kShards;
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::filesystem::path shard_dir =
          dir / ("shard-" + std::to_string(s));
      std::filesystem::create_directories(shard_dir);
      options.shard_index = s;
      options.journal_path = (shard_dir / "journal.palsj").string();
      run_sweep(scenarios, options);
      journals.push_back(options.journal_path);
    }
    const shard::MergeReport merged =
        shard::merge_shard_journals(scenarios, options, journals);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (!merged.complete() || merged.rows.size() != scenarios.size())
      throw Error("sharded sweep merge came back incomplete");
    if (seconds > 0.0)
      sink.sample("merged_cells_per_second",
                  static_cast<double>(merged.rows.size()) / seconds);
  }});

  // Online-controller replay: the slack controller re-solving every
  // iteration of a drifting workload.
  cases.push_back({"controller.replay", [&cache](bench::Sink&) {
    const Trace& trace = suite_trace(cache, "amr-drift:16:0.9:8");
    PipelineConfig config = default_pipeline_config(paper_uniform(6));
    config.controller.kind = controller_by_name("slack");
    const PipelineResult result = run_pipeline(trace, config);
    if (result.scaled_time <= 0.0) throw Error("pipeline produced no result");
  }});

  // Static bounds analyzer (the sweep pruner's inner loop).
  cases.push_back({"bounds.analyze", [&cache](bench::Sink&) {
    const Trace& trace = suite_trace(cache, "CG-32");
    const PipelineConfig config = default_pipeline_config(paper_uniform(6));
    const bounds::ScenarioBounds result = bounds::analyze(trace, config);
    if (result.makespan.hi <= 0.0) throw Error("bounds produced no result");
  }});

  // Trace binary serialization round trip. The process-wide I/O stats
  // are reset first so the mirrored trace.io.* gauges are per-repetition.
  cases.push_back({"trace.binary_io", [&cache](bench::Sink&) {
    const Trace& trace = suite_trace(cache, "CG-32");
    reset_trace_io_stats();
    const std::vector<std::uint8_t> buffer = write_trace_binary(trace);
    const Trace restored = read_trace_binary(buffer);
    if (restored.total_events() != trace.total_events())
      throw Error("binary round trip lost events");
    obs::record_trace_io(obs::default_registry());
  }});

  // Static trace verification (all four lint passes, deadlock included).
  cases.push_back({"lint.trace", [&cache](bench::Sink&) {
    const Trace& trace = suite_trace(cache, "CG-32");
    const lint::LintReport report = lint::lint_trace(trace);
    if (report.has_errors()) throw Error("lint found errors in CG-32");
  }});

  // The serve daemon's query path (docs/serve.md), in process and without
  // the socket: a cold warm-cache fill (trace build + baseline replay)
  // plus four cache-hit queries. A fresh cache per repetition keeps the
  // deterministic replay counters identical from rep 1 to rep N; the
  // serve.* counters themselves are host metrics and excluded anyway.
  cases.push_back({"serve.query", [](bench::Sink& sink) {
    serve::WarmCache warm(0);
    serve::QueryEngineOptions options;
    options.default_iterations = 4;
    serve::QueryEngine engine(options, warm);
    const auto start = std::chrono::steady_clock::now();
    int queries = 0;
    for (const char* gear_set : {"uniform-6", "avg-discrete"}) {
      for (const double beta : {0.3, 0.5}) {
        serve::Request request;
        request.workload = "cg:16:0.9:4";
        request.gear_set = gear_set;
        request.beta = beta;
        const ExperimentRow row = engine.execute(request, 0.0);
        if (row.normalized_time <= 0.0)
          throw Error("serve query produced no result");
        ++queries;
      }
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (seconds > 0.0)
      sink.sample("queries_per_second", queries / seconds);
  }});

  // Frequency assignment alone, over 4096 random per-rank loads.
  cases.push_back({"assignment.4096", [](bench::Sink&) {
    Rng rng(42);
    std::vector<Seconds> times(4096);
    for (auto& t : times) t = rng.uniform(0.1, 1.0);
    AlgorithmConfig config;
    config.gear_set = paper_uniform(6);
    if (assign_frequencies(times, config).gears.empty())
      throw Error("empty assignment");
  }});

  // Energy integration alone, over a prebuilt WRF-128 replay.
  const auto wrf = suite_replay(cache, "WRF-128");
  cases.push_back({"energy.wrf128", [wrf](bench::Sink&) {
    const PowerModel model(PowerModelConfig{});
    const std::vector<Gear> gears(
        static_cast<std::size_t>(wrf->timeline.n_ranks()), Gear{2.3, 1.5});
    if (model.total_energy(wrf->timeline, gears) <= 0.0)
      throw Error("zero energy");
  }});

  // Workload generation alone: a fresh MG-64 trace every repetition.
  cases.push_back({"tracegen.mg64", [](bench::Sink&) {
    if (resolve_workload("MG-64", 10).build().total_events() == 0)
      throw Error("empty trace");
  }});

  // Trace text serialization round trip, mirrored like trace.binary_io.
  cases.push_back({"serialize.text", [&cache](bench::Sink&) {
    const Trace& trace = suite_trace(cache, "CG-32");
    reset_trace_io_stats();
    std::stringstream buffer;
    write_trace(trace, buffer);
    const Trace restored = read_trace(buffer);
    if (restored.total_events() != trace.total_events())
      throw Error("text round trip lost events");
    obs::record_trace_io(obs::default_registry());
  }});

  // Critical-path extraction alone, over a prebuilt PEPC-128 replay.
  const auto pepc = suite_replay(cache, "PEPC-128");
  cases.push_back({"critical_path.pepc128", [pepc](bench::Sink&) {
    if (critical_path(*pepc).segments.empty())
      throw Error("empty critical path");
  }});

  return cases;
}

std::vector<bench::Case> filter_cases(std::vector<bench::Case> cases,
                                      const std::string& needle) {
  if (needle.empty()) return cases;
  std::vector<bench::Case> kept;
  for (auto& c : cases)
    if (c.name.find(needle) != std::string::npos) kept.push_back(std::move(c));
  PALS_CHECK_MSG(!kept.empty(), "--filter '" << needle
                                             << "' matches no suite case");
  return kept;
}

void append_history(const std::string& path, const bench::Report& report) {
  DurableFile file = std::filesystem::exists(path)
                         ? DurableFile::open_append(path)
                         : DurableFile::create(path);
  file.append(report.history_line());
  file.sync();
}

int run_compare(const CliParser& cli) {
  const auto& paths = cli.positional();
  if (paths.size() != 2) {
    std::cerr << "error: --compare needs exactly two report paths "
                 "(baseline, candidate)\n";
    return exit_code(ToolExit::kUsage);
  }
  const bench::Report baseline = bench::report_from_file(paths[0]);
  const bench::Report candidate = bench::report_from_file(paths[1]);
  bench::CompareOptions options;
  options.timing_threshold = cli.get_double("timing-threshold", 0.5);
  options.counters_only = cli.get_flag("counters-only");
  const bench::CompareResult result =
      bench::compare_reports(baseline, candidate, options);
  std::cout << result.to_text();
  return result.ok ? exit_code(ToolExit::kOk) : exit_code(ToolExit::kError);
}

int run(int argc, char** argv) {
  CliParser cli;
  cli.add_flag("suite", "run the macro-benchmark suite");
  cli.add_flag("compare", "gate CANDIDATE.json against BASELINE.json");
  cli.add_flag("list", "list registered suite cases");
  cli.add_option("out", "full report path (--suite)", "BENCH_suite.json");
  cli.add_option("counters-out",
                 "also write the deterministic counters-only section here");
  cli.add_option("history", "append a one-line trajectory record here");
  cli.add_option("warmup", "discarded repetitions per case", "1");
  cli.add_option("repetitions", "measured repetitions per case", "5");
  cli.add_option("jobs", "worker threads for the sweep case", "1");
  cli.add_option("filter", "run only cases whose name contains this");
  cli.add_option("timing-threshold",
                 "allowed relative timing drift (--compare)", "0.5");
  cli.add_flag("counters-only", "gate only deterministic counters (--compare)");
  cli.add_flag("quiet", "suppress per-case progress output");
  cli.parse(argc, argv);

  TraceCache cache;
  if (cli.get_flag("list")) {
    for (const bench::Case& c : build_suite(cache, 1)) std::cout << c.name << '\n';
    return exit_code(ToolExit::kOk);
  }
  if (cli.get_flag("compare")) return run_compare(cli);
  if (!cli.get_flag("suite")) {
    std::cerr << cli.usage("pals_bench")
              << "one of --suite, --compare or --list is required\n";
    return exit_code(ToolExit::kUsage);
  }

  bench::RunOptions options;
  options.methodology.warmup = static_cast<int>(cli.get_int("warmup", 1));
  options.methodology.repetitions =
      static_cast<int>(cli.get_int("repetitions", 5));
  const bool quiet = cli.get_flag("quiet");
  if (!quiet)
    options.log = [](const std::string& line) {
      std::cerr << "pals_bench: " << line << '\n';
    };

  const int jobs = static_cast<int>(cli.get_int("jobs", 1));
  const std::vector<bench::Case> cases =
      filter_cases(build_suite(cache, jobs), cli.get_or("filter", ""));

  bench::Report report = bench::run_suite("macro", cases, options);

  atomic_write_file(cli.get("out"), report.to_json());
  if (cli.has("counters-out"))
    atomic_write_file(cli.get("counters-out"), report.counters_json());
  if (cli.has("history")) append_history(cli.get("history"), report);

  if (!quiet) {
    for (const bench::CaseResult& c : report.cases) {
      const bench::MetricStats* wall = c.find_timing("wall_seconds");
      std::cerr << "pals_bench: " << c.name << ": median "
                << format_fixed(wall->median * 1e3, 3) << " ms (CV "
                << format_fixed(wall->cv, 3) << (c.unstable ? ", UNSTABLE" : "")
                << "), " << c.counters.size() << " counter(s)"
                << (c.counters_deterministic ? "" : " NON-DETERMINISTIC")
                << '\n';
    }
    std::cerr << "pals_bench: peak rss "
              << report.peak_rss_bytes / (1024ull * 1024ull) << " MiB; report "
              << cli.get("out") << '\n';
  }

  if (!report.counters_deterministic()) {
    std::cerr << "pals_bench: FAIL: deterministic counters drifted across "
                 "repetitions\n";
    return exit_code(ToolExit::kError);
  }
  return exit_code(ToolExit::kOk);
}

}  // namespace
}  // namespace pals

int main(int argc, char** argv) {
  try {
    return pals::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return pals::exit_code(pals::ToolExit::kError);
  }
}
