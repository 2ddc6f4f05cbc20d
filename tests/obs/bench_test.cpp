// The unified benchmark-run subsystem (obs/bench.hpp): methodology
// statistics, deterministic-counter capture, JSON round trip, compare
// gating, and the pals_bench binary end to end.
#include "obs/bench.hpp"

#include <gtest/gtest.h>
#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/record.hpp"
#include "scratch_dir.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

namespace pals {
namespace obs {
namespace bench {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// Statistics

TEST(BenchStats, SummarizeMetricMatchesHandComputedValues) {
  const MetricStats s =
      summarize_metric("wall_seconds", {4.0, 1.0, 2.0, 3.0, 100.0}, 0.10);
  EXPECT_EQ(s.name, "wall_seconds");
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
  // Deviations from the median 3: {1, 2, 1, 0, 97} -> median 1.
  EXPECT_DOUBLE_EQ(s.mad, 1.0);
  EXPECT_GT(s.p95, 4.0);   // interpolates toward the outlier
  EXPECT_TRUE(s.unstable);  // CV far above 0.10
  EXPECT_EQ(s.samples.size(), 5u);
}

TEST(BenchStats, StableRunIsNotFlagged) {
  const MetricStats s = summarize_metric("wall_seconds", {1.0, 1.0, 1.0}, 0.10);
  EXPECT_DOUBLE_EQ(s.cv, 0.0);
  EXPECT_FALSE(s.unstable);
  EXPECT_DOUBLE_EQ(s.mad, 0.0);
}

TEST(BenchStats, EmptySamplesThrow) {
  EXPECT_THROW(summarize_metric("x", {}, 0.1), Error);
}

// ---------------------------------------------------------------------------
// Runner

/// A deterministic two-case suite against a scoped registry.
Report run_test_suite(Registry& registry, int repetitions = 3) {
  std::vector<Case> cases;
  cases.push_back({"unit.alpha", [&registry](Sink& sink) {
    registry.counter("unit.events").add(42);
    registry.gauge("unit.queue_peak").update_max(7);
    sink.sample("events_per_second", 1000.0);
  }});
  cases.push_back({"unit.beta", [&registry](Sink&) {
    registry.counter("unit.events").add(5);
  }});
  RunOptions options;
  options.registry = &registry;
  options.methodology.repetitions = repetitions;
  options.methodology.warmup = 1;
  return run_suite("unit", cases, options);
}

TEST(BenchRunner, RecordsAbsolutePerRepetitionCounters) {
  Registry registry;
  const Report report = run_test_suite(registry);
  ASSERT_EQ(report.cases.size(), 2u);
  EXPECT_EQ(report.suite, "unit");
  EXPECT_EQ(report.schema_version, kSchemaVersion);

  const CaseResult* alpha = report.find("unit.alpha");
  ASSERT_NE(alpha, nullptr);
  // The registry is reset before every repetition, so the counter holds
  // one repetition's work, not warmup + N accumulations.
  const CounterValue* events = alpha->find_counter("unit.events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->value, 42);
  const CounterValue* peak = alpha->find_counter("unit.queue_peak");
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(peak->value, 7);
  EXPECT_TRUE(alpha->counters_deterministic);
  EXPECT_TRUE(report.counters_deterministic());

  // Runner-measured wall_seconds plus the sink metric, each with one
  // sample per repetition.
  ASSERT_NE(alpha->find_timing("wall_seconds"), nullptr);
  const MetricStats* rate = alpha->find_timing("events_per_second");
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(rate->samples.size(), 3u);
  EXPECT_DOUBLE_EQ(rate->median, 1000.0);

  const CaseResult* beta = report.find("unit.beta");
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(beta->find_counter("unit.events")->value, 5);
  EXPECT_EQ(beta->find_timing("events_per_second"), nullptr);
}

TEST(BenchRunner, HostMetricsAreExcludedFromCounters) {
  Registry registry;
  std::vector<Case> cases;
  cases.push_back({"unit.host", [&registry](Sink&) {
    registry.counter("unit.events").add(1);
    record_peak_rss(registry);  // host.peak_rss_bytes gauge
  }});
  RunOptions options;
  options.registry = &registry;
  const Report report = run_suite("unit", cases, options);
  const CaseResult* c = report.find("unit.host");
  ASSERT_NE(c, nullptr);
  EXPECT_NE(c->find_counter("unit.events"), nullptr);
  EXPECT_EQ(c->find_counter("host.peak_rss_bytes"), nullptr);
  EXPECT_TRUE(c->counters_deterministic);
}

TEST(BenchRunner, FlagsNonDeterministicCounters) {
  Registry registry;
  int calls = 0;
  std::vector<Case> cases;
  cases.push_back({"unit.drift", [&registry, &calls](Sink&) {
    registry.counter("unit.events").add(static_cast<std::uint64_t>(++calls));
  }});
  RunOptions options;
  options.registry = &registry;
  options.methodology.warmup = 0;
  options.methodology.repetitions = 3;
  const Report report = run_suite("unit", cases, options);
  EXPECT_FALSE(report.cases.front().counters_deterministic);
  EXPECT_FALSE(report.counters_deterministic());
}

TEST(BenchRunner, InconsistentSinkMetricSetThrows) {
  Registry registry;
  int calls = 0;
  std::vector<Case> cases;
  cases.push_back({"unit.flaky_sink", [&calls](Sink& sink) {
    if (++calls == 1) sink.sample("events_per_second", 1.0);
  }});
  RunOptions options;
  options.registry = &registry;
  options.methodology.warmup = 0;
  options.methodology.repetitions = 2;
  EXPECT_THROW(run_suite("unit", cases, options), Error);
}

TEST(BenchRunner, DuplicateCaseNamesThrow) {
  Registry registry;
  std::vector<Case> cases;
  cases.push_back({"unit.same", [](Sink&) {}});
  cases.push_back({"unit.same", [](Sink&) {}});
  RunOptions options;
  options.registry = &registry;
  EXPECT_THROW(run_suite("unit", cases, options), Error);
}

TEST(BenchRunner, SinkRejectsWallSecondsAndDuplicates) {
  Sink sink;
  EXPECT_THROW(sink.sample("wall_seconds", 1.0), Error);
  sink.sample("events_per_second", 1.0);
  EXPECT_THROW(sink.sample("events_per_second", 2.0), Error);
}

// ---------------------------------------------------------------------------
// Schema round trip and byte stability

TEST(BenchSchema, JsonRoundTripIsExact) {
  Registry registry;
  const Report report = run_test_suite(registry);
  const Report back = report_from_json(json_parse(report.to_json()));

  EXPECT_EQ(back.schema_version, report.schema_version);
  EXPECT_EQ(back.suite, report.suite);
  EXPECT_EQ(back.methodology, report.methodology);
  EXPECT_EQ(back.env, report.env);
  EXPECT_EQ(back.peak_rss_bytes, report.peak_rss_bytes);
  ASSERT_EQ(back.cases.size(), report.cases.size());
  for (std::size_t i = 0; i < report.cases.size(); ++i) {
    EXPECT_EQ(back.cases[i].name, report.cases[i].name);
    // format_roundtrip rendering makes the doubles bit-exact, so the
    // default operator== on the stats blocks must hold.
    EXPECT_EQ(back.cases[i].timing, report.cases[i].timing);
    EXPECT_EQ(back.cases[i].counters, report.cases[i].counters);
    EXPECT_EQ(back.cases[i].counters_deterministic,
              report.cases[i].counters_deterministic);
    EXPECT_EQ(back.cases[i].unstable, report.cases[i].unstable);
  }
  // And the re-serialization is byte-identical.
  EXPECT_EQ(back.to_json(), report.to_json());
}

TEST(BenchSchema, CountersJsonRoundTripsAndIsByteIdenticalAcrossRuns) {
  Registry registry;
  const Report first = run_test_suite(registry);
  const Report second = run_test_suite(registry);
  // Back-to-back runs: noisy timings differ, the deterministic section
  // must not.
  EXPECT_EQ(first.counters_json(), second.counters_json());

  const Report counters = report_from_json(json_parse(first.counters_json()));
  EXPECT_EQ(counters.suite, "unit");
  ASSERT_EQ(counters.cases.size(), 2u);
  EXPECT_EQ(counters.cases[0].counters, first.cases[0].counters);
  EXPECT_TRUE(counters.cases[0].timing.empty());
}

TEST(BenchSchema, MalformedDocumentsNameTheOffendingKey) {
  EXPECT_THROW(report_from_json(json_parse("[]")), Error);
  EXPECT_THROW(report_from_json(json_parse("{\"schema\":\"nope\"}")), Error);
  try {
    report_from_json(json_parse(
        "{\"schema\":\"pals-bench-counters\",\"schema_version\":1}"));
    FAIL() << "expected a structural error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("suite"), std::string::npos);
  }
}

TEST(BenchSchema, HistoryLineCarriesShaSuiteAndMedians) {
  Registry registry;
  const Report report = run_test_suite(registry);
  const std::string line = report.history_line();
  EXPECT_EQ(line.back(), '\n');
  const JsonValue parsed = json_parse(line);
  EXPECT_EQ(parsed.find("schema")->string, "pals-bench-history");
  EXPECT_EQ(parsed.find("git_sha")->string, report.env.git_sha);
  const JsonValue* cases = parsed.find("cases");
  ASSERT_NE(cases, nullptr);
  ASSERT_NE(cases->find("unit.alpha"), nullptr);
  EXPECT_GE(cases->find("unit.alpha")->find("wall_seconds_median")->number,
            0.0);
}

// ---------------------------------------------------------------------------
// Compare gating

TEST(BenchCompare, IdenticalReportsPass) {
  Registry registry;
  const Report report = run_test_suite(registry);
  const CompareResult result = compare_reports(report, report);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.failures.empty());
}

TEST(BenchCompare, DetectsInjectedTimingRegression) {
  Registry registry;
  const Report baseline = run_test_suite(registry);
  Report candidate = baseline;
  for (CaseResult& c : candidate.cases)
    for (MetricStats& m : c.timing)
      if (m.name == "wall_seconds") m.median *= 2.0;  // 2x slower

  const CompareResult result = compare_reports(baseline, candidate);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_NE(result.failures.front().what.find("timing regression"),
            std::string::npos);
  // The same drift passes a counters-only gate.
  CompareOptions counters_only;
  counters_only.counters_only = true;
  EXPECT_TRUE(compare_reports(baseline, candidate, counters_only).ok);
}

TEST(BenchCompare, HigherIsBetterMetricsGateDownward) {
  Registry registry;
  const Report baseline = run_test_suite(registry);
  Report candidate = baseline;
  for (MetricStats& m : candidate.cases.front().timing)
    if (m.name == "events_per_second") m.median /= 2.0;  // throughput halved
  EXPECT_FALSE(compare_reports(baseline, candidate).ok);

  // A 2x throughput *improvement* is not a failure.
  Report faster = baseline;
  for (MetricStats& m : faster.cases.front().timing)
    if (m.name == "events_per_second") m.median *= 2.0;
  EXPECT_TRUE(compare_reports(baseline, faster).ok);
}

TEST(BenchCompare, DetectsSingleCounterDrift) {
  Registry registry;
  const Report baseline = run_test_suite(registry);
  Report candidate = baseline;
  candidate.cases.front().counters.front().value += 1;

  for (const bool counters_only : {false, true}) {
    CompareOptions options;
    options.counters_only = counters_only;
    const CompareResult result =
        compare_reports(baseline, candidate, options);
    EXPECT_FALSE(result.ok);
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_NE(result.failures.front().what.find("drifted"),
              std::string::npos);
  }
}

TEST(BenchCompare, DetectsMissingAndExtraCasesAndCounters) {
  Registry registry;
  const Report baseline = run_test_suite(registry);

  Report missing_case = baseline;
  missing_case.cases.pop_back();
  EXPECT_FALSE(compare_reports(baseline, missing_case).ok);
  EXPECT_FALSE(compare_reports(missing_case, baseline).ok);

  Report missing_counter = baseline;
  missing_counter.cases.front().counters.pop_back();
  EXPECT_FALSE(compare_reports(baseline, missing_counter).ok);
  EXPECT_FALSE(compare_reports(missing_counter, baseline).ok);
}

TEST(BenchCompare, SchemaVersionMismatchFailsHard) {
  Registry registry;
  const Report baseline = run_test_suite(registry);
  Report candidate = baseline;
  candidate.schema_version = kSchemaVersion + 1;
  const CompareResult result = compare_reports(baseline, candidate);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.to_text().find("schema_version"), std::string::npos);
}

TEST(BenchCompare, NonDeterministicCountersFailTheGate) {
  Registry registry;
  const Report baseline = run_test_suite(registry);
  Report candidate = baseline;
  candidate.cases.front().counters_deterministic = false;
  EXPECT_FALSE(compare_reports(baseline, candidate).ok);
}

// ---------------------------------------------------------------------------
// Peak RSS

TEST(BenchPeakRss, GaugeIsPositiveAndHostScoped) {
  EXPECT_GT(peak_rss_bytes(), 0u);
  Registry registry;
  record_peak_rss(registry);
  const MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_GT(snapshot.value_of("host.peak_rss_bytes"), 0u);
  EXPECT_TRUE(is_host_metric("host.peak_rss_bytes"));
  EXPECT_EQ(snapshot.simulation_only().find("host.peak_rss_bytes"), nullptr);
}

// ---------------------------------------------------------------------------
// The pals_bench binary end to end

int run_bench(const std::string& args) {
  const std::string command =
      std::string(PALS_BENCH_BIN) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

TEST(BenchBinary, ReducedSuiteIsCounterDeterministicAndSelfComparesClean) {
  const std::string dir = scratch_dir().string();
  const std::string fast = " --suite --warmup 0 --repetitions 1 "
                           "--filter lint --quiet";
  ASSERT_EQ(run_bench(fast + " --out " + dir + "/a.json --counters-out " +
                      dir + "/ac.json --history " + dir + "/history.jsonl"),
            0);
  ASSERT_EQ(run_bench(fast + " --out " + dir + "/b.json --counters-out " +
                      dir + "/bc.json --history " + dir + "/history.jsonl"),
            0);

  // Byte-identical deterministic sections across two consecutive runs.
  const std::string counters = slurp(dir + "/ac.json");
  EXPECT_FALSE(counters.empty());
  EXPECT_EQ(counters, slurp(dir + "/bc.json"));

  // --history appended one record per run.
  const std::string history = slurp(dir + "/history.jsonl");
  EXPECT_EQ(std::count(history.begin(), history.end(), '\n'), 2);

  // A report gates cleanly against itself, full and counters-only.
  EXPECT_EQ(run_bench("--compare " + dir + "/a.json " + dir + "/a.json"), 0);
  EXPECT_EQ(run_bench("--compare --counters-only " + dir + "/ac.json " + dir +
                      "/bc.json"),
            0);

  // An injected counter drift exits nonzero.
  std::string tampered = counters;
  const std::string needle = "\"lint.runs\":1";
  const std::size_t at = tampered.find(needle);
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, needle.size(), "\"lint.runs\":2");
  atomic_write_file(dir + "/tampered.json", tampered);
  EXPECT_NE(run_bench("--compare --counters-only " + dir + "/ac.json " + dir +
                      "/tampered.json"),
            0);
}

// Two sweep.sharded runs at once: each must own its shard directory (the
// children get a private TMPDIR) and remove it when the case ends.
TEST(BenchBinary, ConcurrentShardedRunsDoNotCollideOrLeaveDirectories) {
  const std::filesystem::path dir = scratch_dir();
  const std::filesystem::path tmp = dir / "tmp";
  std::filesystem::create_directories(tmp);
  std::string env_tmpdir = "TMPDIR=" + tmp.string();
  char* envp[] = {env_tmpdir.data(), nullptr};

  std::vector<pid_t> pids;
  for (const char* out : {"a.json", "b.json"}) {
    std::vector<std::string> args = {
        PALS_BENCH_BIN,         "--suite",         "--filter=sweep.sharded",
        "--warmup=0",           "--repetitions=3", "--quiet",
        "--out=" + (dir / out).string()};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_t pid = -1;
    ASSERT_EQ(::posix_spawn(&pid, PALS_BENCH_BIN, nullptr, nullptr,
                            argv.data(), envp),
              0);
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    const bool exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    EXPECT_TRUE(exited_ok) << "pals_bench pid " << pid << " status "
                           << status;
  }
  EXPECT_TRUE(std::filesystem::is_empty(tmp));
}

}  // namespace
}  // namespace bench
}  // namespace obs
}  // namespace pals
