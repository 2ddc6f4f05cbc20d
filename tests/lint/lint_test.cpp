// Tests for the static trace verifier (lint/lint.hpp): per-pass
// diagnostics, exhaustive (non-fail-fast) collection, canonical ordering,
// golden text output for the shipped fixtures, and the fail-fast hooks in
// the pipeline and sweep engines.
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/sweep.hpp"
#include "core/pipeline.hpp"
#include "power/gearset.hpp"
#include "trace/io.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"

namespace pals {
namespace lint {
namespace {

std::size_t count_code(const LintReport& report, Code code) {
  std::size_t n = 0;
  for (const Diagnostic& d : report.diagnostics)
    if (d.code == code) ++n;
  return n;
}

const Diagnostic* find_code(const LintReport& report, Code code) {
  for (const Diagnostic& d : report.diagnostics)
    if (d.code == code) return &d;
  return nullptr;
}

/// Two ranks exchanging one rendezvous-sized message cycle: both block in
/// recv before either send executes. Passes Trace::validate() but
/// deadlocks at replay.
Trace cycle_trace() {
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0).recv(1, 0, 100000).send(1, 0, 100000);
  TraceBuilder(t, 1).compute(1.0).recv(0, 0, 100000).send(0, 0, 100000);
  return t;
}

TEST(Lint, CleanTraceLintsClean) {
  Trace t(2);
  TraceBuilder(t, 0)
      .marker(MarkerKind::kIterationBegin, 0)
      .compute(1.0)
      .isend(1, 7, 1024, 0)
      .recv(1, 8, 2048)
      .wait(0)
      .collective(CollectiveOp::kBarrier, 0)
      .marker(MarkerKind::kIterationEnd, 0);
  TraceBuilder(t, 1)
      .marker(MarkerKind::kIterationBegin, 0)
      .compute(1.5)
      .irecv(0, 7, 1024, 3)
      .send(0, 8, 2048)
      .wait(3)
      .collective(CollectiveOp::kBarrier, 0)
      .marker(MarkerKind::kIterationEnd, 0);
  const LintReport report = lint_trace(t);
  EXPECT_TRUE(report.clean()) << to_text(report);
}

TEST(Lint, UnmatchedSendAnchorsRankAndEvent) {
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0).send(1, 0, 100).send(1, 0, 200);
  TraceBuilder(t, 1).compute(1.0).recv(0, 0, 100);
  const LintReport report = lint_trace(t);
  ASSERT_EQ(count_code(report, Code::kUnmatchedSend), 1u) << to_text(report);
  const Diagnostic* d = find_code(report, Code::kUnmatchedSend);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->rank, 0);
  EXPECT_EQ(d->event_index, 2);
  EXPECT_NE(d->message.find("200 bytes"), std::string::npos) << d->message;
}

TEST(Lint, UnmatchedRecvAnchorsRankAndEvent) {
  Trace t(2);
  TraceBuilder(t, 0).send(1, 0, 100);
  TraceBuilder(t, 1).recv(0, 0, 100).irecv(0, 0, 50, 1).wait(1);
  const LintReport report = lint_trace(t);
  ASSERT_EQ(count_code(report, Code::kUnmatchedRecv), 1u) << to_text(report);
  const Diagnostic* d = find_code(report, Code::kUnmatchedRecv);
  EXPECT_EQ(d->rank, 1);
  EXPECT_EQ(d->event_index, 1);
}

TEST(Lint, MatchedPairWithDifferentSizesWarns) {
  Trace t(2);
  TraceBuilder(t, 0).send(1, 0, 100);
  TraceBuilder(t, 1).recv(0, 0, 999);
  const LintReport report = lint_trace(t);
  EXPECT_EQ(report.errors, 0u) << to_text(report);
  ASSERT_EQ(count_code(report, Code::kBytesMismatch), 1u);
  const Diagnostic* d = find_code(report, Code::kBytesMismatch);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->rank, 1);  // anchored at the recv
}

TEST(Lint, MatchingFollowsProgramOrderPerChannel) {
  // Two sends on the same channel match the two recvs in order; the
  // third recv is the unmatched one (MPI non-overtaking).
  Trace t(2);
  TraceBuilder(t, 0).send(1, 0, 10).send(1, 0, 20);
  TraceBuilder(t, 1).recv(0, 0, 10).recv(0, 0, 20).recv(0, 0, 30);
  const LintReport report = lint_trace(t);
  EXPECT_EQ(count_code(report, Code::kBytesMismatch), 0u) << to_text(report);
  const Diagnostic* d = find_code(report, Code::kUnmatchedRecv);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->event_index, 2);
}

TEST(Lint, SelfMessageAndPeerOutOfRangeAreStructuralErrors) {
  Trace t(2);
  TraceBuilder(t, 0).send(0, 0, 10).recv(7, 0, 10);
  TraceBuilder(t, 1).compute(1.0);
  const LintReport report = lint_trace(t);
  EXPECT_EQ(count_code(report, Code::kSelfMessage), 1u) << to_text(report);
  EXPECT_EQ(count_code(report, Code::kPeerOutOfRange), 1u);
  // Structural errors suppress the abstract replay: no deadlock noise.
  EXPECT_EQ(count_code(report, Code::kDeadlock), 0u);
}

TEST(Lint, CollectiveDivergenceReportedPerPosition) {
  Trace t(3);
  TraceBuilder(t, 0)
      .collective(CollectiveOp::kBarrier, 0)
      .collective(CollectiveOp::kBcast, 8, 0);
  TraceBuilder(t, 1)
      .collective(CollectiveOp::kAllreduce, 8)  // kind differs at position 0
      .collective(CollectiveOp::kBcast, 8, 1);  // root differs at position 1
  TraceBuilder(t, 2).collective(CollectiveOp::kBarrier, 0);  // one short
  const LintReport report = lint_trace(t);
  EXPECT_GE(count_code(report, Code::kCollectiveKindMismatch), 1u)
      << to_text(report);
  EXPECT_GE(count_code(report, Code::kCollectiveRootMismatch), 1u);
  EXPECT_EQ(count_code(report, Code::kCollectiveCountMismatch), 1u);
}

TEST(Lint, CollectiveRootOutOfRangeReported) {
  Trace t(2);
  TraceBuilder(t, 0).collective(CollectiveOp::kBcast, 8, 5);
  TraceBuilder(t, 1).collective(CollectiveOp::kBcast, 8, 5);
  const LintReport report = lint_trace(t);
  EXPECT_EQ(count_code(report, Code::kCollectiveRootOutOfRange), 2u)
      << to_text(report);
}

TEST(Lint, RequestDisciplineViolationsReported) {
  Trace t(2);
  // Rank 0: waits on a request never posted, leaves request 1 open, and
  // issues a no-op waitall afterwards.
  TraceBuilder(t, 0).wait(9).isend(1, 0, 10, 1).waitall().waitall();
  TraceBuilder(t, 1).recv(0, 0, 10).irecv(0, 1, 10, 2).irecv(0, 2, 10, 2);
  const LintReport report = lint_trace(t);
  EXPECT_EQ(count_code(report, Code::kWaitUnknownRequest), 1u)
      << to_text(report);
  EXPECT_EQ(count_code(report, Code::kWaitAllNoPending), 1u);
  EXPECT_EQ(count_code(report, Code::kRequestAlreadyOpen), 1u);
  // Rank 1 leaves both irecvs open (request 2 reused counts once open).
  EXPECT_GE(count_code(report, Code::kRequestNeverWaited), 1u);
}

TEST(Lint, SuspiciousDurationsFlaggedBySeverity) {
  Trace t(1);
  TraceBuilder(t, 0)
      .compute(std::numeric_limits<double>::quiet_NaN())
      .compute(-1.0)
      .compute(0.0)
      .compute(5.0);
  LintOptions options;
  options.huge_duration = 4.0;
  options.deadlock = false;
  const LintReport report = lint_trace(t, options);
  EXPECT_EQ(count_code(report, Code::kNonFiniteDuration), 1u)
      << to_text(report);
  EXPECT_EQ(count_code(report, Code::kNegativeDuration), 1u);
  EXPECT_EQ(count_code(report, Code::kZeroDuration), 1u);
  EXPECT_EQ(count_code(report, Code::kHugeDuration), 1u);
  EXPECT_EQ(find_code(report, Code::kZeroDuration)->severity, Severity::kInfo);
  EXPECT_EQ(find_code(report, Code::kHugeDuration)->severity,
            Severity::kWarning);
}

TEST(Lint, MarkerProblemsReported) {
  Trace t(2);
  TraceBuilder(t, 0)
      .marker(MarkerKind::kIterationBegin, 0)
      .marker(MarkerKind::kIterationEnd, 0)  // empty iteration
      .marker(MarkerKind::kIterationBegin, 1)
      .compute(1.0);  // iteration 1 never ends
  TraceBuilder(t, 1).compute(1.0);
  const LintReport report = lint_trace(t);
  EXPECT_EQ(count_code(report, Code::kEmptyIteration), 1u) << to_text(report);
  EXPECT_EQ(count_code(report, Code::kUnbalancedMarkers), 1u);
}

TEST(Lint, EmptyRankAndEmptyTraceReported) {
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0);
  const LintReport with_empty_rank = lint_trace(t);
  EXPECT_EQ(count_code(with_empty_rank, Code::kEmptyRank), 1u)
      << to_text(with_empty_rank);

  const LintReport empty = lint_trace(Trace{});
  EXPECT_EQ(count_code(empty, Code::kEmptyTrace), 1u) << to_text(empty);
  EXPECT_TRUE(empty.has_errors());
}

TEST(Lint, CollectsEverythingInsteadOfFailingFast) {
  // One trace, four independent problems; Trace::validate() would throw
  // on the first, the linter reports all of them.
  Trace t(2);
  TraceBuilder(t, 0)
      .compute(-1.0)
      .send(1, 0, 100)
      .wait(5)
      .collective(CollectiveOp::kBarrier, 0);
  TraceBuilder(t, 1).compute(1.0);
  const LintReport report = lint_trace(t);
  EXPECT_THROW(t.validate(), Error);
  EXPECT_GE(report.errors, 4u) << to_text(report);
  EXPECT_EQ(count_code(report, Code::kNegativeDuration), 1u);
  EXPECT_EQ(count_code(report, Code::kUnmatchedSend), 1u);
  EXPECT_EQ(count_code(report, Code::kWaitUnknownRequest), 1u);
  EXPECT_EQ(count_code(report, Code::kCollectiveCountMismatch), 1u);
}

TEST(Lint, DiagnosticsInCanonicalOrder) {
  Trace t(3);
  TraceBuilder(t, 2).compute(-1.0).compute(-2.0);
  TraceBuilder(t, 0).compute(-3.0);
  TraceBuilder(t, 1).compute(1.0);
  LintOptions options;
  options.deadlock = false;
  const LintReport report = lint_trace(t, options);
  ASSERT_EQ(report.diagnostics.size(), 3u) << to_text(report);
  EXPECT_EQ(report.diagnostics[0].rank, 0);
  EXPECT_EQ(report.diagnostics[1].rank, 2);
  EXPECT_EQ(report.diagnostics[1].event_index, 0);
  EXPECT_EQ(report.diagnostics[2].rank, 2);
  EXPECT_EQ(report.diagnostics[2].event_index, 1);
}

TEST(Lint, MaxDiagnosticsTruncatesButTotalsCountEverything) {
  Trace t(1);
  TraceBuilder(t, 0).compute(-1.0).compute(-2.0).compute(-3.0);
  LintOptions options;
  options.max_diagnostics = 1;
  options.deadlock = false;
  const LintReport report = lint_trace(t, options);
  EXPECT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.dropped, 2u);
  EXPECT_EQ(report.errors, 3u);
  EXPECT_NE(report.summary().find("not shown"), std::string::npos)
      << report.summary();
}

TEST(Lint, DeadlockCycleDiagnosedWithEventIndices) {
  const Trace t = cycle_trace();
  const LintReport report = lint_trace(t);
  // One blocked-rank diagnostic per rank plus the trace-level cycle.
  EXPECT_EQ(count_code(report, Code::kDeadlock), 3u) << to_text(report);
  const std::string text = to_text(report);
  EXPECT_NE(text.find("rank 0 event 1"), std::string::npos) << text;
  EXPECT_NE(text.find("rank 1 event 1"), std::string::npos) << text;
  EXPECT_NE(text.find("dependency cycle: rank 0 -> rank 1 -> rank 0"),
            std::string::npos)
      << text;
}

TEST(Lint, EagerThresholdControlsCrossedSendDeadlock) {
  // Crossed blocking sends: rendezvous semantics deadlock, eager does not
  // (the sender buffers and proceeds to its recv) — exactly replay's rule.
  Trace t(2);
  TraceBuilder(t, 0).send(1, 0, 500).recv(1, 1, 500);
  TraceBuilder(t, 1).send(0, 1, 500).recv(0, 0, 500);
  EXPECT_TRUE(analyze_deadlock(t, /*eager_threshold=*/100).deadlocked);
  EXPECT_FALSE(analyze_deadlock(t, /*eager_threshold=*/1024).deadlocked);

  LintOptions rendezvous;
  rendezvous.eager_threshold = 100;
  EXPECT_GE(count_code(lint_trace(t, rendezvous), Code::kDeadlock), 1u);
  LintOptions eager;
  eager.eager_threshold = 1024;
  EXPECT_TRUE(lint_trace(t, eager).clean());
}

TEST(Lint, StarvationOnFinishedRankReported) {
  Trace t(2);
  TraceBuilder(t, 0).recv(1, 0, 10);
  TraceBuilder(t, 1).compute(1.0);
  const DeadlockInfo info = analyze_deadlock(t, 32768);
  ASSERT_TRUE(info.deadlocked);
  ASSERT_EQ(info.blocked.size(), 1u);
  EXPECT_EQ(info.blocked[0].rank, 0);
  EXPECT_TRUE(info.cycle.empty());
  EXPECT_NE(info.describe().find("starvation"), std::string::npos)
      << info.describe();
}

TEST(Lint, AnalyzeDeadlockPassesCleanTraces) {
  Trace t(2);
  TraceBuilder(t, 0).send(1, 0, 100000).recv(1, 0, 100000);
  TraceBuilder(t, 1).recv(0, 0, 100000).send(0, 0, 100000);
  const DeadlockInfo info = analyze_deadlock(t, 32768);
  EXPECT_FALSE(info.deadlocked);
  EXPECT_TRUE(info.blocked.empty());
  EXPECT_EQ(info.describe(), "");
}

TEST(Lint, EnforceLintThrowsFullReportWithContext) {
  try {
    enforce_lint(cycle_trace(), LintOptions{}, "CG-32");
    FAIL() << "expected lint error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trace lint failed for CG-32"), std::string::npos)
        << what;
    EXPECT_NE(what.find("[deadlock]"), std::string::npos) << what;
  }
  // Warnings alone do not trip the fail-fast hook.
  Trace warn(2);
  TraceBuilder(warn, 0).send(1, 0, 100);
  TraceBuilder(warn, 1).recv(0, 0, 999);
  EXPECT_NO_THROW(enforce_lint(warn, LintOptions{}, "warn-only"));
}

TEST(Lint, CsvOutputIsStructured) {
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0).send(1, 0, 200);
  TraceBuilder(t, 1).compute(1.0);
  const std::string csv = to_csv(lint_trace(t));
  std::istringstream in(csv);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "severity,code,rank,event,message");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("error,unmatched-send,0,1,"), std::string::npos)
      << line;
}

// -- Golden fixtures ------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class LintGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(LintGolden, TextOutputMatchesGolden) {
  const std::string root = std::string(PALS_SOURCE_DIR) + "/tests/lint/";
  const Trace trace =
      read_trace_file(root + "fixtures/" + GetParam() + ".palst",
                      /*validate=*/false);
  const std::string expected = read_file(root + "golden/" + GetParam() +
                                         ".txt");
  EXPECT_EQ(to_text(lint_trace(trace)), expected);
}

INSTANTIATE_TEST_SUITE_P(Fixtures, LintGolden,
                         ::testing::Values("clean", "unmatched_send",
                                           "collective_subset", "cycle"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

// -- Fail-fast hooks ------------------------------------------------------

TEST(LintHooks, PipelineRejectsDeadlockBeforeReplayStarts) {
  const Trace t = cycle_trace();
  PipelineConfig config = default_pipeline_config(paper_uniform(6));

  // Without the hook the deadlock is only caught mid-replay.
  try {
    run_pipeline(t, config);
    FAIL() << "expected replay deadlock";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("replay deadlock"),
              std::string::npos)
        << e.what();
  }

  // With it, the linter rejects the trace up front: the error is the
  // static diagnosis, not the runtime replay throw.
  config.lint = true;
  try {
    run_pipeline(t, config);
    FAIL() << "expected lint error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trace lint failed"), std::string::npos) << what;
    EXPECT_NE(what.find("[deadlock]"), std::string::npos) << what;
    EXPECT_EQ(what.find("replay deadlock"), std::string::npos) << what;
  }
}

TEST(LintHooks, SweepRejectsPoisonedWorkloadWithItsName) {
  // Pre-poison the shared trace cache so the registry name "CG-32"
  // resolves to a deadlocking trace, then sweep it with the lint hook
  // armed.
  SweepOptions options;
  options.jobs = 1;
  options.base.lint = true;
  TraceCache cache;
  cache.get(resolve_workload("CG-32", options.iterations).key,
            [] { return cycle_trace(); });
  options.trace_cache = &cache;
  try {
    Scenario scenario;
    scenario.workload = "CG-32";
    run_sweep({scenario}, options);
    FAIL() << "expected lint error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trace lint failed for CG-32"), std::string::npos)
        << what;
    EXPECT_NE(what.find("[deadlock]"), std::string::npos) << what;
  }
}

TEST(LintHooks, ReplayDeadlockMessageCarriesLinterCycle) {
  // The replay engine itself now diagnoses its deadlock throw with the
  // linter's wait-for cycle instead of a bare blocked-rank list.
  try {
    run_pipeline(cycle_trace(), default_pipeline_config(paper_uniform(6)));
    FAIL() << "expected replay deadlock";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dependency cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("stuck at event"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace lint
}  // namespace pals
