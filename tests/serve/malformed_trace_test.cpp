// A malformed trace is rejected with Trace::validate's exact error text
// wherever it enters: run_sweep's phase 1 (which compiles each workload's
// replay program once) and the warm-cache entry a served query builds.
// pals_run's path is pinned by the smoke_pals_run_rejects_* tests.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/sweep.hpp"
#include "serve/query.hpp"
#include "util/error.hpp"

namespace pals {
namespace {

struct Malformed {
  std::string name;
  Trace trace;
};

std::vector<Malformed> malformed_traces() {
  std::vector<Malformed> out;
  Trace negative(2);
  TraceBuilder(negative, 0).compute(-1.0);
  TraceBuilder(negative, 1).compute(1.0);
  out.push_back({"negative compute", negative});
  Trace unknown_wait(2);
  TraceBuilder(unknown_wait, 0).compute(1.0);
  TraceBuilder(unknown_wait, 1).compute(1.0).wait(42);
  out.push_back({"unknown wait", unknown_wait});
  Trace mismatch(2);
  TraceBuilder(mismatch, 0).collective(CollectiveOp::kBarrier, 0);
  TraceBuilder(mismatch, 1).collective(CollectiveOp::kAllreduce, 8);
  out.push_back({"collective mismatch", mismatch});
  return out;
}

std::string validate_error(const Trace& trace) {
  try {
    trace.validate();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(MalformedTraceChecks, SweepPhaseOneKeepsTheValidationError) {
  for (const Malformed& bad : malformed_traces()) {
    SCOPED_TRACE(bad.name);
    const std::string expected = validate_error(bad.trace);
    ASSERT_FALSE(expected.empty());
    Scenario scenario;
    scenario.workload = "cg:2:0.9:1";
    TraceCache cache;
    cache.get(resolve_workload(scenario.workload, 1).key,
              [&] { return bad.trace; });
    SweepOptions options;
    options.trace_cache = &cache;
    try {
      run_sweep({scenario}, options);
      ADD_FAILURE() << "the sweep accepted a malformed trace";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
    options.keep_going = true;
    const SweepResult quarantined = run_sweep({scenario}, options);
    ASSERT_EQ(quarantined.errors.size(), 1u);
    EXPECT_EQ(quarantined.errors[0].message, expected);
  }
}

TEST(MalformedTraceChecks, ServedEntryBuildKeepsTheValidationError) {
  for (const Malformed& bad : malformed_traces()) {
    SCOPED_TRACE(bad.name);
    const std::string expected = validate_error(bad.trace);
    ASSERT_FALSE(expected.empty());
    try {
      serve::make_warm_entry(bad.trace, ReplayConfig{});
      ADD_FAILURE() << "built a warm entry from a malformed trace";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
}

}  // namespace
}  // namespace pals
