#include "scratch_dir.hpp"
#include "trace/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace pals {
namespace {

Trace sample_trace() {
  Trace t(3);
  t.set_name("sample");
  TraceBuilder(t, 0)
      .marker(MarkerKind::kIterationBegin, 0)
      .compute(0.125, 1)
      .isend(1, 5, 4096, 0)
      .wait(0)
      .collective(CollectiveOp::kAllreduce, 8)
      .marker(MarkerKind::kIterationEnd, 0);
  TraceBuilder(t, 1)
      .marker(MarkerKind::kIterationBegin, 0)
      .compute(0.25)
      .irecv(0, 5, 4096, 0)
      .wait(0)
      .collective(CollectiveOp::kAllreduce, 8)
      .marker(MarkerKind::kIterationEnd, 0);
  TraceBuilder(t, 2)
      .marker(MarkerKind::kIterationBegin, 0)
      .compute(0.5)
      .collective(CollectiveOp::kAllreduce, 8)
      .marker(MarkerKind::kIterationEnd, 0);
  return t;
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  write_trace(original, buffer);
  const Trace restored = read_trace(buffer);
  EXPECT_EQ(restored, original);
  EXPECT_EQ(restored.name(), "sample");
}

TEST(TraceIo, RoundTripPreservesExactDurations) {
  Trace t(1);
  TraceBuilder(t, 0).compute(0.1 + 0.2);  // a value with FP noise
  std::stringstream buffer;
  write_trace(t, buffer);
  const Trace restored = read_trace(buffer);
  const auto* c = std::get_if<ComputeEvent>(&restored.events(0)[0]);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->duration, 0.1 + 0.2);  // bit-exact via max precision
}

TEST(TraceIo, HeaderContainsMagicAndRanks) {
  std::stringstream buffer;
  write_trace(sample_trace(), buffer);
  const std::string text = buffer.str();
  EXPECT_EQ(text.rfind("# pals-trace v1", 0), 0u);
  EXPECT_NE(text.find("ranks 3"), std::string::npos);
  EXPECT_NE(text.find("name sample"), std::string::npos);
}

TEST(TraceIo, IgnoresCommentsAndBlankLines) {
  std::stringstream in(
      "# pals-trace v1\n\n# a comment\nranks 1\n\n0 compute 1.0\n");
  const Trace t = read_trace(in);
  EXPECT_EQ(t.n_ranks(), 1);
  EXPECT_DOUBLE_EQ(t.computation_time(0), 1.0);
}

TEST(TraceIo, RejectsMissingMagic) {
  std::stringstream in("ranks 1\n0 compute 1.0\n");
  EXPECT_THROW(read_trace(in), Error);
}

TEST(TraceIo, RejectsEmptyInput) {
  std::stringstream in("");
  EXPECT_THROW(read_trace(in), Error);
}

TEST(TraceIo, RejectsEventBeforeRanks) {
  std::stringstream in("# pals-trace v1\n0 compute 1.0\nranks 1\n");
  EXPECT_THROW(read_trace(in), Error);
}

TEST(TraceIo, RejectsRankOutOfRange) {
  std::stringstream in("# pals-trace v1\nranks 2\n5 compute 1.0\n");
  EXPECT_THROW(read_trace(in), Error);
}

TEST(TraceIo, RejectsUnknownKeyword) {
  std::stringstream in("# pals-trace v1\nranks 1\n0 explode 1.0\n");
  EXPECT_THROW(read_trace(in), Error);
}

TEST(TraceIo, RejectsWrongFieldCount) {
  std::stringstream in("# pals-trace v1\nranks 2\n0 send 1 7\n");
  EXPECT_THROW(read_trace(in), Error);
}

TEST(TraceIo, RejectsMalformedNumbers) {
  std::stringstream in("# pals-trace v1\nranks 1\n0 compute fast\n");
  EXPECT_THROW(read_trace(in), Error);
}

TEST(TraceIo, ErrorsCarryLineNumbers) {
  std::stringstream in("# pals-trace v1\nranks 1\n0 compute 1.0\n0 bogus\n");
  try {
    read_trace(in);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
}

TEST(TraceIo, ValidationRunsOnRead) {
  // Structurally parseable but semantically invalid (leaked request).
  std::stringstream in("# pals-trace v1\nranks 2\n0 isend 1 0 8 0\n");
  EXPECT_THROW(read_trace(in), Error);
}

TEST(TraceIo, ParsesPhaseAnnotation) {
  std::stringstream in("# pals-trace v1\nranks 1\n0 compute 2.0 phase=3\n");
  const Trace t = read_trace(in);
  const auto* c = std::get_if<ComputeEvent>(&t.events(0)[0]);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->phase, 3);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = (scratch_dir() / "pals_io_test.palst").string();
  const Trace original = sample_trace();
  write_trace_file(original, path);
  const Trace restored = read_trace_file(path);
  EXPECT_EQ(restored, original);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/path/x.palst"), Error);
}

}  // namespace
}  // namespace pals
