// Export/translate round trips: replay -> .prv -> logical trace -> replay.
#include <gtest/gtest.h>

#include <numeric>

#include "paraver/export.hpp"
#include "paraver/translate.hpp"
#include "replay/replay.hpp"
#include "scratch_dir.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "workloads/apps.hpp"
#include "workloads/registry.hpp"

namespace pals {
namespace {

ReplayConfig unit_config() {
  ReplayConfig config;
  config.platform.latency = 1e-4;
  config.platform.bandwidth = 1e8;
  return config;
}

Trace bsp_trace() {
  Trace t(3);
  const double w[] = {0.4, 0.7, 1.0};
  for (Rank r = 0; r < 3; ++r) {
    TraceBuilder b(t, r);
    for (int i = 0; i < 3; ++i) {
      b.marker(MarkerKind::kIterationBegin, i)
          .compute(0.01 * w[r])
          .collective(CollectiveOp::kAllreduce, 64)
          .marker(MarkerKind::kIterationEnd, i);
    }
  }
  return t;
}

TEST(PrvExport, StatesCoverTheWholeExecution) {
  const ReplayResult r = replay(bsp_trace(), unit_config());
  const PrvTrace prv = export_prv(r);
  EXPECT_EQ(prv.n_tasks, 3);
  EXPECT_DOUBLE_EQ(prv.total_time, r.makespan);
  // Per task, state records are contiguous from 0 to makespan.
  for (Rank task = 0; task < 3; ++task) {
    Seconds cursor = 0.0;
    for (const PrvStateRecord& s : prv.states) {
      if (s.task != task) continue;
      EXPECT_NEAR(s.begin, cursor, 1e-9);
      cursor = s.end;
    }
    EXPECT_NEAR(cursor, r.makespan, 1e-9);
  }
}

TEST(PrvExport, CollectiveEventsPairUp) {
  const ReplayResult r = replay(bsp_trace(), unit_config());
  const PrvTrace prv = export_prv(r);
  std::size_t enters = 0;
  std::size_t leaves = 0;
  for (const PrvEventRecord& e : prv.events) {
    if (e.type != kPrvEventCollectiveOp) continue;
    if (e.value > 0)
      ++enters;
    else
      ++leaves;
  }
  EXPECT_EQ(enters, 9u);  // 3 iterations x 3 ranks
  EXPECT_EQ(enters, leaves);
}

TEST(PrvExport, MessagesBecomeCommRecords) {
  Trace t(2);
  TraceBuilder(t, 0).send(1, 5, 1000);
  TraceBuilder(t, 1).recv(0, 5, 1000);
  const ReplayResult r = replay(t, unit_config());
  const PrvTrace prv = export_prv(r);
  ASSERT_EQ(prv.comms.size(), 1u);
  EXPECT_EQ(prv.comms[0].src, 0);
  EXPECT_EQ(prv.comms[0].dst, 1);
  EXPECT_EQ(prv.comms[0].bytes, 1000u);
  EXPECT_EQ(prv.comms[0].tag, 5);
  EXPECT_GT(prv.comms[0].recv_time, prv.comms[0].send_time);
}

TEST(PrvTranslate, PreservesComputationTotals) {
  const Trace original = bsp_trace();
  const ReplayResult r = replay(original, unit_config());
  const Trace translated = translate_prv(export_prv(r));
  for (Rank rank = 0; rank < original.n_ranks(); ++rank) {
    EXPECT_NEAR(translated.computation_time(rank),
                original.computation_time(rank), 1e-6)
        << "rank " << rank;
  }
}

TEST(PrvTranslate, PreservesIterationStructure) {
  const ReplayResult r = replay(bsp_trace(), unit_config());
  const Trace translated = translate_prv(export_prv(r));
  EXPECT_EQ(translated.iteration_count(), 3u);
}

TEST(PrvTranslate, PreservesCollectiveSequence) {
  const ReplayResult r = replay(bsp_trace(), unit_config());
  const Trace translated = translate_prv(export_prv(r));
  std::size_t collectives = 0;
  for (const Event& e : translated.events(0))
    if (const auto* c = std::get_if<CollectiveEvent>(&e)) {
      EXPECT_EQ(c->op, CollectiveOp::kAllreduce);
      EXPECT_EQ(c->bytes, 64u);
      ++collectives;
    }
  EXPECT_EQ(collectives, 3u);
}

TEST(PrvTranslate, TranslatedTraceReplaysToSimilarMakespan) {
  const Trace original = bsp_trace();
  const ReplayResult first = replay(original, unit_config());
  const Trace translated = translate_prv(export_prv(first));
  const ReplayResult second = replay(translated, unit_config());
  EXPECT_NEAR(second.makespan, first.makespan, 0.05 * first.makespan);
}

TEST(PrvTranslate, P2pHeavyTraceRoundTrips) {
  WorkloadConfig config;
  config.ranks = 8;
  config.iterations = 3;
  config.target_lb = 0.8;
  const Trace original = make_specfem3d(config);
  const ReplayResult first = replay(original, ReplayConfig{});
  const Trace translated = translate_prv(export_prv(first));
  EXPECT_NO_THROW(translated.validate());
  const ReplayResult second = replay(translated, ReplayConfig{});
  EXPECT_NEAR(second.makespan, first.makespan, 0.10 * first.makespan);
  // Message counts survive.
  EXPECT_EQ(second.point_to_point_messages, first.point_to_point_messages);
}

TEST(PrvTranslate, BlockingRendezvousTraceRoundTrips) {
  WorkloadConfig config;
  config.ranks = 8;
  config.iterations = 2;
  config.target_lb = 0.9;
  const Trace original = make_wrf(config);  // blocking parity shifts
  const ReplayResult first = replay(original, ReplayConfig{});
  const Trace translated = translate_prv(export_prv(first));
  EXPECT_NO_THROW(replay(translated, ReplayConfig{}));
}

class PrvFamilyRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(PrvFamilyRoundTrip, EveryWorkloadFamilySurvivesTheRoundTrip) {
  WorkloadConfig config;
  config.ranks = 8;
  config.iterations = 2;
  config.target_lb = 0.85;
  const Trace original = workload_factory(GetParam())(config);
  const ReplayResult first = replay(original, ReplayConfig{});
  const Trace translated = translate_prv(export_prv(first));
  EXPECT_NO_THROW(translated.validate());
  // Computation is conserved per rank.
  for (Rank r = 0; r < original.n_ranks(); ++r)
    EXPECT_NEAR(translated.computation_time(r),
                original.computation_time(r),
                1e-6 + 0.001 * original.computation_time(r))
        << "rank " << r;
  // The translated trace replays without deadlock to a similar makespan.
  const ReplayResult second = replay(translated, ReplayConfig{});
  EXPECT_NEAR(second.makespan, first.makespan, 0.15 * first.makespan);
}

INSTANTIATE_TEST_SUITE_P(Families, PrvFamilyRoundTrip,
                         ::testing::Values("cg", "mg", "is", "bt-mz",
                                           "specfem3d", "wrf", "pepc",
                                           "amr-drift", "lu", "ft"),
                         [](const ::testing::TestParamInfo<const char*>& p) {
                           std::string name = p.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(PrvTranslate, FullPrvFileRoundTrip) {
  const std::string path = (scratch_dir() / "pals_roundtrip.prv").string();
  const ReplayResult r = replay(bsp_trace(), unit_config());
  write_prv_file(export_prv(r), path);
  const Trace translated = translate_prv(read_prv_file(path));
  EXPECT_EQ(translated.iteration_count(), 3u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pals
