#include "mpisim/vmpi.hpp"

#include <gtest/gtest.h>

#include "replay/replay.hpp"
#include "util/error.hpp"

namespace pals {
namespace {

TEST(VirtualMpi, RecordsComputeAndRanks) {
  const Trace t = run_spmd(4, [](VirtualMpi& mpi) {
    mpi.compute(0.5 * (mpi.rank() + 1));
  });
  EXPECT_EQ(t.n_ranks(), 4);
  EXPECT_DOUBLE_EQ(t.computation_time(0), 0.5);
  EXPECT_DOUBLE_EQ(t.computation_time(3), 2.0);
}

TEST(VirtualMpi, SizeVisibleToPrograms) {
  const Trace t = run_spmd(8, [](VirtualMpi& mpi) {
    EXPECT_EQ(mpi.size(), 8);
    mpi.compute(1.0);
  });
  EXPECT_EQ(t.n_ranks(), 8);
}

TEST(VirtualMpi, RequestIdsAutoAssignAndReplayCleanly) {
  const Trace t = run_spmd(2, [](VirtualMpi& mpi) {
    if (mpi.rank() == 0) {
      const VRequest a = mpi.isend(1, 0, 100);
      const VRequest b = mpi.isend(1, 1, 100);
      EXPECT_NE(a.id, b.id);
      mpi.wait(a);
      mpi.wait(b);
    } else {
      mpi.recv(0, 0, 100);
      mpi.recv(0, 1, 100);
    }
  });
  EXPECT_NO_THROW(t.validate());
  EXPECT_NO_THROW(replay(t, ReplayConfig{}));
}

TEST(VirtualMpi, CollectivesRecordOpAndBytes) {
  const Trace t = run_spmd(2, [](VirtualMpi& mpi) {
    mpi.allreduce(64);
    mpi.allgather(128);
    mpi.alltoall(256);
  });
  const auto events = t.events(0);
  ASSERT_EQ(events.size(), 3u);
  const auto* allgather = std::get_if<CollectiveEvent>(&events[1]);
  ASSERT_NE(allgather, nullptr);
  EXPECT_EQ(allgather->op, CollectiveOp::kAllgather);
  EXPECT_EQ(allgather->bytes, 128u);
  EXPECT_EQ(allgather->root, 0);
}

TEST(VirtualMpi, MarkersAndPhases) {
  const Trace t = run_spmd(1, [](VirtualMpi& mpi) {
    mpi.iteration_begin(0);
    mpi.phase_begin(0);
    mpi.compute(1.0, 0);
    mpi.phase_end(0);
    mpi.iteration_end(0);
  });
  EXPECT_EQ(t.iteration_count(), 1u);
  ASSERT_EQ(t.phases().size(), 1u);
  EXPECT_EQ(t.phases()[0], 0);
}

TEST(VirtualMpi, WaitallAfterManyRequests) {
  const Trace t = run_spmd(3, [](VirtualMpi& mpi) {
    const Rank next = (mpi.rank() + 1) % mpi.size();
    const Rank prev = (mpi.rank() - 1 + mpi.size()) % mpi.size();
    mpi.irecv(prev, 0, 1000);
    mpi.isend(next, 0, 1000);
    mpi.waitall();
  });
  EXPECT_NO_THROW(replay(t, ReplayConfig{}));
}

TEST(VirtualMpi, NameFromOptions) {
  SpmdOptions options;
  options.name = "TEST-APP-2";
  const Trace t =
      run_spmd(2, [](VirtualMpi& mpi) { mpi.compute(1.0); }, options);
  EXPECT_EQ(t.name(), "TEST-APP-2");
}

TEST(VirtualMpi, RejectsInvalidUse) {
  EXPECT_THROW(run_spmd(0, [](VirtualMpi&) {}), Error);
  EXPECT_THROW(run_spmd(2, nullptr), Error);
  EXPECT_THROW(run_spmd(1, [](VirtualMpi& mpi) { mpi.compute(-1.0); }),
               Error);
  EXPECT_THROW(run_spmd(1, [](VirtualMpi& mpi) { mpi.wait(VRequest{}); }),
               Error);
}

TEST(VirtualMpi, ValidationFailsOnLeakedRequests) {
  EXPECT_THROW(run_spmd(2,
                        [](VirtualMpi& mpi) {
                          if (mpi.rank() == 0) mpi.isend(1, 0, 8);  // no wait
                          else mpi.recv(0, 0, 8);
                        }),
               Error);
}

}  // namespace
}  // namespace pals
