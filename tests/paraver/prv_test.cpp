#include "paraver/prv.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "scratch_dir.hpp"
#include "util/error.hpp"

namespace pals {
namespace {

PrvTrace sample() {
  PrvTrace prv;
  prv.total_time = 2.0;
  prv.n_tasks = 2;
  prv.states.push_back({0, 0.0, 1.0, PrvState::kRunning});
  prv.states.push_back({0, 1.0, 2.0, PrvState::kWaitingMessage});
  prv.states.push_back({1, 0.0, 2.0, PrvState::kRunning});
  prv.events.push_back({0, 0.5, kPrvEventIteration, 1});
  prv.events.push_back({0, 2.0, kPrvEventIteration, 0});
  prv.comms.push_back({1, 0, 0.25, 1.5, 4096, 7});
  return prv;
}

TEST(Prv, ValidateAcceptsSample) { EXPECT_NO_THROW(sample().validate()); }

TEST(Prv, ValidateRejectsBadRecords) {
  PrvTrace prv = sample();
  prv.states[0].task = 9;
  EXPECT_THROW(prv.validate(), Error);

  prv = sample();
  prv.states[0].end = -1.0;
  EXPECT_THROW(prv.validate(), Error);

  prv = sample();
  prv.comms[0].recv_time = 0.0;  // delivered before sent
  EXPECT_THROW(prv.validate(), Error);

  prv = sample();
  prv.n_tasks = 0;
  EXPECT_THROW(prv.validate(), Error);
}

TEST(Prv, RoundTripPreservesRecords) {
  const PrvTrace original = sample();
  std::stringstream buffer;
  write_prv(original, buffer);
  const PrvTrace restored = read_prv(buffer);
  EXPECT_EQ(restored, original);
}

TEST(Prv, SerializationShape) {
  std::stringstream buffer;
  write_prv(sample(), buffer);
  const std::string text = buffer.str();
  EXPECT_EQ(text.rfind("#Paraver (pals):2000000000:2", 0), 0u);
  // State record: kind 1, task 1-based, ns timestamps.
  EXPECT_NE(text.find("1:1:1:1:1:0:1000000000:1"), std::string::npos);
  // Comm record: kind 3 with both endpoints.
  EXPECT_NE(text.find("3:2:1:2:1:250000000:250000000:1:1:1:1:1500000000:"
                      "1500000000:4096:7"),
            std::string::npos);
}

TEST(Prv, ReadRejectsMissingHeader) {
  std::stringstream in("1:1:1:1:1:0:5:1\n");
  EXPECT_THROW(read_prv(in), Error);
}

TEST(Prv, ReadRejectsMalformedRecords) {
  std::stringstream in("#Paraver (pals):10:1\n1:1:1:1:1:0:5\n");  // 7 fields
  EXPECT_THROW(read_prv(in), Error);
  std::stringstream in2("#Paraver (pals):10:1\n9:1:1:1:1:0:5:1\n");
  EXPECT_THROW(read_prv(in2), Error);
  std::stringstream in3("#Paraver (pals):10:1\n1:1:1:1:1:0:x:1\n");
  EXPECT_THROW(read_prv(in3), Error);
}

TEST(Prv, ReadRejectsUnknownStateId) {
  std::stringstream in("#Paraver (pals):10:1\n1:1:1:1:1:0:5:42\n");
  EXPECT_THROW(read_prv(in), Error);
}

TEST(Prv, ReadSkipsCommentsAndBlankLines) {
  std::stringstream in(
      "#Paraver (pals):10:1\n\n# a comment\n1:1:1:1:1:0:5:1\n");
  const PrvTrace prv = read_prv(in);
  EXPECT_EQ(prv.states.size(), 1u);
}

TEST(Prv, EmptyInputRejected) {
  std::stringstream in("");
  EXPECT_THROW(read_prv(in), Error);
}

TEST(Prv, FileRoundTrip) {
  const std::string path = (scratch_dir() / "pals_test.prv").string();
  write_prv_file(sample(), path);
  EXPECT_EQ(read_prv_file(path), sample());
  std::remove(path.c_str());
}

TEST(Prv, NanosecondQuantizationIsStable) {
  PrvTrace prv;
  prv.total_time = 1e-9 * 1234567;
  prv.n_tasks = 1;
  prv.states.push_back({0, 0.0, 1e-9 * 999, PrvState::kRunning});
  std::stringstream buffer;
  write_prv(prv, buffer);
  const PrvTrace restored = read_prv(buffer);
  EXPECT_DOUBLE_EQ(restored.states[0].end, 1e-9 * 999);
}

}  // namespace
}  // namespace pals
