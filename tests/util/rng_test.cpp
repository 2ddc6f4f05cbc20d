#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace pals {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformRangeRejectsInverted) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(5.0, 2.0), Error);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 6000; ++i)
    ++seen[static_cast<std::size_t>(rng.uniform_int(0, 5))];
  for (int count : seen) EXPECT_GT(count, 700);  // ~1000 expected each
}

TEST(Rng, UniformIntSinglePoint) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform_int(42, 42), 42u);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~std::uint64_t{0});
  Rng rng(1);
  EXPECT_NE(rng(), rng());
}

}  // namespace
}  // namespace pals
