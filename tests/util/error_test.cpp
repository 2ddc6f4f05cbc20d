#include "util/error.hpp"

#include <gtest/gtest.h>

#include <string>

namespace pals {
namespace {

TEST(CheckMacro, ThrowsWithContext) {
  try {
    PALS_CHECK_MSG(1 == 2, "context " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context 42"), std::string::npos);
  }
}

TEST(CheckMacro, PassesSilently) {
  EXPECT_NO_THROW(PALS_CHECK(2 + 2 == 4));
}

}  // namespace
}  // namespace pals
