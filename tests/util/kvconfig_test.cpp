#include "util/kvconfig.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace pals {
namespace {

KvConfig parse_text(const std::string& text) {
  std::stringstream in(text);
  return KvConfig::parse(in);
}

TEST(KvConfig, ParsesKeyValuePairs) {
  const KvConfig c = parse_text("latency = 1e-5\nbandwidth=250e6\n");
  EXPECT_DOUBLE_EQ(c.get_double("latency"), 1e-5);
  EXPECT_DOUBLE_EQ(c.get_double("bandwidth"), 250e6);
}

TEST(KvConfig, StripsCommentsAndWhitespace) {
  const KvConfig c = parse_text(
      "# cluster description\n  buses = 4   # shared\n\n  name = myrinet\n");
  EXPECT_EQ(c.get_int("buses"), 4);
  EXPECT_EQ(c.get_string("name"), "myrinet");
}

TEST(KvConfig, KeepsFileOrder) {
  const KvConfig c = parse_text("b = 1\na = 2\n");
  ASSERT_EQ(c.keys().size(), 2u);
  EXPECT_EQ(c.keys()[0], "b");
  EXPECT_EQ(c.keys()[1], "a");
}

TEST(KvConfig, RejectsMalformedLines) {
  EXPECT_THROW(parse_text("no equals sign\n"), Error);
  EXPECT_THROW(parse_text("= value\n"), Error);
  EXPECT_THROW(parse_text("a = 1\na = 2\n"), Error);  // duplicate
}

TEST(KvConfig, TypedAccessErrors) {
  const KvConfig c = parse_text("word = hello\n");
  EXPECT_THROW(c.get_double("word"), Error);
  EXPECT_THROW(c.get_string("missing"), Error);
}

TEST(KvConfig, FallbackAccessors) {
  const KvConfig c = parse_text("x = 5\n");
  EXPECT_EQ(c.get_int_or("x", 1), 5);
  EXPECT_EQ(c.get_int_or("y", 1), 1);
}

TEST(KvConfig, UnknownKeyDetection) {
  const KvConfig c = parse_text("latency = 1\nbandwith = 2\n");  // typo
  EXPECT_NO_THROW(c.require_known_keys({"latency", "bandwith"}));
  try {
    c.require_known_keys({"latency", "bandwidth"});
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bandwith"), std::string::npos);
  }
}

TEST(KvConfig, MissingFileThrows) {
  EXPECT_THROW(KvConfig::parse_file("/no/such/file.cfg"), Error);
}

TEST(KvConfig, EmptyFileIsValid) {
  const KvConfig c = parse_text("");
  EXPECT_TRUE(c.keys().empty());
  EXPECT_FALSE(c.has("anything"));
}

}  // namespace
}  // namespace pals
