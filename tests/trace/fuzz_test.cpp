// Robustness of the text parsers: random garbage and random mutations of
// valid inputs must either parse cleanly or throw pals::Error — never
// crash, hang, or corrupt state.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "paraver/prv.hpp"
#include "reference.hpp"
#include "trace/binary_io.hpp"
#include "trace/io.hpp"
#include "trace/timeline.hpp"
#include "util/error.hpp"
#include "util/kvconfig.hpp"
#include "util/rng.hpp"

namespace pals {
namespace {

std::string random_garbage(Rng& rng, std::size_t length) {
  static const char kAlphabet[] =
      "0123456789 :=#.-\nabcdefghijklmnop\tqrstuvwxyz";
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i)
    out += kAlphabet[rng.uniform_int(0, sizeof(kAlphabet) - 2)];
  return out;
}

std::string valid_trace_text() {
  Trace t(2);
  TraceBuilder(t, 0)
      .marker(MarkerKind::kIterationBegin, 0)
      .compute(0.5)
      .isend(1, 3, 4096, 0)
      .wait(0)
      .collective(CollectiveOp::kAllreduce, 8)
      .marker(MarkerKind::kIterationEnd, 0);
  TraceBuilder(t, 1)
      .marker(MarkerKind::kIterationBegin, 0)
      .compute(1.0)
      .recv(0, 3, 4096)
      .collective(CollectiveOp::kAllreduce, 8)
      .marker(MarkerKind::kIterationEnd, 0);
  std::stringstream buffer;
  write_trace(t, buffer);
  return buffer.str();
}

std::string mutate(const std::string& text, Rng& rng) {
  std::string out = text;
  const std::size_t edits = rng.uniform_int(1, 4);
  for (std::size_t e = 0; e < edits && !out.empty(); ++e) {
    const std::size_t pos = rng.uniform_int(0, out.size() - 1);
    switch (rng.uniform_int(0, 2)) {
      case 0:  // flip a character
        out[pos] = static_cast<char>('0' + rng.uniform_int(0, 9));
        break;
      case 1:  // delete a character
        out.erase(pos, 1);
        break;
      default:  // duplicate a character
        out.insert(pos, 1, out[pos]);
        break;
    }
  }
  return out;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, TraceParserNeverCrashesOnGarbage) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    std::stringstream in(random_garbage(rng, rng.uniform_int(1, 600)));
    try {
      const Trace t = read_trace(in);
      EXPECT_NO_THROW(t.validate());  // whatever parsed must be coherent
    } catch (const Error&) {
      // expected for malformed input
    }
  }
}

TEST_P(ParserFuzz, TraceParserSurvivesMutatedValidInput) {
  Rng rng(GetParam() + 1000);
  const std::string valid = valid_trace_text();
  for (int i = 0; i < 100; ++i) {
    std::stringstream in(mutate(valid, rng));
    try {
      const Trace t = read_trace(in);
      EXPECT_NO_THROW(t.validate());
    } catch (const Error&) {
    }
  }
}

TEST_P(ParserFuzz, TimelineParserNeverCrashes) {
  Rng rng(GetParam() + 2000);
  const std::string header = "# pals-timeline v1\nranks 2\n";
  for (int i = 0; i < 50; ++i) {
    std::stringstream in(header + random_garbage(rng, 200));
    try {
      const Timeline tl = read_timeline(in);
      EXPECT_NO_THROW(validate_timeline(tl));
    } catch (const Error&) {
    }
  }
}

TEST_P(ParserFuzz, PrvParserNeverCrashes) {
  Rng rng(GetParam() + 3000);
  const std::string header = "#Paraver (pals):1000000:4\n";
  for (int i = 0; i < 50; ++i) {
    std::stringstream in(header + random_garbage(rng, 300));
    try {
      const PrvTrace prv = read_prv(in);
      EXPECT_NO_THROW(prv.validate());
    } catch (const Error&) {
    }
  }
}

TEST_P(ParserFuzz, BinaryTraceReaderNeverCrashesOnGarbage) {
  // Pure random bytes — with and without a valid magic prefix — must
  // throw or decode to a coherent trace, never crash or hang.
  Rng rng(GetParam() + 5000);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> garbage(rng.uniform_int(0, 512));
    for (auto& byte : garbage)
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    if (i % 2 == 0 && garbage.size() >= 6) {
      const char magic[] = {'P', 'A', 'L', 'S', 'B', '1'};
      for (std::size_t b = 0; b < 6; ++b)
        garbage[b] = static_cast<std::uint8_t>(magic[b]);
    }
    try {
      const Trace t = read_trace_binary(garbage);
      EXPECT_NO_THROW(t.validate());
    } catch (const Error&) {
      // expected for malformed input
    }
  }
}

TEST_P(ParserFuzz, KvConfigParserNeverCrashes) {
  Rng rng(GetParam() + 4000);
  for (int i = 0; i < 50; ++i) {
    std::stringstream in(random_garbage(rng, 200));
    try {
      const KvConfig config = KvConfig::parse(in);
      for (const std::string& key : config.keys())
        EXPECT_NO_THROW(config.get_string(key));
    } catch (const Error&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

}  // namespace
}  // namespace pals
