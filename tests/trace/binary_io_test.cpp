#include "scratch_dir.hpp"
#include "trace/binary_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "trace/io.hpp"
#include "util/binio.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads/apps.hpp"

namespace pals {
namespace {

TEST(BinIo, VarintRoundTrip) {
  ByteWriter w;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 1u << 20,
                                  ~std::uint64_t{0}};
  for (const auto v : values) w.put_varint(v);
  ByteReader r(w.buffer());
  for (const auto v : values) EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(BinIo, SignedVarintRoundTrip) {
  ByteWriter w;
  const std::int64_t values[] = {0, -1, 1, -64, 63, -(1ll << 40),
                                 (1ll << 40)};
  for (const auto v : values) w.put_svarint(v);
  ByteReader r(w.buffer());
  for (const auto v : values) EXPECT_EQ(r.get_svarint(), v);
}

TEST(BinIo, SmallMagnitudesStayShort) {
  ByteWriter w;
  w.put_svarint(-1);
  EXPECT_EQ(w.size(), 1u);  // zig-zag keeps -1 in one byte
}

TEST(BinIo, DoubleRoundTripIsBitExact) {
  ByteWriter w;
  w.put_f64(0.1 + 0.2);
  w.put_f64(-1e-300);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.get_f64(), 0.1 + 0.2);
  EXPECT_EQ(r.get_f64(), -1e-300);
}

TEST(BinIo, StringsRoundTrip) {
  ByteWriter w;
  w.put_string("CG-32");
  w.put_string("");
  ByteReader r(w.buffer());
  EXPECT_EQ(r.get_string(), "CG-32");
  EXPECT_EQ(r.get_string(), "");
}

TEST(BinIo, TruncationThrows) {
  ByteWriter w;
  w.put_f64(1.0);
  ByteReader r(w.buffer().data(), 4);
  EXPECT_THROW(r.get_f64(), Error);
  ByteReader r2(w.buffer().data(), 0);
  EXPECT_THROW(r2.get_u8(), Error);
}

TEST(BinIo, MalformedVarintThrows) {
  std::vector<std::uint8_t> endless(16, 0xFF);
  ByteReader r(endless);
  EXPECT_THROW(r.get_varint(), Error);
}

Trace sample_trace() {
  WorkloadConfig config;
  config.ranks = 8;
  config.iterations = 3;
  config.target_lb = 0.8;
  return make_pepc(config);  // exercises markers, phases, collectives
}

TEST(BinaryTrace, RoundTripIsExact) {
  const Trace original = sample_trace();
  const Trace restored = read_trace_binary(write_trace_binary(original));
  EXPECT_EQ(restored, original);
  EXPECT_EQ(restored.name(), original.name());
}

TEST(BinaryTrace, AllEventKindsRoundTrip) {
  Trace t(2);
  t.set_name("kinds");
  TraceBuilder(t, 0)
      .marker(MarkerKind::kIterationBegin, 0)
      .compute(0.25, 3)
      .send(1, -7, 123)
      .isend(1, 5, 1 << 20, 0)
      .irecv(1, 6, 42, 1)
      .waitall()
      .collective(CollectiveOp::kReduceScatter, 99, 1)
      .marker(MarkerKind::kIterationEnd, 0);
  TraceBuilder(t, 1)
      .marker(MarkerKind::kIterationBegin, 0)
      .recv(0, -7, 123)
      .recv(0, 5, 1 << 20)
      .isend(0, 6, 42, 0)
      .wait(0)
      .collective(CollectiveOp::kReduceScatter, 99, 1)
      .marker(MarkerKind::kIterationEnd, 0);
  EXPECT_EQ(read_trace_binary(write_trace_binary(t)), t);
}

TEST(BinaryTrace, SmallerThanText) {
  const Trace trace = sample_trace();
  std::stringstream text;
  write_trace(trace, text);
  const auto binary = write_trace_binary(trace);
  EXPECT_LT(binary.size(), text.str().size() / 2);
}

TEST(BinaryTrace, FileRoundTrip) {
  const std::string path = (scratch_dir() / "pals_test.palsb").string();
  const Trace original = sample_trace();
  write_trace_binary_file(original, path);
  EXPECT_EQ(read_trace_binary_file(original.name().empty() ? path : path),
            original);
  std::remove(path.c_str());
}

TEST(BinaryTrace, RejectsBadMagicAndTruncation) {
  const auto buffer = write_trace_binary(sample_trace());
  auto corrupted = buffer;
  corrupted[0] = 'X';
  EXPECT_THROW(read_trace_binary(corrupted), Error);
  EXPECT_THROW(read_trace_binary(buffer.data(), buffer.size() / 2), Error);
}

TEST(BinaryTrace, RejectsEmptyBuffer) {
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(read_trace_binary(empty), Error);
}

TEST(BinaryTrace, RejectsTruncatedHeader) {
  // Cutting anywhere inside the magic + rank-count header must throw;
  // a 6-byte .palsb file is never valid.
  const auto buffer = write_trace_binary(sample_trace());
  for (std::size_t size = 0; size <= 6; ++size) {
    EXPECT_THROW(read_trace_binary(buffer.data(), size), Error)
        << "prefix of " << size << " bytes accepted";
  }
}

TEST(BinaryTrace, RejectsBadVersionByte) {
  // The format version is baked into the magic ("PALSB1"); a bumped
  // version byte must be rejected, not misparsed.
  auto buffer = write_trace_binary(sample_trace());
  buffer[5] = '2';
  EXPECT_THROW(read_trace_binary(buffer), Error);
}

TEST(BinaryTrace, RejectsTruncatedComputeBurstPayload) {
  // One compute burst: tag byte + 8-byte f64 duration + phase varint.
  // Every cut inside that payload must fail cleanly.
  Trace t(1);
  t.set_name("");
  TraceBuilder(t, 0).compute(0.25, 3);
  const auto buffer = write_trace_binary(t);
  for (std::size_t cut = 1; cut <= 9; ++cut) {
    ASSERT_LT(cut, buffer.size());
    EXPECT_THROW(read_trace_binary(buffer.data(), buffer.size() - cut), Error)
        << "payload cut of " << cut << " bytes accepted";
  }
}

TEST(BinaryTrace, EveryPrefixThrowsOrValidates) {
  // Sweeping all prefix truncations must never crash or produce a trace
  // that fails validation.
  const auto buffer = write_trace_binary(sample_trace());
  for (std::size_t size = 0; size < buffer.size(); ++size) {
    try {
      const Trace t = read_trace_binary(buffer.data(), size);
      EXPECT_NO_THROW(t.validate());
    } catch (const Error&) {
      // truncated input must throw, not crash
    }
  }
}

TEST(BinaryTrace, RejectsTrailingBytes) {
  auto buffer = write_trace_binary(sample_trace());
  buffer.push_back(0);
  EXPECT_THROW(read_trace_binary(buffer), Error);
}

TEST(BinaryTrace, FuzzedBuffersNeverCrash) {
  const auto valid = write_trace_binary(sample_trace());
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    auto mutated = valid;
    const std::size_t flips = rng.uniform_int(1, 8);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.uniform_int(0, mutated.size() - 1)] =
          static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    try {
      const Trace t = read_trace_binary(mutated);
      EXPECT_NO_THROW(t.validate());
    } catch (const Error&) {
      // malformed input must throw, not crash
    }
  }
}

}  // namespace
}  // namespace pals
