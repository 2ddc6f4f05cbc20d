// Run-journal format (analysis/journal.hpp): header/record round-trips,
// durability-order guarantees, and the corruption torture corpus. The
// contract under test: a torn *final* record (the only damage a crash
// between write and fsync can produce) is dropped so the cell re-runs;
// every other inconsistency is a structured pals::Error, never a crash
// or a silently wrong merge.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/journal.hpp"
#include "scratch_dir.hpp"
#include "util/error.hpp"

namespace pals {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

fs::path temp_journal(const std::string& name) {
  return scratch_dir() / name;
}

JournalHeader test_header(std::size_t scenarios = 4) {
  JournalHeader header;
  header.config_hash = "deadbeefcafef00d";
  header.scenarios = scenarios;
  return header;
}

JournalRecord row_record(std::size_t index) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kRow;
  record.index = index;
  record.row.instance = "CG-32";
  record.row.variant = "uniform-6";
  // Awkward doubles: none has an exact short decimal rendering.
  record.row.load_balance = 1.0 / 3.0;
  record.row.parallel_efficiency = 0.1 + 0.2;
  record.row.normalized_energy = 2.0 / 7.0;
  record.row.normalized_time = 1e-17;
  record.row.normalized_edp = 123456.789012345678;
  record.row.overclocked_fraction = 0.0;
  return record;
}

JournalRecord error_record(std::size_t index) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kError;
  record.index = index;
  record.workload = "lu-8";
  record.variant = "avg-discrete, beta=0.40";  // comma: exercises CSV quoting
  record.error_class = "lint";
  record.attempts = 3;
  record.retries = 2;
  record.backoff_seconds = 1.5;
  record.message = "trace lint failed:\nline one\nline two\\with backslash";
  return record;
}

JournalRecord heartbeat_record(std::size_t seq) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kHeartbeat;
  record.index = seq;
  record.shard = "1/3";
  record.cells_done = seq;
  record.unix_seconds = 1754600000.25 + static_cast<double>(seq);
  return record;
}

/// Write a complete, valid journal and return its path.
fs::path write_valid_journal(const std::string& name) {
  const fs::path path = temp_journal(name);
  fs::remove(path);
  JournalWriter writer = JournalWriter::create(path.string(), test_header());
  writer.append(row_record(0));
  writer.append(error_record(1));
  writer.append(row_record(2));
  EXPECT_EQ(writer.records_appended(), 3u);
  return path;
}

TEST(JournalHeader, JsonRoundTrip) {
  const JournalHeader header = test_header(17);
  const JournalHeader parsed =
      JournalHeader::from_json_line(header.to_json_line());
  EXPECT_EQ(parsed.version, header.version);
  EXPECT_EQ(parsed.config_hash, header.config_hash);
  EXPECT_EQ(parsed.scenarios, header.scenarios);
}

TEST(JournalRecord, RowRoundTripIsBitExact) {
  const fs::path path = write_valid_journal("journal_roundtrip.palsj");
  const JournalReadReport report = read_journal(path.string());
  ASSERT_EQ(report.records.size(), 3u);
  EXPECT_FALSE(report.tail_dropped);

  const JournalRecord& row = report.records[0];
  const JournalRecord expected = row_record(0);
  EXPECT_EQ(row.kind, JournalRecord::Kind::kRow);
  EXPECT_EQ(row.row.instance, expected.row.instance);
  EXPECT_EQ(row.row.variant, expected.row.variant);
  // Bit-exact double recovery is what makes resumed CSVs byte-identical.
  EXPECT_EQ(row.row.load_balance, expected.row.load_balance);
  EXPECT_EQ(row.row.parallel_efficiency, expected.row.parallel_efficiency);
  EXPECT_EQ(row.row.normalized_energy, expected.row.normalized_energy);
  EXPECT_EQ(row.row.normalized_time, expected.row.normalized_time);
  EXPECT_EQ(row.row.normalized_edp, expected.row.normalized_edp);
  EXPECT_EQ(row.row.overclocked_fraction, expected.row.overclocked_fraction);
}

TEST(JournalRecord, ErrorRoundTripPreservesMultilineMessage) {
  const fs::path path = write_valid_journal("journal_error.palsj");
  const JournalReadReport report = read_journal(path.string());
  const JournalRecord& error = report.records[1];
  const JournalRecord expected = error_record(1);
  EXPECT_EQ(error.kind, JournalRecord::Kind::kError);
  EXPECT_EQ(error.workload, expected.workload);
  EXPECT_EQ(error.variant, expected.variant);
  EXPECT_EQ(error.error_class, expected.error_class);
  EXPECT_EQ(error.attempts, expected.attempts);
  EXPECT_EQ(error.retries, expected.retries);
  EXPECT_EQ(error.backoff_seconds, expected.backoff_seconds);
  EXPECT_EQ(error.message, expected.message);
}

TEST(JournalRecord, HeartbeatRoundTripsAndStaysOutOfCellRecords) {
  const fs::path path = temp_journal("journal_heartbeat.palsj");
  fs::remove(path);
  JournalWriter writer = JournalWriter::create(path.string(), test_header());
  writer.append(heartbeat_record(0));
  writer.append(row_record(0));
  writer.append(heartbeat_record(1));
  writer.append(error_record(1));
  const JournalReadReport report = read_journal(path.string());
  // Heartbeats are liveness evidence, never cell outcomes: they are
  // collected separately and must not occupy (or shadow) cell slots.
  ASSERT_EQ(report.records.size(), 2u);
  ASSERT_EQ(report.heartbeats.size(), 2u);
  const JournalRecord& beat = report.heartbeats[1];
  const JournalRecord expected = heartbeat_record(1);
  EXPECT_EQ(beat.kind, JournalRecord::Kind::kHeartbeat);
  EXPECT_EQ(beat.index, expected.index);
  EXPECT_EQ(beat.shard, expected.shard);
  EXPECT_EQ(beat.cells_done, expected.cells_done);
  EXPECT_EQ(beat.unix_seconds, expected.unix_seconds);
}

TEST(JournalRead, HeartbeatSequenceIsUnboundedAndMayRepeat) {
  // A restarted worker begins a fresh heartbeat sequence in the same
  // journal, and sequence numbers are not grid indices: neither the
  // out-of-range check nor duplicate collapsing applies to them.
  const fs::path path = temp_journal("journal_heartbeat_seq.palsj");
  fs::remove(path);
  JournalWriter writer = JournalWriter::create(path.string(), test_header(2));
  writer.append(heartbeat_record(0));
  writer.append(heartbeat_record(99));  // >> scenarios
  JournalRecord repeat = heartbeat_record(0);
  repeat.cells_done = 7;  // same seq, different beat: both kept
  writer.append(repeat);
  const JournalReadReport report = read_journal(path.string());
  EXPECT_TRUE(report.records.empty());
  ASSERT_EQ(report.heartbeats.size(), 3u);
  EXPECT_EQ(report.heartbeats[2].cells_done, 7u);
}

TEST(JournalRead, TornFinalRecordIsDroppedNotFatal) {
  const fs::path path = write_valid_journal("journal_torn.palsj");
  const std::string text = slurp(path);
  // Cut the file mid-way through the last record, losing its newline —
  // the signature of a crash between write and fsync.
  spit(path, text.substr(0, text.size() - 9));
  const JournalReadReport report = read_journal(path.string());
  EXPECT_TRUE(report.tail_dropped);
  ASSERT_EQ(report.records.size(), 2u);
  EXPECT_EQ(report.records[0].index, 0u);
  EXPECT_EQ(report.records[1].index, 1u);
}

TEST(JournalRead, TornRecordDownToBareKindStillDrops) {
  const fs::path path = write_valid_journal("journal_torn2.palsj");
  const std::string text = slurp(path);
  const std::size_t last_line = text.rfind("R 2 ");
  spit(path, text.substr(0, last_line + 1));  // just "R", no newline
  const JournalReadReport report = read_journal(path.string());
  EXPECT_TRUE(report.tail_dropped);
  EXPECT_EQ(report.records.size(), 2u);
}

TEST(JournalRead, InteriorBitFlipThrowsChecksumError) {
  const fs::path path = write_valid_journal("journal_bitflip.palsj");
  std::string text = slurp(path);
  // Flip one payload byte of the *first* record (interior, terminated).
  const std::size_t at = text.find("CG-32");
  ASSERT_NE(at, std::string::npos);
  text[at] = 'X';
  spit(path, text);
  try {
    read_journal(path.string());
    FAIL() << "corrupted interior record must not be accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(JournalRead, InteriorGarbageLineThrows) {
  const fs::path path = write_valid_journal("journal_garbage.palsj");
  std::string text = slurp(path);
  const std::size_t second_line = text.find('\n') + 1;
  text.insert(second_line, "complete nonsense\n");
  spit(path, text);
  EXPECT_THROW(read_journal(path.string()), Error);
}

TEST(JournalRead, UnknownRecordKindThrows) {
  const fs::path path = write_valid_journal("journal_kind.palsj");
  std::string text = slurp(path);
  const std::size_t second_line = text.find('\n') + 1;
  // Well-formed token layout, bogus kind, interior position.
  text.insert(second_line, "Q 9 00000000 x\n");
  spit(path, text);
  EXPECT_THROW(read_journal(path.string()), Error);
}

TEST(JournalRead, IdenticalDuplicateCollapses) {
  const fs::path path = write_valid_journal("journal_dup.palsj");
  std::string text = slurp(path);
  // Re-append the final record verbatim (a crash after write+fsync but
  // before the in-memory bookkeeping could, in principle, replay it).
  const std::size_t last_line = text.rfind("R 2 ");
  text += text.substr(last_line);
  spit(path, text);
  const JournalReadReport report = read_journal(path.string());
  EXPECT_FALSE(report.tail_dropped);
  EXPECT_EQ(report.records.size(), 3u);
}

TEST(JournalRead, ConflictingDuplicateThrows) {
  const fs::path path = write_valid_journal("journal_conflict.palsj");
  std::string text = slurp(path);
  JournalRecord other = row_record(2);
  other.row.normalized_energy = 0.5;  // same cell, different result
  text += other.to_line() + "\n";
  spit(path, text);
  try {
    read_journal(path.string());
    FAIL() << "conflicting duplicate must not be accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("conflicting duplicate"),
              std::string::npos)
        << e.what();
  }
}

TEST(JournalRead, OutOfRangeIndexThrowsEvenOnTail) {
  const fs::path path = write_valid_journal("journal_range.palsj");
  std::string text = slurp(path);
  // A checksum-valid record for cell 99 of a 4-scenario journal, with
  // no trailing newline: the bytes are provably intact, so this is not
  // a torn append — it must be rejected, not dropped.
  const std::string line = row_record(99).to_line();
  text += line;
  spit(path, text);
  try {
    read_journal(path.string());
    FAIL() << "out-of-range record must not be accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
}

TEST(JournalRead, MissingFileThrows) {
  EXPECT_THROW(read_journal(temp_journal("journal_missing.palsj").string()),
               Error);
}

// Committed corpus: structural damage — header corruption in every
// variation, plus an interior heartbeat record with a wrong checksum.
// Mirrors tests/trace/corrupt/.
TEST(JournalCorpus, EveryFixtureYieldsStructuredError) {
  const fs::path dir =
      fs::path(PALS_SOURCE_DIR) / "tests" / "resume" / "corrupt";
  std::vector<fs::path> fixtures;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".palsj") fixtures.push_back(entry.path());
  std::sort(fixtures.begin(), fixtures.end());
  ASSERT_GE(fixtures.size(), 8u);
  for (const fs::path& fixture : fixtures) {
    try {
      read_journal(fixture.string());
      FAIL() << fixture.filename() << " must be rejected";
    } catch (const Error&) {
      // Structured error: exactly what the contract requires.
    } catch (...) {
      FAIL() << fixture.filename() << " threw a non-pals exception";
    }
  }
}

// Committed good fixture: a sharded worker's journal with heartbeats
// interleaved between cell records, including a sequence restart after
// a worker relaunch. Pins the on-disk spelling of "H" records — a
// format drift would break pals_shepherd against old run dirs.
TEST(JournalCorpus, InterleavedHeartbeatFixtureParses) {
  const fs::path fixture = fs::path(PALS_SOURCE_DIR) / "tests" / "resume" /
                           "fixtures" / "heartbeat_interleaved.palsj";
  const JournalReadReport report = read_journal(fixture.string());
  EXPECT_FALSE(report.tail_dropped);
  ASSERT_EQ(report.records.size(), 3u);
  EXPECT_EQ(report.records[0].kind, JournalRecord::Kind::kRow);
  EXPECT_EQ(report.records[1].kind, JournalRecord::Kind::kError);
  EXPECT_EQ(report.records[2].kind, JournalRecord::Kind::kRow);
  ASSERT_EQ(report.heartbeats.size(), 3u);
  EXPECT_EQ(report.heartbeats[0].shard, "1/3");
  EXPECT_EQ(report.heartbeats[0].index, 0u);
  EXPECT_EQ(report.heartbeats[1].index, 1u);
  // The third beat restarts the sequence: a relaunched worker.
  EXPECT_EQ(report.heartbeats[2].index, 0u);
  EXPECT_EQ(report.heartbeats[2].cells_done, 2u);
}

}  // namespace
}  // namespace pals
