// Crash-safe filesystem primitives (util/fsio.hpp): atomic whole-file
// replacement, durable appends, and the journal's integrity hashes.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "scratch_dir.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"

namespace pals {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

fs::path temp_path(const std::string& name) {
  return scratch_dir() / name;
}

TEST(AtomicWriteFile, CreatesNewFile) {
  const fs::path path = temp_path("fsio_new.txt");
  fs::remove(path);
  atomic_write_file(path.string(), "hello\n");
  EXPECT_EQ(slurp(path), "hello\n");
}

TEST(AtomicWriteFile, ReplacesExistingContentWholesale) {
  const fs::path path = temp_path("fsio_replace.txt");
  atomic_write_file(path.string(), "old content, much longer than the new");
  atomic_write_file(path.string(), "new");
  EXPECT_EQ(slurp(path), "new");
}

TEST(AtomicWriteFile, LeavesNoTemporaryBehind) {
  const fs::path dir = temp_path("fsio_tmpdir");
  fs::create_directories(dir);
  for (const fs::directory_entry& e : fs::directory_iterator(dir))
    fs::remove(e.path());
  atomic_write_file((dir / "artifact.csv").string(), "a,b\n1,2\n");
  std::size_t entries = 0;
  for ([[maybe_unused]] const fs::directory_entry& e :
       fs::directory_iterator(dir))
    ++entries;
  EXPECT_EQ(entries, 1u);
}

TEST(AtomicWriteFile, EmptyContentIsValid) {
  const fs::path path = temp_path("fsio_empty.txt");
  atomic_write_file(path.string(), "");
  EXPECT_EQ(slurp(path), "");
  EXPECT_TRUE(fs::exists(path));
}

TEST(AtomicWriteFile, MissingDirectoryThrowsStructuredError) {
  EXPECT_THROW(
      atomic_write_file("/nonexistent-pals-dir/sub/artifact.txt", "x"),
      Error);
}

TEST(DurableFile, CreateAppendReopenAppend) {
  const fs::path path = temp_path("fsio_journal.log");
  fs::remove(path);
  {
    DurableFile file = DurableFile::create(path.string());
    file.append("one\n");
    file.sync();
    file.append("two\n");
    file.sync();
  }
  {
    DurableFile file = DurableFile::open_append(path.string());
    file.append("three\n");
    file.sync();
  }
  EXPECT_EQ(slurp(path), "one\ntwo\nthree\n");
}

TEST(DurableFile, OpenAppendMissingFileThrows) {
  EXPECT_THROW(
      DurableFile::open_append(temp_path("fsio_missing.log").string()), Error);
}

TEST(DurableFile, CreateTruncatesExisting) {
  const fs::path path = temp_path("fsio_trunc.log");
  atomic_write_file(path.string(), "stale");
  DurableFile file = DurableFile::create(path.string());
  file.append("fresh");
  file.close();
  EXPECT_EQ(slurp(path), "fresh");
}

TEST(Checksums, Crc32MatchesIeeeCheckValue) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_NE(crc32("pals"), crc32("palt"));
}

TEST(Checksums, Fnv1a64MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(fnv1a64("config-a"), fnv1a64("config-b"));
}

TEST(Checksums, ToHexIsFixedWidthLowercase) {
  EXPECT_EQ(to_hex(0xCBF43926u, 8), "cbf43926");
  EXPECT_EQ(to_hex(0x1u, 8), "00000001");
  EXPECT_EQ(to_hex(0xcbf29ce484222325ull, 16), "cbf29ce484222325");
}

}  // namespace
}  // namespace pals
