// Per-test scratch directories, so tests stay hermetic under `ctest -j`.
//
// scratch_dir() is <gtest TempDir>/pals.<Suite.Test>.<hash>.<pid>: unique
// per test and per process, created empty on first use in a test and removed
// when the process that created it exits. Parallel test processes, and
// repeated runs of one test (`ctest --repeat`), never share a path.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <system_error>

namespace pals {

inline const std::filesystem::path& scratch_dir() {
  namespace fs = std::filesystem;
  struct Created {
    pid_t owner = ::getpid();
    std::set<fs::path> dirs;
    ~Created() {
      if (::getpid() != owner) return;  // a forked child exiting
      std::error_code ignored;
      for (const fs::path& dir : dirs) fs::remove_all(dir, ignored);
    }
  };
  static Created created;

  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info == nullptr ? std::string("global")
                                     : std::string(info->test_suite_name()) +
                                           '.' + info->name();
  // Unix socket paths are capped near 108 bytes: keep a readable prefix
  // of the test name and disambiguate with its hash.
  char hash[17];
  std::snprintf(hash, sizeof hash, "%08zx",
                std::hash<std::string>{}(name) & 0xffffffffu);
  std::string label = name.substr(0, 32);
  for (char& c : label)
    if (c == '/') c = '_';  // parameterized names
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("pals." + label + '.' + hash + '.' + std::to_string(::getpid()));
  const auto [it, fresh] = created.dirs.insert(dir);
  if (fresh) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  return *it;
}

}  // namespace pals
