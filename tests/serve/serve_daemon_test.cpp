// Crash-only lifecycle of the real pals_serve binary, driven as a child
// process: SIGTERM drains cleanly (exit 0) including with a request in
// flight, SIGKILL leaves a stale socket the next start takes over, a
// second daemon on a live path refuses to start, and usage errors exit 2.
//
// The binary path arrives via the PALS_SERVE_BIN compile definition
// (tests/CMakeLists.txt).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "scratch_dir.hpp"
#include "serve/protocol.hpp"
#include "util/error.hpp"
#include "util/exit_codes.hpp"
#include "util/socketio.hpp"

#ifndef _WIN32
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace pals {
namespace serve {
namespace {

namespace fs = std::filesystem;

#ifndef _WIN32

class ServeDaemon : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_ = scratch_dir() / "daemon.sock";
    ready_ = scratch_dir() / "daemon.ready";
    fs::remove(socket_);
    fs::remove(ready_);
  }

  void TearDown() override {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  /// Fork/exec the daemon with stdout/stderr discarded; remembers the pid
  /// for TearDown's safety net.
  void spawn(const std::vector<std::string>& extra_args = {}) {
    std::vector<std::string> args = {PALS_SERVE_BIN,
                                     "--socket=" + socket_.string(),
                                     "--ready-file=" + ready_.string(),
                                     "--jobs=2"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    pid_ = ::fork();
    ASSERT_GE(pid_, 0);
    if (pid_ == 0) {
      std::freopen("/dev/null", "w", stdout);
      std::freopen("/dev/null", "w", stderr);
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (const std::string& arg : args)
        argv.push_back(const_cast<char*>(arg.c_str()));
      argv.push_back(nullptr);
      ::execv(PALS_SERVE_BIN, argv.data());
      std::_Exit(127);
    }
  }

  /// Block until the daemon writes its ready file (10s cap).
  void await_ready() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!fs::exists(ready_)) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "daemon never became ready";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  /// Reap the daemon; returns the exit code (128+N for death by signal).
  int wait_exit() {
    int status = 0;
    EXPECT_EQ(::waitpid(pid_, &status, 0), pid_);
    pid_ = -1;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
  }

  ParsedResponse exchange(UnixStream& stream, const std::string& line) {
    if (!stream.write_all(line + "\n")) throw Error("peer closed on write");
    std::string reply;
    if (stream.read_line(reply, 1 << 20, 10.0) != ReadLineStatus::kLine)
      throw Error("no response line");
    return parse_response(reply);
  }

  fs::path socket_;
  fs::path ready_;
  pid_t pid_ = -1;
};

TEST_F(ServeDaemon, SigtermDrainsAndExitsZero) {
  spawn();
  await_ready();
  {
    UnixStream stream = UnixStream::connect(socket_.string());
    EXPECT_TRUE(
        exchange(stream, R"({"schema":"pals-serve-v1","kind":"ping"})")
            .has_pong);
  }
  ASSERT_EQ(::kill(pid_, SIGTERM), 0);
  EXPECT_EQ(wait_exit(), 0);
  // A clean drain unlinks the socket.
  EXPECT_FALSE(fs::exists(socket_));
}

TEST_F(ServeDaemon, SigtermUnderLoadStillAnswersInFlightRequest) {
  spawn({"--debug-stall-ms=300"});
  await_ready();
  UnixStream stream = UnixStream::connect(socket_.string());
  ASSERT_TRUE(stream.write_all(
      R"({"schema":"pals-serve-v1","workload":"cg:8:0.9:2","iterations":2,)"
      R"("id":"inflight"})"
      "\n"));
  // Let the worker pick the request up, then pull the rug.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(::kill(pid_, SIGTERM), 0);
  std::string reply;
  ASSERT_EQ(stream.read_line(reply, 1 << 20, 10.0), ReadLineStatus::kLine);
  const ParsedResponse response = parse_response(reply);
  EXPECT_TRUE(response.ok) << response.message;
  EXPECT_EQ(response.id, "inflight");
  stream.close();
  EXPECT_EQ(wait_exit(), 0);
}

TEST_F(ServeDaemon, SigkillLeavesStaleSocketAndRestartTakesOver) {
  spawn();
  await_ready();
  ASSERT_EQ(::kill(pid_, SIGKILL), 0);
  EXPECT_EQ(wait_exit(), 128 + SIGKILL);
  // The crash-only signature: the socket file is still there, dead.
  EXPECT_TRUE(fs::exists(socket_));

  fs::remove(ready_);
  spawn();
  await_ready();  // bind_or_replace took the stale path over
  UnixStream stream = UnixStream::connect(socket_.string());
  EXPECT_TRUE(exchange(stream, R"({"schema":"pals-serve-v1","kind":"ping"})")
                  .has_pong);
  stream.close();
  ASSERT_EQ(::kill(pid_, SIGTERM), 0);
  EXPECT_EQ(wait_exit(), 0);
}

TEST_F(ServeDaemon, LiveSocketRefusesASecondDaemon) {
  spawn();
  await_ready();
  const std::string command = std::string(PALS_SERVE_BIN) +
                              " --socket=" + socket_.string() +
                              " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), exit_code(ToolExit::kError));
  // The loser must not have unlinked the winner's socket.
  UnixStream stream = UnixStream::connect(socket_.string());
  EXPECT_TRUE(exchange(stream, R"({"schema":"pals-serve-v1","kind":"ping"})")
                  .has_pong);
  stream.close();
  ASSERT_EQ(::kill(pid_, SIGTERM), 0);
  EXPECT_EQ(wait_exit(), 0);
}

TEST_F(ServeDaemon, MissingSocketFlagIsAUsageError) {
  const std::string command =
      std::string(PALS_SERVE_BIN) + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), exit_code(ToolExit::kUsage));
}

#else  // _WIN32

TEST(ServeDaemon, SkippedOnWindows) { GTEST_SKIP(); }

#endif

}  // namespace
}  // namespace serve
}  // namespace pals
