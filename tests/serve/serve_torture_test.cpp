// The serve daemon's robustness battery, in process but over real
// Unix-domain sockets: admission control under overload, per-request
// deadlines, the malformed-request torture corpus on the wire, client
// disconnects mid-exchange, cooperative drain, crash-only socket
// takeover — and the determinism contract: rows served over the socket
// are byte-identical to `pals_sweep --jobs=1` batch rows, at 1 and 8
// worker threads.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/sweep.hpp"
#include "scratch_dir.hpp"
#include "serve/protocol.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/socketio.hpp"
#include "util/strings.hpp"

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace pals {
namespace serve {
namespace {

namespace fs = std::filesystem;

#ifndef _WIN32

/// One line out, one line back (5s cap so a wedged server fails the test
/// instead of hanging it).
ParsedResponse round_trip(UnixStream& stream, const std::string& line) {
  if (!stream.write_all(line + "\n")) throw Error("peer closed on write");
  std::string reply;
  const ReadLineStatus status = stream.read_line(reply, 1 << 20, 5.0);
  if (status != ReadLineStatus::kLine)
    throw Error("no response line (status " +
                std::to_string(static_cast<int>(status)) + ")");
  return parse_response(reply);
}

std::string query_line(const Scenario& scenario, int iterations,
                       const std::string& id) {
  const char* algorithm = "max";
  switch (scenario.algorithm) {
    case Algorithm::kMax: algorithm = "max"; break;
    case Algorithm::kAvg: algorithm = "avg"; break;
    case Algorithm::kEnergyOptimalMax: algorithm = "energy-optimal"; break;
  }
  std::string line = R"({"schema":"pals-serve-v1","id":")" + id + "\"";
  line += ",\"workload\":\"" + scenario.workload + "\"";
  line += ",\"gear_set\":\"" + scenario.gear_set + "\"";
  line += std::string(",\"algorithm\":\"") + algorithm + "\"";
  line += ",\"controller\":\"" + scenario.controller + "\"";
  line += ",\"beta\":" + format_roundtrip(scenario.beta);
  line += ",\"iterations\":" + std::to_string(iterations) + "}";
  return line;
}

/// Owns one in-process Server on a background thread; the fixture body
/// talks to it over real sockets.
class ServeTorture : public ::testing::Test {
 protected:
  void start(const std::function<void(ServerOptions&)>& customize = {}) {
    static std::atomic<int> sequence{0};
    socket_path_ = scratch_dir() /
                   ("serve_" + std::to_string(sequence.fetch_add(1)) + ".sock");
    fs::remove(socket_path_);
    ServerOptions options;
    options.socket_path = socket_path_.string();
    options.poll_seconds = 0.02;
    options.idle_timeout_seconds = 30.0;
    if (customize) customize(options);
    std::promise<void> ready;
    auto ready_future = ready.get_future();
    options.on_ready = [&ready] { ready.set_value(); };
    server_ = std::make_unique<Server>(std::move(options));
    thread_ = std::thread([this] { server_->run(); });
    ASSERT_EQ(ready_future.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "server never became ready";
  }

  void TearDown() override {
    if (server_ != nullptr) server_->request_drain();
    if (thread_.joinable()) thread_.join();
  }

  UnixStream connect() { return UnixStream::connect(socket_path_.string()); }

  std::uint64_t stat(const std::string& name) {
    for (const auto& [key, value] : server_->stats_rows())
      if (key == name) return value;
    ADD_FAILURE() << "no stats row named " << name;
    return 0;
  }

  fs::path socket_path_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST_F(ServeTorture, PingStatsAndShutdownAck) {
  start();
  UnixStream stream = connect();
  const ParsedResponse pong = round_trip(
      stream, R"({"schema":"pals-serve-v1","kind":"ping","id":"p"})");
  EXPECT_TRUE(pong.ok);
  EXPECT_TRUE(pong.has_pong);
  EXPECT_EQ(pong.id, "p");
  const ParsedResponse stats = round_trip(
      stream, R"({"schema":"pals-serve-v1","kind":"stats"})");
  EXPECT_TRUE(stats.has_stats);
  const ParsedResponse ack = round_trip(
      stream, R"({"schema":"pals-serve-v1","kind":"shutdown","id":"s"})");
  EXPECT_TRUE(ack.ok);
  stream.close();
  thread_.join();  // the ack started a drain; run() must return
  EXPECT_THROW(connect(), Error);  // socket unlinked after the drain
}

TEST_F(ServeTorture, ServedRowsAreByteIdenticalToBatchSweep) {
  const SweepGrid grid = SweepGrid::from_file(
      (fs::path(PALS_SOURCE_DIR) / "configs" / "serve_smoke.grid").string());
  const std::vector<Scenario> scenarios = grid.expand();
  SweepOptions options;
  options.jobs = 1;
  options.iterations = grid.iterations;
  const SweepResult reference = run_sweep(grid, options);
  ASSERT_EQ(reference.rows.size(), scenarios.size());

  // Serial server, one connection: canonical order, cold cache.
  start([](ServerOptions& server_options) { server_options.jobs = 1; });
  std::vector<std::string> served(scenarios.size());
  {
    UnixStream stream = connect();
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const ParsedResponse response = round_trip(
          stream,
          query_line(scenarios[i], grid.iterations, std::to_string(i)));
      ASSERT_TRUE(response.ok) << response.message;
      served[i] = response.csv;
    }
  }
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    EXPECT_EQ(served[i], csv_data_line(reference.rows[i])) << "cell " << i;

  // Parallel server, 8 racing connections: same bytes regardless of
  // worker count, arrival order or cache state.
  server_->request_drain();
  thread_.join();
  start([](ServerOptions& server_options) {
    server_options.jobs = 8;
    server_options.queue_limit = 16;
  });
  std::vector<std::string> parallel(scenarios.size());
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c)
    clients.emplace_back([&, c] {
      UnixStream stream = connect();
      for (std::size_t i = static_cast<std::size_t>(c); i < scenarios.size();
           i += 8) {
        const ParsedResponse response = round_trip(
            stream,
            query_line(scenarios[i], grid.iterations, std::to_string(i)));
        if (response.ok) parallel[i] = response.csv;
      }
    });
  for (std::thread& client : clients) client.join();
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    EXPECT_EQ(parallel[i], csv_data_line(reference.rows[i])) << "cell " << i;
}

TEST_F(ServeTorture, OverloadShedsWithRetryableResponse) {
  start([](ServerOptions& server_options) {
    server_options.jobs = 4;
    server_options.queue_limit = 1;
    server_options.debug_stall_seconds = 0.4;
  });
  UnixStream busy = connect();
  ASSERT_TRUE(busy.write_all(
      R"({"schema":"pals-serve-v1","workload":"cg:8:0.9:2","iterations":2})"
      "\n"));
  // Give the accept loop time to admit the busy connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  UnixStream shed = connect();
  std::string line;
  ASSERT_EQ(shed.read_line(line, 1 << 20, 5.0), ReadLineStatus::kLine);
  const ParsedResponse rejection = parse_response(line);
  EXPECT_FALSE(rejection.ok);
  EXPECT_EQ(rejection.code, ErrorCode::kOverloaded);
  EXPECT_GE(stat("shed"), 1u);
  // The admitted request still completes normally.
  std::string reply;
  ASSERT_EQ(busy.read_line(reply, 1 << 20, 10.0), ReadLineStatus::kLine);
  EXPECT_TRUE(parse_response(reply).ok);
}

TEST_F(ServeTorture, ExpiredDeadlineAnswersDeadlineExceeded) {
  start([](ServerOptions& server_options) {
    server_options.debug_stall_seconds = 0.1;
  });
  UnixStream stream = connect();
  const ParsedResponse response = round_trip(
      stream,
      R"({"schema":"pals-serve-v1","workload":"cg:8:0.9:2","iterations":2,)"
      R"("deadline_ms":1,"id":"dl"})");
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(response.id, "dl");
  EXPECT_GE(stat("deadline_exceeded"), 1u);
  // The connection survives; the same cell without a deadline succeeds.
  const ParsedResponse retry = round_trip(
      stream,
      R"({"schema":"pals-serve-v1","workload":"cg:8:0.9:2","iterations":2})");
  EXPECT_TRUE(retry.ok) << retry.message;
}

TEST_F(ServeTorture, TinyCacheBudgetEvictsAndStillAnswers) {
  start([](ServerOptions& server_options) {
    server_options.cache_bytes = 1;  // every baseline exceeds the budget
  });
  UnixStream stream = connect();
  for (const char* workload : {"cg:8:0.9:2", "lu:8:0.92:2", "cg:8:0.9:2"}) {
    const ParsedResponse response = round_trip(
        stream, std::string(R"({"schema":"pals-serve-v1","workload":")") +
                    workload + R"(","iterations":2})");
    EXPECT_TRUE(response.ok) << response.message;
  }
  EXPECT_GE(stat("cache_evictions"), 2u);
  const WarmCacheStats cache = server_->cache().stats();
  EXPECT_LE(cache.entries, 1u);
  EXPECT_EQ(cache.misses, 3u);  // the third query rebuilt the evicted key
}

TEST_F(ServeTorture, MalformedCorpusOverTheWireNeverKillsTheConnection) {
  start();
  const fs::path corpus =
      fs::path(PALS_SOURCE_DIR) / "tests" / "serve" / "corrupt";
  UnixStream stream = connect();
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (!entry.is_regular_file()) continue;
    ++files;
    std::ifstream in(entry.path());
    std::string line;
    std::getline(in, line);
    const ParsedResponse response = round_trip(stream, line);
    EXPECT_FALSE(response.ok) << entry.path().filename();
    EXPECT_EQ(response.code, ErrorCode::kBadRequest)
        << entry.path().filename();
  }
  EXPECT_GE(files, 10u);
  EXPECT_GE(stat("bad_requests"), files);
  // The same connection still answers a well-formed request.
  EXPECT_TRUE(round_trip(stream,
                       R"({"schema":"pals-serve-v1","kind":"ping"})")
                  .has_pong);
}

TEST_F(ServeTorture, OversizeLineIsRejectedAndTheConnectionClosed) {
  start();
  UnixStream stream = connect();
  // Far past the bound: read_line reads in chunks, so a line only barely
  // over it can still arrive complete (and is then rejected by the
  // parser, connection kept). An unterminated flood twice the bound
  // deterministically trips the kOversize cutoff instead.
  std::string line = R"({"schema":"pals-serve-v1","workload":")";
  line += std::string(2 * kMaxRequestBytes, 'x');
  line += "\"}";
  // The server may hang up before the whole flood is sent, so the write
  // can fail with EPIPE; its answer is queued before the close either way.
  stream.write_all(line + "\n");
  std::string reply;
  ASSERT_EQ(stream.read_line(reply, 1 << 20, 5.0), ReadLineStatus::kLine);
  const ParsedResponse response = parse_response(reply);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, ErrorCode::kBadRequest);
  // An unterminated-line flood cannot be resynchronized: the server must
  // hang up after answering.
  std::string next;
  EXPECT_EQ(stream.read_line(next, 1 << 20, 5.0), ReadLineStatus::kEof);
}

TEST_F(ServeTorture, ClientVanishingMidReplyIsSurvivable) {
  start([](ServerOptions& server_options) {
    server_options.debug_stall_seconds = 0.2;
  });
  {
    UnixStream hitrun = connect();
    ASSERT_TRUE(hitrun.write_all(
        R"({"schema":"pals-serve-v1","workload":"cg:8:0.9:2","iterations":2})"
        "\n"));
    // Destructor closes while the worker is still stalling; its eventual
    // write lands on a dead socket.
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  UnixStream stream = connect();
  EXPECT_TRUE(round_trip(stream,
                       R"({"schema":"pals-serve-v1","kind":"ping"})")
                  .has_pong);
}

TEST_F(ServeTorture, QueriesDuringDrainAnswerShuttingDown) {
  start();
  // Connect before the drain, then query: the worker either reads the
  // query (answering shutting-down) or notices the drain first and sends
  // the unprompted shutting-down notice — the client sees the same
  // structured rejection either way.
  UnixStream stream = connect();
  server_->request_drain();
  const ParsedResponse response = round_trip(
      stream,
      R"({"schema":"pals-serve-v1","workload":"cg:8:0.9:2","iterations":2})");
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, ErrorCode::kShuttingDown);
  stream.close();
  thread_.join();
}

TEST_F(ServeTorture, IdleConnectionsAreReaped) {
  start([](ServerOptions& server_options) {
    server_options.idle_timeout_seconds = 0.1;
  });
  UnixStream stream = connect();
  std::string line;
  // No request: the server must close the connection, not hold it open.
  EXPECT_EQ(stream.read_line(line, 1 << 20, 5.0), ReadLineStatus::kEof);
}

TEST_F(ServeTorture, StaleSocketFileIsReplacedOnStart) {
  // A SIGKILLed daemon leaves a bound-but-dead socket file; the next
  // start must take the path over instead of failing.
  const fs::path stale = scratch_dir() / "stale.sock";
  fs::remove(stale);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::snprintf(address.sun_path, sizeof(address.sun_path), "%s",
                stale.c_str());
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&address),
                   sizeof(address)),
            0);
  ::close(fd);  // closes the descriptor, leaves the file — the stale state
  ASSERT_TRUE(fs::exists(stale));

  ServerOptions options;
  options.socket_path = stale.string();
  options.poll_seconds = 0.02;
  std::promise<void> ready;
  auto ready_future = ready.get_future();
  options.on_ready = [&ready] { ready.set_value(); };
  Server server(std::move(options));
  std::thread thread([&server] { server.run(); });
  ASSERT_EQ(ready_future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  UnixStream stream = UnixStream::connect(stale.string());
  EXPECT_TRUE(round_trip(stream, R"({"schema":"pals-serve-v1","kind":"ping"})")
                  .has_pong);
  server.request_drain();
  thread.join();
}

TEST_F(ServeTorture, LivePathIsRefusedBySecondServer) {
  start();
  ServerOptions options;
  options.socket_path = socket_path_.string();
  Server second(std::move(options));
  EXPECT_THROW(second.run(), Error);
  // The loser must not have unlinked the winner's socket.
  UnixStream stream = connect();
  EXPECT_TRUE(round_trip(stream, R"({"schema":"pals-serve-v1","kind":"ping"})")
                  .has_pong);
}

// --- QueryEngine-level deadline + resolution errors (no sockets) ----------

TEST(QueryEngineErrors, WatchdogDeadlineDoesNotPoisonTheCache) {
  WarmCache cache(0);
  QueryEngine engine(QueryEngineOptions{}, cache);
  Request request;
  request.workload = "cg:8:0.9:2";
  request.iterations = 2;
  try {
    // A positive-but-unmeetable budget: the replay wall watchdog trips on
    // its first per-event check.
    engine.execute(request, 1e-9);
    FAIL() << "deadline never expired";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code, ErrorCode::kDeadlineExceeded);
  }
  EXPECT_EQ(cache.stats().failed_builds, 1u);
  // The failed build left no half-warm state: the retry succeeds.
  const ExperimentRow row = engine.execute(request, 0.0);
  EXPECT_GT(row.normalized_time, 0.0);
}

TEST(QueryEngineErrors, UnknownNamesAnswerNotFound) {
  WarmCache cache(0);
  QueryEngine engine(QueryEngineOptions{}, cache);
  const auto expect_not_found = [&engine](const Request& request) {
    try {
      engine.execute(request, 0.0);
      ADD_FAILURE() << "request was answered";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code, ErrorCode::kNotFound);
    }
  };
  Request request;
  request.iterations = 2;
  request.workload = "no-such-workload";
  expect_not_found(request);
  request.workload = "cg:8:0.9:2";
  request.gear_set = "warp-9";
  expect_not_found(request);
  request.gear_set = "uniform-6";
  request.algorithm = "fastest";
  expect_not_found(request);
  request.algorithm = "max";
  request.controller = "psychic";
  expect_not_found(request);
}

TEST(QueryEngineErrors, RejectedPlatformOverrideAnswersBadRequest) {
  WarmCache cache(0);
  QueryEngine engine(QueryEngineOptions{}, cache);
  Request request;
  request.workload = "cg:8:0.9:2";
  request.iterations = 2;
  request.platform.emplace_back("eager_threshold", -4.0);
  try {
    engine.execute(request, 0.0);
    FAIL() << "negative eager_threshold was accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code, ErrorCode::kBadRequest);
  }
}

#else  // _WIN32

TEST(ServeTorture, SkippedOnWindows) { GTEST_SKIP(); }

#endif

}  // namespace
}  // namespace serve
}  // namespace pals
