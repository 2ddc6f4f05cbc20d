// The pals::serve daemon core — accept loop, admission control, workers.
//
// A single-process, multi-threaded query server over a Unix-domain
// socket. Design properties (docs/serve.md):
//
//  * Admission control: at most `queue_limit` connections are admitted
//    concurrently; excess connections are shed at accept time with a
//    structured `overloaded` response (serve.shed counts them) instead
//    of queuing unboundedly. Clients retry with capped exponential
//    backoff (util/backoff.hpp).
//  * Deadlines: every query runs under a wall-clock budget (request
//    deadline_ms, capped by the server maximum; server default when
//    absent) threaded into the replay engine's watchdog
//    (ReplayConfig::max_wall_seconds), so a pathological what-if answers
//    `deadline-exceeded` instead of wedging a worker.
//  * Crash-only lifecycle: SIGTERM/SIGINT (via ServerOptions::stop) or a
//    `shutdown` request starts a cooperative drain — the listener closes
//    (and unlinks its socket), in-flight requests finish, idle
//    connections are told `shutting-down` — and a daemon killed hard
//    instead leaves only a stale socket file the next start replaces
//    (UnixListener::bind_or_replace).
//  * Determinism: query rows come from serve::QueryEngine, which runs
//    the batch sweep's cell composition (Scenario::cell_config), so they
//    match batch rows byte-for-byte.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/cache.hpp"
#include "serve/query.hpp"
#include "util/socketio.hpp"

namespace pals {
namespace serve {

struct ServerOptions {
  std::string socket_path;
  /// Worker threads (util/thread_pool.hpp); 0 = hardware concurrency.
  int jobs = 0;
  /// Maximum concurrently admitted connections; connection `n+1` is shed
  /// with an `overloaded` response. One request is in flight per
  /// connection, so this bounds queued work too.
  int queue_limit = 32;
  /// WarmCache budget (bytes); 0 = unlimited.
  std::size_t cache_bytes = 256 * 1024 * 1024;
  /// Wall budget of a query that does not set deadline_ms (seconds;
  /// 0 = unlimited).
  double default_deadline_seconds = 30.0;
  /// Hard cap on any requested deadline (seconds; 0 = uncapped).
  double max_deadline_seconds = 300.0;
  /// Close a connection after this long without a complete request line.
  double idle_timeout_seconds = 30.0;
  /// Accept-/read-loop poll slice; small so a drain is noticed promptly.
  double poll_seconds = 0.2;
  /// Test hook: stall this long inside the worker before answering each
  /// query — makes overload and deadline expiry reproducible on a fast
  /// machine (pals_serve --debug-stall-ms).
  double debug_stall_seconds = 0.0;
  /// Query execution (base config + default iterations).
  QueryEngineOptions query;
  /// Daemon log lines ("serving on ...", final stats); null = silent.
  std::ostream* log = nullptr;
  /// External stop flag (set from a signal handler); polled every slice.
  const std::atomic<bool>* stop = nullptr;
  /// Invoked once the socket is bound and listening, before the first
  /// accept — pals_serve writes its --ready-file here so scripts can wait
  /// for readiness instead of polling the socket.
  std::function<void()> on_ready;
};

class Server {
 public:
  explicit Server(ServerOptions options);

  /// Bind the socket and serve until a drain is requested (stop flag or
  /// `shutdown` request), then finish in-flight work and return. Throws
  /// pals::Error when the socket cannot be bound (e.g. a live daemon
  /// already serves on the path).
  void run();

  /// Begin a cooperative drain from another thread (tests); idempotent.
  void request_drain() { drain_.store(true, std::memory_order_relaxed); }

  bool draining() const { return drain_.load(std::memory_order_relaxed); }

  /// Key-sorted serve.* counter values plus cache stats and peak RSS —
  /// the payload of a `stats` response, also usable in-process by tests.
  std::vector<std::pair<std::string, std::uint64_t>> stats_rows() const;

  WarmCache& cache() { return cache_; }

 private:
  /// Serve one admitted connection to completion (worker thread). Shared
  /// ownership because ThreadPool tasks are copyable std::functions.
  void handle_connection(const std::shared_ptr<UnixStream>& stream);
  /// Process one request line into a response line (no trailing '\n').
  std::string process_line(const std::string& line);

  ServerOptions options_;
  WarmCache cache_;
  QueryEngine engine_;
  std::atomic<bool> drain_{false};
  std::atomic<int> active_{0};

  // Lifetime counters (mirrored into obs::default_registry as serve.*).
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> query_ok_{0};
  std::atomic<std::uint64_t> query_errors_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
  std::atomic<std::uint64_t> client_disconnects_{0};
};

}  // namespace serve
}  // namespace pals
