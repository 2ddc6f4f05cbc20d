#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/record.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace pals {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void bump(const char* name, std::atomic<std::uint64_t>& local) {
  local.fetch_add(1, std::memory_order_relaxed);
  obs::default_registry().counter(name).add();
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_bytes),
      engine_(options_.query, cache_) {}

void Server::run() {
  ignore_sigpipe();
  UnixListener listener = UnixListener::bind_or_replace(options_.socket_path);
  ThreadPool pool(options_.jobs);
  if (options_.log != nullptr)
    *options_.log << "pals_serve: serving on " << options_.socket_path
                  << " (workers " << pool.size() << ", queue limit "
                  << options_.queue_limit << ", cache budget "
                  << cache_.budget_bytes() << " bytes)\n"
                  << std::flush;
  if (options_.on_ready) options_.on_ready();

  const auto stop_requested = [this] {
    if (drain_.load(std::memory_order_relaxed)) return true;
    return options_.stop != nullptr &&
           options_.stop->load(std::memory_order_relaxed);
  };

  while (!stop_requested()) {
    UnixStream stream = listener.accept(options_.poll_seconds);
    if (!stream.valid()) continue;  // poll slice elapsed
    bump("serve.accepted", accepted_);
    if (active_.load(std::memory_order_relaxed) >= options_.queue_limit) {
      // Shed at admission: a bounded queue with an explicit, retryable
      // rejection beats an unbounded one with unbounded latency.
      bump("serve.shed", shed_);
      stream.write_all(
          render_error("", ErrorCode::kOverloaded,
                       "admission control: " +
                           std::to_string(options_.queue_limit) +
                           " connections already in flight; retry with "
                           "backoff") +
          "\n");
      continue;  // destructor closes
    }
    active_.fetch_add(1, std::memory_order_relaxed);
    auto shared = std::make_shared<UnixStream>(std::move(stream));
    pool.submit([this, shared] {
      handle_connection(shared);
      active_.fetch_sub(1, std::memory_order_relaxed);
    });
  }

  // Drain: connections the kernel already queued (at most one backlog,
  // so a stream of new clients cannot stall the drain) get the
  // shutting-down notice instead of a reset; then stop accepting (close +
  // unlink, so new connects fail fast), let in-flight connections finish,
  // then join the workers.
  for (int queued = 0; queued < UnixListener::kDefaultBacklog; ++queued) {
    UnixStream late = listener.accept(1e-3);
    if (!late.valid()) break;
    late.write_all(render_error("", ErrorCode::kShuttingDown,
                                "daemon is draining") +
                   "\n");
  }
  listener.close();
  while (active_.load(std::memory_order_relaxed) > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  if (options_.log != nullptr) {
    *options_.log << "pals_serve: drained";
    for (const auto& [key, value] : stats_rows())
      *options_.log << " " << key << "=" << value;
    *options_.log << "\n" << std::flush;
  }
}

void Server::handle_connection(const std::shared_ptr<UnixStream>& stream) {
  std::string line;
  double idle = 0.0;
  while (true) {
    const ReadLineStatus status =
        stream->read_line(line, kMaxRequestBytes, options_.poll_seconds);
    if (status == ReadLineStatus::kTimeout) {
      if (draining()) {
        stream->write_all(render_error("", ErrorCode::kShuttingDown,
                                       "daemon is draining") +
                          "\n");
        return;
      }
      idle += options_.poll_seconds;
      if (options_.idle_timeout_seconds > 0.0 &&
          idle >= options_.idle_timeout_seconds)
        return;  // silently drop the idle connection
      continue;
    }
    idle = 0.0;
    if (status == ReadLineStatus::kEof) {
      // Orderly close; a non-empty remainder means the client vanished
      // mid-line, which is its problem, not ours.
      if (!line.empty()) bump("serve.client_disconnects", client_disconnects_);
      return;
    }
    if (status == ReadLineStatus::kOversize) {
      bump("serve.bad_requests", bad_requests_);
      stream->write_all(
          render_error("", ErrorCode::kBadRequest,
                       "request line exceeds " +
                           std::to_string(kMaxRequestBytes) +
                           " bytes; closing (cannot resynchronize)") +
          "\n");
      return;  // the stream offset is lost; the line cannot be skipped
    }
    const std::string response = process_line(line);
    if (!stream->write_all(response + "\n")) {
      // Client disconnected mid-reply — survivable by design (SIGPIPE is
      // ignored and send reports EPIPE instead).
      bump("serve.client_disconnects", client_disconnects_);
      return;
    }
    if (draining()) return;
  }
}

std::string Server::process_line(const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const ProtocolError& e) {
    bump("serve.bad_requests", bad_requests_);
    return render_error(e.id, e.code, e.what());
  }
  switch (request.kind) {
    case RequestKind::kPing:
      return render_pong(request.id);
    case RequestKind::kStats:
      return render_stats(request.id, stats_rows());
    case RequestKind::kShutdown:
      request_drain();
      return render_shutdown_ack(request.id);
    case RequestKind::kQuery:
      break;
  }
  if (draining()) {
    return render_error(request.id, ErrorCode::kShuttingDown,
                        "daemon is draining; no new queries accepted");
  }
  bump("serve.queries", queries_);
  const Clock::time_point start = Clock::now();
  if (options_.debug_stall_seconds > 0.0) {
    // Test hook: consume the budget before the replay so overload and
    // deadline expiry are reproducible without a slow workload.
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.debug_stall_seconds));
  }
  double deadline = request.deadline_ms > 0.0 ? request.deadline_ms / 1000.0
                                              : options_.default_deadline_seconds;
  if (options_.max_deadline_seconds > 0.0)
    deadline = deadline > 0.0
                   ? std::min(deadline, options_.max_deadline_seconds)
                   : options_.max_deadline_seconds;
  double remaining = deadline;
  if (deadline > 0.0) {
    remaining = deadline - seconds_since(start);
    if (remaining <= 0.0) {
      bump("serve.deadline_exceeded", deadline_exceeded_);
      bump("serve.query_errors", query_errors_);
      return render_error(request.id, ErrorCode::kDeadlineExceeded,
                          "deadline of " + format_fixed(deadline * 1000.0, 3) +
                              " ms expired before the replay started");
    }
  }
  try {
    const ExperimentRow row = engine_.execute(request, remaining);
    bump("serve.query_ok", query_ok_);
    return render_query_ok(request.id, row, seconds_since(start) * 1000.0);
  } catch (const ProtocolError& e) {
    if (e.code == ErrorCode::kDeadlineExceeded)
      bump("serve.deadline_exceeded", deadline_exceeded_);
    bump("serve.query_errors", query_errors_);
    return render_error(request.id, e.code, e.what());
  } catch (const std::exception& e) {
    bump("serve.query_errors", query_errors_);
    return render_error(request.id, ErrorCode::kInternal, e.what());
  }
}

std::vector<std::pair<std::string, std::uint64_t>> Server::stats_rows() const {
  const WarmCacheStats cache = cache_.stats();
  std::vector<std::pair<std::string, std::uint64_t>> rows = {
      {"accepted", accepted_.load(std::memory_order_relaxed)},
      {"bad_requests", bad_requests_.load(std::memory_order_relaxed)},
      {"cache_bytes", cache.resident_bytes},
      {"cache_entries", cache.entries},
      {"cache_evictions", cache.evictions},
      {"cache_failed_builds", cache.failed_builds},
      {"cache_hits", cache.hits},
      {"cache_misses", cache.misses},
      {"client_disconnects",
       client_disconnects_.load(std::memory_order_relaxed)},
      {"deadline_exceeded", deadline_exceeded_.load(std::memory_order_relaxed)},
      {"peak_rss_bytes", obs::peak_rss_bytes()},
      {"queries", queries_.load(std::memory_order_relaxed)},
      {"query_errors", query_errors_.load(std::memory_order_relaxed)},
      {"query_ok", query_ok_.load(std::memory_order_relaxed)},
      {"shed", shed_.load(std::memory_order_relaxed)},
  };
  return rows;
}

}  // namespace serve
}  // namespace pals
