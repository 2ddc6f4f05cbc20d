#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "serve/protocol.hpp"
#include "util/socketio.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Reading one response may take as long as the server's own deadline.
constexpr double kResponseTimeoutSeconds = 60.0;

double elapsed_ms_member(const std::string& line) {
  const std::string key = "\"elapsed_ms\":";
  const std::size_t at = line.find(key);
  return at == std::string::npos
             ? 0.0
             : std::strtod(line.c_str() + at + key.size(), nullptr);
}

void client(const std::string& socket_path, const std::vector<Query>& queries,
            std::vector<Outcome>& outcomes, std::atomic<std::size_t>& next,
            Clock::time_point start) {
  const auto since_start = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  pals::UnixStream stream;
  try {
    stream = pals::UnixStream::connect(socket_path);
  } catch (const std::exception& e) {
    for (std::size_t i = next.fetch_add(1); i < queries.size();
         i = next.fetch_add(1))
      outcomes[i].error = std::string("connect: ") + e.what();
    return;
  }
  std::string response;
  for (std::size_t i = next.fetch_add(1); i < queries.size();
       i = next.fetch_add(1)) {
    const Query& query = queries[i];
    Outcome& out = outcomes[i];
    out.due = query.due_seconds;
    const double free_at = since_start();
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(query.due_seconds)));
    out.sent = since_start();
    out.lag = out.sent - std::max(out.due, free_at);
    try {
      if (!stream.write_all(query.line + "\n"))
        throw std::runtime_error("server closed the connection");
      const pals::ReadLineStatus status = stream.read_line(
          response, 4 * pals::serve::kMaxRequestBytes, kResponseTimeoutSeconds);
      out.done = since_start();
      if (status != pals::ReadLineStatus::kLine)
        throw std::runtime_error("no response line");
      const pals::serve::ParsedResponse parsed =
          pals::serve::parse_response(response);
      out.ok = parsed.ok;
      if (parsed.ok) {
        out.csv = parsed.csv;
        out.elapsed_ms = elapsed_ms_member(response);
      } else {
        out.error = pals::serve::to_string(parsed.code) + ": " + parsed.message;
      }
    } catch (const std::exception& e) {
      out.done = since_start();
      out.error = e.what();
    }
  }
}

}  // namespace

std::vector<Outcome> run_open_loop(const std::string& socket_path,
                                   const std::vector<Query>& queries,
                                   int connections) {
  std::vector<Outcome> outcomes(queries.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c)
    clients.emplace_back(client, std::cref(socket_path), std::cref(queries),
                         std::ref(outcomes), std::ref(next), start);
  for (std::thread& t : clients) t.join();
  return outcomes;
}

}  // namespace perfbench
