// pals_query — client for the pals_serve what-if daemon (docs/serve.md).
//
//   pals_query --socket=/tmp/pals.sock --workload=CG-32
//              [--gear-set=uniform-6] [--algorithm=max]
//              [--controller=static] [--beta=0.5] [--iterations=N]
//              [--deadline-ms=MS] [--faults=SPEC]
//              [--platform=latency=2e-6,buses=4] [--csv]
//   pals_query --socket=S --ping | --stats | --shutdown
//   pals_query --socket=S --requests=FILE [--out=FILE]
//   pals_query --socket=S --grid=FILE [--out=FILE] [--deadline-ms=MS]
//              [--faults=SPEC] [--platform=...]
//   pals_query --socket=S --chaos=N [--workload=SPEC]
//
// One request, one line: the default mode sends a single query and
// prints the row (or, with --csv, the byte-exact CSV a batch sweep
// would write). --requests replays a file of raw request lines — the
// malformed-request torture corpus drives the daemon's parser hardening
// this way — printing one response line each. --grid expands a sweep
// grid file (docs/sweep.md) into its canonical scenario order, queries
// every cell over one connection — each with the --deadline-ms, --faults
// and --platform given — and writes header+rows CSV byte-identical to
// `pals_sweep --jobs=1 --out` run with the same faults and a --config
// file of the same keys. --chaos opens N deliberately rude connections
// (half vanish before reading their reply, half quit mid-request-line)
// to exercise the daemon's disconnect handling; it never fails the run.
//
// Overload handling: an `overloaded` (or `shutting-down`) rejection is
// retried with capped exponential backoff (util/backoff.hpp,
// --retries/--retry-base-ms); exhausting the budget — or finding no
// daemon on the socket at all — exits 6 (unavailable, retryable) so
// scripts can distinguish "back off" from "broken".
//
// Exit codes: 0 ok, 1 query answered with a non-retryable error
// (bad-request, not-found, deadline-exceeded, internal), 2 usage,
// 6 unavailable (no daemon / still overloaded after retries).
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/experiments.hpp"
#include "analysis/sweep.hpp"
#include "serve/protocol.hpp"
#include "util/backoff.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/exit_codes.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"
#include "util/socketio.hpp"
#include "util/strings.hpp"

namespace pals {
namespace {

/// The CSV header line batch sweeps write (rows_to_csv of zero rows,
/// trailing newline stripped) — shared code, so it can never drift.
std::string csv_header() {
  std::string header = rows_to_csv({});
  while (!header.empty() && (header.back() == '\n' || header.back() == '\r'))
    header.pop_back();
  return header;
}

struct QuerySpec {
  std::string workload;
  std::string gear_set = "uniform-6";
  std::string algorithm = "max";
  std::string controller = "static";
  double beta = 0.5;
  int iterations = 0;
  double deadline_ms = 0.0;
  std::string faults;
  std::vector<std::pair<std::string, std::string>> platform;
};

std::string build_query_line(const QuerySpec& spec, const std::string& id) {
  std::string line = "{\"schema\":\"";
  line += serve::kSchema;
  line += "\",\"kind\":\"query\"";
  if (!id.empty()) line += ",\"id\":\"" + json_escape(id) + "\"";
  line += ",\"workload\":\"" + json_escape(spec.workload) + "\"";
  line += ",\"gear_set\":\"" + json_escape(spec.gear_set) + "\"";
  line += ",\"algorithm\":\"" + json_escape(spec.algorithm) + "\"";
  line += ",\"controller\":\"" + json_escape(spec.controller) + "\"";
  line += ",\"beta\":" + format_roundtrip(spec.beta);
  if (spec.iterations > 0)
    line += ",\"iterations\":" + std::to_string(spec.iterations);
  if (spec.deadline_ms > 0.0)
    line += ",\"deadline_ms\":" + format_roundtrip(spec.deadline_ms);
  if (!spec.faults.empty())
    line += ",\"faults\":\"" + json_escape(spec.faults) + "\"";
  if (!spec.platform.empty()) {
    line += ",\"platform\":{";
    for (std::size_t i = 0; i < spec.platform.size(); ++i) {
      if (i > 0) line += ",";
      line += "\"";
      line += json_escape(spec.platform[i].first);
      line += "\":";
      line += spec.platform[i].second;
    }
    line += "}";
  }
  line += "}";
  return line;
}

/// Transport failure (no daemon, connection lost mid-exchange, response
/// timeout) — mapped to ToolExit::kUnavailable at the top level.
class Unavailable : public Error {
 public:
  using Error::Error;
};

/// A connection to the daemon with one request in flight at a time.
class Client {
 public:
  Client(std::string socket_path, double timeout_seconds, int retries,
         const BackoffPolicy& backoff)
      : socket_path_(std::move(socket_path)),
        timeout_seconds_(timeout_seconds),
        retries_(retries),
        backoff_(backoff) {}

  /// Send one request line, return the parsed response. Retries
  /// `overloaded` / `shutting-down` rejections (and transport failures)
  /// with capped exponential backoff; throws Unavailable when the budget
  /// is exhausted.
  serve::ParsedResponse exchange(const std::string& request_line) {
    std::string last_failure = "no attempt made";
    for (int attempt = 0; attempt <= retries_; ++attempt) {
      if (attempt > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(backoff_.delay(attempt)));
      }
      try {
        serve::ParsedResponse response = exchange_once(request_line);
        if (!response.ok &&
            (response.code == serve::ErrorCode::kOverloaded ||
             response.code == serve::ErrorCode::kShuttingDown)) {
          stream_.reset();  // the daemon closed (or will); reconnect
          last_failure = to_string(response.code) + ": " + response.message;
          continue;
        }
        return response;
      } catch (const Unavailable& e) {
        stream_.reset();
        last_failure = e.what();
      }
    }
    throw Unavailable("daemon unavailable after " +
                      std::to_string(retries_ + 1) + " attempt(s): " +
                      last_failure);
  }

 private:
  serve::ParsedResponse exchange_once(const std::string& request_line) {
    if (!stream_) {
      try {
        stream_.emplace(UnixStream::connect(socket_path_));
      } catch (const Error& e) {
        throw Unavailable(e.what());
      }
    }
    if (!stream_->write_all(request_line + "\n"))
      throw Unavailable("daemon closed the connection before the request "
                        "was sent");
    std::string line;
    const ReadLineStatus status =
        stream_->read_line(line, serve::kMaxRequestBytes, timeout_seconds_);
    if (status == ReadLineStatus::kTimeout)
      throw Unavailable("no response within " +
                        format_fixed(timeout_seconds_, 1) + " s");
    if (status != ReadLineStatus::kLine)
      throw Unavailable("daemon closed the connection mid-response");
    return serve::parse_response(line);
  }

  std::string socket_path_;
  double timeout_seconds_;
  int retries_;
  BackoffPolicy backoff_;
  std::optional<UnixStream> stream_;
};

int finish_error(const serve::ParsedResponse& response) {
  std::cerr << "error (" << to_string(response.code)
            << "): " << response.message << '\n';
  return exit_code(ToolExit::kError);
}

int run_requests_file(Client& client, const std::string& path,
                      const std::string& out_path) {
  std::ifstream in(path);
  PALS_CHECK_MSG(in.good(), "cannot open requests file '" << path << "'");
  std::string line;
  std::string transcript;
  std::size_t sent = 0;
  std::size_t ok = 0;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    // Raw replay: the line goes over the wire verbatim — malformed lines
    // are the point (parser torture corpus).
    serve::ParsedResponse response;
    std::string rendered;
    try {
      response = client.exchange(line);
      rendered = response.ok
                     ? "ok id=" + response.id +
                           (response.csv.empty() ? "" : " csv=" + response.csv)
                     : "error id=" + response.id + " code=" +
                           to_string(response.code) + " message=" +
                           response.message;
      if (response.ok) ++ok;
    } catch (const serve::ProtocolError& e) {
      rendered = std::string("invalid-response: ") + e.what();
    }
    ++sent;
    transcript += rendered + "\n";
  }
  if (out_path.empty())
    std::cout << transcript;
  else
    atomic_write_file(out_path, transcript);
  std::cout << "requests: " << sent << " sent, " << ok << " ok, "
            << (sent - ok) << " rejected\n";
  return exit_code(ToolExit::kOk);
}

int run_grid(Client& client, const std::string& grid_path,
             const std::string& out_path, const QuerySpec& base) {
  const SweepGrid grid = SweepGrid::from_file(grid_path);
  const std::vector<Scenario> scenarios = grid.expand();
  std::string csv = csv_header() + "\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    QuerySpec spec = base;
    spec.workload = s.workload;
    spec.gear_set = s.gear_set;
    // algorithm_by_name spellings, not to_string display names.
    switch (s.algorithm) {
      case Algorithm::kMax: spec.algorithm = "max"; break;
      case Algorithm::kAvg: spec.algorithm = "avg"; break;
      case Algorithm::kEnergyOptimalMax:
        spec.algorithm = "energy-optimal";
        break;
    }
    spec.controller = s.controller;
    spec.beta = s.beta;
    spec.iterations = grid.iterations;
    const serve::ParsedResponse response =
        client.exchange(build_query_line(spec, "grid-" + std::to_string(i)));
    if (!response.ok) return finish_error(response);
    csv += response.csv + "\n";
  }
  if (out_path.empty())
    std::cout << csv;
  else
    atomic_write_file(out_path, csv);
  std::cerr << "grid: " << scenarios.size() << " cells served\n";
  return exit_code(ToolExit::kOk);
}

/// Deliberately rude clients: connect, misbehave, vanish. Exercises the
/// daemon's disconnect handling; transport errors are the expected
/// outcome, so none of them fail the run.
int run_chaos(const std::string& socket_path, int connections,
              const QuerySpec& spec) {
  int torn = 0;
  for (int i = 0; i < connections; ++i) {
    try {
      UnixStream stream = UnixStream::connect(socket_path);
      if (i % 2 == 0) {
        // Send a full query, then vanish without reading the reply.
        stream.write_all(build_query_line(spec, "chaos-" + std::to_string(i)) +
                         "\n");
      } else {
        // Quit mid-request-line (no terminating newline).
        stream.write_all("{\"schema\":\"pals-serve-v1\",\"kind\":\"qu");
      }
      stream.close();
      ++torn;
    } catch (const Error&) {
      // A daemon mid-drain refuses connects; that is chaos working.
    }
  }
  std::cout << "chaos: " << torn << "/" << connections
            << " rude connections torn down\n";
  return exit_code(ToolExit::kOk);
}

int run(int argc, char** argv) {
  CliParser cli;
  cli.add_option("socket", "daemon's Unix-domain socket path");
  cli.add_option("workload", "registry instance (CG-32) or inline spec "
                             "(lu:32:0.93:6)");
  cli.add_option("gear-set", "gear-set name", "uniform-6");
  cli.add_option("algorithm", "max | avg | energy-optimal", "max");
  cli.add_option("controller", "static | dynamic_max | dynamic_avg | "
                               "slack | ewma | jitter", "static");
  cli.add_option("beta", "β of the time model", "0.5");
  cli.add_option("iterations", "iteration count (0 = server default)", "0");
  cli.add_option("deadline-ms", "per-request wall budget (0 = server "
                                "default)", "0");
  cli.add_option("faults", "inline fault-plan spec applied to the "
                           "query's replays");
  cli.add_option("platform", "comma-separated platform overrides "
                             "(latency=2e-6,buses=4,...)");
  cli.add_flag("csv", "print the byte-exact CSV (header + row) instead "
                      "of the readable summary");
  cli.add_flag("ping", "liveness probe");
  cli.add_flag("stats", "print the daemon's serve.* counters");
  cli.add_flag("shutdown", "ask the daemon to drain and exit");
  cli.add_option("requests", "send each line of FILE verbatim, print one "
                             "response line each");
  cli.add_option("grid", "query every cell of a sweep grid file in "
                         "canonical order; write header+rows CSV");
  cli.add_option("chaos", "open N rude connections that vanish "
                          "mid-exchange (never fails)");
  cli.add_option("out", "write --requests/--grid output to FILE instead "
                        "of stdout");
  cli.add_option("timeout", "seconds to wait for each response", "120");
  cli.add_option("retries", "retry budget for overloaded/unavailable "
                            "exchanges", "4");
  cli.add_option("retry-base-ms", "backoff base delay (doubles per retry, "
                                  "capped at 1000 ms)", "50");
  cli.add_flag("help", "show usage");
  try {
    cli.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << cli.usage("pals_query");
    return exit_code(ToolExit::kUsage);
  }
  if (cli.get_flag("help")) {
    std::cout << cli.usage("pals_query");
    return exit_code(ToolExit::kOk);
  }
  if (!cli.has("socket")) {
    std::cerr << "need --socket\n" << cli.usage("pals_query");
    return exit_code(ToolExit::kUsage);
  }

  ignore_sigpipe();
  QuerySpec spec;
  spec.workload = cli.get_or("workload", "");
  spec.gear_set = cli.get_or("gear-set", "uniform-6");
  spec.algorithm = cli.get_or("algorithm", "max");
  spec.controller = cli.get_or("controller", "static");
  spec.beta = cli.get_double("beta", 0.5);
  spec.iterations = static_cast<int>(cli.get_int("iterations", 0));
  spec.deadline_ms = cli.get_double("deadline-ms", 0.0);
  spec.faults = cli.get_or("faults", "");
  if (cli.has("platform")) {
    for (const std::string& part : split(cli.get("platform"), ',')) {
      const std::string entry{trim(part)};
      if (entry.empty()) continue;
      const std::size_t eq = entry.find('=');
      PALS_CHECK_MSG(eq != std::string::npos && eq > 0,
                     "--platform entry '" << entry << "' is not key=value");
      spec.platform.emplace_back(std::string(trim(entry.substr(0, eq))),
                                 std::string(trim(entry.substr(eq + 1))));
    }
  }

  if (cli.has("chaos")) {
    if (spec.workload.empty()) spec.workload = "lu:8:0.9:2";
    return run_chaos(cli.get("socket"),
                     static_cast<int>(cli.get_int("chaos", 8)), spec);
  }

  const BackoffPolicy backoff{cli.get_double("retry-base-ms", 50.0) / 1000.0,
                              2.0, 1.0};
  Client client(cli.get("socket"), cli.get_double("timeout", 120.0),
                static_cast<int>(cli.get_int("retries", 4)), backoff);
  try {
    if (cli.get_flag("ping")) {
      const serve::ParsedResponse response = client.exchange(
          "{\"schema\":\"pals-serve-v1\",\"kind\":\"ping\",\"id\":\"ping\"}");
      if (!response.ok) return finish_error(response);
      PALS_CHECK_MSG(response.has_pong, "ping answered without a pong");
      std::cout << "pong\n";
      return exit_code(ToolExit::kOk);
    }
    if (cli.get_flag("stats")) {
      const serve::ParsedResponse response = client.exchange(
          "{\"schema\":\"pals-serve-v1\",\"kind\":\"stats\",\"id\":\"stats\"}");
      if (!response.ok) return finish_error(response);
      PALS_CHECK_MSG(response.has_stats, "stats answered without stats");
      std::cout << response.raw << '\n';
      return exit_code(ToolExit::kOk);
    }
    if (cli.get_flag("shutdown")) {
      const serve::ParsedResponse response = client.exchange(
          "{\"schema\":\"pals-serve-v1\",\"kind\":\"shutdown\","
          "\"id\":\"shutdown\"}");
      if (!response.ok) return finish_error(response);
      std::cout << "draining\n";
      return exit_code(ToolExit::kOk);
    }
    if (cli.has("requests"))
      return run_requests_file(client, cli.get("requests"),
                               cli.get_or("out", ""));
    if (cli.has("grid"))
      return run_grid(client, cli.get("grid"), cli.get_or("out", ""), spec);

    if (spec.workload.empty()) {
      std::cerr << "need --workload (or --ping/--stats/--shutdown/"
                   "--requests/--grid/--chaos)\n"
                << cli.usage("pals_query");
      return exit_code(ToolExit::kUsage);
    }
    const serve::ParsedResponse response =
        client.exchange(build_query_line(spec, "cli"));
    if (!response.ok) return finish_error(response);
    if (cli.get_flag("csv"))
      std::cout << csv_header() << "\n" << response.csv << "\n";
    else
      std::cout << response.raw << '\n';
    return exit_code(ToolExit::kOk);
  } catch (const Unavailable& e) {
    std::cerr << "unavailable: " << e.what() << '\n';
    return exit_code(ToolExit::kUnavailable);
  }
}

}  // namespace
}  // namespace pals

int main(int argc, char** argv) {
  try {
    return pals::run(argc, argv);
  } catch (const pals::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return pals::exit_code(pals::ToolExit::kError);
  }
}
