// Open-loop load generator for the serve workload.
//
// Queries are sent on their seeded schedule whether or not earlier ones
// have been answered: a fixed number of persistent connections take the
// next query as soon as it is due and they are free, so when the server
// falls behind, queries wait in the generator's queue and their latency,
// timed from when each was due, grows. The server is the library's own
// serve::Server, in process, on a Unix socket.
#pragma once

#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Outcome {
  double due = 0.0;   ///< seconds from phase start
  double sent = 0.0;  ///< when a connection sent it
  double done = 0.0;  ///< when its response line arrived
  /// Seconds the generator sent it after it could have been sent (due and
  /// a connection free): the generator's own lateness.
  double lag = 0.0;
  bool ok = false;
  std::string error;  ///< error code or protocol failure when !ok
  std::string csv;    ///< the response's csv member when ok
  double elapsed_ms = 0.0;  ///< the server's own elapsed_ms when ok

  double latency() const { return done - due; }
};

/// Send `queries` open-loop over `connections` connections to the server
/// at `socket_path`; outcomes are in query order.
std::vector<Outcome> run_open_loop(const std::string& socket_path,
                                   const std::vector<Query>& queries,
                                   int connections);

}  // namespace perfbench
