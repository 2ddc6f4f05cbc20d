// pals::serve wire protocol: line-delimited JSON requests/responses.
//
// One request per line, one response line per request, over a
// Unix-domain socket (docs/serve.md). The parser is the daemon's first
// line of defense and is hardened against the committed torture corpus
// in tests/serve/corrupt/: every malformed line — truncated JSON, an
// oversized line, a wrong schema version, a non-finite parameter — maps
// to a structured ProtocolError (rendered as a `bad-request` response)
// instead of an exception escaping a worker.
//
// Determinism contract: a `query` request names exactly one sweep cell
// (workload x gear set x algorithm x beta x controller, plus optional
// platform overrides and a fault plan), and the `csv` member of an `ok`
// response is byte-identical to the row batch `pals_sweep --jobs=1`
// writes for the same cell (tests/serve/serve_torture_test.cpp pins it).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pals {
namespace serve {

/// Schema tag every request and response must carry; bumped on any
/// incompatible wire change.
inline constexpr const char* kSchema = "pals-serve-v1";

/// Hard bound on one request line (admission control for bytes, not just
/// requests): a peer that streams an unterminated line is cut off here.
inline constexpr std::size_t kMaxRequestBytes = 64 * 1024;

enum class RequestKind {
  kQuery,     ///< run one what-if cell
  kPing,      ///< liveness probe
  kStats,     ///< serve.* counters + cache + peak RSS
  kShutdown,  ///< begin a cooperative drain (same as SIGTERM)
};

/// Structured error taxonomy of the wire protocol (docs/serve.md).
enum class ErrorCode {
  kBadRequest,        ///< malformed or invalid request line
  kNotFound,          ///< unknown workload / gear set / algorithm / controller
  kOverloaded,        ///< admission control shed the request (retryable)
  kDeadlineExceeded,  ///< the per-request wall-clock budget expired
  kShuttingDown,      ///< daemon is draining; no new work accepted
  kInternal,          ///< unexpected failure answering the query
};

std::string to_string(ErrorCode code);

/// Parse/validation failure carrying the wire error code (and the request
/// id when one was recovered before the failure).
class ProtocolError : public Error {
 public:
  ProtocolError(ErrorCode error_code, const std::string& message,
                std::string request_id = "")
      : Error(message), code(error_code), id(std::move(request_id)) {}

  ErrorCode code;
  std::string id;
};

/// One decoded request line.
struct Request {
  RequestKind kind = RequestKind::kQuery;
  std::string id;  ///< echoed verbatim in the response ("" when absent)

  // --- query fields (defaults mirror analysis/sweep.hpp Scenario) ---------
  std::string workload;             ///< required for kQuery
  std::string gear_set = "uniform-6";
  std::string algorithm = "max";
  std::string controller = "static";
  double beta = 0.5;
  int iterations = 0;               ///< 0 = server default
  /// Wall-clock budget, milliseconds; 0 = server default, capped by the
  /// server's maximum either way.
  double deadline_ms = 0.0;
  /// Optional inline fault-plan spec (fault/fault_plan.hpp grammar).
  std::string faults;
  /// Optional platform/power overrides, in document order. Keys are the
  /// settings-table entries marked query_overridable
  /// (analysis/experiments.hpp Setting).
  std::vector<std::pair<std::string, double>> platform;

  /// Deterministic fingerprint of everything that changes the *baseline*
  /// replay (workload + platform overrides + fault plan) — the warm-cache
  /// key, so queries that share a baseline share one cached replay.
  std::string baseline_key(const std::string& workload_key) const;
};

/// Parse one request line. Throws ProtocolError (code kBadRequest) on
/// malformed JSON, an unsupported schema, unknown members, wrong types or
/// non-finite numbers. Name resolution (unknown workload, gear set, ...)
/// is the query layer's job — the parser only validates shape.
Request parse_request(const std::string& line);

// --- response rendering (single line, no trailing newline) ----------------

/// `ok` answer to a query: the structured row plus the byte-exact CSV data
/// line batch sweeps would write.
std::string render_query_ok(const std::string& id, const ExperimentRow& row,
                            double elapsed_ms);

/// `ok` answer to a ping.
std::string render_pong(const std::string& id);

/// `ok` answer to a stats request: "key":value counter members (sorted)
/// plus peak_rss_bytes.
std::string render_stats(const std::string& id,
                         const std::vector<std::pair<std::string,
                                                     std::uint64_t>>& stats);

/// `ok` acknowledgment of a shutdown request (sent before draining).
std::string render_shutdown_ack(const std::string& id);

/// Structured error response.
std::string render_error(const std::string& id, ErrorCode code,
                         const std::string& message);

/// The exact CSV data line (no header, no trailing newline) that
/// analysis/experiments.cpp rows_to_csv would emit for `row` — the
/// payload of the byte-identity contract.
std::string csv_data_line(const ExperimentRow& row);

/// Decoded view of a response line, for the client and the structural
/// validator. Throws ProtocolError (kBadRequest) when the line is not a
/// structurally valid pals-serve-v1 response.
struct ParsedResponse {
  std::string raw;  ///< the verbatim response line
  std::string id;
  bool ok = false;
  ErrorCode code = ErrorCode::kInternal;  ///< valid when !ok
  std::string message;                    ///< valid when !ok
  std::string csv;                        ///< valid for query ok
  bool has_stats = false;
  bool has_pong = false;
};

ParsedResponse parse_response(const std::string& line);

/// Structural validation of one request line without building a Request
/// (used by pals_json_check --serve); throws ProtocolError on violation.
void validate_request_line(const std::string& line);

}  // namespace serve
}  // namespace pals
