#include "serve/protocol.hpp"

#include <cmath>
#include <set>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace pals {
namespace serve {

namespace {

[[noreturn]] void bad(const std::string& message, const std::string& id = "") {
  throw ProtocolError(ErrorCode::kBadRequest, message, id);
}

double finite_number(const JsonValue& value, const std::string& key,
                     const std::string& id) {
  if (!value.is_number())
    bad("member '" + key + "' must be a number", id);
  if (!std::isfinite(value.number))
    bad("member '" + key + "' is not finite", id);
  return value.number;
}

std::string string_member(const JsonValue& value, const std::string& key,
                          const std::string& id) {
  if (!value.is_string())
    bad("member '" + key + "' must be a string", id);
  return value.string;
}

}  // namespace

std::string to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kNotFound: return "not-found";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

namespace {

bool error_code_from_string(const std::string& name, ErrorCode& out) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kNotFound, ErrorCode::kOverloaded,
        ErrorCode::kDeadlineExceeded, ErrorCode::kShuttingDown,
        ErrorCode::kInternal}) {
    if (to_string(code) == name) {
      out = code;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string Request::baseline_key(const std::string& workload_key) const {
  std::string key = "pals-serve-baseline|" + workload_key;
  for (const auto& [name, value] : platform)
    key += "|" + name + "=" + format_roundtrip(value);
  if (!faults.empty()) key += "|faults=" + faults;
  return key;
}

Request parse_request(const std::string& line) {
  if (line.size() > kMaxRequestBytes)
    bad("request line of " + std::to_string(line.size()) +
        " bytes exceeds the " + std::to_string(kMaxRequestBytes) +
        "-byte bound");
  JsonValue document;
  try {
    document = json_parse(line);
  } catch (const Error& e) {
    bad(std::string("malformed JSON: ") + e.what());
  }
  if (!document.is_object()) bad("request must be a JSON object");

  // Recover the id first so even a rejected request echoes it back.
  std::string id;
  if (const JsonValue* member = document.find("id");
      member != nullptr && member->is_string())
    id = member->string;

  Request request;
  request.id = id;
  bool have_schema = false;
  std::set<std::string> seen;
  for (const auto& [key, value] : document.object) {
    if (!seen.insert(key).second)
      bad("duplicate member '" + key + "'", id);
    if (key == "schema") {
      have_schema = true;
      const std::string schema = string_member(value, key, id);
      if (schema != kSchema)
        bad("unsupported schema '" + schema + "' (this daemon speaks '" +
                kSchema + "')",
            id);
    } else if (key == "kind") {
      const std::string kind = string_member(value, key, id);
      if (kind == "query") request.kind = RequestKind::kQuery;
      else if (kind == "ping") request.kind = RequestKind::kPing;
      else if (kind == "stats") request.kind = RequestKind::kStats;
      else if (kind == "shutdown") request.kind = RequestKind::kShutdown;
      else bad("unknown kind '" + kind + "'", id);
    } else if (key == "id") {
      request.id = string_member(value, key, id);
    } else if (key == "workload") {
      request.workload = string_member(value, key, id);
    } else if (key == "gear_set") {
      request.gear_set = string_member(value, key, id);
    } else if (key == "algorithm") {
      request.algorithm = string_member(value, key, id);
    } else if (key == "controller") {
      request.controller = string_member(value, key, id);
    } else if (key == "beta") {
      request.beta = finite_number(value, key, id);
      if (request.beta < 0.0 || request.beta > 1.0)
        bad("beta must be within [0, 1]", id);
    } else if (key == "iterations") {
      const double iterations = finite_number(value, key, id);
      if (iterations < 0.0 || iterations > 1e6 ||
          iterations != std::floor(iterations))
        bad("iterations must be an integer within [0, 1e6]", id);
      request.iterations = static_cast<int>(iterations);
    } else if (key == "deadline_ms") {
      request.deadline_ms = finite_number(value, key, id);
      if (request.deadline_ms < 0.0)
        bad("deadline_ms must be >= 0", id);
    } else if (key == "faults") {
      request.faults = string_member(value, key, id);
    } else if (key == "platform") {
      if (!value.is_object())
        bad("member 'platform' must be an object", id);
      for (const auto& [pkey, pvalue] : value.object) {
        const Setting* setting = find_setting(pkey);
        if (setting == nullptr || !setting->query_overridable)
          bad("unknown platform override '" + pkey + "'", id);
        request.platform.emplace_back(
            pkey, finite_number(pvalue, "platform." + pkey, id));
      }
    } else {
      bad("unknown member '" + key + "'", id);
    }
  }
  if (!have_schema) bad("missing required member 'schema'", id);
  if (request.kind == RequestKind::kQuery && request.workload.empty())
    bad("a query needs a non-empty 'workload'", id);
  return request;
}

namespace {

std::string response_head(const std::string& id, const char* status) {
  std::string out = "{\"schema\":\"";
  out += kSchema;
  out += "\",\"id\":\"" + json_escape(id) + "\",\"status\":\"";
  out += status;
  out += "\"";
  return out;
}

}  // namespace

std::string csv_data_line(const ExperimentRow& row) {
  // Render through the real CSV writer so the bytes can never drift from
  // what batch sweeps emit; drop its header line and trailing newline.
  std::string csv = rows_to_csv({row});
  const std::size_t header_end = csv.find('\n');
  csv.erase(0, header_end + 1);
  while (!csv.empty() && (csv.back() == '\n' || csv.back() == '\r'))
    csv.pop_back();
  return csv;
}

std::string render_query_ok(const std::string& id, const ExperimentRow& row,
                            double elapsed_ms) {
  std::string out = response_head(id, "ok");
  out += ",\"instance\":\"" + json_escape(row.instance) + "\"";
  out += ",\"variant\":\"" + json_escape(row.variant) + "\"";
  const auto put = [&out](const char* key, double value) {
    out += ",\"";
    out += key;
    out += "\":" + format_roundtrip(value);
  };
  put("load_balance", row.load_balance);
  put("parallel_efficiency", row.parallel_efficiency);
  put("normalized_energy", row.normalized_energy);
  put("normalized_time", row.normalized_time);
  put("normalized_edp", row.normalized_edp);
  put("overclocked_fraction", row.overclocked_fraction);
  out += ",\"csv\":\"" + json_escape(csv_data_line(row)) + "\"";
  out += ",\"elapsed_ms\":" + format_fixed(elapsed_ms, 3);
  out += "}";
  return out;
}

std::string render_pong(const std::string& id) {
  return response_head(id, "ok") + ",\"pong\":true}";
}

std::string render_stats(
    const std::string& id,
    const std::vector<std::pair<std::string, std::uint64_t>>& stats) {
  std::string out = response_head(id, "ok") + ",\"stats\":{";
  bool first = true;
  for (const auto& [key, value] : stats) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += json_escape(key);
    out += "\":";
    out += std::to_string(value);
  }
  out += "}}";
  return out;
}

std::string render_shutdown_ack(const std::string& id) {
  return response_head(id, "ok") + ",\"draining\":true}";
}

std::string render_error(const std::string& id, ErrorCode code,
                         const std::string& message) {
  return response_head(id, "error") + ",\"code\":\"" + to_string(code) +
         "\",\"message\":\"" + json_escape(message) + "\"}";
}

ParsedResponse parse_response(const std::string& line) {
  JsonValue document;
  try {
    document = json_parse(line);
  } catch (const Error& e) {
    bad(std::string("malformed response JSON: ") + e.what());
  }
  if (!document.is_object()) bad("response must be a JSON object");
  const JsonValue* schema = document.find("schema");
  if (schema == nullptr || !schema->is_string() || schema->string != kSchema)
    bad("response carries no '" + std::string(kSchema) + "' schema member");
  ParsedResponse response;
  response.raw = line;
  if (const JsonValue* id = document.find("id");
      id != nullptr && id->is_string())
    response.id = id->string;
  const JsonValue* status = document.find("status");
  if (status == nullptr || !status->is_string())
    bad("response carries no 'status' member", response.id);
  if (status->string == "ok") {
    response.ok = true;
    if (const JsonValue* csv = document.find("csv"); csv != nullptr) {
      if (!csv->is_string()) bad("'csv' must be a string", response.id);
      response.csv = csv->string;
    }
    if (const JsonValue* stats = document.find("stats"); stats != nullptr) {
      if (!stats->is_object()) bad("'stats' must be an object", response.id);
      response.has_stats = true;
    }
    if (const JsonValue* pong = document.find("pong"); pong != nullptr) {
      if (!pong->is_bool()) bad("'pong' must be a boolean", response.id);
      response.has_pong = true;
    }
  } else if (status->string == "error") {
    response.ok = false;
    const JsonValue* code = document.find("code");
    if (code == nullptr || !code->is_string())
      bad("error response carries no 'code' member", response.id);
    if (!error_code_from_string(code->string, response.code))
      bad("unknown error code '" + code->string + "'", response.id);
    const JsonValue* message = document.find("message");
    if (message == nullptr || !message->is_string())
      bad("error response carries no 'message' member", response.id);
    response.message = message->string;
  } else {
    bad("status must be 'ok' or 'error', not '" + status->string + "'",
        response.id);
  }
  return response;
}

void validate_request_line(const std::string& line) {
  (void)parse_request(line);
}

}  // namespace serve
}  // namespace pals
