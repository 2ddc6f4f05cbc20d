// Minimal key = value configuration files (platform/power descriptions
// for the CLI tools, in the spirit of Dimemas .cfg files).
//
//   # myrinet cluster
//   latency = 1e-5
//   bandwidth = 250e6
//
// '#' starts a comment; keys are unique; values are free text (typed
// accessors parse on demand).
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace pals {

class KvConfig {
public:
  /// Parse from a stream/file. Throws pals::Error on malformed lines or
  /// duplicate keys, with line numbers.
  static KvConfig parse(std::istream& in);
  static KvConfig parse_file(const std::string& path);

  bool has(const std::string& key) const;
  /// Typed accessors; throw on missing key or unparsable value.
  std::string get_string(const std::string& key) const;
  double get_double(const std::string& key) const;
  long long get_int(const std::string& key) const;

  long long get_int_or(const std::string& key, long long fallback) const;

  /// All keys in file order.
  const std::vector<std::string>& keys() const { return order_; }

  /// Throws listing any key not in `known` (typo detection).
  void require_known_keys(const std::vector<std::string>& known) const;

private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> order_;
};

}  // namespace pals
