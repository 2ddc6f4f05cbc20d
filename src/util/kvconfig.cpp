#include "util/kvconfig.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pals {

KvConfig KvConfig::parse(std::istream& in) {
  KvConfig config;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments before splitting.
    if (const std::size_t hash = line.find('#'); hash != std::string::npos)
      line = line.substr(0, hash);
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;
    const std::size_t eq = trimmed.find('=');
    PALS_CHECK_MSG(eq != std::string_view::npos,
                   "config line " << line_no << ": expected key = value");
    const std::string key{trim(trimmed.substr(0, eq))};
    const std::string value{trim(trimmed.substr(eq + 1))};
    PALS_CHECK_MSG(!key.empty(), "config line " << line_no << ": empty key");
    PALS_CHECK_MSG(!config.values_.count(key),
                   "config line " << line_no << ": duplicate key '" << key
                                  << "'");
    config.values_[key] = value;
    config.order_.push_back(key);
  }
  return config;
}

KvConfig KvConfig::parse_file(const std::string& path) {
  std::ifstream in(path);
  PALS_CHECK_MSG(in.good(), "cannot open config file '" << path << "'");
  return parse(in);
}

bool KvConfig::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string KvConfig::get_string(const std::string& key) const {
  const auto it = values_.find(key);
  PALS_CHECK_MSG(it != values_.end(), "missing config key '" << key << "'");
  return it->second;
}

double KvConfig::get_double(const std::string& key) const {
  return parse_double(get_string(key));
}

long long KvConfig::get_int(const std::string& key) const {
  return parse_int(get_string(key));
}

long long KvConfig::get_int_or(const std::string& key,
                               long long fallback) const {
  return has(key) ? get_int(key) : fallback;
}

void KvConfig::require_known_keys(
    const std::vector<std::string>& known) const {
  std::ostringstream unknown;
  bool any = false;
  for (const std::string& key : order_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      unknown << (any ? ", " : "") << '\'' << key << '\'';
      any = true;
    }
  }
  PALS_CHECK_MSG(!any, "unknown config key(s): " << unknown.str());
}

}  // namespace pals
