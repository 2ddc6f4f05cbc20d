// Error handling primitives shared by all pals libraries.
//
// Invariant violations throw pals::Error (derived from std::runtime_error)
// so that tests can assert on failure and tools can print a clean message.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pals {

/// Exception type thrown for all precondition/invariant violations in pals.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// `file` (a __FILE__) relative to the source root, the directory that
/// holds src/: error texts name `src/analysis/experiments.cpp:32` however
/// and wherever the tree was built. The root is this header's own path
/// minus "src/util/error.hpp"; other paths pass through unchanged.
inline const char* source_relative(const char* file) {
  constexpr std::string_view self = __FILE__;
  constexpr std::string_view suffix = "src/util/error.hpp";
  if (!self.ends_with(suffix)) return file;
  const std::string_view root = self.substr(0, self.size() - suffix.size());
  return std::string_view(file).starts_with(root) ? file + root.size() : file;
}

[[noreturn]] inline void throw_check_failure(const char* expr, const char* file,
                                             int line, const std::string& msg) {
  std::ostringstream os;
  os << source_relative(file) << ':' << line << ": check failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

}  // namespace pals

/// PALS_CHECK(cond) / PALS_CHECK_MSG(cond, "context") — always-on invariant
/// checks. These guard API misuse; they are not disabled in release builds
/// because all hot loops in the simulator are check-free by construction.
#define PALS_CHECK(cond)                                                     \
  do {                                                                       \
    if (!(cond))                                                             \
      ::pals::detail::throw_check_failure(#cond, __FILE__, __LINE__, "");    \
  } while (0)

#define PALS_CHECK_MSG(cond, msg)                                            \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::ostringstream pals_check_os_;                                     \
      pals_check_os_ << msg;                                                 \
      ::pals::detail::throw_check_failure(#cond, __FILE__, __LINE__,         \
                                          pals_check_os_.str());             \
    }                                                                        \
  } while (0)
