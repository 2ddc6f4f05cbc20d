// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions (nothing inside the library is
// instrumented). A span's layer is the part of its name before the first
// '.', so "replay.scaled" belongs to the "replay" layer. Spans stay in
// memory until the run ends; a disabled tracer records nothing, which is
// how the untraced pass of the same code measures the tracing overhead.
// Single-threaded: the traced pass composes its cells serially.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  std::string layer() const { return name.substr(0, name.find('.')); }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Times the enclosing scope as one span; nested scopes become its
  /// children.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Seconds of each layer not covered by a child span, summed.
  std::map<std::string, double> self_seconds_by_layer() const;
  /// Durations of the spans named `name`, in recording order.
  std::vector<double> seconds_of(const std::string& name) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int open_ = -1;  ///< innermost open span
};

}  // namespace perfbench
