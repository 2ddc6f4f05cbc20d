// Benchmark inputs, generated from the run's seed.
//
// The seed drives the grid's load-balance targets, the key popularity of
// the serve stream and its arrival times; the library only ever sees the
// generated inputs (scenario lists and request lines). Random numbers
// come from std::mt19937_64, whose output sequence the standard fixes,
// converted to doubles here rather than through the implementation-
// defined std:: distributions, so a seed means the same inputs on every
// toolchain.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "analysis/sweep.hpp"

namespace perfbench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform on [0, 1) with 53 random bits.
  double uniform();
  /// Exponential with the given rate (mean 1 / rate).
  double exponential(double rate);
  /// Uniform integer on [0, n).
  std::size_t below(std::size_t n);

 private:
  std::mt19937_64 engine_;
};

/// Zipf(s) over ranks 0..n-1: P(k) proportional to 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(Rng& rng) const;
  double probability(std::size_t k) const;

 private:
  std::vector<double> cdf_;
};

/// A seeded sweep: the scenario list and how run_sweep is driven.
struct SweepWorkload {
  std::vector<pals::Scenario> scenarios;
  int iterations = 10;
  bool journal = false;  ///< fsync'd journal per run, bounds oracle armed
  int jobs = 2;          ///< run_sweep worker threads
  double tail_percentile = 90.0;  ///< declared cell-latency tail
};

/// Large comm-heavy traces (CG- and BT-MZ-class, 128 ranks) crossed with
/// many static cells (gear sets x MAX/AVG x beta).
SweepWorkload sweep_static(std::uint64_t seed);

/// Short drifting amr-drift traces crossed with all five controllers x
/// beta, journaled.
SweepWorkload sweep_dynamic(std::uint64_t seed);

/// One request of the serve stream.
struct Query {
  double due_seconds = 0.0;  ///< offset from the start of its phase
  std::size_t key = 0;       ///< baseline-key index (0 = most popular)
  std::string line;          ///< the request line (no newline)
  std::string cell;          ///< the line without its id: the cell asked for
};

/// The serve workload: a universe of baseline keys (workload x platform
/// override) with seeded Zipf popularity, and open-loop Poisson streams.
struct ServeWorkload {
  std::uint64_t seed = 0;
  /// Request-line fragments naming each key's workload and platform,
  /// most popular first.
  std::vector<std::string> key_fragments;
  double zipf_s = 1.0;
  /// WarmCache budget; below the working set of every key.
  std::size_t cache_bytes = 0;
  double tail_percentile = 95.0;

  /// Poisson arrivals at `rate` per second over `seconds`; keys follow the
  /// Zipf popularity, cell axes (gear set, algorithm, beta) are uniform.
  /// `phase` separates the streams of one run.
  std::vector<Query> stream(double rate, double seconds,
                            std::uint64_t phase) const;
};

ServeWorkload serve_zipf(std::uint64_t seed);

}  // namespace perfbench
