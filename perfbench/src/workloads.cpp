#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/strings.hpp"

namespace perfbench {

double Rng::uniform() {
  return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double Rng::exponential(double rate) {
  return -std::log1p(-uniform()) / rate;
}

std::size_t Rng::below(std::size_t n) {
  return std::min(n - 1, static_cast<std::size_t>(uniform() *
                                                  static_cast<double>(n)));
}

Zipf::Zipf(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument("Zipf over no ranks");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

std::size_t Zipf::sample(Rng& rng) const {
  const double u = rng.uniform();
  return static_cast<std::size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

double Zipf::probability(std::size_t k) const {
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

namespace {

// Distinct streams per workload, so one seed never makes two workloads
// draw the same numbers.
constexpr std::uint64_t kStaticStream = 0x57A71C;
constexpr std::uint64_t kDynamicStream = 0xD1A1;
constexpr std::uint64_t kServeStream = 0x5E4E;

/// A load-balance target drawn from [centre - 0.01, centre + 0.01), at
/// three decimals so the workload spec (and every row's instance name) is
/// short. The range is narrow so a seed changes every row but not the
/// amount of work, which would move the timings from seed to seed.
std::string draw_lb(Rng& rng, double centre) {
  return pals::format_fixed(centre - 0.01 + 0.02 * rng.uniform(), 3);
}

}  // namespace

SweepWorkload sweep_static(std::uint64_t seed) {
  Rng rng(seed ^ kStaticStream);
  pals::SweepGrid grid;
  // 128 ranks but four iterations: at 24 iterations a cell's replay ran
  // out of cache, and its time swung by a third with the host's other
  // load; at four it stays within a few percent.
  grid.iterations = 4;
  grid.workloads = {"cg:128:" + draw_lb(rng, 0.9) + ":4",
                    "cg:128:" + draw_lb(rng, 0.8) + ":4",
                    "bt-mz:128:" + draw_lb(rng, 0.5) + ":4"};
  grid.gear_sets = {"uniform-6", "avg-discrete"};
  grid.algorithms = {pals::Algorithm::kMax, pals::Algorithm::kAvg};
  grid.betas = {0.3, 0.5};
  SweepWorkload workload;
  workload.scenarios = grid.expand();
  workload.iterations = grid.iterations;
  workload.journal = false;
  // One worker: two concurrent 128-rank replays contend for memory
  // bandwidth, which made cell latency swing with the host's other load.
  workload.jobs = 1;
  workload.tail_percentile = 90.0;
  return workload;
}

SweepWorkload sweep_dynamic(std::uint64_t seed) {
  Rng rng(seed ^ kDynamicStream);
  pals::SweepGrid grid;
  grid.iterations = 48;
  // Three sizes (1 : 2 : 4 events), so the median cell falls inside the
  // middle size rather than on a boundary between two.
  grid.workloads = {"amr-drift:16:" + draw_lb(rng, 0.7) + ":48",
                    "amr-drift:32:" + draw_lb(rng, 0.7) + ":48",
                    "amr-drift:32:" + draw_lb(rng, 0.7) + ":96"};
  grid.gear_sets = {"uniform-6", "avg-discrete"};
  grid.algorithms = {pals::Algorithm::kAvg};
  grid.controllers = {"static", "dynamic_max", "dynamic_avg", "slack", "ewma"};
  grid.betas = {0.3, 0.5, 0.7};
  SweepWorkload workload;
  workload.scenarios = grid.expand();
  workload.iterations = grid.iterations;
  workload.journal = true;
  // One worker: at two, concurrent cells slowed each other by a varying
  // amount, which moved the median cell by a fifth from run to run.
  workload.jobs = 1;
  // Cells of a few ms: a p99 would measure the host's scheduling hiccups.
  workload.tail_percentile = 90.0;
  return workload;
}

ServeWorkload serve_zipf(std::uint64_t seed) {
  Rng rng(seed ^ kServeStream);
  // Three families of similar replay cost, two load-balance targets each,
  // under four platform overrides: 24 baseline keys. 16 ranks keep a
  // cache entry near half a MiB; at 32 ranks the queries' replays ran out
  // of cache and their latency drifted with the host's other load.
  const char* families[] = {"cg", "mg", "lu"};
  const char* platforms[] = {"", ",\"platform\":{\"latency\":2e-05}",
                             ",\"platform\":{\"bandwidth\":1.25e+08}",
                             ",\"platform\":{\"latency\":2e-05,"
                             "\"bandwidth\":1.25e+08}"};
  std::vector<std::vector<std::string>> by_family;
  for (const char* family : families) {
    std::vector<std::string> keys;
    for (const double lb : {0.7, 0.9}) {
      const std::string spec =
          std::string(family) + ":16:" + draw_lb(rng, lb) + ":4";
      for (const char* platform : platforms)
        keys.push_back("\"workload\":\"" + spec + "\"" + platform);
    }
    // Seeded popularity within the family.
    for (std::size_t i = keys.size() - 1; i > 0; --i)
      std::swap(keys[i], keys[rng.below(i + 1)]);
    by_family.push_back(std::move(keys));
  }
  // Popularity ranks alternate between families, so the seed moves which
  // keys are hot without moving the mix of replay costs.
  ServeWorkload workload;
  workload.seed = seed;
  for (std::size_t i = 0; i < by_family[0].size(); ++i)
    for (const auto& keys : by_family) workload.key_fragments.push_back(keys[i]);
  workload.zipf_s = 1.0;
  workload.cache_bytes = std::size_t{10} << 20;
  workload.tail_percentile = 95.0;
  return workload;
}

std::vector<Query> ServeWorkload::stream(double rate, double seconds,
                                         std::uint64_t phase) const {
  Rng rng(seed ^ kServeStream ^ (phase * 0x9E3779B97F4A7C15ULL));
  const Zipf zipf(key_fragments.size(), zipf_s);
  const char* gear_sets[] = {"uniform-6", "avg-discrete"};
  const char* algorithms[] = {"max", "avg"};
  const char* betas[] = {"0.3", "0.5", "0.7"};
  std::vector<Query> queries;
  double t = rng.exponential(rate);
  while (t < seconds) {
    Query q;
    q.due_seconds = t;
    q.key = zipf.sample(rng);
    q.cell = key_fragments[q.key] + ",\"gear_set\":\"" +
             gear_sets[rng.below(2)] + "\",\"algorithm\":\"" +
             algorithms[rng.below(2)] + "\",\"beta\":" + betas[rng.below(3)] +
             "}";
    q.line = "{\"schema\":\"pals-serve-v1\",\"kind\":\"query\",\"id\":\"" +
             std::to_string(phase) + "-" + std::to_string(queries.size()) +
             "\"," + q.cell;
    queries.push_back(std::move(q));
    t += rng.exponential(rate);
  }
  return queries;
}

}  // namespace perfbench
