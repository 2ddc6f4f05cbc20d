#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 *
      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

std::string Tail::label() const {
  std::string text = std::to_string(percentile);
  text.erase(text.find_last_not_of('0') + 1);
  if (text.back() == '.') text.pop_back();
  return "p" + text;
}

Tail tail(const std::vector<double>& samples, double max_percentile) {
  const double n = static_cast<double>(samples.size());
  double chosen = 50.0;
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (p <= max_percentile && n * (100.0 - p) / 100.0 >= 10.0 - 1e-9) {
      chosen = p;
      break;
    }
  }
  return Tail{chosen, percentile(samples, chosen), samples.size()};
}

}  // namespace perfbench
