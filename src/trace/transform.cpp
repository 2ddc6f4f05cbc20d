#include "trace/transform.hpp"

#include "util/error.hpp"

namespace pals {

Trace scale_compute(const Trace& trace, std::span<const double> factor) {
  PALS_CHECK_MSG(factor.size() == static_cast<std::size_t>(trace.n_ranks()),
                 "factor count " << factor.size() << " != rank count "
                                 << trace.n_ranks());
  for (double f : factor)
    PALS_CHECK_MSG(f > 0.0, "compute scale factor must be positive");

  Trace out = trace;
  for (Rank r = 0; r < out.n_ranks(); ++r) {
    const double f = factor[static_cast<std::size_t>(r)];
    for (Event& e : out.mutable_events(r))
      if (auto* c = std::get_if<ComputeEvent>(&e)) c->duration *= f;
  }
  return out;
}

Trace scale_compute_uniform(const Trace& trace, double factor) {
  const std::vector<double> factors(static_cast<std::size_t>(trace.n_ranks()),
                                    factor);
  return scale_compute(trace, factors);
}

std::vector<std::vector<Seconds>> iteration_computation_times(
    const Trace& trace) {
  const std::size_t iterations = trace.iteration_count();
  PALS_CHECK_MSG(iterations > 0,
                 "iteration_computation_times requires iteration markers");
  std::vector<std::vector<Seconds>> out(
      iterations,
      std::vector<Seconds>(static_cast<std::size_t>(trace.n_ranks()), 0.0));
  for (Rank r = 0; r < trace.n_ranks(); ++r) {
    std::int32_t iteration = -1;
    for (const Event& e : trace.events(r)) {
      if (const auto* m = std::get_if<MarkerEvent>(&e)) {
        if (m->kind == MarkerKind::kIterationBegin) iteration = m->id;
        if (m->kind == MarkerKind::kIterationEnd) iteration = -1;
        continue;
      }
      const auto* c = std::get_if<ComputeEvent>(&e);
      if (!c || iteration < 0) continue;
      const auto i = static_cast<std::size_t>(iteration);
      PALS_CHECK_MSG(i < iterations,
                     "rank " << r << " iterates past rank 0's count");
      out[i][static_cast<std::size_t>(r)] += c->duration;
    }
  }
  return out;
}

}  // namespace pals
