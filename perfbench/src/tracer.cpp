#include "tracer.hpp"

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.spans_.size());
  Span span;
  span.name = std::move(name);
  span.parent = tracer_.open_;
  span.start_ns = tracer_.now_ns();
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = tracer_.now_ns();
  tracer_.open_ = span.parent;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& span : spans_)
    if (span.parent >= 0)
      child_seconds[static_cast<std::size_t>(span.parent)] += span.seconds();
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].layer()] += spans_[i].seconds() - child_seconds[i];
  return self;
}

std::vector<double> Tracer::seconds_of(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (span.name == name) out.push_back(span.seconds());
  return out;
}

}  // namespace perfbench
