#include "serve/query.hpp"

#include <optional>
#include <utility>

#include "analysis/sweep.hpp"
#include "fault/guard.hpp"
#include "fault/injector.hpp"

namespace pals {
namespace serve {

WarmEntry make_warm_entry(Trace trace, const ReplayConfig& config) {
  WarmEntry entry;
  entry.trace = std::move(trace);
  entry.program = ReplayProgram(entry.trace);
  entry.baseline = replay(entry.trace, entry.program, config);
  entry.baseline.messages = std::vector<MessageRecord>();
  entry.baseline.collectives = std::vector<CollectiveRecord>();
  return entry;
}

ExperimentRow QueryEngine::execute(const Request& request,
                                   double deadline_seconds) {
  // Resolve every name first: an unknown workload / gear set / algorithm /
  // controller is the caller's typo, answered not-found without touching
  // the cache or burning any replay time. The request's cell is composed
  // exactly as a sweep composes its cells (Scenario::cell_config), and
  // the same Scenario labels the row.
  std::optional<WorkloadRef> workload;
  Scenario scenario;
  scenario.workload = request.workload;
  scenario.gear_set = request.gear_set;
  scenario.beta = request.beta;
  scenario.controller = request.controller;
  PipelineConfig config;
  try {
    workload = resolve_workload(request.workload,
                                request.iterations > 0
                                    ? request.iterations
                                    : options_.default_iterations);
    scenario.algorithm = algorithm_by_name(request.algorithm);
    config = scenario.cell_config(options_.base);
  } catch (const Error& e) {
    throw ProtocolError(ErrorCode::kNotFound, e.what(), request.id);
  }

  // Per-request fault plan; the injector must outlive both the baseline
  // build and the scenario replay (ReplayConfig::faults is non-owning).
  std::optional<fault::Injector> injector;
  if (!request.faults.empty()) {
    try {
      fault::FaultPlan plan = fault::FaultPlan::parse(request.faults);
      plan.validate();
      injector.emplace(std::move(plan));
    } catch (const Error& e) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          std::string("bad fault plan: ") + e.what(),
                          request.id);
    }
  }

  // Platform overrides go through the settings table, as a --config
  // overlay would have set them for the batch run.
  config.replay.faults = injector ? &*injector : nullptr;
  config.replay.max_wall_seconds = deadline_seconds;
  try {
    for (const auto& [key, value] : request.platform)
      apply_setting(config, key, value);
    config.validate();
  } catch (const Error& e) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        std::string("configuration rejected: ") + e.what(),
                        request.id);
  }

  try {
    // Baseline (trace build + reference replay) from the warm cache,
    // keyed by everything that changes it: workload, platform overrides,
    // fault plan. The wall watchdog is armed during a cold build too — a
    // deadline that expires there throws, the cache drops the key, and a
    // later, more patient query rebuilds it.
    const std::shared_ptr<const WarmEntry> warm =
        cache_.get(request.baseline_key(workload->key), [&]() {
          return make_warm_entry(workload->build(), config.replay);
        });

    const PipelineResult pipeline =
        run_pipeline(warm->trace, warm->program, config, warm->baseline);

    return flatten_result(pipeline, workload->display,
                          scenario.variant_label());
  } catch (const ProtocolError&) {
    throw;
  } catch (const Error& e) {
    if (fault::classify(e) == fault::ErrorClass::kTimeout)
      throw ProtocolError(ErrorCode::kDeadlineExceeded, e.what(), request.id);
    throw;  // the server answers kInternal
  }
}

}  // namespace serve
}  // namespace pals
