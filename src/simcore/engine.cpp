#include "simcore/engine.hpp"

#include <cstdio>
#include <string>

namespace pals {

void SimEngine::throw_event_limit() const {
  throw Error("simulated event limit exceeded (limit=" +
              std::to_string(event_limit_) +
              ", simulated time=" + std::to_string(now_) + "s)");
}

void SimEngine::arm_wall_limit() {
  if (wall_limit_seconds_ > 0.0)
    wall_start_ = std::chrono::steady_clock::now();
}

void SimEngine::check_wall_limit() const {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start_)
          .count();
  if (elapsed > wall_limit_seconds_) {
    // Only the configured limit appears in the message: elapsed time
    // varies run to run and would make quarantine records unstable.
    char limit[32];
    std::snprintf(limit, sizeof(limit), "%g", wall_limit_seconds_);
    throw Error(std::string("wall-clock watchdog expired (limit=") + limit +
                "s)");
  }
}

}  // namespace pals
