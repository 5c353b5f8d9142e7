// PolicyEngine — the deciding half of the adaptive tracking control plane.
//
// Consumes the WssEstimator's smoothed dirty-rate signal and picks the
// DirtyTracker backend for the *next* interval: a write-heavy phase wants
// EPML (per-write logging is cheap, collection is a ring read), a cold
// phase wants write-protection or /proc (no standing PML session; the few
// writes each pay a fault). The engine is a pure deterministic function of
// the signal plus its own hysteresis state — same seed, same decisions —
// and the switch itself is the DirtyTracker session's handoff at the
// interval boundary (the quiescent point), under the POL-1 invariant.
#pragma once

#include "ooh/adaptive/wss_estimator.hpp"
#include "ooh/tracker.hpp"

namespace ooh::lib {

struct PolicyConfig {
  /// Backend for write-heavy phases.
  Technique hot = Technique::kEpml;
  /// Backend for cold phases.
  Technique cold = Technique::kWp;
  /// Switch hot -> cold when the smoothed dirty rate falls below this
  /// (pages per virtual millisecond)...
  double cold_rate_threshold = 0.05;
  /// ...and cold -> hot when it rises above this. The gap is the
  /// hysteresis band: a rate inside it keeps the current backend.
  double hot_rate_threshold = 0.5;
  /// Windows to observe before the first decision (the EWMA needs data).
  u64 warmup_windows = 1;
  /// Minimum windows between two switches (flap damping).
  u64 min_windows_between_switches = 2;
};

class PolicyEngine {
 public:
  explicit PolicyEngine(const PolicyConfig& cfg = {}) : cfg_(cfg) {}

  /// The backend the next interval should run on. `current` is returned
  /// whenever the signal is still warming up, sits inside the hysteresis
  /// band, or a switch happened too recently.
  [[nodiscard]] Technique decide(const WssSignal& sig, Technique current);

  [[nodiscard]] const PolicyConfig& config() const noexcept { return cfg_; }
  /// Decisions that changed the backend.
  [[nodiscard]] u64 switches() const noexcept { return switches_; }

 private:
  PolicyConfig cfg_;
  u64 switches_ = 0;
  u64 last_switch_window_ = 0;
};

/// Constructor argument of an adaptive DirtyTracker session.
struct AdaptiveOptions {
  /// Backend the session starts on (the paper's default tracker, EPML).
  Technique initial = Technique::kEpml;
  PolicyConfig policy;
  /// EWMA weight of the newest window in the estimator.
  double estimator_alpha = 0.5;
};

}  // namespace ooh::lib
