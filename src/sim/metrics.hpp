// Evaluation metrics of §VII: repartition of A_k across I_k / M_k / U_k with
// the deciding theorem (Table II), per-class computational cost (Table III),
// the unresolved ratio |U_k|/|A_k| (Figures 7 and 9), and the
// missed-detection rate against ground truth (Figure 8).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/stats.hpp"
#include "core/characterizer.hpp"
#include "core/frame.hpp"
#include "sim/scenario.hpp"

namespace acn {

/// num/den, or nullopt when the denominator is zero: a precision or recall
/// over an empty class is UNDEFINED — reporting it as 1.0 hides a scenario
/// that produced no positives at all, and dividing would make a NaN that
/// poisons downstream aggregation and is not even valid JSON.
[[nodiscard]] std::optional<double> safe_ratio(std::uint64_t num,
                                               std::uint64_t den) noexcept;

/// JSON rendering of a safe_ratio: "%.4f" (after scaling) or the literal
/// null. Emitters embed this verbatim as the field value.
[[nodiscard]] std::string json_ratio(std::optional<double> ratio,
                                     double scale = 1.0);

/// Table rendering of a safe_ratio: fmt(scale * r, precision) or "n/a".
[[nodiscard]] std::string fmt_ratio(std::optional<double> ratio,
                                    int precision = 3, double scale = 1.0);

/// Outcome of characterizing every device of one generated step.
struct StepMetrics {
  std::size_t abnormal = 0;

  // Repartition by deciding rule (Table II columns).
  std::size_t isolated_thm5 = 0;     ///< I_k via Theorem 5
  std::size_t massive_thm6 = 0;      ///< M_k via Theorem 6
  std::size_t unresolved_cor8 = 0;   ///< U_k via Corollary 8
  std::size_t massive_thm7 = 0;      ///< M_k that only Theorem 7 catches
  std::size_t budget_exhausted = 0;  ///< should stay 0 at paper scale

  // Cost accounting (Table III columns).
  RunningStat motions_isolated;        ///< |M(j)| over j in I_k
  RunningStat dense_motions_massive6;  ///< |W-bar(j)| over Theorem-6 devices
  RunningStat collections_unresolved;  ///< search nodes over Corollary-8 devices
  RunningStat collections_massive7;    ///< search nodes over Theorem-7 devices

  // Ground-truth comparison (Figure 8).
  std::size_t truly_isolated = 0;
  std::size_t missed_detection = 0;  ///< truly isolated but classified massive

  [[nodiscard]] double unresolved_ratio() const noexcept {
    return abnormal == 0 ? 0.0
                         : static_cast<double>(unresolved_cor8) /
                               static_cast<double>(abnormal);
  }
  [[nodiscard]] double missed_detection_rate() const noexcept {
    return truly_isolated == 0 ? 0.0
                               : static_cast<double>(missed_detection) /
                                     static_cast<double>(truly_isolated);
  }
};

/// Tallies one interval's decisions (A_k ascending order) against the
/// ground truth — the shared bookkeeping of both evaluation paths below.
[[nodiscard]] StepMetrics tally_step(const std::vector<Decision>& decisions,
                                     const DeviceSet& abnormal,
                                     const StepTruth& truth);

/// Characterizes all abnormal devices of `step` from scratch (under model
/// parameters `model`, normally ScenarioParams::model) and tallies the
/// metrics.
[[nodiscard]] StepMetrics evaluate_step(const ScenarioStep& step, Params model,
                                        const CharacterizeOptions& options = {});

/// Streams `step` through the incremental engine (priming it with the
/// step's previous snapshot on first use) and tallies the same metrics.
/// Decisions are byte-identical to evaluate_step; per-interval cost is the
/// engine's locality-bounded update instead of a from-scratch rebuild.
[[nodiscard]] StepMetrics evaluate_step(FrameEngine& engine,
                                        const ScenarioStep& step);

/// Aggregates step metrics across a run (means weighted per step).
struct RunMetrics {
  RunningStat abnormal;
  RunningStat isolated_share;    ///< |I_k| / |A_k| in percent
  RunningStat massive6_share;    ///< Theorem-6 share in percent
  RunningStat unresolved_share;  ///< Corollary-8 share in percent
  RunningStat massive7_share;    ///< Theorem-7 extra share in percent
  RunningStat unresolved_ratio;  ///< |U_k| / |A_k|
  RunningStat missed_rate;       ///< per-step missed / truly isolated
  // Pooled counters: per-step ratios are noisy when a step has only one or
  // two truly isolated devices (the G -> 0 regime of Figure 8).
  std::uint64_t missed_total = 0;
  std::uint64_t truly_isolated_total = 0;

  /// Pooled missed-detection rate across all steps.
  [[nodiscard]] double pooled_missed_rate() const noexcept {
    return truly_isolated_total == 0
               ? 0.0
               : static_cast<double>(missed_total) /
                     static_cast<double>(truly_isolated_total);
  }
  RunningStat motions_isolated;
  RunningStat dense_motions_massive6;
  RunningStat collections_unresolved;
  RunningStat collections_massive7;
  std::uint64_t budget_exhausted = 0;

  void add(const StepMetrics& m);
};

}  // namespace acn
