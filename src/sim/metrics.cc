#include "sim/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/table.hpp"

namespace acn {

std::optional<double> safe_ratio(std::uint64_t num, std::uint64_t den) noexcept {
  if (den == 0) return std::nullopt;
  return static_cast<double>(num) / static_cast<double>(den);
}

std::string json_ratio(std::optional<double> ratio, double scale) {
  if (!ratio.has_value()) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", scale * *ratio);
  return buf;
}

std::string fmt_ratio(std::optional<double> ratio, int precision, double scale) {
  return ratio.has_value() ? fmt(scale * *ratio, precision) : "n/a";
}

StepMetrics tally_step(const std::vector<Decision>& decisions,
                       const DeviceSet& abnormal, const StepTruth& truth) {
  StepMetrics metrics;
  metrics.abnormal = abnormal.size();
  metrics.truly_isolated = truth.truly_isolated.size();
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const DeviceId j = abnormal[i];
    const Decision& decision = decisions[i];
    switch (decision.rule) {
      case DecisionRule::kTheorem5:
        ++metrics.isolated_thm5;
        metrics.motions_isolated.add(
            static_cast<double>(decision.maximal_motion_count));
        break;
      case DecisionRule::kTheorem6:
        ++metrics.massive_thm6;
        metrics.dense_motions_massive6.add(
            static_cast<double>(decision.dense_motion_count));
        break;
      case DecisionRule::kTheorem7:
        ++metrics.massive_thm7;
        metrics.collections_massive7.add(
            static_cast<double>(decision.collections_tested));
        break;
      case DecisionRule::kCorollary8:
        ++metrics.unresolved_cor8;
        metrics.collections_unresolved.add(
            static_cast<double>(decision.collections_tested));
        break;
      case DecisionRule::kTheorem6Only:
        ++metrics.unresolved_cor8;  // full NSC disabled: report as unresolved
        break;
      case DecisionRule::kBudgetExhausted:
        ++metrics.budget_exhausted;
        ++metrics.unresolved_cor8;
        break;
    }
    if (decision.cls == AnomalyClass::kMassive &&
        truth.truly_isolated.contains(j)) {
      ++metrics.missed_detection;
    }
  }
  return metrics;
}

StepMetrics evaluate_step(const ScenarioStep& step, Params model,
                          const CharacterizeOptions& options) {
  if (step.state.abnormal().empty()) {
    return tally_step({}, step.state.abnormal(), step.truth);
  }
  return tally_step(Characterizer(step.state, model, options).decide(),
                    step.state.abnormal(), step.truth);
}

StepMetrics evaluate_step(FrameEngine& engine, const ScenarioStep& step) {
  // The generator's stream is contiguous (step k's previous snapshot is
  // step k-1's current one), so the engine's rolling state stays aligned
  // with the scenario; the first step primes the engine. A misaligned feed
  // (engine reused across generators, skipped steps) would silently score
  // decisions against the wrong truth, so the contract is enforced: the
  // engine's S_k half must equal the step's S_{k-1} half, one O(n·d)
  // column comparison per step.
  if (!engine.primed()) {
    (void)engine.observe(step.state.prev(), DeviceSet{});
  } else if (const StatePair& rolled = engine.state();
             rolled.n() != step.state.n() || rolled.dim() != step.state.dim() ||
             !std::equal(step.state.joint_col(0), step.state.joint_col(rolled.dim()),
                         rolled.joint_col(rolled.dim()))) {
    throw std::invalid_argument(
        "evaluate_step: engine state is not aligned with the step's previous "
        "snapshot (one engine per contiguous scenario stream)");
  }
  const std::optional<FrameEngine::Result> result =
      engine.observe(step.state.curr(), step.state.abnormal());
  return tally_step(result.has_value() ? result->decisions
                                       : std::vector<Decision>{},
                    step.state.abnormal(), step.truth);
}

void RunMetrics::add(const StepMetrics& m) {
  abnormal.add(static_cast<double>(m.abnormal));
  if (m.abnormal > 0) {
    const auto pct = [&](std::size_t c) {
      return 100.0 * static_cast<double>(c) / static_cast<double>(m.abnormal);
    };
    isolated_share.add(pct(m.isolated_thm5));
    massive6_share.add(pct(m.massive_thm6));
    unresolved_share.add(pct(m.unresolved_cor8));
    massive7_share.add(pct(m.massive_thm7));
    unresolved_ratio.add(m.unresolved_ratio());
  }
  if (m.truly_isolated > 0) missed_rate.add(m.missed_detection_rate());
  missed_total += m.missed_detection;
  truly_isolated_total += m.truly_isolated;
  motions_isolated.merge(m.motions_isolated);
  dense_motions_massive6.merge(m.dense_motions_massive6);
  collections_unresolved.merge(m.collections_unresolved);
  collections_massive7.merge(m.collections_massive7);
  budget_exhausted += m.budget_exhausted;
}

}  // namespace acn
