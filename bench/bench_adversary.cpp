// Extension bench (§VIII future work): collusion attacks against the
// characterization, and the clone-filter countermeasure. For a sweep of
// colluder counts, measures the shadow-crowd attack's success probability
// (isolated victims silenced as "massive") and the scatter-chaff attack's
// success (massive events shredded into isolated verdicts), with and
// without the defense, plus the defense's collateral damage on honest
// workloads. Each trial shapes the colluders' claims with one
// TrajectoryShaper over one interval: at k-1, then at k
// (shaped_interval.hpp, which the adversary tests pin).
#include <cstdio>
#include <optional>
#include <vector>

#include "adversary/adversary.hpp"
#include "adversary/defense.hpp"
#include "common/table.hpp"
#include "core/characterizer.hpp"
#include "shaped_interval.hpp"
#include "sim/scenario.hpp"

namespace {

const acn::Params kModel{.r = 0.03, .tau = 3};
const acn::CloneFilter kFilter({.suspicion_factor = 0.2, .min_group = 3});

acn::ScenarioParams workload(std::uint64_t seed) {
  acn::ScenarioParams params;
  params.n = 600;
  params.d = 2;
  params.model = kModel;
  params.errors_per_step = 10;
  params.isolated_probability = 0.5;
  params.massive_anchor_retries = 16;
  params.seed = seed;
  return params;
}

}  // namespace

int main() {
  const std::uint64_t trials = 40;
  std::printf("# Collusion attacks vs the characterization (n=600, r=0.03, tau=3)\n");
  std::printf("# %llu trials per cell; defense = clone filter (0.2r, group >= 3)\n\n",
              static_cast<unsigned long long>(trials));

  acn::Table table({"colluders", "shadow-crowd success %", "with defense %",
                    "scatter-chaff success %", "honest collateral %"});
  for (const std::size_t colluders : {2u, 3u, 4u, 6u, 8u}) {
    std::uint64_t crowd_hits = 0;
    std::uint64_t crowd_hits_defended = 0;
    std::uint64_t crowd_trials = 0;
    std::uint64_t scatter_hits = 0;
    std::uint64_t scatter_trials = 0;
    std::uint64_t honest_flips = 0;
    std::uint64_t honest_verdicts = 0;

    for (std::uint64_t trial = 0; trial < trials; ++trial) {
      acn::ScenarioGenerator generator(workload(1000 + trial));
      const acn::ScenarioStep step = generator.advance();
      if (step.truth.abnormal.empty()) continue;

      // --- shadow-crowd: silence the first truly isolated victim.
      if (!step.truth.truly_isolated.empty()) {
        ++crowd_trials;
        const acn::DeviceId victim = step.truth.truly_isolated[0];
        acn::TrajectoryShaper::Config attack{.strategy = acn::TrajectoryAttack::kShadowCrowd,
                                             .model = kModel,
                                             .claim_jitter = 0.05,
                                             .seed = trial};
        // Colluders: healthy devices (never part of A_k).
        for (acn::DeviceId c = 0; c < step.state.n() && attack.colluders.size() < colluders; ++c) {
          if (!step.truth.abnormal.contains(c)) attack.colluders.push_back(c);
        }
        acn::TrajectoryShaper shaper(std::move(attack));
        const acn::StatePair observed =
            acn::bench::shape_interval(step.state, shaper, victim).observed;
        acn::Characterizer attacked(observed, kModel);
        if (attacked.characterize(victim).cls == acn::AnomalyClass::kMassive) {
          ++crowd_hits;
        }
        const acn::StatePair cleaned = kFilter.filtered(observed, kModel);
        if (cleaned.is_abnormal(victim)) {
          acn::Characterizer defended(cleaned, kModel);
          if (defended.characterize(victim).cls == acn::AnomalyClass::kMassive) {
            ++crowd_hits_defended;
          }
        }
        // A victim filtered out entirely counts as not silenced-by-massive.
      }

      // --- scatter-chaff: insiders of the first truly massive event scatter
      // their claims to shred it.
      for (const auto& event : step.truth.events) {
        if (!event.massive || event.devices.size() <= colluders) continue;
        ++scatter_trials;
        acn::TrajectoryShaper::Config attack{.strategy = acn::TrajectoryAttack::kScatterChaff,
                                             .model = kModel,
                                             .seed = trial};
        for (std::size_t i = 0; i < colluders; ++i) {
          attack.colluders.push_back(event.devices[i + 1]);
        }
        acn::TrajectoryShaper shaper(std::move(attack));
        const acn::StatePair observed =
            acn::bench::shape_interval(step.state, shaper, std::nullopt).observed;
        acn::Characterizer attacked(observed, kModel);
        if (attacked.characterize(event.devices[0]).cls ==
            acn::AnomalyClass::kIsolated) {
          ++scatter_hits;
        }
        break;  // one event per trial keeps cells comparable
      }

      // --- defense collateral on the untouched honest state.
      acn::Characterizer honest(step.state, kModel);
      const acn::StatePair cleaned = kFilter.filtered(step.state, kModel);
      acn::Characterizer filtered_chr(cleaned, kModel);
      for (const acn::DeviceId j : cleaned.abnormal()) {
        ++honest_verdicts;
        if (filtered_chr.characterize(j).cls != honest.characterize(j).cls) {
          ++honest_flips;
        }
      }
    }

    const auto pct = [](std::uint64_t hits, std::uint64_t total) {
      return total == 0 ? 0.0 : 100.0 * static_cast<double>(hits) / total;
    };
    table.add_row({acn::fmt(static_cast<double>(colluders), 0),
                   acn::fmt(pct(crowd_hits, crowd_trials), 1),
                   acn::fmt(pct(crowd_hits_defended, crowd_trials), 1),
                   acn::fmt(pct(scatter_hits, scatter_trials), 1),
                   acn::fmt(pct(honest_flips, honest_verdicts), 2)});
  }
  table.print();
  std::printf(
      "\n# Shape checks: shadow-crowd flips ~100%% once colluders >= tau and the\n"
      "# clone filter drives it back to ~0 with negligible honest collateral;\n"
      "# scatter-chaff needs enough insiders to starve every dense motion.\n");
  return 0;
}
