// Walkthrough of the paper's illustrative configurations (Figures 2, 3, 5):
// prints the maximal motions, the anomaly partitions found by exhaustive
// enumeration, and the local decisions — so you can follow §III-V of the
// paper with executable objects instead of pictures.
#include <cstdio>

#include "core/characterizer.hpp"
#include "core/partition_enumerator.hpp"

namespace {

acn::StatePair scene(const std::vector<std::pair<double, double>>& prev_curr) {
  std::vector<acn::Point> prev;
  std::vector<acn::Point> curr;
  std::vector<acn::DeviceId> all;
  for (std::size_t j = 0; j < prev_curr.size(); ++j) {
    prev.push_back(acn::Point{prev_curr[j].first});
    curr.push_back(acn::Point{prev_curr[j].second});
    all.push_back(static_cast<acn::DeviceId>(j));
  }
  return acn::StatePair(acn::Snapshot(prev), acn::Snapshot(curr), acn::DeviceSet(all));
}

void report(const char* title, const acn::StatePair& state, acn::Params params) {
  std::printf("=== %s (r=%.3f, tau=%u) ===\n", title, params.r, params.tau);

  acn::Characterizer characterizer(state, params);
  const acn::MotionPlane& plane = characterizer.plane();
  for (const acn::DeviceId j : state.abnormal()) {
    std::printf("  device %u maximal motions:", j);
    for (const acn::MotionPlane::MotionId mid : plane.maximal(j)) {
      std::printf(" %s", acn::DeviceSet(plane.members(mid)).to_string().c_str());
    }
    std::printf("\n");
  }

  const acn::PartitionEnumerator enumerator(state, params);
  const auto partitions = enumerator.enumerate_all();
  std::printf("  anomaly partitions (%zu):\n", partitions.size());
  for (const auto& partition : partitions) {
    std::printf("    %s\n", partition.to_string().c_str());
  }

  const auto sets = characterizer.characterize_all();
  std::printf("  local verdicts: M_k=%s I_k=%s U_k=%s\n\n",
              sets.massive.to_string().c_str(), sets.isolated.to_string().c_str(),
              sets.unresolved.to_string().c_str());
}

}  // namespace

int main() {
  // Figure 2: ten devices, four maximal motions, partition not unique but
  // every partition classifies the devices the same way (no unresolved).
  report("Figure 2 - non-unique anomaly partition",
         scene({{0.10, 0.50},
                {0.16, 0.55},
                {0.18, 0.52},
                {0.24, 0.56},
                {0.60, 0.20},
                {0.62, 0.22},
                {0.64, 0.24},
                {0.66, 0.21},
                {0.68, 0.23},
                {0.90, 0.90}}),
         {.r = 0.05, .tau = 3});

  // Figure 3: five devices in a chain; the omniscient observer cannot tell
  // which of the two partitions happened: devices 1 and 5 are unresolved
  // (Theorem 3, ACP impossibility).
  report("Figure 3 - unresolved configuration (Theorem 3)",
         scene({{0.10, 0.50}, {0.14, 0.51}, {0.16, 0.52}, {0.18, 0.53}, {0.22, 0.54}}),
         {.r = 0.05, .tau = 3});

  // Figure 5: the ring of pairs; Theorem 6 is silent, Theorem 7 still
  // certifies every device massive.
  report("Figure 5 - Theorem 7 beyond Theorem 6",
         scene({{0.10, 0.01},
                {0.11, 0.00},
                {0.20, 0.10},
                {0.21, 0.11},
                {0.10, 0.20},
                {0.11, 0.21},
                {0.00, 0.10},
                {0.01, 0.11}}),
         {.r = 0.075, .tau = 3});
  return 0;
}
