// Malicious devices — the paper's declared future work (§VIII):
//
//   "we plan to extend our characterization to take into account malicious
//    devices. In particular, we will study the presence of collusion of
//    malicious devices whose aim would be to prevent an impacted device to
//    be detected by the monitoring application."
//
// The trajectories the characterizer consumes are *claims* made by peers;
// nothing in the DSN'14 model authenticates them. A TrajectoryShaper is the
// adversary: it rewrites its colluders' claims interval after interval, so
// what a colluder reports at k becomes its honest-looking position at k-1
// of the next interval. A monitor remembers the previous snapshot, so the
// fabricated structure has to be built by FOLLOWING the victim through
// time, which is exactly what a real collusion would do. The hostile
// scenario suite (sim/hostile) drives it to target verdict flips and
// BudgetExhausted verdicts; bench_adversary shapes one interval (k-1, then
// k) per trial to score the attacks against the clone filter
// (adversary/defense).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/device_set.hpp"
#include "common/rng.hpp"
#include "core/params.hpp"
#include "core/point.hpp"

namespace acn {

enum class TrajectoryAttack : std::uint8_t {
  /// Colluders continuously shadow the victim's reported trajectory inside
  /// a tight jitter ball. When the victim suffers a genuinely isolated
  /// anomaly, the shadows jump with it and claim a_k = true: the victim's
  /// trajectory sits inside a fabricated tau-dense motion, Theorem 5 cannot
  /// fire, and the verdict flips isolated -> massive (the §VIII attack).
  kShadowCrowd,
  /// Colluders hold a chain of tau-sized clusters trailing the victim at
  /// ~1.5r spacing: no cluster is dense alone, every adjacent pair fits one
  /// 2r window — a long run of pairwise-overlapping maximal dense motions
  /// whose disjoint-collection combinatorics is the Theorem-7 search's
  /// worst case. Targets Corollary-8/ BudgetExhausted outcomes on the
  /// victim instead of a clean flip.
  kSuperpositionBomb,
  /// Colluders claim fresh uniform positions (and a_k = true) every
  /// interval: untargeted chaff that floods A_k with fake isolated
  /// anomalies and degrades precision. Colluders inside a genuine massive
  /// event starve its dense motions below tau this way, so its honest
  /// devices mis-report isolated failures (a support-desk flood).
  kScatterChaff,
};

[[nodiscard]] constexpr const char* to_string(TrajectoryAttack s) noexcept {
  switch (s) {
    case TrajectoryAttack::kShadowCrowd: return "shadow-crowd";
    case TrajectoryAttack::kSuperpositionBomb: return "superposition-bomb";
    case TrajectoryAttack::kScatterChaff: return "scatter-chaff";
  }
  return "?";
}

class TrajectoryShaper {
 public:
  struct Config {
    TrajectoryAttack strategy = TrajectoryAttack::kShadowCrowd;
    /// Devices the adversary controls; their claims are rewritten in place
    /// every interval.
    std::vector<DeviceId> colluders;
    Params model;
    /// Claim tightness as a fraction of r: shadow-ball radius for
    /// kShadowCrowd, intra-cluster jitter for kSuperpositionBomb.
    double claim_jitter = 0.35;
    /// Cluster spacing of kSuperpositionBomb as a fraction of the 2r
    /// window. 0.75 puts adjacent clusters 1.5r apart: one window covers a
    /// pair, none covers a triple.
    double chain_spacing = 0.75;
    std::uint64_t seed = 1;
  };

  /// Throws std::invalid_argument unless the model validates, claim_jitter
  /// is finite and >= 0, and chain_spacing lies in (0, 1]; NaN fails both.
  explicit TrajectoryShaper(Config config);

  /// Rewrites the colluders' claimed positions for the closing interval, in
  /// place. `claimed` holds the fleet's monitor-visible positions (the
  /// victim's entry is read as the shadowing target). `victim` is the
  /// device whose verdict is targeted this interval (nullopt: targeted
  /// strategies freeze their claims); `victim_abnormal` says whether the
  /// victim reported a_k = true. Returns the colluders claiming a_k = true
  /// this interval, ascending: all of them when the victim is abnormal (and
  /// always under kScatterChaff), none otherwise. Throws
  /// std::invalid_argument on a colluder or victim id outside `claimed`.
  std::vector<DeviceId> shape(std::optional<DeviceId> victim,
                              bool victim_abnormal,
                              std::vector<Point>& claimed);

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  /// Per-colluder persistent offsets (chain cluster + fixed jitter), built
  /// on first use once the space dimension is known.
  void build_offsets(std::size_t dim);

  Config config_;
  Rng rng_;
  std::vector<Point> offset_;  ///< per colluder, relative to the victim
  bool offsets_built_ = false;
};

}  // namespace acn
