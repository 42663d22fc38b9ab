// MotionPlane equivalence: the snapshot-level plane must be an invisible
// optimization. Across randomized §VII-A workloads and degenerate
// geometries, per-device characterize() calls, the serial characterize_all()
// and decide() paths, and decide() fanned out over a 4-lane WorkerPool
// reading one externally owned plane must produce byte-identical
// CharacterizationSets and Decisions — same devices, same buckets,
// independent of scheduling. The per-family decisions are also checked
// against each device's D/J/L split and Theorem-6 rule computed straight
// from the definitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "core/characterizer.hpp"
#include "core/motion_plane.hpp"
#include "sim/scenario.hpp"
#include "support/test_util.hpp"

namespace acn {
namespace {

/// Buckets per-device characterize() calls on a fresh characterizer — the
/// seed's batch loop, kept as the reference shape.
CharacterizationSets per_device_reference(const StatePair& state, Params params) {
  Characterizer characterizer(state, params);
  CharacterizationSets sets;
  for (const DeviceId j : state.abnormal()) {
    switch (characterizer.characterize(j).cls) {
      case AnomalyClass::kIsolated:
        sets.isolated = sets.isolated.with(j);
        break;
      case AnomalyClass::kMassive:
        sets.massive = sets.massive.with(j);
        break;
      case AnomalyClass::kUnresolved:
        sets.unresolved = sets.unresolved.with(j);
        break;
    }
  }
  return sets;
}

void expect_same_decision(const Decision& a, const Decision& b, const std::string& label) {
  EXPECT_EQ(a.cls, b.cls) << label;
  EXPECT_EQ(a.rule, b.rule) << label;
  EXPECT_EQ(a.exact, b.exact) << label;
  EXPECT_EQ(a.maximal_motion_count, b.maximal_motion_count) << label;
  EXPECT_EQ(a.dense_motion_count, b.dense_motion_count) << label;
  EXPECT_EQ(a.collections_tested, b.collections_tested) << label;
}

void expect_all_paths_agree(const StatePair& state, Params params,
                            const std::string& label) {
  const CharacterizationSets reference = per_device_reference(state, params);

  Characterizer serial(state, params);
  const CharacterizationSets bulk = serial.characterize_all();
  EXPECT_EQ(bulk.isolated, reference.isolated) << label;
  EXPECT_EQ(bulk.massive, reference.massive) << label;
  EXPECT_EQ(bulk.unresolved, reference.unresolved) << label;

  // Shared plane, a 4-lane pool regardless of core count, and a parallel
  // grain of 1 so the pool fan-out genuinely runs even though these fleets
  // sit far below the production fall-back-to-serial threshold.
  WorkerPool pool(4);
  const MotionPlane plane(state, params);
  const Characterizer parallel(plane, {.parallel_grain = 1});
  const std::vector<Decision> parallel_decisions = parallel.decide(&pool);
  const CharacterizationSets pooled = bucket(state.abnormal(), parallel_decisions);
  EXPECT_EQ(pooled.isolated, reference.isolated) << label;
  EXPECT_EQ(pooled.massive, reference.massive) << label;
  EXPECT_EQ(pooled.unresolved, reference.unresolved) << label;

  // Decisions (not just buckets) must match field for field.
  const std::vector<Decision> serial_decisions = Characterizer(plane).decide();
  ASSERT_EQ(serial_decisions.size(), parallel_decisions.size()) << label;
  for (std::size_t i = 0; i < serial_decisions.size(); ++i) {
    expect_same_decision(serial_decisions[i], parallel_decisions[i], label);
  }
}

// ---------------------------------------------------------------------------
// Randomized §VII-A sweep across the paper's G axis (Figure 7's parameter).
// ---------------------------------------------------------------------------

struct SweepCase {
  std::uint64_t seed;
  double isolated_probability;  // G
};

class PlaneEquivalenceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PlaneEquivalenceSweep, AllPathsByteIdentical) {
  const auto& param = GetParam();
  ScenarioParams scenario;
  scenario.n = 400;
  scenario.errors_per_step = 12;
  scenario.isolated_probability = param.isolated_probability;
  scenario.seed = param.seed;

  ScenarioGenerator generator(scenario);
  for (int step_index = 0; step_index < 3; ++step_index) {
    const ScenarioStep step = generator.advance();
    expect_all_paths_agree(
        step.state, scenario.model,
        "seed=" + std::to_string(param.seed) +
            " G=" + std::to_string(param.isolated_probability) +
            " step=" + std::to_string(step_index));
  }
}

INSTANTIATE_TEST_SUITE_P(GAxis, PlaneEquivalenceSweep,
                         ::testing::Values(SweepCase{11, 0.0},   //
                                           SweepCase{12, 0.3},   //
                                           SweepCase{13, 0.5},   //
                                           SweepCase{14, 0.7},   //
                                           SweepCase{15, 1.0},   //
                                           SweepCase{16, 0.5},   //
                                           SweepCase{17, 0.0},   //
                                           SweepCase{18, 1.0}));

// ---------------------------------------------------------------------------
// Degenerate geometries.
// ---------------------------------------------------------------------------

TEST(PlaneEquivalenceDegenerateTest, EmptyAbnormalSet) {
  const StatePair state =
      test::make_state_1d({{0.1, 0.1}, {0.5, 0.5}}, DeviceSet{});
  const Params params{.r = 0.05, .tau = 2};

  const MotionPlane plane(state, params);
  EXPECT_EQ(plane.device_count(), 0u);
  EXPECT_EQ(plane.motion_count(), 0u);

  Characterizer characterizer(plane);
  const CharacterizationSets serial = characterizer.characterize_all();
  EXPECT_TRUE(serial.isolated.empty());
  EXPECT_TRUE(serial.massive.empty());
  EXPECT_TRUE(serial.unresolved.empty());
  WorkerPool pool(4);
  EXPECT_TRUE(characterizer.decide(&pool).empty());
}

TEST(PlaneEquivalenceDegenerateTest, AllIsolatedDevices) {
  // Far-apart devices: every family is a singleton, everyone Theorem-5.
  const StatePair state = test::make_state_1d(
      {{0.05, 0.90}, {0.25, 0.10}, {0.50, 0.45}, {0.75, 0.20}, {0.95, 0.60}});
  const Params params{.r = 0.02, .tau = 1};
  expect_all_paths_agree(state, params, "all-isolated");

  Characterizer characterizer(state, params);
  const CharacterizationSets sets = characterizer.characterize_all();
  EXPECT_EQ(sets.isolated.size(), 5u);
}

TEST(PlaneEquivalenceDegenerateTest, DenseBlobAcrossGridCellBoundaries) {
  // One tau-dense blob straddling the 2r grid-cell boundary at 0.1 (cell
  // side = window = 0.1): members land in different cells at k, and the
  // common displacement keeps them one motion. Every path must call the
  // whole blob massive.
  const StatePair state = test::make_state_1d({
      {0.095, 0.595},
      {0.098, 0.598},
      {0.100, 0.600},
      {0.102, 0.602},
      {0.105, 0.605},
      {0.108, 0.608},
  });
  const Params params{.r = 0.05, .tau = 3};
  expect_all_paths_agree(state, params, "blob-across-cells");

  Characterizer characterizer(state, params);
  const CharacterizationSets sets = characterizer.characterize_all();
  EXPECT_EQ(sets.massive.size(), 6u);

  // The blob's family is one interned motion shared by all six devices.
  const MotionPlane plane(state, params);
  EXPECT_EQ(plane.motion_count(), 1u);
  EXPECT_EQ(plane.counters().motions_shared, 5u);
}

// ---------------------------------------------------------------------------
// Per-family decisions against a per-device definitional reference.
// ---------------------------------------------------------------------------

/// j's D_k(j), J_k(j), L_k(j) and Theorem-6 outcome, from the definitions
/// over sorted member sets: D is the union of W-bar_k(j); ell in D joins J
/// iff every dense motion of ell contains j; Theorem 6 holds iff some
/// M in W-bar_k(j) meets J in more than tau devices.
struct DefinitionalSplit {
  DeviceSet d;
  DeviceSet j;
  DeviceSet l;
  bool theorem6 = false;
};

DefinitionalSplit definitional_split(const MotionPlane& plane, DeviceId j) {
  DefinitionalSplit out;
  for (const MotionPlane::MotionId mid : plane.dense(j)) {
    out.d = out.d.set_union(DeviceSet(plane.members(mid)));
  }
  std::vector<DeviceId> in_j;
  std::vector<DeviceId> in_l;
  for (const DeviceId ell : out.d) {
    bool all_contain_j = true;
    for (const MotionPlane::MotionId mid : plane.dense(ell)) {
      all_contain_j = all_contain_j && DeviceSet(plane.members(mid)).contains(j);
    }
    (all_contain_j ? in_j : in_l).push_back(ell);
  }
  out.j = DeviceSet(std::move(in_j));
  out.l = DeviceSet(std::move(in_l));
  for (const MotionPlane::MotionId mid : plane.dense(j)) {
    if (DeviceSet(plane.members(mid)).intersection_size(out.j) > plane.params().tau) {
      out.theorem6 = true;
    }
  }
  return out;
}

/// Checks neighbourhood_{d,j,l}, characterize(j), decide() and decide() on a
/// 4-lane pool with parallel_grain = 1 against the definitional reference,
/// field for field. Returns how many devices reached the Theorem-7 search.
std::size_t expect_family_decisions_match_reference(const StatePair& state, Params params,
                                                    const std::string& label) {
  const MotionPlane plane(state, params);
  const Characterizer characterizer(plane);
  WorkerPool pool(4);
  const std::vector<Decision> serial = characterizer.decide();
  const std::vector<Decision> pooled =
      Characterizer(plane, {.parallel_grain = 1}).decide(&pool);
  const DeviceSet& abnormal = state.abnormal();
  EXPECT_EQ(serial.size(), abnormal.size()) << label;
  EXPECT_EQ(pooled.size(), abnormal.size()) << label;
  if (serial.size() != abnormal.size() || pooled.size() != abnormal.size()) return 0;

  std::size_t searched = 0;
  for (std::size_t i = 0; i < abnormal.size(); ++i) {
    const DeviceId j = abnormal[i];
    const std::string at = label + " device " + std::to_string(j);
    const DefinitionalSplit ref = definitional_split(plane, j);
    EXPECT_EQ(characterizer.neighbourhood_d(j), ref.d) << at;
    EXPECT_EQ(characterizer.neighbourhood_j(j), ref.j) << at;
    EXPECT_EQ(characterizer.neighbourhood_l(j), ref.l) << at;

    const Decision single = characterizer.characterize(j);
    EXPECT_EQ(single.maximal_motion_count, plane.maximal(j).size()) << at;
    EXPECT_EQ(single.dense_motion_count, plane.dense(j).size()) << at;
    if (plane.dense(j).empty()) {
      EXPECT_EQ(single.rule, DecisionRule::kTheorem5) << at;
      EXPECT_EQ(single.cls, AnomalyClass::kIsolated) << at;
    } else if (ref.theorem6) {
      EXPECT_EQ(single.rule, DecisionRule::kTheorem6) << at;
      EXPECT_EQ(single.cls, AnomalyClass::kMassive) << at;
    } else {
      ++searched;
      EXPECT_TRUE(single.rule == DecisionRule::kTheorem7 ||
                  single.rule == DecisionRule::kCorollary8)
          << at << " rule " << to_string(single.rule);
      EXPECT_EQ(single.cls, single.rule == DecisionRule::kTheorem7
                                ? AnomalyClass::kMassive
                                : AnomalyClass::kUnresolved)
          << at;
      EXPECT_GE(single.collections_tested, 1u) << at;
    }
    if (single.rule != DecisionRule::kTheorem7 && single.rule != DecisionRule::kCorollary8) {
      EXPECT_EQ(single.collections_tested, 0u) << at;
    }
    EXPECT_TRUE(single.exact) << at;
    expect_same_decision(serial[i], single, at + " decide()");
    expect_same_decision(pooled[i], single, at + " decide(&pool)");
  }
  return searched;
}

/// `blobs` blob centres along the joint-space diagonal, `step` apart in
/// every coordinate, each with `per_blob` members jittered within `jitter`
/// of its centre at both instants. With step below the window, neighbouring
/// blobs share members: one component then holds several maximal motions,
/// and its devices split into several dense families. `groups` repeats the
/// chain 0.35 further along the diagonal each time, a component apiece.
StatePair overlapping_blobs(std::uint64_t seed, std::size_t d, std::size_t blobs,
                            std::size_t per_blob, double step, double jitter,
                            std::size_t groups = 1) {
  Rng rng(seed);
  std::vector<std::vector<double>> prev;
  std::vector<std::vector<double>> curr;
  for (std::size_t b = 0; b < groups * blobs; ++b) {
    const double centre = 0.2 + 0.35 * static_cast<double>(b / blobs) +
                          step * static_cast<double>(b % blobs);
    for (std::size_t i = 0; i < per_blob; ++i) {
      std::vector<double> p(d);
      std::vector<double> c(d);
      for (std::size_t t = 0; t < d; ++t) {
        p[t] = centre + rng.uniform(-jitter, jitter);
        c[t] = centre + 0.1 + rng.uniform(-jitter, jitter);
      }
      prev.push_back(std::move(p));
      curr.push_back(std::move(c));
    }
  }
  return test::make_state(prev, curr);
}

struct BlobCase {
  std::uint64_t seed;
  std::size_t d;
  std::size_t blobs;
  std::size_t per_blob;
  double step;
  double jitter;
  std::uint32_t tau;
};

class PerFamilyReferenceSweep : public ::testing::TestWithParam<BlobCase> {};

TEST_P(PerFamilyReferenceSweep, MatchesDefinitions) {
  const BlobCase& c = GetParam();
  const StatePair state =
      overlapping_blobs(c.seed, c.d, c.blobs, c.per_blob, c.step, c.jitter);
  const Params params{.r = 0.05, .tau = c.tau};
  const MotionPlane plane(state, params);
  // The geometry must do what the sweep is for: some component holds more
  // than one dense family.
  std::size_t most_families = 0;
  for (std::uint32_t comp = 0; comp < plane.component_count(); ++comp) {
    std::vector<MotionPlane::FamilyId> families;
    for (const DeviceId j : plane.component_members(comp)) {
      if (plane.family(j) != MotionPlane::kNoFamily) families.push_back(plane.family(j));
    }
    std::sort(families.begin(), families.end());
    families.erase(std::unique(families.begin(), families.end()), families.end());
    most_families = std::max(most_families, families.size());
  }
  EXPECT_GE(most_families, 2u) << "seed " << c.seed;
  expect_family_decisions_match_reference(state, params, "seed " + std::to_string(c.seed));
}

INSTANTIATE_TEST_SUITE_P(
    OverlappingBlobs, PerFamilyReferenceSweep,
    ::testing::Values(BlobCase{101, 1, 4, 6, 0.06, 0.03, 3},   //
                      BlobCase{102, 1, 5, 5, 0.05, 0.035, 2},  //
                      BlobCase{103, 1, 3, 8, 0.07, 0.03, 4},   //
                      BlobCase{104, 2, 4, 6, 0.06, 0.03, 3},   //
                      BlobCase{105, 2, 5, 5, 0.05, 0.035, 2},  //
                      BlobCase{106, 2, 3, 8, 0.07, 0.03, 4},   //
                      BlobCase{107, 1, 4, 10, 0.07, 0.015, 3}, //
                      BlobCase{108, 2, 4, 10, 0.07, 0.015, 3}));

TEST(PerFamilyReferenceTest, Figure3FixtureReachesCorollary8) {
  // Figure 3: the endpoints fail Theorem 6 and the search finds a
  // violating collection.
  const StatePair state = test::make_state_1d(
      {{0.10, 0.50}, {0.14, 0.51}, {0.16, 0.52}, {0.18, 0.53}, {0.22, 0.54}});
  EXPECT_EQ(expect_family_decisions_match_reference(state, {.r = 0.05, .tau = 3}, "fig3"),
            2u);
}

TEST(PerFamilyReferenceTest, Figure5FixtureReachesTheorem7) {
  // Figure 5: the ring of four pairs — Theorem 6 fails for every device and
  // the search proves each massive. Each pair is one dense family.
  const StatePair state = test::make_state_1d({{0.10, 0.01},
                                               {0.11, 0.00},
                                               {0.20, 0.10},
                                               {0.21, 0.11},
                                               {0.10, 0.20},
                                               {0.11, 0.21},
                                               {0.00, 0.10},
                                               {0.01, 0.11}});
  const Params params{.r = 0.075, .tau = 3};
  EXPECT_EQ(expect_family_decisions_match_reference(state, params, "fig5"), 8u);
  EXPECT_EQ(MotionPlane(state, params).family_count(), 4u);
}

// ---------------------------------------------------------------------------
// Pooled plane build: the clique search fans each loose component's
// per-vertex subproblems out as tasks. Whatever order they finish in, the
// plane must be the serial build's, byte for byte.
// ---------------------------------------------------------------------------

void expect_same_plane(const MotionPlane& a, const MotionPlane& b) {
  ASSERT_EQ(a.motion_count(), b.motion_count());
  for (MotionPlane::MotionId m = 0; m < a.motion_count(); ++m) {
    ASSERT_TRUE(std::ranges::equal(a.members(m), b.members(m))) << "motion " << m;
    ASSERT_TRUE(std::ranges::equal(a.motion_bits(m), b.motion_bits(m))) << "motion " << m;
  }
  ASSERT_EQ(a.component_count(), b.component_count());
  for (std::uint32_t c = 0; c < a.component_count(); ++c) {
    EXPECT_TRUE(std::ranges::equal(a.component_members(c), b.component_members(c)));
    EXPECT_EQ(a.component_motions(c), b.component_motions(c)) << "component " << c;
  }
  ASSERT_EQ(a.family_count(), b.family_count());
  for (const DeviceId j : a.state().abnormal()) {
    EXPECT_TRUE(std::ranges::equal(a.maximal(j), b.maximal(j))) << "device " << j;
    EXPECT_TRUE(std::ranges::equal(a.dense(j), b.dense(j))) << "device " << j;
    EXPECT_EQ(a.family(j), b.family(j)) << "device " << j;
  }
  const OracleCounters& ca = a.counters();
  const OracleCounters& cb = b.counters();
  EXPECT_EQ(ca.windows_explored, cb.windows_explored);
  EXPECT_EQ(ca.covers_generated, cb.covers_generated);
  EXPECT_EQ(ca.enumeration_calls, cb.enumeration_calls);
  EXPECT_EQ(ca.motions_stored, cb.motions_stored);
  EXPECT_EQ(ca.motions_shared, cb.motions_shared);
  EXPECT_EQ(a.arena_bytes(), b.arena_bytes());
}

TEST(PooledPlaneBuildTest, FourLanesMatchTheSerialBuild) {
  // Two chains of overlapping blobs, 180 members each: two components, no
  // one fitting a window, and each one's outer loop splits into many tasks
  // that lanes finish in any order.
  for (const std::uint64_t seed : {401u, 402u}) {
    SCOPED_TRACE(seed);
    const StatePair state = overlapping_blobs(seed, 2, 3, 60, 0.06, 0.03, 2);
    const Params params{.r = 0.05, .tau = 3};
    const MotionPlane serial(state, params);
    ASSERT_EQ(serial.component_count(), 2u);
    ASSERT_GT(serial.counters().windows_explored, 1000u);
    WorkerPool pool(4);
    for (int run = 0; run < 2; ++run) {
      PlaneBuildLanes lanes;
      const MotionPlane pooled(state, params, MotionPlane::index_for(state, params), &pool,
                               /*component_fanout=*/1, &lanes);
      expect_same_plane(serial, pooled);
    }
  }
}

// ---------------------------------------------------------------------------
// Plane internals visible through the public surface.
// ---------------------------------------------------------------------------

TEST(MotionPlaneTest, InterningSharesMotionsAcrossDevices) {
  // Two overlapping pairs (chain): device 1's family {0,1} and {1,2};
  // device 0 contributes {0,1} again — interned once.
  const StatePair state = test::make_static_1d({0.10, 0.18, 0.26});
  const MotionPlane plane(state, {.r = 0.05, .tau = 1});
  EXPECT_EQ(plane.motion_count(), 2u);
  ASSERT_EQ(plane.maximal(1).size(), 2u);
  EXPECT_EQ(plane.maximal(0).size(), 1u);
  EXPECT_EQ(plane.maximal(0)[0], plane.maximal(1)[0]);  // same interned run
}

TEST(MotionPlaneTest, ThrowsForNormalDevice) {
  const StatePair state =
      test::make_state_1d({{0.1, 0.1}, {0.2, 0.2}}, DeviceSet({0}));
  const MotionPlane plane(state, {.r = 0.05, .tau = 1});
  EXPECT_FALSE(plane.covers(1));
  EXPECT_THROW((void)plane.maximal(1), std::invalid_argument);
  EXPECT_THROW((void)plane.dense(1), std::invalid_argument);
  EXPECT_THROW((void)plane.neighbourhood(1), std::invalid_argument);
}

}  // namespace
}  // namespace acn
