// Differential conformance over the hostile suite: every hostile family's
// observed stream is replayed through three independent characterization
// paths — the from-scratch Characterizer (private plane per interval), an
// externally owned snapshot MotionPlane, and the incremental FrameEngine —
// each in a serial and a parallel flavour, and every decision of every
// interval must be byte-identical across all of them. Failures print a
// REPRO line naming the family, the suite seed, the interval, and the path,
// so any divergence reproduces with one environment variable.
//
// ACN_CONFORMANCE_SEED_BUDGET multiplies the number of suite seeds swept
// (nightly CI sets 10); ACN_CONFORMANCE_BASE_SEED pins the first seed.
#include <cstdlib>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/worker_pool.hpp"
#include "core/characterizer.hpp"
#include "core/frame.hpp"
#include "core/motion_plane.hpp"
#include "sim/hostile.hpp"

namespace acn {
namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* value = std::getenv(name)) {
    const long parsed = std::atol(value);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

struct Stream {
  std::vector<Snapshot> snapshots;  ///< [0] primes; [k] closes interval k
  std::vector<DeviceSet> abnormal;
};

Stream materialize(const HostileSpec& spec, int intervals) {
  HostileScenario scenario(spec.params);
  Stream stream;
  stream.snapshots.push_back(scenario.initial());
  stream.abnormal.emplace_back();
  for (int k = 0; k < intervals; ++k) {
    HostileStep step = scenario.advance();
    stream.snapshots.push_back(std::move(step.observed));
    stream.abnormal.push_back(std::move(step.abnormal));
  }
  return stream;
}

void expect_identical(const std::vector<Decision>& got,
                      const std::vector<Decision>& want, const char* path,
                      const HostileSpec& spec, std::uint64_t seed,
                      std::size_t interval, const DeviceSet& abnormal) {
  ASSERT_EQ(got.size(), want.size())
      << "REPRO: family=" << spec.name << " suite-seed=" << seed
      << " interval=" << interval << " path=" << path;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Decision& a = got[i];
    const Decision& b = want[i];
    EXPECT_TRUE(a.cls == b.cls && a.rule == b.rule && a.exact == b.exact &&
                a.maximal_motion_count == b.maximal_motion_count &&
                a.dense_motion_count == b.dense_motion_count &&
                a.collections_tested == b.collections_tested)
        << "REPRO: family=" << spec.name << " suite-seed=" << seed
        << " interval=" << interval << " path=" << path
        << " device=" << abnormal[i] << " (got cls=" << static_cast<int>(a.cls)
        << " rule=" << to_string(a.rule) << " exact=" << a.exact
        << ", want cls=" << static_cast<int>(b.cls)
        << " rule=" << to_string(b.rule) << " exact=" << b.exact << ")";
  }
}

void run_family(const HostileSpec& spec, std::uint64_t seed, int intervals) {
  const Stream stream = materialize(spec, intervals);
  const Params model = spec.params.base.model;
  // parallel_grain = 1 pins the pooled code paths even on small intervals.
  const CharacterizeOptions options{.parallel_grain = 1};

  FrameEngine engine_serial(FrameEngine::Config{.model = model,
                                                .characterize = options,
                                                .threads = 1,
                                                .component_fanout = 1});
  // A 4-lane pool: every lane of the plane's first pass reads the one A_k
  // index concurrently on every hostile family.
  FrameEngine engine_parallel(FrameEngine::Config{.model = model,
                                                  .characterize = options,
                                                  .threads = 4,
                                                  .component_fanout = 1});
  (void)engine_serial.observe(stream.snapshots[0], DeviceSet{});
  (void)engine_parallel.observe(stream.snapshots[0], DeviceSet{});
  // The from-scratch and plane paths' pooled flavour: 4 lanes.
  WorkerPool pool(4);

  for (std::size_t k = 1; k < stream.snapshots.size(); ++k) {
    const StatePair state(stream.snapshots[k - 1], stream.snapshots[k],
                          stream.abnormal[k]);

    // Path 1 (reference): from-scratch characterizer, serial + pooled.
    const std::vector<Decision> expected =
        Characterizer(state, model, options).decide();
    expect_identical(Characterizer(state, model, options).decide(&pool), expected,
                     "scratch-parallel", spec, seed, k, stream.abnormal[k]);

    // Path 2: externally owned snapshot plane, serial + pooled readers.
    {
      const MotionPlane plane(state, model);
      const Characterizer reader(plane, options);
      expect_identical(reader.decide(), expected, "plane-serial", spec, seed, k,
                       stream.abnormal[k]);
      expect_identical(reader.decide(&pool), expected, "plane-parallel", spec,
                       seed, k, stream.abnormal[k]);
    }

    // Path 3: the incremental streaming engine, serial + pooled.
    {
      const std::optional<FrameEngine::Result> result =
          engine_serial.observe(stream.snapshots[k], stream.abnormal[k]);
      ASSERT_TRUE(result.has_value())
          << "REPRO: family=" << spec.name << " suite-seed=" << seed
          << " interval=" << k << " path=engine-serial";
      expect_identical(result->decisions, expected, "engine-serial", spec,
                       seed, k, stream.abnormal[k]);
    }
    {
      const std::optional<FrameEngine::Result> result =
          engine_parallel.observe(stream.snapshots[k], stream.abnormal[k]);
      ASSERT_TRUE(result.has_value())
          << "REPRO: family=" << spec.name << " suite-seed=" << seed
          << " interval=" << k << " path=engine-parallel";
      expect_identical(result->decisions, expected, "engine-parallel", spec,
                       seed, k, stream.abnormal[k]);
    }
  }
}

TEST(Conformance, HostileSuiteAllPathsByteIdentical) {
  const std::size_t budget = env_size("ACN_CONFORMANCE_SEED_BUDGET", 1);
  const std::uint64_t base_seed = env_size("ACN_CONFORMANCE_BASE_SEED", 1000);
  for (std::size_t s = 0; s < budget; ++s) {
    const std::uint64_t seed = base_seed + 7919 * s;
    for (const HostileSpec& spec : standard_hostile_suite(300, seed)) {
      run_family(spec, seed, 6);
      if (HasFatalFailure()) return;
    }
  }
}

// The suite must actually exercise the monitor: every family (except the
// pathologies that only suppress) produces abnormal intervals, and the
// adversarial families produce fabricated flags.
TEST(Conformance, HostileSuiteProducesWork) {
  const std::vector<HostileSpec> suite = standard_hostile_suite(300, 42);
  ASSERT_GE(suite.size(), 6u);
  for (const HostileSpec& spec : suite) {
    HostileScenario scenario(spec.params);
    std::size_t abnormal_total = 0;
    std::size_t truth_total = 0;
    for (int k = 0; k < 6; ++k) {
      const HostileStep step = scenario.advance();
      abnormal_total += step.abnormal.size();
      truth_total += step.truth.abnormal.size();
    }
    EXPECT_GT(truth_total, 0u) << "family " << spec.name;
    EXPECT_GT(abnormal_total, 0u) << "family " << spec.name;
  }
}

}  // namespace
}  // namespace acn
