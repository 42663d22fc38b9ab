#include "core/report.hpp"

#include <gtest/gtest.h>

#include "common/csv.hpp"
#include "support/test_util.hpp"

namespace acn {
namespace {

StatePair scene() {
  // Figure-3-like: 3 massive, 2 unresolved, 1 isolated.
  return test::make_state_1d({
      {0.10, 0.50}, {0.14, 0.51}, {0.16, 0.52}, {0.18, 0.53}, {0.22, 0.54},
      {0.90, 0.10},
  });
}

TEST(ReportTest, SetsMatchCharacterizer) {
  const StatePair state = scene();
  const CharacterizationReport report = make_report(state, {.r = 0.05, .tau = 3});
  EXPECT_EQ(report.sets.massive, DeviceSet({1, 2, 3}));
  EXPECT_EQ(report.sets.unresolved, DeviceSet({0, 4}));
  EXPECT_EQ(report.sets.isolated, DeviceSet({5}));
  EXPECT_EQ(report.abnormal, state.abnormal());
  EXPECT_EQ(report.decisions.size(), 6u);
}

TEST(ReportTest, TextContainsTotalsAndRows) {
  const CharacterizationReport report = make_report(scene(), {.r = 0.05, .tau = 3});
  const std::string text = report.to_text();
  EXPECT_NE(text.find("massive: 3"), std::string::npos);
  EXPECT_NE(text.find("unresolved: 2"), std::string::npos);
  EXPECT_NE(text.find("Theorem6"), std::string::npos);
  EXPECT_NE(text.find("Corollary8"), std::string::npos);
}

TEST(ReportTest, CsvParsesBackWithOneRowPerDevice) {
  const CharacterizationReport report = make_report(scene(), {.r = 0.05, .tau = 3});
  const auto rows = parse_csv(report.to_csv());
  ASSERT_EQ(rows.size(), 7u);  // header + 6 devices
  EXPECT_EQ(rows[0][0], "device");
  EXPECT_EQ(rows[0].size(), 7u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].size(), 7u);
    // One row per device of A_k, ascending, beside its own decision.
    EXPECT_EQ(rows[i][0], std::to_string(report.abnormal[i - 1]));
    EXPECT_EQ(rows[i][1], to_string(report.decisions[i - 1].cls));
  }
}

TEST(ReportTest, EmptyAbnormalSet) {
  const StatePair state =
      test::make_state_1d({{0.1, 0.1}, {0.2, 0.2}}, DeviceSet{});
  const CharacterizationReport report = make_report(state, {.r = 0.05, .tau = 3});
  EXPECT_TRUE(report.decisions.empty());
  EXPECT_EQ(parse_csv(report.to_csv()).size(), 1u);  // header only
}

}  // namespace
}  // namespace acn
