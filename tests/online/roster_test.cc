// FleetRoster: sparse gateway keys over a fixed dense slot universe —
// FIFO slot recycling, parked positions, and the just-assigned abnormality
// guard that keeps slot splices away from the characterizer.
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "online/roster.hpp"

namespace acn {
namespace {

TEST(FleetRoster, AdmitAssignsFifoSlotsAndValidates) {
  FleetRoster roster(3, 2);
  EXPECT_EQ(roster.capacity(), 3u);
  EXPECT_EQ(roster.admit(101, Point{0.1, 0.1}), 0u);
  EXPECT_EQ(roster.admit(102, Point{0.2, 0.2}), 1u);
  EXPECT_EQ(roster.admit(103, Point{0.3, 0.3}), 2u);
  EXPECT_EQ(roster.active_count(), 3u);

  EXPECT_THROW((void)roster.admit(101, Point{0.5, 0.5}), std::invalid_argument);
  EXPECT_THROW((void)roster.admit(104, Point{0.5, 0.5}), std::invalid_argument);
  EXPECT_THROW((void)roster.admit(105, Point{1.5, 0.5}), std::invalid_argument);
  // A NaN coordinate is out of range too (101 is active: only the claim is bad).
  EXPECT_THROW(roster.report(101, Point{std::numeric_limits<double>::quiet_NaN(), 0.5}),
               std::invalid_argument);
  EXPECT_THROW((void)roster.admit(106, Point{0.5}), std::invalid_argument);
}

TEST(FleetRoster, RetireParksAndRecyclesLeastRecentlyRetired) {
  FleetRoster roster(3, 2);
  (void)roster.admit(101, Point{0.1, 0.1});
  (void)roster.admit(102, Point{0.2, 0.2});
  (void)roster.admit(103, Point{0.3, 0.3});
  roster.end_interval();

  roster.report(102, Point{0.25, 0.25});
  roster.retire(102);
  roster.retire(101);
  EXPECT_THROW(roster.retire(102), std::invalid_argument);
  EXPECT_THROW(roster.report(102, Point{0.6, 0.6}), std::invalid_argument);
  EXPECT_EQ(roster.active_count(), 1u);

  // Parked slots stay frozen at the last reported position.
  const Snapshot parked = roster.snapshot();
  EXPECT_EQ(parked[1], (Point{0.25, 0.25}));
  EXPECT_EQ(parked[0], (Point{0.1, 0.1}));

  // FIFO: 102's slot (retired first) is recycled before 101's.
  EXPECT_EQ(roster.admit(201, Point{0.7, 0.7}), 1u);
  EXPECT_EQ(roster.admit(202, Point{0.8, 0.8}), 0u);
}

TEST(FleetRoster, AbnormalSlotsDropsUnknownAndJustAssigned) {
  FleetRoster roster(4, 2);
  (void)roster.admit(101, Point{0.1, 0.1});
  (void)roster.admit(102, Point{0.2, 0.2});
  roster.end_interval();
  (void)roster.admit(103, Point{0.3, 0.3});  // just assigned this interval

  const std::vector<GatewayKey> keys = {101, 103, 999};
  const DeviceSet slots = roster.abnormal_slots(keys);
  EXPECT_EQ(slots, DeviceSet({0}));  // 103 has no trajectory yet; 999 unknown

  // After the interval closes, 103 becomes eligible.
  roster.end_interval();
  EXPECT_EQ(roster.abnormal_slots(keys), DeviceSet({0, 2}));
}

TEST(FleetRoster, RecycledSlotIsIneligibleInItsSpliceInterval) {
  FleetRoster roster(1, 2);
  (void)roster.admit(101, Point{0.1, 0.1});
  roster.end_interval();
  roster.retire(101);
  // New occupant of slot 0: its apparent trajectory this interval is the
  // splice (101's parked position -> 201's position) and must not reach the
  // characterizer.
  const DeviceId slot = roster.admit(201, Point{0.9, 0.9});
  EXPECT_EQ(slot, 0u);
  const std::vector<GatewayKey> keys = {201};
  EXPECT_TRUE(roster.abnormal_slots(keys).empty());
  roster.end_interval();
  EXPECT_EQ(roster.abnormal_slots(keys), DeviceSet({0}));
}

// Retire + admit inside ONE interval: FIFO recycling must hand the new
// gateways the just-vacated slots in retirement order, and every recycled
// slot must be splice-ineligible until the interval closes — even though
// the retire and the admit happened with no end_interval() between them.
TEST(FleetRoster, SameIntervalRetireAdmitRecyclesFifoAndStaysIneligible) {
  FleetRoster roster(3, 2);
  (void)roster.admit(101, Point{0.1, 0.1});
  (void)roster.admit(102, Point{0.2, 0.2});
  (void)roster.admit(103, Point{0.3, 0.3});
  roster.end_interval();

  // Mid-interval churn: two gateways leave, two join, all before the close.
  roster.retire(102);
  roster.retire(101);
  EXPECT_EQ(roster.admit(201, Point{0.7, 0.7}), 1u);  // 102's slot, FIFO
  EXPECT_EQ(roster.admit(202, Point{0.8, 0.8}), 0u);  // then 101's
  EXPECT_EQ(roster.active_count(), 3u);

  // The snapshot already shows the recruits (an admit IS a report)...
  const Snapshot mid = roster.snapshot();
  EXPECT_EQ(mid[1], (Point{0.7, 0.7}));
  EXPECT_EQ(mid[0], (Point{0.8, 0.8}));

  // ...but their slots' apparent trajectories are splices (departed
  // gateway's position -> recruit's position), so neither recruit may be
  // abnormal this interval. The untouched gateway still can.
  const std::vector<GatewayKey> keys = {201, 202, 103};
  EXPECT_EQ(roster.abnormal_slots(keys), DeviceSet({2}));

  // From the next interval on the recruits have real trajectories.
  roster.end_interval();
  EXPECT_EQ(roster.abnormal_slots(keys), DeviceSet({0, 1, 2}));

  // A recruit retired in ITS join interval parks at its admit position and
  // re-enters the FIFO queue at the back.
  roster.retire(103);
  roster.retire(201);
  EXPECT_EQ(roster.admit(301, Point{0.5, 0.5}), 2u);  // 103 left first
  EXPECT_EQ(roster.admit(302, Point{0.6, 0.6}), 1u);
}

TEST(FleetRoster, RefusedWritesLeaveTheSnapshotByteIdentical) {
  // snapshot() is the roster's live storage, so a refused claim must not
  // touch a byte of it, nor consume the free slot an admit would take.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  FleetRoster roster(4, 2);
  (void)roster.admit(101, Point{0.1, 0.2});
  (void)roster.admit(102, Point{0.3, 0.4});
  roster.end_interval();
  const Snapshot& live = roster.snapshot();
  const std::vector<double> before(live.col(0), live.col(0) + 2 * 4);
  const auto unchanged = [&] {
    return std::memcmp(before.data(), live.col(0), before.size() * sizeof(double)) == 0;
  };

  const std::vector<std::vector<double>> bad_claims{
      {nan, 0.5}, {0.5, nan}, {1.5, 0.5}, {0.5, -0.25}, {0.5}, {0.5, 0.5, 0.5}};
  for (const std::vector<double>& bad : bad_claims) {
    const std::span<const double> span(bad);
    SCOPED_TRACE(testing::Message() << bad.size() << " coordinates, first " << bad[0]);
    EXPECT_THROW((void)roster.admit(201, span), std::invalid_argument);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(roster.report(101, span), std::invalid_argument);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW((void)roster.try_report(102, span), std::invalid_argument);
    EXPECT_TRUE(unchanged());
    // The Point overloads forward to the span ones; a Point cannot be
    // empty, so the dimension cases above cover the rest.
    const Point point(span);
    EXPECT_THROW((void)roster.admit(202, point), std::invalid_argument);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(roster.report(101, point), std::invalid_argument);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW((void)roster.try_report(102, point), std::invalid_argument);
    EXPECT_TRUE(unchanged());
  }
  EXPECT_EQ(roster.active_count(), 2u);
  EXPECT_FALSE(roster.active(201));
  EXPECT_FALSE(roster.active(202));
  // No refused admit consumed a slot: the next one takes slot 2.
  const std::vector<double> good{0.5, 0.6};
  EXPECT_EQ(roster.admit(203, std::span<const double>(good)), 2u);
  EXPECT_EQ(live[2], (Point{0.5, 0.6}));
  EXPECT_TRUE(roster.try_report(101, std::span<const double>(good)));
  EXPECT_EQ(live[0], (Point{0.5, 0.6}));
  // An inactive key is refused without throwing, and without a write.
  EXPECT_FALSE(roster.try_report(999, std::span<const double>(good)));
}

TEST(FleetRoster, ChangeMarksOverReportEveryMove) {
  // A slot is marked by admit() and by a write that changes its position
  // under the roll's != test; a write back, or -0.0 over 0.0, changes
  // nothing; clear_changes() alone clears. A refused write marks nothing.
  FleetRoster roster(4, 2);
  const auto marked = [&] {
    std::vector<DeviceId> slots;
    for (DeviceId j = 0; j < roster.capacity(); ++j) {
      if (roster.changes()[j] != 0) slots.push_back(j);
    }
    return slots;
  };
  (void)roster.admit(10, Point{0.0, 0.5});
  (void)roster.admit(11, Point{0.0, 0.0});  // at the parked origin: still marked
  EXPECT_EQ(marked(), (std::vector<DeviceId>{0, 1}));
  roster.end_interval();
  EXPECT_EQ(marked(), (std::vector<DeviceId>{0, 1}));  // not the roll's clear
  roster.clear_changes();
  EXPECT_TRUE(marked().empty());

  roster.report(10, Point{0.0, 0.5});   // the same position
  roster.report(11, Point{-0.0, 0.0});  // equal under !=
  EXPECT_TRUE(marked().empty());
  EXPECT_THROW(roster.report(10, Point{1.5, 0.5}), std::invalid_argument);
  EXPECT_TRUE(marked().empty());
  roster.report(11, Point{0.5, 0.5});
  roster.report(11, Point{0.0, 0.0});  // moved and moved back: stays marked
  EXPECT_EQ(marked(), (std::vector<DeviceId>{1}));
  roster.retire(10);  // a retirement parks the slot where it was
  EXPECT_EQ(marked(), (std::vector<DeviceId>{1}));
  EXPECT_EQ(roster.admit(12, Point{0.0, 0.5}), 2u);  // FIFO: slot 2 first
  EXPECT_EQ(marked(), (std::vector<DeviceId>{1, 2}));
}

TEST(FleetRoster, ConstructorValidates) {
  EXPECT_THROW(FleetRoster(0, 2), std::invalid_argument);
  EXPECT_THROW(FleetRoster(4, 0), std::invalid_argument);
  EXPECT_THROW(FleetRoster(4, Point::kMaxDim), std::invalid_argument);
}

}  // namespace
}  // namespace acn
