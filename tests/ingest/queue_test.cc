// BoundedReportQueue: the backpressure boundary. Block policy must be
// lossless under a slow pump, reject policy must shed at the edge and
// count, and close() must wake everyone — producers and the pump alike.
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/queue.hpp"

namespace acn {
namespace {

QosReport make_report(GatewayKey device, std::uint64_t interval) {
  QosReport report;
  report.device = device;
  report.interval = interval;
  report.claim = Point{0.5, 0.5};
  report.arrival_seq = interval;
  return report;
}

TEST(BoundedReportQueue, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedReportQueue(0), std::invalid_argument);
}

TEST(BoundedReportQueue, BlockPolicyIsLossless) {
  BoundedReportQueue queue(4, BoundedReportQueue::Policy::kBlock);
  constexpr std::uint64_t kReports = 500;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kReports; ++i) {
      ASSERT_TRUE(queue.push(make_report(i % 7, i)));
    }
    queue.close();
  });
  std::uint64_t received = 0;
  std::uint64_t last_seq = 0;
  bool first = true;
  while (const std::optional<QosReport> report = queue.pop()) {
    // Single producer + FIFO queue: arrival order is emission order.
    if (!first) {
      EXPECT_EQ(report->arrival_seq, last_seq + 1);
    }
    last_seq = report->arrival_seq;
    first = false;
    ++received;
  }
  producer.join();
  EXPECT_EQ(received, kReports);
  EXPECT_EQ(queue.rejected(), 0u);
  // The producer blocked instead of overfilling: depth never passed capacity.
  EXPECT_LE(queue.peak_depth(), 4u);
}

TEST(BoundedReportQueue, RejectPolicyShedsWhenFull) {
  BoundedReportQueue queue(2, BoundedReportQueue::Policy::kReject);
  EXPECT_TRUE(queue.push(make_report(0, 1)));
  EXPECT_TRUE(queue.push(make_report(1, 1)));
  EXPECT_FALSE(queue.push(make_report(2, 1)));  // full: shed at the edge
  EXPECT_EQ(queue.rejected(), 1u);
  QosReport out;
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.device, 0u);
  EXPECT_TRUE(queue.push(make_report(3, 1)));  // space freed
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(BoundedReportQueue, CloseWakesBlockedProducer) {
  BoundedReportQueue queue(1, BoundedReportQueue::Policy::kBlock);
  ASSERT_TRUE(queue.push(make_report(0, 1)));
  std::atomic<int> outcome{-1};
  std::thread producer([&] {
    // Queue is full; this blocks until close() wakes it with a refusal.
    outcome.store(queue.push(make_report(1, 1)) ? 1 : 0);
  });
  queue.close();
  producer.join();
  EXPECT_EQ(outcome.load(), 0);
  EXPECT_EQ(queue.rejected(), 1u);
}

TEST(BoundedReportQueue, CloseDrainsBacklogThenSignalsEnd) {
  BoundedReportQueue queue(8);
  ASSERT_TRUE(queue.push(make_report(0, 1)));
  ASSERT_TRUE(queue.push(make_report(1, 1)));
  queue.close();
  EXPECT_FALSE(queue.push(make_report(2, 1)));  // closed: refused
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_FALSE(queue.pop().has_value());  // drained: termination signal
}

TEST(BoundedReportQueue, ManyProducersOnePump) {
  BoundedReportQueue queue(16, BoundedReportQueue::Policy::kBlock);
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 250;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push(make_report(static_cast<GatewayKey>(p), i)));
      }
    });
  }
  std::uint64_t received = 0;
  std::vector<std::uint64_t> last(kProducers, 0);
  std::thread pump([&] {
    while (const std::optional<QosReport> report = queue.pop()) {
      // Per-producer FIFO survives interleaving.
      const auto p = static_cast<std::size_t>(report->device);
      if (report->arrival_seq > 0) {
        EXPECT_EQ(report->arrival_seq, last[p] + 1);
      }
      last[p] = report->arrival_seq;
      ++received;
    }
  });
  for (std::thread& t : producers) t.join();
  queue.close();
  pump.join();
  EXPECT_EQ(received, kProducers * kPerProducer);
}

}  // namespace
}  // namespace acn
