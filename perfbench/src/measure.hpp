// Small measurement helpers shared by the end-to-end and traced runs:
// monotonic timing, order statistics, process RSS, and a stable hash.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

/// One reported figure. `note` states a ratio's base, a percentile's
/// sample count, or where a program-reported count comes from.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double sum_of(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
double median(std::vector<double> values);

/// The highest order statistic that still leaves ten samples above it, and
/// the percentile it sits at. With fewer than eleven samples it is the
/// maximum (percentile 100), which only the tiny self-test size reaches.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> values);

/// Nearest-rank percentile (the convention tail_of uses); 0 for no samples.
double percentile_of(std::vector<double> values, double percentile);

/// Resident set size of this process, in MB (from /proc/self/statm).
double rss_mb();

/// Returns freed heap pages to the OS, so a following RSS reading counts
/// what is live rather than what the allocator kept.
void release_free_memory();

/// 64-bit FNV-1a over raw bytes; stable across runs and platforms of the
/// same endianness.
class Fnv {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    bytes(raw, sizeof(T));
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
