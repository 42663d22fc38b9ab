#include "measure.hpp"

#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

Tail tail_of(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  constexpr std::size_t kBeyond = 10;
  if (values.size() <= kBeyond) {
    tail.value = values.back();
    tail.percentile = 100.0;
    return tail;
  }
  const std::size_t at = values.size() - kBeyond - 1;
  tail.value = values[at];
  tail.percentile = 100.0 * static_cast<double>(values.size() - kBeyond) /
                    static_cast<double>(values.size());
  return tail;
}

double percentile_of(std::vector<double> values, double percentile) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // The epsilon keeps a rank that is whole in exact arithmetic from rounding up.
  const double rank =
      std::ceil(percentile / 100.0 * static_cast<double>(values.size()) - 1e-9);
  const std::size_t at = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(at, values.size() - 1)];
}

double rss_mb() {
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) return 0.0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int read = std::fscanf(file, "%llu %llu", &size, &resident);
  std::fclose(file);
  if (read != 2) return 0.0;
  const double page = static_cast<double>(sysconf(_SC_PAGESIZE));
  return static_cast<double>(resident) * page / (1024.0 * 1024.0);
}

void release_free_memory() { malloc_trim(0); }

}  // namespace perfbench
