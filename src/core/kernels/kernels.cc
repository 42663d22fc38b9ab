#include "core/kernels/kernels.hpp"

#include <atomic>
#include <bit>
#include <cassert>
#include <cstring>
#include <mutex>
#include <vector>

namespace acn::kernels {

#ifdef ACN_HAVE_AVX2
const Ops& avx2_ops() noexcept;  // defined in kernels_avx2.cc
#endif

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels — the semantic ground truth. Each is the exact
// double-path loop it replaced, verbatim; the AVX2 table must match these
// byte-for-byte on every input (asserted per call in debug builds).

void scalar_minmax_ids(const double* col, const std::uint32_t* ids, std::size_t n,
                       double* lo, double* hi) {
  double l = col[ids[0]];
  double h = l;
  for (std::size_t i = 1; i < n; ++i) {
    const double x = col[ids[i]];
    if (x < l) l = x;
    if (x > h) h = x;
  }
  *lo = l;
  *hi = h;
}

std::uint64_t scalar_popcount_andnot(const std::uint64_t* a, const std::uint64_t* b,
                                     std::size_t words) {
  std::uint64_t count = 0;
  for (std::size_t k = 0; k < words; ++k) {
    count += static_cast<std::uint64_t>(std::popcount(a[k] & ~b[k]));
  }
  return count;
}

OpenScan scalar_scan_open(const std::uint64_t* base, const std::uint64_t* used,
                          const std::uint64_t* far, const std::uint64_t* l,
                          std::size_t words) {
  OpenScan r;
  std::uint64_t far_hit = 0;
  std::uint64_t l_hit = 0;
  for (std::size_t k = 0; k < words; ++k) {
    const std::uint64_t open = base[k] & ~used[k];
    r.open += static_cast<std::uint64_t>(std::popcount(open));
    far_hit |= open & far[k];
    l_hit |= open & l[k];
  }
  r.far_any = far_hit != 0;
  r.l_any = l_hit != 0;
  return r;
}

bool scalar_targets_all_below(const std::uint64_t* targets, std::size_t count,
                              std::size_t words, const std::uint64_t* used,
                              std::uint64_t tau) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t* row = targets + i * words;
    std::uint64_t survivors = 0;
    for (std::size_t k = 0; k < words; ++k) {
      survivors += static_cast<std::uint64_t>(std::popcount(row[k] & ~used[k]));
    }
    if (survivors >= tau) return false;
  }
  return true;
}

std::size_t scalar_nsc_scan_rows(const std::uint64_t* bases,
                                 const std::uint32_t* rows, std::size_t count,
                                 std::size_t words, const std::uint64_t* used,
                                 const std::uint64_t* far, const std::uint64_t* l,
                                 std::uint64_t tau, std::uint64_t* acc,
                                 std::uint32_t* out_rows) {
  std::size_t out_n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t* row = bases + rows[i] * words;
    const OpenScan scan = scalar_scan_open(row, used, far, l, words);
    if (scan.open <= tau || !scan.far_any || !scan.l_any) continue;
    for (std::size_t k = 0; k < words; ++k) acc[k] |= row[k];
    out_rows[out_n++] = rows[i];
  }
  return out_n;
}

constexpr Ops kScalarOps = {
    "scalar",
    scalar_minmax_ids,
    scalar_popcount_andnot,
    scalar_targets_all_below,
    scalar_nsc_scan_rows,
};

// ---------------------------------------------------------------------------
// Dispatch state. g_inner is the selected table; dispatch() hands it out
// directly. Debug builds hand out kCheckedOps instead: each wrapper forwards
// to the selected table and, when that is not the scalar one, replays the
// call on the scalar table and asserts byte-identical results — "every
// kernel asserts its verdict against the scalar path".

std::atomic<const Ops*> g_inner{nullptr};
#ifndef NDEBUG
std::atomic<bool> g_crosscheck{false};
#endif

const Ops* avx2_table() noexcept {
#ifdef ACN_HAVE_AVX2
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return &avx2_ops();
#endif
#endif
  return nullptr;
}

void select(const Ops* table) noexcept {
  g_inner.store(table, std::memory_order_release);
#ifndef NDEBUG
  g_crosscheck.store(table != &kScalarOps, std::memory_order_release);
#endif
}

/// What CPUID picks: AVX2 where compiled in and supported, else scalar.
const Ops* cpuid_table() noexcept {
  const Ops* avx2 = avx2_table();
  return avx2 != nullptr ? avx2 : &kScalarOps;
}

void init_once() noexcept {
  static std::once_flag once;
  std::call_once(once, [] { select(cpuid_table()); });
}

#ifndef NDEBUG
inline const Ops* inner() noexcept {
  return g_inner.load(std::memory_order_acquire);
}

inline bool crosscheck() noexcept {
  return g_crosscheck.load(std::memory_order_acquire);
}

thread_local std::vector<std::uint64_t> t_check_acc;
thread_local std::vector<std::uint32_t> t_check_rows;

void checked_minmax_ids(const double* col, const std::uint32_t* ids, std::size_t n,
                        double* lo, double* hi) {
  inner()->minmax_ids(col, ids, n, lo, hi);
  if (crosscheck()) {
    double rlo = 0.0;
    double rhi = 0.0;
    scalar_minmax_ids(col, ids, n, &rlo, &rhi);
    assert(rlo == *lo && rhi == *hi && "minmax_ids: SIMD/scalar mismatch");
  }
}

std::uint64_t checked_popcount_andnot(const std::uint64_t* a, const std::uint64_t* b,
                                      std::size_t words) {
  const std::uint64_t count = inner()->popcount_andnot(a, b, words);
  if (crosscheck()) {
    assert(scalar_popcount_andnot(a, b, words) == count &&
           "popcount_andnot: SIMD/scalar mismatch");
  }
  return count;
}

bool checked_targets_all_below(const std::uint64_t* targets, std::size_t count,
                               std::size_t words, const std::uint64_t* used,
                               std::uint64_t tau) {
  const bool below = inner()->targets_all_below(targets, count, words, used, tau);
  if (crosscheck()) {
    assert(scalar_targets_all_below(targets, count, words, used, tau) == below &&
           "targets_all_below: SIMD/scalar mismatch");
  }
  return below;
}

std::size_t checked_nsc_scan_rows(const std::uint64_t* bases,
                                  const std::uint32_t* rows, std::size_t count,
                                  std::size_t words, const std::uint64_t* used,
                                  const std::uint64_t* far, const std::uint64_t* l,
                                  std::uint64_t tau, std::uint64_t* acc,
                                  std::uint32_t* out_rows) {
  t_check_acc.assign(acc, acc + words);
  const std::size_t out_n = inner()->nsc_scan_rows(bases, rows, count, words, used,
                                                   far, l, tau, acc, out_rows);
  if (crosscheck()) {
    t_check_rows.resize(count);
    const std::size_t ref_n =
        scalar_nsc_scan_rows(bases, rows, count, words, used, far, l, tau,
                             t_check_acc.data(), t_check_rows.data());
    assert(ref_n == out_n && "nsc_scan_rows: SIMD/scalar count mismatch");
    assert(std::memcmp(t_check_rows.data(), out_rows,
                       out_n * sizeof(std::uint32_t)) == 0 &&
           "nsc_scan_rows: SIMD/scalar row mismatch");
    assert(std::memcmp(t_check_acc.data(), acc, words * sizeof(std::uint64_t)) == 0 &&
           "nsc_scan_rows: SIMD/scalar acc mismatch");
  }
  return out_n;
}

const Ops kCheckedOps = {
    "checked",
    checked_minmax_ids,
    checked_popcount_andnot,
    checked_targets_all_below,
    checked_nsc_scan_rows,
};
#endif  // NDEBUG

}  // namespace

const Ops& dispatch() noexcept {
  init_once();
#ifndef NDEBUG
  return kCheckedOps;
#else
  return *g_inner.load(std::memory_order_acquire);
#endif
}

const char* dispatch_name() noexcept {
  init_once();
  return g_inner.load(std::memory_order_acquire)->name;
}

bool force(const char* name) noexcept {
  init_once();
  if (std::strcmp(name, "scalar") == 0) {
    select(&kScalarOps);
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    const Ops* avx2 = avx2_table();
    if (avx2 == nullptr) return false;
    select(avx2);
    return true;
  }
  if (std::strcmp(name, "auto") == 0) {
    select(cpuid_table());
    return true;
  }
  return false;
}

bool avx2_available() noexcept { return avx2_table() != nullptr; }

}  // namespace acn::kernels
