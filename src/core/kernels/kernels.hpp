// Runtime-dispatched hot-path kernels.
//
// The inner loops the profile is made of — the bounding-box min/max
// reduction and the Theorem-7 survivor popcounts — are routed through this
// narrow table. Two implementations exist: a scalar reference (always
// compiled, the semantic ground truth) and an AVX2 variant (compiled when
// ACN_SIMD is on, selected at startup via CPUID). Every AVX2 kernel is
// byte-identical to the scalar one by construction (min/max of doubles is
// exact and order-free; popcounts are integer sums), and in debug builds
// the dispatcher installs cross-checking wrappers that run BOTH paths and
// assert equality on every single call.
//
// Selection: CPUID picks the table once and caches it; no environment
// variable overrides it. force() exists so the equivalence tests and
// bench_kernels can pin either path in-process.
#pragma once

#include <cstddef>
#include <cstdint>

namespace acn::kernels {

/// Result of the fused per-row scan inside nsc_scan_rows (shared by the
/// scalar and AVX2 implementations): popcount of open = base & ~used plus
/// "does open intersect far / l" flags.
struct OpenScan {
  std::uint64_t open = 0;
  bool far_any = false;
  bool l_any = false;
};

/// The kernel table. All functions are stateless and thread-safe.
struct Ops {
  const char* name;  ///< "scalar" or "avx2"

  /// Exact min/max of col[ids[i]] over i < n (n >= 1). Min/max of doubles
  /// is exact and order-independent, so this matches any scalar scan.
  void (*minmax_ids)(const double* col, const std::uint32_t* ids, std::size_t n,
                     double* lo, double* hi);

  /// Sum of popcount(a[k] & ~b[k]) over k < words — the Theorem-7 survivor
  /// count (target members not yet removed).
  std::uint64_t (*popcount_andnot)(const std::uint64_t* a, const std::uint64_t* b,
                                   std::size_t words);

  /// Batched relation-(4) test over a row-major bitset matrix (`count` rows
  /// of `words` words): true iff EVERY row keeps fewer than `tau` set bits
  /// outside `used`. One call per search node replaces a per-target call —
  /// the dominating dispatch overhead of the Theorem-7 DFS.
  bool (*targets_all_below)(const std::uint64_t* targets, std::size_t count,
                            std::size_t words, const std::uint64_t* used,
                            std::uint64_t tau);

  /// Usability scan + achievable accumulation of the Theorem-7 DFS, one
  /// call per node. For each row index r of `rows` (ascending), scan
  /// bases[r * words ..] against `used` (open = base & ~used); usable rows
  /// (more than `tau` open bits, an open far bit, an open L bit) are OR-ed
  /// into `acc` and their index appended to `out_rows` (capacity >= count,
  /// order preserved).
  /// Returns the number written. The caller seeds `acc` with `used`;
  /// afterwards acc = used | OR(usable bases) is the exact achievable set
  /// of the subtree, and the surviving list is a valid candidate filter for
  /// every descendant (open sets only shrink as `used` grows).
  std::size_t (*nsc_scan_rows)(const std::uint64_t* bases,
                               const std::uint32_t* rows, std::size_t count,
                               std::size_t words, const std::uint64_t* used,
                               const std::uint64_t* far, const std::uint64_t* l,
                               std::uint64_t tau, std::uint64_t* acc,
                               std::uint32_t* out_rows);
};

/// The selected table (cached after the first call). Debug builds return a
/// wrapper table that also runs every call on the scalar table and asserts
/// identical results whenever a SIMD table is selected.
[[nodiscard]] const Ops& dispatch() noexcept;

/// Name of the selected table ("scalar" or "avx2").
[[nodiscard]] const char* dispatch_name() noexcept;

/// Test hook: pin the dispatch to "scalar" or "avx2", or back to "auto".
/// Returns false (and leaves the dispatch unchanged) when the requested
/// variant is not available in this build/CPU.
bool force(const char* name) noexcept;

/// True when the AVX2 table is compiled in AND the CPU supports it.
[[nodiscard]] bool avx2_available() noexcept;

}  // namespace acn::kernels
