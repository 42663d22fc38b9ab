// AVX2 implementations of the kernel table. This TU is the only one built
// with -mavx2 (CMake sets it per-source); it is reached only after a CPUID
// check in the dispatcher, so no function here runs on a non-AVX2 CPU.
//
// Techniques (after proxmark3's bitsliced hot loops):
//   * min/max: 4 doubles gathered per iteration into vminpd/vmaxpd
//     accumulators — min/max of doubles is exact, so this is byte-identical
//     to any scalar scan by associativity/commutativity (no NaNs in [0,1]);
//   * survivor counts: 256-bit AND/ANDNOT with a nibble-LUT (pshufb)
//     popcount, scalar POPCNT tail under four words.
#include <cstring>
#include <immintrin.h>

#include "core/kernels/kernels.hpp"

namespace acn::kernels {
namespace {

void avx2_minmax_ids(const double* col, const std::uint32_t* ids, std::size_t n,
                     double* lo, double* hi) {
  double l = col[ids[0]];
  double h = l;
  std::size_t i = 1;
  if (n >= 5) {
    __m256d vlo = _mm256_set1_pd(l);
    __m256d vhi = vlo;
    // Masked gather with an initialized source: same codegen, but avoids
    // gcc's -Wmaybe-uninitialized false positive on _mm256_undefined_pd.
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    for (; i + 4 <= n; i += 4) {
      const __m128i vid =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i));
      const __m256d v = _mm256_mask_i32gather_pd(vlo, col, vid, all, 8);
      vlo = _mm256_min_pd(vlo, v);
      vhi = _mm256_max_pd(vhi, v);
    }
    alignas(32) double tmp[4];
    _mm256_store_pd(tmp, vlo);
    for (const double x : tmp) {
      if (x < l) l = x;
    }
    _mm256_store_pd(tmp, vhi);
    for (const double x : tmp) {
      if (x > h) h = x;
    }
  }
  for (; i < n; ++i) {
    const double x = col[ids[i]];
    if (x < l) l = x;
    if (x > h) h = x;
  }
  *lo = l;
  *hi = h;
}

/// Byte popcount of a 256-bit lane via the classic nibble LUT.
inline __m256i popcount_bytes(__m256i v) noexcept {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3,
                                       3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3,
                                       2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

std::uint64_t avx2_popcount_andnot(const std::uint64_t* a, const std::uint64_t* b,
                                   std::size_t words) {
  std::size_t k = 0;
  std::uint64_t count = 0;
  if (words >= 8) {
    __m256i acc = _mm256_setzero_si256();
    for (; k + 4 <= words; k += 4) {
      const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k));
      const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + k));
      const __m256i open = _mm256_andnot_si256(vb, va);
      acc = _mm256_add_epi64(acc, _mm256_sad_epu8(popcount_bytes(open),
                                                  _mm256_setzero_si256()));
    }
    alignas(32) std::uint64_t tmp[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), acc);
    count = tmp[0] + tmp[1] + tmp[2] + tmp[3];
  }
  for (; k < words; ++k) {
    count += static_cast<std::uint64_t>(__builtin_popcountll(a[k] & ~b[k]));
  }
  return count;
}

OpenScan avx2_scan_open(const std::uint64_t* base, const std::uint64_t* used,
                        const std::uint64_t* far, const std::uint64_t* l,
                        std::size_t words) {
  OpenScan r;
  std::uint64_t far_hit = 0;
  std::uint64_t l_hit = 0;
  std::size_t k = 0;
  if (words >= 8) {
    __m256i acc = _mm256_setzero_si256();
    __m256i vfar = _mm256_setzero_si256();
    __m256i vl = _mm256_setzero_si256();
    for (; k + 4 <= words; k += 4) {
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + k));
      const __m256i vu =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(used + k));
      const __m256i open = _mm256_andnot_si256(vu, vb);
      acc = _mm256_add_epi64(acc, _mm256_sad_epu8(popcount_bytes(open),
                                                  _mm256_setzero_si256()));
      vfar = _mm256_or_si256(
          vfar, _mm256_and_si256(open, _mm256_loadu_si256(
                                           reinterpret_cast<const __m256i*>(far + k))));
      vl = _mm256_or_si256(
          vl, _mm256_and_si256(open, _mm256_loadu_si256(
                                         reinterpret_cast<const __m256i*>(l + k))));
    }
    alignas(32) std::uint64_t tmp[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), acc);
    r.open = tmp[0] + tmp[1] + tmp[2] + tmp[3];
    far_hit = static_cast<std::uint64_t>(!_mm256_testz_si256(vfar, vfar));
    l_hit = static_cast<std::uint64_t>(!_mm256_testz_si256(vl, vl));
  }
  for (; k < words; ++k) {
    const std::uint64_t open = base[k] & ~used[k];
    r.open += static_cast<std::uint64_t>(__builtin_popcountll(open));
    far_hit |= open & far[k];
    l_hit |= open & l[k];
  }
  r.far_any = far_hit != 0;
  r.l_any = l_hit != 0;
  return r;
}

bool avx2_targets_all_below(const std::uint64_t* targets, std::size_t count,
                            std::size_t words, const std::uint64_t* used,
                            std::uint64_t tau) {
  // The Theorem-7 search calls this once per node with one- or two-word
  // rows (the compact universe rarely tops 128 ids); keeping the complement
  // of `used` in registers and the per-row work branch-free is worth ~2x
  // over the generic per-row popcount call.
  if (words == 1) {
    const std::uint64_t u0 = ~used[0];
    for (std::size_t i = 0; i < count; ++i) {
      if (static_cast<std::uint64_t>(__builtin_popcountll(targets[i] & u0)) >=
          tau) {
        return false;
      }
    }
    return true;
  }
  if (words == 2) {
    const std::uint64_t u0 = ~used[0];
    const std::uint64_t u1 = ~used[1];
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t* row = targets + i * 2;
      const std::uint64_t survivors =
          static_cast<std::uint64_t>(__builtin_popcountll(row[0] & u0)) +
          static_cast<std::uint64_t>(__builtin_popcountll(row[1] & u1));
      if (survivors >= tau) return false;
    }
    return true;
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (avx2_popcount_andnot(targets + i * words, used, words) >= tau) return false;
  }
  return true;
}

std::size_t avx2_nsc_scan_rows(const std::uint64_t* bases,
                               const std::uint32_t* rows, std::size_t count,
                               std::size_t words, const std::uint64_t* used,
                               const std::uint64_t* far, const std::uint64_t* l,
                               std::uint64_t tau, std::uint64_t* acc,
                               std::uint32_t* out_rows) {
  std::size_t out_n = 0;
  // Same small-universe fast paths as targets_all_below: the whole row scan
  // stays in registers, no per-row avx2_scan_open call.
  if (words == 1) {
    const std::uint64_t u0 = used[0];
    const std::uint64_t f0 = far[0];
    const std::uint64_t l0 = l[0];
    std::uint64_t a0 = acc[0];
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t row = bases[rows[i]];
      const std::uint64_t open = row & ~u0;
      if (static_cast<std::uint64_t>(__builtin_popcountll(open)) <= tau ||
          (open & f0) == 0 || (open & l0) == 0) {
        continue;
      }
      a0 |= row;
      out_rows[out_n++] = rows[i];
    }
    acc[0] = a0;
    return out_n;
  }
  if (words == 2) {
    const std::uint64_t u0 = used[0];
    const std::uint64_t u1 = used[1];
    const std::uint64_t f0 = far[0];
    const std::uint64_t f1 = far[1];
    const std::uint64_t l0 = l[0];
    const std::uint64_t l1 = l[1];
    std::uint64_t a0 = acc[0];
    std::uint64_t a1 = acc[1];
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t* row = bases + rows[i] * 2;
      const std::uint64_t o0 = row[0] & ~u0;
      const std::uint64_t o1 = row[1] & ~u1;
      const std::uint64_t open =
          static_cast<std::uint64_t>(__builtin_popcountll(o0)) +
          static_cast<std::uint64_t>(__builtin_popcountll(o1));
      if (open <= tau || ((o0 & f0) | (o1 & f1)) == 0 ||
          ((o0 & l0) | (o1 & l1)) == 0) {
        continue;
      }
      a0 |= row[0];
      a1 |= row[1];
      out_rows[out_n++] = rows[i];
    }
    acc[0] = a0;
    acc[1] = a1;
    return out_n;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t* row = bases + rows[i] * words;
    const OpenScan scan = avx2_scan_open(row, used, far, l, words);
    if (scan.open <= tau || !scan.far_any || !scan.l_any) continue;
    std::size_t k = 0;
    for (; k + 4 <= words; k += 4) {
      const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + k));
      const __m256i vr = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + k));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + k),
                          _mm256_or_si256(va, vr));
    }
    for (; k < words; ++k) acc[k] |= row[k];
    out_rows[out_n++] = rows[i];
  }
  return out_n;
}

constexpr Ops kAvx2Ops = {
    "avx2",
    avx2_minmax_ids,
    avx2_popcount_andnot,
    avx2_targets_all_below,
    avx2_nsc_scan_rows,
};

}  // namespace

const Ops& avx2_ops() noexcept { return kAvx2Ops; }

}  // namespace acn::kernels
