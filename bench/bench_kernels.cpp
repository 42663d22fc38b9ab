// Microbench for the quantized kernel layer (core/kernels): one row per
// kernel per dispatch variant, so the scalar-vs-AVX2 speedup of every hot
// primitive — window filter, min/max reduction, survivor popcounts, the
// Theorem-7 node scans, the Chebyshev-ball prefilter — is recorded on its
// own, independent of the surrounding search shape. Emits one embedded-JSON
// line per row ("name" + "ms_per_step"), the format tools/record_bench.sh
// keys its nightly perf-regression gate on.
//
// Flags:
//   --smoke     tiny inputs, one rep, plus a scalar/AVX2 byte-identity
//               check on every kernel's outputs (CI-friendly)
//   --json      suppress the human-readable table, JSON lines only
//   --dispatch  print the auto-selected dispatch name and exit (used by
//               record_bench.sh to stamp recordings with the kernel path)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/kernels/kernels.hpp"
#include "core/kernels/quantize.hpp"

namespace {

using acn::kernels::Ops;
using acn::kernels::WindowBoundsQ;

// Defeats dead-code elimination without perturbing the timed loop.
volatile std::uint64_t g_sink = 0;

template <typename F>
double time_ms(int reps, F&& f) {
  f();  // warmup
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count() /
         static_cast<double>(reps);
}

struct Workload {
  // Window filter / minmax: one coordinate column with its quantized mirror.
  std::size_t n = 0;
  std::vector<double> col;
  std::vector<std::uint32_t> qcol;
  std::vector<std::uint32_t> ids;
  WindowBoundsQ wb;
  // Radius prefilter: joint columns, [dim][device] layout.
  std::size_t dims = 4;
  std::vector<double> cols;
  std::vector<std::uint32_t> qcols;
  std::vector<double> centre;
  double radius = 0.03;
  // Theorem-7 scans: row-major bitset matrices over a compact universe.
  std::size_t words = 2;
  std::size_t target_count = 0;
  std::vector<std::uint64_t> targets;
  std::size_t base_count = 0;
  std::vector<std::uint64_t> bases;
  std::vector<std::uint32_t> rows;
  std::vector<std::uint64_t> used;
  std::vector<std::uint64_t> far;
  std::vector<std::uint64_t> l;
  std::uint64_t tau = 3;
  // Wide popcount: the Theorem-6 |M ∩ J| reduction shape.
  std::size_t wide_words = 0;
  std::vector<std::uint64_t> wide_a;
  std::vector<std::uint64_t> wide_b;

  explicit Workload(bool smoke) {
    acn::Rng rng(7);
    n = smoke ? std::size_t{4096} : std::size_t{1} << 17;
    col.resize(n);
    qcol.resize(n);
    ids.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      col[i] = rng.uniform();
      qcol[i] = acn::kernels::quantize(col[i]);
      ids[i] = static_cast<std::uint32_t>(i);
    }
    // A representable window width (2r = 2^-4) lands boundaries exactly on
    // the quantization grid — the tie-band path is exercised, not dodged.
    wb = acn::kernels::window_bounds(0.40625, 0.40625 + 0.0625);
    cols.resize(dims * n);
    qcols.resize(dims * n);
    centre.assign(dims, 0.5);
    for (std::size_t t = 0; t < dims; ++t) {
      for (std::size_t i = 0; i < n; ++i) {
        const double x = rng.uniform();
        cols[t * n + i] = x;
        qcols[t * n + i] = acn::kernels::quantize(x);
      }
    }
    target_count = smoke ? 8 : 64;
    base_count = smoke ? 12 : 48;
    targets.resize(target_count * words);
    bases.resize(base_count * words);
    used.resize(words);
    far.resize(words);
    l.resize(words);
    for (auto& w : targets) w = rng.next_u64();
    for (auto& w : bases) w = rng.next_u64();
    for (auto& w : used) w = rng.next_u64() & rng.next_u64();  // ~25% density
    for (auto& w : far) w = rng.next_u64();
    for (auto& w : l) w = rng.next_u64();
    rows.resize(base_count);
    for (std::size_t i = 0; i < base_count; ++i) {
      rows[i] = static_cast<std::uint32_t>(i);
    }
    // tau large enough that targets_all_below scans most rows instead of
    // bailing on the first.
    tau = 40;
    wide_words = smoke ? 64 : 4096;
    wide_a.resize(wide_words);
    wide_b.resize(wide_words);
    for (auto& w : wide_a) w = rng.next_u64();
    for (auto& w : wide_b) w = rng.next_u64();
  }
};

struct Row {
  std::string name;
  std::size_t items;
  double ms;
};

void run_variant(const char* variant, const Workload& w, bool smoke,
                 std::vector<Row>& out) {
  if (!acn::kernels::force(variant)) {
    std::printf("note: %s kernels unavailable; skipping\n", variant);
    return;
  }
  const Ops& ops = acn::kernels::dispatch();
  const int reps = smoke ? 1 : 200;

  std::vector<std::uint32_t> filter_out(w.n);
  out.push_back({std::string("window:") + variant, w.n,
                 time_ms(reps, [&] {
                   g_sink = g_sink + ops.filter_in_window(w.qcol.data(), w.col.data(),
                                                  w.ids.data(), w.n, w.wb,
                                                  filter_out.data());
                 })});

  out.push_back({std::string("minmax:") + variant, w.n,
                 time_ms(reps, [&] {
                   double lo = 0.0;
                   double hi = 0.0;
                   ops.minmax_ids(w.col.data(), w.ids.data(), w.n, &lo, &hi);
                   g_sink = g_sink + static_cast<std::uint64_t>(hi > lo);
                 })});

  out.push_back({std::string("popcount_andnot:") + variant, w.wide_words,
                 time_ms(reps * 4, [&] {
                   g_sink = g_sink + ops.popcount_andnot(w.wide_a.data(), w.wide_b.data(),
                                                 w.wide_words);
                 })});

  // One call is tens of nanoseconds; batch enough iterations per rep that
  // the clock reads something real.
  const int inner = smoke ? 1 : 2000;
  out.push_back({std::string("targets_all_below:") + variant,
                 w.target_count * static_cast<std::size_t>(inner),
                 time_ms(reps, [&] {
                   for (int i = 0; i < inner; ++i) {
                     g_sink = g_sink + static_cast<std::uint64_t>(ops.targets_all_below(
                         w.targets.data(), w.target_count, w.words,
                         w.used.data(), w.tau));
                   }
                 })});

  std::vector<std::uint64_t> acc(w.words);
  std::vector<std::uint32_t> surv(w.base_count);
  out.push_back({std::string("nsc_scan_rows:") + variant,
                 w.base_count * static_cast<std::size_t>(inner),
                 time_ms(reps, [&] {
                   for (int i = 0; i < inner; ++i) {
                     std::memcpy(acc.data(), w.used.data(),
                                 w.words * sizeof(std::uint64_t));
                     g_sink = g_sink + ops.nsc_scan_rows(
                         w.bases.data(), w.rows.data(), w.base_count, w.words,
                         w.used.data(), w.far.data(), w.l.data(), w.tau,
                         acc.data(), surv.data());
                   }
                 })});

  std::vector<std::uint32_t> radius_out(w.n);
  std::vector<std::uint32_t> radius_maybe(w.n);
  out.push_back({std::string("radius:") + variant, w.n,
                 time_ms(reps, [&] {
                   const auto r = ops.filter_in_radius(
                       w.qcols.data(), w.cols.data(), w.n, w.dims,
                       w.centre.data(), w.radius, w.ids.data(), w.n,
                       radius_out.data(), radius_maybe.data());
                   g_sink = g_sink + r.in_count + r.maybe_count;
                 })});
}

// Byte-identity spot check between the two tables on the smoke inputs: the
// window filter's id list, the survivor count of the node scan, and the
// resolved radius member set must match exactly.
bool smoke_check(const Workload& w) {
  if (!acn::kernels::avx2_available()) {
    std::printf("smoke: AVX2 unavailable, scalar only — nothing to compare\n");
    return true;
  }
  bool ok = true;
  acn::kernels::force("scalar");
  const Ops& s = acn::kernels::dispatch();
  std::vector<std::uint32_t> s_out(w.n);
  const std::size_t s_n = s.filter_in_window(w.qcol.data(), w.col.data(),
                                             w.ids.data(), w.n, w.wb, s_out.data());
  std::vector<std::uint64_t> s_acc(w.used);
  std::vector<std::uint32_t> s_rows(w.base_count);
  const std::size_t s_surv = s.nsc_scan_rows(
      w.bases.data(), w.rows.data(), w.base_count, w.words, w.used.data(),
      w.far.data(), w.l.data(), w.tau, s_acc.data(), s_rows.data());

  acn::kernels::force("avx2");
  const Ops& v = acn::kernels::dispatch();
  std::vector<std::uint32_t> v_out(w.n);
  const std::size_t v_n = v.filter_in_window(w.qcol.data(), w.col.data(),
                                             w.ids.data(), w.n, w.wb, v_out.data());
  if (v_n != s_n ||
      std::memcmp(s_out.data(), v_out.data(), s_n * sizeof(std::uint32_t)) != 0) {
    std::printf("smoke FAIL: filter_in_window scalar/avx2 mismatch\n");
    ok = false;
  }
  std::vector<std::uint64_t> v_acc(w.used);
  std::vector<std::uint32_t> v_rows(w.base_count);
  const std::size_t v_surv = v.nsc_scan_rows(
      w.bases.data(), w.rows.data(), w.base_count, w.words, w.used.data(),
      w.far.data(), w.l.data(), w.tau, v_acc.data(), v_rows.data());
  if (v_surv != s_surv || v_acc != s_acc ||
      std::memcmp(s_rows.data(), v_rows.data(), s_surv * sizeof(std::uint32_t)) !=
          0) {
    std::printf("smoke FAIL: nsc_scan_rows scalar/avx2 mismatch\n");
    ok = false;
  }
  if (ok) std::printf("smoke: scalar/avx2 outputs byte-identical\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool json_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) json_only = true;
    if (std::strcmp(argv[i], "--dispatch") == 0) {
      std::printf("%s\n", acn::kernels::dispatch_name());
      return 0;
    }
  }

  const Workload w(smoke);
  std::vector<Row> rows;
  run_variant("scalar", w, smoke, rows);
  run_variant("avx2", w, smoke, rows);
  const bool ok = smoke ? smoke_check(w) : true;
  acn::kernels::force("auto");

  if (!json_only) {
    std::printf("| kernel | items | ms/call |\n|---|---|---|\n");
    for (const Row& r : rows) {
      std::printf("| %s | %zu | %.4f |\n", r.name.c_str(), r.items, r.ms);
    }
  }
  for (const Row& r : rows) {
    std::printf("{\"name\":\"%s\",\"items\":%zu,\"ms_per_step\":%.6f}\n",
                r.name.c_str(), r.items, r.ms);
  }
  return ok ? 0 : 1;
}
