// Microbench for the kernel layer (core/kernels): one row per kernel per
// dispatch variant, so the scalar-vs-AVX2 speedup of every hot primitive —
// min/max reduction, survivor popcounts, the Theorem-7 node scans — is
// recorded on its own, independent of the surrounding search shape. Emits one embedded-JSON line per row ("name" +
// "ms_per_step"), the format tools/record_bench.sh keys its nightly
// perf-regression gate on.
//
// Flags:
//   --smoke     tiny inputs, one rep, plus a scalar/AVX2 byte-identity
//               check on the outputs of all four kernel-table entries
//               (minmax_ids, popcount_andnot, targets_all_below,
//               nsc_scan_rows; CI-friendly; a build without AVX2 has
//               nothing to compare)
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

namespace {

using acn::kernels::Ops;

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
  // Minmax: one coordinate column.
  std::size_t n = 0;
  std::vector<double> col;
  std::vector<std::uint32_t> ids;
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
    ids.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      col[i] = rng.uniform();
      ids[i] = static_cast<std::uint32_t>(i);
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
}

/// Every output of one table on the smoke inputs, one field per Ops entry.
struct TableOutputs {
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t popcount = 0;
  bool all_below = false;
  std::vector<std::uint32_t> survivor_rows;
  std::vector<std::uint64_t> acc;
};

TableOutputs run_table(const Ops& ops, const Workload& w) {
  TableOutputs o;
  ops.minmax_ids(w.col.data(), w.ids.data(), w.n, &o.lo, &o.hi);
  o.popcount = ops.popcount_andnot(w.wide_a.data(), w.wide_b.data(), w.wide_words);
  o.all_below = ops.targets_all_below(w.targets.data(), w.target_count, w.words,
                                      w.used.data(), w.tau);
  o.acc = w.used;
  o.survivor_rows.resize(w.base_count);
  o.survivor_rows.resize(ops.nsc_scan_rows(
      w.bases.data(), w.rows.data(), w.base_count, w.words, w.used.data(),
      w.far.data(), w.l.data(), w.tau, o.acc.data(), o.survivor_rows.data()));
  return o;
}

// Byte-identity check between the two tables on the smoke inputs: every
// kernel-table entry's outputs must match exactly.
bool smoke_check(const Workload& w) {
  if (!acn::kernels::avx2_available()) {
    std::printf("smoke: AVX2 unavailable, scalar only — nothing to compare\n");
    return true;
  }
  acn::kernels::force("scalar");
  const TableOutputs scalar = run_table(acn::kernels::dispatch(), w);
  acn::kernels::force("avx2");
  const TableOutputs avx2 = run_table(acn::kernels::dispatch(), w);
  bool ok = true;
  const auto expect = [&](bool same, const char* kernel) {
    if (!same) {
      std::printf("smoke FAIL: %s scalar/avx2 mismatch\n", kernel);
      ok = false;
    }
  };
  expect(scalar.lo == avx2.lo && scalar.hi == avx2.hi, "minmax_ids");
  expect(scalar.popcount == avx2.popcount, "popcount_andnot");
  expect(scalar.all_below == avx2.all_below, "targets_all_below");
  expect(scalar.survivor_rows == avx2.survivor_rows && scalar.acc == avx2.acc,
         "nsc_scan_rows");
  if (ok) std::printf("smoke: scalar/avx2 outputs byte-identical on all 4 kernels\n");
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
