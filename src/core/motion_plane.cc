#include "core/motion_plane.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/worker_pool.hpp"
#include "core/kernels/kernels.hpp"

namespace acn {
namespace {

bool run_is_strict_subset(std::span<const DeviceId> small,
                          std::span<const DeviceId> big) noexcept {
  if (small.size() >= big.size()) return false;
  std::size_t i = 0;
  for (const DeviceId id : small) {
    while (i < big.size() && big[i] < id) ++i;
    if (i == big.size() || big[i] != id) return false;
    ++i;
  }
  return true;
}

/// Window covers of one enumeration, stored flat: each cover is an
/// (offset, length) run of sorted DeviceIds in one arena, deduplicated on
/// insert — distinct windows over a tight blob produce the same cover many
/// times, and every duplicate would otherwise ride through the maximality
/// filter. clear() keeps all capacity, so one store serves every device of
/// the plane build without per-device allocation.
struct CoverStore {
  std::vector<DeviceId> arena;
  std::vector<std::uint32_t> offsets{0};
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index;
  /// Plane-wide byte meter (null for the free-function enumeration path).
  /// Set per task — the scratch is thread_local and outlives any one plane.
  ArenaBudget* budget = nullptr;

  void clear() {
    arena.clear();
    offsets.assign(1, 0);
    index.clear();  // keeps the bucket array; cost tracks own entry count
  }
  [[nodiscard]] std::size_t count() const noexcept { return offsets.size() - 1; }
  [[nodiscard]] std::span<const DeviceId> run(std::uint32_t i) const noexcept {
    return {arena.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
  void add(std::span<const DeviceId> ids) {
    auto& slots = index[hash_ids(ids)];
    for (const std::uint32_t i : slots) {
      const auto existing = run(i);
      if (existing.size() == ids.size() &&
          std::equal(existing.begin(), existing.end(), ids.begin())) {
        return;  // duplicate window cover
      }
    }
    if (budget != nullptr) budget->charge(ids.size() * sizeof(DeviceId));
    slots.push_back(static_cast<std::uint32_t>(count()));
    arena.insert(arena.end(), ids.begin(), ids.end());
    offsets.push_back(static_cast<std::uint32_t>(arena.size()));
  }
};

/// Reusable buffers for the canonical-window slide: one edge list and one
/// shrinking active set per joint dimension (the recursion touches exactly
/// one depth per dimension at a time), the flat cover store, the
/// maximality-ranking scratch, and the dimension visit order.
struct EnumerationScratch {
  std::vector<std::vector<double>> edges;
  std::vector<std::vector<DeviceId>> next;
  std::vector<DeviceId> pool;
  CoverStore covers;
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> maximal;
  /// Joint dimensions, widest pool span first. The cover set is invariant
  /// under visit order (the same window combinations are enumerated), but
  /// splitting on the most spread-out dimension first shrinks active sets
  /// fastest and lets the tight-cluster cut below fire at shallow depth.
  std::array<std::size_t, 2 * Point::kMaxDim> dim_order{};
};

void slide(const StatePair& state, double window, std::span<const DeviceId> active,
           std::size_t dim_index, const double* anchor_joint,
           EnumerationScratch& scratch, OracleCounters* counters) {
  if (active.empty()) return;
  if (dim_index == state.joint_dim()) {
    if (counters != nullptr) ++counters->covers_generated;
    // `active` descends from a sorted pool through order-preserving filters.
    scratch.covers.add(active);
    return;
  }

  // Tight-cluster cut: when the active set already fits one window in every
  // remaining dimension, that window's cover is `active` itself and every
  // other window below this node covers a subset of it (active sets only
  // shrink), i.e. nothing inclusion-maximal. Emitting the single cover here
  // collapses the O(|active|^(2d)) edge recursion over a dense blob — the
  // dominant shape of a massive anomaly — to one bounding-box scan. In the
  // anchored variant the anchor is a member of every active set, so the
  // bounding window is a valid anchored window too.
  const std::span<const std::size_t> remaining_dims{
      scratch.dim_order.data() + dim_index, state.joint_dim() - dim_index};
  if (spans_fit_window(state, window, active, remaining_dims)) {
    if (counters != nullptr) {
      ++counters->windows_explored;  // the bounding window, evaluated once
      ++counters->covers_generated;
    }
    scratch.covers.add(active);
    return;
  }

  const std::size_t dim = scratch.dim_order[dim_index];
  const double* col = state.joint_col(dim);
  auto& edges = scratch.edges[dim_index];
  edges.clear();
  // Candidate lower edges: coordinates of active points; when anchored, only
  // those within [x(anchor) - 2r, x(anchor)] so the window covers the anchor.
  if (anchor_joint != nullptr) {
    const double ax = anchor_joint[dim];
    const double lo = ax - window;
    for (const DeviceId id : active) {
      const double x = col[id];
      if (x >= lo && x <= ax) edges.push_back(x);
    }
  } else {
    for (const DeviceId id : active) edges.push_back(col[id]);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  // Kernel-dispatched membership filter: 8 quantized lanes per compare,
  // boundary ties re-resolved against `col` — byte-identical to the plain
  // `x >= lower && x <= upper` loop (core/kernels/quantize.hpp).
  const kernels::Ops& ops = kernels::dispatch();
  const std::uint32_t* qcol = state.qcol(dim);
  auto& next = scratch.next[dim_index];
  for (const double lower : edges) {
    if (counters != nullptr) ++counters->windows_explored;
    const kernels::WindowBoundsQ bounds = kernels::window_bounds(lower, lower + window);
    next.resize(active.size());
    next.resize(ops.filter_in_window(qcol, col, active.data(), active.size(),
                                     bounds, next.data()));
    slide(state, window, next, dim_index + 1, anchor_joint, scratch, counters);
  }
}

/// Shared head of the enumeration paths: fills scratch.pool (anchored
/// filter applied, sorted), sizes the per-depth buffers, clears the cover
/// store, and computes the widest-span-first dimension order. Returns the
/// anchor's joint coordinates (into `anchor_coords`) or nullptr. The
/// dimension order is left untouched when the pool comes up empty.
const double* prepare_pool(const StatePair& state, const Params& params,
                           std::span<const DeviceId> pool_in,
                           std::optional<DeviceId> anchor,
                           std::array<double, Point::kMaxDim>& anchor_coords,
                           EnumerationScratch& scratch) {
  const double window = params.window();
  const double* anchor_joint = nullptr;

  auto& pool = scratch.pool;
  pool.clear();
  if (anchor.has_value()) {
    // Only devices within 2r of the anchor can share a motion with it.
    for (const DeviceId candidate : pool_in) {
      if (state.joint_distance(*anchor, candidate) <= window) {
        pool.push_back(candidate);
      }
    }
    for (std::size_t t = 0; t < state.joint_dim(); ++t) {
      anchor_coords[t] = state.joint_col(t)[*anchor];
    }
    anchor_joint = anchor_coords.data();
  } else {
    pool.assign(pool_in.begin(), pool_in.end());
  }
  std::sort(pool.begin(), pool.end());

  if (scratch.edges.size() < state.joint_dim()) {
    scratch.edges.resize(state.joint_dim());
    scratch.next.resize(state.joint_dim());
  }
  scratch.covers.clear();
  scratch.maximal.clear();
  if (pool.empty()) return anchor_joint;

  // Visit dimensions widest span first (see EnumerationScratch::dim_order).
  // Ties break toward the lower dimension index, keeping the order — and
  // the windows_explored trajectory — deterministic.
  const kernels::Ops& ops = kernels::dispatch();
  std::array<double, 2 * Point::kMaxDim> span{};
  for (std::size_t t = 0; t < state.joint_dim(); ++t) {
    double lo;
    double hi;
    ops.minmax_ids(state.joint_col(t), pool.data(), pool.size(), &lo, &hi);
    span[t] = hi - lo;
    scratch.dim_order[t] = t;
  }
  std::stable_sort(scratch.dim_order.begin(),
                   scratch.dim_order.begin() + state.joint_dim(),
                   [&](std::size_t a, std::size_t b) { return span[a] > span[b]; });
  return anchor_joint;
}

/// Shared tail: reduces scratch.covers to the inclusion-maximal covers,
/// leaving their store indices in scratch.maximal in lexicographic (by
/// members) order — the project-wide family order. Content-based throughout
/// (the covers are distinct after dedup, so both sorts are strict total
/// orders), which is what lets the split-task path below feed it a store
/// assembled from per-task slices and still get the serial result.
void select_maximal(const CoverStore& covers, EnumerationScratch& scratch) {
  // Keep the inclusion-maximal covers. Scanning in size-descending order, a
  // cover with any strict superset in the store also has one among the
  // already-accepted maximal covers (subset is transitive and equal-size
  // containment is equality, impossible after dedup), so each cover is
  // checked against the few survivors only.
  auto& order = scratch.order;
  order.resize(covers.count());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const auto ra = covers.run(a);
    const auto rb = covers.run(b);
    if (ra.size() != rb.size()) return ra.size() > rb.size();
    return std::lexicographical_compare(ra.begin(), ra.end(), rb.begin(), rb.end());
  });
  auto& maximal = scratch.maximal;
  for (const std::uint32_t candidate : order) {
    bool covered = false;
    for (const std::uint32_t other : maximal) {
      if (run_is_strict_subset(covers.run(candidate), covers.run(other))) {
        covered = true;
        break;
      }
    }
    if (!covered) maximal.push_back(candidate);
  }
  // Family order: lexicographic by members (a shorter prefix sorts first),
  // matching DeviceSet's vector comparison project-wide.
  std::sort(maximal.begin(), maximal.end(), [&](std::uint32_t a, std::uint32_t b) {
    const auto ra = covers.run(a);
    const auto rb = covers.run(b);
    return std::lexicographical_compare(ra.begin(), ra.end(), rb.begin(), rb.end());
  });
}

/// Core of enumerate_maximal_windows over reusable scratch: fills
/// scratch.maximal with the store indices of the inclusion-maximal covers,
/// in lexicographic (by members) order.
void enumerate_into(const StatePair& state, const Params& params,
                    std::span<const DeviceId> pool_in,
                    std::optional<DeviceId> anchor, OracleCounters* counters,
                    EnumerationScratch& scratch) {
  std::array<double, Point::kMaxDim> anchor_coords{};
  const double* anchor_joint =
      prepare_pool(state, params, pool_in, anchor, anchor_coords, scratch);
  if (scratch.pool.empty()) return;
  slide(state, params.window(), scratch.pool, 0, anchor_joint, scratch, counters);
  select_maximal(scratch.covers, scratch);
}

/// Depth-0 slice of the unanchored slide for one split task: replays the
/// serial slide's top level — same edge list, same per-edge counters, same
/// subtree recursion — but only over the task's [begin, end) share of the
/// edge list, leaving the task's covers in scratch.covers (per-task dedup
/// only; the cross-task dedup happens at merge). Preconditions: prepare_pool
/// ran (unanchored, pool non-empty) and the depth-0 tight-cluster cut does
/// NOT fire (the split planner never splits tight components), so the
/// serial slide would have entered this exact edge loop. Summed over a
/// task partition of the edge list, the counters reproduce the serial
/// enumeration's exactly.
void slide_edge_slice(const StatePair& state, double window,
                      std::size_t task_index, std::size_t task_count,
                      EnumerationScratch& scratch, OracleCounters* counters) {
  const std::size_t dim = scratch.dim_order[0];
  const double* col = state.joint_col(dim);
  auto& edges = scratch.edges[0];
  edges.clear();
  for (const DeviceId id : scratch.pool) edges.push_back(col[id]);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  const std::size_t edge_count = edges.size();
  const std::size_t begin = task_index * edge_count / task_count;
  const std::size_t end = (task_index + 1) * edge_count / task_count;
  const kernels::Ops& ops = kernels::dispatch();
  const std::uint32_t* qcol = state.qcol(dim);
  auto& next = scratch.next[0];
  for (std::size_t e = begin; e < end; ++e) {
    if (counters != nullptr) ++counters->windows_explored;
    const kernels::WindowBoundsQ bounds =
        kernels::window_bounds(edges[e], edges[e] + window);
    next.resize(scratch.pool.size());
    next.resize(ops.filter_in_window(qcol, col, scratch.pool.data(),
                                     scratch.pool.size(), bounds, next.data()));
    slide(state, window, next, 1, nullptr, scratch, counters);
  }
}

/// Pass 1 of the plane build: connected components of the 2r-interaction
/// graph over A_k, as the union-find root of every A_k rank (`rank_of` maps
/// an abnormal id to its rank), fed straight from the A_k grid's cells. Two
/// devices within 2r share a cell or sit in neighbouring cells, so only
/// those pairs are tested, and only while their roots still differ. A cell
/// whose joint bounding box fits the window joins wholesale with no
/// distance test: rounding is monotone, so no member pair's computed
/// joint_distance exceeds the computed span. A cell that is one component
/// stays one, so a pair of such cells stops at its first same-root or
/// joined pair.
std::vector<std::uint32_t> component_roots(const StatePair& state, const GridIndex& grid,
                                           double window,
                                           std::span<const std::uint32_t> rank_of,
                                           std::size_t m) {
  std::vector<std::uint32_t> parent(m);
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&](DeviceId id) {
    std::uint32_t x = rank_of[id];
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  // `root` is x's root. Hangs y's tree under it when y is within 2r of x;
  // true once y shares that root.
  const auto join = [&](std::uint32_t root, DeviceId x, DeviceId y) {
    const std::uint32_t ry = find(y);
    if (ry == root) return true;
    if (state.joint_distance(x, y) > window) return false;
    parent[ry] = root;
    return true;
  };
  // Each cell's members ordered by the first joint coordinate (S_{k-1}'s
  // first dimension). A pair further apart than 2r there alone is no edge,
  // and along that order the computed difference only grows, so every scan
  // below stops at the first such pair. That keeps a crowded cell — an
  // outage collapses a blob to one point of S_k while its S_{k-1} positions
  // stay spread — from costing all its pairs.
  const double* key = state.joint_col(0);
  const std::size_t cells = grid.cell_count();
  std::vector<std::uint32_t> run_begin(cells + 1, 0);
  std::vector<DeviceId> runs;
  runs.reserve(m);
  for (std::uint32_t c = 0; c < cells; ++c) {
    const auto members = grid.cell_members(c);
    runs.insert(runs.end(), members.begin(), members.end());
    std::sort(runs.begin() + run_begin[c], runs.end(),
              [&](DeviceId x, DeviceId y) { return key[x] < key[y]; });
    run_begin[c + 1] = static_cast<std::uint32_t>(runs.size());
  }
  const auto run = [&](std::uint32_t c) {
    return std::span<const DeviceId>{runs.data() + run_begin[c],
                                     run_begin[c + 1] - run_begin[c]};
  };

  std::array<std::size_t, 2 * Point::kMaxDim> joint_dims{};
  std::iota(joint_dims.begin(), joint_dims.end(), std::size_t{0});
  const std::span<const std::size_t> all_dims{joint_dims.data(), state.joint_dim()};
  std::vector<std::uint8_t> whole(cells, 1);  // cell is one component
  for (std::uint32_t c = 0; c < cells; ++c) {
    const auto members = run(c);
    if (members.size() == 1) continue;
    if (spans_fit_window(state, window, members, all_dims)) {
      for (const DeviceId id : members.subspan(1)) parent[find(id)] = find(members[0]);
      continue;
    }
    for (std::size_t a = 0; a < members.size(); ++a) {
      const std::uint32_t root = find(members[a]);
      for (std::size_t b = a + 1;
           b < members.size() && key[members[b]] - key[members[a]] <= window; ++b) {
        join(root, members[a], members[b]);
      }
    }
    for (const DeviceId id : members.subspan(1)) {
      if (find(id) != find(members[0])) whole[c] = 0;
    }
  }
  grid.for_each_cell_pair(window, [&](std::uint32_t a, std::uint32_t b) {
    const bool both_whole = whole[a] != 0 && whole[b] != 0;
    const auto xs = run(a);
    std::size_t lo = 0;  // first x not more than 2r below y
    for (const DeviceId y : run(b)) {
      while (lo < xs.size() && key[y] - key[xs[lo]] > window) ++lo;
      const std::uint32_t root = find(y);
      for (std::size_t i = lo; i < xs.size() && key[xs[i]] - key[y] <= window; ++i) {
        if (join(root, y, xs[i]) && both_whole) return;
      }
    }
  });
  // Point every rank straight at its root.
  for (std::size_t rank = 0; rank < m; ++rank) {
    while (parent[parent[rank]] != parent[rank]) parent[rank] = parent[parent[rank]];
  }
  return parent;
}

}  // namespace

bool spans_fit_window(const StatePair& state, double window,
                      std::span<const DeviceId> active,
                      std::span<const std::size_t> dims) noexcept {
  // min/max of doubles is exact and order-free, so the kernel reduction is
  // byte-identical to the plain scan on every input.
  const kernels::Ops& ops = kernels::dispatch();
  for (const std::size_t t : dims) {
    double lo;
    double hi;
    ops.minmax_ids(state.joint_col(t), active.data(), active.size(), &lo, &hi);
    if (hi - lo > window) return false;
  }
  return true;
}

std::vector<DeviceSet> enumerate_maximal_windows(const StatePair& state,
                                                 const Params& params,
                                                 std::vector<DeviceId> pool,
                                                 std::optional<DeviceId> anchor,
                                                 OracleCounters* counters) {
  EnumerationScratch scratch;
  enumerate_into(state, params, pool, anchor, counters, scratch);
  std::vector<DeviceSet> family;
  family.reserve(scratch.maximal.size());
  for (const std::uint32_t i : scratch.maximal) {
    const auto run = scratch.covers.run(i);
    family.push_back(
        DeviceSet::from_sorted(std::vector<DeviceId>(run.begin(), run.end())));
  }
  return family;
}

bool exists_dense_window_cover(const StatePair& state, const Params& params,
                               std::span<const DeviceId> pool) {
  const double window = params.window();

  // This slide visits dimensions in natural order; the shared tight-cluster
  // cut takes the remaining suffix of this identity order.
  static constexpr auto kIdentityDims = [] {
    std::array<std::size_t, 2 * Point::kMaxDim> dims{};
    for (std::size_t i = 0; i < dims.size(); ++i) dims[i] = i;
    return dims;
  }();

  // Same canonical-window slide as `enumerate_maximal_windows`, but returns
  // at the first window whose cover is dense — no maximal-family
  // materialization. Inner loops scan the columnar joint layout.
  const kernels::Ops& ops = kernels::dispatch();
  const auto slide_any = [&](const auto& self, std::span<const DeviceId> active,
                             std::size_t dim_index) -> bool {
    if (active.size() <= params.tau) return false;  // can only shrink further
    if (dim_index == state.joint_dim()) return true;

    // Tight-cluster cut: if the active set spans at most 2r in every
    // remaining dimension, one window covers it whole — and it is dense.
    if (spans_fit_window(state, window, active,
                         std::span<const std::size_t>{
                             kIdentityDims.data() + dim_index,
                             state.joint_dim() - dim_index})) {
      return true;
    }

    const double* col = state.joint_col(dim_index);
    std::vector<double> edges;
    edges.reserve(active.size());
    for (const DeviceId id : active) edges.push_back(col[id]);
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    // Same kernel-dispatched filter as the enumeration slide.
    const std::uint32_t* qcol = state.qcol(dim_index);
    std::vector<DeviceId> next;
    next.reserve(active.size());
    for (const double lower : edges) {
      const kernels::WindowBoundsQ bounds =
          kernels::window_bounds(lower, lower + window);
      next.resize(active.size());
      next.resize(ops.filter_in_window(qcol, col, active.data(), active.size(),
                                       bounds, next.data()));
      if (self(self, next, dim_index + 1)) return true;
    }
    return false;
  };
  return slide_any(slide_any, pool, 0);
}

GridIndex MotionPlane::index_for(const StatePair& state, const Params& params) {
  params.validate();
  return GridIndex(state, state.abnormal(), std::max(params.window(), kMinGridCell));
}

MotionPlane::MotionPlane(const StatePair& state, Params params)
    : MotionPlane(state, params, index_for(state, params)) {}

MotionPlane::MotionPlane(const StatePair& state, Params params, GridIndex grid,
                         WorkerPool* pool, std::size_t component_fanout,
                         PlaneBuildLanes* lanes, std::uint64_t arena_budget_bytes)
    : state_(state), params_(params), grid_(std::move(grid)) {
  params_.validate();
  budget_.limit = arena_budget_bytes;
  build(pool, component_fanout, lanes);
}

void MotionPlane::build(WorkerPool* pool, std::size_t component_fanout,
                        PlaneBuildLanes* lanes) {
  const DeviceSet& abnormal = state_.abnormal();
  ids_.assign(abnormal.begin(), abnormal.end());
  const std::size_t m = ids_.size();
  const double window = params_.window();

  // Dense rank lookup: rank_of / covers / intern_run become array reads.
  rank_lookup_.assign(m == 0 ? 0 : ids_.back() + 1, kNoRank);
  for (std::size_t rank = 0; rank < m; ++rank) {
    rank_lookup_[ids_[rank]] = static_cast<std::uint32_t>(rank);
  }

  // Pass 1: connected components of the 2r-interaction graph.
  std::vector<std::uint32_t> root = component_roots(state_, grid_, window, rank_lookup_, m);

  // Component slots by smallest member: scanning ranks in ascending order
  // also keeps every component's member run sorted by id. The root array
  // is reused as the root -> slot map once comp_of_ holds the roots.
  comp_of_ = root;
  comp_rank_of_.resize(m);
  std::vector<std::uint32_t> comp_size;
  std::fill(root.begin(), root.end(), kNoRank);
  for (std::size_t rank = 0; rank < m; ++rank) {
    std::uint32_t& slot = root[comp_of_[rank]];
    if (slot == kNoRank) {
      slot = static_cast<std::uint32_t>(comp_size.size());
      comp_size.push_back(0);
    }
    comp_of_[rank] = slot;
    comp_rank_of_[rank] = comp_size[slot]++;
  }
  const std::size_t comp_count = comp_size.size();

  // Component-indexed arenas: each component's sorted member list is the
  // comp-rank universe its motions' membership bitsets index into (the
  // characterizer's word-parallel Theorem 6/7 path).
  budget_.charge(m * (3 * sizeof(std::uint32_t)) +
                 (comp_count + 1) * sizeof(std::uint32_t));
  comp_member_offsets_.assign(comp_count + 1, 0);
  for (std::size_t ci = 0; ci < comp_count; ++ci) {
    comp_member_offsets_[ci + 1] = comp_member_offsets_[ci] + comp_size[ci];
  }
  comp_members_.resize(m);
  for (std::size_t rank = 0; rank < m; ++rank) {
    comp_members_[comp_member_offsets_[comp_of_[rank]] + comp_rank_of_[rank]] = ids_[rank];
  }

  // Pass 2: ONE unanchored enumeration per component. Correctness hinges on
  // an exact identity: a motion that is inclusion-maximal among the motions
  // containing j is inclusion-maximal among ALL motions (every superset of
  // it still contains j), so M(j) == { M in maxMotions(component of j) :
  // j in M }. This is the "compute each A_k's motion families once"
  // inversion — a blob of size b is slid once instead of once per member.
  // Validated against brute-force subset enumeration by
  // tests/core/motion_plane_test.cc.
  // Family enumeration, planned as a flat task list. Most components are
  // one task each (the full enumerate + maximality-select, exactly the
  // serial walk). A component that would monopolize a lane — estimated
  // enumeration cost = member count x per-dimension window-span sum — and
  // is NOT a tight cluster (tight ones collapse to one bounding-box scan)
  // is split across several tasks by top-level edge ranges; its maximality
  // selection then runs at merge over the task covers. The flat list keeps
  // the fan-out a single for_each (nested pool sections would deadlock on
  // section_mutex_), and the split decision reads only the component data,
  // never the pool — so every pool size plans, and produces, the same
  // thing. Tasks are DISPATCHED costliest-first (classic LPT against skew)
  // but write private slots merged in plan order, so scheduling cannot leak
  // into results.
  struct EnumTask {
    std::uint32_t comp;
    std::uint32_t task_index;
    std::uint32_t task_count;
    std::uint64_t cost;  ///< dispatch-priority estimate for this task
  };
  struct TaskResult {
    std::vector<DeviceId> arena;            ///< concatenated runs
    std::vector<std::uint32_t> offsets{0};  ///< run boundaries
    OracleCounters counters;
    bool final_family = false;  ///< runs are the finished family (1-task path)
  };
  constexpr std::uint64_t kSplitGrain = 4096;
  constexpr double kMaxSpanWeight = 1 << 20;
  constexpr std::uint32_t kMaxTasksPerComponent = 32;
  std::vector<EnumTask> tasks;
  tasks.reserve(comp_count);
  std::vector<std::uint32_t> comp_task_begin(comp_count + 1, 0);
  const kernels::Ops& ops = kernels::dispatch();
  for (std::size_t ci = 0; ci < comp_count; ++ci) {
    const auto comp = component_members(static_cast<std::uint32_t>(ci));
    std::uint64_t span_weight = 0;
    bool tight = true;
    for (std::size_t t = 0; t < state_.joint_dim(); ++t) {
      double lo;
      double hi;
      ops.minmax_ids(state_.joint_col(t), comp.data(), comp.size(), &lo, &hi);
      // Span in windows, at least 1. Within the window it is 1 without
      // dividing: at r = 0 the quotient is NaN or inf, which must never
      // reach the integer cast; the cap bounds it for any tiny r > 0.
      const double span = hi - lo;
      if (span > window) {
        tight = false;
        span_weight += static_cast<std::uint64_t>(
            std::min(std::ceil(span / window), kMaxSpanWeight));
      } else {
        span_weight += 1;
      }
    }
    const std::uint64_t cost = comp.size() * span_weight;
    std::uint32_t task_count = 1;
    if (pool != nullptr && !tight && cost >= 2 * kSplitGrain) {
      task_count = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          std::min<std::uint64_t>(cost / kSplitGrain, kMaxTasksPerComponent),
          comp.size()));
    }
    comp_task_begin[ci] = static_cast<std::uint32_t>(tasks.size());
    for (std::uint32_t t = 0; t < task_count; ++t) {
      tasks.push_back(EnumTask{static_cast<std::uint32_t>(ci), t, task_count,
                               cost / task_count});
    }
  }
  comp_task_begin[comp_count] = static_cast<std::uint32_t>(tasks.size());

  std::vector<std::uint32_t> dispatch(tasks.size());
  std::iota(dispatch.begin(), dispatch.end(), 0u);
  std::stable_sort(dispatch.begin(), dispatch.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return tasks[a].cost > tasks[b].cost;
                   });

  std::vector<TaskResult> results(tasks.size());
  const auto run_task = [&](std::size_t slot) {
    // One scratch per lane, reused across tasks AND planes (CoverStore and
    // the edge/next vectors keep their capacity; contents are cleared by
    // prepare_pool). Lanes are distinct threads, so thread_local is exactly
    // per-lane; the serial loop is one lane reusing one scratch.
    thread_local EnumerationScratch scratch;
    scratch.covers.budget = &budget_;
    const EnumTask& task = tasks[dispatch[slot]];
    TaskResult& out = results[dispatch[slot]];
    if (task.task_count == 1) {
      out.final_family = true;
      ++out.counters.enumeration_calls;
      enumerate_into(state_, params_, component_members(task.comp), std::nullopt,
                     &out.counters, scratch);
      // scratch.maximal is lexicographic by members; appending in this
      // order keeps every member's family in the project-wide order.
      for (const std::uint32_t i : scratch.maximal) {
        const auto run = scratch.covers.run(i);
        out.arena.insert(out.arena.end(), run.begin(), run.end());
        out.offsets.push_back(static_cast<std::uint32_t>(out.arena.size()));
      }
      return;
    }
    // Split path: this task slides its share of the top-level edges and
    // exports its (locally deduped) covers in store order; one task carries
    // the component's enumeration_calls tick.
    if (task.task_index == 0) ++out.counters.enumeration_calls;
    std::array<double, Point::kMaxDim> anchor_coords{};
    prepare_pool(state_, params_, component_members(task.comp), std::nullopt,
                 anchor_coords, scratch);
    slide_edge_slice(state_, window, task.task_index, task.task_count, scratch,
                     &out.counters);
    for (std::uint32_t i = 0; i < scratch.covers.count(); ++i) {
      const auto run = scratch.covers.run(i);
      out.arena.insert(out.arena.end(), run.begin(), run.end());
      out.offsets.push_back(static_cast<std::uint32_t>(out.arena.size()));
    }
  };
  if (pool != nullptr) {
    pool->for_each(tasks.size(), component_fanout, run_task,
                   lanes != nullptr ? &lanes->enumerate_lane_ms : nullptr);
  } else {
    for (std::size_t slot = 0; slot < tasks.size(); ++slot) run_task(slot);
  }

  // Deterministic merge: intern runs and assign families component by
  // component, in discovery order. Split components re-assemble their cover
  // store from the task slices in task (= edge) order — per-task dedup kept
  // first occurrences within a slice, the merge add() keeps the first
  // across slices, so the assembled store holds exactly the serial store's
  // runs — then run the same content-based maximality selection.
  motion_offsets_.push_back(0);
  std::vector<std::vector<MotionId>> family_of(m);
  std::vector<std::vector<MotionId>> dense_of(m);
  EnumerationScratch merge_scratch;
  const auto intern_run = [&](std::span<const DeviceId> run) {
    const MotionId mid = intern(run);
    motion_component_.push_back(comp_of_[rank_lookup_[run[0]]]);
    const bool dense = run.size() > params_.tau;
    counters_.motions_shared += run.size() - 1;  // one arena run, |M| families
    for (const DeviceId member : run) {
      const std::uint32_t rank = rank_lookup_[member];
      family_of[rank].push_back(mid);
      if (dense) dense_of[rank].push_back(mid);
    }
  };
  for (std::size_t ci = 0; ci < comp_count; ++ci) {
    for (std::uint32_t t = comp_task_begin[ci]; t < comp_task_begin[ci + 1]; ++t) {
      const OracleCounters& c = results[t].counters;
      counters_.windows_explored += c.windows_explored;
      counters_.covers_generated += c.covers_generated;
      counters_.enumeration_calls += c.enumeration_calls;
    }
    const TaskResult& first = results[comp_task_begin[ci]];
    if (first.final_family) {
      for (std::size_t i = 0; i + 1 < first.offsets.size(); ++i) {
        intern_run({first.arena.data() + first.offsets[i],
                    first.offsets[i + 1] - first.offsets[i]});
      }
      continue;
    }
    merge_scratch.covers.clear();
    merge_scratch.maximal.clear();
    for (std::uint32_t t = comp_task_begin[ci]; t < comp_task_begin[ci + 1]; ++t) {
      const TaskResult& part = results[t];
      for (std::size_t i = 0; i + 1 < part.offsets.size(); ++i) {
        merge_scratch.covers.add({part.arena.data() + part.offsets[i],
                                  part.offsets[i + 1] - part.offsets[i]});
      }
    }
    select_maximal(merge_scratch.covers, merge_scratch);
    for (const std::uint32_t i : merge_scratch.maximal) {
      intern_run(merge_scratch.covers.run(i));
    }
  }

  maximal_offsets_.reserve(m + 1);
  maximal_offsets_.push_back(0);
  dense_offsets_.reserve(m + 1);
  dense_offsets_.push_back(0);
  for (std::size_t rank = 0; rank < m; ++rank) {
    maximal_ids_.insert(maximal_ids_.end(), family_of[rank].begin(),
                        family_of[rank].end());
    dense_ids_.insert(dense_ids_.end(), dense_of[rank].begin(),
                      dense_of[rank].end());
    maximal_offsets_.push_back(static_cast<std::uint32_t>(maximal_ids_.size()));
    dense_offsets_.push_back(static_cast<std::uint32_t>(dense_ids_.size()));
  }

  // Membership bitsets over comp-ranks: one word-run per motion, plus per
  // device the AND of its dense motions' runs (all-ones when the dense
  // family is empty — the vacuous truth of "every dense motion of ell
  // contains j"). These are what turn the characterizer's J/L split,
  // Theorem 6 intersection counts, and Theorem 7 survivor counts into
  // bit tests, ANDs, and popcounts.
  const std::size_t motions = motion_count();
  motion_bits_offsets_.reserve(motions + 1);
  motion_bits_offsets_.push_back(0);
  for (MotionId mid = 0; mid < motions; ++mid) {
    const std::size_t words = component_words(motion_component_[mid]);
    budget_.charge(words * sizeof(std::uint64_t));
    const std::size_t at = motion_bits_.size();
    motion_bits_.resize(at + words, 0);
    for (const DeviceId member : members(mid)) {
      const std::uint32_t cr = comp_rank_of_[rank_lookup_[member]];
      motion_bits_[at + (cr >> 6)] |= 1ULL << (cr & 63);
    }
    motion_bits_offsets_.push_back(static_cast<std::uint32_t>(motion_bits_.size()));
  }
  inter_bits_offsets_.reserve(m + 1);
  inter_bits_offsets_.push_back(0);
  for (std::size_t rank = 0; rank < m; ++rank) {
    const std::uint32_t ci = comp_of_[rank];
    const std::size_t comp_size = component_members(ci).size();
    const std::size_t words = (comp_size + 63) / 64;
    budget_.charge(words * sizeof(std::uint64_t));
    const std::size_t at = inter_bits_.size();
    if (dense_of[rank].empty()) {
      inter_bits_.resize(at + words, ~std::uint64_t{0});
      if (comp_size & 63) {
        inter_bits_.back() = (1ULL << (comp_size & 63)) - 1;  // mask the tail
      }
    } else {
      const auto first = motion_bits(dense_of[rank][0]);
      inter_bits_.insert(inter_bits_.end(), first.begin(), first.end());
      for (std::size_t i = 1; i < dense_of[rank].size(); ++i) {
        const auto run = motion_bits(dense_of[rank][i]);
        for (std::size_t k = 0; k < words; ++k) inter_bits_[at + k] &= run[k];
      }
    }
    inter_bits_offsets_.push_back(static_cast<std::uint32_t>(inter_bits_.size()));
  }
}

bool MotionPlane::covers(DeviceId j) const noexcept {
  return j < rank_lookup_.size() && rank_lookup_[j] != kNoRank;
}

std::vector<DeviceId> MotionPlane::neighbourhood(DeviceId j) const {
  std::vector<DeviceId> out;
  for (const DeviceId other : component_members(component_of(j))) {
    if (state_.joint_distance(j, other) <= params_.window()) out.push_back(other);
  }
  return out;
}

std::span<const MotionPlane::MotionId> MotionPlane::maximal(DeviceId j) const {
  const std::size_t rank = rank_of(j);
  return {maximal_ids_.data() + maximal_offsets_[rank],
          maximal_offsets_[rank + 1] - maximal_offsets_[rank]};
}

std::span<const MotionPlane::MotionId> MotionPlane::dense(DeviceId j) const {
  const std::size_t rank = rank_of(j);
  return {dense_ids_.data() + dense_offsets_[rank],
          dense_offsets_[rank + 1] - dense_offsets_[rank]};
}

bool MotionPlane::motion_contains(MotionId m, DeviceId id) const noexcept {
  // O(1) bit test when id is abnormal and in the motion's component; a
  // motion can only contain abnormal members, so anything else is a miss.
  if (id >= rank_lookup_.size()) return false;
  const std::uint32_t rank = rank_lookup_[id];
  if (rank == kNoRank || comp_of_[rank] != motion_component_[m]) return false;
  const std::uint32_t cr = comp_rank_of_[rank];
  return (motion_bits(m)[cr >> 6] >> (cr & 63)) & 1;
}

std::size_t MotionPlane::rank_of(DeviceId j) const {
  if (j >= rank_lookup_.size() || rank_lookup_[j] == kNoRank) {
    throw std::invalid_argument("MotionPlane: device " + std::to_string(j) +
                                " is not in A_k");
  }
  return rank_lookup_[j];
}

MotionPlane::MotionId MotionPlane::intern(std::span<const DeviceId> motion) {
  // Uniqueness holds by construction: within a component the cover store
  // already dedups, and components have disjoint member sets — so every
  // call appends a new distinct run. The sharing the arena buys is one run
  // serving every member's family list.
  const auto mid = static_cast<MotionId>(motion_count());
  budget_.charge(motion.size() * sizeof(DeviceId));
  motion_arena_.insert(motion_arena_.end(), motion.begin(), motion.end());
  motion_offsets_.push_back(static_cast<std::uint32_t>(motion_arena_.size()));
  ++counters_.motions_stored;
  return mid;
}

}  // namespace acn
