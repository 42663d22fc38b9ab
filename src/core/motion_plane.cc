#include "core/motion_plane.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "common/worker_pool.hpp"
#include "core/kernels/kernels.hpp"

namespace acn {
namespace {

/// Calls fn(i) for every set bit i of a `words`-word bitset, ascending.
template <class Fn>
void for_each_bit(const std::uint64_t* bits, std::size_t words, Fn&& fn) {
  for (std::size_t k = 0; k < words; ++k) {
    for (std::uint64_t w = bits[k]; w != 0; w &= w - 1) {
      fn(static_cast<std::uint32_t>(k * 64 + static_cast<std::size_t>(std::countr_zero(w))));
    }
  }
}

std::size_t popcount_and(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t words) noexcept {
  std::size_t count = 0;
  for (std::size_t k = 0; k < words; ++k) {
    count += static_cast<std::size_t>(std::popcount(a[k] & b[k]));
  }
  return count;
}

/// The tight-cluster cut predicate: true iff `active` spans at most
/// `window` in every joint dimension, i.e. `active` is one r-consistent
/// motion (a clique of the 2r-graph) and the only maximal one within
/// itself.
bool spans_fit_window(const StatePair& state, double window,
                      std::span<const DeviceId> active) noexcept {
  // min/max of doubles is exact and order-free, so the kernel reduction is
  // byte-identical to the plain scan on every input.
  const kernels::Ops& ops = kernels::dispatch();
  for (std::size_t t = 0; t < state.joint_dim(); ++t) {
    double lo;
    double hi;
    ops.minmax_ids(state.joint_col(t), active.data(), active.size(), &lo, &hi);
    if (hi - lo > window) return false;
  }
  return true;
}

/// The 2r-graph of one pool as adjacency bitsets over the pool's ranks: bit
/// v of row u is set iff u != v and joint_distance(pool[u], pool[v]) <=
/// window. Under the Chebyshev norm a set's joint bounding box fits the
/// window iff every pair of its members does, and in floating point too: a
/// dimension's computed box side is the computed difference of the pair at
/// its two ends, and rounding is monotone, so no other pair's computed
/// difference exceeds it. The r-consistent motions of the pool are
/// therefore exactly the cliques of this graph, and its maximal motions
/// (Algorithm 2) the maximal cliques.
struct CliqueGraph {
  std::size_t size = 0;
  std::size_t words = 0;
  std::vector<std::uint64_t> adj;  ///< `size` rows of `words` words

  [[nodiscard]] const std::uint64_t* row(std::size_t u) const noexcept {
    return adj.data() + u * words;
  }
};

/// Builds the graph of `pool`, charging its rows to `budget` when given.
/// Pairs are swept along the first joint coordinate: in that order the
/// computed difference only grows, so each scan stops at the first pair
/// more than 2r apart there.
CliqueGraph clique_graph(const StatePair& state, double window,
                         std::span<const DeviceId> pool, ArenaBudget* budget) {
  CliqueGraph g;
  g.size = pool.size();
  g.words = (g.size + 63) / 64;
  if (budget != nullptr) budget->charge(g.size * g.words * sizeof(std::uint64_t));
  g.adj.assign(g.size * g.words, 0);
  const double* key = state.joint_col(0);
  std::vector<std::uint32_t> by_key(g.size);
  std::iota(by_key.begin(), by_key.end(), 0u);
  std::sort(by_key.begin(), by_key.end(), [&](std::uint32_t a, std::uint32_t b) {
    return key[pool[a]] < key[pool[b]];
  });
  for (std::size_t i = 0; i < g.size; ++i) {
    const std::uint32_t u = by_key[i];
    for (std::size_t k = i + 1;
         k < g.size && key[pool[by_key[k]]] - key[pool[u]] <= window; ++k) {
      const std::uint32_t v = by_key[k];
      if (state.joint_distance(pool[u], pool[v]) > window) continue;
      g.adj[u * g.words + v / 64] |= std::uint64_t{1} << (v % 64);
      g.adj[v * g.words + u / 64] |= std::uint64_t{1} << (u % 64);
    }
  }
  return g;
}

/// Degeneracy order (smallest-last): repeatedly take a vertex of least
/// remaining degree. Every vertex then has at most degeneracy-many
/// neighbours later in the order, which bounds each outer subproblem's P
/// (Eppstein, Löffler & Strash 2010); later[i] receives order[i]'s count.
/// Degree buckets are linked lists, so the order costs O(size + edges)
/// time and O(size) memory.
std::vector<std::uint32_t> degeneracy_order(const CliqueGraph& g,
                                            std::vector<std::uint32_t>& later) {
  constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  const std::size_t n = g.size;
  std::vector<std::uint32_t> degree(n);
  std::vector<std::uint32_t> head(n, kNone);
  std::vector<std::uint32_t> next(n);
  std::vector<std::uint32_t> prev(n);
  const auto link = [&](std::uint32_t v) {
    prev[v] = kNone;
    next[v] = head[degree[v]];
    if (next[v] != kNone) prev[next[v]] = v;
    head[degree[v]] = v;
  };
  const auto unlink = [&](std::uint32_t v) {
    (prev[v] != kNone ? next[prev[v]] : head[degree[v]]) = next[v];
    if (next[v] != kNone) prev[next[v]] = prev[v];
  };
  for (auto v = static_cast<std::uint32_t>(n); v-- > 0;) {
    degree[v] = static_cast<std::uint32_t>(popcount_and(g.row(v), g.row(v), g.words));
    link(v);
  }
  std::vector<std::uint8_t> taken(n, 0);
  std::vector<std::uint32_t> order;
  order.reserve(n);
  std::uint32_t d = 0;
  while (order.size() < n) {
    while (head[d] == kNone) ++d;
    const std::uint32_t v = head[d];
    unlink(v);
    taken[v] = 1;
    order.push_back(v);
    later.push_back(d);
    for_each_bit(g.row(v), g.words, [&](std::uint32_t u) {
      if (taken[u] != 0) return;
      unlink(u);
      --degree[u];
      link(u);
    });
    if (d > 0) --d;  // a neighbour may now sit one bucket lower
  }
  return order;
}

/// Bron–Kerbosch with Tomita pivoting (Bron & Kerbosch 1973; Tomita, Tanaka
/// & Takahashi 2006) over one CliqueGraph. Every maximal clique of the form
/// R ∪ S, S ⊆ P, that no X vertex extends reaches `emit` exactly once, as
/// ascending ranks; `emit` returns true to stop the search. Branches where
/// |R| + |P| <= min_size are pruned. One search serves many runs: the
/// per-depth P/X rows keep their capacity.
class CliqueSearch {
 public:
  using Emit = std::function<bool(std::span<const std::uint32_t>)>;

  /// Points the search at `g` with R, P and X empty and returns the root's
  /// P row; its X row follows at P + g.words.
  std::uint64_t* reset(const CliqueGraph& g) {
    g_ = &g;
    if (rows_.size() < 2 * g.words) rows_.resize(2 * g.words);
    std::fill_n(rows_.begin(), 2 * g.words, 0);
    r_.assign(g.words, 0);
    r_size_ = 0;
    return rows_.data();
  }
  void add_to_r(std::uint32_t v) {
    r_[v / 64] |= std::uint64_t{1} << (v % 64);
    ++r_size_;
  }
  /// Searches below the root; adds the nodes visited to `nodes` and returns
  /// true iff `emit` stopped the search.
  bool run(std::size_t min_size, const Emit& emit, std::uint64_t& nodes) {
    min_size_ = min_size;
    emit_ = &emit;
    nodes_ = &nodes;
    // Each level moves one P vertex into R, so |P| + 1 levels suffice. A
    // level's rows are written before they are read, so they only grow.
    const std::size_t levels = popcount_and(rows_.data(), rows_.data(), g_->words) + 1;
    if (rows_.size() < levels * 2 * g_->words) rows_.resize(levels * 2 * g_->words);
    return expand(0, r_size_);
  }

 private:
  bool expand(std::size_t depth, std::size_t r_size);

  const CliqueGraph* g_ = nullptr;
  std::size_t min_size_ = 0;
  const Emit* emit_ = nullptr;
  std::uint64_t* nodes_ = nullptr;
  std::vector<std::uint64_t> rows_;  ///< per depth: the P row, then the X row
  std::vector<std::uint64_t> r_;     ///< R as a bitset
  std::size_t r_size_ = 0;
  std::vector<std::uint32_t> clique_;
};

bool CliqueSearch::expand(std::size_t depth, std::size_t r_size) {
  ++*nodes_;
  const std::size_t w = g_->words;
  std::uint64_t* p = rows_.data() + depth * 2 * w;
  std::uint64_t* x = p + w;
  const std::size_t p_size = popcount_and(p, p, w);
  if (r_size + p_size <= min_size_) return false;

  // Tomita's pivot: the P ∪ X vertex with the most neighbours in P. The P
  // half of the scan also tells whether P is a clique; an X vertex
  // adjacent to all of P extends every clique of this branch.
  std::uint32_t pivot = 0;
  std::size_t best = 0;
  bool have_pivot = false;
  const auto neighbours_in_p = [&](std::uint32_t u) {
    const std::size_t c = popcount_and(p, g_->row(u), w);
    if (!have_pivot || c > best) {
      pivot = u;
      best = c;
      have_pivot = true;
    }
    return c;
  };
  bool p_is_clique = true;
  for_each_bit(p, w, [&](std::uint32_t u) {
    if (neighbours_in_p(u) + 1 < p_size) p_is_clique = false;
  });
  bool dominated = false;
  for_each_bit(x, w, [&](std::uint32_t u) {
    dominated = dominated || neighbours_in_p(u) == p_size;
  });
  if (dominated) return false;
  // Node cut: P fits the window (a clique of this graph is exactly a set
  // whose box does), so R ∪ P is the branch's only maximal clique, and no X
  // vertex extends it. With P empty this is plain R.
  if (p_is_clique) {
    clique_.clear();
    for (std::size_t k = 0; k < w; ++k) r_[k] |= p[k];
    for_each_bit(r_.data(), w, [&](std::uint32_t v) { clique_.push_back(v); });
    for (std::size_t k = 0; k < w; ++k) r_[k] &= ~p[k];
    return (*emit_)(clique_);
  }

  // Branch on P \ N(pivot), ascending. A word's candidates are read when
  // the loop reaches it: only lower bits have left P by then.
  std::uint64_t* child_p = x + w;
  std::uint64_t* child_x = child_p + w;
  const std::uint64_t* pivot_row = g_->row(pivot);
  for (std::size_t k = 0; k < w; ++k) {
    for (std::uint64_t cand = p[k] & ~pivot_row[k]; cand != 0; cand &= cand - 1) {
      const std::uint64_t bit = cand & -cand;
      const auto v = static_cast<std::uint32_t>(
          k * 64 + static_cast<std::size_t>(std::countr_zero(cand)));
      const std::uint64_t* nv = g_->row(v);
      for (std::size_t i = 0; i < w; ++i) {
        child_p[i] = p[i] & nv[i];
        child_x[i] = x[i] & nv[i];
      }
      r_[k] |= bit;
      const bool stop = expand(depth + 1, r_size + 1);
      r_[k] &= ~bit;
      if (stop) return true;
      p[k] &= ~bit;  // P \ {v}
      x[k] |= bit;   // X ∪ {v}
    }
  }
  return false;
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

  std::vector<std::uint8_t> whole(cells, 1);  // cell is one component
  for (std::uint32_t c = 0; c < cells; ++c) {
    const auto members = run(c);
    if (members.size() == 1) continue;
    if (spans_fit_window(state, window, members)) {
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

std::vector<DeviceSet> maximal_motions(const StatePair& state, const Params& params,
                                       std::vector<DeviceId> pool,
                                       std::optional<DeviceId> anchor,
                                       OracleCounters* counters) {
  const double window = params.window();
  if (anchor.has_value()) {
    // Only devices within 2r of the anchor can share a motion with it.
    std::erase_if(pool, [&](DeviceId id) {
      return state.joint_distance(*anchor, id) > window;
    });
    pool.push_back(*anchor);
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  if (pool.empty()) return {};
  std::uint64_t nodes = 1;
  std::vector<DeviceSet> family;
  if (spans_fit_window(state, window, pool)) {
    // Tight-cluster cut: the whole pool fits one window.
    family.push_back(DeviceSet::from_sorted(std::move(pool)));
  } else {
    const CliqueGraph graph = clique_graph(state, window, pool, nullptr);
    CliqueSearch search;
    std::uint64_t* p = search.reset(graph);
    if (anchor.has_value()) {
      const auto a = static_cast<std::uint32_t>(
          std::lower_bound(pool.begin(), pool.end(), *anchor) - pool.begin());
      search.add_to_r(a);
      std::copy_n(graph.row(a), graph.words, p);
    } else {
      for (std::size_t v = 0; v < graph.size; ++v) p[v / 64] |= std::uint64_t{1} << (v % 64);
    }
    nodes = 0;
    search.run(
        0,
        [&](std::span<const std::uint32_t> ranks) {
          std::vector<DeviceId> ids;
          ids.reserve(ranks.size());
          for (const std::uint32_t r : ranks) ids.push_back(pool[r]);
          family.push_back(DeviceSet::from_sorted(std::move(ids)));
          return false;
        },
        nodes);
    std::sort(family.begin(), family.end());
  }
  if (counters != nullptr) {
    counters->windows_explored += nodes;
    counters->covers_generated += family.size();
  }
  return family;
}

bool has_dense_motion(const StatePair& state, const Params& params,
                      std::span<const DeviceId> pool) {
  if (pool.size() <= params.tau) return false;
  if (spans_fit_window(state, params.window(), pool)) return true;
  // The same search, pruned to branches that can still hold more than tau
  // members; every clique it emits is dense, so the first one ends it.
  const CliqueGraph graph = clique_graph(state, params.window(), pool, nullptr);
  CliqueSearch search;
  std::uint64_t* p = search.reset(graph);
  for (std::size_t v = 0; v < graph.size; ++v) p[v / 64] |= std::uint64_t{1} << (v % 64);
  std::uint64_t nodes = 0;
  return search.run(
      params.tau, [](std::span<const std::uint32_t>) { return true; }, nodes);
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

  // Pass 2: the maximal motions of each component, which are the maximal
  // cliques of its 2r-graph (see CliqueGraph). A motion that is maximal
  // among the motions containing j is maximal among all of them, so M(j) ==
  // { M in maxMotions(component of j) : j in M } — one search per component
  // serves every member. A tight component, one whose joint box fits the
  // window, is one clique and emits itself with no search. Every other
  // ("loose") component gets its adjacency bitsets in comp-rank space and
  // a degeneracy order, fanned out over components costliest first; then
  // its outer Bron–Kerbosch loop runs as tasks over contiguous ranges of
  // that order, again costliest first. Vertex v's subproblem is R = {v},
  // P = its neighbours later in the order, X = the earlier ones, so each
  // maximal clique is emitted once, by its first vertex in the order, and
  // the subproblems are independent. Results merge in component and order
  // position, and each component's cliques are sorted by members before
  // interning, so families, ids and counters are the same for every pool
  // size.
  std::vector<std::uint32_t> loose;
  for (std::size_t ci = 0; ci < comp_count; ++ci) {
    const auto comp = component_members(static_cast<std::uint32_t>(ci));
    if (spans_fit_window(state_, window, comp)) {
      budget_.charge(comp.size() * sizeof(DeviceId));  // the emitted clique
    } else {
      loose.push_back(static_cast<std::uint32_t>(ci));
    }
  }
  const auto costliest_first = [](std::vector<std::uint32_t>& order, const auto& cost) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) { return cost(a) > cost(b); });
  };
  const auto fan_out = [&](std::size_t count, const std::function<void(std::size_t)>& fn) {
    if (pool == nullptr) {
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    std::vector<double> lane_ms;
    pool->for_each(count, component_fanout, fn, lanes != nullptr ? &lane_ms : nullptr);
    if (lanes == nullptr) return;
    std::vector<double>& total = lanes->enumerate_lane_ms;  // summed per lane slot
    total.resize(std::max(total.size(), lane_ms.size()), 0.0);
    for (std::size_t i = 0; i < lane_ms.size(); ++i) total[i] += lane_ms[i];
  };

  struct LooseComponent {
    CliqueGraph graph;
    std::vector<std::uint32_t> order;  ///< degeneracy order of comp-ranks
    std::vector<std::uint32_t> later;  ///< per position: |P| of its subproblem
    std::vector<std::uint32_t> pos;    ///< comp-rank -> position in order
  };
  std::vector<LooseComponent> graphs(loose.size());
  std::vector<std::uint32_t> dispatch(loose.size());
  std::iota(dispatch.begin(), dispatch.end(), 0u);
  costliest_first(dispatch, [&](std::uint32_t i) { return comp_size[loose[i]]; });
  fan_out(loose.size(), [&](std::size_t slot) {
    LooseComponent& lc = graphs[dispatch[slot]];
    lc.graph = clique_graph(state_, window, component_members(loose[dispatch[slot]]), &budget_);
    lc.order = degeneracy_order(lc.graph, lc.later);
    lc.pos.resize(lc.order.size());
    for (std::size_t i = 0; i < lc.order.size(); ++i) {
      lc.pos[lc.order[i]] = static_cast<std::uint32_t>(i);
    }
  });

  // Each loose component's order, cut into tasks of about kTaskGrain
  // estimated cost, a subproblem being estimated at 1 + |P|^2. The cut
  // reads only the component, never the pool.
  constexpr std::uint64_t kTaskGrain = std::uint64_t{1} << 16;
  struct SearchTask {
    std::uint32_t loose;
    std::uint32_t begin;
    std::uint32_t end;
    std::uint64_t cost;
  };
  std::vector<SearchTask> tasks;
  for (std::size_t li = 0; li < loose.size(); ++li) {
    const LooseComponent& lc = graphs[li];
    SearchTask task{static_cast<std::uint32_t>(li), 0, 0, 0};
    for (std::size_t i = 0; i < lc.order.size(); ++i) {
      task.cost += 1 + std::uint64_t{lc.later[i]} * lc.later[i];
      task.end = static_cast<std::uint32_t>(i + 1);
      if (task.cost >= kTaskGrain || task.end == lc.order.size()) {
        tasks.push_back(task);
        task = SearchTask{static_cast<std::uint32_t>(li), task.end, task.end, 0};
      }
    }
  }
  struct SearchResult {
    std::vector<std::uint32_t> ranks;       ///< emitted cliques, concatenated
    std::vector<std::uint32_t> offsets{0};  ///< clique boundaries
    std::uint64_t nodes = 0;
  };
  std::vector<SearchResult> results(tasks.size());
  dispatch.resize(tasks.size());
  std::iota(dispatch.begin(), dispatch.end(), 0u);
  costliest_first(dispatch, [&](std::uint32_t t) { return tasks[t].cost; });
  fan_out(tasks.size(), [&](std::size_t slot) {
    const SearchTask& task = tasks[dispatch[slot]];
    SearchResult& out = results[dispatch[slot]];
    const LooseComponent& lc = graphs[task.loose];
    const CliqueGraph& g = lc.graph;
    const CliqueSearch::Emit emit = [&](std::span<const std::uint32_t> clique) {
      budget_.charge(clique.size() * sizeof(std::uint32_t));
      out.ranks.insert(out.ranks.end(), clique.begin(), clique.end());
      out.offsets.push_back(static_cast<std::uint32_t>(out.ranks.size()));
      return false;
    };
    CliqueSearch search;
    for (std::uint32_t i = task.begin; i < task.end; ++i) {
      const std::uint32_t v = lc.order[i];
      std::uint64_t* p = search.reset(g);
      std::uint64_t* x = p + g.words;
      for_each_bit(g.row(v), g.words, [&](std::uint32_t u) {
        std::uint64_t* side = lc.pos[u] > i ? p : x;
        side[u / 64] |= std::uint64_t{1} << (u % 64);
      });
      search.add_to_r(v);
      search.run(0, emit, out.nodes);
    }
  });

  // Deterministic merge, component by component in discovery order.
  // Runs are distinct by construction: a component's search emits each
  // maximal clique once, and components have disjoint member sets. The
  // sharing the arena buys is one run serving every member's family list.
  motion_offsets_.push_back(0);
  const auto intern_run = [&](std::uint32_t comp, std::span<const std::uint32_t> ranks) {
    budget_.charge(ranks.size() * sizeof(DeviceId));
    const auto members = component_members(comp);
    for (const std::uint32_t r : ranks) motion_arena_.push_back(members[r]);
    motion_offsets_.push_back(static_cast<std::uint32_t>(motion_arena_.size()));
    motion_component_.push_back(comp);
    ++counters_.motions_stored;
    counters_.motions_shared += ranks.size() - 1;  // one arena run, |M| families
  };
  std::vector<std::uint32_t> whole;
  std::vector<std::span<const std::uint32_t>> cliques;
  std::size_t li = 0;
  std::size_t ti = 0;
  for (std::size_t ci = 0; ci < comp_count; ++ci) {
    const auto comp = static_cast<std::uint32_t>(ci);
    ++counters_.enumeration_calls;
    if (li == loose.size() || loose[li] != comp) {
      // Tight: one search node, one clique.
      ++counters_.windows_explored;
      ++counters_.covers_generated;
      whole.resize(comp_size[ci]);
      std::iota(whole.begin(), whole.end(), 0u);
      intern_run(comp, whole);
      continue;
    }
    cliques.clear();
    for (; ti < tasks.size() && tasks[ti].loose == li; ++ti) {
      const SearchResult& part = results[ti];
      counters_.windows_explored += part.nodes;
      for (std::size_t i = 0; i + 1 < part.offsets.size(); ++i) {
        cliques.emplace_back(part.ranks.data() + part.offsets[i],
                             part.offsets[i + 1] - part.offsets[i]);
      }
    }
    // Family order: lexicographic by members (a shorter prefix sorts
    // first), matching DeviceSet's vector comparison project-wide; comp
    // ranks ascend with ids, so ranks sort as the ids do.
    std::sort(cliques.begin(), cliques.end(), [](const auto& a, const auto& b) {
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
    });
    counters_.covers_generated += cliques.size();
    for (const auto& clique : cliques) intern_run(comp, clique);
    ++li;
  }

  // One pass over the motions fills each M(j) (a counting sort over ranks;
  // id order is family order, a component's motions being interned
  // lexicographically) and each motion's membership bitset over comp-ranks
  // — what turns the characterizer's J/L split and Theorem 6/7 counts into
  // bit tests, ANDs and popcounts.
  const std::size_t motions = motion_count();
  maximal_offsets_.assign(m + 1, 0);
  for (const DeviceId member : motion_arena_) ++maximal_offsets_[rank_lookup_[member] + 1];
  std::partial_sum(maximal_offsets_.begin(), maximal_offsets_.end(), maximal_offsets_.begin());
  maximal_ids_.resize(maximal_offsets_[m]);
  std::vector<std::uint32_t> next(maximal_offsets_.begin(), maximal_offsets_.end() - 1);
  motion_bits_offsets_.reserve(motions + 1);
  motion_bits_offsets_.push_back(0);
  for (MotionId mid = 0; mid < motions; ++mid) {
    const std::size_t words = component_words(motion_component_[mid]);
    budget_.charge(words * sizeof(std::uint64_t));
    const std::size_t at = motion_bits_.size();
    motion_bits_.resize(at + words, 0);
    for (const DeviceId member : members(mid)) {
      const std::uint32_t rank = rank_lookup_[member];
      maximal_ids_[next[rank]++] = mid;
      const std::uint32_t cr = comp_rank_of_[rank];
      motion_bits_[at + (cr >> 6)] |= 1ULL << (cr & 63);
    }
    motion_bits_offsets_.push_back(static_cast<std::uint32_t>(motion_bits_.size()));
  }

  // Dense families: W-bar_k(j) is the subsequence of M(j) with more than
  // tau members. The map is keyed by whole runs, so devices share a family
  // id exactly when their runs are equal (the hash only picks a bucket).
  family_of_.assign(m, kNoFamily);
  const auto run_hash = [](const std::vector<MotionId>& run) { return hash_ids(run); };
  std::unordered_map<std::vector<MotionId>, FamilyId, decltype(run_hash)> family_ids;
  std::vector<MotionId> run;
  for (std::size_t rank = 0; rank < m; ++rank) {
    run.clear();
    for (std::uint32_t i = maximal_offsets_[rank]; i < maximal_offsets_[rank + 1]; ++i) {
      if (members(maximal_ids_[i]).size() > params_.tau) run.push_back(maximal_ids_[i]);
    }
    if (run.empty()) continue;
    const auto [it, fresh] =
        family_ids.try_emplace(run, static_cast<FamilyId>(family_count()));
    family_of_[rank] = it->second;
    if (!fresh) continue;
    family_motions_.insert(family_motions_.end(), run.begin(), run.end());
    family_offsets_.push_back(static_cast<std::uint32_t>(family_motions_.size()));
    const std::size_t at = family_bits_.size();
    const std::size_t words = motion_bits(run[0]).size();
    budget_.charge(words * sizeof(std::uint64_t));
    family_bits_.resize(at + words, ~std::uint64_t{0});
    for (const MotionId mid : run) {
      for (std::size_t k = 0; k < words; ++k) family_bits_[at + k] &= motion_bits(mid)[k];
    }
    family_bits_offsets_.push_back(static_cast<std::uint32_t>(family_bits_.size()));
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
  const FamilyId f = family(j);
  if (f == kNoFamily) return {};
  return {family_motions_.data() + family_offsets_[f],
          family_offsets_[f + 1] - family_offsets_[f]};
}

std::pair<MotionPlane::MotionId, MotionPlane::MotionId> MotionPlane::component_motions(
    std::uint32_t c) const {
  // Motions are interned component by component: motion_component_ is sorted.
  const auto [lo, hi] = std::equal_range(motion_component_.begin(), motion_component_.end(), c);
  return {static_cast<MotionId>(lo - motion_component_.begin()),
          static_cast<MotionId>(hi - motion_component_.begin())};
}

std::size_t MotionPlane::rank_of(DeviceId j) const {
  if (j >= rank_lookup_.size() || rank_lookup_[j] == kNoRank) {
    throw std::invalid_argument("MotionPlane: device " + std::to_string(j) +
                                " is not in A_k");
  }
  return rank_lookup_[j];
}

}  // namespace acn
