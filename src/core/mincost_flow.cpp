#include "core/mincost_flow.hpp"

#include <algorithm>
#include <bit>
#include <climits>
#include <functional>

#include "obs/recorder.hpp"
#include "util/assert.hpp"

namespace gm::core {

MinCostFlow::MinCostFlow(int node_count) { reset(node_count); }

void MinCostFlow::reset(int node_count) {
  GM_CHECK(node_count > 0, "flow network needs at least one node");
  node_count_ = node_count;
  edges_.clear();
  laid_out_ = false;
}

int MinCostFlow::add_edge(NodeIdx from, NodeIdx to, long long capacity,
                          long long cost) {
  GM_CHECK(from >= 0 && from < node_count() && to >= 0 &&
               to < node_count(),
           "flow edge endpoint out of range: " << from << " -> " << to);
  GM_CHECK(capacity >= 0, "negative edge capacity");
  GM_CHECK(cost >= 0, "SSP requires non-negative edge costs, got " << cost);
  edges_.push_back(CostScalingCore::ExtArc{from, to, capacity, cost});
  laid_out_ = false;
  return static_cast<int>(edges_.size()) - 1;
}

void MinCostFlow::lay_out() {
  const int n = node_count_;
  first_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& e : edges_) {
    ++first_[e.from + 1];
    ++first_[e.to + 1];
  }
  for (int u = 0; u < n; ++u) first_[u + 1] += first_[u];
  arcs_.resize(2 * edges_.size());
  edge_arc_.resize(edges_.size());
  // Edges in add order, forward arc before reverse arc: each node's
  // block then lists its arcs in the order add_edge() created them,
  // including a self-loop's forward arc just before its reverse arc.
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const auto& e = edges_[i];
    const int fwd = first_[e.from]++;
    const int rev = first_[e.to]++;
    arcs_[fwd] = Arc{e.to, rev, e.cap, e.cost};
    arcs_[rev] = Arc{e.from, fwd, 0, -e.cost};
    edge_arc_[i] = fwd;
  }
  // The scatter advanced each block start to the next block's start.
  for (int u = n - 1; u > 0; --u) first_[u] = first_[u - 1];
  first_[0] = 0;
  laid_out_ = true;
}

bool MinCostFlow::potentials_valid(
    const std::vector<long long>& pot) const {
  if (pot.size() != static_cast<std::size_t>(node_count_)) return false;
  for (int u = 0; u < node_count_; ++u) {
    for (int a = first_[u]; a < first_[u + 1]; ++a) {
      const Arc& arc = arcs_[a];
      if (arc.capacity > 0 && arc.cost + pot[u] - pot[arc.to] < 0)
        return false;
    }
  }
  return true;
}

std::uint64_t MinCostFlow::arena_bytes() const {
  std::uint64_t bytes = edges_.capacity() * sizeof(edges_[0]);
  bytes += arcs_.capacity() * sizeof(Arc);
  bytes += first_.capacity() * sizeof(int);
  bytes += edge_arc_.capacity() * sizeof(int);
  bytes += potential_.capacity() * sizeof(long long);
  bytes += dist_.capacity() * sizeof(long long);
  bytes += prev_arc_.capacity() * sizeof(int);
  bytes += heap_.capacity() * sizeof(heap_[0]);
  bytes += order_.capacity() * sizeof(NodeIdx);
  bytes += pop_index_.capacity() * sizeof(int);
  bytes += disc_pop_.capacity() * sizeof(int);
  bytes += frontier_.capacity() * sizeof(std::uint64_t);
  bytes += scaling_.bytes();
  return bytes;
}

void MinCostFlow::begin_stats(bool warm) {
  last_stats_ = SolveStats{};
  last_stats_.nodes = node_count();
  last_stats_.arcs = edges_.size();
  last_stats_.warm = warm;
  last_stats_.arena_bytes = arena_bytes();
}

MinCostFlow::Result MinCostFlow::solve(NodeIdx s, NodeIdx t,
                                       long long max_flow) {
  GM_OBS_SCOPE("planner.mincostflow.solve");
  GM_CHECK(s >= 0 && s < node_count() && t >= 0 && t < node_count(),
           "flow terminal out of range");
  GM_CHECK(s != t, "source equals sink");
  if (!laid_out_) lay_out();
  if (solver_ == SolverKind::kCostScaling) {
    begin_stats(/*warm=*/false);
    return run_cost_scaling(s, t, max_flow);
  }
  potential_.assign(static_cast<std::size_t>(node_count_), 0);  // costs >= 0
  begin_stats(/*warm=*/false);
  return run_ssp(s, t, max_flow);
}

MinCostFlow::Result MinCostFlow::solve(
    NodeIdx s, NodeIdx t, long long max_flow,
    const std::vector<long long>& warm_potentials) {
  GM_OBS_SCOPE("planner.mincostflow.solve");
  GM_CHECK(s >= 0 && s < node_count() && t >= 0 && t < node_count(),
           "flow terminal out of range");
  GM_CHECK(s != t, "source equals sink");
  if (!laid_out_) lay_out();
  if (solver_ == SolverKind::kCostScaling) {
    // Johnson potentials are an SSP concept; the cost-scaling path
    // retains its own prices across solves (incremental
    // re-optimization), so the seed is ignored without touching the
    // warm-start counters.
    begin_stats(/*warm=*/false);
    return run_cost_scaling(s, t, max_flow);
  }
  // The seam of the warm start: the invariant every search below
  // relies on is checked here, once, over the whole residual network.
  // A stale seed (network changed shape, costs moved) degrades to the
  // always-valid cold start instead of corrupting the solve.
  bool warm = false;
  if (potentials_valid(warm_potentials)) {
    potential_ = warm_potentials;
    ++warm_accepts_;
    warm = true;
  } else {
    potential_.assign(static_cast<std::size_t>(node_count_), 0);
    ++warm_rejects_;
  }
  begin_stats(warm);
  return run_ssp(s, t, max_flow);
}

MinCostFlow::Result MinCostFlow::run_ssp(NodeIdx s, NodeIdx t,
                                         long long max_flow) {
  const auto n = static_cast<std::size_t>(node_count_);
  dist_.resize(n);
  prev_arc_.resize(n);
  pop_index_.assign(n, kUnseen);
  disc_pop_.assign(n, kUnseen);
  disc_pop_[s] = -1;
  frontier_.resize((n + 63) / 64);
  order_.clear();

  Result result;
  // Pops of the previous zero walk that the next one replays: 0 starts
  // afresh from s; after a zero path, the pop of the earliest-popped
  // tail of an arc it saturated (docs/solver.md §SSP, "Resume").
  int keep = 0;
  while (result.flow < max_flow) {
    ++last_stats_.dijkstra_runs;
    const bool zero = zero_search(t, keep);
    if (zero) {
      // dist[t] = 0: the clamped update would add 0 to every
      // potential, so it is skipped.
      ++last_stats_.zero_paths;
    } else {
      if (!dijkstra_from_walk(t)) break;  // no augmenting path
      // Johnson potential update, clamped at dist[t]. For settled
      // nodes this is the classic exact update; for nodes the early
      // exit left unsettled (label, if any, >= dist[t]) the clamp
      // preserves the non-negative reduced-cost invariant on every
      // residual arc.
      const long long dt = dist_[t];
      for (std::size_t v = 0; v < n; ++v)
        potential_[v] += std::min(dist_[v], dt);
    }
    ++last_stats_.augmenting_paths;

    // Bottleneck along the path.
    long long push = max_flow - result.flow;
    for (NodeIdx v = t; v != s; v = tail(prev_arc_[v]))
      push = std::min(push, arcs_[prev_arc_[v]].capacity);
    GM_ASSERT(push > 0);

    keep = zero ? kUnseen : 0;
    for (NodeIdx v = t; v != s;) {
      Arc& arc = arcs_[prev_arc_[v]];
      arc.capacity -= push;
      arcs_[arc.rev].capacity += push;
      result.cost += push * arc.cost;
      v = arcs_[arc.rev].to;
      if (arc.capacity == 0) keep = std::min(keep, pop_index_[v]);
    }
    result.flow += push;
  }
  return result;
}

bool MinCostFlow::zero_search(NodeIdx t, int keep) {
  GM_ASSERT(keep >= 0 && static_cast<std::size_t>(keep) <= order_.size());
  // Replay: pops [0, keep) and their discoveries stand; every node they
  // discovered but did not pop goes back on the frontier.
  order_.resize(static_cast<std::size_t>(keep));
  std::fill(frontier_.begin(), frontier_.end(), 0);
  const int words = static_cast<int>(frontier_.size());
  int lo = words;  // no frontier bit below word `lo`
  for (int v = 0; v < node_count_; ++v) {
    if (disc_pop_[v] >= keep) {
      disc_pop_[v] = kUnseen;
      pop_index_[v] = kUnseen;
    } else if (pop_index_[v] >= keep) {
      pop_index_[v] = kUnseen;
      frontier_[v >> 6] |= std::uint64_t{1} << (v & 63);
      lo = std::min(lo, v >> 6);
    }
  }

  // Telemetry counters live in registers for the duration of the
  // walk; folded into last_stats_ once at exit (see SolveStats).
  std::uint64_t pops = 0;
  std::uint64_t relaxations = 0;
  bool found = false;
  while (!found) {
    while (lo < words && frontier_[lo] == 0) ++lo;
    if (lo == words) break;  // R exhausted: t has no zero path
    const NodeIdx u = lo * 64 + std::countr_zero(frontier_[lo]);
    frontier_[lo] &= frontier_[lo] - 1;
    const int pop = static_cast<int>(order_.size());
    order_.push_back(u);
    pop_index_[u] = pop;
    ++pops;
    const long long pot_u = potential_[u];
    for (int a = first_[u]; a < first_[u + 1]; ++a) {
      const Arc& arc = arcs_[a];
      if (arc.capacity <= 0) continue;
      ++relaxations;
      const long long rc = arc.cost + pot_u - potential_[arc.to];
      GM_ASSERT_MSG(rc >= 0, "negative reduced cost — potentials invalid");
      if (rc != 0 || disc_pop_[arc.to] != kUnseen) continue;
      // First discovery is final: the Dijkstra's predecessor of a
      // zero-distance node is the first popped node with a zero arc
      // to it, via the first such arc in adjacency order.
      disc_pop_[arc.to] = pop;
      prev_arc_[arc.to] = a;
      if (arc.to == t) {
        found = true;
        break;
      }
      frontier_[arc.to >> 6] |= std::uint64_t{1} << (arc.to & 63);
      lo = std::min(lo, arc.to >> 6);
    }
  }
  last_stats_.dijkstra_pops += pops;
  last_stats_.dijkstra_relaxations += relaxations;
  return found;
}

bool MinCostFlow::dijkstra_from_walk(NodeIdx t) {
  // Dijkstra on reduced costs, resumed after the walk: the walk's pops
  // (the set R, all at distance 0) are exactly the Dijkstra's first |R|
  // pops, so label R at 0 and relax its arcs in pop order, then
  // adjacency order — the first strict improvement wins, as it would
  // have. The heap is an explicit binary heap on a member vector (same
  // pop order as std::priority_queue, but the storage survives across
  // augmentations and solves).
  const auto heap_greater = std::greater<>{};
  std::fill(dist_.begin(), dist_.end(), kInfCost);
  for (const NodeIdx u : order_) dist_[u] = 0;
  heap_.clear();
  // Telemetry counters live in registers for the duration of the run;
  // folded into last_stats_ once at exit (see SolveStats).
  std::uint64_t pops = 0;
  std::uint64_t relaxations = 0;
  const auto relax = [&](NodeIdx u, long long d) {
    for (int a = first_[u]; a < first_[u + 1]; ++a) {
      const Arc& arc = arcs_[a];
      if (arc.capacity <= 0) continue;
      ++relaxations;
      const long long rc = arc.cost + potential_[u] - potential_[arc.to];
      GM_ASSERT_MSG(rc >= 0, "negative reduced cost — potentials invalid");
      if (d + rc < dist_[arc.to]) {
        dist_[arc.to] = d + rc;
        prev_arc_[arc.to] = a;
        heap_.emplace_back(d + rc, arc.to);
        std::push_heap(heap_.begin(), heap_.end(), heap_greater);
      }
    }
  };
  for (const NodeIdx u : order_) relax(u, 0);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), heap_greater);
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    ++pops;
    if (d > dist_[u]) continue;
    // Early exit once the sink is settled: remaining pops have
    // d >= dist[t], so no relaxation can improve any node on the
    // found path. Nodes left unsettled get their potential clamped
    // to dist[t] by the caller, which keeps reduced costs
    // non-negative.
    if (u == t) break;
    relax(u, d);
  }
  last_stats_.dijkstra_pops += pops;
  last_stats_.dijkstra_relaxations += relaxations;
  return dist_[t] < kInfCost;
}

long long MinCostFlow::flow_on(int edge_index) const {
  GM_CHECK(edge_index >= 0 &&
               edge_index < static_cast<int>(edges_.size()),
           "edge index out of range: " << edge_index);
  if (!laid_out_) return 0;
  // Flow pushed equals the reverse arc's residual capacity.
  return arcs_[arcs_[edge_arc_[edge_index]].rev].capacity;
}

}  // namespace gm::core
