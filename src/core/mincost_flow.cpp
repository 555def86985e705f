#include "core/mincost_flow.hpp"

#include <algorithm>
#include <climits>
#include <functional>

#include "obs/recorder.hpp"
#include "util/assert.hpp"

namespace gm::core {

MinCostFlow::MinCostFlow(int node_count) { reset(node_count); }

void MinCostFlow::reset(int node_count) {
  GM_CHECK(node_count > 0, "flow network needs at least one node");
  const auto n = static_cast<std::size_t>(node_count);
  if (graph_.size() > n) graph_.resize(n);
  for (auto& adjacency : graph_) adjacency.clear();
  graph_.resize(n);
  edge_refs_.clear();
}

int MinCostFlow::add_edge(NodeIdx from, NodeIdx to, long long capacity,
                          long long cost) {
  GM_CHECK(from >= 0 && from < node_count() && to >= 0 &&
               to < node_count(),
           "flow edge endpoint out of range: " << from << " -> " << to);
  GM_CHECK(capacity >= 0, "negative edge capacity");
  GM_CHECK(cost >= 0, "SSP requires non-negative edge costs, got " << cost);
  const int fwd = static_cast<int>(graph_[from].size());
  const int rev = static_cast<int>(graph_[to].size()) + (from == to ? 1 : 0);
  graph_[from].push_back(Edge{to, capacity, cost, rev});
  graph_[to].push_back(Edge{from, 0, -cost, fwd});
  edge_refs_.emplace_back(from, fwd);
  return static_cast<int>(edge_refs_.size()) - 1;
}

bool MinCostFlow::potentials_valid(
    const std::vector<long long>& pot) const {
  if (pot.size() != graph_.size()) return false;
  const int n = node_count();
  for (int u = 0; u < n; ++u) {
    for (const Edge& e : graph_[u]) {
      if (e.capacity <= 0) continue;
      if (e.cost + pot[u] - pot[e.to] < 0) return false;
    }
  }
  return true;
}

std::uint64_t MinCostFlow::arena_bytes() const {
  std::uint64_t bytes = graph_.capacity() * sizeof(graph_[0]);
  for (const auto& adjacency : graph_)
    bytes += adjacency.capacity() * sizeof(Edge);
  bytes += edge_refs_.capacity() * sizeof(edge_refs_[0]);
  bytes += potential_.capacity() * sizeof(long long);
  bytes += dist_.capacity() * sizeof(long long);
  bytes += prev_node_.capacity() * sizeof(int);
  bytes += prev_edge_.capacity() * sizeof(int);
  bytes += heap_.capacity() * sizeof(heap_[0]);
  bytes += scaling_.bytes();
  bytes += ext_arcs_.capacity() * sizeof(ext_arcs_[0]);
  return bytes;
}

void MinCostFlow::begin_stats(bool warm) {
  last_stats_ = SolveStats{};
  last_stats_.nodes = node_count();
  last_stats_.arcs = edge_refs_.size();
  last_stats_.warm = warm;
  last_stats_.arena_bytes = arena_bytes();
}

MinCostFlow::Result MinCostFlow::solve(NodeIdx s, NodeIdx t,
                                       long long max_flow) {
  GM_OBS_SCOPE("planner.mincostflow.solve");
  GM_CHECK(s >= 0 && s < node_count() && t >= 0 && t < node_count(),
           "flow terminal out of range");
  GM_CHECK(s != t, "source equals sink");
  if (solver_ == SolverKind::kCostScaling) {
    begin_stats(/*warm=*/false);
    return run_cost_scaling(s, t, max_flow);
  }
  potential_.assign(graph_.size(), 0);  // valid: costs >= 0
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
  if (solver_ == SolverKind::kCostScaling) {
    // Johnson potentials are an SSP concept; the cost-scaling path
    // retains its own prices across solves (incremental
    // re-optimization), so the seed is ignored without touching the
    // warm-start counters.
    begin_stats(/*warm=*/false);
    return run_cost_scaling(s, t, max_flow);
  }
  // The seam of the warm start: the invariant every Dijkstra below
  // relies on is checked here, once, over the whole residual network.
  // A stale seed (network changed shape, costs moved) degrades to the
  // always-valid cold start instead of corrupting the solve.
  bool warm = false;
  if (potentials_valid(warm_potentials)) {
    potential_ = warm_potentials;
    ++warm_accepts_;
    warm = true;
  } else {
    potential_.assign(graph_.size(), 0);
    ++warm_rejects_;
  }
  begin_stats(warm);
  return run_ssp(s, t, max_flow);
}

MinCostFlow::Result MinCostFlow::run_ssp(NodeIdx s, NodeIdx t,
                                         long long max_flow) {
  const int n = node_count();
  dist_.resize(static_cast<std::size_t>(n));
  prev_node_.resize(static_cast<std::size_t>(n));
  prev_edge_.resize(static_cast<std::size_t>(n));

  Result result;
  while (result.flow < max_flow) {
    ++last_stats_.dijkstra_runs;
    if (!dijkstra(s, t)) break;  // no augmenting path
    ++last_stats_.augmenting_paths;

    // Johnson potential update, clamped at dist[t]. For settled nodes
    // this is the classic exact update; for nodes the early exit left
    // unsettled (label, if any, >= dist[t]) the clamp preserves the
    // non-negative reduced-cost invariant on every residual edge.
    const long long dt = dist_[t];
    for (int v = 0; v < n; ++v)
      potential_[v] += std::min(dist_[v], dt);

    // Bottleneck along the path.
    long long push = max_flow - result.flow;
    for (NodeIdx v = t; v != s; v = prev_node_[v])
      push = std::min(push,
                      graph_[prev_node_[v]][prev_edge_[v]].capacity);
    GM_ASSERT(push > 0);

    for (NodeIdx v = t; v != s; v = prev_node_[v]) {
      Edge& e = graph_[prev_node_[v]][prev_edge_[v]];
      e.capacity -= push;
      graph_[v][e.rev].capacity += push;
      result.cost += push * e.cost;
    }
    result.flow += push;
  }
  return result;
}

bool MinCostFlow::dijkstra(NodeIdx s, NodeIdx t) {
  // Dijkstra on reduced costs. The heap is an explicit binary heap
  // on a member vector (same pop order as std::priority_queue, but
  // the storage survives across augmentations and solves).
  const auto heap_greater = std::greater<>{};
  std::fill(dist_.begin(), dist_.end(), kInfCost);
  dist_[s] = 0;
  heap_.clear();
  heap_.emplace_back(0, s);
  // Telemetry counters live in registers for the duration of the run;
  // folded into last_stats_ once at exit (see SolveStats).
  std::uint64_t pops = 0;
  std::uint64_t relaxations = 0;
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
    for (int i = 0; i < static_cast<int>(graph_[u].size()); ++i) {
      const Edge& e = graph_[u][i];
      if (e.capacity <= 0) continue;
      ++relaxations;
      const long long nd = d + e.cost + potential_[u] - potential_[e.to];
      GM_ASSERT_MSG(e.cost + potential_[u] - potential_[e.to] >= 0,
                    "negative reduced cost — potentials invalid");
      if (nd < dist_[e.to]) {
        dist_[e.to] = nd;
        prev_node_[e.to] = u;
        prev_edge_[e.to] = i;
        heap_.emplace_back(nd, e.to);
        std::push_heap(heap_.begin(), heap_.end(), heap_greater);
      }
    }
  }
  last_stats_.dijkstra_pops += pops;
  last_stats_.dijkstra_relaxations += relaxations;
  return dist_[t] < kInfCost;
}

long long MinCostFlow::flow_on(int edge_index) const {
  GM_CHECK(edge_index >= 0 &&
               edge_index < static_cast<int>(edge_refs_.size()),
           "edge index out of range: " << edge_index);
  const auto [node, idx] = edge_refs_[edge_index];
  const Edge& fwd = graph_[node][idx];
  // Flow pushed equals the reverse edge's residual capacity.
  return graph_[fwd.to][fwd.rev].capacity;
}

}  // namespace gm::core
