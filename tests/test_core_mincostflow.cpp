// Min-cost max-flow solver tests: hand-checked instances, property
// checks (flow conservation, capacity limits) and optimality against
// brute force on random small bipartite assignment instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <vector>

#include "core/mincost_flow.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace gm::core {
namespace {

TEST(MinCostFlow, SingleEdge) {
  MinCostFlow f(2);
  const int e = f.add_edge(0, 1, 5, 3);
  const auto r = f.solve(0, 1);
  EXPECT_EQ(r.flow, 5);
  EXPECT_EQ(r.cost, 15);
  EXPECT_EQ(f.flow_on(e), 5);
}

TEST(MinCostFlow, PrefersCheaperPath) {
  // Two parallel 2-hop paths, cheap one has capacity 1.
  MinCostFlow f(4);
  const int cheap_a = f.add_edge(0, 1, 1, 0);
  const int cheap_b = f.add_edge(1, 3, 1, 0);
  const int dear_a = f.add_edge(0, 2, 10, 5);
  const int dear_b = f.add_edge(2, 3, 10, 5);
  const auto r = f.solve(0, 3, 3);
  EXPECT_EQ(r.flow, 3);
  EXPECT_EQ(r.cost, 0 + 2 * 10);
  EXPECT_EQ(f.flow_on(cheap_a), 1);
  EXPECT_EQ(f.flow_on(cheap_b), 1);
  EXPECT_EQ(f.flow_on(dear_a), 2);
  EXPECT_EQ(f.flow_on(dear_b), 2);
}

TEST(MinCostFlow, RespectsMaxFlowBound) {
  MinCostFlow f(2);
  f.add_edge(0, 1, 100, 1);
  const auto r = f.solve(0, 1, 7);
  EXPECT_EQ(r.flow, 7);
  EXPECT_EQ(r.cost, 7);
}

TEST(MinCostFlow, DisconnectedYieldsZero) {
  MinCostFlow f(3);
  f.add_edge(0, 1, 10, 1);
  const auto r = f.solve(0, 2);
  EXPECT_EQ(r.flow, 0);
  EXPECT_EQ(r.cost, 0);
}

TEST(MinCostFlow, ClassicAugmentingRequiresReroute) {
  // The textbook case where a later augmentation must push flow back
  // over an earlier choice via the residual edge.
  MinCostFlow f(4);
  f.add_edge(0, 1, 1, 1);
  f.add_edge(0, 2, 1, 4);
  f.add_edge(1, 2, 1, 1);
  f.add_edge(1, 3, 1, 5);
  f.add_edge(2, 3, 1, 1);
  const auto r = f.solve(0, 3);
  EXPECT_EQ(r.flow, 2);
  // Optimal: 0→1→2→3 (cost 3) + 0→2? cap used... optimum is 9:
  // path A 0→1→3 (6) and path B 0→2→3 (5) = 11 vs
  // 0→1→2→3 (3) + 0→2→3 blocked (cap 2→3 =1) → must use 0→1→3:
  // flows: 0→1→2→3 and 0→1 can't (cap 1). Enumerate: the two units
  // must leave via 0→1 and 0→2 and arrive via 1→3 and 2→3:
  //   unit1: 0→1→3 = 6, unit2: 0→2→3 = 5  → 11
  //   unit1: 0→1→2→3 = 3, unit2: 0→2→?   2→3 taken → infeasible
  // so optimum = 11.
  EXPECT_EQ(r.cost, 11);
}

TEST(MinCostFlow, FlowConservationAtInternalNodes) {
  MinCostFlow f(6);
  std::vector<int> edges;
  Rng rng(5);
  // Random graph source=0 sink=5.
  struct E { int a, b; long long cap; };
  std::vector<E> topo;
  for (int a = 0; a < 5; ++a)
    for (int b = 1; b < 6; ++b)
      if (a != b) {
        const long long cap = static_cast<long long>(rng.uniform_u64(4));
        topo.push_back({a, b, cap});
        edges.push_back(f.add_edge(a, b, cap,
                                   static_cast<long long>(
                                       rng.uniform_u64(10))));
      }
  f.solve(0, 5);
  std::vector<long long> net(6, 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const long long flow = f.flow_on(edges[i]);
    EXPECT_GE(flow, 0);
    EXPECT_LE(flow, topo[i].cap);
    net[topo[i].a] -= flow;
    net[topo[i].b] += flow;
  }
  for (int v = 1; v < 5; ++v) EXPECT_EQ(net[v], 0) << "node " << v;
  EXPECT_EQ(net[0], -net[5]);
}

TEST(MinCostFlow, InputValidation) {
  MinCostFlow f(3);
  EXPECT_THROW(f.add_edge(-1, 0, 1, 1), InvalidArgument);
  EXPECT_THROW(f.add_edge(0, 3, 1, 1), InvalidArgument);
  EXPECT_THROW(f.add_edge(0, 1, -1, 1), InvalidArgument);
  EXPECT_THROW(f.add_edge(0, 1, 1, -1), InvalidArgument);
  EXPECT_THROW(f.solve(0, 0), InvalidArgument);
  EXPECT_THROW(f.flow_on(99), InvalidArgument);
  EXPECT_THROW(MinCostFlow(0), InvalidArgument);
}

// Brute-force optimal assignment: n tasks × m slots, each task uses
// exactly one slot, slot capacities 1, minimize total cost. Compare
// against the flow solver on random instances.
long long brute_force_assignment(const std::vector<std::vector<long long>>&
                                     cost) {
  const int n = static_cast<int>(cost.size());
  const int m = static_cast<int>(cost[0].size());
  std::vector<int> slots(m);
  std::iota(slots.begin(), slots.end(), 0);
  long long best = LLONG_MAX;
  // Permute slot choices for tasks (n <= m <= 7 keeps this tractable).
  std::vector<int> choice(n);
  const std::function<void(int, long long, int)> rec =
      [&](int task, long long acc, int used_mask) {
        if (acc >= best) return;
        if (task == n) {
          best = acc;
          return;
        }
        for (int s = 0; s < m; ++s) {
          if (used_mask & (1 << s)) continue;
          rec(task + 1, acc + cost[task][s], used_mask | (1 << s));
        }
      };
  rec(0, 0, 0);
  return best;
}

class RandomAssignment : public ::testing::TestWithParam<int> {};

TEST_P(RandomAssignment, MatchesBruteForce) {
  Rng rng(GetParam());
  const int n = 3 + static_cast<int>(rng.uniform_u64(3));  // tasks
  const int m = n + static_cast<int>(rng.uniform_u64(2));  // slots
  std::vector<std::vector<long long>> cost(
      n, std::vector<long long>(m));
  for (auto& row : cost)
    for (auto& c : row) c = static_cast<long long>(rng.uniform_u64(50));

  // Flow encoding: 0 = source, 1..n tasks, n+1..n+m slots, sink last.
  MinCostFlow f(n + m + 2);
  const int sink = n + m + 1;
  for (int i = 0; i < n; ++i) f.add_edge(0, 1 + i, 1, 0);
  for (int i = 0; i < n; ++i)
    for (int s = 0; s < m; ++s)
      f.add_edge(1 + i, 1 + n + s, 1, cost[i][s]);
  for (int s = 0; s < m; ++s) f.add_edge(1 + n + s, sink, 1, 0);

  const auto r = f.solve(0, sink);
  EXPECT_EQ(r.flow, n);
  EXPECT_EQ(r.cost, brute_force_assignment(cost));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAssignment,
                         ::testing::Range(1, 21));

// ---- warm starts -----------------------------------------------------

/// A reusable random layered instance roughly shaped like the planner
/// network: source → mid layer → late layer → sink, mixed capacities.
struct RandomNetwork {
  struct E {
    int a, b;
    long long cap, cost;
  };
  std::vector<E> edges;
  int nodes = 0;

  explicit RandomNetwork(std::uint64_t seed) {
    Rng rng(seed);
    const int mids = 3 + static_cast<int>(rng.uniform_u64(4));
    const int lates = 3 + static_cast<int>(rng.uniform_u64(4));
    nodes = 2 + mids + lates;
    const int sink = nodes - 1;
    for (int m = 0; m < mids; ++m) {
      edges.push_back({0, 1 + m,
                       1 + static_cast<long long>(rng.uniform_u64(4)),
                       static_cast<long long>(rng.uniform_u64(8))});
      for (int l = 0; l < lates; ++l)
        if (rng.uniform_u64(3) != 0)
          edges.push_back({1 + m, 1 + mids + l,
                           1 + static_cast<long long>(rng.uniform_u64(3)),
                           static_cast<long long>(rng.uniform_u64(20))});
    }
    for (int l = 0; l < lates; ++l)
      edges.push_back({1 + mids + l, sink,
                       1 + static_cast<long long>(rng.uniform_u64(4)),
                       static_cast<long long>(rng.uniform_u64(1000))});
  }

  std::vector<int> build(MinCostFlow& f) const {
    f.reset(nodes);
    std::vector<int> ids;
    for (const auto& e : edges)
      ids.push_back(f.add_edge(e.a, e.b, e.cap, e.cost));
    return ids;
  }
};

/// Shortest original-cost distances from the source — the canonical
/// feasible potential for a *fresh* network (triangle inequality ⇒
/// non-negative reduced costs on every edge). Note the solver's final
/// potentials are feasible only for the *residual* network it solved:
/// a saturated forward edge regains capacity on a rebuild and may go
/// reduced-negative, which is exactly what the O(E) validation at the
/// warm-start seam catches (see InvalidSeedFallsBack). Callers like
/// the planner therefore clamp before re-seeding.
std::vector<long long> bellman_potentials(const RandomNetwork& net) {
  std::vector<long long> dist(static_cast<std::size_t>(net.nodes),
                              LLONG_MAX / 8);
  dist[0] = 0;
  for (int pass = 0; pass < net.nodes; ++pass)
    for (const auto& e : net.edges)
      if (dist[e.a] < LLONG_MAX / 8)
        dist[e.b] = std::min(dist[e.b], dist[e.a] + e.cost);
  return dist;  // unreachable nodes keep a large, overflow-safe value
}

/// Every residual edge must keep a non-negative reduced cost under the
/// solver's final potentials — the invariant warm starts rely on.
void expect_reduced_costs_nonnegative(const RandomNetwork& net,
                                      const MinCostFlow& f,
                                      const std::vector<int>& ids) {
  const auto& pot = f.potentials();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& e = net.edges[i];
    const long long flow = f.flow_on(ids[i]);
    if (e.cap - flow > 0)  // forward residual
      EXPECT_GE(e.cost + pot[e.a] - pot[e.b], 0)
          << "edge " << e.a << "->" << e.b;
    if (flow > 0)  // reverse residual
      EXPECT_GE(-e.cost + pot[e.b] - pot[e.a], 0)
          << "edge " << e.b << "->" << e.a << " (residual)";
  }
}

class WarmStart : public ::testing::TestWithParam<int> {};

TEST_P(WarmStart, SameCostAsColdAndInvariantHolds) {
  const RandomNetwork net(static_cast<std::uint64_t>(GetParam()));
  MinCostFlow f(1);
  auto ids = net.build(f);
  const auto cold = f.solve(0, net.nodes - 1);
  expect_reduced_costs_nonnegative(net, f, ids);

  const auto warm_seed = bellman_potentials(net);
  ids = net.build(f);  // identical network, fresh flow
  const auto before = f.warm_accepts();
  const auto warm = f.solve(0, net.nodes - 1, LLONG_MAX / 4, warm_seed);
  EXPECT_EQ(f.warm_accepts(), before + 1);
  EXPECT_EQ(warm.flow, cold.flow);
  EXPECT_EQ(warm.cost, cold.cost);
  expect_reduced_costs_nonnegative(net, f, ids);
}

TEST_P(WarmStart, InvalidSeedFallsBackToCold) {
  const RandomNetwork net(static_cast<std::uint64_t>(GetParam()));
  MinCostFlow f(1);
  net.build(f);
  const auto cold = f.solve(0, net.nodes - 1);

  // A seed that makes some reduced cost negative: a huge potential on
  // the sink forces every edge into it negative.
  std::vector<long long> bad(static_cast<std::size_t>(net.nodes), 0);
  bad[static_cast<std::size_t>(net.nodes) - 1] = 1'000'000'000;
  net.build(f);
  const auto rejects = f.warm_rejects();
  const auto r = f.solve(0, net.nodes - 1, LLONG_MAX / 4, bad);
  EXPECT_EQ(f.warm_rejects(), rejects + 1);
  EXPECT_EQ(r.flow, cold.flow);
  EXPECT_EQ(r.cost, cold.cost);
}

TEST_P(WarmStart, SizeMismatchFallsBackToCold) {
  const RandomNetwork net(static_cast<std::uint64_t>(GetParam()));
  MinCostFlow f(1);
  net.build(f);
  const auto cold = f.solve(0, net.nodes - 1);
  net.build(f);
  const auto rejects = f.warm_rejects();
  const auto r = f.solve(0, net.nodes - 1, LLONG_MAX / 4,
                         std::vector<long long>(3, 0));
  EXPECT_EQ(f.warm_rejects(), rejects + 1);
  EXPECT_EQ(r.flow, cold.flow);
  EXPECT_EQ(r.cost, cold.cost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmStart, ::testing::Range(1, 26));

TEST(MinCostFlow, SolveStatsCountWork) {
  MinCostFlow f(4);
  f.add_edge(0, 1, 1, 0);
  f.add_edge(1, 3, 1, 0);
  f.add_edge(0, 2, 10, 5);
  f.add_edge(2, 3, 10, 5);
  const auto r = f.solve(0, 3, 3);
  EXPECT_EQ(r.flow, 3);
  const auto& st = f.last_stats();
  EXPECT_EQ(st.nodes, 4);
  EXPECT_EQ(st.arcs, 4u);
  EXPECT_FALSE(st.warm);
  // Every augmenting path is found by one Dijkstra; the final run
  // discovers there is no more flow to send.
  EXPECT_GT(st.augmenting_paths, 0u);
  EXPECT_GE(st.dijkstra_runs, st.augmenting_paths);
  EXPECT_GT(st.dijkstra_pops, 0u);
  EXPECT_GT(st.dijkstra_relaxations, 0u);
  EXPECT_GT(st.arena_bytes, 0u);
  // `classes` belongs to the planner, never the solver.
  EXPECT_EQ(st.classes, 0u);
}

TEST(MinCostFlow, SolveStatsResetPerSolveAndMarkWarm) {
  MinCostFlow f(2);
  f.add_edge(0, 1, 5, 3);
  f.solve(0, 1);
  const auto cold_runs = f.last_stats().dijkstra_runs;
  EXPECT_GT(cold_runs, 0u);
  EXPECT_FALSE(f.last_stats().warm);

  // Re-solving the identical network with the final potentials as the
  // warm seed must be accepted and tagged as warm, with the counters
  // describing only the new solve.
  const auto seed = f.potentials();
  f.reset(2);
  f.add_edge(0, 1, 5, 3);
  const auto warm = f.solve(0, 1, LLONG_MAX / 4, seed);
  EXPECT_EQ(warm.flow, 5);
  EXPECT_TRUE(f.last_stats().warm);
  EXPECT_LE(f.last_stats().dijkstra_runs, cold_runs);
  EXPECT_EQ(f.last_stats().arcs, 1u);
}

// ---- the cost-scaling solver ----------------------------------------
//
// SolverKind::kCostScaling must return the exact SSP objective (same
// flow value, same cost) on every network — the hand instances above
// re-run under it, plus random-network agreement and the incremental
// re-optimization seams (patch accept/reject, stranded-flow excess
// conversion, forced budget-abort fallback). docs/solver.md describes
// the algorithm and the patch contract these tests pin down.

MinCostFlow make_cs(int nodes) {
  MinCostFlow f(nodes);
  f.set_solver(MinCostFlow::SolverKind::kCostScaling);
  return f;
}

TEST(CostScaling, SingleEdge) {
  auto f = make_cs(2);
  const int e = f.add_edge(0, 1, 5, 3);
  const auto r = f.solve(0, 1);
  EXPECT_EQ(r.flow, 5);
  EXPECT_EQ(r.cost, 15);
  EXPECT_EQ(f.flow_on(e), 5);
  EXPECT_EQ(f.last_stats().incremental_rebuilds, 1u);
  EXPECT_EQ(f.last_stats().incremental_accepts, 0u);
}

TEST(CostScaling, PrefersCheaperPath) {
  // Unique optimum, so the per-edge flows are pinned, not just the
  // objective.
  auto f = make_cs(4);
  const int cheap_a = f.add_edge(0, 1, 1, 0);
  const int cheap_b = f.add_edge(1, 3, 1, 0);
  const int dear_a = f.add_edge(0, 2, 10, 5);
  const int dear_b = f.add_edge(2, 3, 10, 5);
  const auto r = f.solve(0, 3, 3);
  EXPECT_EQ(r.flow, 3);
  EXPECT_EQ(r.cost, 0 + 2 * 10);
  EXPECT_EQ(f.flow_on(cheap_a), 1);
  EXPECT_EQ(f.flow_on(cheap_b), 1);
  EXPECT_EQ(f.flow_on(dear_a), 2);
  EXPECT_EQ(f.flow_on(dear_b), 2);
}

TEST(CostScaling, RespectsMaxFlowBound) {
  auto f = make_cs(2);
  f.add_edge(0, 1, 100, 1);
  const auto r = f.solve(0, 1, 7);
  EXPECT_EQ(r.flow, 7);
  EXPECT_EQ(r.cost, 7);
}

TEST(CostScaling, DisconnectedYieldsZero) {
  auto f = make_cs(3);
  f.add_edge(0, 1, 10, 1);
  const auto r = f.solve(0, 2);
  EXPECT_EQ(r.flow, 0);
  EXPECT_EQ(r.cost, 0);
}

TEST(CostScaling, ClassicAugmentingRequiresReroute) {
  auto f = make_cs(4);
  f.add_edge(0, 1, 1, 1);
  f.add_edge(0, 2, 1, 4);
  f.add_edge(1, 2, 1, 1);
  f.add_edge(1, 3, 1, 5);
  f.add_edge(2, 3, 1, 1);
  const auto r = f.solve(0, 3);
  EXPECT_EQ(r.flow, 2);
  EXPECT_EQ(r.cost, 11);  // see the SSP twin for the enumeration
}

TEST(CostScaling, MatchesBruteForceAssignment) {
  for (int seed = 1; seed <= 20; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const int n = 3 + static_cast<int>(rng.uniform_u64(3));
    const int m = n + static_cast<int>(rng.uniform_u64(2));
    std::vector<std::vector<long long>> cost(
        n, std::vector<long long>(m));
    for (auto& row : cost)
      for (auto& c : row)
        c = static_cast<long long>(rng.uniform_u64(50));

    auto f = make_cs(n + m + 2);
    const int sink = n + m + 1;
    for (int i = 0; i < n; ++i) f.add_edge(0, 1 + i, 1, 0);
    for (int i = 0; i < n; ++i)
      for (int s = 0; s < m; ++s)
        f.add_edge(1 + i, 1 + n + s, 1, cost[i][s]);
    for (int s = 0; s < m; ++s) f.add_edge(1 + n + s, sink, 1, 0);

    const auto r = f.solve(0, sink);
    EXPECT_EQ(r.flow, n) << "seed " << seed;
    EXPECT_EQ(r.cost, brute_force_assignment(cost)) << "seed " << seed;
  }
}

/// Per-edge writeback sanity for a solved cost-scaling network:
/// capacities respected, conservation at every internal node.
void expect_cs_flows_consistent(const RandomNetwork& net,
                                const MinCostFlow& f,
                                const std::vector<int>& ids) {
  std::vector<long long> net_flow(static_cast<std::size_t>(net.nodes),
                                  0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const long long flow = f.flow_on(ids[i]);
    EXPECT_GE(flow, 0);
    EXPECT_LE(flow, net.edges[i].cap);
    net_flow[static_cast<std::size_t>(net.edges[i].a)] -= flow;
    net_flow[static_cast<std::size_t>(net.edges[i].b)] += flow;
  }
  for (int v = 1; v < net.nodes - 1; ++v)
    EXPECT_EQ(net_flow[static_cast<std::size_t>(v)], 0)
        << "node " << v;
  EXPECT_EQ(net_flow[0],
            -net_flow[static_cast<std::size_t>(net.nodes) - 1]);
}

class CostScalingRandom : public ::testing::TestWithParam<int> {};

TEST_P(CostScalingRandom, MatchesSspObjective) {
  const RandomNetwork net(static_cast<std::uint64_t>(GetParam()));
  MinCostFlow ssp(1);
  net.build(ssp);
  const auto cold = ssp.solve(0, net.nodes - 1);

  auto cs = make_cs(1);
  const auto ids = net.build(cs);
  const auto r = cs.solve(0, net.nodes - 1);
  EXPECT_EQ(r.flow, cold.flow);
  EXPECT_EQ(r.cost, cold.cost);
  expect_cs_flows_consistent(net, cs, ids);

  // A binding max-flow bound exercises the slack arc's partial-supply
  // path (the bound becomes the supply, the slack carries the rest).
  if (cold.flow > 1) {
    const long long bound = cold.flow - 1;
    MinCostFlow ssp2(1);
    net.build(ssp2);
    const auto want = ssp2.solve(0, net.nodes - 1, bound);
    auto cs2 = make_cs(1);
    net.build(cs2);
    const auto got = cs2.solve(0, net.nodes - 1, bound);
    EXPECT_EQ(got.flow, want.flow);
    EXPECT_EQ(got.cost, want.cost);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostScalingRandom,
                         ::testing::Range(1, 26));

TEST(CostScaling, SolveStatsCountScalingWork) {
  auto f = make_cs(4);
  f.add_edge(0, 1, 1, 0);
  f.add_edge(1, 3, 1, 0);
  f.add_edge(0, 2, 10, 5);
  f.add_edge(2, 3, 10, 5);
  const auto r = f.solve(0, 3, 3);
  EXPECT_EQ(r.flow, 3);
  const auto& st = f.last_stats();
  EXPECT_EQ(st.nodes, 4);
  EXPECT_EQ(st.arcs, 4u);
  EXPECT_GT(st.cs_phases, 0u);
  EXPECT_GT(st.cs_pushes, 0u);
  EXPECT_EQ(st.incremental_rebuilds, 1u);
  EXPECT_GT(st.arena_bytes, 0u);
  // The Dijkstra counters belong to the SSP path and stay zero here,
  // as do the warm-start fields.
  EXPECT_EQ(st.dijkstra_runs, 0u);
  EXPECT_EQ(st.augmenting_paths, 0u);
  EXPECT_FALSE(st.warm);
}

TEST(CostScaling, WarmSeedIsIgnoredWithoutTouchingCounters) {
  // The warm-started solve() overload is an SSP feature; under
  // kCostScaling the seed is dropped silently — no accept, no reject.
  const RandomNetwork net(9);
  MinCostFlow ssp(1);
  net.build(ssp);
  const auto cold = ssp.solve(0, net.nodes - 1);

  auto cs = make_cs(1);
  net.build(cs);
  const std::vector<long long> seed(
      static_cast<std::size_t>(net.nodes), 0);
  const auto r =
      cs.solve(0, net.nodes - 1, LLONG_MAX / 4, seed);
  EXPECT_EQ(r.flow, cold.flow);
  EXPECT_EQ(r.cost, cold.cost);
  EXPECT_EQ(cs.warm_accepts(), 0u);
  EXPECT_EQ(cs.warm_rejects(), 0u);
  EXPECT_FALSE(cs.last_stats().warm);
}

// ---- incremental re-optimization ------------------------------------

TEST(CostScalingIncremental, IdenticalResolveIsPatched) {
  const RandomNetwork net(3);
  auto f = make_cs(1);
  net.build(f);
  const auto first = f.solve(0, net.nodes - 1);
  EXPECT_EQ(f.incremental_rebuilds(), 1u);
  EXPECT_EQ(f.incremental_accepts(), 0u);

  net.build(f);  // reset() + add_edge; the diff happens inside solve()
  const auto second = f.solve(0, net.nodes - 1);
  EXPECT_EQ(f.incremental_accepts(), 1u);
  EXPECT_EQ(f.incremental_rebuilds(), 1u);
  EXPECT_EQ(f.last_stats().incremental_accepts, 1u);
  EXPECT_EQ(f.last_stats().incremental_rebuilds, 0u);
  EXPECT_EQ(second.flow, first.flow);
  EXPECT_EQ(second.cost, first.cost);
}

TEST(CostScalingIncremental, NodeCountChangeForcesRebuild) {
  auto f = make_cs(2);
  f.add_edge(0, 1, 5, 3);
  f.solve(0, 1);
  f.reset(3);
  f.add_edge(0, 1, 5, 3);
  f.add_edge(1, 2, 5, 2);
  const auto r = f.solve(0, 2);
  EXPECT_EQ(r.flow, 5);
  EXPECT_EQ(r.cost, 25);
  EXPECT_EQ(f.incremental_rebuilds(), 2u);
  EXPECT_EQ(f.incremental_accepts(), 0u);
}

TEST(CostScalingIncremental, LargeDiffForcesRebuild) {
  // 12 disjoint two-hop paths, then 10 brand-new arc pairs: the diff
  // (10 adds) exceeds max(8, live/4) = max(8, 6) and must be rejected
  // in favour of a cold rebuild — with the same objective.
  const auto build = [](MinCostFlow& f, bool extra) {
    f.reset(14);
    for (int i = 1; i <= 12; ++i) {
      f.add_edge(0, i, 1, i);
      f.add_edge(i, 13, 1, 0);
    }
    if (extra)
      for (int i = 1; i <= 10; ++i) f.add_edge(i, i + 1, 0, 1);
  };
  auto f = make_cs(1);
  build(f, false);
  const auto first = f.solve(0, 13);
  EXPECT_EQ(first.flow, 12);
  build(f, true);
  const auto second = f.solve(0, 13);
  EXPECT_EQ(second.flow, first.flow);
  EXPECT_EQ(second.cost, first.cost);  // the new arcs have zero cap
  EXPECT_EQ(f.incremental_rebuilds(), 2u);
  EXPECT_EQ(f.incremental_accepts(), 0u);
}

TEST(CostScalingIncremental, MaxFlowBoundChangeIsPatched) {
  // Supply shrink strands flow on the slack arc (excess conversion);
  // supply growth re-runs the ladder from the retained prices. Both
  // are endpoint-preserving patches.
  auto f = make_cs(2);
  f.add_edge(0, 1, 100, 1);
  auto r = f.solve(0, 1, 7);
  EXPECT_EQ(r.flow, 7);
  f.reset(2);
  f.add_edge(0, 1, 100, 1);
  r = f.solve(0, 1, 3);
  EXPECT_EQ(r.flow, 3);
  EXPECT_EQ(r.cost, 3);
  f.reset(2);
  f.add_edge(0, 1, 100, 1);
  r = f.solve(0, 1, 50);
  EXPECT_EQ(r.flow, 50);
  EXPECT_EQ(r.cost, 50);
  EXPECT_EQ(f.incremental_accepts(), 2u);
  EXPECT_EQ(f.incremental_rebuilds(), 1u);
}

TEST(CostScalingIncremental, CapacityCutBelowFlowIsPatched) {
  // Cutting a flow-carrying arc below its flow converts the overhang
  // into an excess/deficit pair that the next refine re-routes (here:
  // back to the source and out via the slack arc).
  auto f = make_cs(3);
  f.add_edge(0, 1, 5, 1);
  f.add_edge(1, 2, 5, 1);
  auto r = f.solve(0, 2);
  EXPECT_EQ(r.flow, 5);
  f.reset(3);
  f.add_edge(0, 1, 5, 1);
  f.add_edge(1, 2, 2, 1);
  r = f.solve(0, 2);
  EXPECT_EQ(r.flow, 2);
  EXPECT_EQ(r.cost, 4);
  EXPECT_EQ(f.incremental_accepts(), 1u);
}

TEST(CostScalingIncremental, SupplyEdgeFlipsToZeroIsPatched) {
  // The planner's "green supply vanished this slot" shape: a parallel
  // cheap/dear arc pair where the cheap one's capacity drops to zero
  // between solves. Endpoints are stable, so the patch must match.
  const auto build = [](MinCostFlow& f, long long green_cap) {
    f.reset(3);
    f.add_edge(0, 1, green_cap, 0);  // green
    f.add_edge(0, 1, 10, 5);         // brown
    f.add_edge(1, 2, 8, 0);
  };
  auto cs = make_cs(1);
  MinCostFlow ssp(1);
  for (const long long green_cap : {4LL, 0LL}) {
    build(cs, green_cap);
    const auto got = cs.solve(0, 2);
    build(ssp, green_cap);
    const auto want = ssp.solve(0, 2);
    EXPECT_EQ(got.flow, want.flow) << "green cap " << green_cap;
    EXPECT_EQ(got.cost, want.cost) << "green cap " << green_cap;
  }
  EXPECT_EQ(cs.incremental_accepts(), 1u);
  EXPECT_EQ(cs.incremental_rebuilds(), 1u);
}

TEST(CostScalingIncremental, BudgetAbortFallsBackToColdRebuild) {
  // A patched solve that blows its relabel budget must invalidate the
  // retained state and re-solve from a cold build — same objective,
  // counted as a rebuild. The test hook pins the budget to 1 relabel
  // for patched solves only; the capacity cut below strands 4 units
  // four hops from their deficit, which no single relabel can route.
  const auto build = [](MinCostFlow& f, long long mid_cap) {
    f.reset(6);
    for (int i = 0; i < 5; ++i)
      f.add_edge(i, i + 1, i == 3 ? mid_cap : 5, 1);
    f.add_edge(0, 5, 5, 50);
  };
  auto f = make_cs(1);
  build(f, 5);
  const auto first = f.solve(0, 5);
  EXPECT_EQ(first.flow, 10);
  EXPECT_EQ(first.cost, 5 * 5 + 5 * 50);

  f.set_test_relabel_limit(1);
  build(f, 1);
  const auto second = f.solve(0, 5);
  EXPECT_EQ(second.flow, 6);
  EXPECT_EQ(second.cost, 1 * 5 + 5 * 50);
  EXPECT_EQ(f.incremental_accepts(), 0u);
  EXPECT_EQ(f.incremental_rebuilds(), 2u);
  EXPECT_EQ(f.last_stats().incremental_rebuilds, 1u);

  // With the hook released the same patch succeeds incrementally.
  f.set_test_relabel_limit(0);
  build(f, 2);
  const auto third = f.solve(0, 5);
  EXPECT_EQ(third.flow, 7);
  EXPECT_EQ(third.cost, 2 * 5 + 5 * 50);
  EXPECT_EQ(f.incremental_accepts(), 1u);
  EXPECT_EQ(f.incremental_rebuilds(), 2u);
}

TEST(CostScalingIncremental, DisabledIncrementalAlwaysRebuilds) {
  const RandomNetwork net(5);
  auto f = make_cs(1);
  f.set_incremental(false);
  net.build(f);
  const auto first = f.solve(0, net.nodes - 1);
  net.build(f);
  const auto second = f.solve(0, net.nodes - 1);
  EXPECT_EQ(second.flow, first.flow);
  EXPECT_EQ(second.cost, first.cost);
  EXPECT_EQ(f.incremental_rebuilds(), 2u);
  EXPECT_EQ(f.incremental_accepts(), 0u);

  f.set_incremental(true);
  net.build(f);
  f.solve(0, net.nodes - 1);
  EXPECT_EQ(f.incremental_accepts(), 1u);
}

TEST(CostScalingIncremental, SolverSwitchDropsRetainedState) {
  const RandomNetwork net(4);
  auto f = make_cs(1);
  net.build(f);
  f.solve(0, net.nodes - 1);
  EXPECT_EQ(f.incremental_rebuilds(), 1u);
  // A round trip through SSP invalidates the residual state: the next
  // cost-scaling solve has nothing to diff against and builds cold.
  f.set_solver(MinCostFlow::SolverKind::kSuccessiveShortestPath);
  f.set_solver(MinCostFlow::SolverKind::kCostScaling);
  net.build(f);
  f.solve(0, net.nodes - 1);
  EXPECT_EQ(f.incremental_rebuilds(), 2u);
  EXPECT_EQ(f.incremental_accepts(), 0u);
}

class CostScalingDrift : public ::testing::TestWithParam<int> {};

// A drifting network sequence — cost bumps, capacity edits (including
// to zero), arc removals and insertions — re-solved incrementally must
// match a cold SSP solve of every instance, with most steps accepted
// as patches (each step's diff is at most a few arcs).
TEST_P(CostScalingDrift, SequenceMatchesColdSsp) {
  RandomNetwork net(static_cast<std::uint64_t>(GetParam()));
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  auto cs = make_cs(1);
  for (int step = 0; step < 10; ++step) {
    const auto ids = net.build(cs);
    const auto got = cs.solve(0, net.nodes - 1);
    MinCostFlow ssp(1);
    net.build(ssp);
    const auto want = ssp.solve(0, net.nodes - 1);
    ASSERT_EQ(got.flow, want.flow)
        << "seed " << GetParam() << " step " << step;
    ASSERT_EQ(got.cost, want.cost)
        << "seed " << GetParam() << " step " << step;
    expect_cs_flows_consistent(net, cs, ids);

    // Drift: a couple of in-place edits, the occasional arc churn.
    for (int k = 0; k < 2; ++k) {
      auto& e = net.edges[rng.uniform_u64(net.edges.size())];
      switch (rng.uniform_u64(3)) {
        case 0:
          e.cost = static_cast<long long>(rng.uniform_u64(1000));
          break;
        case 1:
          e.cap = static_cast<long long>(rng.uniform_u64(5));
          break;
        default:
          e.cap += 1 + static_cast<long long>(rng.uniform_u64(3));
          break;
      }
    }
    if (rng.uniform_u64(4) == 0 && net.edges.size() > 4)
      net.edges.erase(
          net.edges.begin() +
          static_cast<std::ptrdiff_t>(
              rng.uniform_u64(net.edges.size())));
    if (rng.uniform_u64(4) == 0) {
      const int a =
          static_cast<int>(rng.uniform_u64(
              static_cast<std::uint64_t>(net.nodes) - 1));
      int b = 1 + static_cast<int>(rng.uniform_u64(
                      static_cast<std::uint64_t>(net.nodes) - 1));
      if (b == a) b = net.nodes - 1;
      net.edges.push_back(
          {a, b, 1 + static_cast<long long>(rng.uniform_u64(4)),
           static_cast<long long>(rng.uniform_u64(50))});
    }
  }
  EXPECT_EQ(cs.incremental_accepts() + cs.incremental_rebuilds(), 10u);
  EXPECT_GE(cs.incremental_accepts(), 5u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostScalingDrift,
                         ::testing::Range(1, 16));

}  // namespace
}  // namespace gm::core
