#pragma once
// Min-cost max-flow via successive shortest paths with Johnson
// potentials (Dijkstra per augmentation). This is the matching engine
// behind the GreenMatch planner: tasks are matched to (slot, capacity)
// bins at a cost proportional to the expected brown energy of running
// there. Costs must be non-negative; capacities are integers.
//
// The planner rebuilds its network every slot, so the class doubles as
// an arena: reset() clears the network while keeping every previously
// allocated adjacency list and all Dijkstra scratch (distance labels,
// potentials, predecessor arrays, heap storage) for the next build.
// Reusing one instance across solves is allocation-free in steady
// state and measurably faster than constructing a fresh network
// (see BM_MinCostFlowAssignment / BM_GreenMatchPlanDay).
//
// Two extensions for callers that solve a slowly-drifting sequence of
// networks (the planner replans a shifted copy of last slot's
// problem):
//  - warm-started solves: solve() accepts the previous solve's Johnson
//    potentials as a starting point. They are validated in O(E)
//    against the non-negative-reduced-cost invariant and silently
//    dropped (zero re-init) if the new network violates it, so a warm
//    start can never change correctness — only the work per Dijkstra.
//  - incremental cost scaling: under kCostScaling, solve() patches the
//    residual network retained from the previous solve instead of
//    rebuilding it (set_solver / set_incremental below).

#include <climits>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/mincost_flow_scaling.hpp"

namespace gm::core {

class MinCostFlow {
 public:
  using NodeIdx = int;
  static constexpr long long kInfCost = LLONG_MAX / 4;

  /// Which algorithm solve() runs. Both return an exact minimum-cost
  /// maximum flow (same flow value, same objective); which of several
  /// equal-cost optima is returned may differ.
  enum class SolverKind : std::uint8_t {
    kSuccessiveShortestPath = 0,  ///< Dijkstra + Johnson potentials
    kCostScaling,  ///< ε-scaling push-relabel (mincost_flow_scaling)
  };

  explicit MinCostFlow(int node_count);

  /// Clears the network down to `node_count` empty adjacency lists.
  /// Previously allocated edge storage and solver scratch survive, so
  /// a caller that plans every slot pays for allocation only once.
  void reset(int node_count);

  /// Adds a directed edge; returns its index (for flow inspection).
  int add_edge(NodeIdx from, NodeIdx to, long long capacity,
               long long cost);

  struct Result {
    long long flow = 0;
    long long cost = 0;
  };

  /// Work telemetry for one solve(), reset at every solve entry.
  /// `classes` is not the solver's to know — the planner stamps it
  /// after copying (see GreenMatchPolicy); everything else is filled
  /// here. Counting happens in registers inside the Dijkstra loops and
  /// is folded into this struct once per Dijkstra run, so the overhead
  /// on BM_GreenMatchPlanDay stays in the noise.
  struct SolveStats {
    int nodes = 0;                ///< network nodes
    std::uint64_t arcs = 0;       ///< externally added arcs
    std::uint64_t classes = 0;    ///< task classes (planner-stamped)
    std::uint64_t dijkstra_runs = 0;
    std::uint64_t dijkstra_pops = 0;         ///< heap/bucket pops
    std::uint64_t dijkstra_relaxations = 0;  ///< residual arcs scanned
    std::uint64_t augmenting_paths = 0;
    bool warm = false;            ///< warm potentials accepted
    /// Bytes of solver scratch held across solves (the reset() arena):
    /// adjacency storage, potentials, labels, heap, and the
    /// cost-scaling core's retained residual network.
    std::uint64_t arena_bytes = 0;
    // Cost-scaling fields, zero under kSuccessiveShortestPath (see
    // docs/solver.md for the glossary):
    std::uint64_t cs_phases = 0;    ///< ε-phases walked by the ladder
    std::uint64_t cs_pushes = 0;
    std::uint64_t cs_relabels = 0;
    std::uint64_t cs_price_refinements = 0;  ///< phases skipped by B-F
    std::uint64_t cs_global_updates = 0;     ///< Dial re-anchorings
    std::uint64_t cs_arcs_fixed = 0;  ///< arc pairs fixed at exit
    /// 1 if this solve re-refined a patched residual network / 1 if it
    /// (re)built cold. Lifetime sums: incremental_accepts()/rebuilds().
    std::uint64_t incremental_accepts = 0;
    std::uint64_t incremental_rebuilds = 0;
  };

  const SolveStats& last_stats() const { return last_stats_; }
  /// The planner stamps fields the solver cannot know (class count).
  SolveStats& mutable_last_stats() { return last_stats_; }

  /// Sends up to `max_flow` units from s to t at minimum total cost.
  Result solve(NodeIdx s, NodeIdx t, long long max_flow = LLONG_MAX / 4);

  /// Warm-started solve: seeds the Johnson potentials from
  /// `warm_potentials` (one entry per node) instead of zero. The seed
  /// is accepted only if every residual edge keeps a non-negative
  /// reduced cost under it — checked in O(E) up front; a violation (or
  /// a size mismatch) falls back to the zero initialization, which is
  /// always valid for non-negative edge costs. Either way the result
  /// is a true minimum-cost flow; warm_accepts()/warm_rejects() report
  /// which path was taken.
  Result solve(NodeIdx s, NodeIdx t, long long max_flow,
               const std::vector<long long>& warm_potentials);

  /// Johnson potentials after the last solve(); index = node. Feed
  /// them (possibly shifted/clamped by the caller) into the next
  /// solve's warm start.
  const std::vector<long long>& potentials() const { return potential_; }

  /// Selects the solving algorithm. Switching kinds drops any retained
  /// cost-scaling state, so the next kCostScaling solve builds cold.
  void set_solver(SolverKind kind) {
    if (kind != solver_) scaling_.invalidate();
    solver_ = kind;
  }
  SolverKind solver() const { return solver_; }

  /// Incremental re-optimization (kCostScaling only, default on): a
  /// solve diffs the freshly built network against the residual state
  /// retained from the previous solve and, when the topology diff is
  /// small, patches it in place and re-refines from retained prices
  /// instead of rebuilding — the cost-scaling analogue of the SSP warm
  /// start, but it also reuses the flow, not just the potentials.
  /// reset()/add_edge() stay oblivious: the diff happens inside
  /// solve(), keyed on arc endpoints, so the planner's rebuild-every-
  /// slot pattern works unchanged. Fallback to a cold build is
  /// automatic (shape change, large diff, or pathological patch).
  void set_incremental(bool on) { incremental_ = on; }
  bool incremental() const { return incremental_; }

  /// Warm-start bookkeeping across the lifetime of this instance.
  std::uint64_t warm_accepts() const { return warm_accepts_; }
  std::uint64_t warm_rejects() const { return warm_rejects_; }

  /// Incremental-reoptimization bookkeeping (lifetime sums of the
  /// per-solve SolveStats flags; both zero under SSP).
  std::uint64_t incremental_accepts() const {
    return incremental_accepts_;
  }
  std::uint64_t incremental_rebuilds() const {
    return incremental_rebuilds_;
  }

  /// Test-only: forwards to CostScalingCore::set_test_relabel_limit to
  /// force the patched-solve budget-abort → cold-rebuild path.
  void set_test_relabel_limit(std::uint64_t limit) {
    scaling_.set_test_relabel_limit(limit);
  }

  /// Flow currently on edge `edge_index` (after solve).
  long long flow_on(int edge_index) const;

  int node_count() const { return static_cast<int>(graph_.size()); }

 private:
  struct Edge {
    NodeIdx to;
    long long capacity;  ///< residual capacity
    long long cost;
    int rev;  ///< index of reverse edge in graph_[to]
  };

  Result run_ssp(NodeIdx s, NodeIdx t, long long max_flow);
  /// kCostScaling path, defined in mincost_flow_scaling.cpp.
  Result run_cost_scaling(NodeIdx s, NodeIdx t, long long max_flow);
  bool dijkstra(NodeIdx s, NodeIdx t);
  /// Resets last_stats_ and fills the per-solve network/arena fields.
  void begin_stats(bool warm);
  std::uint64_t arena_bytes() const;
  /// True iff every residual (capacity > 0) edge has non-negative
  /// reduced cost under `pot`.
  bool potentials_valid(const std::vector<long long>& pot) const;

  std::vector<std::vector<Edge>> graph_;
  /// (node, edge list index) of each externally added edge.
  std::vector<std::pair<NodeIdx, int>> edge_refs_;

  SolverKind solver_ = SolverKind::kSuccessiveShortestPath;
  bool incremental_ = true;  ///< only consulted under kCostScaling
  std::uint64_t warm_accepts_ = 0;
  std::uint64_t warm_rejects_ = 0;
  std::uint64_t incremental_accepts_ = 0;
  std::uint64_t incremental_rebuilds_ = 0;
  SolveStats last_stats_;

  /// Retained cost-scaling state (survives reset() on purpose — the
  /// incremental diff happens against it) plus the gather scratch.
  CostScalingCore scaling_;
  std::vector<CostScalingCore::ExtArc> ext_arcs_;

  // Solver scratch, reused across solve() calls (see reset()).
  std::vector<long long> potential_;
  std::vector<long long> dist_;
  std::vector<int> prev_node_;
  std::vector<int> prev_edge_;
  std::vector<std::pair<long long, NodeIdx>> heap_;
};

}  // namespace gm::core
