#pragma once
// Min-cost max-flow via successive shortest paths with Johnson
// potentials. This is the matching engine behind the GreenMatch
// planner: tasks are matched to (slot, capacity) bins at a cost
// proportional to the expected brown energy of running there. Costs
// must be non-negative; capacities are integers.
//
// Most augmenting paths of a planner solve have zero reduced cost, so
// the potentials do not move. Each search therefore first walks the
// zero-reduced-cost residual arcs from the source, lowest node index
// first, and runs the heap Dijkstra only when that walk misses the
// sink. After a zero path the walk's log is repaired in place, so the
// next search replays only what the path changed, or nothing at all.
// The walk finds exactly the path the Dijkstra would, so flows, costs
// and potentials match a Dijkstra-per-path solver bit for bit
// (docs/solver.md §SSP; tests/test_core_mincostflow.cpp keeps that
// solver as the oracle).
//
// The planner rebuilds its network every slot, so the class doubles as
// an arena: reset() clears the network while keeping the edge list,
// the flat arc array and all search scratch (labels, potentials, pop
// log, frontier, heap) for the next build. Reusing one instance across
// solves is allocation-free in steady state and measurably faster than
// constructing a fresh network (see BM_MinCostFlowAssignment /
// BM_GreenMatchPlanDay).
//
// For callers that solve a slowly-drifting sequence of networks (the
// planner replans a shifted copy of last slot's problem), solve()
// accepts the previous solve's Johnson potentials as a warm start.
// They are validated in O(E) against the non-negative-reduced-cost
// invariant and silently dropped (zero re-init) if the new network
// violates it, so a warm start can never change correctness — only the
// work per search.

#include <climits>
#include <cstdint>
#include <utility>
#include <vector>

namespace gm::core {

class MinCostFlow {
 public:
  using NodeIdx = int;
  static constexpr long long kInfCost = LLONG_MAX / 4;

  explicit MinCostFlow(int node_count);

  /// Clears the network down to `node_count` nodes and no edges.
  /// Previously allocated edge storage and solver scratch survive, so
  /// a caller that plans every slot pays for allocation only once.
  void reset(int node_count);

  /// Adds a directed edge; returns its index (for flow inspection).
  /// The next solve() lays the residual arcs out afresh, at zero flow;
  /// until then every edge reports zero flow.
  int add_edge(NodeIdx from, NodeIdx to, long long capacity,
               long long cost);

  struct Result {
    long long flow = 0;
    long long cost = 0;
  };

  /// Work telemetry for one solve(), reset at every solve entry.
  /// `classes` is not the solver's to know — the planner stamps it
  /// after copying (see GreenMatchPolicy); everything else is filled
  /// here. Counting happens in registers inside the search loops and
  /// is folded into this struct once per search, so the overhead on
  /// BM_GreenMatchPlanDay stays in the noise.
  struct SolveStats {
    int nodes = 0;                ///< network nodes
    std::uint64_t arcs = 0;       ///< externally added arcs
    std::uint64_t classes = 0;    ///< task classes (planner-stamped)
    /// Path searches: one per augmentation, plus the failing one that
    /// ends a solve short of max_flow. A search answered by the
    /// repaired log counts here and pops nothing.
    std::uint64_t dijkstra_runs = 0;
    /// Frontier pops of the zero-cost walk plus heap pops of the
    /// Dijkstra that continues it after a miss.
    std::uint64_t dijkstra_pops = 0;
    /// Residual arcs scanned by the walk, the log repair and the
    /// Dijkstra.
    std::uint64_t dijkstra_relaxations = 0;
    std::uint64_t augmenting_paths = 0;
    /// Augmenting paths of zero reduced cost, found without a Dijkstra.
    std::uint64_t zero_paths = 0;
    bool warm = false;            ///< warm potentials accepted
    /// Bytes of solver scratch held across solves (the reset() arena):
    /// edge list, arc array, potentials, labels, pop log and heap.
    std::uint64_t arena_bytes = 0;
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

  /// Warm-start bookkeeping across the lifetime of this instance.
  std::uint64_t warm_accepts() const { return warm_accepts_; }
  std::uint64_t warm_rejects() const { return warm_rejects_; }

  /// Flow currently on edge `edge_index` (after solve).
  long long flow_on(int edge_index) const;

  int node_count() const { return node_count_; }

 private:
  /// One residual arc. A node's arcs are contiguous in arcs_, in the
  /// order add_edge() created them: each edge appends its forward arc
  /// to its tail's block and its reverse arc to its head's block. The
  /// zero-cost walk relies on this order (docs/solver.md §SSP).
  struct Arc {
    NodeIdx to;
    int rev;             ///< index of the reverse arc in arcs_
    long long capacity;  ///< residual capacity
    long long cost;
  };

  static constexpr int kUnseen = INT_MAX;  ///< pop log: never reached

  /// Builds arcs_/first_/edge_arc_ from edges_ (zero flow).
  void lay_out();
  /// Both solve() overloads: a null `warm` is the cold start.
  Result solve_from(NodeIdx s, NodeIdx t, long long max_flow,
                    const std::vector<long long>* warm);
  Result run_ssp(NodeIdx s, NodeIdx t, long long max_flow);
  /// Walks zero-reduced-cost residual arcs from s, lowest index first,
  /// after replaying the previous walk's first `keep` pops. Returns
  /// true when it discovers t (prev_arc_ then spells the path). With
  /// `keep` = kUnseen the repaired log already reaches t: no pop.
  bool zero_search(NodeIdx t, int keep);
  /// After a zero path of `length` arcs into t: gives each head of a
  /// saturated arc but t the discovery a walk on the new residual
  /// network would, or marks it unseen; a saturated arc into t always
  /// marks t unseen. Returns the next zero_search()'s `keep`: kUnseen
  /// when every head was rediscovered, else the pop where that walk
  /// first departs from the log.
  int repair_log(NodeIdx t, int length);
  /// Rediscovers `v` (not t), whose discovery arc `lost` just
  /// saturated; returns false if no pop before v's reaches it any more.
  bool rediscover(NodeIdx v, int lost);
  /// After a zero_search() miss: the heap Dijkstra from where the walk
  /// stopped. Returns true iff t is reachable; dist_ holds the labels.
  bool dijkstra_from_walk(NodeIdx t);
  NodeIdx tail(int arc) const { return arcs_[arcs_[arc].rev].to; }
  /// Resets last_stats_ and fills the per-solve network/arena fields.
  void begin_stats(bool warm);
  std::uint64_t arena_bytes() const;
  /// True iff every residual (capacity > 0) arc has non-negative
  /// reduced cost under `pot`.
  bool potentials_valid(const std::vector<long long>& pot) const;

  /// One added edge, as add_edge() received it.
  struct Edge {
    NodeIdx from;
    NodeIdx to;
    long long cap;
    long long cost;
  };

  int node_count_ = 0;
  std::vector<Edge> edges_;  ///< in add order
  bool laid_out_ = false;  ///< arcs_ reflects edges_
  std::vector<Arc> arcs_;
  std::vector<int> first_;     ///< node u's arcs: [first_[u], first_[u+1])
  std::vector<int> edge_arc_;  ///< forward arc of each edge

  std::uint64_t warm_accepts_ = 0;
  std::uint64_t warm_rejects_ = 0;
  SolveStats last_stats_;

  // Solver scratch, reused across solve() calls (see reset()).
  std::vector<long long> potential_;
  std::vector<long long> dist_;
  std::vector<int> prev_arc_;  ///< arc that reached each node
  std::vector<std::pair<long long, NodeIdx>> heap_;
  // The zero-cost walk's pop log: pop order, each node's pop index and
  // the pop that discovered it (kUnseen: neither; the source: -1).
  std::vector<NodeIdx> order_;
  std::vector<int> pop_index_;
  std::vector<int> disc_pop_;
  std::vector<std::uint64_t> frontier_;  ///< discovered, not yet popped
};

}  // namespace gm::core
