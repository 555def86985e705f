#pragma once
// Cost-scaling min-cost flow core (Goldberg–Tarjan ε-scaling
// push-relabel), the engine behind MinCostFlow::SolverKind::kCostScaling.
// See docs/solver.md for the full writeup; the short version:
//
//  - Costs are scaled by (n + 1) so that terminating the ε-ladder at
//    ε = 1 certifies (1/(n+1))-optimality in original costs, which for
//    integer costs is exact optimality.
//  - The max-flow objective is folded into one *slack arc* s→t with
//    capacity equal to the deliverable supply and a cost C_big larger
//    than any simple real path. Supplies +b at s / −b at t then make
//    the min-cost circulation lexicographically (max real flow, then
//    min real cost) — exactly the successive-shortest-path objective —
//    and keep every patched network trivially feasible, because an
//    excess can always drain through the slack arc.
//  - refine(ε) saturates residual arcs with negative reduced cost,
//    then FIFO-discharges active nodes with push/relabel. Between
//    phases a Bellman–Ford *price refinement* pass tries to prove the
//    current flow already ε-optimal (skipping the phase), *arc fixing*
//    drops arcs whose reduced cost is so large their flow can no
//    longer change (only for phases entered with zero excess — the
//    fixing theorem's price-movement bound does not cover routing
//    pending excesses), and a Dial-bucket *global potentials update*
//    re-anchors prices on distance-to-deficit when relabels stall.
//  - Incremental re-optimization: try_patch() diffs a new arc list
//    against the retained residual network by (from, to) endpoint key,
//    patches capacities/costs/additions/removals in place (converting
//    stranded flow into node excesses), adjusts the supply, and lets
//    solve() re-refine from the retained prices. It refuses (returning
//    false, caller rebuilds cold) when the topology diff is too large
//    for the patch to be worth it, or when the shape changed.
//
// This class is deliberately independent of MinCostFlow's arc layout:
// it keeps its own forward-star arrays tuned for the scan-heavy
// push-relabel loops, plus the retained state (prices, residuals) that
// incremental re-optimization lives off.

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace gm::core {

class CostScalingCore {
 public:
  /// One externally visible arc, in MinCostFlow::add_edge() order.
  struct ExtArc {
    int from = 0;
    int to = 0;
    long long cap = 0;
    long long cost = 0;  ///< original (unscaled) cost, >= 0
  };

  struct Result {
    long long flow = 0;  ///< real flow delivered s→t (slack excluded)
    long long cost = 0;  ///< original-cost objective (slack excluded)
  };

  /// Work counters for one solve(), accumulated by the caller into
  /// MinCostFlow::SolveStats (the cs_* fields).
  struct Stats {
    std::uint64_t phases = 0;
    std::uint64_t pushes = 0;
    std::uint64_t relabels = 0;
    std::uint64_t price_refinements = 0;  ///< phases proved done by B-F
    std::uint64_t global_updates = 0;
    std::uint64_t arcs_fixed = 0;  ///< arc pairs fixed at solve exit
  };

  /// True once build() has run; try_patch() needs retained state.
  bool has_state() const { return n_ > 0; }
  void invalidate() { n_ = 0; }

  /// Cold (re)build: fresh residual network, zero prices, supply
  /// excess at s / deficit at t. Always succeeds.
  void build(int node_count, const std::vector<ExtArc>& arcs, int s,
             int t, long long max_flow);

  /// Incremental patch of the retained residual network against a new
  /// arc list. Returns false — leaving the retained state *unmodified*
  /// — when no state is retained, the node count or terminals changed,
  /// the arc-endpoint diff is too large (> max(8, arcs/4) adds +
  /// removes), or the new maximum cost invalidates the slack-arc
  /// bound. On success the residual graph, excesses, supply, and the
  /// restart ε are updated in place and solve() re-refines from the
  /// retained prices.
  bool try_patch(int node_count, const std::vector<ExtArc>& arcs, int s,
                 int t, long long max_flow);

  /// Runs the ε-ladder down to ε = 1 and extracts the result. Returns
  /// false if the per-phase relabel budget was exceeded — only
  /// possible after a pathological try_patch(); the caller must then
  /// build() cold and re-solve. State is invalidated on failure.
  bool solve(Result* out, Stats* stats);

  /// Flow on external arc `ext_index` after a successful solve().
  long long flow_on(int ext_index) const;

  /// Bytes of retained solver state (for arena accounting).
  std::uint64_t bytes() const;

  /// Test-only: overrides the per-phase relabel budget for solves that
  /// follow a successful try_patch(), to force the cold-rebuild
  /// fallback path. 0 restores the theoretical budget.
  void set_test_relabel_limit(std::uint64_t limit) {
    test_relabel_limit_ = limit;
  }

 private:
  static constexpr long long kAlpha = 8;  ///< ε-ladder division factor

  long long reduced_cost(int arc) const {
    return cost_[arc] + price_[from(arc)] - price_[head_[arc]];
  }
  int from(int arc) const { return head_[arc ^ 1]; }
  bool live(int arc) const { return head_[arc] >= 0; }

  int alloc_pair();  ///< new or recycled fwd arc id (pair = id, id^1)
  void add_pair(int arc, int u, int v, long long cap,
                long long scaled_cost);
  void remove_pair(int arc);  ///< returns flow to excesses, frees ids
  void set_supply(long long eff);
  long long compute_restart_eps() const;
  void fix_arcs(long long eps);
  bool price_refine(long long eps);
  bool refine(long long eps, Stats* stats, std::uint64_t relabel_budget);
  void global_update(long long eps);
  void final_optimality_check() const;

  int n_ = 0;
  int s_ = -1;
  int t_ = -1;
  long long scale_ = 1;       ///< cost scale factor, n + 1
  long long c_big_ = 0;       ///< slack-arc cost (unscaled)
  long long eff_max_ = 0;     ///< supply routed s→t (slack formulation)
  long long start_eps_ = 1;   ///< ladder entry point for next solve()
  bool last_was_patch_ = false;  ///< next solve() continues a patch
  std::uint64_t test_relabel_limit_ = 0;

  // Forward-star arc arrays; arc a and a^1 form a fwd/rev pair. The
  // slack arc is always pair (0, 1). head_ < 0 marks a freed slot.
  std::vector<int> head_;
  std::vector<long long> resid_;
  std::vector<long long> cost_;  ///< scaled; antisymmetric in a pair
  std::vector<long long> cap_;   ///< fwd: original capacity, rev: 0
  std::vector<unsigned char> fixed_;
  std::vector<int> free_pairs_;           ///< freed fwd arc ids
  std::vector<int> arc_of_ext_;           ///< ext index → fwd arc id
  std::vector<std::vector<int>> adj_;     ///< node → out arc ids

  std::vector<long long> price_;
  std::vector<long long> excess_;
  std::vector<int> cur_;  ///< current-arc scan position per node

  // Scratch (reused across solves; counted by bytes()).
  std::vector<int> fifo_;
  std::vector<unsigned char> in_fifo_;
  std::vector<long long> dist_;                   ///< B-F / Dial labels
  std::vector<std::vector<int>> buckets_;         ///< Dial buckets
  std::unordered_map<std::uint64_t, std::vector<int>> patch_index_;
  std::vector<int> match_scratch_;
};

}  // namespace gm::core
