#include "core/mincost_flow_scaling.hpp"

#include <algorithm>
#include <climits>

#include "core/mincost_flow.hpp"
#include "util/assert.hpp"

namespace gm::core {

namespace {

constexpr std::uint64_t pair_key(int from, int to) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
          << 32) |
         static_cast<std::uint32_t>(to);
}

/// Floor division for a possibly negative numerator (positive divisor).
constexpr long long floor_div(long long num, long long den) {
  return num >= 0 ? num / den : -((-num + den - 1) / den);
}

}  // namespace

// ---------------------------------------------------------------------------
// Network construction and patching
// ---------------------------------------------------------------------------

int CostScalingCore::alloc_pair() {
  if (!free_pairs_.empty()) {
    const int a = free_pairs_.back();
    free_pairs_.pop_back();
    return a;
  }
  const int a = static_cast<int>(head_.size());
  head_.insert(head_.end(), 2, -1);
  resid_.insert(resid_.end(), 2, 0);
  cost_.insert(cost_.end(), 2, 0);
  cap_.insert(cap_.end(), 2, 0);
  fixed_.insert(fixed_.end(), 2, 0);
  return a;
}

void CostScalingCore::add_pair(int arc, int u, int v, long long cap,
                               long long scaled_cost) {
  head_[arc] = v;
  head_[arc ^ 1] = u;
  resid_[arc] = cap;
  resid_[arc ^ 1] = 0;
  cost_[arc] = scaled_cost;
  cost_[arc ^ 1] = -scaled_cost;
  cap_[arc] = cap;
  cap_[arc ^ 1] = 0;
  fixed_[arc] = fixed_[arc ^ 1] = 0;
  adj_[u].push_back(arc);
  adj_[v].push_back(arc ^ 1);
}

void CostScalingCore::remove_pair(int arc) {
  // Flow stranded on the removed arc becomes an excess at its tail and
  // a deficit at its head; the next refine() re-routes it (the slack
  // arc guarantees a route exists). Adjacency lists are filtered by
  // the caller once all removals are known.
  const int u = from(arc);
  const int v = head_[arc];
  const long long flow = resid_[arc ^ 1];
  excess_[u] += flow;
  excess_[v] -= flow;
  head_[arc] = head_[arc ^ 1] = -1;
  free_pairs_.push_back(arc);
}

void CostScalingCore::build(int node_count,
                            const std::vector<ExtArc>& arcs, int s,
                            int t, long long max_flow) {
  GM_CHECK(node_count > 0, "cost-scaling network needs nodes");
  GM_CHECK(s >= 0 && s < node_count && t >= 0 && t < node_count &&
               s != t,
           "cost-scaling terminal out of range");
  n_ = node_count;
  s_ = s;
  t_ = t;
  scale_ = n_ + 1;

  long long maxc = 0;
  __int128 out_cap = 0;
  for (const ExtArc& a : arcs) {
    GM_CHECK(a.cost >= 0, "cost-scaling requires non-negative costs");
    if (a.cost > maxc) maxc = a.cost;
    if (a.from == s) out_cap += a.cap;
  }
  c_big_ = static_cast<long long>(n_) * (maxc + 1) + 1;
  // Scaled costs, the ε ladder, and the arc-fixing threshold all stay
  // comfortably inside long long when this holds (see docs/solver.md).
  const __int128 worst = static_cast<__int128>(scale_) * c_big_;
  GM_CHECK(worst < LLONG_MAX / 256,
           "cost-scaling: costs too large for this network size");

  long long eff = max_flow;
  if (out_cap < eff) eff = static_cast<long long>(out_cap);
  if (eff < 0) eff = 0;
  eff_max_ = eff;

  head_.clear();
  resid_.clear();
  cost_.clear();
  cap_.clear();
  fixed_.clear();
  free_pairs_.clear();
  if (static_cast<int>(adj_.size()) > n_)
    adj_.resize(static_cast<std::size_t>(n_));
  for (auto& lst : adj_) lst.clear();
  adj_.resize(static_cast<std::size_t>(n_));

  // The slack arc is always pair (0, 1): it absorbs whatever part of
  // the supply the real network cannot (or should not) carry.
  const int slack = alloc_pair();
  GM_ASSERT(slack == 0);
  add_pair(slack, s_, t_, eff, c_big_ * scale_);

  arc_of_ext_.clear();
  arc_of_ext_.reserve(arcs.size());
  for (const ExtArc& a : arcs) {
    GM_CHECK(a.from >= 0 && a.from < n_ && a.to >= 0 && a.to < n_,
             "cost-scaling arc endpoint out of range");
    GM_CHECK(a.cap >= 0, "cost-scaling: negative arc capacity");
    const int id = alloc_pair();
    add_pair(id, a.from, a.to, a.cap, a.cost * scale_);
    arc_of_ext_.push_back(id);
  }

  price_.assign(static_cast<std::size_t>(n_), 0);
  excess_.assign(static_cast<std::size_t>(n_), 0);
  excess_[s_] += eff;
  excess_[t_] -= eff;
  cur_.assign(static_cast<std::size_t>(n_), 0);
  start_eps_ = c_big_ * scale_;  // the largest scaled cost
  last_was_patch_ = false;
}

bool CostScalingCore::try_patch(int node_count,
                                const std::vector<ExtArc>& arcs, int s,
                                int t, long long max_flow) {
  if (n_ == 0 || node_count != n_ || s != s_ || t != t_) return false;

  long long maxc = 0;
  __int128 out_cap = 0;
  for (const ExtArc& a : arcs) {
    if (a.cost < 0 || a.from < 0 || a.from >= n_ || a.to < 0 ||
        a.to >= n_ || a.cap < 0)
      return false;  // let build() raise the precise GM_CHECK
    if (a.cost > maxc) maxc = a.cost;
    if (a.from == s) out_cap += a.cap;
  }
  // The retained slack cost must still dominate any simple real path,
  // or the lexicographic (max flow, then min cost) objective breaks.
  if (static_cast<__int128>(n_) * maxc >= c_big_) return false;

  // Pass 1 (read-only): match new arcs to live arcs by endpoint key.
  // Duplicate (from, to) pairs match arbitrarily — both sides get
  // their capacity and cost patched, so any pairing is equivalent.
  patch_index_.clear();
  std::size_t live_fwd = 0;
  for (int a = 2; a < static_cast<int>(head_.size()); a += 2) {
    if (!live(a)) continue;
    ++live_fwd;
    patch_index_[pair_key(from(a), head_[a])].push_back(a);
  }
  match_scratch_.assign(arcs.size(), -1);
  std::size_t adds = 0;
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    const auto it = patch_index_.find(pair_key(arcs[i].from, arcs[i].to));
    if (it != patch_index_.end() && !it->second.empty()) {
      match_scratch_[i] = it->second.back();
      it->second.pop_back();
    } else {
      ++adds;
    }
  }
  const std::size_t matches = arcs.size() - adds;
  const std::size_t removes = live_fwd - matches;
  if (adds + removes > std::max<std::size_t>(8, live_fwd / 4))
    return false;

  // ---- Commit: from here on the retained state is being rewritten.
  // Costs moved, so every arc-fixing decision is stale.
  std::fill(fixed_.begin(), fixed_.end(), 0);
  arc_of_ext_.assign(arcs.size(), -1);
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    const int a = match_scratch_[i];
    if (a < 0) continue;
    arc_of_ext_[i] = a;
    const long long scaled = arcs[i].cost * scale_;
    cost_[a] = scaled;
    cost_[a ^ 1] = -scaled;
    long long flow = resid_[a ^ 1];
    if (flow > arcs[i].cap) {
      // Capacity cut below current flow: the overhang becomes an
      // excess at the tail / deficit at the head, re-routed by the
      // next refine().
      const long long cut = flow - arcs[i].cap;
      excess_[from(a)] += cut;
      excess_[head_[a]] -= cut;
      flow = arcs[i].cap;
    }
    cap_[a] = arcs[i].cap;
    resid_[a] = arcs[i].cap - flow;
    resid_[a ^ 1] = flow;
  }

  bool removed = false;
  for (auto& [key, ids] : patch_index_) {
    (void)key;
    for (const int a : ids) {
      remove_pair(a);
      removed = true;
    }
  }
  if (removed)
    for (auto& lst : adj_)
      std::erase_if(lst, [this](int a) { return !live(a); });

  for (std::size_t i = 0; i < arcs.size(); ++i) {
    if (match_scratch_[i] >= 0) continue;
    const int a = alloc_pair();
    add_pair(a, arcs[i].from, arcs[i].to, arcs[i].cap,
             arcs[i].cost * scale_);
    arc_of_ext_[i] = a;
  }

  // Supply change: patch the slack arc like any other capacity edit,
  // then shift the source/sink imbalance to the new supply level.
  long long eff = max_flow;
  if (out_cap < eff) eff = static_cast<long long>(out_cap);
  if (eff < 0) eff = 0;
  long long slack_flow = resid_[1];
  if (slack_flow > eff) {
    const long long cut = slack_flow - eff;
    excess_[s_] += cut;
    excess_[t_] -= cut;
    slack_flow = eff;
  }
  cap_[0] = eff;
  resid_[0] = eff - slack_flow;
  resid_[1] = slack_flow;
  excess_[s_] += eff - eff_max_;
  excess_[t_] -= eff - eff_max_;
  eff_max_ = eff;

  // Re-entry point for the ε ladder. A patch that left every node
  // balanced (cost/capacity edits that stranded no flow) is a pure
  // price problem: the retained flow is ε-optimal for ε = the worst
  // violation, and one refine from there repairs it. A patch that
  // created excesses (capacity cut under flow, arc removals, supply
  // shifts) must restart at the cold ε₀ instead: routing excess across
  // a reduced-cost barrier of height B needs price movement ~B, but a
  // refine(ε) only moves prices O(n·ε) per global update, so a small ε
  // would blow the relabel budget on the slack arc's C_big barrier.
  // The retained prices and flow still make this far cheaper than a
  // cold build — warm flow, cold ladder.
  bool have_excess = false;
  for (int v = 0; v < n_; ++v)
    if (excess_[v] != 0) {
      have_excess = true;
      break;
    }
  start_eps_ = have_excess ? c_big_ * scale_ : compute_restart_eps();
  last_was_patch_ = true;
  return true;
}

long long CostScalingCore::compute_restart_eps() const {
  // The patched flow is, by definition, ε-optimal for ε = the worst
  // reduced-cost violation across residual arcs under the retained
  // prices; the ladder re-enters there instead of at the cold ε₀.
  long long eps = 1;
  for (int a = 0; a < static_cast<int>(head_.size()); ++a) {
    if (!live(a) || resid_[a] <= 0) continue;
    const long long violation = -reduced_cost(a);
    if (violation > eps) eps = violation;
  }
  return eps;
}

// ---------------------------------------------------------------------------
// The ε ladder
// ---------------------------------------------------------------------------

bool CostScalingCore::solve(Result* out, Stats* stats) {
  GM_CHECK(n_ > 0, "cost-scaling solve() without a network");
  const std::uint64_t n = static_cast<std::uint64_t>(n_);
  // Per-phase relabel budget. Theory bounds refine(ε) at 3n relabels
  // per node; the margin absorbs interleaved global updates. Blowing
  // it means the patched state is pathological (or a solver bug): the
  // caller falls back to a cold build.
  std::uint64_t budget = 6 * n * n + 16 * n + 64;
  if (last_was_patch_ && test_relabel_limit_ > 0)
    budget = test_relabel_limit_;

  long long eps = start_eps_;
  while (true) {
    bool balanced = true;
    for (int v = 0; v < n_; ++v)
      if (excess_[v] != 0) {
        balanced = false;
        break;
      }
    bool done_phase = false;
    if (balanced && price_refine(eps)) {
      ++stats->price_refinements;
      done_phase = true;
    }
    if (!done_phase) {
      // Arc fixing is sound only for a phase entered balanced: the
      // fixing theorem bounds *future* price movement by O(n·ε) per
      // remaining phase, which assumes each refine starts from an
      // ε-optimal flow. A phase with pending excesses (the cold
      // source injection, or a patch that cut capacity under flow)
      // can move prices across arbitrary cost barriers while routing
      // them, so fixing there would strand excess on fixed arcs and
      // force the fallback rebuild (refine returns false).
      if (balanced) fix_arcs(eps);
      if (!refine(eps, stats, budget)) {
        invalidate();
        return false;
      }
    }
    ++stats->phases;
    if (eps == 1) break;
    eps = std::max<long long>(1, eps / kAlpha);
  }

  for (int a = 0; a < static_cast<int>(head_.size()); a += 2)
    if (live(a) && fixed_[a]) ++stats->arcs_fixed;

  final_optimality_check();

  out->flow = eff_max_ - resid_[1];
  long long cost = 0;
  for (const int a : arc_of_ext_)
    cost += resid_[a ^ 1] * (cost_[a] / scale_);
  out->cost = cost;
  start_eps_ = 1;  // retained state is optimal until the next patch
  last_was_patch_ = false;
  return true;
}

void CostScalingCore::fix_arcs(long long eps) {
  // Fixing theorem, conservative margin: once |reduced cost| exceeds
  // Θ(n·ε), the arc's flow can no longer change for the rest of the
  // ladder (prices move O(n·ε) per phase and ε only shrinks), so scans
  // skip it. A negative-side fixed arc is necessarily saturated — the
  // refine() entry invariant keeps residual arcs above -ε > -threshold
  // — so skipping it in the saturation pass is sound. Backstopped by
  // final_optimality_check().
  const __int128 threshold =
      static_cast<__int128>(3 * kAlpha) * n_ * eps;
  for (int a = 0; a < static_cast<int>(head_.size()); a += 2) {
    if (!live(a) || fixed_[a]) continue;
    const __int128 cp = reduced_cost(a);
    if (cp > threshold || -cp > threshold)
      fixed_[a] = fixed_[a ^ 1] = 1;
  }
}

bool CostScalingCore::price_refine(long long eps) {
  // Bellman–Ford relaxation d(w) ≤ d(v) + cp(a) + ε over residual
  // arcs. A fixpoint certifies that p + d makes the *current* flow
  // ε-optimal, so the whole refine phase can be skipped — the common
  // case between phases once the flow stops changing, and the fast
  // path for incremental re-solves whose patch only nudged costs.
  dist_.assign(static_cast<std::size_t>(n_), 0);
  const int max_passes = std::min(n_, 64);
  for (int pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    for (int a = 0; a < static_cast<int>(head_.size()); ++a) {
      if (!live(a) || fixed_[a] || resid_[a] <= 0) continue;
      const long long nd = dist_[from(a)] + reduced_cost(a) + eps;
      if (nd < dist_[head_[a]]) {
        dist_[head_[a]] = nd;
        changed = true;
      }
    }
    if (!changed) {
      for (int v = 0; v < n_; ++v) price_[v] += dist_[v];
      return true;
    }
  }
  return false;
}

bool CostScalingCore::refine(long long eps, Stats* stats,
                             std::uint64_t relabel_budget) {
  // Entry invariant: every residual unfixed arc has cp ≥ -ε (cold:
  // prices 0 and costs ≥ 0; ladder: the previous phase ended ε'-
  // optimal with ε' ≥ ε/α... ≥ this ε; patched: ε = worst violation).
  // Step 1 — saturate negative-reduced-cost arcs so the preflow is
  // trivially 0-optimal where it has residual, creating excesses.
  for (int a = 0; a < static_cast<int>(head_.size()); ++a) {
    if (!live(a) || fixed_[a] || resid_[a] <= 0) continue;
    if (reduced_cost(a) < 0) {
      const long long d = resid_[a];
      resid_[a] = 0;
      resid_[a ^ 1] += d;
      excess_[from(a)] -= d;
      excess_[head_[a]] += d;
    }
  }

  // Step 2 — FIFO push/relabel until no node holds positive excess.
  fifo_.clear();
  std::size_t fifo_head = 0;
  in_fifo_.assign(static_cast<std::size_t>(n_), 0);
  for (int v = 0; v < n_; ++v) {
    cur_[v] = 0;
    if (excess_[v] > 0) {
      in_fifo_[v] = 1;
      fifo_.push_back(v);
    }
  }

  std::uint64_t pushes = 0;
  std::uint64_t relabels = 0;
  std::uint64_t since_global = 0;
  while (fifo_head < fifo_.size()) {
    const int u = fifo_[fifo_head++];
    in_fifo_[u] = 0;
    while (excess_[u] > 0) {
      auto& lst = adj_[u];
      int i = cur_[u];
      for (; i < static_cast<int>(lst.size()); ++i) {
        const int a = lst[i];
        if (resid_[a] <= 0 || fixed_[a]) continue;
        if (reduced_cost(a) < 0) {  // admissible
          const long long d = std::min(excess_[u], resid_[a]);
          const int v = head_[a];
          resid_[a] -= d;
          resid_[a ^ 1] += d;
          excess_[u] -= d;
          excess_[v] += d;
          ++pushes;
          if (excess_[v] > 0 && !in_fifo_[v]) {
            in_fifo_[v] = 1;
            fifo_.push_back(v);
          }
          if (excess_[u] == 0) break;
        }
      }
      cur_[u] = i;
      if (excess_[u] == 0) break;

      if (++relabels > relabel_budget) {
        stats->pushes += pushes;
        stats->relabels += relabels;
        return false;
      }
      long long best = LLONG_MIN;
      for (const int a : lst) {
        if (resid_[a] <= 0 || fixed_[a]) continue;
        const long long cand = price_[head_[a]] - cost_[a];
        if (cand > best) best = cand;
      }
      if (best == LLONG_MIN) {
        // No residual unfixed arc out of an active node: either the
        // fixing threshold was wrong or the network is infeasible.
        // Both are "rebuild cold" situations for a patched solve and
        // a hard error for a cold one (the caller decides).
        stats->pushes += pushes;
        stats->relabels += relabels;
        return false;
      }
      GM_CHECK(best > LLONG_MIN / 2, "cost-scaling price underflow");
      price_[u] = best - eps;
      cur_[u] = 0;
      if (++since_global >= static_cast<std::uint64_t>(n_)) {
        global_update(eps);
        ++stats->global_updates;
        since_global = 0;
      }
    }
  }
  stats->pushes += pushes;
  stats->relabels += relabels;
  return true;
}

void CostScalingCore::global_update(long long eps) {
  // Dial-bucket backward sweep from the deficit nodes with arc length
  // ⌊cp(a)/ε⌋ + 1 ≥ 0, truncated at 3n buckets; prices then drop by
  // d(v)·ε. Truncation preserves the cp ≥ -ε invariant (docs/solver.md
  // has the case analysis), and re-anchoring prices on
  // distance-to-deficit is what breaks long relabel stalls.
  const long long cap = 3LL * n_;
  if (static_cast<long long>(buckets_.size()) < cap + 1)
    buckets_.resize(static_cast<std::size_t>(cap + 1));
  for (auto& b : buckets_) b.clear();
  dist_.assign(static_cast<std::size_t>(n_), cap);
  for (int v = 0; v < n_; ++v)
    if (excess_[v] < 0) {
      dist_[v] = 0;
      buckets_[0].push_back(v);
    }
  for (long long k = 0; k < cap; ++k) {
    for (std::size_t i = 0; i < buckets_[k].size(); ++i) {
      const int v = buckets_[static_cast<std::size_t>(k)][i];
      if (dist_[v] != k) continue;  // stale entry
      for (const int out : adj_[v]) {
        const int a = out ^ 1;  // residual arc u → v
        if (resid_[a] <= 0 || fixed_[a]) continue;
        const int u = head_[out];
        if (dist_[u] <= k) continue;
        long long len = floor_div(reduced_cost(a), eps) + 1;
        if (len < 0) len = 0;  // cp < -ε cannot happen mid-refine
        long long nd = k + len;
        if (nd > cap) nd = cap;
        if (nd < dist_[u]) {
          dist_[u] = nd;
          if (nd < cap)
            buckets_[static_cast<std::size_t>(nd)].push_back(u);
        }
      }
    }
  }
  for (int v = 0; v < n_; ++v) {
    if (dist_[v] > 0) price_[v] -= dist_[v] * eps;
    cur_[v] = 0;
  }
}

void CostScalingCore::final_optimality_check() const {
  // Always-on O(V + E) certificate: balanced nodes plus cp ≥ -1 on
  // every residual arc (scaled costs) is exactly 1/(n+1)-optimality in
  // original costs — optimal, for integer costs. If arc fixing or a
  // patch were ever unsound this fails loudly instead of shipping a
  // silently suboptimal plan.
  for (int v = 0; v < n_; ++v)
    GM_CHECK(excess_[v] == 0,
             "cost-scaling: node " << v << " left unbalanced");
  for (int a = 0; a < static_cast<int>(head_.size()); ++a) {
    if (!live(a) || resid_[a] <= 0) continue;
    GM_CHECK(reduced_cost(a) >= -1,
             "cost-scaling: ε-optimality violated on arc " << a);
  }
}

long long CostScalingCore::flow_on(int ext_index) const {
  GM_CHECK(ext_index >= 0 &&
               ext_index < static_cast<int>(arc_of_ext_.size()),
           "cost-scaling flow_on: arc index out of range");
  return resid_[arc_of_ext_[static_cast<std::size_t>(ext_index)] ^ 1];
}

std::uint64_t CostScalingCore::bytes() const {
  std::uint64_t b = 0;
  b += head_.capacity() * sizeof(int);
  b += resid_.capacity() * sizeof(long long);
  b += cost_.capacity() * sizeof(long long);
  b += cap_.capacity() * sizeof(long long);
  b += fixed_.capacity();
  b += free_pairs_.capacity() * sizeof(int);
  b += arc_of_ext_.capacity() * sizeof(int);
  b += adj_.capacity() * sizeof(adj_[0]);
  for (const auto& lst : adj_) b += lst.capacity() * sizeof(int);
  b += price_.capacity() * sizeof(long long);
  b += excess_.capacity() * sizeof(long long);
  b += cur_.capacity() * sizeof(int);
  b += fifo_.capacity() * sizeof(int);
  b += in_fifo_.capacity();
  b += dist_.capacity() * sizeof(long long);
  b += buckets_.capacity() * sizeof(buckets_[0]);
  for (const auto& bucket : buckets_) b += bucket.capacity() * sizeof(int);
  b += match_scratch_.capacity() * sizeof(int);
  return b;
}

// ---------------------------------------------------------------------------
// MinCostFlow glue: the kCostScaling path of solve()
// ---------------------------------------------------------------------------

MinCostFlow::Result MinCostFlow::run_cost_scaling(NodeIdx s, NodeIdx t,
                                                  long long max_flow) {
  // The edge list is the external arc list, in add order.
  bool patched = incremental_ && scaling_.has_state() &&
                 scaling_.try_patch(node_count(), edges_, s, t, max_flow);
  if (!patched) scaling_.build(node_count(), edges_, s, t, max_flow);

  CostScalingCore::Result res{};
  CostScalingCore::Stats cs{};
  if (!scaling_.solve(&res, &cs)) {
    // The patched state was unusable (relabel budget blown — see
    // docs/solver.md fallback rules): rebuild cold and try once more.
    GM_CHECK(patched, "cost-scaling solve failed on a cold build");
    patched = false;
    scaling_.build(node_count(), edges_, s, t, max_flow);
    cs = CostScalingCore::Stats{};
    GM_CHECK(scaling_.solve(&res, &cs),
             "cost-scaling solve failed on a cold build");
  }
  if (patched) {
    ++incremental_accepts_;
    last_stats_.incremental_accepts = 1;
  } else {
    ++incremental_rebuilds_;
    last_stats_.incremental_rebuilds = 1;
  }
  last_stats_.cs_phases = cs.phases;
  last_stats_.cs_pushes = cs.pushes;
  last_stats_.cs_relabels = cs.relabels;
  last_stats_.cs_price_refinements = cs.price_refinements;
  last_stats_.cs_global_updates = cs.global_updates;
  last_stats_.cs_arcs_fixed = cs.arcs_fixed;
  last_stats_.arena_bytes = arena_bytes();

  // Write the flows back into the residual arcs so flow_on(), the
  // planner demux, and provenance work unchanged.
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    Arc& fwd = arcs_[edge_arc_[i]];
    const long long flow = scaling_.flow_on(static_cast<int>(i));
    fwd.capacity = edges_[i].cap - flow;
    arcs_[fwd.rev].capacity = flow;
  }
  return Result{res.flow, res.cost};
}

}  // namespace gm::core
