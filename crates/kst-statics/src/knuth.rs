//! Static binary search tree networks for the k = 2 case used by the
//! Table 8 "Static Optimal Net" column: the exact O(n³) DP and a
//! Knuth-style O(n²) **heuristic** for instances too large for the exact
//! algorithm.
//!
//! The exact DP is `C[i][j] = W[i][j] + min_r (C[i][r−1] + C[r+1][j])` —
//! the SplayNet paper's algorithm and exactly `dp_general` at k = 2.
//! The accelerated variant restricts the root search to
//! `[root[i][j−1], root[i+1][j]]` (Knuth/Yao).
//!
//! **Finding (documented in EXPERIMENTS.md):** the quadrangle inequality
//! does *not* hold for communication-demand `W` — differential tests show
//! the restricted-range DP lands ~5–15% above the true optimum on random
//! communication matrices (unlike classic access-frequency optimal BSTs,
//! where Knuth's restriction is exact). The heuristic therefore returns a
//! *valid near-optimal static tree* (its reported cost is the exact cost
//! of the tree it builds), and the harness uses it only where the exact
//! DP is infeasible (the n = 10⁴ Facebook workload), labeled as
//! "near-opt". Tests bound the gap on small instances.

use crate::eval::DistTree;
use kst_workloads::DemandMatrix;

const NIL: u32 = u32::MAX;

/// Near-optimal BST via the Knuth-restricted DP with default slack (see
/// [`optimal_bst_knuth_slack`]).
pub fn optimal_bst_knuth(demand: &DemandMatrix) -> (DistTree, u64) {
    optimal_bst_knuth_slack(demand, 8)
}

/// Near-optimal BST via the Knuth-restricted DP (see module docs: the
/// restriction is exact for access-frequency costs but only heuristic for
/// communication demand). The root-search range `[root[i][j−1],
/// root[i+1][j]]` is widened by ±`slack` positions, trading O(n²·slack)
/// time for a smaller optimality gap. Returns the topology and its
/// **realized** total distance. Memory: ~16 bytes per (i,j) pair.
pub fn optimal_bst_knuth_slack(demand: &DemandMatrix, slack: usize) -> (DistTree, u64) {
    let n = demand.n();
    assert!(n >= 1);
    // W as u32 (values ≤ total request count).
    let total = demand.total();
    assert!(total < u32::MAX as u64 / 2, "demand too large for u32 W");
    let mut w = vec![0u32; n * n];
    {
        let mut s = vec![0u64; n];
        for (u, su) in s.iter_mut().enumerate() {
            for v in 0..n {
                *su += demand.sym(u, v);
            }
        }
        let mut rj = vec![0u64; n + 1];
        for j in 0..n {
            for x in 0..n {
                rj[x + 1] = rj[x] + demand.sym(j, x);
            }
            for i in (0..=j).rev() {
                let val = if i == j {
                    s[j]
                } else {
                    let cross = rj[j] - rj[i];
                    w[i * n + (j - 1)] as u64 + s[j] - 2 * cross
                };
                w[i * n + j] = val as u32;
            }
        }
    }
    let mut c = vec![0u64; n * n];
    let mut root = vec![NIL; n * n];
    for i in 0..n {
        c[i * n + i] = w[i * n + i] as u64;
        root[i * n + i] = i as u32;
    }
    for len in 2..=n {
        for i in 0..=(n - len) {
            let j = i + len - 1;
            // Knuth range (falls back to the full range at the borders).
            let lo = root[i * n + (j - 1)] as usize;
            let hi = match root[(i + 1) * n + j] {
                NIL => j,
                r => r as usize,
            };
            let (lo, hi) = (lo.saturating_sub(slack).max(i), (hi + slack).min(j));
            let mut best = u64::MAX;
            let mut best_r = lo;
            for r in lo..=hi {
                let left = if r > i { c[i * n + (r - 1)] } else { 0 };
                let right = if r < j { c[(r + 1) * n + j] } else { 0 };
                let v = left + right;
                if v < best {
                    best = v;
                    best_r = r;
                }
            }
            c[i * n + j] = best + w[i * n + j] as u64;
            root[i * n + j] = best_r as u32;
        }
    }
    let cost = c[n - 1] - w[n - 1] as u64;
    (materialize(&root, n), cost)
}

/// Exact O(n³) optimal BST (no range restriction) — reference
/// implementation for differential validation.
pub fn optimal_bst_exact(demand: &DemandMatrix) -> (DistTree, u64) {
    let (t, cost) = crate::dp_general::optimal_routing_based_tree(demand, 2);
    (t, cost)
}

fn materialize(root: &[u32], n: usize) -> DistTree {
    // Build a shape from the root table: each range's root parents the
    // roots of its two sides.
    let mut shape = kst_core::shape::ShapeTree {
        parent: vec![kst_core::NIL; n],
        root: root[n - 1],
    };
    let mut stack = vec![(0usize, n - 1)];
    while let Some((i, j)) = stack.pop() {
        let r = root[i * n + j];
        let ru = r as usize;
        if ru > i {
            shape.parent[root[i * n + (ru - 1)] as usize] = r;
            stack.push((i, ru - 1));
        }
        if ru < j {
            shape.parent[root[(ru + 1) * n + j] as usize] = r;
            stack.push((ru + 1, j));
        }
    }
    DistTree::from_shape(&shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kst_workloads::{gens, DemandMatrix, Trace};

    #[test]
    fn knuth_is_near_optimal_on_random_traces() {
        // QI fails for communication demand, so the restricted DP is only
        // near-optimal; bound the gap and check the reported cost is the
        // realized cost of the returned tree.
        for seed in 0..8u64 {
            let n = 24;
            let t = gens::zipf(n, 600, 1.1, seed);
            let d = DemandMatrix::from_trace(&t);
            let (tk, ck) = optimal_bst_knuth(&d);
            let (_, ce) = optimal_bst_exact(&d);
            assert!(ck >= ce, "seed {seed}: heuristic beat the optimum?!");
            assert!(
                (ck as f64) <= 1.20 * ce as f64,
                "seed {seed}: knuth {ck} vs exact {ce} — gap too large"
            );
            assert_eq!(tk.total_distance(&d), ck, "reported cost must be realized");
        }
    }

    #[test]
    fn knuth_is_near_optimal_on_temporal_traces() {
        for seed in 0..4u64 {
            let n = 20;
            let t = gens::temporal(n, 400, 0.7, seed);
            let d = DemandMatrix::from_trace(&t);
            let (tk, ck) = optimal_bst_knuth(&d);
            let (_, ce) = optimal_bst_exact(&d);
            assert!(ck >= ce, "seed {seed}");
            assert!((ck as f64) <= 1.25 * ce as f64, "seed {seed}: {ck} vs {ce}");
            assert_eq!(tk.total_distance(&d), ck);
        }
    }

    #[test]
    fn slack_narrows_the_gap() {
        // Widening the root range must monotonically improve the heuristic
        // and converge to the exact optimum at slack = n.
        let n = 22;
        let t = gens::zipf(n, 500, 1.1, 42);
        let d = DemandMatrix::from_trace(&t);
        let (_, ce) = optimal_bst_exact(&d);
        let mut prev = u64::MAX;
        for slack in [0usize, 2, 4, 8, n] {
            let (_, ck) = optimal_bst_knuth_slack(&d, slack);
            assert!(ck <= prev, "slack {slack} worsened: {ck} > {prev}");
            prev = ck;
        }
        assert_eq!(prev, ce, "full slack must reach the exact optimum");
    }

    #[test]
    fn hot_pair_is_adjacent() {
        let d = DemandMatrix::from_trace(&Trace::new(16, vec![(5, 6); 50]));
        let (t, cost) = optimal_bst_knuth(&d);
        assert_eq!(t.distance(5, 6), 1);
        assert_eq!(cost, 50);
    }
}
