//! Optimal static k-ary search tree for the **uniform workload** in
//! O(n²·k) — Theorem 4 and Appendix A.2.
//!
//! Under uniform demand, `W` and segment costs depend only on segment
//! *length* (Lemmas 18–19), collapsing one DP dimension. The resulting tree
//! is not required to be routing-based: the DP optimizes over all rooted
//! shapes with ≤ k children per node, and keys are distributed afterwards
//! (Section 3.2: "we can first fix the tree structure and then distribute
//! the keys").

use crate::eval::DistTree;
use kst_core::shape::ShapeTree;

const INF: u64 = u64::MAX / 4;

/// Result of the uniform-workload optimization.
#[derive(Debug, Clone)]
pub struct UniformOptimal {
    /// Optimal shape on keys `1..=n`.
    pub shape: ShapeTree,
    /// Optimal total distance under the finite uniform workload (each
    /// unordered pair once).
    pub cost: u64,
}

/// `W(l) = l · (n − l)` — Lemma 18.
#[inline]
fn w_len(l: usize, n: usize) -> u64 {
    (l as u64) * ((n - l) as u64)
}

/// Computes the optimal uniform-workload tree on `n` nodes, O(n²·k).
pub fn optimal_uniform(n: usize, k: usize) -> UniformOptimal {
    assert!(k >= 2);
    assert!(n >= 1);
    // c[l] = cost of the best tree on a segment of length l (incl. W(l));
    // p[t][s] = best forest of ≤ t trees on s nodes (s = 0 allowed).
    let mut c = vec![INF; n + 1];
    c[0] = 0;
    let mut p = vec![vec![INF; n + 1]; k + 1];
    for row in p.iter_mut() {
        row[0] = 0;
    }
    for l in 1..=n {
        // c[l]: root + up to k child subtrees over the remaining l-1 nodes
        c[l] = w_len(l, n) + p[k][l - 1];
        if l == 1 {
            c[1] = w_len(1, n);
        }
        // p[1][l] = c[l]; p[t][l] = min(p[t-1][l], min_a c[a] + p[t-1][l-a])
        p[1][l] = c[l];
        for t in 2..=k {
            let mut m = p[t - 1][l];
            for a in 1..l {
                let v = c[a].saturating_add(p[t - 1][l - a]);
                if v < m {
                    m = v;
                }
            }
            p[t][l] = m;
        }
    }
    // Reconstruct the shape.
    let mut shape = ShapeTree {
        parent: vec![kst_core::NIL; n],
        root: 0,
    };
    shape.root = rebuild(&mut shape, &c, &p, k, 0, n, kst_core::NIL);
    UniformOptimal {
        shape,
        cost: c[n], // W(n) = 0
    }
}

/// Rebuilds the optimal tree on the `l` offsets `first..first + l` under
/// `parent`, returning its root's offset: the root's own key follows the
/// first `⌈c/2⌉` of its `c` child subtrees.
fn rebuild(
    shape: &mut ShapeTree,
    c: &[u64],
    p: &[Vec<u64>],
    k: usize,
    first: u32,
    l: usize,
    parent: u32,
) -> u32 {
    if l == 1 {
        shape.parent[first as usize] = parent;
        return first;
    }
    // children sizes: walk p[k][l-1]
    let mut sizes = Vec::new();
    let mut s = l - 1;
    let mut t = k;
    while s > 0 {
        debug_assert!(t >= 1);
        if t > 1 && p[t][s] == p[t - 1][s] {
            t -= 1;
            continue;
        }
        if t == 1 {
            sizes.push(s);
            break;
        }
        // find the first part achieving the optimum
        let pick = (1..=s).find(|&a| {
            let rest = if a == s { 0 } else { p[t - 1][s - a] };
            c[a].saturating_add(rest) == p[t][s]
        });
        // ksan-allow: panic-surface the DP table was just computed, so some split must reproduce its optimum
        let a = pick.expect("uniform DP reconstruction failed");
        sizes.push(a);
        if a == s {
            // `a == s` corresponds to the single-tree term via p[1]
            s = 0;
        } else {
            s -= a;
            t -= 1;
        }
    }
    let gap = sizes.len().div_ceil(2);
    let own = first + sizes[..gap].iter().sum::<usize>() as u32;
    shape.parent[own as usize] = parent;
    let mut next = first;
    for (i, &a) in sizes.iter().enumerate() {
        if i == gap {
            next += 1;
        }
        rebuild(shape, c, p, k, next, a, own);
        next += a as u32;
    }
    own
}

/// Convenience: optimal uniform tree as a static topology.
pub fn optimal_uniform_tree(n: usize, k: usize) -> (DistTree, u64) {
    let opt = optimal_uniform(n, k);
    (DistTree::from_shape(&opt.shape), opt.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kst_workloads::DemandMatrix;

    #[test]
    fn cost_matches_materialized_tree() {
        for k in 2..=6 {
            for n in [1usize, 2, 5, 17, 40, 100] {
                let (t, cost) = optimal_uniform_tree(n, k);
                assert_eq!(
                    t.total_distance_uniform(),
                    cost,
                    "n={n} k={k}: DP cost must equal realized cost"
                );
            }
        }
    }

    #[test]
    fn beats_or_ties_general_dp_on_uniform_demand() {
        // The shape DP searches a superset of routing-based trees, so its
        // optimum is ≤ the routing-based optimum (Remark after Thm 4).
        for k in 2..=4 {
            for n in [5usize, 9, 14] {
                let (_, shape_cost) = optimal_uniform_tree(n, k);
                let d = DemandMatrix::uniform(n);
                let (_, rb_cost) = crate::dp_general::optimal_routing_based_tree(&d, k);
                assert!(
                    shape_cost <= rb_cost,
                    "n={n} k={k}: shape {shape_cost} > routing-based {rb_cost}"
                );
            }
        }
    }

    #[test]
    fn small_cases_by_hand() {
        // n=2: single edge, 1 pair at distance 1.
        assert_eq!(optimal_uniform(2, 2).cost, 1);
        // n=3, k=2: path or star — both have total distance 4 (pairs
        // 1-2:1, 2-3:1, 1-3:2) or star root: 1+1+2 = 4.
        assert_eq!(optimal_uniform(3, 2).cost, 4);
        // n=3, k=3 same (root with 2 children): 1+1+2 = 4
        assert_eq!(optimal_uniform(3, 3).cost, 4);
        // n=4, k=3: root with 3 children: dists 3×1 + 3×2 = 9
        assert_eq!(optimal_uniform(4, 3).cost, 9);
    }

    #[test]
    fn higher_k_never_hurts() {
        let mut prev = u64::MAX;
        for k in 2..=10 {
            let cost = optimal_uniform(64, k).cost;
            assert!(cost <= prev);
            prev = cost;
        }
    }
}
