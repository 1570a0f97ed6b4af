//! Exhaustive enumeration of k-ary search trees, used as a ground-truth
//! oracle for the dynamic programs on tiny instances. Exponential — test
//! use only (n ≤ 8).

use crate::eval::DistTree;
use kst_core::shape::ShapeTree;
use kst_workloads::DemandMatrix;

/// A tree over a contiguous key segment; `root` is a 0-based key index.
#[derive(Debug, Clone)]
pub struct SegTree {
    /// Root key index within `0..n`.
    pub root: usize,
    /// Children in key order: first the left-side forests, then right-side.
    pub kids: Vec<SegTree>,
}

/// Enumerates every routing-based k-ary search tree on segment `[i, j]`.
///
/// Routing-based constraint: the root key is a routing element, so with
/// children on both sides `dl + dr ≤ k`, and with children on one side only
/// `dl + dr ≤ k − 1` (the root key consumes an array slot itself).
pub fn all_routing_based(i: usize, j: usize, k: usize) -> Vec<SegTree> {
    let mut out = Vec::new();
    if i > j {
        return out;
    }
    for r in i..=j {
        let has_left = r > i;
        let has_right = r < j;
        if !has_left && !has_right {
            out.push(SegTree {
                root: r,
                kids: Vec::new(),
            });
            continue;
        }
        if has_left && has_right {
            for dl in 1..=k - 1 {
                for dr in 1..=(k - dl) {
                    for lf in forests_exact(i, r - 1, dl, k) {
                        for rf in forests_exact(r + 1, j, dr, k) {
                            let mut kids = lf.clone();
                            kids.extend(rf.clone());
                            out.push(SegTree { root: r, kids });
                        }
                    }
                }
            }
        } else if has_left {
            for dl in 1..=k - 1 {
                for lf in forests_exact(i, r - 1, dl, k) {
                    out.push(SegTree { root: r, kids: lf });
                }
            }
        } else {
            for dr in 1..=k - 1 {
                for rf in forests_exact(r + 1, j, dr, k) {
                    out.push(SegTree { root: r, kids: rf });
                }
            }
        }
    }
    out
}

/// Forests of exactly `t` trees covering `[i, j]`.
fn forests_exact(i: usize, j: usize, t: usize, k: usize) -> Vec<Vec<SegTree>> {
    if i > j {
        return if t == 0 { vec![Vec::new()] } else { Vec::new() };
    }
    if t == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    if t == 1 {
        for tree in all_routing_based(i, j, k) {
            out.push(vec![tree]);
        }
        return out;
    }
    for l in i..j {
        for first in all_routing_based(i, l, k) {
            for rest in forests_exact(l + 1, j, t - 1, k) {
                let mut f = vec![first.clone()];
                f.extend(rest);
                out.push(f);
            }
        }
    }
    out
}

/// Converts a SegTree over keys `0..n` to a `DistTree`.
pub fn to_dist_tree(t: &SegTree, n: usize) -> DistTree {
    let mut shape = ShapeTree {
        parent: vec![kst_core::NIL; n],
        root: t.root as u32,
    };
    fn fill(shape: &mut ShapeTree, t: &SegTree) {
        for c in &t.kids {
            shape.parent[c.root] = t.root as u32;
            fill(shape, c);
        }
    }
    fill(&mut shape, t);
    DistTree::from_shape(&shape)
}

/// Ground-truth optimum over all routing-based k-ary search trees.
pub fn brute_optimal_routing_based(demand: &DemandMatrix, k: usize) -> u64 {
    let n = demand.n();
    all_routing_based(0, n - 1, k)
        .iter()
        .map(|t| to_dist_tree(t, n).total_distance(demand))
        .min()
        // ksan-allow: panic-surface the enumeration is nonempty for every n >= 1
        .expect("at least one tree exists")
}

/// Ground-truth optimum over all rooted shapes with ≤ k children per node
/// under the uniform workload (each unordered pair once). Enumerates
/// compositions directly, independent of the DP recurrences.
pub fn brute_optimal_uniform(n: usize, k: usize) -> u64 {
    fn best(l: usize, n: usize, k: usize) -> u64 {
        // minimal internal cost of a tree on l nodes: sum over internal
        // edges e of s_e (n - s_e)
        if l == 1 {
            return 0;
        }
        let mut m = u64::MAX;
        // compositions of l-1 into 1..=k parts
        fn rec(remaining: usize, parts_left: usize, n: usize, k: usize, acc: u64, m: &mut u64) {
            if remaining == 0 {
                *m = (*m).min(acc);
                return;
            }
            if parts_left == 0 {
                return;
            }
            for a in 1..=remaining {
                let sub = best(a, n, k);
                let edge = (a as u64) * ((n - a) as u64);
                rec(remaining - a, parts_left - 1, n, k, acc + sub + edge, m);
            }
        }
        rec(l - 1, k, n, k, 0, &mut m);
        m
    }
    best(n, n, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp_general::optimal_routing_based_tree;
    use crate::dp_uniform::optimal_uniform;
    use kst_workloads::{gens, DemandMatrix};

    #[test]
    fn tree_counts_are_sane() {
        // k=2 routing-based BSTs on n keys = Catalan(n)
        assert_eq!(all_routing_based(0, 2, 2).len(), 5);
        assert_eq!(all_routing_based(0, 3, 2).len(), 14);
        assert_eq!(all_routing_based(0, 4, 2).len(), 42);
        // k=3 has strictly more trees
        assert!(all_routing_based(0, 3, 3).len() > 14);
    }

    #[test]
    fn dp_general_matches_bruteforce_k2() {
        for seed in 0..6u64 {
            let n = 6;
            let t = gens::zipf(n, 80, 1.0, seed);
            let d = DemandMatrix::from_trace(&t);
            let (_, dp) = optimal_routing_based_tree(&d, 2);
            let brute = brute_optimal_routing_based(&d, 2);
            assert_eq!(dp, brute, "seed={seed}");
        }
    }

    #[test]
    fn dp_general_matches_bruteforce_k3() {
        for seed in 0..4u64 {
            let n = 6;
            let t = gens::uniform(n, 60, seed);
            let d = DemandMatrix::from_trace(&t);
            let (_, dp) = optimal_routing_based_tree(&d, 3);
            let brute = brute_optimal_routing_based(&d, 3);
            assert_eq!(dp, brute, "seed={seed}");
        }
    }

    #[test]
    fn dp_general_matches_bruteforce_k4() {
        for seed in [3u64, 9] {
            let n = 7;
            let t = gens::temporal(n, 70, 0.5, seed);
            let d = DemandMatrix::from_trace(&t);
            let (_, dp) = optimal_routing_based_tree(&d, 4);
            let brute = brute_optimal_routing_based(&d, 4);
            assert_eq!(dp, brute, "seed={seed}");
        }
    }

    #[test]
    fn dp_uniform_matches_bruteforce() {
        for k in 2..=4 {
            for n in 1..=9usize {
                let dp = optimal_uniform(n, k).cost;
                let brute = brute_optimal_uniform(n, k);
                assert_eq!(dp, brute, "n={n} k={k}");
            }
        }
    }
}
