//! Offline optimal static **routing-based** k-ary search tree network via
//! dynamic programming — Theorem 2/15 and Appendix A.1, O(n³·k) time.
//!
//! Definitions (0-based segment indices over keys `1..=n`):
//! * `W[i][j]` — requests entering/leaving segment `[i, j]` (Claim 16;
//!   computed here in O(n²) with per-row prefix sums rather than the
//!   paper's O(n³), an allowed strengthening);
//! * `C[i][j]` — the paper's `cost(i,j)` = optimal tree on the segment
//!   plus `W[i][j]`;
//! * `B[t][j][i]` — optimal forest of at most `t` routing-based trees
//!   covering `[i, j]` (the paper's `dp2`, min over ≤ t parts).
//!
//! A routing-based node stores its own key in its routing array, so a root
//! `r` with `dl` children left and `dr` right needs `dl + dr − 1`
//! separators when both sides are non-empty (`dl + dr ≤ k`) but `dl + dr`
//! elements including `r` when one side is empty (`dl + dr ≤ k − 1`) — the
//! DP respects both regimes.

use crate::eval::DistTree;
use kst_core::shape::ShapeTree;
use kst_workloads::DemandMatrix;

const INF: u64 = u64::MAX / 4;

/// Result of the offline optimization.
#[derive(Debug, Clone)]
pub struct OptimalStatic {
    /// The optimal tree shape on keys `1..=n`.
    pub shape: ShapeTree,
    /// Optimal total distance `Σ D[u][v] · d(u,v)`.
    pub cost: u64,
}

/// The W matrix: `W[i][j]` = number of requests with exactly one endpoint
/// in `[i, j]`. O(n²) time and memory.
pub fn w_matrix(demand: &DemandMatrix) -> Vec<u64> {
    let n = demand.n();
    let mut w = vec![0u64; n * n];
    // S[u] = total requests touching u.
    let mut s = vec![0u64; n];
    for (u, su) in s.iter_mut().enumerate() {
        for v in 0..n {
            *su += demand.sym(u, v);
        }
    }
    // Row by row: fix j (the key being appended), sweep i downward using
    // R[j][w] = Σ_{x ≤ w} sym(j, x).
    let mut rj = vec![0u64; n + 1]; // rj[w+1] = prefix through w
    for j in 0..n {
        rj[0] = 0;
        for x in 0..n {
            rj[x + 1] = rj[x] + demand.sym(j, x);
        }
        for i in (0..=j).rev() {
            if i == j {
                w[i * n + j] = s[j];
            } else {
                // cross(j, [i, j-1]) = R[j][j-1] - R[j][i-1]
                let cross = rj[j] - rj[i];
                w[i * n + j] = w[i * n + (j - 1)] + s[j] - 2 * cross;
            }
        }
    }
    w
}

/// Computes the optimal routing-based k-ary search tree for `demand`.
///
/// Time O(n³·k), memory O(n²·k). Practical up to n ≈ 1000 (the paper could
/// not compute this for its n = 10⁴ Facebook trace either; Table 3).
///
/// ```
/// use kst_statics::optimal_routing_based_tree;
/// use kst_workloads::{DemandMatrix, Trace};
/// // a single hot pair must end up adjacent in the optimal tree
/// let demand = DemandMatrix::from_trace(&Trace::new(8, vec![(3, 4); 10]));
/// let (tree, cost) = optimal_routing_based_tree(&demand, 3);
/// assert_eq!(tree.distance(3, 4), 1);
/// assert_eq!(cost, 10);
/// ```
pub fn optimal_routing_based(demand: &DemandMatrix, k: usize) -> OptimalStatic {
    assert!(k >= 2);
    let n = demand.n();
    assert!(n >= 1);
    let w = w_matrix(demand);
    // B planes for t = 1..=k-1; plane layout [j * n + i] so that scanning l
    // in B[t][j][l] is contiguous.
    let planes = k - 1;
    let mut b = vec![vec![INF; n * n]; planes + 1]; // b[0] unused
                                                    // C as its own table, layout [i * n + j] for contiguous l-scans.
    let mut c = vec![INF; n * n];

    // helper closures over raw tables
    let b_at = |b: &Vec<Vec<u64>>, t: usize, i: usize, j_incl: isize| -> u64 {
        // empty segment → 0
        if j_incl < i as isize {
            return 0;
        }
        let j = j_incl as usize;
        if t == 0 {
            return INF;
        }
        let t = t.min(planes);
        b[t][j * n + i]
    };

    for len in 1..=n {
        for i in 0..=(n - len) {
            let j = i + len - 1;
            // ---- C[i][j]: choose a root r and child counts --------------
            let mut best = INF;
            for r in i..=j {
                let left_len = r - i;
                let right_len = j - r;
                let split = if left_len == 0 && right_len == 0 {
                    0
                } else if left_len == 0 {
                    // all children right of r: at most k-1 of them
                    b_at(&b, k - 1, r + 1, j as isize)
                } else if right_len == 0 {
                    b_at(&b, k - 1, i, r as isize - 1)
                } else {
                    // dl ≥ 1, dr ≥ 1, dl + dr = k
                    let mut m = INF;
                    for dl in 1..=k - 1 {
                        let dr = k - dl;
                        let lv = b_at(&b, dl, i, r as isize - 1);
                        let rv = b_at(&b, dr, r + 1, j as isize);
                        if lv < INF && rv < INF {
                            m = m.min(lv + rv);
                        }
                    }
                    m
                };
                if split < best {
                    best = split;
                }
            }
            c[i * n + j] = best.saturating_add(w[i * n + j]);
            // ---- B[t][j][i] ---------------------------------------------
            b[1][j * n + i] = c[i * n + j];
            for t in 2..=planes {
                let mut m = b[t - 1][j * n + i];
                for l in i..j {
                    let first = c[i * n + l];
                    let rest = b[t - 1][j * n + (l + 1)];
                    if first < INF && rest < INF {
                        m = m.min(first + rest);
                    }
                }
                b[t][j * n + i] = m;
            }
        }
    }

    // ---- reconstruction ---------------------------------------------------
    let mut shape = ShapeTree {
        parent: vec![kst_core::NIL; n],
        root: 0,
    };
    shape.root = rebuild_tree(
        &mut shape,
        &c,
        &b,
        &w,
        n,
        k,
        planes,
        0,
        n - 1,
        kst_core::NIL,
    );
    let cost = c[n - 1] - w[n - 1]; // C[0][n-1] − W[0][n-1] (W is 0 there)
    OptimalStatic { shape, cost }
}

#[allow(clippy::too_many_arguments)]
fn rebuild_tree(
    shape: &mut ShapeTree,
    c: &[u64],
    b: &[Vec<u64>],
    w: &[u64],
    n: usize,
    k: usize,
    planes: usize,
    i: usize,
    j: usize,
    parent: u32,
) -> u32 {
    let b_at = |t: usize, i: usize, j_incl: isize| -> u64 {
        if j_incl < i as isize {
            return 0;
        }
        if t == 0 {
            return INF;
        }
        let col = (j_incl as usize) * n + i;
        b[t.min(planes)][col]
    };
    let target = c[i * n + j] - w[i * n + j];
    // find the root and split achieving the optimum
    for r in i..=j {
        let left_len = r - i;
        let right_len = j - r;
        if left_len == 0 && right_len == 0 {
            if target == 0 {
                shape.parent[r] = parent;
                return r as u32;
            }
            continue;
        }
        let try_build = |shape: &mut ShapeTree, dl: usize, dr: usize| -> Option<u32> {
            let lv = if left_len == 0 {
                0
            } else {
                b_at(dl, i, r as isize - 1)
            };
            let rv = if right_len == 0 {
                0
            } else {
                b_at(dr, r + 1, j as isize)
            };
            if lv >= INF || rv >= INF || lv + rv != target {
                return None;
            }
            shape.parent[r] = parent;
            if left_len > 0 {
                rebuild_forest(shape, c, b, w, n, k, planes, i, r - 1, dl, r as u32);
            }
            if right_len > 0 {
                rebuild_forest(shape, c, b, w, n, k, planes, r + 1, j, dr, r as u32);
            }
            Some(r as u32)
        };
        if left_len == 0 {
            if let Some(v) = try_build(shape, 0, k - 1) {
                return v;
            }
        } else if right_len == 0 {
            if let Some(v) = try_build(shape, k - 1, 0) {
                return v;
            }
        } else {
            for dl in 1..=k - 1 {
                if let Some(v) = try_build(shape, dl, k - dl) {
                    return v;
                }
            }
        }
    }
    unreachable!("reconstruction failed: DP tables inconsistent");
}

#[allow(clippy::too_many_arguments)]
fn rebuild_forest(
    shape: &mut ShapeTree,
    c: &[u64],
    b: &[Vec<u64>],
    w: &[u64],
    n: usize,
    k: usize,
    planes: usize,
    i: usize,
    j: usize,
    t: usize,
    parent: u32,
) {
    let t = t.min(planes);
    debug_assert!(t >= 1);
    let val = b[t][j * n + i];
    if t == 1 || val == b[t.max(2) - 1][j * n + i] {
        if t > 1 && val == b[t - 1][j * n + i] {
            rebuild_forest(shape, c, b, w, n, k, planes, i, j, t - 1, parent);
            return;
        }
        // single tree
        rebuild_tree(shape, c, b, w, n, k, planes, i, j, parent);
        return;
    }
    for l in i..j {
        let first = c[i * n + l];
        let rest = b[t - 1][j * n + (l + 1)];
        if first < INF && rest < INF && first + rest == val {
            rebuild_tree(shape, c, b, w, n, k, planes, i, l, parent);
            rebuild_forest(shape, c, b, w, n, k, planes, l + 1, j, t - 1, parent);
            return;
        }
    }
    unreachable!("forest reconstruction failed");
}

/// Convenience: optimal tree as a distance-query topology.
pub fn optimal_routing_based_tree(demand: &DemandMatrix, k: usize) -> (DistTree, u64) {
    let opt = optimal_routing_based(demand, k);
    (DistTree::from_shape(&opt.shape), opt.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kst_workloads::Trace;

    fn demand_of(n: usize, reqs: &[(u32, u32)]) -> DemandMatrix {
        DemandMatrix::from_trace(&Trace::new(n, reqs.to_vec()))
    }

    #[test]
    fn w_matrix_small_example() {
        // n=3, one request (1,3): W[0,0]=1, W[2,2]=1, W[1,1]=0,
        // W[0,1]=1, W[1,2]=1, W[0,2]=0
        let d = demand_of(3, &[(1, 3)]);
        let w = w_matrix(&d);
        let n = 3;
        assert_eq!(w[0], 1);
        assert_eq!(w[n + 1], 0);
        assert_eq!(w[2 * n + 2], 1);
        assert_eq!(w[1], 1);
        assert_eq!(w[n + 2], 1);
        assert_eq!(w[2], 0);
    }

    #[test]
    fn single_hot_pair_is_made_adjacent() {
        let d = demand_of(8, &[(3, 4); 4]);
        let (t, cost) = optimal_routing_based_tree(&d, 2);
        assert_eq!(t.distance(3, 4), 1, "hot pair must be adjacent");
        assert_eq!(cost, 4);
    }

    #[test]
    fn cost_matches_materialized_tree() {
        // DP's claimed cost must equal the actual total distance of the
        // tree it reconstructs.
        let reqs: Vec<(u32, u32)> = vec![
            (1, 9),
            (2, 7),
            (2, 7),
            (5, 6),
            (9, 1),
            (3, 8),
            (8, 10),
            (4, 2),
            (10, 1),
            (7, 2),
        ];
        for k in 2..=5 {
            let d = demand_of(10, &reqs);
            let (t, cost) = optimal_routing_based_tree(&d, k);
            assert_eq!(t.total_distance(&d), cost, "k={k}");
        }
    }

    #[test]
    fn higher_k_never_hurts() {
        let reqs: Vec<(u32, u32)> = (0..40u32)
            .map(|i| ((i % 12) + 1, ((i * 7 + 3) % 12) + 1))
            .filter(|&(a, b)| a != b)
            .collect();
        let d = demand_of(12, &reqs);
        let mut prev = u64::MAX;
        for k in 2..=8 {
            let (_, cost) = optimal_routing_based_tree(&d, k);
            assert!(cost <= prev, "k={k} worsened: {cost} > {prev}");
            prev = cost;
        }
    }

    #[test]
    fn uniform_demand_small_agrees_with_exhaustive_distance() {
        let d = DemandMatrix::uniform(7);
        for k in 2..=4 {
            let (t, cost) = optimal_routing_based_tree(&d, k);
            assert_eq!(t.total_distance(&d), cost, "k={k}");
        }
    }
}
