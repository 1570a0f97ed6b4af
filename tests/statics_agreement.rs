//! Cross-crate agreement between the offline algorithms — Remark 10's
//! centroid-optimality claim, the DP hierarchy, and Lemma 9's scaling.

use ksan::prelude::*;
use ksan::statics::{optimal_bst_knuth_slack, optimal_uniform_tree};
use ksan::workloads::DemandMatrix;

#[test]
fn remark10_centroid_is_optimal_on_uniform_up_to_moderate_n() {
    // The paper observed optimality for all n < 10³, k ≤ 10; testing a
    // dense grid of moderate sizes here (the full sweep is the `remark10`
    // bench binary).
    for k in 2..=10usize {
        for n in [2usize, 3, 5, 8, 13, 21, 34, 55, 89, 144] {
            let centroid = centroid_tree(n, k).total_distance_uniform();
            let (_, opt) = optimal_uniform_tree(n, k);
            assert_eq!(
                centroid, opt,
                "n={n} k={k}: centroid {centroid} != optimal {opt}"
            );
        }
    }
}

#[test]
fn optimal_hierarchy_on_skewed_demand() {
    // optimal ≤ centroid and optimal ≤ full tree, for the demand they are
    // asked to optimize.
    let n = 60;
    let trace = gens::zipf(n, 4000, 1.2, 3);
    let demand = DemandMatrix::from_trace(&trace);
    for k in [2usize, 3, 5] {
        let (opt_tree, opt_cost) = optimal_routing_based_tree(&demand, k);
        assert_eq!(opt_tree.total_distance(&demand), opt_cost);
        let cen = centroid_tree(n, k).total_distance(&demand);
        let full = full_kary(n, k).total_distance(&demand);
        assert!(
            opt_cost <= cen,
            "k={k}: optimal {opt_cost} > centroid {cen}"
        );
        assert!(opt_cost <= full, "k={k}: optimal {opt_cost} > full {full}");
    }
}

#[test]
fn bst_exact_equals_general_dp_at_k2() {
    // The BST DP with the root search widened to the whole range (slack
    // n) is the exact O(n³) algorithm.
    let trace = gens::projector(40, 3000, 8);
    let demand = DemandMatrix::from_trace(&trace);
    let (_, a) = optimal_bst_knuth_slack(&demand, 40);
    let (_, b) = optimal_routing_based_tree(&demand, 2);
    assert_eq!(a, b);
}

#[test]
fn lemma9_centroid_never_worse_than_full_tree() {
    for k in [2usize, 3, 4, 7, 10] {
        for n in [10usize, 100, 1000, 5000] {
            let c = centroid_tree(n, k).total_distance_uniform();
            let f = full_kary(n, k).total_distance_uniform();
            assert!(c <= f, "n={n} k={k}: centroid {c} > full {f}");
            // Lemma 9: both are n² log_k n + O(n²); allow a generous band.
            if n >= 100 {
                let lead = (n as f64).powi(2) * (n as f64).ln() / (k as f64).ln();
                for (label, v) in [("full", f), ("centroid", c)] {
                    let ratio = v as f64 / lead;
                    assert!(
                        (0.3..1.8).contains(&ratio),
                        "{label} n={n} k={k}: ratio {ratio}"
                    );
                }
            }
        }
    }
}

#[test]
fn dp_uniform_matches_general_dp_when_restricted() {
    // On uniform demand the shape DP must be ≤ the routing-based DP, and
    // both must be realized by their trees.
    for k in 2..=4usize {
        for n in [10usize, 20, 35] {
            let d = DemandMatrix::uniform(n);
            let (shape_tree, shape_cost) = optimal_uniform_tree(n, k);
            let (rb_tree, rb_cost) = optimal_routing_based_tree(&d, k);
            assert_eq!(shape_tree.total_distance_uniform(), shape_cost);
            assert_eq!(rb_tree.total_distance(&d), rb_cost);
            assert!(shape_cost <= rb_cost, "n={n} k={k}");
        }
    }
}
