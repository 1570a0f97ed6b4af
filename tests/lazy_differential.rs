//! Differential guard for the lazy-net rebuild machinery, in two layers.
//!
//! **All-dirty plan/apply ≡ the PR 4 full-rebuild path.** The production
//! net now runs every rebuild through the two-phase plan/apply pipeline
//! (`Rebuild::plan` → `RebuildPlan` → `KstTree::patch_subtree`), with
//! classic whole-tree rebuilders degenerating to a single all-dirty patch
//! over `[1, n]`. That degenerate path must be **move-for-move identical**
//! to the historical full-rebuild implementation — same rebuild timings,
//! same rebuilt shapes (checked through all-pairs distances), same
//! per-request `ServeCost` including `links_changed` — for k ∈ {2, 3, 4}
//! across the optimal-DP, weight-balanced and centroid rebuild policies.
//! The oracle below is a faithful copy of the pre-refactor implementation
//! (dense `vec![0; n*n]` ledger, densify per rebuild, whole-tree
//! `from_shape` swap) with an independent `BTreeSet`-based link-difference
//! count, so any divergence in the production path shows up as a
//! per-request mismatch rather than a drifted total.
//!
//! **Incremental plans preserve the invariants.** Partial patches have no
//! oracle — they are *supposed* to diverge from full rebuilds — so the
//! guard for them is structural: after every rebuild of an incremental
//! run, the tree passes `kst_core::invariants::validate`, greedy routing
//! still delivers every probed pair along a path at least as long as the
//! tree distance, and the serve's `links_changed` equals the symmetric
//! difference of the whole tree's edge sets before and after it.

use ksan::core::lazy::{incremental_weight_balanced_rebuilder, weight_balanced_rebuilder};
use ksan::core::routing::route;
use ksan::core::{FullRebuild, KstTree, Rebuild};
use ksan::prelude::*;
use ksan::sim::experiments::{centroid_rebuilder, optimal_rebuilder};
use ksan::statics::{centroid_shape, optimal_routing_based};
use std::collections::BTreeSet;

/// The pre-refactor lazy net, verbatim: dense flat n×n epoch demand,
/// rebuilder consuming `(n, &[u64])`, whole-tree rebuild on every trigger,
/// no α clamp (tests use α ≥ 1). Reports the rebuild telemetry the
/// degenerate all-dirty plan is defined to produce: one whole-tree patch
/// re-forming all n nodes.
struct DenseLazyOracle<F: FnMut(usize, &[u64]) -> ShapeTree> {
    tree: KstTree,
    k: usize,
    alpha: u64,
    rebuilder: F,
    since_rebuild: u64,
    epoch_demand: Vec<u64>,
    rebuilds: u64,
}

impl<F: FnMut(usize, &[u64]) -> ShapeTree> DenseLazyOracle<F> {
    fn new(k: usize, n: usize, alpha: u64, rebuilder: F) -> Self {
        DenseLazyOracle {
            tree: KstTree::balanced(k, n),
            k,
            alpha,
            rebuilder,
            since_rebuild: 0,
            epoch_demand: vec![0; n * n],
            rebuilds: 0,
        }
    }

    fn serve(&mut self, u: NodeKey, v: NodeKey) -> ServeCost {
        let n = self.tree.n();
        let routing = self.tree.distance_keys(u, v);
        self.since_rebuild += routing;
        if u != v {
            self.epoch_demand[(u as usize - 1) * n + (v as usize - 1)] += 1;
        }
        let mut links_changed = 0;
        let mut rebuild_patches = 0;
        let mut rebuild_nodes = 0;
        if self.since_rebuild >= self.alpha {
            let shape = (self.rebuilder)(n, &self.epoch_demand);
            let new_tree = KstTree::from_shape(self.k, &shape);
            let before = edge_set(&self.tree);
            let after = edge_set(&new_tree);
            links_changed = before.symmetric_difference(&after).count() as u64;
            self.tree = new_tree;
            self.since_rebuild = 0;
            self.epoch_demand.iter_mut().for_each(|d| *d = 0);
            self.rebuilds += 1;
            rebuild_patches = 1;
            rebuild_nodes = n as u64;
        }
        ServeCost {
            routing,
            rotations: 0,
            links_changed,
            rebuild_patches,
            rebuild_nodes,
        }
    }
}

/// The whole tree's undirected edge set.
fn edge_set(t: &KstTree) -> BTreeSet<(u32, u32)> {
    let mut edges = BTreeSet::new();
    for v in t.nodes() {
        let p = t.parent(v);
        if p != ksan::core::NIL {
            edges.insert((v.min(p), v.max(p)));
        }
    }
    edges
}

/// Observed per-key frequencies from a dense matrix — the dense twin of
/// the sparse ledger's `key_weights` (each pair credits both endpoints).
fn dense_key_weights(n: usize, counts: &[u64]) -> Vec<(NodeKey, u64)> {
    let mut hot = Vec::new();
    for key in 0..n {
        let mut w = 0u64;
        for other in 0..n {
            w += counts[key * n + other] + counts[other * n + key];
        }
        if w > 0 {
            hot.push((key as NodeKey + 1, w));
        }
    }
    hot
}

/// Runs `trace` through the dense oracle and the production plan/apply
/// net with equivalent rebuild policies, asserting per-request
/// bit-identity and identical final topologies.
fn assert_plan_apply_matches_dense<FD, RS>(
    label: &str,
    k: usize,
    n: usize,
    alpha: u64,
    trace: &Trace,
    dense_policy: FD,
    plan_policy: RS,
) where
    FD: FnMut(usize, &[u64]) -> ShapeTree,
    RS: Rebuild,
{
    let mut oracle = DenseLazyOracle::new(k, n, alpha, dense_policy);
    let mut net = ksan::core::LazyKaryNet::new(k, n, alpha, plan_policy);
    for (i, &(u, v)) in trace.requests().iter().enumerate() {
        let want = oracle.serve(u, v);
        let got = net.serve(u, v);
        assert_eq!(
            got, want,
            "{label}: request #{i} ({u},{v}) diverged from the dense oracle"
        );
        assert_eq!(
            net.rebuilds(),
            oracle.rebuilds,
            "{label}: rebuild timing diverged at request #{i}"
        );
    }
    assert!(
        net.rebuilds() >= 3,
        "{label}: vacuous run — only {} rebuilds",
        net.rebuilds()
    );
    // Same final topology: all-pairs distances must agree exactly.
    for u in 1..=n as NodeKey {
        for v in 1..=n as NodeKey {
            assert_eq!(
                net.tree().distance_keys(u, v),
                oracle.tree.distance_keys(u, v),
                "{label}: final topology differs at pair ({u},{v})"
            );
        }
    }
}

#[test]
fn all_dirty_plan_is_move_for_move_identical_to_dense_optimal_dp() {
    let n = 40;
    for k in [2usize, 3, 4] {
        let trace = gens::zipf(n, 2000, 1.2, 100 + k as u64);
        assert_plan_apply_matches_dense(
            &format!("optimal-DP k={k}"),
            k,
            n,
            400,
            &trace,
            move |nn, counts| {
                optimal_routing_based(&DemandMatrix::from_counts(nn, counts), k).shape
            },
            optimal_rebuilder(k),
        );
    }
}

#[test]
fn all_dirty_plan_is_move_for_move_identical_to_dense_weight_balanced() {
    let n = 60;
    for k in [2usize, 3, 4] {
        let trace = gens::temporal(n, 4000, 0.7, 200 + k as u64);
        assert_plan_apply_matches_dense(
            &format!("weight-balanced k={k}"),
            k,
            n,
            500,
            &trace,
            move |nn, counts| ShapeTree::weight_balanced(nn, k, &dense_key_weights(nn, counts)),
            weight_balanced_rebuilder(k),
        );
    }
}

#[test]
fn all_dirty_plan_is_move_for_move_identical_to_dense_centroid() {
    let n = 50;
    for k in [2usize, 3, 4] {
        let trace = gens::projector(n, 3000, 300 + k as u64);
        assert_plan_apply_matches_dense(
            &format!("centroid k={k}"),
            k,
            n,
            350,
            &trace,
            move |nn, _counts| centroid_shape(nn, k),
            centroid_rebuilder(k),
        );
    }
}

#[test]
fn explicit_full_plan_wrapper_matches_dense_too() {
    // An inline FullRebuild closure (the migration path for custom
    // policies) goes through exactly the same degenerate plan.
    let n = 48;
    let k = 3;
    let trace = gens::temporal(n, 2500, 0.6, 77);
    assert_plan_apply_matches_dense(
        "inline FullRebuild k=3",
        k,
        n,
        300,
        &trace,
        move |nn, _counts| ShapeTree::balanced_kary(nn, k),
        FullRebuild(move |d: &DemandView<'_>| ShapeTree::balanced_kary(d.n(), k)),
    );
}

/// Incremental plans have no move-for-move oracle (locality is the whole
/// point); the guard is structural: search-tree invariants and routing
/// agreement must survive every patched rebuild, across arities and
/// half-lives.
#[test]
fn incremental_plans_preserve_invariants_and_routing_agreement() {
    for k in [2usize, 3, 4] {
        let n = 512;
        let mut net =
            ksan::core::LazyKaryNet::new(k, n, 2_000, incremental_weight_balanced_rebuilder(k, 8))
                .with_half_life(4);
        // Non-stationary traffic so plans are genuinely partial: the hot
        // region rotates, leaving the rest of the keyspace stale.
        let trace = gens::phase_shift(n, 30_000, 1_500, 5, 4, 0.9, 40 + k as u64);
        let mut rebuilds_seen = 0;
        let mut partial_plans = 0;
        // Lazy nets never rotate: the topology only changes at rebuilds.
        let mut edges = edge_set(net.tree());
        for &(u, v) in trace.requests() {
            let before = net.rebuilds();
            let c = net.serve(u, v);
            if net.rebuilds() > before {
                rebuilds_seen += 1;
                if c.rebuild_nodes > 0 && c.rebuild_nodes < n as u64 {
                    partial_plans += 1;
                }
                // Exact link accounting: disjoint patches sum to the whole
                // tree's edge-set difference.
                let after = edge_set(net.tree());
                assert_eq!(
                    c.links_changed,
                    edges.symmetric_difference(&after).count() as u64,
                    "k={k}: links_changed is not the edge-set difference"
                );
                edges = after;
                // Invariants after every rebuild.
                ksan::core::invariants::validate(net.tree())
                    .unwrap_or_else(|e| panic!("k={k}: invariants broken after rebuild: {e}"));
                // Routing agreement on a probe grid: greedy routing must
                // deliver, never undercutting the tree distance.
                for (a, b) in [(1u32, n as u32), (u, v), (7, n as u32 / 2), (v, 3)] {
                    if a == b {
                        continue;
                    }
                    let r = route(net.tree(), a, b)
                        .unwrap_or_else(|e| panic!("k={k}: routing loop {a}->{b}: {e:?}"));
                    assert_eq!(*r.hops.last().unwrap(), net.tree().node_of(b));
                    assert!(r.len() >= net.tree().distance_keys(a, b));
                }
            }
        }
        assert!(rebuilds_seen >= 5, "k={k}: vacuous run ({rebuilds_seen})");
        assert!(
            partial_plans >= 1,
            "k={k}: no partial plan ever ran — guard is vacuous"
        );
    }
}

/// `patch_subtree` on arbitrary subtree ranges of a *rotated* tree (gap
/// boundaries crowded by splay-moved elements — the hard case for element
/// placement) keeps every invariant, and an identity patch changes no
/// links.
#[test]
fn patch_subtree_on_rotated_trees_keeps_invariants() {
    for k in [2usize, 3, 5] {
        let n = 300;
        let mut splay = KSplayNet::balanced(k, n);
        let trace = gens::zipf(n, 800, 1.2, 9 + k as u64);
        for &(u, v) in trace.requests() {
            splay.serve(u, v);
        }
        let mut tree = splay.tree().clone();
        // Patch the subtree of every node at depth ≤ 3 with a fresh
        // weight-balanced fragment biased to one hot key.
        let mut patched = 0;
        for v in tree.nodes() {
            if tree.depth(v) > 3 {
                continue;
            }
            // Subtree key range of v: min/max key over its DFS.
            let (mut lo, mut hi) = (u32::MAX, 0u32);
            let mut count = 0usize;
            let mut stack = vec![v];
            while let Some(w) = stack.pop() {
                let key = tree.key_of(w);
                lo = lo.min(key);
                hi = hi.max(key);
                count += 1;
                for &c in tree.children(w) {
                    if c != ksan::core::NIL {
                        stack.push(c);
                    }
                }
            }
            assert_eq!(
                count,
                (hi - lo + 1) as usize,
                "subtree range not contiguous"
            );
            let size = count;
            let hot = vec![(1 + (size as u32 / 2), 1_000u64)];
            let frag = ShapeTree::weight_balanced(size, k, &hot);
            let stats = tree.patch_subtree(lo, hi, &frag);
            assert_eq!(stats.rebuild_nodes, size as u64);
            ksan::core::invariants::validate(&tree)
                .unwrap_or_else(|e| panic!("k={k} patch [{lo},{hi}]: {e}"));
            patched += 1;
            if patched >= 12 {
                break;
            }
        }
        assert!(patched >= 4, "k={k}: too few patchable subtrees probed");
    }
}

/// The smallest and largest key under `v` and the subtree's node count.
fn key_span(tree: &KstTree, v: u32) -> (NodeKey, NodeKey, usize) {
    let (mut lo, mut hi, mut count) = (NodeKey::MAX, 0, 0usize);
    let mut stack = vec![v];
    while let Some(w) = stack.pop() {
        lo = lo.min(tree.key_of(w));
        hi = hi.max(tree.key_of(w));
        count += 1;
        stack.extend(tree.children(w).iter().filter(|&&c| c != ksan::core::NIL));
    }
    (lo, hi, count)
}

/// The key sets `lo..=hi` that some node's subtree holds exactly (a
/// subtree whose key span has holes matches no range).
fn subtree_ranges(tree: &KstTree) -> BTreeSet<(NodeKey, NodeKey)> {
    tree.nodes()
        .filter_map(|v| {
            let (lo, hi, count) = key_span(tree, v);
            (count == (hi - lo + 1) as usize).then_some((lo, hi))
        })
        .collect()
}

/// The key span of a k-splayed subtree with a key hole (the hole's key
/// lives at an ancestor) is no patchable range unless an ancestor's
/// subtree holds exactly that span. The root-down descent stops inside
/// the span, so it is the one-pass range check over the span's arena rows
/// that must refuse it, with a panic.
#[test]
fn patch_subtree_rejects_the_span_of_a_key_holed_subtree() {
    let mut holed = 0;
    for k in [2usize, 3, 4] {
        let n = 40;
        let mut splayed = KSplayNet::balanced(k, n);
        for &(u, v) in gens::zipf(n, 300, 1.1, 40 + k as u64).requests() {
            splayed.serve(u, v);
        }
        let tree = splayed.tree();
        let subtrees = subtree_ranges(tree);
        for v in tree.nodes() {
            let (lo, hi, count) = key_span(tree, v);
            if count == (hi - lo + 1) as usize || subtrees.contains(&(lo, hi)) {
                continue;
            }
            holed += 1;
            let frag = ShapeTree::balanced_kary((hi - lo + 1) as usize, k);
            let mut t = tree.clone();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                t.patch_subtree(lo, hi, &frag)
            }))
            .expect_err("a key-holed span was patched");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("not a subtree range")
                    && (msg.contains("violates") || msg.contains("hangs from outside")),
                "k={k} [{lo},{hi}]: {msg}"
            );
        }
    }
    assert!(holed >= 1, "k-splaying left no key-holed subtree");
}

/// `patch_subtree` accepts exactly the subtree ranges: on balanced and on
/// k-splayed trees, every `[lo, hi]` is tried, and the patch must succeed
/// (leaving a valid tree) iff some node's subtree holds exactly the keys
/// `lo..=hi`, and panic otherwise.
#[test]
fn patch_subtree_accepts_exactly_the_subtree_ranges() {
    for k in [2usize, 3, 4] {
        for n in [1usize, 2, 7, 19, 40] {
            let mut splayed = KSplayNet::balanced(k, n);
            if n >= 2 {
                for &(u, v) in gens::zipf(n, 300, 1.1, 40 + k as u64).requests() {
                    splayed.serve(u, v);
                }
            }
            for (label, tree) in [
                ("balanced", KstTree::balanced(k, n)),
                ("splayed", splayed.tree().clone()),
            ] {
                let subtrees = subtree_ranges(&tree);
                for lo in 1..=n as NodeKey {
                    for hi in lo..=n as NodeKey {
                        let frag = ShapeTree::balanced_kary((hi - lo + 1) as usize, k);
                        let mut t = tree.clone();
                        let patched =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                t.patch_subtree(lo, hi, &frag)
                            }))
                            .is_ok();
                        assert_eq!(
                            patched,
                            subtrees.contains(&(lo, hi)),
                            "{label} k={k} n={n}: patch [{lo},{hi}] accepted = {patched}"
                        );
                        if patched {
                            ksan::core::invariants::validate(&t).unwrap_or_else(|e| {
                                panic!("{label} k={k} n={n} patch [{lo},{hi}]: {e}")
                            });
                        }
                    }
                }
            }
        }
    }
}

/// `patch_subtree`'s `links_changed` is exactly the symmetric difference
/// of the whole tree's edge sets before and after the patch, for every
/// subtree range of balanced and k-splayed trees and for fragments that
/// rebuild the range (balanced, hot at either end), keep it (its own
/// `subtree_shape`: 0 links when every subtree in the range is gap-free),
/// or, on 2-node ranges, swap parent and child (the inner link stays, only
/// the anchor link moves).
#[test]
fn patch_subtree_links_changed_equals_whole_tree_edge_difference() {
    for k in [2usize, 3, 4, 5] {
        for n in [1usize, 2, 3, 7, 19, 40, 60] {
            let mut splayed = KSplayNet::balanced(k, n);
            if n >= 2 {
                for &(u, v) in gens::zipf(n, 300, 1.1, 70 + k as u64).requests() {
                    splayed.serve(u, v);
                }
            }
            for (label, tree) in [
                ("balanced", KstTree::balanced(k, n)),
                ("splayed", splayed.tree().clone()),
            ] {
                let before = edge_set(&tree);
                let subtrees = subtree_ranges(&tree);
                for &(lo, hi) in &subtrees {
                    let size = (hi - lo + 1) as usize;
                    // `subtree_shape` reproduces the range only when every
                    // node in it roots a gap-free subtree (k-splaying can
                    // park a key between a child's keys).
                    let gap_free = subtrees
                        .iter()
                        .filter(|&&(a, b)| lo <= a && b <= hi)
                        .count();
                    let in_range = |v| (lo..=hi).contains(&tree.key_of(v));
                    let r = tree
                        .nodes()
                        .find(|&v| {
                            let p = tree.parent(v);
                            in_range(v) && (p == ksan::core::NIL || !in_range(p))
                        })
                        .expect("a subtree range has a root");
                    let own = tree.subtree_shape(r);
                    let mut frags = vec![
                        ("balanced_kary", ShapeTree::balanced_kary(size, k), None),
                        (
                            "hot_low",
                            ShapeTree::weight_balanced(size, k, &[(1, 1_000)]),
                            None,
                        ),
                        (
                            "hot_high",
                            ShapeTree::weight_balanced(size, k, &[(size as NodeKey, 1_000)]),
                            None,
                        ),
                        ("own", own.clone(), (gap_free == size).then_some(0)),
                    ];
                    if size == 2 {
                        // The child becomes the root and parents the old root.
                        let (root, child) = (own.root, 1 - own.root);
                        let mut swap = own.clone();
                        swap.parent[root as usize] = child;
                        swap.parent[child as usize] = ksan::core::NIL;
                        swap.root = child;
                        let anchored = tree.parent(r) != ksan::core::NIL;
                        frags.push(("swap", swap, Some(2 * u64::from(anchored))));
                    }
                    for (frag_label, frag, want) in frags {
                        let mut t = tree.clone();
                        let cost = t.patch_subtree(lo, hi, &frag);
                        let diff = before.symmetric_difference(&edge_set(&t)).count() as u64;
                        let ctx = format!("{label} k={k} n={n} [{lo},{hi}] {frag_label}");
                        assert_eq!(cost.links_changed, diff, "{ctx}");
                        if let Some(want) = want {
                            assert_eq!(cost.links_changed, want, "{ctx}");
                        }
                    }
                }
            }
        }
    }
}
