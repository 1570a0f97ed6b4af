//! Exhaustive small-scope verification: every `KSplayNet` state reachable
//! from the balanced tree by serves, for small k and n.
//!
//! A breadth-first search starts at `KSplayNet::balanced(k, n)` and serves
//! every ordered pair `(u, v)`, `u ≠ v`, from every state it reaches. A
//! state is keyed by its exact parent, child-slot and routing-element
//! arrays: rotations only permute the element values the balanced build
//! placed, so equal arrays mean the same state. At every state:
//!
//! * `invariants::validate` holds;
//! * `distance_lca` matches a naive ancestor-list reference on every pair;
//! * greedy routing delivers every pair, in at least the tree distance.
//!
//! Every transition is also replayed on the naive reference tree
//! (`tests/common/ref_tree.rs`) snapshotted from the source state: the
//! serve must leave the same parent, slot and element arrays and report
//! the same routing, rotations and `links_changed`.
//!
//! Tier-1 covers k ∈ {2, 3, 4} with n ≤ 6; the `#[ignore]`d case runs
//! k ≤ 3 at n = 8 and k ∈ {4, 5} at n = 7 in release
//! (`cargo test --release -q --test exhaustive_small -- --ignored`).

use ksan::core::invariants::validate;
use ksan::core::routing::route;
use ksan::core::{
    KSplayNet, KstTree, Network, NodeIdx, RoutingKey, SplayStrategy, WindowPolicy, NIL,
};
use std::collections::{HashSet, VecDeque};

#[path = "common/ref_tree.rs"]
mod ref_tree;

use ref_tree::{assert_same_state, RefKstTree};

/// The exact arrays of a tree: parents and child slots, then elements.
type StateKey = (Vec<NodeIdx>, Vec<RoutingKey>);

fn state_key(t: &KstTree) -> StateKey {
    let mut links = Vec::with_capacity(t.n() * (t.k() + 1));
    let mut elems = Vec::with_capacity(t.n() * (t.k() - 1));
    for v in t.nodes() {
        links.push(t.parent(v));
        links.extend_from_slice(t.children(v));
        elems.extend_from_slice(t.elems(v));
    }
    (links, elems)
}

/// Distance and LCA by the naive definition: the LCA is the first node on
/// `v`'s ancestor list (`v` included) that is also on `u`'s, and the
/// distance sums the two list positions.
fn naive_distance_lca(t: &KstTree, u: NodeIdx, v: NodeIdx) -> (u64, NodeIdx) {
    let ancestors = |mut x: NodeIdx| {
        let mut a = vec![x];
        while t.parent(x) != NIL {
            x = t.parent(x);
            a.push(x);
        }
        a
    };
    let (au, av) = (ancestors(u), ancestors(v));
    for (iv, &x) in av.iter().enumerate() {
        if let Some(iu) = au.iter().position(|&y| y == x) {
            return ((iu + iv) as u64, x);
        }
    }
    panic!("keys {} and {} share no root", u + 1, v + 1);
}

/// Checks one state; a failure names the arity, size and pair, and
/// prints the tree.
fn check_state(t: &KstTree) {
    let (k, n) = (t.k(), t.n());
    if let Err(e) = validate(t) {
        panic!("k={k} n={n}: {e}\n{t:?}");
    }
    for u in t.nodes() {
        for v in t.nodes() {
            let want = naive_distance_lca(t, u, v);
            let (ku, kv) = (t.key_of(u), t.key_of(v));
            assert_eq!(
                t.distance_lca(u, v),
                want,
                "k={k} n={n}: distance_lca(key {ku}, key {kv})\n{t:?}"
            );
            let r = route(t, ku, kv);
            assert!(
                matches!(&r, Ok(r) if r.hops.last() == Some(&v) && r.len() >= want.0),
                "k={k} n={n}: route {ku} -> {kv} gave {r:?}\n{t:?}"
            );
        }
    }
}

/// Visits every state reachable from the balanced tree by serves, checking
/// each state and replaying each transition on the reference tree, and
/// returns the number of states.
fn explore(k: usize, n: usize) -> usize {
    let start = KSplayNet::balanced(k, n);
    let mut seen: HashSet<StateKey> = HashSet::new();
    seen.insert(state_key(start.tree()));
    let mut queue = VecDeque::from([start]);
    while let Some(net) = queue.pop_front() {
        check_state(net.tree());
        for u in 1..=n as u32 {
            for v in (1..=n as u32).filter(|&v| v != u) {
                let mut next = net.clone();
                let c = next.serve(u, v);
                let ctx = format!("k={k} n={n}: serve({u}, {v})");
                assert_eq!(next.distance(u, v), 1, "{ctx}");
                let mut oracle = RefKstTree::snapshot(net.tree());
                let want = oracle.serve(u, v, SplayStrategy::KSplay, WindowPolicy::Paper);
                let got = (c.routing, c.rotations, c.links_changed);
                assert_eq!(got, want, "{ctx}: (routing, rotations, links_changed)");
                assert_same_state(next.tree(), &oracle, &ctx);
                if seen.insert(state_key(next.tree())) {
                    queue.push_back(next);
                }
            }
        }
    }
    seen.len()
}

/// The n-th Catalan number: the count of binary search trees on n keys.
fn catalan(n: usize) -> usize {
    (0..n).fold(1, |c, i| c * 2 * (2 * i + 1) / (i + 2))
}

#[test]
fn every_reachable_small_state_is_valid_and_measured_exactly() {
    for k in [2usize, 3, 4] {
        for n in 1..=6 {
            let states = explore(k, n);
            if k == 2 && n >= 3 {
                // k-splaying at k = 2 is classic splaying, which reaches
                // every binary search tree once a serve can move anything
                // (with n ≤ 2 every pair is adjacent from the start).
                assert_eq!(states, catalan(n), "k=2 n={n}");
            }
        }
    }
}

#[test]
#[ignore = "release only: about 2 M serves"]
fn every_reachable_state_at_n7_and_n8() {
    for (k, n, want) in [
        (2usize, 8usize, 1430usize),
        (3, 8, 35_448),
        (4, 7, 3156),
        (5, 7, 13_380),
    ] {
        assert_eq!(explore(k, n), want, "k={k} n={n}");
    }
}
