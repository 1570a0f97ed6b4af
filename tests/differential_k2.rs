//! Differential test: the generalized k-ary rotations of `kst-core` at
//! k = 2 must reproduce the classic binary SplayNet (zig / zig-zig /
//! zig-zag) **move for move** — identical tree shapes after every request
//! and identical routing costs.
//!
//! This is the strongest correctness evidence for the restructure window
//! policy: the paper presents k-splay/k-semi-splay as generalizations of
//! the binary splay rotations (Section 4.1), so the k = 2 instance must
//! degenerate exactly.

use kst_core::{KSplayNet, Network, NodeKey, NIL};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use splaynet_classic::ClassicSplayNet;

/// Asserts both networks have identical shapes (same parent and same
/// left/right orientation per key).
fn assert_same_shape(kst: &KSplayNet, classic: &ClassicSplayNet, ctx: &str) {
    let t = kst.tree();
    let n = t.n();
    for v in 0..n as u32 {
        let kp = t.parent(v);
        let cp = classic.parent_of(v);
        assert_eq!(
            kp,
            cp,
            "{ctx}: key {} parent differs (kst {:?} vs classic {:?})",
            v + 1,
            kp.checked_add(1),
            cp.checked_add(1)
        );
        let kids = t.children(v);
        assert_eq!(
            kids[0],
            classic.left_of(v),
            "{ctx}: key {} left child differs",
            v + 1
        );
        assert_eq!(
            kids[1],
            classic.right_of(v),
            "{ctx}: key {} right child differs",
            v + 1
        );
    }
    assert_eq!(t.root(), classic.root(), "{ctx}: roots differ");
}

#[test]
fn initial_balanced_shapes_match() {
    for n in [1usize, 2, 3, 4, 7, 10, 33, 100, 255] {
        let kst = KSplayNet::balanced(2, n);
        let classic = ClassicSplayNet::balanced(n);
        assert_same_shape(&kst, &classic, &format!("initial n={n}"));
    }
}

#[test]
fn random_traces_move_for_move() {
    for (n, m, seed) in [
        (10usize, 400usize, 1u64),
        (64, 1000, 2),
        (100, 1500, 3),
        (255, 800, 4),
        // Large enough that rotations prefetch the rows they touch.
        (1 << 18, 60, 5),
    ] {
        let mut kst = KSplayNet::balanced(2, n);
        let mut classic = ClassicSplayNet::balanced(n);
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 0..m {
            let u = rng.gen_range(1..=n as NodeKey);
            let v = rng.gen_range(1..=n as NodeKey);
            if u == v {
                continue;
            }
            let ck = kst.serve(u, v);
            let cc = classic.serve(u, v);
            assert_eq!(
                ck.routing, cc.routing,
                "n={n} seed={seed} step={step}: routing cost differs for ({u},{v})"
            );
            assert_eq!(
                ck.rotations, cc.rotations,
                "n={n} seed={seed} step={step}: rotation count differs for ({u},{v})"
            );
            // links_changed is intentionally NOT compared: classic SplayNet
            // applies two sequential elementary rotations per double step
            // (intermediate link changes count), whereas a k-splay batches
            // the same net transformation into one reconfiguration, so its
            // link-change count is ≤ the classic one.
            assert!(
                ck.links_changed <= cc.links_changed,
                "n={n} seed={seed} step={step}: batched k-splay changed more links"
            );
            assert_same_shape(
                &kst,
                &classic,
                &format!("n={n} seed={seed} step={step} req=({u},{v})"),
            );
        }
    }
}

#[test]
fn skewed_traces_move_for_move() {
    // Heavy repetition exercises the zig-heavy paths.
    let n = 60;
    let mut kst = KSplayNet::balanced(2, n);
    let mut classic = ClassicSplayNet::balanced(n);
    let mut rng = StdRng::seed_from_u64(77);
    let mut last = (1u32, 2u32);
    for step in 0..2000 {
        let (u, v) = if rng.gen::<f64>() < 0.7 {
            last
        } else {
            let u = rng.gen_range(1..=n as NodeKey);
            let v = rng.gen_range(1..=n as NodeKey);
            if u == v {
                continue;
            }
            (u, v)
        };
        last = (u, v);
        kst.serve(u, v);
        classic.serve(u, v);
        assert_same_shape(&kst, &classic, &format!("skewed step={step}"));
    }
}

#[test]
fn splay_to_root_matches() {
    // Direct splay-to-root comparison, exercising pure access sequences.
    let n = 127;
    let mut kst = KSplayNet::balanced(2, n);
    let mut classic = ClassicSplayNet::balanced(n);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..300 {
        let key = rng.gen_range(1..=n as NodeKey);
        // splay the same key to the root in both structures
        kst.tree_mut().splay_until(
            key - 1,
            NIL,
            kst_core::SplayStrategy::KSplay,
            kst_core::WindowPolicy::Paper,
        );
        classic.splay_until(key - 1, u32::MAX);
        assert_same_shape(&kst, &classic, &format!("splay-to-root key={key}"));
    }
}
