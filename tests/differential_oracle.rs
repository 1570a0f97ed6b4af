//! Oracle-backed differential harness for the k-splay restructure machinery.
//!
//! [`RefKstTree`] (in `tests/common/ref_tree.rs`, shared with
//! `exhaustive_small`) is a deliberately naive, allocation-happy reference
//! implementation of the paper's k-ary search tree network: per-node `Vec`s,
//! merges performed by rebuilding whole arrays, link accounting done by
//! diffing edge sets before and after every restructure, the window rules
//! of Section 4.1 transcribed directly from the text.
//!
//! The harness fuzzes `KSplayNet` against the oracle **move for move** —
//! identical routing costs, rotation counts, link-change counts, tree
//! shapes and routing arrays after every request (a node's interval is the
//! slot gap of its parent link, so equal shapes and arrays imply equal
//! intervals) —
//! for k ∈ {2, 3, 4, 5, 8, 9, 11}, every [`WindowPolicy`], and both the
//! k-splay and k-semi-splay disciplines. It also fuzzes the centroid
//! `KPlusOneSplayNet` for k ∈ {2, 3, 4, 5}: same-subtree requests take the
//! oracle's SplayNet discipline, every other request splays each
//! non-centroid endpoint up to its subtree's (fixed) centroid anchor. The production kernel has its own
//! compiled copy for k ∈ {2, 3, 4} and one runtime-k copy for every other
//! arity, so the list pins both kinds move for move. Because the oracle re-derives everything
//! from scratch on every step while the production tree reuses scratch
//! arenas and maintains window state incrementally, agreement here is the
//! strongest evidence that the zero-allocation serve hot path preserves the
//! paper's semantics exactly. (The same harness was run against the
//! pre-refactor per-step-recollecting implementation to pin the behaviour
//! before the rewrite.)

use kst_core::{
    KPlusOneSplayNet, KSplayNet, Membership, Network, NodeKey, SplayStrategy, WindowPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "common/ref_tree.rs"]
mod ref_tree;

use ref_tree::{assert_same_state, RefKstTree};

/// Runs one fuzz configuration: `m` random requests, compared move for move.
fn fuzz(k: usize, n: usize, m: usize, seed: u64, strategy: SplayStrategy, policy: WindowPolicy) {
    let mut net = KSplayNet::balanced(k, n)
        .with_strategy(strategy)
        .with_policy(policy);
    let mut oracle = RefKstTree::snapshot(net.tree());
    assert_same_state(net.tree(), &oracle, &format!("k={k} initial"));
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..m {
        let u = rng.gen_range(1..=n as NodeKey);
        let v = rng.gen_range(1..=n as NodeKey);
        if u == v {
            continue;
        }
        let c = net.serve(u, v);
        let (routing, rotations, links) = oracle.serve(u, v, strategy, policy);
        let ctx = format!("k={k} {strategy:?} {policy:?} seed={seed} step={step} req=({u},{v})");
        assert_eq!(c.routing, routing, "{ctx}: routing differs");
        assert_eq!(c.rotations, rotations, "{ctx}: rotations differ");
        assert_eq!(c.links_changed, links, "{ctx}: links_changed differs");
        assert_eq!(c.total_unit(), routing + rotations, "{ctx}: total_unit");
        assert_same_state(net.tree(), &oracle, &ctx);
    }
}

#[test]
fn oracle_ksplay_all_arities_all_policies() {
    for (i, &k) in [2usize, 3, 4, 5, 8, 9, 11].iter().enumerate() {
        for (j, policy) in [
            WindowPolicy::Paper,
            WindowPolicy::Leftmost,
            WindowPolicy::Rightmost,
        ]
        .into_iter()
        .enumerate()
        {
            fuzz(
                k,
                48,
                220,
                1000 + (i * 3 + j) as u64,
                SplayStrategy::KSplay,
                policy,
            );
        }
    }
}

#[test]
fn oracle_semi_splay_all_arities_all_policies() {
    for (i, &k) in [2usize, 3, 4, 5, 8, 9, 11].iter().enumerate() {
        for (j, policy) in [
            WindowPolicy::Paper,
            WindowPolicy::Leftmost,
            WindowPolicy::Rightmost,
        ]
        .into_iter()
        .enumerate()
        {
            fuzz(
                k,
                48,
                220,
                2000 + (i * 3 + j) as u64,
                SplayStrategy::SemiOnly,
                policy,
            );
        }
    }
}

#[test]
fn oracle_skewed_hot_pair_traces() {
    // Heavy repetition drives the trees into the converged regime where the
    // incremental scratch reuse would hide any stale-state bug.
    for &k in &[2usize, 4, 8] {
        for strategy in [SplayStrategy::KSplay, SplayStrategy::SemiOnly] {
            let n = 40;
            let mut net = KSplayNet::balanced(k, n)
                .with_strategy(strategy)
                .with_policy(WindowPolicy::Paper);
            let mut oracle = RefKstTree::snapshot(net.tree());
            let mut rng = StdRng::seed_from_u64(777);
            let mut last = (1u32, n as u32);
            for step in 0..600 {
                let (u, v) = if rng.gen::<f64>() < 0.75 {
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
                let c = net.serve(u, v);
                let (routing, rotations, links) = oracle.serve(u, v, strategy, WindowPolicy::Paper);
                let ctx = format!("k={k} {strategy:?} skewed step={step} req=({u},{v})");
                assert_eq!(c.routing, routing, "{ctx}: routing differs");
                assert_eq!(c.rotations, rotations, "{ctx}: rotations differ");
                assert_eq!(c.links_changed, links, "{ctx}: links_changed differs");
                assert_same_state(net.tree(), &oracle, &ctx);
            }
        }
    }
}

#[test]
fn oracle_deep_strategy_spot_check() {
    // The d-node generalization (end of Section 4.1) with d = 4 and d = 5.
    for d in [4u8, 5] {
        fuzz(
            3,
            48,
            150,
            3000 + d as u64,
            SplayStrategy::Deep(d),
            WindowPolicy::Paper,
        );
    }
}

/// The (k+1)-SplayNet discipline (Section 4.2) on the oracle: membership
/// comes from the production net, the anchor of a subtree node is its
/// first centroid ancestor. Returns (routing, rotations, links changed).
fn serve_centroid(
    oracle: &mut RefKstTree,
    member: &[Membership],
    u: NodeKey,
    v: NodeKey,
    strategy: SplayStrategy,
) -> (u64, u64, u64) {
    let (mu, mv) = (member[u as usize - 1], member[v as usize - 1]);
    let centroid = |m: Membership| matches!(m, Membership::C1 | Membership::C2);
    if mu == mv && !centroid(mu) {
        return oracle.serve(u, v, strategy, WindowPolicy::Paper);
    }
    let routing = oracle.distance(u - 1, v - 1);
    let (mut rot, mut links) = (0, 0);
    for (x, m) in [(u, mu), (v, mv)] {
        if centroid(m) {
            continue;
        }
        let anchor = *oracle
            .ancestors(x - 1)
            .iter()
            .find(|&&a| centroid(member[a as usize]))
            .expect("every subtree hangs below a centroid");
        let (r, l) = oracle.splay_until(x - 1, anchor, strategy, WindowPolicy::Paper);
        rot += r;
        links += l;
    }
    (routing, rot, links)
}

#[test]
fn oracle_centroid_net_mixed_requests() {
    for (i, k) in (2usize..=5).enumerate() {
        for strategy in [SplayStrategy::KSplay, SplayStrategy::SemiOnly] {
            let n = 60;
            let mut net = KPlusOneSplayNet::new(k, n).with_strategy(strategy);
            let mut oracle = RefKstTree::snapshot(net.tree());
            let member: Vec<Membership> = (1..=n as NodeKey).map(|x| net.membership(x)).collect();
            let (c1, c2) = (net.c1_key(), net.c2_key());
            let mut rng = StdRng::seed_from_u64(4000 + i as u64);
            let (mut intra, mut cross, mut central) = (0, 0, 0);
            for step in 0..400 {
                let u = rng.gen_range(1..=n as NodeKey);
                let v = match rng.gen_range(0..3u32) {
                    // Same subtree as u (a centroid u pairs with anything).
                    0 => {
                        let peers: Vec<NodeKey> = (1..=n as NodeKey)
                            .filter(|&x| member[x as usize - 1] == member[u as usize - 1])
                            .collect();
                        peers[rng.gen_range(0..peers.len())]
                    }
                    1 => rng.gen_range(1..=n as NodeKey),
                    _ => [c1, c2][rng.gen_range(0..2usize)],
                };
                if u == v {
                    continue;
                }
                let (mu, mv) = (member[u as usize - 1], member[v as usize - 1]);
                if [mu, mv]
                    .iter()
                    .any(|m| matches!(m, Membership::C1 | Membership::C2))
                {
                    central += 1;
                } else if mu == mv {
                    intra += 1;
                } else {
                    cross += 1;
                }
                let c = net.serve(u, v);
                let (routing, rotations, links) =
                    serve_centroid(&mut oracle, &member, u, v, strategy);
                let ctx = format!("k={k} {strategy:?} centroid step={step} req=({u},{v})");
                assert_eq!(c.routing, routing, "{ctx}: routing differs");
                assert_eq!(c.rotations, rotations, "{ctx}: rotations differ");
                assert_eq!(c.links_changed, links, "{ctx}: links_changed differs");
                assert_same_state(net.tree(), &oracle, &ctx);
            }
            assert!(
                intra >= 50 && cross >= 50 && central >= 50,
                "k={k}: request mix too thin ({intra} intra, {cross} cross, {central} centroid)"
            );
        }
    }
}

/// Trees past the kernel's prefetch threshold (4 MiB of node arenas),
/// where `splay_until` prefetches the rows of the whole splay path: k = 3
/// and k = 4 on 2¹⁷ nodes (4.2 and 5.8 MB of arenas), full state compared
/// after every serve. The small-n cases above never reach that branch.
/// Release only (CI runs it with `--ignored`): the full-state comparison
/// is O(n) per serve.
#[test]
#[ignore = "large trees; run in release with --ignored"]
fn oracle_ksplay_past_prefetch_threshold() {
    let n = 1usize << 17;
    for (k, seed) in [(3usize, 5003u64), (4, 5004)] {
        let mut net = KSplayNet::balanced(k, n);
        let mut oracle = RefKstTree::snapshot(net.tree());
        oracle.local_links = true;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut last = (1 as NodeKey, n as NodeKey);
        let (mut rotations, mut step) = (0u64, 0usize);
        while step < 400 {
            // Half repeats of a recent endpoint keep paths short and
            // converged, half are uniform and walk the deep, cold tree.
            let (u, v) = if rng.gen::<f64>() < 0.5 {
                (last.1, rng.gen_range(1..=n as NodeKey))
            } else {
                (
                    rng.gen_range(1..=n as NodeKey),
                    rng.gen_range(1..=n as NodeKey),
                )
            };
            if u == v {
                continue;
            }
            last = (u, v);
            let c = net.serve(u, v);
            let (routing, rot, links) =
                oracle.serve(u, v, SplayStrategy::KSplay, WindowPolicy::Paper);
            let ctx = format!("k={k} n={n} seed={seed} step={step} req=({u},{v})");
            assert_eq!(c.routing, routing, "{ctx}: routing differs");
            assert_eq!(c.rotations, rot, "{ctx}: rotations differ");
            assert_eq!(c.links_changed, links, "{ctx}: links_changed differs");
            assert_same_state(net.tree(), &oracle, &ctx);
            rotations += rot;
            step += 1;
        }
        assert!(rotations >= 2000, "k={k}: only {rotations} rotations");
    }
}
