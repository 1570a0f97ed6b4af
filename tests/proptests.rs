//! Property-based tests (proptest) over the core data structures:
//! arbitrary request sequences, arities, strategies and policies must
//! preserve every invariant; arbitrary shapes must materialize into valid
//! trees; splaying must deliver its postconditions.

use ksan::core::invariants::validate;
use ksan::core::routing::route;
use ksan::core::{End, KstTree, LazyKaryNet, Reshardable, ShapeTree};
use ksan::prelude::*;
use proptest::prelude::*;

fn arb_requests(n: u32, len: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((1..=n, 1..=n), 0..len)
}

/// Recovers the global undirected key-space edge set from pairwise
/// distance-1 relations — fully independent of a net's own accounting.
fn edges_by_distance<N: Network>(net: &N, n: usize) -> std::collections::BTreeSet<(u32, u32)> {
    let mut s = std::collections::BTreeSet::new();
    for u in 1..=n as u32 {
        for v in u + 1..=n as u32 {
            if net.distance(u, v) == 1 {
                s.insert((u, v));
            }
        }
    }
    s
}

/// Checks `distance_lca(u, v)` for every node pair against the naive
/// definition: the LCA is the first node on `v`'s ancestor list (`v`
/// included) that is also on `u`'s, and the distance sums the two list
/// positions.
fn check_distance_lca(t: &KstTree) -> Result<(), TestCaseError> {
    let nil = ksan::core::key::NIL;
    let ancestors: Vec<Vec<u32>> = t
        .nodes()
        .map(|mut v| {
            let mut a = vec![v];
            while t.parent(v) != nil {
                v = t.parent(v);
                a.push(v);
            }
            a
        })
        .collect();
    // Position of each node on `u`'s ancestor list, `usize::MAX` off it.
    let mut pos_u = vec![usize::MAX; t.n()];
    for u in t.nodes() {
        let au = &ancestors[u as usize];
        for (i, &x) in au.iter().enumerate() {
            pos_u[x as usize] = i;
        }
        for v in t.nodes() {
            let (iv, &lca) = ancestors[v as usize]
                .iter()
                .enumerate()
                .find(|&(_, &x)| pos_u[x as usize] != usize::MAX)
                .expect("every ancestor list ends at the root");
            let want = ((pos_u[lca as usize] + iv) as u64, lca);
            prop_assert_eq!(t.distance_lca(u, v), want, "keys {} and {}", u + 1, v + 1);
        }
        for &x in au {
            pos_u[x as usize] = usize::MAX;
        }
    }
    Ok(())
}

/// Smallest and largest key in the subtree rooted at node index `v` (on
/// trees built purely by `from_shape`/`patch_subtree` this span is exactly
/// the subtree's contiguous key range, i.e. a valid patch range).
fn subtree_key_span(t: &KstTree, v: u32) -> (u32, u32) {
    let (mut lo, mut hi) = (u32::MAX, 0u32);
    let mut stack = vec![v];
    let nil = ksan::core::key::NIL;
    while let Some(w) = stack.pop() {
        lo = lo.min(w + 1);
        hi = hi.max(w + 1);
        for &c in t.children(w) {
            if c != nil {
                stack.push(c);
            }
        }
    }
    (lo, hi)
}

/// Asserts `links_changed` equals the symmetric difference of the global
/// before/after edge sets on every request of `trace`.
fn check_links_exact<N: Network>(
    net: &mut N,
    n: usize,
    trace: &Trace,
) -> Result<(), TestCaseError> {
    for &(u, v) in trace.requests() {
        let before = edges_by_distance(net, n);
        let c = net.serve(u, v);
        let after = edges_by_distance(net, n);
        let want = before.symmetric_difference(&after).count() as u64;
        prop_assert_eq!(c.links_changed, want, "req ({},{})", u, v);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serve_preserves_all_invariants(
        k in 2usize..=10,
        n in 2u32..=80,
        reqs in arb_requests(80, 60),
    ) {
        let reqs: Vec<_> = reqs.into_iter()
            .filter(|&(u, v)| u != v && u <= n && v <= n)
            .collect();
        let mut net = KSplayNet::balanced(k, n as usize);
        let snapshot = net.tree().element_multiset();
        for (u, v) in reqs {
            net.serve(u, v);
            prop_assert_eq!(net.distance(u, v), 1);
        }
        validate(net.tree()).map_err(TestCaseError::fail)?;
        prop_assert_eq!(net.tree().element_multiset(), snapshot);
    }

    #[test]
    fn strategies_policies_grid_preserves_invariants(
        seed in 0u64..1000,
        strategy_semi in proptest::bool::ANY,
        policy_idx in 0usize..3,
    ) {
        let policies = [WindowPolicy::Paper, WindowPolicy::Leftmost, WindowPolicy::Rightmost];
        let strategy = if strategy_semi { SplayStrategy::SemiOnly } else { SplayStrategy::KSplay };
        let mut net = KSplayNet::balanced(3, 50)
            .with_strategy(strategy)
            .with_policy(policies[policy_idx]);
        let trace = gens::temporal(50, 120, 0.5, seed);
        for &(u, v) in trace.requests() {
            net.serve(u, v);
        }
        validate(net.tree()).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn greedy_routing_terminates_and_delivers(
        k in 2usize..=6,
        seed in 0u64..500,
        probes in proptest::collection::vec((1u32..=40, 1u32..=40), 10),
    ) {
        let n = 40;
        let mut net = KSplayNet::balanced(k, n);
        let trace = gens::temporal(n, 100, 0.7, seed);
        for &(u, v) in trace.requests() {
            net.serve(u, v);
        }
        for (u, v) in probes {
            let r = route(net.tree(), u, v).map_err(|_| TestCaseError::fail("routing loop"))?;
            prop_assert_eq!(*r.hops.last().unwrap(), net.tree().node_of(v));
            prop_assert!(r.len() >= net.distance(u, v));
        }
    }

    #[test]
    fn greedy_routing_delivers_after_resharding_surgery(
        k in 2usize..=6,
        seed in 0u64..500,
        cut in 1usize..=12,
    ) {
        // Splayed trees hand boundary runs both ways (a's high run to b's
        // low end, then b's low run to a's high end); greedy routing must
        // still deliver on both, never shorter than the tree distance.
        let n = 40;
        let mut a = KSplayNet::balanced(k, n);
        let mut b = KSplayNet::balanced(k, n);
        for &(u, v) in gens::temporal(n, 100, 0.7, seed).requests() {
            a.serve(u, v);
        }
        for &(u, v) in gens::zipf(n, 100, 1.1, seed).requests() {
            b.serve(u, v);
        }
        let (frag, _) = a.extract_high(cut);
        b.absorb_low(&frag);
        let (frag, _) = b.extract_low(2 * cut);
        a.absorb_high(&frag);
        for net in [&a, &b] {
            let t = net.tree();
            validate(t).map_err(TestCaseError::fail)?;
            let len = net.len() as u32;
            for u in (1..=len).step_by(3) {
                for v in (1..=len).step_by(5) {
                    let r = route(t, u, v).map_err(|_| TestCaseError::fail("routing loop"))?;
                    prop_assert_eq!(*r.hops.last().unwrap(), t.node_of(v));
                    prop_assert!(r.len() >= net.distance(u, v));
                }
            }
        }
    }

    #[test]
    fn centroid_net_membership_is_invariant(
        k in 2usize..=5,
        seed in 0u64..300,
    ) {
        let n = 120;
        let mut net = KPlusOneSplayNet::new(k, n);
        let before: Vec<_> = (1..=n as u32).map(|key| net.membership(key)).collect();
        let trace = gens::uniform(n, 200, seed);
        for &(u, v) in trace.requests() {
            net.serve(u, v);
        }
        let after: Vec<_> = (1..=n as u32).map(|key| net.membership(key)).collect();
        prop_assert_eq!(before, after);
        validate(net.tree()).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn classic_and_kary_stay_in_lockstep(
        seed in 0u64..400,
        n in 4u32..=64,
    ) {
        let mut kst = KSplayNet::balanced(2, n as usize);
        let mut classic = ClassicSplayNet::balanced(n as usize);
        let trace = gens::uniform(n as usize, 80, seed);
        for &(u, v) in trace.requests() {
            let a = kst.serve(u, v);
            let b = classic.serve(u, v);
            prop_assert_eq!(a.routing, b.routing);
            prop_assert_eq!(a.rotations, b.rotations);
        }
        // final shapes identical
        let t = kst.tree();
        for v in 0..n {
            prop_assert_eq!(t.parent(v), classic.parent_of(v));
            prop_assert_eq!(t.children(v)[0], classic.left_of(v));
            prop_assert_eq!(t.children(v)[1], classic.right_of(v));
        }
    }

    #[test]
    fn demand_matrix_total_matches_trace_len(
        n in 2usize..50,
        reqs in arb_requests(49, 100),
    ) {
        let reqs: Vec<_> = reqs.into_iter()
            .filter(|&(u, v)| u != v && (u as usize) <= n && (v as usize) <= n)
            .collect();
        let count = reqs.len() as u64;
        let trace = Trace::new(n, reqs);
        let d = DemandMatrix::from_trace(&trace);
        prop_assert_eq!(d.total(), count);
    }

    #[test]
    fn serve_sequences_preserve_multiset_and_symmetry(
        k in 2usize..=8,
        seed in 0u64..400,
    ) {
        // After ANY serve sequence: the element multiset is conserved and
        // parent/child links are symmetric with a single root.
        let n = 56;
        let mut net = KSplayNet::balanced(k, n);
        let snapshot = net.tree().element_multiset();
        let trace = gens::zipf(n, 180, 1.1, seed);
        for &(u, v) in trace.requests() {
            let c = net.serve(u, v);
            // the paper's experimental cost model: total = routing + rotations
            prop_assert_eq!(c.total_unit(), c.routing + c.rotations);
        }
        let t = net.tree();
        prop_assert_eq!(t.element_multiset(), snapshot);
        let nil = ksan::core::key::NIL;
        for v in t.nodes() {
            for &c in t.children(v) {
                if c != nil {
                    prop_assert_eq!(t.parent(c), v, "child {} of {}", c + 1, v + 1);
                }
            }
            let p = t.parent(v);
            if p == nil {
                prop_assert_eq!(t.root(), v);
            } else {
                prop_assert!(t.children(p).contains(&v), "{} not a child of {}", v + 1, p + 1);
            }
        }
    }

    #[test]
    fn serve_costs_partition_exactly_into_window_metrics(
        k in 2usize..=6,
        seed in 0u64..300,
        window in 1usize..=40,
    ) {
        // run_windowed's per-window metrics must partition the totals
        // exactly — requests, routing, rotations, links, and the unit-cost
        // aggregate all at once.
        let n = 48;
        let mut net = KSplayNet::balanced(k, n);
        let trace = gens::temporal(n, 160, 0.6, seed);
        let (total, windows) = ksan::sim::run_windowed(&mut net, &trace, window);
        prop_assert_eq!(windows.iter().map(|w| w.requests).sum::<u64>(), total.requests);
        prop_assert_eq!(windows.iter().map(|w| w.routing).sum::<u64>(), total.routing);
        prop_assert_eq!(windows.iter().map(|w| w.rotations).sum::<u64>(), total.rotations);
        prop_assert_eq!(
            windows.iter().map(|w| w.links_changed).sum::<u64>(),
            total.links_changed
        );
        prop_assert_eq!(
            windows.iter().map(|w| w.total_unit_cost()).sum::<u64>(),
            total.total_unit_cost()
        );
        prop_assert_eq!(total.total_unit_cost(), total.routing + total.rotations);
    }

    #[test]
    fn sym_diff_matches_reference_set_symmetric_difference(
        raw_a in arb_requests(30, 50),
        raw_b in arb_requests(30, 50),
    ) {
        // `sym_diff` counts differing links between two topologies from
        // their sorted duplicate-free edge lists. Reference: a HashSet
        // symmetric difference. Canonicalizing through a BTreeSet yields
        // exactly the input class sym_diff promises to handle — sorted,
        // duplicate-free, arbitrary (typically unequal) lengths.
        use std::collections::{BTreeSet, HashSet};
        let canon = |raw: Vec<(u32, u32)>| -> Vec<(u32, u32)> {
            raw.into_iter()
                .map(|(u, v)| (u.min(v), u.max(v)))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect()
        };
        let a = canon(raw_a);
        let b = canon(raw_b);
        let sa: HashSet<_> = a.iter().copied().collect();
        let sb: HashSet<_> = b.iter().copied().collect();
        let want = sa.symmetric_difference(&sb).count() as u64;
        prop_assert_eq!(ksan::core::complete::sym_diff(&a, &b), want);
        // sanity on the algebra: empty vs X is |X|, X vs X is 0
        prop_assert_eq!(ksan::core::complete::sym_diff(&a, &a), 0);
        prop_assert_eq!(ksan::core::complete::sym_diff(&[], &b), b.len() as u64);
    }

    #[test]
    fn ewma_fixed_point_tracks_f64_reference(
        half_life in 0u32..=32,
        epochs in proptest::collection::vec(
            proptest::collection::vec((1u32..=30, 1u32..=30, 1u64..200), 0..12),
            1..8,
        ),
    ) {
        // The decaying ledger's fixed-point EWMA vs an f64 reference
        // running the *same* recurrence S ← S·λ + raw with the ledger's
        // exact fixed-point λ. The only divergence allowed is the floor
        // rounding of the decay multiply: ≤ 1 fp unit per merge, which a
        // geometric series bounds at 1/(1−λ) ≈ 1.443·half_life fp units
        // in steady state.
        let n = 30usize;
        let mut d = DecayingDemand::new(n, half_life);
        let lambda = d.lambda();
        prop_assert!((0.0..1.0).contains(&lambda));
        if half_life > 0 {
            // λ_fp rounds 2^(−1/H) to 2^−16.
            let ideal = 0.5f64.powf(1.0 / half_life as f64);
            prop_assert!((lambda - ideal).abs() <= 1.0 / 65536.0);
        }
        let tol = (1.5 * half_life.max(1) as f64 + 2.0) / 65536.0;
        let mut reference: std::collections::HashMap<(u32, u32), f64> =
            std::collections::HashMap::new();
        let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        for epoch in &epochs {
            let mut raw: std::collections::HashMap<(u32, u32), u64> =
                std::collections::HashMap::new();
            for &(u, v, w) in epoch {
                if u == v {
                    continue;
                }
                d.record_many(u, v, w);
                *raw.entry((u, v)).or_insert(0) += w;
                seen.insert((u, v));
            }
            d.decay_merge();
            for r in reference.values_mut() {
                *r *= lambda;
            }
            for (&p, &w) in &raw {
                *reference.entry(p).or_insert(0.0) += w as f64;
            }
            // Bounded rounding error on every pair ever recorded.
            let mut total_fp_check = 0u64;
            for &(u, v) in &seen {
                let fp = d.get_fp(u, v) as f64 / 65536.0;
                let want = reference.get(&(u, v)).copied().unwrap_or(0.0);
                prop_assert!(
                    (fp - want).abs() <= tol,
                    "pair ({u},{v}): fp {fp} vs reference {want} (tol {tol}, H={half_life})"
                );
                total_fp_check += d.get_fp(u, v);
            }
            // total()/distinct_pairs() stay consistent with the entries.
            prop_assert_eq!(d.total_fp(), total_fp_check);
            let live = seen.iter().filter(|&&(u, v)| d.get_fp(u, v) > 0).count();
            prop_assert_eq!(d.distinct_pairs(), live);
        }
        // Monotone forgetting: an empty-epoch merge never increases any
        // entry, and with no memory (H = 0) it wipes the ledger.
        let before: Vec<u64> = seen.iter().map(|&(u, v)| d.get_fp(u, v)).collect();
        d.decay_merge();
        for (&(u, v), &b) in seen.iter().zip(&before) {
            prop_assert!(d.get_fp(u, v) <= b, "pair ({u},{v}) grew under decay");
            if half_life == 0 {
                prop_assert_eq!(d.get_fp(u, v), 0);
            }
        }
        // clear() forgets everything at once.
        d.clear();
        prop_assert_eq!(d.total_fp(), 0);
        prop_assert_eq!(d.distinct_pairs(), 0);
        prop_assert!(d.is_empty());
    }

    #[test]
    fn unrefreshed_entries_reach_zero_in_bounded_merges(
        half_life in 1u32..=16,
        w in 1u64..1000,
    ) {
        // Floor rounding makes every un-refreshed entry strictly decrease,
        // so memory is bounded: a count of w dies within ~H·log2(w) + H
        // merges (geometric decay), never lingering forever.
        let mut d = DecayingDemand::new(10, half_life);
        d.record_many(1, 2, w);
        d.decay_merge();
        let budget = (half_life as u64) * (68 + 4 * w.ilog2() as u64);
        let mut merges = 0u64;
        while d.distinct_pairs() > 0 {
            d.decay_merge();
            merges += 1;
            prop_assert!(merges <= budget, "entry for w={w} alive after {merges} merges");
        }
        prop_assert_eq!(d.total_fp(), 0);
    }

    #[test]
    fn pushdown_stays_a_complete_tree_under_any_requests(
        k in 2usize..=8,
        n in 2usize..=90,
        reqs in arb_requests(90, 80),
    ) {
        // The heap-shape invariant: after every request the occupancy is a
        // permutation of all n nodes over the fixed complete position tree
        // (node multiset preserved), the edge count is exactly n−1, and no
        // node sits deeper than the complete tree's last level.
        let reqs: Vec<_> = reqs.into_iter()
            .filter(|&(u, v)| u != v && (u as usize) <= n && (v as usize) <= n)
            .collect();
        let mut net = PushDownNet::new(k, n);
        let max_depth = {
            let mut d = 0u32;
            let mut p = (n - 1) as u32;
            while p != 0 {
                p = (p - 1) / k as u32;
                d += 1;
            }
            d
        };
        for (u, v) in reqs {
            net.serve(u, v);
            net.validate().map_err(TestCaseError::fail)?;
            let edges = net.edge_keys();
            prop_assert_eq!(edges.len(), n - 1);
            for key in 1..=n as u32 {
                let pos = net.position_of(key);
                prop_assert!((pos as usize) < n, "key {} at phantom position", key);
                let mut d = 0u32;
                let mut p = pos;
                while p != 0 {
                    p = (p - 1) / k as u32;
                    d += 1;
                }
                prop_assert!(d <= max_depth, "key {} below the last level", key);
            }
        }
    }

    #[test]
    fn rotor_pointers_advance_round_robin_and_fairly(
        k in 2usize..=6,
        seed in 0u64..400,
    ) {
        // Every rotor consultation must advance the pointer by exactly one
        // slot (round-robin), and any position consulted ≥ child_count
        // times must have pushed displaced occupants through EVERY child
        // slot at least once — no subtree becomes a dumping ground.
        let n = 70usize;
        let mut net = RotorWalkNet::new(k, n);
        let trace = gens::temporal(n, (k * n).max(150), 0.5, seed);
        let counts: Vec<u32> = (0..n as u32)
            .map(|p| {
                let first = p as u64 * k as u64 + 1;
                if first >= n as u64 { 0 } else { (n as u64 - first).min(k as u64) as u32 }
            })
            .collect();
        let mut consults = vec![0usize; n];
        let mut used: Vec<std::collections::BTreeSet<u32>> =
            vec![std::collections::BTreeSet::new(); n];
        let mut before = vec![0u32; n];
        for &(u, v) in trace.requests() {
            for (p, slot) in before.iter_mut().enumerate() {
                *slot = net.rotor_slot(p as u32);
            }
            net.serve(u, v);
            for p in 0..n {
                let count = counts[p];
                if count == 0 {
                    continue;
                }
                let after = net.rotor_slot(p as u32);
                let delta = (after + count - before[p]) % count;
                // one serve consults a given position's rotor at most once
                prop_assert!(delta <= 1, "rotor at {} advanced by {}", p, delta);
                if delta == 1 {
                    consults[p] += 1;
                    used[p].insert(before[p]);
                }
            }
        }
        let mut some_position_saturated = false;
        for p in 0..n {
            let count = counts[p] as usize;
            if count >= 2 && consults[p] >= count {
                some_position_saturated = true;
                prop_assert_eq!(
                    used[p].len(),
                    count,
                    "position {} consulted {} times but used only {:?} of {} slots",
                    p,
                    consults[p],
                    used[p].clone(),
                    count
                );
            }
        }
        prop_assert!(some_position_saturated, "trace too short to exercise any rotor");
    }

    #[test]
    fn competitor_links_changed_is_exact_edge_set_symmetric_difference(
        k in 2usize..=6,
        n in 3usize..=70,
        seed in 0u64..300,
        use_rotor in proptest::bool::ANY,
    ) {
        // `links_changed` must equal the symmetric difference of the global
        // before/after undirected key-space edge sets on every request —
        // the locally-diffed accounting can neither overcount (touched but
        // unchanged positions) nor undercount (displacements outside the
        // registered neighborhood).
        let trace = gens::zipf(n, 120, 1.1, seed);
        if use_rotor {
            check_links_exact(&mut RotorWalkNet::new(k, n), n, &trace)?;
        } else {
            check_links_exact(&mut PushDownNet::new(k, n), n, &trace)?;
        }
    }

    #[test]
    fn shard_map_invariants_survive_arbitrary_migration_sequences(
        n in 8usize..=400,
        shards in 2usize..=8,
        shifts in proptest::collection::vec((0usize..64, -20isize..=20), 0..40),
    ) {
        // An arbitrary sequence of planned single-boundary migrations must
        // keep the versioned range table a partition of 1..=n: contiguous,
        // disjoint, covering, every shard non-empty, every gateway inside
        // its range — and the version must increase strictly monotonically,
        // one bump per applied shift.
        let mut map = ShardMap::contiguous(n, shards);
        let shards = map.shards();
        prop_assume!(shards >= 2);
        prop_assert_eq!(map.validate(), Ok(()));
        let mut expected_version = 0u64;
        for (braw, draw) in shifts {
            let b = braw % (shards - 1);
            if draw == 0 {
                continue;
            }
            // Clamp like the planner does: a donor never drops below one key.
            let donor = if draw > 0 { b + 1 } else { b };
            let room = map.range(donor).len().saturating_sub(1);
            let l = (draw.unsigned_abs()).min(room);
            if l == 0 {
                continue;
            }
            let delta = if draw > 0 { l as isize } else { -(l as isize) };
            let before = map.version();
            map.shift_boundary(b, delta);
            expected_version += 1;
            prop_assert_eq!(map.version(), expected_version);
            prop_assert!(map.version() > before, "version must strictly increase");
            prop_assert_eq!(map.validate(), Ok(()));
        }
        // Lookup still agrees with a linear scan over the final table.
        for key in 1..=n as u32 {
            let s = map.shard_of(key);
            prop_assert!(map.range(s).contains(key), "key={} shard={}", key, s);
            prop_assert_eq!(map.shard_of(map.gateway(s)), s);
        }
    }

    #[test]
    fn resharding_replay_is_seed_deterministic_across_thread_counts(
        seed in 0u64..200,
        threads in 2usize..=4,
        epoch in 100usize..=500,
    ) {
        // With migrations armed, regenerating the same seeded trace and
        // replaying it through fresh engines must reproduce bit-identical
        // reports — sequentially twice (replay determinism) and at any
        // worker count (the migration plan is a pure function of the trace).
        let n = 64;
        let run = |threads: usize| {
            let trace = gens::boundary_phase_shift(n, 1500, 4, 400, 0.7, seed);
            let mut rc = ReshardConfig::on();
            rc.epoch = epoch;
            rc.budget = 6;
            let cfg = EngineConfig::default()
                .with_shards(4)
                .with_threads(threads)
                .with_batch(32)
                .with_reshard(rc);
            ShardedEngine::ksplay(2, n, cfg).run_trace(&trace)
        };
        let a = run(1);
        let b = run(1);
        prop_assert_eq!(&a, &b, "sequential replay diverged");
        let c = run(threads);
        prop_assert_eq!(&a, &c, "thread count leaked into a resharding run");
    }

    #[test]
    fn distance_lca_stays_exact_under_patch_extract_absorb(
        k_idx in 0usize..3,
        n in 12usize..=90,
        m in 12usize..=90,
        seed in 0u64..500,
    ) {
        // `distance_lca` must match the naive ancestor-list reference on
        // every pair after ANY sequence of the non-rotating mutations:
        // `from_shape`, `patch_subtree`, and the resharding surgery pair
        // `extract_range`/`absorb_fragment`. (Rotations are covered by
        // the next test.)
        let k = [2usize, 3, 5][k_idx];
        let mut a = KstTree::from_shape(k, &ShapeTree::balanced_kary(n, k));
        let mut b = KstTree::from_shape(k, &ShapeTree::balanced_kary(m, k));
        check_distance_lca(&a)?;
        check_distance_lca(&b)?;

        let mut x = seed;
        let mut lcg = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 33
        };

        // Patch a few randomly chosen subtrees of `a` with fresh
        // balanced fragments.
        for _ in 0..4 {
            let v = (lcg() % a.n() as u64) as u32;
            let (lo, hi) = subtree_key_span(&a, v);
            let size = (hi - lo + 1) as usize;
            a.patch_subtree(lo, hi, &ShapeTree::balanced_kary(size, k));
            check_distance_lca(&a)?;
        }

        // Boundary surgery in both directions: a low run of `a` grafted
        // onto `b`'s high end, then a high run of `b` grafted back onto
        // `a`'s low end — the full live-resharding round trip.
        let take = 1 + (lcg() % (a.n() as u64 / 2)) as u32;
        let (frag, _) = a.extract_range(1, take);
        b.absorb_fragment(End::High, &frag);
        check_distance_lca(&a)?;
        check_distance_lca(&b)?;

        let give = 1 + (lcg() % (b.n() as u64 / 2)) as u32;
        let bn = b.n() as u32;
        let (frag, _) = b.extract_range(bn - give + 1, bn);
        a.absorb_fragment(End::Low, &frag);
        check_distance_lca(&a)?;
        check_distance_lca(&b)?;

        validate(&a).map_err(TestCaseError::fail)?;
        validate(&b).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn distance_lca_stays_exact_under_ksplay_serves(
        k_idx in 0usize..3,
        n in 8usize..=80,
        seed in 0u64..300,
    ) {
        // k-splay serves rotate whole subtrees to new depths; afterwards
        // `distance_lca` must still match the naive reference on every
        // pair.
        let k = [2usize, 3, 5][k_idx];
        let mut net = KSplayNet::balanced(k, n);
        check_distance_lca(net.tree())?;
        let trace = gens::zipf(n, 60, 1.1, seed);
        for &(u, v) in trace.requests() {
            net.serve(u, v);
        }
        let t = net.tree();
        check_distance_lca(t)?;
        validate(t).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn lazy_net_distance_lca_stays_exact_across_rebuilds(
        k_idx in 0usize..3,
        seed in 0u64..300,
        incremental in proptest::bool::ANY,
    ) {
        // Lazy nets never rotate — their trees mutate only through
        // `from_shape` rebuilds and `patch_subtree` — and `distance_lca`
        // must match the naive reference on every pair after arbitrarily
        // many request/rebuild cycles.
        let k = [2usize, 3, 5][k_idx];
        let n = 200;
        let trace = gens::zipf(n, 400, 1.2, seed);
        if incremental {
            let mut net = LazyKaryNet::new(
                k,
                n,
                120,
                ksan::core::incremental_weight_balanced_rebuilder(k, 8),
            );
            for &(u, v) in trace.requests() {
                net.serve(u, v);
            }
            prop_assert!(net.rebuilds() >= 1, "α must have fired");
            check_distance_lca(net.tree())?;
        } else {
            let mut net =
                LazyKaryNet::new(k, n, 120, ksan::core::lazy::weight_balanced_rebuilder(k));
            for &(u, v) in trace.requests() {
                net.serve(u, v);
            }
            prop_assert!(net.rebuilds() >= 1, "α must have fired");
            check_distance_lca(net.tree())?;
        }
    }

    #[test]
    fn dist_tree_distance_is_a_tree_metric(
        n in 2usize..40,
        k in 2usize..=6,
        a in 1u32..=39,
        b in 1u32..=39,
        c in 1u32..=39,
    ) {
        prop_assume!((a as usize) <= n && (b as usize) <= n && (c as usize) <= n);
        let t = full_kary(n, k);
        prop_assert_eq!(t.distance(a, b), t.distance(b, a));
        prop_assert_eq!(t.distance(a, a), 0);
        prop_assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c));
    }
}
