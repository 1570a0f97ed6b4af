//! Oracle-backed differential harness for the k-splay restructure machinery.
//!
//! [`RefKstTree`] is a deliberately naive, allocation-happy reference
//! implementation of the paper's k-ary search tree network: per-node `Vec`s,
//! merges performed by rebuilding whole arrays, window candidates collected
//! into fresh vectors, link accounting done by diffing *global* edge sets
//! before and after every restructure. It transcribes the window rules of
//! Section 4.1 (merge the routing arrays, give each path node `k-1`
//! consecutive elements covering its key's gap, prefer windows that avoid
//! pending path keys, centre on the own gap, tie-break leftmost) directly
//! from the text, independently of the optimized arena implementation in
//! `kst-core`.
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
    key_image, KPlusOneSplayNet, KSplayNet, KstTree, Membership, Network, NodeKey, RoutingKey,
    SplayStrategy, WindowPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const REF_NIL: u32 = u32::MAX;

/// One node of the reference tree: everything heap-allocated per node, the
/// layout the arena implementation exists to avoid.
#[derive(Clone)]
struct RefNode {
    parent: u32,
    /// `k - 1` strictly increasing routing elements.
    elems: Vec<RoutingKey>,
    /// `k` child slots (`REF_NIL` = empty).
    children: Vec<u32>,
}

/// Naive reference k-ary search tree network.
struct RefKstTree {
    k: usize,
    nodes: Vec<RefNode>,
    root: u32,
    /// Diff only the edges incident to the path nodes instead of the
    /// global edge set. A restructure rewrites nothing but the path
    /// nodes' rows, their slot children's parents and the anchor's slot,
    /// so every edge it adds or removes has a path node as an endpoint;
    /// large trees use this to keep each step O(path), not O(n log n).
    local_links: bool,
}

impl RefKstTree {
    /// Copies the initial state of an arena tree (initial construction is
    /// not under test; the rotations are).
    fn snapshot(t: &KstTree) -> RefKstTree {
        let nodes = t
            .nodes()
            .map(|v| RefNode {
                parent: t.parent(v),
                elems: t.elems(v).to_vec(),
                children: t.children(v).to_vec(),
            })
            .collect();
        RefKstTree {
            k: t.k(),
            nodes,
            root: t.root(),
            local_links: false,
        }
    }

    fn ancestors(&self, mut v: u32) -> Vec<u32> {
        let mut a = vec![v];
        while self.nodes[v as usize].parent != REF_NIL {
            v = self.nodes[v as usize].parent;
            a.push(v);
        }
        a
    }

    fn lca(&self, u: u32, v: u32) -> u32 {
        let au = self.ancestors(u);
        let av = self.ancestors(v);
        *au.iter()
            .find(|x| av.contains(x))
            .expect("tree is connected")
    }

    fn distance(&self, u: u32, v: u32) -> u64 {
        if u == v {
            return 0;
        }
        let au = self.ancestors(u);
        let av = self.ancestors(v);
        let w = self.lca(u, v);
        let du = au.iter().position(|&x| x == w).unwrap();
        let dv = av.iter().position(|&x| x == w).unwrap();
        (du + dv) as u64
    }

    /// The global undirected edge set, sorted (naive: recomputed in full for
    /// every link-accounting query).
    fn edge_set(&self) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        for (v, nd) in self.nodes.iter().enumerate() {
            if nd.parent != REF_NIL {
                let v = v as u32;
                edges.push((v.min(nd.parent), v.max(nd.parent)));
            }
        }
        edges.sort_unstable();
        edges
    }

    /// The undirected edges with an endpoint in `path`, sorted and
    /// deduplicated (naive: collected afresh for every query).
    fn edges_around(&self, path: &[u32]) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        for &p in path {
            let nd = &self.nodes[p as usize];
            if nd.parent != REF_NIL {
                edges.push((p.min(nd.parent), p.max(nd.parent)));
            }
            for &c in &nd.children {
                if c != REF_NIL {
                    edges.push((p.min(c), p.max(c)));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// The edge set link accounting diffs: global, or around `path`.
    fn link_edges(&self, path: &[u32]) -> Vec<(u32, u32)> {
        if self.local_links {
            self.edges_around(path)
        } else {
            self.edge_set()
        }
    }

    /// Installs a node's routing array and child slots; re-parents the
    /// children.
    fn set_node(&mut self, node: u32, elems: Vec<RoutingKey>, slots: Vec<u32>) {
        for &c in &slots {
            if c != REF_NIL {
                self.nodes[c as usize].parent = node;
            }
        }
        let nd = &mut self.nodes[node as usize];
        nd.elems = elems;
        nd.children = slots;
    }

    /// The paper's generalized restructure on a downward path, transcribed
    /// naively. Returns (rotations, links changed).
    fn restructure(&mut self, path: &[u32], policy: WindowPolicy) -> (u64, u64) {
        let d = path.len();
        assert!(d >= 2);
        let km1 = self.k - 1;
        let before = self.link_edges(path);

        let top = path[0];
        let anchor = self.nodes[top as usize].parent;
        let anchor_slot = if anchor == REF_NIL {
            usize::MAX
        } else {
            self.nodes[anchor as usize]
                .children
                .iter()
                .position(|&c| c == top)
                .unwrap()
        };

        // Step 1: merge the d routing arrays and d(k-1)+1 hanging subtrees
        // into one virtual super-node, rebuilding the arrays from scratch at
        // every splice.
        let mut elems = self.nodes[top as usize].elems.clone();
        let mut slots = self.nodes[top as usize].children.clone();
        for &child in &path[1..] {
            let pos = slots.iter().position(|&s| s == child).unwrap();
            let ce = self.nodes[child as usize].elems.clone();
            let cs = self.nodes[child as usize].children.clone();
            let mut ne = Vec::new();
            ne.extend_from_slice(&elems[..pos]);
            ne.extend_from_slice(&ce);
            ne.extend_from_slice(&elems[pos..]);
            elems = ne;
            let mut ns = Vec::new();
            ns.extend_from_slice(&slots[..pos]);
            ns.extend_from_slice(&cs);
            ns.extend_from_slice(&slots[pos + 1..]);
            slots = ns;
        }
        assert_eq!(elems.len(), d * km1);
        assert_eq!(slots.len(), d * km1 + 1);

        // Step 2: re-form the nodes in path order; each takes k-1
        // consecutive elements whose span covers its key's gap, consumes the
        // k subtrees between them, and collapses into one subtree.
        for i in 0..d {
            let node = path[i];
            let img = key_image(node + 1, self.k);
            let m = elems.len();
            let gap = elems.iter().filter(|&&e| e < img).count();
            if i + 1 == d {
                // Step 3: the last node takes everything that remains.
                assert_eq!(m, km1);
                self.set_node(node, elems.clone(), slots.clone());
                break;
            }
            let mut candidates: Vec<usize> = (gap.saturating_sub(km1)..=gap.min(m - km1)).collect();
            let a = match policy {
                WindowPolicy::Leftmost => candidates[0],
                WindowPolicy::Rightmost => *candidates.last().unwrap(),
                WindowPolicy::Paper => {
                    // Rule 1: prefer windows whose span avoids the gaps of
                    // the pending path keys (first 8 considered).
                    let pend: Vec<usize> = path[i + 1..]
                        .iter()
                        .take(8)
                        .map(|&p| {
                            let pimg = key_image(p + 1, self.k);
                            elems.iter().filter(|&&e| e < pimg).count()
                        })
                        .collect();
                    let clean = |a: usize| pend.iter().all(|&q| q < a || q > a + km1);
                    if candidates.iter().any(|&a| clean(a)) {
                        candidates.retain(|&a| clean(a));
                    }
                    // Rule 2: centre the window on the own key's gap;
                    // rule 3: tie-break leftmost.
                    let ideal = gap as i64 - (km1 as i64 + 1) / 2;
                    *candidates
                        .iter()
                        .min_by_key(|&&a| ((a as i64 - ideal).abs(), a))
                        .unwrap()
                }
            };
            self.set_node(
                node,
                elems[a..a + km1].to_vec(),
                slots[a..=a + km1].to_vec(),
            );
            let mut ne: Vec<RoutingKey> = elems[..a].to_vec();
            ne.extend_from_slice(&elems[a + km1..]);
            elems = ne;
            let mut ns: Vec<u32> = slots[..a].to_vec();
            ns.push(node);
            ns.extend_from_slice(&slots[a + km1 + 1..]);
            slots = ns;
        }

        // Reattach the fragment where the old top hung.
        let new_top = *path.last().unwrap();
        self.nodes[new_top as usize].parent = anchor;
        if anchor == REF_NIL {
            self.root = new_top;
        } else {
            self.nodes[anchor as usize].children[anchor_slot] = new_top;
        }

        let after = self.link_edges(path);
        let changed = before.iter().filter(|e| !after.contains(e)).count()
            + after.iter().filter(|e| !before.contains(e)).count();
        ((d - 1) as u64, changed as u64)
    }

    fn span(strategy: SplayStrategy) -> usize {
        match strategy {
            SplayStrategy::KSplay => 3,
            SplayStrategy::SemiOnly => 2,
            SplayStrategy::Deep(d) => (d as usize).max(2),
        }
    }

    /// Splays `z` until its parent is `boundary`, re-deriving the access
    /// path from parent pointers on every step.
    fn splay_until(
        &mut self,
        z: u32,
        boundary: u32,
        strategy: SplayStrategy,
        policy: WindowPolicy,
    ) -> (u64, u64) {
        let span = Self::span(strategy);
        let (mut rot, mut links) = (0u64, 0u64);
        loop {
            if self.nodes[z as usize].parent == boundary {
                return (rot, links);
            }
            let mut path = vec![z];
            let mut top = z;
            while path.len() < span {
                let q = self.nodes[top as usize].parent;
                if q == boundary {
                    break;
                }
                top = q;
                path.push(q);
            }
            path.reverse();
            let (r, l) = self.restructure(&path, policy);
            rot += r;
            links += l;
        }
    }

    /// The k-ary SplayNet serve discipline (Section 4.1): charge the current
    /// distance, splay `u` into the LCA's position, then splay `v` until it
    /// is `u`'s child. Returns (routing, rotations, links changed).
    fn serve(
        &mut self,
        u: NodeKey,
        v: NodeKey,
        strategy: SplayStrategy,
        policy: WindowPolicy,
    ) -> (u64, u64, u64) {
        let nu = u - 1;
        let nv = v - 1;
        let routing = self.distance(nu, nv);
        if nu == nv {
            return (0, 0, 0);
        }
        let w = self.lca(nu, nv);
        let (rot, links) = if w == nu {
            self.splay_until(nv, nu, strategy, policy)
        } else if w == nv {
            self.splay_until(nu, nv, strategy, policy)
        } else {
            let boundary = self.nodes[w as usize].parent;
            let (r1, l1) = self.splay_until(nu, boundary, strategy, policy);
            let (r2, l2) = self.splay_until(nv, nu, strategy, policy);
            (r1 + r2, l1 + l2)
        };
        (routing, rot, links)
    }
}

/// Asserts the production tree and the oracle agree on every piece of
/// per-node state: parent, child slots, routing elements.
fn assert_same_state(t: &KstTree, oracle: &RefKstTree, ctx: &str) {
    assert_eq!(t.root(), oracle.root, "{ctx}: roots differ");
    for v in t.nodes() {
        let o = &oracle.nodes[v as usize];
        assert_eq!(t.parent(v), o.parent, "{ctx}: key {} parent differs", v + 1);
        assert_eq!(
            t.children(v),
            &o.children[..],
            "{ctx}: key {} child slots differ",
            v + 1
        );
        assert_eq!(
            t.elems(v),
            &o.elems[..],
            "{ctx}: key {} routing elements differ",
            v + 1
        );
    }
}

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
