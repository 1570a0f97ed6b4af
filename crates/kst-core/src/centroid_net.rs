//! **(k+1)-SplayNet** (Section 4.2, Figures 7–8): the online self-adjusting
//! network built around the centroid heuristic of Section 3.2.
//!
//! Two designated centroid nodes never move:
//! * `c1` is the root; it has `k−1` k-ary-SplayNet children (sizes
//!   `⌊(n−2)/(k+1)⌋ / (k−1)`, remainders spread deterministically) plus
//!   `c2`;
//! * `c2` has `k` k-ary-SplayNet children of size `⌊(n−2)/(k+1)⌋`.
//!
//! Requests inside one subtree are served exactly as in k-ary SplayNet;
//! requests between different subtrees splay each endpoint to its subtree
//! root, after which the route is `u → (c1[, c2]) → v`. Subtree membership
//! is immutable — the `2k−1` subtrees self-adjust internally but never
//! exchange nodes.

use crate::key::{NodeIdx, NodeKey, NIL};
use crate::net::{Network, ServeCost};
use crate::restructure::WindowPolicy;
use crate::shape::ShapeTree;
use crate::splay::SplayStrategy;
use crate::tree::KstTree;

/// Subtree membership of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Membership {
    /// The fixed root centroid.
    C1,
    /// The fixed secondary centroid (child of `c1`).
    C2,
    /// Member of the subtree with this id (`0..2k-1`).
    Subtree(u16),
}

/// The centroid-based online self-adjusting network.
#[derive(Clone)]
pub struct KPlusOneSplayNet {
    tree: KstTree,
    c1: NodeIdx,
    c2: NodeIdx,
    member: Vec<u16>,             // subtree id per node; C1/C2 use sentinels
    subtree_anchor: Vec<NodeIdx>, // fixed parent (c1 or c2) per subtree id
    strategy: SplayStrategy,
    policy: WindowPolicy,
}

const M_C1: u16 = u16::MAX;
const M_C2: u16 = u16::MAX - 1;

impl KPlusOneSplayNet {
    /// Builds the (k+1)-SplayNet on `n >= k + 3` nodes with arity `k >= 2`.
    ///
    /// ```
    /// use kst_core::{KPlusOneSplayNet, Network};
    /// let mut net = KPlusOneSplayNet::new(2, 92); // the paper's 3-SplayNet
    /// assert_eq!(net.subtree_count(), 3);
    /// let cost = net.serve(5, 80); // cross-subtree request
    /// assert!(cost.routing > 0);
    /// assert!(net.distance(5, 80) <= 3); // now routed via c1/c2
    /// ```
    pub fn new(k: usize, n: usize) -> KPlusOneSplayNet {
        assert!(k >= 2);
        assert!(
            n >= k + 3,
            "(k+1)-SplayNet needs at least k+3 nodes (k={k}, n={n})"
        );
        let m = n - 2;
        let b = m / (k + 1); // size of each of c2's k subtrees
        let a_total = m - k * b; // total size of c1's k-1 subtrees
                                 // Spread a_total over k-1 parts as evenly as possible.
        let mut a_sizes = Vec::with_capacity(k - 1);
        let (q, r) = (a_total / (k - 1), a_total % (k - 1));
        for i in 0..k - 1 {
            a_sizes.push(q + usize::from(i < r));
        }
        // Assemble the shape on the key layout [A… | c1 | c2 | B…]: c1 is
        // the root over the A subtrees and c2, c2 holds the B subtrees.
        let c1 = a_total as u32;
        let c2 = c1 + 1;
        let mut shape = ShapeTree {
            parent: vec![NIL; n],
            root: c1,
        };
        shape.parent[c2 as usize] = c1;
        let mut next = 0;
        for &s in a_sizes.iter().filter(|&&s| s > 0) {
            shape.fill_balanced(next, s, k, c1);
            next += s as u32;
        }
        next = c2 + 1;
        for _ in 0..k {
            if b > 0 {
                shape.fill_balanced(next, b, k, c2);
                next += b as u32;
            }
        }

        let mut tree = KstTree::from_shape(k, &shape);
        // Serve-path operations must not allocate, from the first request on.
        tree.reserve_scratch(SplayStrategy::KSplay.span());
        // Membership by contiguous in-order key ranges.
        let mut member = vec![0u16; n];
        let mut next_key = 1usize;
        let mut sid = 0u16;
        let mut subtree_anchor = Vec::new();
        let nonempty_a = a_sizes.iter().filter(|&&s| s > 0).count();
        for &s in a_sizes.iter().filter(|&&s| s > 0) {
            for _ in 0..s {
                member[next_key - 1] = sid;
                next_key += 1;
            }
            sid += 1;
        }
        let c1_key = next_key as NodeKey;
        member[next_key - 1] = M_C1;
        next_key += 1;
        let c2_key = next_key as NodeKey;
        member[next_key - 1] = M_C2;
        next_key += 1;
        let mut nonempty_b = 0usize;
        for _ in 0..k {
            if b > 0 {
                for _ in 0..b {
                    member[next_key - 1] = sid;
                    next_key += 1;
                }
                sid += 1;
                nonempty_b += 1;
            }
        }
        debug_assert_eq!(next_key - 1, n);
        let c1 = tree.node_of(c1_key);
        let c2 = tree.node_of(c2_key);
        for i in 0..nonempty_a + nonempty_b {
            subtree_anchor.push(if i < nonempty_a { c1 } else { c2 });
        }
        KPlusOneSplayNet {
            tree,
            c1,
            c2,
            member,
            subtree_anchor,
            strategy: SplayStrategy::KSplay,
            policy: WindowPolicy::Paper,
        }
    }

    /// Overrides the splay strategy (ablation) and re-sizes the scratch
    /// arenas for its path span.
    pub fn with_strategy(mut self, strategy: SplayStrategy) -> KPlusOneSplayNet {
        self.strategy = strategy;
        self.tree.reserve_scratch(strategy.span());
        self
    }

    /// Key of the root centroid `c1`.
    pub fn c1_key(&self) -> NodeKey {
        self.tree.key_of(self.c1)
    }

    /// Key of the secondary centroid `c2`.
    pub fn c2_key(&self) -> NodeKey {
        self.tree.key_of(self.c2)
    }

    /// Slot of a 1-based node key in the membership table.
    #[inline]
    fn member_slot(key: NodeKey) -> usize {
        (key - 1) as usize
    }

    /// Membership of a node key.
    pub fn membership(&self, key: NodeKey) -> Membership {
        match self.member[Self::member_slot(key)] {
            M_C1 => Membership::C1,
            M_C2 => Membership::C2,
            s => Membership::Subtree(s),
        }
    }

    /// Number of (non-empty) self-adjusting subtrees (≤ 2k − 1).
    pub fn subtree_count(&self) -> usize {
        self.subtree_anchor.len()
    }

    /// Read access to the underlying tree.
    pub fn tree(&self) -> &KstTree {
        &self.tree
    }

    fn splay_to_subtree_root(&mut self, v: NodeIdx, sid: u16) -> ServeCost {
        let anchor = self.subtree_anchor[sid as usize];
        if self.tree.parent(v) == anchor {
            return ServeCost::default();
        }
        // The anchor is an ancestor by construction, and the serve's
        // `distance_lca` climb passed every row of this path.
        self.tree.splay_to(v, anchor, self.strategy, self.policy)
    }
}

impl Network for KPlusOneSplayNet {
    fn len(&self) -> usize {
        self.tree.n()
    }

    fn distance(&self, u: NodeKey, v: NodeKey) -> u64 {
        self.tree.distance_keys(u, v)
    }

    fn serve(&mut self, u: NodeKey, v: NodeKey) -> ServeCost {
        if u == v {
            return ServeCost::default();
        }
        let nu = self.tree.node_of(u);
        let nv = self.tree.node_of(v);
        // Routing charge and LCA from a single pointer chase; the LCA is
        // only consumed on the same-subtree path below.
        let (routing, w) = self.tree.distance_lca(nu, nv);
        let mu = self.member[Self::member_slot(u)];
        let mv = self.member[Self::member_slot(v)];
        let mut cost = ServeCost {
            routing,
            ..ServeCost::default()
        };
        if mu == mv && mu != M_C1 && mu != M_C2 {
            // Same subtree: exactly the k-ary SplayNet discipline, confined
            // to the subtree (the boundary chain never includes c1/c2
            // strictly below, so the centroids cannot move).
            cost += self
                .tree
                .splay_pair_at(nu, nv, w, self.strategy, self.policy);
        } else {
            // Different subtrees (or an endpoint is a centroid): splay each
            // non-centroid endpoint to its subtree root; the route then goes
            // u → c1 [→ c2] → v.
            if mu != M_C1 && mu != M_C2 {
                cost += self.splay_to_subtree_root(nu, mu);
            }
            if mv != M_C1 && mv != M_C2 {
                cost += self.splay_to_subtree_root(nv, mv);
            }
        }
        debug_assert_eq!(self.tree.parent(self.c2), self.c1);
        debug_assert_eq!(self.tree.parent(self.c1), NIL);
        cost
    }

    fn label(&self) -> String {
        format!("{}-SplayNet (centroid)", self.tree.k() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::validate;

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn structure_matches_figure_8() {
        for k in 2..=6usize {
            let n = 200;
            let net = KPlusOneSplayNet::new(k, n);
            validate(net.tree()).unwrap();
            assert_eq!(net.subtree_count(), 2 * k - 1);
            // c1 is the root; c2 is its child.
            let t = net.tree();
            assert_eq!(t.root(), t.node_of(net.c1_key()));
            assert_eq!(t.parent(t.node_of(net.c2_key())), t.node_of(net.c1_key()));
            // every other node reaches its designated centroid going up
            for key in 1..=n as NodeKey {
                if let Membership::Subtree(_) = net.membership(key) {
                    let mut v = t.node_of(key);
                    while t.parent(v) != NIL {
                        v = t.parent(v);
                    }
                    assert_eq!(v, t.node_of(net.c1_key()));
                }
            }
        }
    }

    #[test]
    fn subtree_sizes_follow_the_paper() {
        let k = 2;
        let n = 302; // m = 300, b = 100
        let net = KPlusOneSplayNet::new(k, n);
        let mut counts = vec![0usize; net.subtree_count()];
        for key in 1..=n as NodeKey {
            if let Membership::Subtree(s) = net.membership(key) {
                counts[s as usize] += 1;
            }
        }
        assert_eq!(counts, vec![100, 100, 100]);
    }

    #[test]
    fn centroids_never_move_and_membership_is_static() {
        let mut net = KPlusOneSplayNet::new(3, 150);
        let before: Vec<_> = (1..=150u32).map(|key| net.membership(key)).collect();
        let c1 = net.c1_key();
        let c2 = net.c2_key();
        let mut x = 17u64;
        for _ in 0..500 {
            let u = (xorshift(&mut x) % 150 + 1) as NodeKey;
            let v = (xorshift(&mut x) % 150 + 1) as NodeKey;
            if u == v {
                continue;
            }
            net.serve(u, v);
        }
        validate(net.tree()).unwrap();
        let t = net.tree();
        assert_eq!(t.root(), t.node_of(c1));
        assert_eq!(t.parent(t.node_of(c2)), t.node_of(c1));
        // membership map unchanged, and each subtree still hangs under its
        // original anchor
        let after: Vec<_> = (1..=150u32).map(|key| net.membership(key)).collect();
        assert_eq!(before, after);
        for key in 1..=150u32 {
            if let Membership::Subtree(sid) = net.membership(key) {
                let anchor = net.subtree_anchor[sid as usize];
                let mut v = t.node_of(key);
                while t.parent(v) != anchor {
                    v = t.parent(v);
                    assert!(v != NIL, "node escaped its subtree");
                    assert!(
                        v != t.node_of(c1) && v != t.node_of(c2),
                        "walk crossed a centroid before reaching the anchor"
                    );
                }
            }
        }
    }

    #[test]
    fn cross_subtree_request_brings_endpoints_near_centroids() {
        let mut net = KPlusOneSplayNet::new(2, 92); // 3 subtrees of 30
                                                    // keys 1..30 subtree 0; c1=31, c2=32; 33..62 subtree 1; 63..92 subtree 2
        let (u, v) = (5u32, 80u32);
        net.serve(u, v);
        // u is now a subtree root (child of c1 or c2), same for v
        let t = net.tree();
        let pu = t.parent(t.node_of(u));
        let pv = t.parent(t.node_of(v));
        assert!(pu == t.node_of(net.c1_key()) || pu == t.node_of(net.c2_key()));
        assert!(pv == t.node_of(net.c1_key()) || pv == t.node_of(net.c2_key()));
        assert!(net.distance(u, v) <= 3, "route u→c1→c2→v has length ≤ 3");
    }

    #[test]
    fn same_subtree_requests_end_adjacent() {
        let mut net = KPlusOneSplayNet::new(2, 92);
        let c = net.serve(3, 17); // both in subtree 0
        assert!(c.routing > 0);
        assert_eq!(net.distance(3, 17), 1);
    }

    #[test]
    fn centroid_endpoint_requests_work() {
        let mut net = KPlusOneSplayNet::new(2, 92);
        let c1 = net.c1_key();
        let c2 = net.c2_key();
        net.serve(c1, 70);
        assert!(net.distance(c1, 70) <= 2);
        net.serve(c2, 5);
        assert!(net.distance(c2, 5) <= 2);
        validate(net.tree()).unwrap();
    }
}
