//! Splaying discipline: move a node up to a boundary using k-splay double
//! steps with a final k-semi-splay, exactly mirroring the classic splay-tree
//! discipline (zig-zig/zig-zag doubles with a final zig) whose potential
//! argument Theorem 12 transfers to the k-ary rotations
//! ([`KstTree::splay_until`]); and, built from the same splay, the SplayNet
//! discipline that makes a request's two endpoints adjacent
//! ([`KstTree::splay_pair`]). Both return the summed restructure cost as a
//! [`ServeCost`] with `routing` = 0.
//!
//! Prefetching follows the one walk each caller already makes: the public
//! `splay_until` climbs from `z` to `boundary` to check the boundary is an
//! ancestor, hinting every row it passes on a large tree, while
//! the networks' serves call the crate-private `splay_pair_at`, which walks
//! nothing, because the `distance_lca` climb that found its LCA hinted
//! both splay paths (the public `splay_pair` repeats that climb to check
//! its LCA).

use crate::key::{idx_to_key, NodeIdx, NIL};
use crate::net::ServeCost;
use crate::restructure::WindowPolicy;
use crate::tree::KstTree;

/// How a node is moved toward its target position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplayStrategy {
    /// k-splay double steps + final k-semi-splay (the paper's k-ary
    /// SplayNet; amortized-optimal per Theorem 12). Equivalent to
    /// `Deep(3)`.
    #[default]
    KSplay,
    /// Only single-level k-semi-splays (naive move-to-root; ablation
    /// baseline without the amortized guarantee). Equivalent to `Deep(2)`.
    SemiOnly,
    /// Generalized rotations over paths of up to `d ≥ 2` nodes per step —
    /// the paper's "take any d connected nodes" alternative (end of
    /// Section 4.1). Each step promotes the target `d − 1` levels.
    Deep(u8),
}

impl SplayStrategy {
    /// Nodes per restructure step (the maximum downward-path length handed
    /// to `restructure`; networks pass it to `KstTree::reserve_scratch` so
    /// the scratch arenas are sized before the first serve).
    pub fn span(self) -> usize {
        match self {
            SplayStrategy::KSplay => 3,
            SplayStrategy::SemiOnly => 2,
            SplayStrategy::Deep(d) => (d as usize).max(2),
        }
    }
}

impl KstTree {
    /// Splays `z` upward until its parent is `boundary` (`NIL` splays to the
    /// root). All restructures happen strictly below `boundary`, which is
    /// never moved. Panics, in every build and before anything moves, if
    /// `boundary` is not an ancestor of `z`.
    ///
    /// The check is one climb from `z` to `boundary`, which on a tree past
    /// the prefetch threshold also hints every row on the way: all of them
    /// are about to be rotated and likely miss cache. Path extraction fills
    /// the tree's scratch path arena from its far end, leaving each step's
    /// path top-first in a suffix, so repeated splay steps — and repeated
    /// serves — allocate nothing.
    pub fn splay_until(
        &mut self,
        z: NodeIdx,
        boundary: NodeIdx,
        strategy: SplayStrategy,
        policy: WindowPolicy,
    ) -> ServeCost {
        let rows = self.prefetch_rows();
        let mut a = self.parent(z);
        while a != boundary {
            assert!(
                a != NIL,
                "splay_until: key {} is not an ancestor of key {}",
                idx_to_key(boundary),
                idx_to_key(z)
            );
            if rows {
                self.prefetch_row(a);
            }
            a = self.parent(a);
        }
        self.splay_to(z, boundary, strategy, policy)
    }

    /// [`KstTree::splay_until`] without the climb: the caller knows
    /// `boundary` is an ancestor of `z` (debug builds still check) and has
    /// hinted the path's rows itself where that pays. Dispatches on the
    /// arity once per splay, not once per step.
    pub(crate) fn splay_to(
        &mut self,
        z: NodeIdx,
        boundary: NodeIdx,
        strategy: SplayStrategy,
        policy: WindowPolicy,
    ) -> ServeCost {
        match self.k() {
            2 => self.splay_to_k::<2>(z, boundary, strategy, policy),
            3 => self.splay_to_k::<3>(z, boundary, strategy, policy),
            4 => self.splay_to_k::<4>(z, boundary, strategy, policy),
            _ => self.splay_to_k::<0>(z, boundary, strategy, policy),
        }
    }

    /// [`KstTree::splay_to`] for arity `K` (`0`: the runtime arity).
    fn splay_to_k<const K: usize>(
        &mut self,
        z: NodeIdx,
        boundary: NodeIdx,
        strategy: SplayStrategy,
        policy: WindowPolicy,
    ) -> ServeCost {
        let span = strategy.span();
        let (mut rotations, mut links_changed) = (0u64, 0u64);
        if self.scratch_path.len() < span {
            // Cold: a tree whose scratch was never reserved for this span.
            self.reserve_scratch(span);
        }
        let mut path = std::mem::take(&mut self.scratch_path);
        loop {
            let p = self.parent(z);
            if p == boundary {
                break;
            }
            debug_assert!(p != NIL, "boundary was not an ancestor of z");
            // Collect up to `span` nodes of the path above z (top first).
            let mut start = span - 1;
            path[start] = z;
            let mut top = z;
            while start > 0 {
                let q = self.parent(top);
                if q == boundary {
                    break;
                }
                debug_assert!(q != NIL, "boundary was not an ancestor of z");
                top = q;
                start -= 1;
                path[start] = q;
            }
            rotations += (span - 1 - start) as u64;
            links_changed += self.restructure_k::<K>(&path[start..span], policy);
        }
        self.scratch_path = path;
        ServeCost {
            rotations,
            links_changed,
            ..ServeCost::default()
        }
    }

    /// The SplayNet discipline for request `(nu, nv)` with `w` their LCA:
    /// if one endpoint is the LCA, splays the other up to be its child;
    /// otherwise splays `nu` into `w`'s position (strictly below
    /// `parent(w)`) and then `nv` up to be a child of `nu`. The endpoints
    /// are adjacent afterwards, and nothing at or above `parent(w)` moves.
    ///
    /// Panics, in every build and before anything moves, if `nu == nv` or
    /// `w` is not the LCA of `nu` and `nv`. The check is one
    /// [`KstTree::distance_lca`] climb; the networks' serves, which have
    /// just made that climb, skip it.
    pub fn splay_pair(
        &mut self,
        nu: NodeIdx,
        nv: NodeIdx,
        w: NodeIdx,
        strategy: SplayStrategy,
        policy: WindowPolicy,
    ) -> ServeCost {
        let (ku, kv) = (idx_to_key(nu), idx_to_key(nv));
        assert!(nu != nv, "splay_pair: both endpoints are key {ku}");
        let lca = self.lca(nu, nv);
        assert!(
            w == lca,
            "splay_pair: key {} is not the LCA of keys {ku} and {kv} (key {} is)",
            idx_to_key(w),
            idx_to_key(lca)
        );
        self.splay_pair_at(nu, nv, w, strategy, policy)
    }

    /// [`KstTree::splay_pair`] without the check: `w` is the LCA, as the
    /// caller's [`KstTree::distance_lca`] returned it, and that climb has
    /// already hinted the rows of both splay paths, so nothing walks them
    /// again.
    pub(crate) fn splay_pair_at(
        &mut self,
        nu: NodeIdx,
        nv: NodeIdx,
        w: NodeIdx,
        strategy: SplayStrategy,
        policy: WindowPolicy,
    ) -> ServeCost {
        let stats = if w == nu {
            self.splay_to(nv, nu, strategy, policy)
        } else if w == nv {
            self.splay_to(nu, nv, strategy, policy)
        } else {
            let mut stats = self.splay_to(nu, self.parent(w), strategy, policy);
            // nv stayed inside the subtree now rooted at nu.
            stats += self.splay_to(nv, nu, strategy, policy);
            stats
        };
        debug_assert_eq!(self.distance(nu, nv), 1);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::validate;

    #[test]
    fn splay_to_root_makes_root() {
        for k in [2usize, 3, 7] {
            let mut t = KstTree::balanced(k, 150);
            for key in [1u32, 75, 150, 33] {
                let v = t.node_of(key);
                let stats = t.splay_until(v, NIL, SplayStrategy::KSplay, WindowPolicy::Paper);
                assert_eq!(t.root(), v);
                assert!(t.depth(v) == 0);
                if k > 0 {
                    let _ = stats;
                }
                validate(&t).unwrap_or_else(|e| panic!("k={k} key={key}: {e}"));
            }
        }
    }

    #[test]
    fn splay_until_boundary_stops_below_it() {
        let mut t = KstTree::balanced(3, 200);
        let deepest = t.nodes().max_by_key(|&v| t.depth(v)).unwrap();
        // choose boundary = grandparent of the midpoint of the path
        let mut b = deepest;
        for _ in 0..2 {
            b = t.parent(b);
        }
        let b = t.parent(b);
        let b_parent = t.parent(b);
        let b_depth = t.depth(b);
        t.splay_until(deepest, b, SplayStrategy::KSplay, WindowPolicy::Paper);
        validate(&t).unwrap();
        assert_eq!(t.parent(deepest), b);
        assert_eq!(t.parent(b), b_parent, "boundary must not move");
        assert_eq!(t.depth(b), b_depth);
    }

    #[test]
    fn semi_only_strategy_also_reaches_target() {
        let mut t = KstTree::balanced(2, 127);
        let deepest = t.nodes().max_by_key(|&v| t.depth(v)).unwrap();
        let stats = t.splay_until(deepest, NIL, SplayStrategy::SemiOnly, WindowPolicy::Paper);
        assert_eq!(t.root(), deepest);
        // One semi-splay per level.
        assert!(stats.rotations >= 6);
        validate(&t).unwrap();
    }

    #[test]
    fn deep_strategies_reach_target_and_keep_invariants() {
        for d in [2u8, 3, 4, 5, 6] {
            let mut t = KstTree::balanced(2, 255);
            let deepest = t.nodes().max_by_key(|&v| t.depth(v)).unwrap();
            let stats = t.splay_until(deepest, NIL, SplayStrategy::Deep(d), WindowPolicy::Paper);
            assert_eq!(t.root(), deepest, "d={d}");
            assert!(stats.rotations > 0);
            validate(&t).unwrap_or_else(|e| panic!("d={d}: {e}"));
        }
    }

    #[test]
    fn deep3_equals_ksplay() {
        // Deep(3) must be exactly the KSplay strategy.
        let mut a = KstTree::balanced(3, 200);
        let mut b = KstTree::balanced(3, 200);
        let mut x = 13u64;
        for _ in 0..100 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = (x % 200) as NodeIdx;
            let sa = a.splay_until(v, NIL, SplayStrategy::KSplay, WindowPolicy::Paper);
            let sb = b.splay_until(v, NIL, SplayStrategy::Deep(3), WindowPolicy::Paper);
            assert_eq!(sa, sb);
        }
        for v in a.nodes() {
            assert_eq!(a.parent(v), b.parent(v));
            assert_eq!(a.children(v), b.children(v));
        }
    }

    #[test]
    fn repeated_splays_shrink_access_path() {
        // Splaying the same key twice in a row: second access is depth 0.
        let mut t = KstTree::balanced(4, 300);
        let v = t.node_of(123);
        t.splay_until(v, NIL, SplayStrategy::KSplay, WindowPolicy::Paper);
        assert_eq!(t.depth(v), 0);
        let w = t.node_of(7);
        t.splay_until(w, NIL, SplayStrategy::KSplay, WindowPolicy::Paper);
        // previously-splayed node stays shallow (a hallmark of splaying)
        assert!(t.depth(v) <= 2);
        validate(&t).unwrap();
    }

    #[test]
    #[should_panic(expected = "key 40 is not an ancestor of key 1")]
    fn splay_until_rejects_a_boundary_off_the_path() {
        // Keys 1 and 40 sit on opposite spines of the balanced k = 3 tree;
        // without the check a release build indexed the parent arena at
        // `NIL` instead.
        let mut t = KstTree::balanced(3, 40);
        let (z, b) = (t.node_of(1), t.node_of(40));
        assert_ne!(t.lca(z, b), b, "key 40 must not be an ancestor of key 1");
        t.splay_until(z, b, SplayStrategy::KSplay, WindowPolicy::Paper);
    }

    #[test]
    #[should_panic(expected = "key 1 is not the LCA of keys 1 and 40")]
    fn splay_pair_rejects_a_w_that_is_not_the_lca() {
        // Keys 1 and 40 sit on opposite spines of the balanced k = 3 tree,
        // so their LCA is the root; without the check a release build
        // indexed the parent arena at `NIL` instead.
        let mut t = KstTree::balanced(3, 40);
        let (nu, nv) = (t.node_of(1), t.node_of(40));
        t.splay_pair(nu, nv, nu, SplayStrategy::KSplay, WindowPolicy::Paper);
    }

    #[test]
    fn splay_pair_with_the_lca_makes_the_endpoints_adjacent() {
        let mut t = KstTree::balanced(3, 40);
        let (nu, nv) = (t.node_of(1), t.node_of(40));
        let w = t.lca(nu, nv);
        t.splay_pair(nu, nv, w, SplayStrategy::KSplay, WindowPolicy::Paper);
        assert_eq!(t.distance(nu, nv), 1);
        validate(&t).unwrap();
    }
}
