//! Fixed complete k-ary **position** tree: the shared scaffolding of the
//! competing self-adjusting topologies ([`crate::pushdown::PushDownNet`]
//! and [`crate::rotor::RotorWalkNet`]).
//!
//! Both competitor families (Push-Down Trees, Avin–Mondal–Schmid; rotor-walk
//! trees, Avin et al. — see PAPERS.md) keep the *link structure* of a
//! complete k-ary tree immutable in position space and self-adjust by
//! permuting **which node occupies which position**. That is the opposite
//! design point from the k-ary SplayNet's rotation machinery: the tree shape
//! can never degenerate (the heap-shape invariant holds by construction),
//! every adjustment is a bounded-local occupant exchange, and link churn per
//! request is O(k) worst case instead of O(depth · k).
//!
//! Positions are heap-ordered: position `0` is the root and position `p`
//! has parent `(p − 1) / k` and children `k·p + 1 ..= k·p + k` (those `< n`).
//! Levels `0 .. max_depth − 1` are always full; only the last level may be
//! partial — the classic array-embedded complete tree.
//!
//! ## Exact link-churn accounting
//!
//! `links_changed` must be **exactly** the symmetric difference of the
//! before/after edge sets *in node-label space* (a position edge whose two
//! occupants are unchanged is the same physical link). Recomputing global
//! edge sets per request would be O(n); instead callers register the
//! (superset of) positions whose occupant may change via [`touch`], and the
//! scaffolding diffs only the edges incident to those positions — touching
//! an unchanged position is harmless because its edges cancel in the
//! symmetric difference. All diff buffers are pre-reserved at construction,
//! so the serve paths stay allocation-free (`tests/zero_alloc.rs` and the
//! `kst-analyze` no-alloc pass both cover them).
//!
//! [`touch`]: CompleteTopology::touch

use crate::key::{NodeIdx, NIL};

/// Items (node indices) arranged on the fixed complete k-ary position tree,
/// plus the pre-reserved scratch for exact link-churn accounting.
#[derive(Debug, Clone)]
pub struct CompleteTopology {
    k: usize,
    n: usize,
    /// Occupant of each position (`item[p]` = 0-based node index).
    item: Vec<NodeIdx>,
    /// Position of each node index (inverse of `item`).
    pos: Vec<u32>,
    /// Depth of each position (positions never move, so this is static).
    depth: Vec<u32>,
    /// Positions whose occupant may change in the current adjustment.
    touched: Vec<u32>,
    /// Deduplicated position edges incident to the touched set.
    pairs: Vec<(u32, u32)>,
    /// Label edges of `pairs` before the adjustment, sorted.
    before: Vec<(NodeIdx, NodeIdx)>,
    /// Label edges of `pairs` after the adjustment, sorted.
    after: Vec<(NodeIdx, NodeIdx)>,
}

impl CompleteTopology {
    /// Builds the identity layout: node index `i` starts at position `i`
    /// (key 1 at the root, then keys in level order). All link-accounting
    /// scratch is reserved here so serving never allocates.
    pub fn new(k: usize, n: usize) -> CompleteTopology {
        assert!(k >= 2, "arity must be at least 2 (got {k})");
        assert!(n >= 1, "need at least one node");
        let mut depth = vec![0u32; n];
        for p in 1..n {
            let parent = (p - 1) / k;
            depth[p] = depth[parent] + 1;
        }
        // Worst-case touched set per request: two endpoints, each touching
        // its parent position plus that parent's whole child row (the
        // rotor discipline), plus slack for the endpoints themselves.
        let touched_cap = 2 * (k + 2) + 4;
        let pair_cap = touched_cap * (k + 2);
        CompleteTopology {
            k,
            n,
            item: (0..n as NodeIdx).collect(),
            pos: (0..n as u32).collect(),
            depth,
            touched: Vec::with_capacity(touched_cap),
            pairs: Vec::with_capacity(pair_cap),
            before: Vec::with_capacity(pair_cap),
            after: Vec::with_capacity(pair_cap),
        }
    }

    /// Arity.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of nodes (= number of positions).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Parent of position `p` ([`NIL`] for the root).
    #[inline]
    pub fn parent_pos(&self, p: u32) -> u32 {
        if p == 0 {
            return NIL;
        }
        (p - 1) / self.k as u32
    }

    /// First child position of `p` (may be `>= n`, i.e. nonexistent).
    #[inline]
    pub fn first_child(&self, p: u32) -> u64 {
        p as u64 * self.k as u64 + 1
    }

    /// Number of existing children of position `p`.
    #[inline]
    pub fn child_count(&self, p: u32) -> u32 {
        let first = self.first_child(p);
        let n = self.n as u64;
        if first >= n {
            0
        } else {
            (n - first).min(self.k as u64) as u32
        }
    }

    /// Depth of position `p` (root = 0).
    #[inline]
    pub fn depth_of(&self, p: u32) -> u32 {
        let pi = p as usize;
        self.depth[pi]
    }

    /// Current position of node index `i`.
    #[inline]
    pub fn pos_of(&self, i: NodeIdx) -> u32 {
        let ii = i as usize;
        self.pos[ii]
    }

    /// Occupant (node index) of position `p`.
    #[inline]
    pub fn item_at(&self, p: u32) -> NodeIdx {
        let pi = p as usize;
        self.item[pi]
    }

    /// Tree distance between two node indices under the current occupancy
    /// (pure position arithmetic: climb to equal depth, then together).
    pub fn distance_between(&self, i: NodeIdx, j: NodeIdx) -> u64 {
        if i == j {
            return 0;
        }
        let mut a = self.pos_of(i);
        let mut b = self.pos_of(j);
        let mut da = self.depth_of(a);
        let mut db = self.depth_of(b);
        let mut d = 0u64;
        while da > db {
            a = self.parent_pos(a);
            da -= 1;
            d += 1;
        }
        while db > da {
            b = self.parent_pos(b);
            db -= 1;
            d += 1;
        }
        while a != b {
            a = self.parent_pos(a);
            b = self.parent_pos(b);
            d += 2;
        }
        d
    }

    /// Starts an adjustment: clears the touched-position set.
    #[inline]
    pub fn begin_adjust(&mut self) {
        self.touched.clear();
    }

    /// Registers a position whose occupant may change. Registering a
    /// position that ends up unchanged is safe (its edges cancel in the
    /// symmetric difference); registering too few breaks exactness.
    #[inline]
    pub fn touch(&mut self, p: u32) {
        if p != NIL && !self.touched.contains(&p) {
            self.touched.push(p);
        }
    }

    /// Registers `p`'s parent and every existing child of `p`.
    pub fn touch_neighborhood(&mut self, p: u32) {
        self.touch(p);
        self.touch(self.parent_pos(p));
        let first = self.first_child(p);
        let count = self.child_count(p) as u64;
        for c in first..first + count {
            self.touch(c as u32);
        }
    }

    /// Snapshots the label edges incident to the touched set. Call after
    /// all [`touch`]/[`touch_neighborhood`] registrations and before any
    /// occupant mutation.
    ///
    /// [`touch`]: CompleteTopology::touch
    /// [`touch_neighborhood`]: CompleteTopology::touch_neighborhood
    pub fn snapshot_before(&mut self) {
        self.collect_pairs();
        Self::label_edges(&self.item, &self.pairs, &mut self.before);
    }

    /// Swaps the occupants of two positions.
    pub fn swap_positions(&mut self, p: u32, q: u32) {
        if p == q {
            return;
        }
        let pi = p as usize;
        let qi = q as usize;
        self.item.swap(pi, qi);
        let a = self.item[pi];
        let b = self.item[qi];
        let ai = a as usize;
        let bi = b as usize;
        self.pos[ai] = p;
        self.pos[bi] = q;
    }

    /// Places node index `i` at position `p` (single assignment; the caller
    /// is responsible for keeping the occupancy a permutation overall).
    pub fn place(&mut self, i: NodeIdx, p: u32) {
        let pi = p as usize;
        let ii = i as usize;
        self.item[pi] = i;
        self.pos[ii] = p;
    }

    /// Finishes the adjustment: diffs the touched edges against the
    /// [`snapshot_before`] state and returns the exact number of links
    /// changed (symmetric difference in node-label space).
    ///
    /// [`snapshot_before`]: CompleteTopology::snapshot_before
    pub fn links_changed(&mut self) -> u64 {
        Self::label_edges(&self.item, &self.pairs, &mut self.after);
        sym_diff(&self.before, &self.after)
    }

    /// Collects the deduplicated position edges incident to `touched`.
    fn collect_pairs(&mut self) {
        self.pairs.clear();
        for idx in 0..self.touched.len() {
            let p = self.touched[idx];
            if p != 0 {
                let q = self.parent_pos(p);
                self.pairs.push((q, p));
            }
            let first = self.first_child(p);
            let count = self.child_count(p) as u64;
            for c in first..first + count {
                self.pairs.push((p, c as u32));
            }
        }
        self.pairs.sort_unstable();
        self.pairs.dedup();
    }

    /// Maps position edges to canonical (min, max) label edges, sorted.
    fn label_edges(item: &[NodeIdx], pairs: &[(u32, u32)], out: &mut Vec<(NodeIdx, NodeIdx)>) {
        out.clear();
        for &(p, q) in pairs {
            let pi = p as usize;
            let qi = q as usize;
            let a = item[pi];
            let b = item[qi];
            out.push((a.min(b), a.max(b)));
        }
        out.sort_unstable();
    }

    /// The full undirected edge set in **key** space (1-based), sorted —
    /// test/observability helper, allocates, never on the serve path.
    pub fn edge_keys(&self) -> Vec<(u32, u32)> {
        let mut edges = Vec::with_capacity(self.n.saturating_sub(1));
        for p in 1..self.n as u32 {
            let q = self.parent_pos(p);
            let a = self.item_at(p) + 1;
            let b = self.item_at(q) + 1;
            edges.push((a.min(b), a.max(b)));
        }
        edges.sort_unstable();
        edges
    }

    /// Checks the occupancy is a permutation with a consistent inverse —
    /// the "complete tree over all nodes" invariant (the link structure
    /// itself is complete by construction and cannot drift).
    pub fn validate(&self) -> Result<(), String> {
        if self.item.len() != self.n || self.pos.len() != self.n {
            return Err(format!(
                "arena sizes drifted: item {} pos {} n {}",
                self.item.len(),
                self.pos.len(),
                self.n
            ));
        }
        for p in 0..self.n as u32 {
            let i = self.item_at(p);
            if i as usize >= self.n {
                return Err(format!("position {p} holds out-of-range item {i}"));
            }
            if self.pos_of(i) != p {
                return Err(format!(
                    "occupancy not a permutation: item[{p}] = {i} but pos[{i}] = {}",
                    self.pos_of(i)
                ));
            }
        }
        Ok(())
    }
}

/// Size of the symmetric difference of two **sorted, duplicate-free**
/// edge lists — the number of links that differ between two topologies
/// (the exact adjustment-cost accounting of
/// [`CompleteTopology::links_changed`]).
pub fn sym_diff(a: &[(NodeIdx, NodeIdx)], b: &[(NodeIdx, NodeIdx)]) -> u64 {
    let (mut i, mut j, mut d) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                d += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                d += 1;
                j += 1;
            }
        }
    }
    d + (a.len() - i) as u64 + (b.len() - j) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_layout_and_arithmetic() {
        let t = CompleteTopology::new(3, 13);
        t.validate().unwrap();
        assert_eq!(t.parent_pos(0), NIL);
        assert_eq!(t.parent_pos(1), 0);
        assert_eq!(t.parent_pos(3), 0);
        assert_eq!(t.parent_pos(4), 1);
        assert_eq!(t.child_count(0), 3);
        assert_eq!(t.child_count(4), 0);
        assert_eq!(t.depth_of(0), 0);
        assert_eq!(t.depth_of(3), 1);
        assert_eq!(t.depth_of(12), 2);
        // Last position with a partial child row.
        let t2 = CompleteTopology::new(3, 6);
        assert_eq!(t2.child_count(1), 2);
    }

    #[test]
    fn distance_is_a_tree_metric() {
        let t = CompleteTopology::new(2, 31);
        for i in 0..31u32 {
            assert_eq!(t.distance_between(i, i), 0);
            for j in 0..31u32 {
                assert_eq!(t.distance_between(i, j), t.distance_between(j, i));
            }
        }
        // identity layout: node 0 at root, nodes 15..30 at the leaves
        assert_eq!(t.distance_between(0, 15), 4);
        assert_eq!(t.distance_between(15, 16), 2);
        assert_eq!(t.distance_between(15, 30), 8);
    }

    #[test]
    fn swap_accounting_matches_global_edge_diff() {
        let mut t = CompleteTopology::new(3, 20);
        let before_global = t.edge_keys();
        t.begin_adjust();
        t.touch_neighborhood(4);
        t.touch_neighborhood(1);
        t.snapshot_before();
        t.swap_positions(4, 1);
        let local = t.links_changed();
        let after_global = t.edge_keys();
        let global = {
            let a: std::collections::BTreeSet<_> = before_global.into_iter().collect();
            let b: std::collections::BTreeSet<_> = after_global.into_iter().collect();
            a.symmetric_difference(&b).count() as u64
        };
        assert_eq!(local, global);
        t.validate().unwrap();
    }

    #[test]
    fn touching_unchanged_positions_is_free() {
        let mut t = CompleteTopology::new(2, 15);
        t.begin_adjust();
        t.touch_neighborhood(3);
        t.touch_neighborhood(9);
        t.snapshot_before();
        // no mutation at all
        assert_eq!(t.links_changed(), 0);
    }
}
