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
//! Both nets serve through [`CompleteTopology::serve_with`]: the routing
//! charge, the two guarded promotions and the link accounting live here,
//! and a net supplies only its promotion rule.
//!
//! ## Exact link-churn accounting
//!
//! `links_changed` must be **exactly** the symmetric difference of the
//! before/after edge sets *in node-label space* (a position edge whose two
//! occupants are unchanged is the same physical link). Recomputing global
//! edge sets per request would be O(n). Instead the one occupant writer,
//! [`place`] (which [`swap_positions`] calls twice), journals `(position,
//! old occupant)` the first time each position is written in the current
//! adjustment, and [`links_changed`] diffs only the position edges next to
//! journaled positions: before-labels from the journal, after-labels from
//! the current occupancy. Every other position edge joins two unchanged
//! occupants, so its label edge is the same before and after and would
//! cancel. [`links_changed`] then clears the journal, which starts the next
//! adjustment.
//!
//! A serve writes at most six positions (two promotions of at most three
//! positions each). The journal and the diff buffers are reserved for that
//! at construction, so the serve paths stay allocation-free
//! (`tests/zero_alloc.rs` and the `kst-analyze` no-alloc pass both cover
//! them).
//!
//! [`swap_positions`]: CompleteTopology::swap_positions
//! [`place`]: CompleteTopology::place
//! [`links_changed`]: CompleteTopology::links_changed

use crate::key::{NodeIdx, NodeKey, NIL};
use crate::net::ServeCost;

/// Positions one serve can write: two promotions, three positions each.
const JOURNAL_CAP: usize = 6;

/// Items (node indices) arranged on the fixed complete k-ary position tree,
/// plus the journal and scratch for exact link-churn accounting.
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
    /// `(position, occupant before the adjustment)` for every position
    /// written since the last [`links_changed`], one entry per position.
    ///
    /// [`links_changed`]: CompleteTopology::links_changed
    journal: Vec<(u32, NodeIdx)>,
    /// Deduplicated position edges next to the journaled positions.
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
        // Each journaled position has a parent edge and up to k child edges.
        let pair_cap = JOURNAL_CAP * (k + 1);
        CompleteTopology {
            k,
            n,
            item: (0..n as NodeIdx).collect(),
            pos: (0..n as u32).collect(),
            depth,
            journal: Vec::with_capacity(JOURNAL_CAP),
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

    /// Node index of `key`, checked against `1..=n`.
    fn index(&self, key: NodeKey) -> NodeIdx {
        let n = self.n;
        assert!(
            key >= 1 && (key as usize) <= n,
            "key {key} out of range 1..={n}"
        );
        key - 1
    }

    /// Current position (heap index) of `key`; root is position 0.
    pub fn position_of(&self, key: NodeKey) -> u32 {
        self.pos_of(self.index(key))
    }

    /// Key occupying position `p`.
    pub fn occupant(&self, p: u32) -> NodeKey {
        let n = self.n;
        assert!((p as usize) < n, "position {p} out of range 0..{n}");
        self.item_at(p) + 1
    }

    /// Current position of node index `i`.
    #[inline]
    fn pos_of(&self, i: NodeIdx) -> u32 {
        let ii = i as usize;
        self.pos[ii]
    }

    /// Occupant (node index) of position `p`.
    #[inline]
    pub fn item_at(&self, p: u32) -> NodeIdx {
        let pi = p as usize;
        self.item[pi]
    }

    /// Tree distance between two keys under the current occupancy.
    pub fn distance(&self, u: NodeKey, v: NodeKey) -> u64 {
        self.distance_between(self.index(u), self.index(v))
    }

    /// Tree distance between two node indices under the current occupancy
    /// (pure position arithmetic: climb to equal depth, then together).
    fn distance_between(&self, i: NodeIdx, j: NodeIdx) -> u64 {
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

    /// Serves `(u, v)`: charges the current distance, then promotes `u`
    /// and then `v` one level with `promote(self, p, q)`, where `p` is the
    /// endpoint's position and `q` its parent position. An endpoint at the
    /// root, or whose parent position holds the other endpoint (the
    /// anti-thrash guard), is not promoted. `promote` moves occupants with
    /// [`swap_positions`]/[`place`] and returns the rotations it performed;
    /// the links changed come from the journal of those writes.
    ///
    /// [`swap_positions`]: CompleteTopology::swap_positions
    /// [`place`]: CompleteTopology::place
    pub fn serve_with(
        &mut self,
        u: NodeKey,
        v: NodeKey,
        mut promote: impl FnMut(&mut CompleteTopology, u32, u32) -> u64,
    ) -> ServeCost {
        let ui = self.index(u);
        let vi = self.index(v);
        if ui == vi {
            return ServeCost::default();
        }
        let routing = self.distance_between(ui, vi);
        let mut rotations = 0;
        for (x, other) in [(ui, vi), (vi, ui)] {
            let p = self.pos_of(x);
            if p == 0 {
                continue;
            }
            let q = self.parent_pos(p);
            if self.item_at(q) != other {
                rotations += promote(self, p, q);
            }
        }
        ServeCost {
            routing,
            rotations,
            links_changed: self.links_changed(),
            ..ServeCost::default()
        }
    }

    /// Journals `p`'s occupant if this is the first write to `p` since the
    /// last [`links_changed`](CompleteTopology::links_changed).
    #[inline]
    fn journal_write(&mut self, p: u32) {
        if !self.journal.iter().any(|&(q, _)| q == p) {
            let old = self.item_at(p);
            self.journal.push((p, old));
        }
    }

    /// Swaps the occupants of two positions.
    pub fn swap_positions(&mut self, p: u32, q: u32) {
        let (a, b) = (self.item_at(p), self.item_at(q));
        self.place(a, q);
        self.place(b, p);
    }

    /// Places node index `i` at position `p` (single assignment; the caller
    /// makes the occupancy a permutation again before the next
    /// [`links_changed`](CompleteTopology::links_changed)).
    pub fn place(&mut self, i: NodeIdx, p: u32) {
        self.journal_write(p);
        let pi = p as usize;
        let ii = i as usize;
        self.item[pi] = i;
        self.pos[ii] = p;
    }

    /// Returns the exact number of links changed since the last call
    /// (symmetric difference in node-label space) and clears the journal,
    /// starting the next adjustment. The occupancy must be a permutation
    /// again when it is called.
    pub fn links_changed(&mut self) -> u64 {
        self.pairs.clear();
        for idx in 0..self.journal.len() {
            let p = self.journal[idx].0;
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
        // Label the before-edges with the journaled occupants swapped back
        // in, then the after-edges with the current ones restored.
        self.swap_journal();
        Self::label_edges(&self.item, &self.pairs, &mut self.before);
        self.swap_journal();
        Self::label_edges(&self.item, &self.pairs, &mut self.after);
        self.journal.clear();
        sym_diff(&self.before, &self.after)
    }

    /// Exchanges each journaled occupant with its position's current one.
    fn swap_journal(&mut self) {
        for (p, old) in self.journal.iter_mut() {
            let pi = *p as usize;
            std::mem::swap(&mut self.item[pi], old);
        }
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
    use std::collections::BTreeSet;

    /// Links changed between two global edge sets, the reference every
    /// journal test checks `links_changed` against.
    fn global_diff(before: Vec<(u32, u32)>, after: Vec<(u32, u32)>) -> u64 {
        let a: BTreeSet<_> = before.into_iter().collect();
        let b: BTreeSet<_> = after.into_iter().collect();
        a.symmetric_difference(&b).count() as u64
    }

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
        let before = t.edge_keys();
        t.swap_positions(4, 1);
        let local = t.links_changed();
        assert_eq!(local, global_diff(before, t.edge_keys()));
        assert!(local > 0);
        t.validate().unwrap();
    }

    #[test]
    fn adjustment_without_moves_reports_zero() {
        let mut t = CompleteTopology::new(2, 15);
        let before = t.edge_keys();
        assert_eq!(t.links_changed(), 0);
        assert_eq!(global_diff(before, t.edge_keys()), 0);
    }

    #[test]
    fn swap_undone_in_the_same_adjustment_reports_zero() {
        // Each position keeps its first old occupant, so swapping back
        // restores the before-labels exactly.
        let mut t = CompleteTopology::new(3, 20);
        let before = t.edge_keys();
        t.swap_positions(5, 1);
        t.swap_positions(1, 5);
        assert_eq!(t.links_changed(), 0);
        assert_eq!(global_diff(before, t.edge_keys()), 0);
        t.validate().unwrap();
    }

    #[test]
    fn rotor_three_cycle_of_places_is_counted_exactly() {
        // The rotor move: the endpoint at p = 14 takes its parent q = 4,
        // q's occupant drops into sibling c = 13, and c's occupant fills p.
        let mut t = CompleteTopology::new(3, 40);
        let (p, q, c) = (14u32, 4u32, 13u32);
        assert_eq!(t.parent_pos(p), q);
        assert_eq!(t.parent_pos(c), q);
        let before = t.edge_keys();
        let (x, displaced, evicted) = (t.item_at(p), t.item_at(q), t.item_at(c));
        t.place(x, q);
        t.place(displaced, c);
        t.place(evicted, p);
        t.validate().unwrap();
        let local = t.links_changed();
        assert_eq!(local, global_diff(before, t.edge_keys()));
        assert!(local > 0);
    }

    #[test]
    fn next_adjustment_starts_from_an_empty_journal() {
        let mut t = CompleteTopology::new(2, 31);
        t.swap_positions(9, 4);
        t.links_changed();
        // A stale journal entry for 9 or 4 would report their old
        // occupants as this adjustment's before-labels.
        let before = t.edge_keys();
        t.swap_positions(20, 9);
        let local = t.links_changed();
        assert_eq!(local, global_diff(before, t.edge_keys()));
        assert_eq!(t.links_changed(), 0);
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "position 13 out of range 0..13")]
    fn occupant_past_the_last_position_names_it() {
        CompleteTopology::new(3, 13).occupant(13);
    }

    #[test]
    #[should_panic(expected = "key 14 out of range 1..=13")]
    fn position_of_checks_the_key() {
        CompleteTopology::new(3, 13).position_of(14);
    }
}
