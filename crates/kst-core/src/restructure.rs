//! The paper's novel rotations: `k-semi-splay`, `k-splay`, and their d-node
//! generalization (Section 4.1).
//!
//! All three are instances of one procedure, sketched at the end of
//! Section 4.1: given a downward path `x₁ → x₂ → … → x_d`,
//!
//! 1. merge the d routing arrays (and the `d(k-1)+1` hanging subtrees) into
//!    one virtual super-node;
//! 2. re-form the nodes in order `x₁, …, x_d`: each takes `k-1`
//!    *consecutive* elements whose span covers its own key, consumes the
//!    `k` subtrees between them, collapses into a single subtree occupying
//!    its gap, and is removed from the array;
//! 3. the last node `x_d` takes the remaining `k-1` elements and becomes the
//!    root of the fragment, reattached where `x₁` hung.
//!
//! With `d = 2` this is **k-semi-splay** (Fig. 3: promote child over
//! parent, ≙ zig); with `d = 3` it is **k-splay** (Figs. 4–6). The paper's
//! two k-splay cases emerge from window placement: when the keys of `x₁`
//! and `x₂` are distant, their windows avoid each other and both end up as
//! direct children of `x₃` (case 1 ≙ zig-zag); when close, `x₂`'s window
//! spans `x₁`'s collapsed gap, producing the chain `x₃ → x₂ → x₁`
//! (case 2 ≙ zig-zig).
//!
//! The *window policy* decides among valid windows. [`WindowPolicy::Paper`]
//! (1. avoid spanning a pending path key's gap when possible, 2. centre on
//! the own key's gap, 3. leftmost) reproduces classic binary splay-tree
//! rotations move-for-move at `k = 2`, which the differential tests against
//! `splaynet-classic` verify. `Leftmost`/`Rightmost` are ablation variants.

use crate::key::{idx_to_key, key_image, NodeIdx, NIL};
use crate::net::ServeCost;
use crate::tree::KstTree;

/// Policy choosing a window position when several cover the key's gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowPolicy {
    /// Avoid pending path keys, then centre, then leftmost (the paper's
    /// case rules; ≙ classic splay rotations at k = 2).
    #[default]
    Paper,
    /// Always the leftmost valid window.
    Leftmost,
    /// Always the rightmost valid window.
    Rightmost,
}

impl KstTree {
    /// Generalized k-splay on a downward path (`path[i+1]` must be a child
    /// of `path[i]`, `path.len() >= 2`). After the call `path.last()`
    /// occupies the old position of `path\[0\]`.
    ///
    /// Returns the cost with `routing` = 0: `rotations` = `d − 1` for a
    /// d-node path, so a k-semi-splay counts 1 (≙ zig) and a k-splay 2
    /// (≙ zig-zig/zig-zag) — directly comparable with classic splay-tree
    /// rotation counts, which the k = 2 differential test relies on — and
    /// `links_changed` = links added plus removed (Section 2).
    ///
    /// Hot-path implementation notes:
    ///
    /// * **one body, monomorphised per arity and path length** — the
    ///   kernel is generic over `const K` and `const D`: k ∈ {2, 3, 4} ×
    ///   d ∈ {2, 3} (a k-semi-splay and a k-splay step) get their own
    ///   copies, and `0` in either parameter reads the runtime value
    ///   instead, which covers every other arity and the `Deep(d)` paths.
    ///   With both fixed, every loop has a constant trip count and unrolls
    ///   into straight-line code. A splay picks the arity once per splay,
    ///   not once per step;
    /// * **counts and selects, not searches** — the slot a path node
    ///   hangs from and every key-gap position are counts of smaller
    ///   elements, the window rank is computed for every candidate start,
    ///   and compaction is a select over the whole fixed-size array, so
    ///   the only data-dependent branch left skips the window policy when
    ///   a single window fits;
    /// * **single-pass merge of whole nodes** — every path node's row is
    ///   read once and copied at its full fixed size into index-addressed
    ///   scratch that [`KstTree::reserve_scratch`] has already sized to
    ///   the longest path in use (zero heap allocation); copy order and
    ///   alignment make the parts that must not survive get overwritten;
    /// * **link accounting from slot provenance** — every merged slot
    ///   carries the path index of the node it keeps its link with (the
    ///   row it was copied from, or for a collapsed path node the index
    ///   just past it), so a slot installed under node `i` keeps its link
    ///   iff that index is `i`. Parents of hanging subtree roots are only
    ///   written, never read, and an empty slot's write lands on the
    ///   installing node's own parent entry, which a later step of the
    ///   same call overwrites with its true value;
    /// * **the last compaction feeds the root** — the fragment root's row
    ///   is read straight through the final window removal instead of
    ///   from a compacted copy.
    ///
    /// Prefetching is the caller's: once the tree outgrows cache,
    /// `splay_until` hints the rows of the whole splay path before the
    /// first step, and a network serve's `distance_lca` climb hints both
    /// splay paths of `splay_pair`.
    pub fn restructure(&mut self, path: &[NodeIdx], policy: WindowPolicy) -> ServeCost {
        let links_changed = match self.k() {
            2 => self.restructure_k::<2>(path, policy),
            3 => self.restructure_k::<3>(path, policy),
            4 => self.restructure_k::<4>(path, policy),
            _ => self.restructure_k::<0>(path, policy),
        };
        ServeCost {
            rotations: (path.len() - 1) as u64,
            links_changed,
            ..ServeCost::default()
        }
    }

    /// [`KstTree::restructure`] for arity `K` (`0`: the runtime arity),
    /// returning `links_changed`: picks the kernel copy for the path
    /// length. A splay dispatches on the arity once per splay and calls
    /// this for every step.
    #[inline(always)]
    pub(crate) fn restructure_k<const K: usize>(
        &mut self,
        path: &[NodeIdx],
        policy: WindowPolicy,
    ) -> u64 {
        match path.len() {
            3 if K != 0 => self.restructure_kd::<K, 3>(path, policy),
            2 if K != 0 => self.restructure_kd::<K, 2>(path, policy),
            _ => self.restructure_kd::<K, 0>(path, policy),
        }
    }

    /// The restructure kernel for arity `K` and path length `D` (`0`:
    /// the tree's runtime arity, the path's runtime length), returning
    /// `links_changed`. See [`KstTree::restructure`]. Kept out of line:
    /// ten inlined copies would crowd the instruction cache.
    #[inline(never)]
    fn restructure_kd<const K: usize, const D: usize>(
        &mut self,
        path: &[NodeIdx],
        policy: WindowPolicy,
    ) -> u64 {
        let d = if D == 0 { path.len() } else { D };
        assert!(path.len() >= 2, "restructure needs at least two nodes");
        let path = &path[..d];
        // Whether the arity is a compile-time constant.
        let fixed = K != 0;
        let k = if fixed { K } else { self.k() };
        debug_assert_eq!(k, self.k());
        let km1 = k - 1;
        debug_assert!(self.is_downward_path(path), "not a downward path");

        if self.scratch_gaps.len() < d {
            // Only a hand-built path longer than every reserved span gets
            // here; network constructors reserve their strategy's span.
            self.reserve_scratch(d);
        }

        let top = path[0];
        let new_top = path[d - 1];
        let anchor = self.parent(top);
        // Merged element count; the merged slots number one more.
        let me = d * km1;
        let s = 2 * k - 1; // row stride: k − 1 elements, then k slots
        let KstTree {
            parent,
            rows,
            scratch_elems,
            scratch_slots,
            scratch_orig,
            scratch_gaps,
            ..
        } = self;
        let m_elems = &mut scratch_elems[..me];
        let m_slots = &mut scratch_slots[..=me];
        let orig = &mut scratch_orig[..=me];
        let gaps = &mut scratch_gaps[..d];

        // --- 1. merge (single pass) ----------------------------------------
        // The merged array is the nested splice of each node's arrays into
        // its parent's slot gap: the strict prefixes going down, the deepest
        // node whole, the suffixes going back up. Each row is read once and
        // written whole twice, left-aligned at the prefix cursor `m` and
        // right-aligned at the suffix cursor `e`; the cursors keep
        // `(d − w)·(k−1)` elements apart, so every surplus lands where a
        // deeper row's copy or the deepest node (written last) overwrites
        // it. Slot `t` sits just left of element `t`, so one cursor per
        // direction serves both arrays. The slot of node `w` that holds
        // `path[w+1]` is the number of `w`'s elements below `path[w+1]`'s
        // key.
        let (mut m, mut e) = (0usize, me);
        for w in 0..d - 1 {
            let b = path[w] as usize * s;
            let (row, kids) = rows[b..b + s].split_at(km1);
            let img = key_image(idx_to_key(path[w + 1]), k);
            let p = row.iter().map(|&e| usize::from(e < img)).sum::<usize>();
            assert!(kids[p] == path[w + 1], "not a downward path");
            m_elems[m..m + km1].copy_from_slice(row);
            m_slots[m..m + k].copy_from_slice(kids);
            orig[m..m + k].fill(w);
            m_elems[e - km1..e].copy_from_slice(row);
            m_slots[e - km1..=e].copy_from_slice(kids);
            orig[e - km1..=e].fill(w);
            m += p;
            e -= km1 - p;
        }
        debug_assert_eq!(e, m + km1);
        let b = new_top as usize * s;
        m_elems[m..m + km1].copy_from_slice(&rows[b..b + km1]);
        m_slots[m..m + k].copy_from_slice(&rows[b + km1..b + s]);
        orig[m..m + k].fill(d - 1);
        debug_assert!(m_elems.windows(2).all(|w| w[0] < w[1]));

        // Key-gap position of every path node in the merged array, counted
        // once; the window steps below keep them current incrementally.
        for (g, &node) in gaps.iter_mut().zip(path) {
            let img = key_image(idx_to_key(node), k);
            *g = m_elems.iter().map(|&e| usize::from(e < img)).sum();
        }

        // --- 2. re-form nodes, counting links as they are installed --------
        // Node `i` takes the window of `k − 1` live elements starting at
        // `a` and the `k` slots around them. Every installed slot that
        // does not keep its link is one removal plus one addition, as is
        // the anchor link.
        let mut changed = u64::from(anchor != NIL);
        // Live merged length: `m` elements, `m + 1` slots.
        let mut m = me;
        for (i, &node) in path[..d - 1].iter().enumerate() {
            let gap = gaps[i];
            let a_min = gap.saturating_sub(km1);
            let a_max = gap.min(m - km1);
            // The clamp is a no-op that lets the compiler drop the window's
            // bounds checks.
            let a = if a_min == a_max {
                a_min
            } else {
                // A fixed arity ranks all `k` candidate starts for a
                // constant trip count, a runtime one only the valid ones.
                let starts = if fixed { k } else { a_max - a_min + 1 };
                choose_window(policy, a_min, a_max, km1, starts, gaps, i)
            }
            .min(me - km1);
            let b = node as usize * s;
            rows[b..b + km1].copy_from_slice(&m_elems[a..a + km1]);
            rows[b + km1..b + s].copy_from_slice(&m_slots[a..a + k]);
            for (&c, &o) in m_slots[a..a + k].iter().zip(&orig[a..a + k]) {
                changed += u64::from((c != NIL) & (o != i));
                parent[if c == NIL { node } else { c } as usize] = node;
            }
            // Remove the window, leaving node `i` collapsed into slot `a`
            // with the next path node as its link partner: in place while
            // more windows follow, straight into the fragment root's row
            // after the last one. A fixed arity selects over the whole
            // fixed-size array, keeping the trip count constant (entries
            // past the live length are dead); a runtime one shifts only
            // the live entries from `a` on.
            m -= km1;
            let elem_src = |t: usize| t + km1 * usize::from(t >= a);
            let slot_src = |t: usize| t + km1 * usize::from(t > a);
            if i + 2 < d {
                let from = if fixed { 0 } else { a };
                let (e_end, s_end) = if fixed { (me - km1, me - km1) } else { (m, m) };
                for t in from..e_end {
                    m_elems[t] = m_elems[elem_src(t)];
                }
                for t in from..=s_end {
                    let (s, o) = (m_slots[slot_src(t)], orig[slot_src(t)]);
                    m_slots[t] = if t == a { node } else { s };
                    orig[t] = if t == a { i + 1 } else { o };
                }
                // Removing m_elems[a..a+km1] shifts any pending gap
                // position q down by however many removed elements
                // preceded it — exactly clamp(q − a, 0, km1).
                for (t, g) in gaps.iter_mut().enumerate() {
                    let shift = (*g).saturating_sub(a).min(km1);
                    *g -= if t > i { shift } else { 0 };
                }
            } else {
                debug_assert_eq!(m, km1);
                let b = new_top as usize * s;
                let (row_elems, row_slots) = rows[b..b + s].split_at_mut(km1);
                for (t, e) in row_elems.iter_mut().enumerate() {
                    *e = m_elems[elem_src(t)];
                }
                for (t, slot) in row_slots.iter_mut().enumerate() {
                    let (s, o) = (m_slots[slot_src(t)], orig[slot_src(t)]);
                    let (c, o) = if t == a { (node, i + 1) } else { (s, o) };
                    *slot = c;
                    changed += u64::from((c != NIL) & (o != d - 1));
                    parent[if c == NIL { new_top } else { c } as usize] = new_top;
                }
            }
        }

        // --- 3. reattach ----------------------------------------------------
        parent[new_top as usize] = anchor;
        if anchor == NIL {
            self.set_root(new_top);
        } else {
            let b = anchor as usize * s;
            for c in &mut rows[b + km1..b + s] {
                *c = if *c == top { new_top } else { *c };
            }
        }
        2 * changed
    }

    /// k-semi-splay (Fig. 3): promote `child` over its parent.
    pub fn k_semi_splay(&mut self, child: NodeIdx, policy: WindowPolicy) -> ServeCost {
        let p = self.parent(child);
        assert!(p != NIL, "cannot semi-splay the root");
        self.restructure(&[p, child], policy)
    }

    /// k-splay (Figs. 4–6): promote `node` over its parent and grandparent.
    pub fn k_splay(&mut self, node: NodeIdx, policy: WindowPolicy) -> ServeCost {
        let p = self.parent(node);
        assert!(p != NIL, "node has no parent");
        let g = self.parent(p);
        assert!(g != NIL, "node has no grandparent");
        self.restructure(&[g, p, node], policy)
    }

    fn is_downward_path(&self, path: &[NodeIdx]) -> bool {
        path.windows(2).all(|w| self.parent(w[1]) == w[0])
    }
}

/// Chooses the window start within `[a_min, a_max]` for path node `i`.
/// `gaps` holds the (incrementally maintained) gap positions of every
/// path key in the current merged array: node `i`'s own at `gaps[i]`,
/// and the pending ones of the first 8 nodes after it.
///
/// [`WindowPolicy::Paper`] ranks each window by (clean, centred): a window
/// starting at `a` spans gaps `a..=a+km1` and is clean when it spans no
/// pending key's gap, and the centred one starts at `gaps[i] − ⌈km1/2⌉`. The
/// best rank wins, ties going to the leftmost window. The `starts`
/// candidates from `a_min` on are ranked, those past `a_max` as invalid:
/// a fixed arity passes all `km1 + 1`, so the loop has a fixed trip count
/// and no data-dependent branch.
fn choose_window(
    policy: WindowPolicy,
    a_min: usize,
    a_max: usize,
    km1: usize,
    starts: usize,
    gaps: &[usize],
    i: usize,
) -> usize {
    match policy {
        WindowPolicy::Leftmost => a_min,
        WindowPolicy::Rightmost => a_max,
        WindowPolicy::Paper => {
            let ideal = gaps[i] as isize - (km1 as isize + 1) / 2;
            let mut best = (0u64, a_min);
            for j in 0..starts {
                let a = a_min + j;
                // Dirty iff one of the first 8 pending gaps q has
                // a ≤ q ≤ a + km1.
                let mut dirty = false;
                for (t, &q) in gaps.iter().enumerate() {
                    dirty |= (t > i) & (t < i + 9) & (q.wrapping_sub(a) <= km1);
                }
                let off_centre = (a as isize - ideal).unsigned_abs() as u64;
                // valid > clean > centred; u32 headroom keeps the fields apart.
                let rank = (u64::from(a <= a_max) << 34)
                    | (u64::from(!dirty) << 33)
                    | ((u32::MAX as u64) - off_centre);
                best = if rank > best.0 { (rank, a) } else { best };
            }
            best.1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::validate;

    fn check_conserved(t1: &KstTree, t2: &KstTree) {
        assert_eq!(t1.element_multiset(), t2.element_multiset());
    }

    #[test]
    fn semi_splay_promotes_child() {
        for k in 2..=8 {
            let mut t = KstTree::balanced(k, 60);
            let before = t.clone();
            // pick the deepest node
            let deepest = t.nodes().max_by_key(|&v| t.depth(v)).unwrap();
            let p = t.parent(deepest);
            let gp = t.parent(p);
            let stats = t.k_semi_splay(deepest, WindowPolicy::Paper);
            assert!(stats.links_changed > 0);
            validate(&t).unwrap_or_else(|e| panic!("k={k}: {e}"));
            check_conserved(&before, &t);
            assert_eq!(t.parent(deepest), gp, "child must take parent's place");
        }
    }

    #[test]
    fn k_splay_promotes_grandchild() {
        for k in 2..=8 {
            let mut t = KstTree::balanced(k, 200);
            let before = t.clone();
            let deepest = t.nodes().max_by_key(|&v| t.depth(v)).unwrap();
            if t.depth(deepest) < 2 {
                continue;
            }
            let g = t.parent(t.parent(deepest));
            let gg = t.parent(g);
            t.k_splay(deepest, WindowPolicy::Paper);
            validate(&t).unwrap_or_else(|e| panic!("k={k}: {e}"));
            check_conserved(&before, &t);
            assert_eq!(
                t.parent(deepest),
                gg,
                "grandchild must take grandparent's place"
            );
        }
    }

    #[test]
    fn repeated_restructure_keeps_invariants() {
        for k in [2usize, 3, 5, 10] {
            let mut t = KstTree::balanced(k, 100);
            let snapshot = t.element_multiset();
            let mut x = 1u64;
            for _ in 0..500 {
                // xorshift for determinism without rand dependency
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = (x % 100) as NodeIdx;
                let d = t.depth(v);
                if d >= 2 {
                    t.k_splay(v, WindowPolicy::Paper);
                } else if d == 1 {
                    t.k_semi_splay(v, WindowPolicy::Paper);
                }
            }
            validate(&t).unwrap_or_else(|e| panic!("k={k}: {e}"));
            assert_eq!(t.element_multiset(), snapshot, "elements not conserved");
        }
    }

    #[test]
    fn all_policies_preserve_invariants() {
        for policy in [
            WindowPolicy::Paper,
            WindowPolicy::Leftmost,
            WindowPolicy::Rightmost,
        ] {
            let mut t = KstTree::balanced(4, 120);
            let mut x = 99u64;
            for _ in 0..300 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = (x % 120) as NodeIdx;
                if t.depth(v) >= 2 {
                    t.k_splay(v, policy);
                }
            }
            validate(&t).unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        }
    }

    #[test]
    fn deep_generalized_restructure() {
        // d = 4 and d = 5 paths also work.
        let mut t = KstTree::balanced(2, 500);
        let deepest = t.nodes().max_by_key(|&v| t.depth(v)).unwrap();
        assert!(t.depth(deepest) >= 4);
        let p1 = t.parent(deepest);
        let p2 = t.parent(p1);
        let p3 = t.parent(p2);
        let anchor = t.parent(p3);
        t.restructure(&[p3, p2, p1, deepest], WindowPolicy::Paper);
        validate(&t).unwrap();
        assert_eq!(t.parent(deepest), anchor);
    }
}
