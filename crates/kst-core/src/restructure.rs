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
use crate::prefetch::prefetch_read;
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
    /// * **one body, monomorphised per arity** — the kernel is generic
    ///   over `const K`, and this entry point dispatches k ∈ {2, 3, 4} to
    ///   their own copies (`K = 0` reads the runtime k for every other
    ///   arity), so the per-node window copies and slot loops compile to
    ///   fixed-size register moves for the common small arities;
    /// * **single-pass merge of whole nodes** — every path node is copied
    ///   once, at its full fixed size, into index-addressed scratch that
    ///   [`KstTree::reserve_scratch`] has already sized to the longest
    ///   path in use (no `clear`/`extend`/`truncate`, zero heap
    ///   allocation); copy order and alignment make the parts that must
    ///   not survive get overwritten;
    /// * **incremental gaps** — the key-gap position of every path node is
    ///   searched once on the merged array and then shifted as each
    ///   re-form step consumes its window; a window with a single valid
    ///   position skips the policy entirely;
    /// * **link accounting folded into install** — while node `i` adopts
    ///   its consumed slots, a subtree keeps its link iff its parent
    ///   *before* the write is node `i` itself, and a collapsed path node
    ///   keeps its link (flipped) iff it is `path[i−1]`. Every other
    ///   consumed link, and the anchor link, is one removal plus one
    ///   addition;
    /// * **prefetch once the tree outgrows cache** — past a fixed arena
    ///   size, the merge hints the parent line of every subtree root it is
    ///   about to re-attach (and `splay_until` hints the rows of the whole
    ///   path up front); smaller trees skip the hints.
    pub fn restructure(&mut self, path: &[NodeIdx], policy: WindowPolicy) -> ServeCost {
        match self.k() {
            2 => self.restructure_k::<2>(path, policy),
            3 => self.restructure_k::<3>(path, policy),
            4 => self.restructure_k::<4>(path, policy),
            _ => self.restructure_k::<0>(path, policy),
        }
    }

    /// The restructure kernel for arity `K` (`K = 0`: the tree's runtime
    /// arity). See [`KstTree::restructure`].
    fn restructure_k<const K: usize>(
        &mut self,
        path: &[NodeIdx],
        policy: WindowPolicy,
    ) -> ServeCost {
        let d = path.len();
        assert!(d >= 2, "restructure needs at least two nodes");
        let k = if K == 0 { self.k() } else { K };
        debug_assert_eq!(k, self.k());
        let km1 = k - 1;
        debug_assert!(self.is_downward_path(path), "not a downward path");

        // A rotation window reattaches whole subtrees, so exact depth-cache
        // maintenance would cost O(moved subtrees), not O(path): disarm it
        // in O(1) instead (releasing memory is not an allocation, so the
        // zero-alloc serve contract is untouched).
        self.disarm_depth_cache();
        if self.scratch_gaps.len() < d {
            // Only a hand-built path longer than every reserved span gets
            // here; network constructors reserve their strategy's span.
            self.reserve_scratch(d);
        }

        let top = path[0];
        let anchor = self.parent(top);
        let anchor_slot = if anchor == NIL {
            usize::MAX
        } else {
            self.slot_of(anchor, top)
        };
        let prefetch = self.prefetch_rows();
        let KstTree {
            parent,
            elems,
            children,
            scratch_elems: m_elems,
            scratch_slots: m_slots,
            scratch_pos: pos,
            scratch_gaps: gaps,
            ..
        } = self;

        // --- 1. merge (single pass) ----------------------------------------
        // The merged array is the nested splice of each node's arrays into
        // its parent's slot gap: the strict prefixes going down, the deepest
        // node whole, the suffixes going back up. Prefixes are written left
        // to right and suffixes right-aligned from the far end inwards, each
        // as a whole-node copy whose surplus the next copy overwrites; the
        // deepest node goes last. Slot `t` sits just left of element `t`, so
        // one cursor per direction serves both arrays.
        let mut m = 0usize;
        for w in 0..d - 1 {
            let (eb, cb) = (path[w] as usize * km1, path[w] as usize * k);
            let p = children[cb..cb + k]
                .iter()
                .position(|&c| c == path[w + 1])
                // ksan-allow: panic-surface structural invariant — `path` is a downward path, so path[w+1] hangs from path[w]
                .expect("not a downward path");
            pos[w] = p;
            m_elems[m..m + km1].copy_from_slice(&elems[eb..eb + km1]);
            m_slots[m..m + k].copy_from_slice(&children[cb..cb + k]);
            m += p;
        }
        let mut me = d * km1;
        for w in 0..d - 1 {
            let (eb, cb) = (path[w] as usize * km1, path[w] as usize * k);
            m_elems[me - km1..me].copy_from_slice(&elems[eb..eb + km1]);
            m_slots[me + 1 - k..=me].copy_from_slice(&children[cb..cb + k]);
            me -= km1 - pos[w];
        }
        debug_assert_eq!(me, m + km1);
        let (eb, cb) = (path[d - 1] as usize * km1, path[d - 1] as usize * k);
        m_elems[m..m + km1].copy_from_slice(&elems[eb..eb + km1]);
        m_slots[m..m + k].copy_from_slice(&children[cb..cb + k]);
        m = d * km1;
        debug_assert!(m_elems[..m].windows(2).all(|w| w[0] < w[1]));

        if prefetch {
            // Every merged subtree root gets its parent rewritten below:
            // start those lines moving now.
            for &c in &m_slots[..=m] {
                prefetch_read(parent, c as usize);
            }
        }

        // Key-gap position of every path node in the merged array, searched
        // once; re-form steps below keep them current incrementally.
        for (g, &node) in gaps[..d].iter_mut().zip(path) {
            let img = key_image(idx_to_key(node));
            *g = m_elems[..m].partition_point(|&e| e < img);
        }

        // --- 2. re-form nodes, counting links as they are installed --------
        let mut changed = u64::from(anchor != NIL);
        let mut prev = NIL;
        for (i, &node) in path.iter().enumerate() {
            let last = i + 1 == d;
            let a = if last {
                // Fragment root takes everything that remains.
                debug_assert_eq!(m, km1);
                0
            } else {
                let gap = gaps[i];
                debug_assert_eq!(
                    gap,
                    m_elems[..m].partition_point(|&e| e < key_image(idx_to_key(node)))
                );
                let a_min = gap.saturating_sub(km1);
                let a_max = gap.min(m - km1);
                debug_assert!(a_min <= a_max);
                if a_min == a_max {
                    a_min
                } else {
                    choose_window(policy, a_min, a_max, gap, km1, &gaps[i + 1..d])
                }
            };
            let win_e = &m_elems[a..a + km1];
            let win_s = &m_slots[a..a + k];
            let (eb, cb) = (node as usize * km1, node as usize * k);
            elems[eb..eb + km1].copy_from_slice(win_e);
            children[cb..cb + k].copy_from_slice(win_s);
            for &c in win_s {
                if c == NIL {
                    continue;
                }
                let ci = c as usize;
                changed += u64::from(c != prev && parent[ci] != node);
                parent[ci] = node;
            }
            if last {
                break;
            }
            // Compact in place: remove the consumed window, leave the
            // collapsed node in its gap (element loops: the tails are a few
            // entries long, shorter than a memmove call's overhead).
            m -= km1;
            for t in a..m {
                m_elems[t] = m_elems[t + km1];
            }
            m_slots[a] = node;
            for t in a + 1..=m {
                m_slots[t] = m_slots[t + km1];
            }
            // Removing m_elems[a..a+km1] shifts any pending gap position q
            // down by however many removed elements preceded it — exactly
            // clamp(q − a, 0, km1).
            for g in gaps[i + 1..d].iter_mut() {
                *g -= (*g).saturating_sub(a).min(km1);
            }
            prev = node;
        }

        // --- 3. reattach ----------------------------------------------------
        let new_top = path[d - 1];
        self.set_parent(new_top, anchor);
        if anchor == NIL {
            self.set_root(new_top);
        } else {
            self.children_mut(anchor)[anchor_slot] = new_top;
        }
        ServeCost {
            rotations: (d - 1) as u64,
            links_changed: 2 * changed,
            ..ServeCost::default()
        }
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

/// Chooses the window start within `[a_min, a_max]` for a node whose key
/// sits at `gap` in the current merged array. `pend_gaps` holds the
/// (incrementally maintained) gap positions of the pending path keys; only
/// the first 8 are considered.
fn choose_window(
    policy: WindowPolicy,
    a_min: usize,
    a_max: usize,
    gap: usize,
    km1: usize,
    pend_gaps: &[usize],
) -> usize {
    match policy {
        WindowPolicy::Leftmost => a_min,
        WindowPolicy::Rightmost => a_max,
        WindowPolicy::Paper => {
            let pend = &pend_gaps[..pend_gaps.len().min(8)];
            let ideal = gap as i64 - (km1 as i64 + 1) / 2;
            // One ascending pass ranking (clean, centred): a window starting
            // at `a` spans gaps a..=a+km1 and is clean when it spans no
            // pending key's gap. Only strict improvements replace the best,
            // so ties go to the leftmost window.
            let mut best = (false, i64::MIN, a_min);
            for a in a_min..=a_max {
                let clean = pend.iter().all(|&q| q < a || q > a + km1);
                let rank = (clean, -(a as i64 - ideal).abs());
                if rank > (best.0, best.1) {
                    best = (rank.0, rank.1, a);
                }
            }
            best.2
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
