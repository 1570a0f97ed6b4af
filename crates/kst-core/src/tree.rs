//! The arena-backed k-ary search tree network (Definition 1 of the paper).
//!
//! Every network node stores:
//! * its permanent key (identifier) — implicit: node with key `κ` lives at
//!   arena index `κ - 1`, so identifiers survive arbitrary rotations by
//!   construction;
//! * a routing array of exactly `k - 1` strictly increasing routing
//!   elements ([`RoutingKey`]s, never key images);
//! * `k` child slots, slot `j` holding a subtree whose keys embed strictly
//!   between elements `j-1` and `j` (with the node's interval bounds at the
//!   extremes).
//!
//! A node's interval is not stored: it is the slot gap of its parent link
//! in the parent's routing array (`(0, MAX)` at the root), so it is implied
//! by the parent's elements and the slot the node hangs from. Greedy
//! routing (see `routing` module) derives it along the path it walks.
//!
//! # Arena layout invariants
//!
//! Layout is struct-of-arrays over flat vectors — **no per-node `Vec` exists
//! anywhere on the serve path**, and every per-request working set lives in
//! scratch arenas owned by the tree:
//!
//! * `parent[v]` — parent index, `NIL` for the root (stride 1);
//! * `elems[v * (k-1) .. (v+1) * (k-1)]` — the node's `k - 1` strictly
//!   increasing routing elements (stride `k - 1`);
//! * `children[v * k .. (v+1) * k]` — the node's `k` child slots (stride
//!   `k`, `NIL` = empty slot).
//!
//! Strides are fixed at construction; node `v`'s state is always located by
//! multiplication, never by pointer chasing, and rotations only ever
//! `copy_from_slice` whole per-node windows.
//!
//! # Scratch reuse contract
//!
//! The `scratch_*` fields are reusable arenas for [`restructure`] and
//! [`splay_until`] (`crate::restructure` / `crate::splay`): merged element /
//! slot buffers, the access path, per-slot link provenance, and per-path
//! key-gap positions. The contract is:
//!
//! * the serve-path buffers are **index-addressed**:
//!   [`KstTree::reserve_scratch`] (called by every network constructor)
//!   sizes their *lengths* for the longest path span in use and the
//!   kernels only index into them, so **no serve-path operation
//!   allocates** — the zero-allocation tests and bench assertions enforce
//!   this. A longer path re-sizes them once;
//! * lengths only ever grow; contents are meaningless between operations,
//!   and `Clone` copies the span-sized buffers along with the tree;
//! * a splay `std::mem::take`s `scratch_path` for a walk and moves it back
//!   before returning (a panic at worst leaves it empty).
//!
//! [`restructure`]: KstTree::restructure
//! [`splay_until`]: KstTree::splay_until

use crate::key::{idx_to_key, key_image, key_to_idx, NodeIdx, NodeKey, RoutingKey, NIL};
use crate::net::ServeCost;
use crate::shape::{Layout, ShapeTree};

/// Node-arena size (parents, routing elements, child slots) from
/// which rotations prefetch the rows they are about to touch. Smaller
/// trees stay cache-resident, where the hints only cost instructions
/// (measured with k = 2: 26% faster k-splay serves at 2¹⁸ nodes, 11%
/// slower at 2¹⁰, break-even near 2¹⁶).
const PREFETCH_MIN_ARENA_BYTES: usize = 4 << 20;

/// A k-ary search tree on `n` nodes with permanent identifiers `1..=n`.
#[derive(Clone)]
pub struct KstTree {
    k: usize,
    n: usize,
    root: NodeIdx,
    // The three node arenas are crate-visible so the restructure kernel can
    // borrow them disjointly from the scratch arenas.
    pub(crate) parent: Vec<NodeIdx>,
    /// Flat `n × (k-1)` strictly-increasing routing elements.
    pub(crate) elems: Vec<RoutingKey>,
    /// Flat `n × k` child slots (`NIL` = empty).
    pub(crate) children: Vec<NodeIdx>,
    /// Scratch arenas reused by the serve path (see the module docs for the
    /// reuse contract): merged routing elements …
    pub(crate) scratch_elems: Vec<RoutingKey>,
    /// … merged child slots …
    pub(crate) scratch_slots: Vec<NodeIdx>,
    /// … the access path buffer threaded through `splay_until` …
    pub(crate) scratch_path: Vec<NodeIdx>,
    /// … per-merged-slot link provenance (the path index each slot keeps
    /// its link with) …
    pub(crate) scratch_orig: Vec<usize>,
    /// … and per-path-node key-gap positions, maintained incrementally
    /// across the re-form steps of one restructure.
    pub(crate) scratch_gaps: Vec<usize>,
    /// The patched range's parent pointers before the patch, kept by
    /// [`KstTree::patch_subtree`]'s link accounting (capacity persists
    /// across patches).
    pub(crate) scratch_parents: Vec<NodeIdx>,
}

/// Which end of the keyspace a [`KstTree::absorb_fragment`] attaches to.
///
/// Live resharding only ever moves **boundary runs** between neighbouring
/// shards (a shard's keyspace must stay contiguous), so a fragment either
/// becomes the new lowest keys (`Low`, every existing key is renumbered
/// up) or the new highest keys (`High`, existing keys keep their numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// Prepend: fragment keys become `1..=f`, existing keys shift up by `f`.
    Low,
    /// Append: fragment keys become `n+1..=n+f`, existing keys unchanged.
    High,
}

/// Where [`KstTree::locate_range`]'s root-down descent toward `[lo, hi]`
/// stopped: at the first node whose own key lies in `[lo, hi]`, at a node
/// whose child slots split `lo` from `hi`, or at an empty slot (`root`
/// is then `NIL`).
struct RangeLoc {
    root: NodeIdx,
    /// Parent of `root` (`NIL` when the descent never left the root) and
    /// the child slot of `anchor` that leads to `root`.
    anchor: NodeIdx,
    slot: usize,
    /// The exact enclosing gap `(glo, ghi)` of `slot`.
    glo: RoutingKey,
    ghi: RoutingKey,
}

impl KstTree {
    /// Builds a tree realizing `shape` (shape offset `i` becomes key
    /// `i + 1`) with a valid routing-element layout. Panics if the shape
    /// fails [`ShapeTree::validate`] at arity `k`.
    pub fn from_shape(k: usize, shape: &ShapeTree) -> KstTree {
        assert!(k >= 2, "arity must be at least 2");
        let n = shape.len();
        assert!(n >= 1, "tree must have at least one node");
        assert!(
            (n as u64) < (u32::MAX as u64),
            "node count must fit in u32 keys"
        );
        let layout = shape
            .layout(k)
            // ksan-allow: panic-surface constructor contract — an invalid shape is a caller bug and validate carries the diagnostic
            .expect("shape incompatible with requested arity");
        let mut t = KstTree {
            k,
            n,
            root: 0,
            parent: vec![NIL; n],
            elems: vec![0; n * (k - 1)],
            children: vec![NIL; n * k],
            scratch_elems: Vec::new(),
            scratch_slots: Vec::new(),
            scratch_path: Vec::new(),
            scratch_orig: Vec::new(),
            scratch_gaps: Vec::new(),
            scratch_parents: Vec::new(),
        };
        let root = t.write_fragment(shape, &layout, 1, 0, RoutingKey::MAX);
        t.root = root;
        t
    }

    /// Materializes `shape` **in place** over the contiguous key range
    /// starting at `first_key` (shape offset `i` becomes key
    /// `first_key + i`), with every routing element drawn strictly from
    /// the enclosing gap `(glo, ghi)`. `layout` is the shape's validated
    /// children and subtree spans ([`ShapeTree::validate`]). Overwrites
    /// exactly the arena entries of keys `first_key .. first_key +
    /// shape.len()` and returns the fragment's root index; the caller
    /// attaches the root (parent pointer / child slot / tree root).
    ///
    /// This is `from_shape`'s materialization loop, factored out so
    /// [`KstTree::patch_subtree`] can re-form a single subtree without
    /// touching the rest of the arena. Element placement mirrors the
    /// original greedy scheme — one mandatory separator between adjacent
    /// chunks, spares clustered immediately below the own key image — with
    /// two additions that make it correct for **arbitrary** enclosing gaps
    /// (a patched subtree's gap boundaries are ancestor elements that may
    /// crowd right up against the fragment's extreme key images, unlike
    /// the unbounded `(0, MAX)` gap of a full build):
    ///
    /// * **capacity reservation** — the element closing a child chunk's
    ///   gap is floored at `gap_lo + size·k + 1`, reserving exactly the
    ///   `size` key images plus `size·(k−1)` elements the chunk's own
    ///   materialization will place inside that gap;
    /// * **cluster spill** — when the gap's lower boundary leaves no room
    ///   below the own key image (only possible at the fragment's minimum
    ///   key), the remaining cluster elements spill to just *above* the
    ///   image.
    ///
    /// Feasibility invariant: any gap that previously held a subtree on
    /// the same key range has at least `size·k` usable values (`size`
    /// images + `size·(k−1)` elements fit there before), and the
    /// reservation floor propagates exactly that bound down the fragment,
    /// so the placement asserts can only trip on a range that never was a
    /// subtree. In the unconstrained full-build gap neither addition ever
    /// binds and the produced elements are identical to the historical
    /// `from_shape` output.
    fn write_fragment(
        &mut self,
        shape: &ShapeTree,
        layout: &Layout,
        first_key: NodeKey,
        glo: RoutingKey,
        ghi: RoutingKey,
    ) -> NodeIdx {
        let k = self.k;
        let km1 = k - 1;
        let first = key_to_idx(first_key);
        // Pre-order: materialize each node given its interval. The working
        // vectors are hoisted out of the loop and reused per node, so the
        // build allocates O(1) times past the initial arena reservation.
        #[derive(Clone, Copy)]
        struct Item {
            lo_img: RoutingKey,
            hi_img: RoutingKey,
            chunk: usize, // usize::MAX for the own key
        }
        let mut elems: Vec<RoutingKey> = Vec::with_capacity(km1);
        let mut slot_of_chunk: Vec<usize> = Vec::with_capacity(k);
        let mut chunk_size: Vec<u64> = Vec::with_capacity(k);
        let mut items: Vec<Item> = Vec::with_capacity(k + 1);
        let mut stack: Vec<(u32, RoutingKey, RoutingKey)> = vec![(shape.root, glo, ghi)];
        while let Some((v, lo, hi)) = stack.pop() {
            let vi = (first + v) as usize;
            // Children by key; the own key follows those below it.
            let cs = layout.children(v);
            let gap = cs.partition_point(|&c| c < v);
            let own = key_image(first_key + v);
            // Items in order: chunks (children) with the own key at `gap`.
            let c = cs.len();
            elems.clear();
            slot_of_chunk.clear();
            slot_of_chunk.resize(c, usize::MAX);
            chunk_size.clear();
            items.clear();
            for (i, &ch) in cs.iter().enumerate() {
                if i == gap {
                    items.push(Item {
                        lo_img: own,
                        hi_img: own,
                        chunk: usize::MAX,
                    });
                }
                let (a, b) = layout.span[ch as usize];
                items.push(Item {
                    lo_img: key_image(first_key + a),
                    hi_img: key_image(first_key + b),
                    chunk: i,
                });
                chunk_size.push((b - a + 1) as u64);
            }
            if gap == c {
                items.push(Item {
                    lo_img: own,
                    hi_img: own,
                    chunk: usize::MAX,
                });
            }
            // Element placement. Budget: exactly k-1 elements.
            // * one mandatory separator between each adjacent chunk pair
            //   whose boundary is not occupied by the own key (placed just
            //   above the left chunk, floored by the capacity
            //   reservation);
            // * everything else — the separator of the key-occupied
            //   boundary plus all spares — forms a cluster immediately
            //   *below* the own key image, spilling above it when the gap
            //   boundary is tight.
            //
            // The below-key cluster makes every node's elements
            // order-adjacent to its identifier, which (a) mimics the
            // routing-based layout as closely as a non-routing-based tree
            // can, and (b) makes the k = 2 instance order-isomorphic to a
            // classic BST whose routing element *is* the key — the basis of
            // the move-for-move differential test against splaynet-classic.
            let mandatory = c.saturating_sub(1);
            let spares = km1 - mandatory;
            let key_interior = c > 0 && gap > 0 && gap < c;
            let cluster = spares + usize::from(key_interior);
            // `last` = value of the last pin (element or image) emitted;
            // `min_next` = capacity floor for the next element value,
            // accumulating the reservations of everything in the open gap.
            let mut last = lo;
            let mut min_next = lo.saturating_add(1);
            for (i, it) in items.iter().enumerate() {
                if it.chunk == usize::MAX {
                    if cluster > 0 {
                        let floor = (last + 1).max(min_next);
                        let below = own.saturating_sub(floor).min(cluster as u64) as usize;
                        for s in 0..below {
                            elems.push(own - (below - s) as RoutingKey);
                        }
                        last = own;
                        min_next = own + 1;
                        let overflow = cluster - below;
                        if overflow > 0 {
                            // Tight lower boundary (fragment-min image):
                            // spill the rest just above the own key.
                            let upper = items.get(i + 1).map(|nx| nx.lo_img).unwrap_or(hi);
                            assert!(
                                own + (overflow as RoutingKey) < upper,
                                "routing-element space exhausted"
                            );
                            for s in 0..overflow {
                                elems.push(own + 1 + s as RoutingKey);
                            }
                            last = own + overflow as RoutingKey;
                            min_next = last + 1;
                        }
                    } else {
                        last = last.max(own);
                        min_next = min_next.max(own + 1);
                    }
                } else {
                    slot_of_chunk[it.chunk] = elems.len();
                    // Reserve room for the chunk's internal images and
                    // elements before anything else may close its gap.
                    min_next = min_next.saturating_add(chunk_size[it.chunk] * k as u64);
                    last = last.max(it.hi_img);
                    min_next = min_next.max(last + 1);
                    // Mandatory separator if the next item is also a chunk.
                    if let Some(next) = items.get(i + 1) {
                        if next.chunk != usize::MAX {
                            let val = (last + 1).max(min_next);
                            assert!(val < next.lo_img, "routing-element space exhausted");
                            elems.push(val);
                            last = val;
                            min_next = val + 1;
                        }
                    }
                }
            }
            assert_eq!(elems.len(), km1);
            debug_assert!(elems.windows(2).all(|w| w[0] < w[1]));
            debug_assert!(elems.first().map(|&e| e > lo).unwrap_or(true));
            debug_assert!(elems.last().map(|&e| e < hi).unwrap_or(true));
            // Write node.
            let base_e = vi * km1;
            self.elems[base_e..base_e + km1].copy_from_slice(&elems);
            let base_c = vi * k;
            self.children[base_c..base_c + k].fill(NIL);
            for (i, &ch) in cs.iter().enumerate() {
                let slot = slot_of_chunk[i];
                let ci = first + ch;
                self.children[base_c + slot] = ci;
                self.parent[ci as usize] = vi as NodeIdx;
                let slo = if slot == 0 { lo } else { elems[slot - 1] };
                let shi = if slot == k - 1 { hi } else { elems[slot] };
                stack.push((ch, slo, shi));
            }
        }
        first + shape.root
    }

    /// Replaces the subtree whose key set is exactly `[lo, hi]` with a
    /// freshly materialized `fragment` (a shape on `hi − lo + 1` nodes;
    /// fragment offset `i` becomes key `lo + i`), re-forming **only** the
    /// arena entries of that range — the incremental counterpart of a full
    /// `from_shape` rebuild, O(subtree) instead of O(n).
    ///
    /// The range must currently be a subtree: some node's descendants
    /// carry exactly the keys `lo..=hi`. Not every subtree qualifies: a
    /// rotation can leave a node's own key inside a child's slot gap, so
    /// after k-splaying a subtree's key set can have holes (held by its
    /// ancestors). Trees that never rotate keep every subtree contiguous,
    /// and the lazy planner derives its ranges from the live tree.
    /// Locating the range root is O(depth); verification is one pass over
    /// the range's arena rows (no child leaves the range, and only the
    /// located root hangs from outside it); re-forming and link accounting
    /// are each O(subtree). Every link the patch can
    /// change, anchor link included, has its child endpoint in the range,
    /// so the exact adjustment cost compares the range's parent pointers
    /// before and after: a link survives iff its child keeps its parent
    /// or the two endpoints swap roles. The old pointers live in
    /// persistent scratch, so repeated patches reuse its capacity.
    ///
    /// Returns that cost as one patch: `links_changed`,
    /// `rebuild_patches` = 1 and `rebuild_nodes` = the range's size.
    ///
    /// Panics if the range is not a subtree or the fragment does not fit;
    /// the whole-tree range `[1, n]` degenerates to a full rebuild.
    pub fn patch_subtree(&mut self, lo: NodeKey, hi: NodeKey, fragment: &ShapeTree) -> ServeCost {
        let k = self.k;
        assert!(
            lo >= 1 && lo <= hi && hi as usize <= self.n,
            "patch range [{lo},{hi}] outside keyspace 1..={}",
            self.n
        );
        let size = (hi - lo + 1) as usize;
        assert_eq!(
            fragment.len(),
            size,
            "fragment has {} nodes, range [{lo},{hi}] needs {size}",
            fragment.len()
        );
        let layout = fragment
            .layout(k)
            // ksan-allow: panic-surface patch contract — an invalid fragment is a caller bug and validate carries the diagnostic
            .expect("fragment incompatible with requested arity");
        // 1. Locate the range root.
        let loc = self.locate_range(lo, hi);
        let (r, anchor) = (loc.root, loc.anchor);
        assert!(
            r != NIL,
            "[{lo},{hi}] routes into an empty slot: not a subtree range"
        );
        let rk = idx_to_key(r);
        assert!(
            lo <= rk && rk <= hi,
            "[{lo},{hi}] splits across node key {rk}: not a subtree range"
        );
        // 2. Verify the subtree under `r` is exactly the range: the range
        //    is closed under children, and every node but `r` has its
        //    parent inside it, so climbing from any range node reaches `r`.
        //    Two branch-free folds decide it; only a violation re-walks
        //    the range to name the offending key.
        let (base, last) = (key_to_idx(lo), key_to_idx(hi));
        let (b, e) = (base as usize, last as usize + 1);
        let outside = |x: NodeIdx| x.wrapping_sub(base) as usize >= size;
        let stray_child = self.children[b * k..e * k]
            .iter()
            .fold(false, |bad, &c| bad | ((c != NIL) & outside(c)));
        let stray_parent = (base..=last)
            .zip(&self.parent[b..e])
            .fold(false, |bad, (v, &p)| bad | ((v != r) & outside(p)));
        if stray_child | stray_parent {
            for v in base..=last {
                for &c in self.children(v) {
                    assert!(
                        c == NIL || (base <= c && c <= last),
                        "key {} under key {} violates [{lo},{hi}]: not a subtree range",
                        idx_to_key(c),
                        idx_to_key(v)
                    );
                }
                let p = self.parent(v);
                assert!(
                    v == r || (base <= p && p <= last),
                    "key {} hangs from outside [{lo},{hi}] besides range root {rk}: not a subtree range",
                    idx_to_key(v)
                );
            }
            unreachable!("the folds and the walk disagree on [{lo},{hi}]");
        }
        // 3. Keep the range's parent pointers, re-form the range in place
        //    and reattach.
        let mut old = std::mem::take(&mut self.scratch_parents);
        old.clear();
        old.extend_from_slice(&self.parent[base as usize..=last as usize]);
        let new_root = self.write_fragment(fragment, &layout, lo, loc.glo, loc.ghi);
        self.set_parent(new_root, anchor);
        if anchor == NIL {
            self.set_root(new_root);
        } else {
            self.children_mut(anchor)[loc.slot] = new_root;
        }
        // 4. Exact links_changed: when v's parent changes, its old link
        //    {v, p} survives only if p now hangs under v, and its new link
        //    only if the new parent used to hang under v.
        let mut links_changed = 0u64;
        for (v, &p_old) in (base..=last).zip(&old) {
            let p_new = self.parent(v);
            if p_new != p_old {
                let p_new_was_under = old.get(p_new.wrapping_sub(base) as usize);
                links_changed += u64::from(p_old != NIL && self.parent(p_old) != v);
                links_changed += u64::from(p_new != NIL && p_new_was_under != Some(&v));
            }
        }
        self.scratch_parents = old;
        ServeCost {
            links_changed,
            rebuild_patches: 1,
            rebuild_nodes: size as u64,
            ..ServeCost::default()
        }
    }

    /// Descends from the root toward the key range `[lo, hi]`, keeping
    /// the exact enclosing gap: while the current node's own key lies
    /// outside the range, both endpoints must route into the same child
    /// slot. O(depth).
    fn locate_range(&self, lo: NodeKey, hi: NodeKey) -> RangeLoc {
        let (lo_img, hi_img) = (key_image(lo), key_image(hi));
        let mut loc = RangeLoc {
            root: self.root,
            anchor: NIL,
            slot: usize::MAX,
            glo: 0,
            ghi: RoutingKey::MAX,
        };
        loop {
            let r = loc.root;
            let rk = idx_to_key(r);
            if lo <= rk && rk <= hi {
                return loc;
            }
            let es = self.elems(r);
            let j = es.partition_point(|&e| e < lo_img);
            if j != es.partition_point(|&e| e < hi_img) {
                return loc;
            }
            if j > 0 {
                loc.glo = es[j - 1];
            }
            if j < self.k - 1 {
                loc.ghi = es[j];
            }
            loc.anchor = r;
            loc.slot = j;
            loc.root = self.children(r)[j];
            if loc.root == NIL {
                return loc;
            }
        }
    }

    /// The deepest node on the `end` boundary spine (always the first
    /// child slot for `Low`, the last for `High`).
    fn boundary_spine(&self, end: End) -> NodeIdx {
        let slot = match end {
            End::Low => 0,
            End::High => self.k - 1,
        };
        let mut w = self.root;
        while self.children(w)[slot] != NIL {
            w = self.children(w)[slot];
        }
        w
    }

    /// Captures the shape of the subtree rooted at `r`, so the subtree can
    /// be re-materialized elsewhere with [`KstTree::patch_subtree`] /
    /// [`KstTree::absorb_fragment`]. O(subtree + depth).
    ///
    /// Each node's offset is its in-order rank: children in slot order,
    /// the own key after the children whose keys are smaller. That is the
    /// subtree's key order only when every subtree inside it holds a
    /// contiguous key range. After k-splaying a node's own key can sit
    /// inside a child's slot gap, leaving that child's subtree with a key
    /// hole; such a subtree re-materializes with different links (the
    /// ranks move the own key out of the child's range).
    pub fn subtree_shape(&self, r: NodeIdx) -> ShapeTree {
        // In-order walk; `(v, true)` emits v, `(v, false)` expands it.
        let mut order: Vec<NodeIdx> = Vec::new();
        let mut stack: Vec<(NodeIdx, bool)> = vec![(r, false)];
        while let Some((v, emit)) = stack.pop() {
            if emit {
                order.push(v);
                continue;
            }
            let own = idx_to_key(v);
            let mut own_pushed = false;
            for &c in self.children(v).iter().rev().filter(|&&c| c != NIL) {
                if !own_pushed && idx_to_key(c) < own {
                    stack.push((v, true));
                    own_pushed = true;
                }
                stack.push((c, false));
            }
            if !own_pushed {
                stack.push((v, true));
            }
        }
        // Rank of each arena node, indexed from the smallest index.
        let min = order.iter().copied().min().unwrap_or(r);
        let max = order.iter().copied().max().unwrap_or(r);
        let mut rank = vec![0u32; (max - min + 1) as usize];
        for (i, &v) in order.iter().enumerate() {
            let off = (v - min) as usize;
            rank[off] = i as u32;
        }
        let rank_of = |v: NodeIdx| {
            let off = (v - min) as usize;
            rank[off]
        };
        let mut shape = ShapeTree {
            parent: vec![NIL; order.len()],
            root: rank_of(r),
        };
        for (i, &v) in order.iter().enumerate() {
            if v != r {
                shape.parent[i] = rank_of(self.parent(v));
            }
        }
        shape
    }

    /// Splices the boundary key run `[lo, hi]` out of the tree and returns
    /// its shape ([`KstTree::subtree_shape`] of the run's subtree, so a run
    /// whose inner subtrees have key holes arrives with those nodes
    /// re-ranked) plus the restructuring cost, shrinking the tree to the
    /// remaining `n − (hi − lo + 1)` keys. The run must touch an end of the
    /// keyspace (`lo == 1` or `hi == n`) — live resharding only moves
    /// boundary runs, and only boundary runs keep the remainder contiguous.
    ///
    /// Two-phase, mirroring the lazy rebuild machinery: if the run is not
    /// already an exact subtree, a **connector patch** first re-forms the
    /// minimal enclosing subtree (via [`KstTree::patch_subtree`]) so the
    /// run hangs off a single anchor edge; the run's subtree is then
    /// detached and the arena compacted. On a `Low` extraction the
    /// remaining keys are renumbered down by `hi` (key `κ` lives at index
    /// `κ − 1` forever, so renumbering is an arena shift) and every
    /// routing element is translated with it; remaining elements *below*
    /// the first surviving key image — leading empty-slot elements left
    /// behind by past rotations — are order-preservingly compressed into
    /// `1, 2, …` so no transform can underflow.
    ///
    /// The returned cost counts the connector patch (its links, and one
    /// patch of the connector's nodes when one was needed) plus the
    /// detached anchor link; the fragment's internal links are charged by
    /// the matching [`KstTree::absorb_fragment`] on the receiving tree.
    /// Cold-path: allocates freely (runs at migration boundaries only).
    ///
    /// Panics if the run is empty, covers the whole tree, or is interior.
    pub fn extract_range(&mut self, lo: NodeKey, hi: NodeKey) -> (ShapeTree, ServeCost) {
        let k = self.k;
        let km1 = k - 1;
        let n = self.n;
        assert!(
            lo >= 1 && lo <= hi && (hi as usize) <= n,
            "extract range [{lo},{hi}] outside keyspace 1..={n}"
        );
        let size = (hi - lo + 1) as usize;
        assert!(size < n, "cannot extract the whole tree");
        assert!(
            lo == 1 || hi as usize == n,
            "extract range [{lo},{hi}] must touch a keyspace boundary (n={n})"
        );
        let mut stats = ServeCost::default();
        // 1. Find the minimal subtree containing the run: where the
        //    descent stops, at a node inside [lo, hi] or one splitting it.
        let mut r = self.locate_range(lo, hi).root;
        debug_assert!(r != NIL, "boundary run routes into an empty slot");
        // 2. Grow the containing subtree until its key set is contiguous
        //    (a node's own image may sit inside a *child's* gap interval —
        //    a legal "shadow" state after rotations — so a subtree's key
        //    span can include keys living at its ancestors; the whole tree
        //    is always contiguous, so this terminates at the root). If the
        //    contiguous cover is larger than [lo, hi], re-form it with a
        //    connector so the run becomes an exact subtree. Each node is
        //    visited at most once across the growth, so this is O(cover).
        fn tally(
            t: &KstTree,
            seed: NodeIdx,
            stack: &mut Vec<NodeIdx>,
            count: &mut usize,
            kmin: &mut NodeKey,
            kmax: &mut NodeKey,
        ) {
            stack.push(seed);
            while let Some(v) = stack.pop() {
                *count += 1;
                *kmin = (*kmin).min(idx_to_key(v));
                *kmax = (*kmax).max(idx_to_key(v));
                for &c in t.children(v) {
                    if c != NIL {
                        stack.push(c);
                    }
                }
            }
        }
        let (mut count, mut kmin, mut kmax) = (0usize, NodeKey::MAX, 0 as NodeKey);
        {
            let mut stack: Vec<NodeIdx> = Vec::new();
            tally(self, r, &mut stack, &mut count, &mut kmin, &mut kmax);
            while (kmax - kmin + 1) as usize != count {
                let p = self.parent(r);
                debug_assert!(p != NIL, "whole keyspace must be contiguous");
                count += 1;
                kmin = kmin.min(idx_to_key(p));
                kmax = kmax.max(idx_to_key(p));
                for j in 0..k {
                    let c = self.children(p)[j];
                    if c != NIL && c != r {
                        tally(self, c, &mut stack, &mut count, &mut kmin, &mut kmax);
                    }
                }
                r = p;
            }
        }
        let (a, b) = (kmin, kmax);
        debug_assert!(a <= lo && hi <= b);
        debug_assert!(if lo == 1 { a == 1 } else { b as usize == n });
        if (a, b) != (lo, hi) {
            // Connector root = the key adjacent to the run; the run itself
            // and the rest of the covered range hang off it as balanced
            // subtrees, so the run is an exact subtree afterwards.
            let (left, right) = if lo == 1 {
                // root key hi+1: [1, hi] | hi+1 | [hi+2, b]
                (size, (b - hi - 1) as usize)
            } else {
                // root key lo−1: [a, lo−2] | lo−1 | [lo, n]
                ((lo - 1 - a) as usize, size)
            };
            let root = left as u32;
            let mut conn = ShapeTree {
                parent: vec![NIL; left + 1 + right],
                root,
            };
            if left > 0 {
                conn.fill_balanced(0, left, k, root);
            }
            if right > 0 {
                conn.fill_balanced(root + 1, right, k, root);
            }
            stats += self.patch_subtree(a, b, &conn);
        }
        // 3. Re-locate the (now exact) run subtree, keeping its anchor.
        let loc = self.locate_range(lo, hi);
        let (r, anchor) = (loc.root, loc.anchor);
        debug_assert!(r != NIL && (lo..=hi).contains(&idx_to_key(r)));
        assert!(anchor != NIL, "boundary run of size < n cannot be the root");
        let shape = self.subtree_shape(r);
        debug_assert_eq!(shape.len(), size);
        // 4. Detach the run and compact the arena.
        self.children_mut(anchor)[loc.slot] = NIL;
        stats.links_changed += 1;
        let new_n = n - size;
        if hi as usize == n && lo > 1 {
            // High run: keys 1..=new_n keep their numbers; drop the tail.
            self.parent.truncate(new_n);
            self.elems.truncate(new_n * km1);
            self.children.truncate(new_n * k);
        } else {
            // Low run: renumber keys down by f = hi. Remaining elements
            // below image(f+1) (leading empty-slot values) are compressed
            // order-preservingly into 1, 2, …, which stays strictly below
            // every shifted image/element, so global element order — and
            // with it every gap-containment invariant — is preserved.
            let f = size;
            let img_f = key_image(f as NodeKey);
            let next_img = key_image((f + 1) as NodeKey);
            let mut small: Vec<(RoutingKey, usize)> = Vec::new();
            for flat in f * km1..n * km1 {
                if self.elems[flat] < next_img {
                    small.push((self.elems[flat], flat));
                }
            }
            small.sort_unstable();
            debug_assert!(small.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(
                (small.len() as u64) < key_image(1),
                "routing-element space exhausted"
            );
            for (rank, &(_, flat)) in small.iter().enumerate() {
                self.elems[flat] = rank as RoutingKey + 1;
            }
            let sub = |v: NodeIdx| if v == NIL { NIL } else { v - f as NodeIdx };
            for i in 0..new_n {
                self.parent[i] = sub(self.parent[i + f]);
                for j in 0..k {
                    self.children[i * k + j] = sub(self.children[(i + f) * k + j]);
                }
                for j in 0..km1 {
                    let e = self.elems[(i + f) * km1 + j];
                    self.elems[i * km1 + j] = if e >= next_img { e - img_f } else { e };
                }
            }
            self.parent.truncate(new_n);
            self.elems.truncate(new_n * km1);
            self.children.truncate(new_n * k);
            self.root -= f as NodeIdx;
        }
        self.n = new_n;
        (shape, stats)
    }

    /// Grafts a fragment of `f` keys onto one end of the keyspace, growing
    /// the tree to `n + f` keys — the receiving half of a live-resharding
    /// hand-off (the donor side is [`KstTree::extract_range`]). `End::High`
    /// appends the fragment as keys `n+1..=n+f`; `End::Low` renumbers the
    /// existing keys up by `f` (arena shift, elements translated with the
    /// keys) and materializes the fragment as keys `1..=f`. Either way the
    /// fragment is re-formed in the deepest boundary gap via the same
    /// greedy element placement as a rebuild, so all arena invariants hold
    /// afterwards.
    ///
    /// Returns the attachment cost as one patch of `f` nodes:
    /// `links_changed` = the fragment's `f − 1` internal links plus its
    /// anchor link (the donor charged the detach separately).
    /// Cold-path: allocates freely (runs at migration boundaries only).
    pub fn absorb_fragment(&mut self, end: End, fragment: &ShapeTree) -> ServeCost {
        let k = self.k;
        let km1 = k - 1;
        let f = fragment.len();
        assert!(f >= 1, "cannot absorb an empty fragment");
        let layout = fragment
            .layout(k)
            // ksan-allow: panic-surface absorb contract — an invalid fragment is a caller bug and validate carries the diagnostic
            .expect("fragment incompatible with requested arity");
        let old_n = self.n;
        let new_n = old_n + f;
        assert!(
            (new_n as u64) < (u32::MAX as u64),
            "node count must fit in u32 keys"
        );
        self.parent.resize(new_n, NIL);
        self.elems.resize(new_n * km1, 0);
        self.children.resize(new_n * k, NIL);
        self.n = new_n;
        match end {
            End::High => {
                // Deepest right-boundary node; its last gap is (max
                // element, MAX) and every new image lies above it. The
                // fragment hangs one level below it.
                let w = self.boundary_spine(End::High);
                let glo = self.elems(w)[km1 - 1];
                debug_assert!(glo < key_image((old_n + 1) as NodeKey));
                let root_frag = self.write_fragment(
                    fragment,
                    &layout,
                    (old_n + 1) as NodeKey,
                    glo,
                    RoutingKey::MAX,
                );
                self.children_mut(w)[k - 1] = root_frag;
                self.set_parent(root_frag, w);
            }
            End::Low => {
                // Renumber existing keys up by f: shift arena windows and
                // translate elements by image(f).
                let img_f = key_image(f as NodeKey);
                let add = |v: NodeIdx| if v == NIL { NIL } else { v + f as NodeIdx };
                for i in (0..old_n).rev() {
                    let ni = i + f;
                    self.parent[ni] = add(self.parent[i]);
                    for j in 0..k {
                        self.children[ni * k + j] = add(self.children[i * k + j]);
                    }
                    for j in 0..km1 {
                        self.elems[ni * km1 + j] = self.elems[i * km1 + j] + img_f;
                    }
                }
                self.root += f as NodeIdx;
                // Deepest left-boundary node; its first gap is (0, first
                // element) and holds every new image with room to spare.
                let w = self.boundary_spine(End::Low);
                let ghi = self.elems(w)[0];
                debug_assert!(ghi > img_f);
                let root_frag = self.write_fragment(fragment, &layout, 1, 0, ghi);
                self.children_mut(w)[0] = root_frag;
                self.set_parent(root_frag, w);
            }
        }
        ServeCost {
            links_changed: f as u64,
            rebuild_patches: 1,
            rebuild_nodes: f as u64,
            ..ServeCost::default()
        }
    }

    /// Builds the complete (balanced) k-ary search tree on `n` nodes.
    ///
    /// ```
    /// use kst_core::KstTree;
    /// let t = KstTree::balanced(3, 40);
    /// assert_eq!(t.n(), 40);
    /// assert_eq!(t.k(), 3);
    /// // node identifiers are permanent: key 7 lives at index 6 forever
    /// assert_eq!(t.key_of(t.node_of(7)), 7);
    /// ```
    pub fn balanced(k: usize, n: usize) -> KstTree {
        KstTree::from_shape(k, &ShapeTree::balanced_kary(n, k))
    }

    /// Arity `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Root node index.
    #[inline]
    pub fn root(&self) -> NodeIdx {
        self.root
    }

    pub(crate) fn set_root(&mut self, r: NodeIdx) {
        self.root = r;
    }

    /// Parent index of `v`, `NIL` for the root.
    #[inline]
    pub fn parent(&self, v: NodeIdx) -> NodeIdx {
        self.parent[v as usize]
    }

    pub(crate) fn set_parent(&mut self, v: NodeIdx, p: NodeIdx) {
        self.parent[v as usize] = p;
    }

    /// The `k - 1` routing elements of `v`.
    #[inline]
    pub fn elems(&self, v: NodeIdx) -> &[RoutingKey] {
        let b = v as usize * (self.k - 1);
        &self.elems[b..b + self.k - 1]
    }

    /// The `k` child slots of `v` (`NIL` = empty slot).
    #[inline]
    pub fn children(&self, v: NodeIdx) -> &[NodeIdx] {
        let b = v as usize * self.k;
        &self.children[b..b + self.k]
    }

    pub(crate) fn children_mut(&mut self, v: NodeIdx) -> &mut [NodeIdx] {
        let b = v as usize * self.k;
        &mut self.children[b..b + self.k]
    }

    /// Whether the node arenas are too large to stay cache-resident, so
    /// that rotations should prefetch what they will touch.
    #[inline]
    pub(crate) fn prefetch_rows(&self) -> bool {
        let arenas = std::mem::size_of_val(&self.parent[..])
            + std::mem::size_of_val(&self.elems[..])
            + std::mem::size_of_val(&self.children[..]);
        arenas >= PREFETCH_MIN_ARENA_BYTES
    }

    /// Prefetch hints for node `v`'s routing elements and child slots (no
    /// observable effect; see [`crate::prefetch`]).
    #[inline]
    pub(crate) fn prefetch_row(&self, v: NodeIdx) {
        let vi = v as usize;
        crate::prefetch::prefetch_read(&self.elems, vi * (self.k - 1));
        crate::prefetch::prefetch_read(&self.children, vi * self.k);
    }

    /// Permanent key of node `v`.
    #[inline]
    pub fn key_of(&self, v: NodeIdx) -> NodeKey {
        idx_to_key(v)
    }

    /// Node index carrying `key`. Panics, naming the key and `n`, unless
    /// `1 ≤ key ≤ n` — in release builds too, so a bad key fails here
    /// instead of wrapping to an index deep in the tree.
    #[inline]
    pub fn node_of(&self, key: NodeKey) -> NodeIdx {
        assert!(
            key >= 1 && key as usize <= self.n,
            "key {key} outside keyspace 1..={}",
            self.n
        );
        key_to_idx(key)
    }

    /// Depth of `v` (root = 0): an O(depth) parent walk.
    pub fn depth(&self, v: NodeIdx) -> usize {
        let mut d = 0usize;
        let mut w = v;
        while self.parent[w as usize] != NIL {
            w = self.parent[w as usize];
            d += 1;
        }
        d
    }

    /// Lowest common ancestor of `u` and `v`. O(depth).
    pub fn lca(&self, u: NodeIdx, v: NodeIdx) -> NodeIdx {
        self.distance_lca(u, v).1
    }

    /// Tree distance (hops) between node indices.
    pub fn distance(&self, u: NodeIdx, v: NodeIdx) -> u64 {
        self.distance_lca(u, v).0
    }

    /// Tree distance and lowest common ancestor in **one pass** over the
    /// access paths. The serve hot path uses this so the routing charge and
    /// the splay target come out of the same pointer chase instead of
    /// six-plus redundant root walks.
    ///
    /// The two depth pre-walks to the root are **interleaved**: the two
    /// parent chains are independent, so alternating their loads lets the
    /// cache misses of one chain overlap the other's instead of
    /// serializing two full root walks. The aligned climb then issues a
    /// prefetch hint one step ahead (see [`crate::prefetch`]): for the
    /// next parent slot, or, on a tree past the prefetch threshold, for
    /// the rows of both endpoints and of every node it passes, the LCA
    /// included. Those are exactly the rows the SplayNet discipline
    /// rotates next, so a network serve's splays need not walk the two
    /// paths again to hint them.
    pub fn distance_lca(&self, u: NodeIdx, v: NodeIdx) -> (u64, NodeIdx) {
        if u == v {
            return (0, u);
        }
        let rows = self.prefetch_rows();
        let hint = |x: NodeIdx| {
            if rows {
                self.prefetch_row(x);
            } else {
                crate::prefetch::prefetch_read(&self.parent, x as usize);
            }
        };
        if rows {
            self.prefetch_row(u);
            self.prefetch_row(v);
        }
        let (mut au, mut av) = (u, v);
        let (mut du, mut dv) = (0usize, 0usize);
        loop {
            let pu = self.parent[au as usize];
            let pv = self.parent[av as usize];
            match (pu != NIL, pv != NIL) {
                (true, true) => {
                    au = pu;
                    av = pv;
                    du += 1;
                    dv += 1;
                }
                (true, false) => {
                    au = pu;
                    du += 1;
                }
                (false, true) => {
                    av = pv;
                    dv += 1;
                }
                (false, false) => break,
            }
        }
        let (mut a, mut b) = (u, v);
        let (mut da, mut db) = (du, dv);
        while da > db {
            a = self.parent[a as usize];
            hint(a);
            da -= 1;
        }
        while db > da {
            b = self.parent[b as usize];
            hint(b);
            db -= 1;
        }
        while a != b {
            a = self.parent[a as usize];
            b = self.parent[b as usize];
            hint(a);
            hint(b);
            da -= 1;
        }
        ((du - da + (dv - da)) as u64, a)
    }

    /// Tree distance between two keys.
    pub fn distance_keys(&self, u: NodeKey, v: NodeKey) -> u64 {
        self.distance(self.node_of(u), self.node_of(v))
    }

    /// Sizes the serve-path scratch arenas for restructure paths of up to
    /// `span` nodes, so that **no serve-path operation ever allocates** —
    /// not even the first one. Called by every network constructor with
    /// its splay strategy's span; idempotent and monotone (lengths only
    /// grow). See the module docs for the scratch reuse contract.
    pub fn reserve_scratch(&mut self, span: usize) {
        let span = span.max(2);
        let merged = span * (self.k - 1);
        grow_to(&mut self.scratch_elems, merged, 0);
        grow_to(&mut self.scratch_slots, merged + 1, NIL);
        grow_to(&mut self.scratch_path, span, NIL);
        grow_to(&mut self.scratch_orig, merged + 1, 0);
        grow_to(&mut self.scratch_gaps, span, 0);
    }

    /// Sorted copy of the global routing-element multiset; conserved by all
    /// rotations (n·(k−1) values).
    pub fn element_multiset(&self) -> Vec<RoutingKey> {
        let mut v = self.elems.clone();
        v.sort_unstable();
        v
    }

    /// Iterates node indices `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeIdx> {
        0..self.n as NodeIdx
    }
}

/// Grows `v`'s length to at least `len` (filling with `fill`) without
/// shrinking.
fn grow_to<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if v.len() < len {
        v.resize(len, fill);
    }
}

impl std::fmt::Debug for KstTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "KstTree(k={}, n={}, root=key {})",
            self.k,
            self.n,
            idx_to_key(self.root)
        )?;
        for v in 0..self.n as NodeIdx {
            let kids: Vec<String> = self
                .children(v)
                .iter()
                .map(|&c| {
                    if c == NIL {
                        "·".to_string()
                    } else {
                        idx_to_key(c).to_string()
                    }
                })
                .collect();
            writeln!(
                f,
                "  key {:>4}: parent={} elems={:?} slots=[{}]",
                idx_to_key(v),
                if self.parent[v as usize] == NIL {
                    "root".to_string()
                } else {
                    idx_to_key(self.parent[v as usize]).to_string()
                },
                self.elems(v),
                kids.join(" ")
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::validate;

    #[test]
    fn balanced_trees_are_valid() {
        for k in 2..=10 {
            for n in [1usize, 2, 3, 7, 10, 50, 100, 257] {
                let t = KstTree::balanced(k, n);
                validate(&t).unwrap_or_else(|e| panic!("k={k} n={n}: {e}"));
            }
        }
    }

    #[test]
    fn balanced_depth_bound() {
        for k in 2..=10usize {
            let n = 1000;
            let t = KstTree::balanced(k, n);
            let h = (0..n as NodeIdx).map(|v| t.depth(v)).max().unwrap();
            let mut cap = 1usize;
            let mut lvl = 1usize;
            let mut want = 0usize;
            while cap < n {
                lvl *= k;
                cap += lvl;
                want += 1;
            }
            assert_eq!(h, want, "k={k}");
        }
    }

    #[test]
    fn distance_is_metric_like() {
        let t = KstTree::balanced(3, 40);
        for u in 0..40u32 {
            assert_eq!(t.distance(u, u), 0);
            for v in 0..40u32 {
                assert_eq!(t.distance(u, v), t.distance(v, u));
            }
        }
        // triangle inequality on a sample
        for (a, b, c) in [(0u32, 5u32, 17u32), (3, 30, 12), (8, 9, 39)] {
            assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c));
        }
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn subtree_shape_round_trips_through_from_shape() {
        for k in 2..=5usize {
            for n in [1usize, 2, 7, 40, 121] {
                let t = KstTree::balanced(k, n);
                let s = t.subtree_shape(t.root());
                assert_eq!(s.len(), n);
                s.validate(k).unwrap();
                let t2 = KstTree::from_shape(k, &s);
                validate(&t2).unwrap();
                // Same topology: every node keeps its parent key.
                for v in t.nodes() {
                    assert_eq!(t2.parent(v), t.parent(v), "k={k} n={n} v={v}");
                }
            }
        }
    }

    #[test]
    fn extract_then_absorb_preserves_validity() {
        for k in 2..=5usize {
            for n in [10usize, 37, 100] {
                for cut in [1usize, 3, n / 2] {
                    // High run moves to a fresh receiver's low end.
                    let mut donor = KstTree::balanced(k, n);
                    let (shape, stats) =
                        donor.extract_range((n - cut + 1) as NodeKey, n as NodeKey);
                    assert_eq!(donor.n(), n - cut);
                    assert_eq!(shape.len(), cut);
                    assert!(stats.links_changed >= 1);
                    validate(&donor).unwrap_or_else(|e| panic!("donor k={k} n={n} cut={cut}: {e}"));
                    let mut recv = KstTree::balanced(k, n);
                    let astats = recv.absorb_fragment(End::Low, &shape);
                    assert_eq!(recv.n(), n + cut);
                    assert_eq!(astats.rebuild_nodes, cut as u64);
                    validate(&recv).unwrap_or_else(|e| panic!("recv k={k} n={n} cut={cut}: {e}"));

                    // Low run moves to a fresh receiver's high end.
                    let mut donor = KstTree::balanced(k, n);
                    let (shape, _) = donor.extract_range(1, cut as NodeKey);
                    assert_eq!(donor.n(), n - cut);
                    validate(&donor)
                        .unwrap_or_else(|e| panic!("low donor k={k} n={n} cut={cut}: {e}"));
                    let mut recv = KstTree::balanced(k, n);
                    recv.absorb_fragment(End::High, &shape);
                    assert_eq!(recv.n(), n + cut);
                    validate(&recv)
                        .unwrap_or_else(|e| panic!("high recv k={k} n={n} cut={cut}: {e}"));
                }
            }
        }
    }

    #[test]
    fn extract_absorb_after_rotation_history_stays_valid() {
        // The hard case: arbitrary serve history scatters routing elements
        // (leading empty-slot values below the first image included), so
        // the renumbering transforms must hold on *rotated* trees, not
        // just fresh balanced ones.
        use crate::ksplaynet::KSplayNet;
        use crate::net::Network;
        for k in [2usize, 3, 5] {
            let n = 60usize;
            let mut a = KSplayNet::balanced(k, n);
            let mut b = KSplayNet::balanced(k, n);
            let mut x = 99u64;
            for round in 0..8 {
                for _ in 0..40 {
                    let u = (xorshift(&mut x) % a.len() as u64 + 1) as NodeKey;
                    let v = (xorshift(&mut x) % a.len() as u64 + 1) as NodeKey;
                    if u != v {
                        a.serve(u, v);
                    }
                    let u = (xorshift(&mut x) % b.len() as u64 + 1) as NodeKey;
                    let v = (xorshift(&mut x) % b.len() as u64 + 1) as NodeKey;
                    if u != v {
                        b.serve(u, v);
                    }
                }
                // Shuttle a run from a's high end to b's low end and back
                // the other way, exercising all four end combinations.
                let cut = 1 + (round % 5) as usize;
                let an = a.tree().n();
                let (shape, _) = a
                    .tree_mut()
                    .extract_range((an - cut + 1) as NodeKey, an as NodeKey);
                b.tree_mut().absorb_fragment(End::Low, &shape);
                let (shape, _) = b.tree_mut().extract_range(1, (2 * cut) as NodeKey);
                a.tree_mut().absorb_fragment(End::High, &shape);
                validate(a.tree()).unwrap_or_else(|e| panic!("a k={k} round={round}: {e}"));
                validate(b.tree()).unwrap_or_else(|e| panic!("b k={k} round={round}: {e}"));
            }
            assert_eq!(a.len() + b.len(), 2 * n);
            // Both trees still serve correctly after the shuttling.
            for _ in 0..50 {
                let u = (xorshift(&mut x) % a.len() as u64 + 1) as NodeKey;
                let v = (xorshift(&mut x) % a.len() as u64 + 1) as NodeKey;
                if u != v {
                    a.serve(u, v);
                    assert_eq!(a.distance(u, v), 1);
                }
            }
            validate(a.tree()).unwrap();
        }
    }

    #[test]
    fn absorb_into_single_node_tree() {
        for k in 2..=4usize {
            for end in [End::Low, End::High] {
                let mut t = KstTree::balanced(k, 1);
                let frag = ShapeTree::balanced_kary(5, k);
                let stats = t.absorb_fragment(end, &frag);
                assert_eq!(t.n(), 6);
                assert_eq!(stats.links_changed, 5);
                validate(&t).unwrap_or_else(|e| panic!("k={k} {end:?}: {e}"));
            }
        }
    }

    #[test]
    fn prefetch_gate_follows_arena_bytes() {
        assert!(KstTree::balanced(2, 1 << 18).prefetch_rows());
        assert!(!KstTree::balanced(2, 1 << 10).prefetch_rows());
    }

    #[test]
    #[should_panic(expected = "boundary")]
    fn extract_interior_range_panics() {
        let mut t = KstTree::balanced(3, 20);
        let _ = t.extract_range(5, 10);
    }

    #[test]
    fn lca_agrees_with_bruteforce() {
        let t = KstTree::balanced(4, 60);
        let ancestors = |mut v: NodeIdx| -> Vec<NodeIdx> {
            let mut a = vec![v];
            while t.parent(v) != NIL {
                v = t.parent(v);
                a.push(v);
            }
            a
        };
        for u in (0..60u32).step_by(7) {
            for v in (0..60u32).step_by(5) {
                let au = ancestors(u);
                let av = ancestors(v);
                let brute = *au
                    .iter()
                    .find(|x| av.contains(x))
                    .expect("trees are connected");
                assert_eq!(t.lca(u, v), brute, "u={u} v={v}");
            }
        }
    }
}
