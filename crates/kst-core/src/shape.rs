//! Rooted search-tree *shapes* over a contiguous key range.
//!
//! Several constructions in the paper fix a tree shape first and distribute
//! keys afterwards so that the search property holds (Section 3.2: "we can
//! first fix the tree structure and then distribute the keys"). A
//! [`ShapeTree`] stores the result of that distribution directly: shape
//! node `i` is the `i`-th key of the range the shape is materialized on
//! (its *offset*), and the shape records each node's parent. Children are
//! ordered by key, and a node's own key sits between its children with
//! smaller and with larger keys, so neither a child order nor an own-key
//! position is stored. [`ShapeTree::validate`] checks that every subtree
//! holds a contiguous run of offsets, which is what makes a shape a search
//! tree.
//!
//! Shapes are produced by the balanced and weight-balanced builders here,
//! by the dynamic programs and the centroid construction in `kst-statics`,
//! and by subtree capture ([`crate::KstTree::subtree_shape`]); they are
//! consumed by the arena-tree builder (`KstTree::from_shape`) and by the
//! static distance evaluator.

use crate::key::{NodeKey, NIL};

/// A rooted search-tree shape on offsets `0..len()`, stored as the parent
/// of each offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeTree {
    /// `parent[i]` is the offset of node `i`'s parent, [`NIL`] at the root.
    pub parent: Vec<u32>,
    /// Offset of the root.
    pub root: u32,
}

/// A validated shape's children, ordered by key, and the offset span of
/// every subtree: what materializing the shape reads.
pub(crate) struct Layout {
    /// The children of `v` are `kids[start[v]..start[v + 1]]`.
    start: Vec<u32>,
    kids: Vec<u32>,
    /// `(first, last)` offset of each node's subtree.
    pub(crate) span: Vec<(u32, u32)>,
}

impl Layout {
    /// The children of `v` in ascending key order.
    pub(crate) fn children(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.kids[self.start[v] as usize..self.start[v + 1] as usize]
    }
}

impl ShapeTree {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the shape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Builds the complete ("full" in the paper's terminology, Section 5)
    /// k-ary tree shape on `n` nodes: every level fully filled except the
    /// last, whose nodes are grouped to the left.
    ///
    /// Each node's own key follows its first `⌈c/2⌉` of `c` children, to
    /// keep it near the subtree median.
    pub fn balanced_kary(n: usize, k: usize) -> ShapeTree {
        assert!(k >= 2, "arity must be at least 2");
        let mut shape = ShapeTree {
            parent: vec![NIL; n],
            root: 0,
        };
        if n > 0 {
            shape.root = shape.fill_balanced(0, n, k, NIL);
        }
        shape
    }

    /// Writes the complete k-ary subtree of [`ShapeTree::balanced_kary`]
    /// over the `n >= 1` offsets `first..first + n`, hangs its root under
    /// `parent` ([`NIL`] for none) and returns the root's offset (used to
    /// assemble composite topologies such as the centroid (k+1)-SplayNet).
    pub fn fill_balanced(&mut self, first: u32, n: usize, k: usize, parent: u32) -> u32 {
        let split = CompleteSplit::new(n, k);
        let gap = split.count.div_ceil(2);
        let own = first + (0..gap).map(|i| split.size(i)).sum::<usize>() as u32;
        self.parent[own as usize] = parent;
        let mut next = first;
        for i in 0..split.count {
            if i == gap {
                next += 1;
            }
            let s = split.size(i);
            self.fill_balanced(next, s, k, own);
            next += s as u32;
        }
        own
    }

    /// Builds a **weight-balanced** k-ary search tree shape on keys
    /// `1..=n` from observed per-key frequencies: every key gets a base
    /// weight of 1 plus its observed frequency from `hot` (a by-key sorted
    /// `(key, frequency)` list, keys in `1..=n`, typically
    /// `DemandView::key_weights`), and each node takes the weighted
    /// median of its key range as its own key, splitting the remainder
    /// into up to `k` child ranges of roughly equal weight.
    ///
    /// Hot keys therefore sit near the root (weighted depth is
    /// logarithmic in total weight), while regions with **no** observed
    /// demand degrade to the complete balanced subtree — with an empty
    /// `hot` the result is exactly [`ShapeTree::balanced_kary`]. This
    /// builds the dense frequency prefix over the keys and runs
    /// [`ShapeTree::weight_balanced_from_prefix`] on it.
    ///
    /// Fully deterministic: same `n`, `k`, `hot` → same shape.
    pub fn weight_balanced(n: usize, k: usize, hot: &[(NodeKey, u64)]) -> ShapeTree {
        assert!(k >= 2, "arity must be at least 2");
        debug_assert!(
            hot.windows(2).all(|w| w[0].0 < w[1].0),
            "hot keys must be strictly sorted"
        );
        debug_assert!(
            hot.iter().all(|&(key, _)| key >= 1 && key as usize <= n),
            "hot keys must lie in 1..={n}"
        );
        if hot.is_empty() {
            return ShapeTree::balanced_kary(n, k);
        }
        let mut pre = vec![0u64; n + 1];
        for &(key, w) in hot {
            pre[key as usize] += w;
        }
        for i in 1..=n {
            pre[i] += pre[i - 1];
        }
        ShapeTree::weight_balanced_from_prefix(k, &pre)
    }

    /// [`ShapeTree::weight_balanced`] on the `n = pre.len() − 1` keys of
    /// a frequency prefix: `pre[i] − pre[0]` is the observed frequency of
    /// keys `1..=i`. `pre[0]` need not be 0, so the slice over
    /// `[a − 1, b]` of a prefix over a larger keyspace (such as
    /// `DemandView::weight_prefix`) builds the fragment on keys `[a, b]`
    /// in place, with no copy. Every range weight is one subtraction, so
    /// each probe of the split searches is O(1): the build costs O(size)
    /// for the shape plus O(k · log size) probes per node of a range
    /// holding hot keys — no O(n³)-ish DP, which is what makes lazy
    /// rebuilds viable at 10⁶–10⁷ nodes.
    ///
    /// # Panics
    ///
    /// When `k < 2` or `pre` is empty; in debug builds also when `pre`
    /// decreases somewhere.
    pub fn weight_balanced_from_prefix(k: usize, pre: &[u64]) -> ShapeTree {
        assert!(k >= 2, "arity must be at least 2");
        assert!(!pre.is_empty(), "a frequency prefix has at least one entry");
        debug_assert!(
            pre.windows(2).all(|w| w[0] <= w[1]),
            "frequency prefix must be non-decreasing"
        );
        let n = pre.len() - 1;
        if pre[n] == pre[0] {
            return ShapeTree::balanced_kary(n, k);
        }
        let mut shape = ShapeTree {
            parent: vec![NIL; n],
            root: 0,
        };
        let wb = WeightIndex { pre };

        // Explicit work stack of (key range, parent offset): a
        // pathological weight profile must not be able to overflow the
        // call stack at 10⁶ nodes.
        let mut stack: Vec<(NodeKey, NodeKey, u32)> = vec![(1, n as NodeKey, NIL)];
        let mut ranges: Vec<(NodeKey, NodeKey)> = Vec::with_capacity(2 * k);
        while let Some((a, b, parent)) = stack.pop() {
            let id = if wb.weight(a, b) == (b - a + 1) as u64 {
                // Cold range: no observed demand — fall back to the
                // complete balanced subtree (O(size), no searches).
                shape.fill_balanced(a - 1, (b - a + 1) as usize, k, parent)
            } else {
                let m = wb.weighted_median(a, b);
                let id = m - 1;
                shape.parent[id as usize] = parent;
                ranges.clear();
                wb.split_around(a, b, m, k, &mut ranges);
                stack.extend(ranges.iter().map(|&(ca, cb)| (ca, cb, id)));
                id
            };
            if parent == NIL {
                shape.root = id;
            }
        }
        shape
    }

    /// Checks that the shape is a search tree of arity `k`: one root,
    /// every parent in range, at most `k` children per node, every node
    /// reachable from the root (so no cycle), and every subtree holding a
    /// contiguous run of offsets. Never panics.
    pub fn validate(&self, k: usize) -> Result<(), String> {
        self.layout(k).map(|_| ())
    }

    /// [`ShapeTree::validate`], keeping the children and subtree spans it
    /// derives. O(n): one counting pass buckets the children by parent
    /// (in ascending key order, since nodes are visited by offset), a
    /// breadth-first order from the root checks reachability, and the
    /// reverse of that order folds subtree sizes and spans.
    pub(crate) fn layout(&self, k: usize) -> Result<Layout, String> {
        let n = self.len();
        let root = self.root as usize;
        if n == 0 {
            return Ok(Layout {
                start: vec![0],
                kids: Vec::new(),
                span: Vec::new(),
            });
        }
        if root >= n {
            return Err(format!("shape root {root} lies outside 0..{n}"));
        }
        if self.parent[root] != NIL {
            return Err(format!("shape root {root} has a parent"));
        }
        // `start[p + 1]` counts p's children, then becomes a prefix sum.
        let mut start = vec![0u32; n + 1];
        for (v, &p) in self.parent.iter().enumerate() {
            if p == NIL {
                if v != root {
                    return Err(format!("shape nodes {root} and {v} are both roots"));
                }
            } else if p as usize >= n {
                return Err(format!("shape node {v} has parent {p} outside 0..{n}"));
            } else {
                let slot = p as usize + 1;
                start[slot] += 1;
            }
        }
        for v in 0..n {
            let c = start[v + 1];
            if c as usize > k {
                return Err(format!("shape node {v} has {c} > k = {k} children"));
            }
            start[v + 1] = c + start[v];
        }
        // Bucket by parent, using start[p] as p's fill cursor; afterwards
        // start[p] has reached p's end, so shift it back by one node.
        let mut kids = vec![0u32; n - 1];
        for (v, &p) in self.parent.iter().enumerate() {
            if p != NIL {
                kids[start[p as usize] as usize] = v as u32;
                start[p as usize] += 1;
            }
        }
        start.copy_within(0..n, 1);
        start[0] = 0;
        let mut layout = Layout {
            start,
            kids,
            span: (0..n as u32).map(|v| (v, v)).collect(),
        };
        // Every node sits in exactly one bucket, so the breadth-first
        // order visits each node at most once and misses every cycle.
        let mut order = Vec::with_capacity(n);
        order.push(self.root);
        let mut i = 0;
        while i < order.len() {
            order.extend_from_slice(layout.children(order[i]));
            i += 1;
        }
        if order.len() != n {
            return Err(format!(
                "only {} of {n} shape nodes are reachable from the root",
                order.len()
            ));
        }
        let mut size = vec![1u32; n];
        for &v in order.iter().rev() {
            let (s, (lo, hi)) = (size[v as usize], layout.span[v as usize]);
            if hi - lo + 1 != s {
                return Err(format!(
                    "shape subtree of node {v} spans offsets {lo}..={hi} but holds {s} nodes"
                ));
            }
            let p = self.parent[v as usize];
            if p != NIL {
                size[p as usize] += s;
                let ps = &mut layout.span[p as usize];
                *ps = (ps.0.min(lo), ps.1.max(hi));
            }
        }
        Ok(layout)
    }
}

/// Dense prefix-weight index over keys `1..=n` backing
/// [`ShapeTree::weight_balanced_from_prefix`]: every range weight is one
/// subtraction, so each probe of the split searches is O(1). It borrows
/// the caller's frequency prefix and adds the base weight of 1 per key
/// in closed form.
struct WeightIndex<'a> {
    /// `pre[i] − pre[0]` = observed frequency of keys `1..=i`.
    pre: &'a [u64],
}

impl WeightIndex<'_> {
    /// Weight of key range `[a, b]`: base 1 per key plus hot frequencies.
    fn weight(&self, a: NodeKey, b: NodeKey) -> u64 {
        let before = (a - 1) as usize;
        (b - a + 1) as u64 + self.pre[b as usize] - self.pre[before]
    }

    /// Smallest `m` in `[a, b]` whose prefix `[a, m]` holds at least half
    /// the range's weight.
    fn weighted_median(&self, a: NodeKey, b: NodeKey) -> NodeKey {
        let total = self.weight(a, b);
        let (mut lo, mut hi) = (a, b);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if 2 * self.weight(a, mid) >= total {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Splits `[a, b]` into `c ≥ 1` non-empty contiguous parts of roughly
    /// equal weight (boundaries at the weight quantiles, clamped so every
    /// part keeps at least one key), appending them to `out`.
    fn quantiles(&self, a: NodeKey, b: NodeKey, c: usize, out: &mut Vec<(NodeKey, NodeKey)>) {
        debug_assert!(c >= 1 && (b - a + 1) as usize >= c);
        let total = self.weight(a, b);
        let mut start = a;
        for j in 1..c {
            // Smallest end with weight([a, end]) ≥ (j/c)·total, kept
            // within [start, b - (c - j)] so the remaining parts fit.
            let (mut lo, mut hi) = (start, b - (c - j) as NodeKey);
            let want = (j as u64 * total).div_ceil(c as u64);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.weight(a, mid) >= want {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            out.push((start, lo));
            start = lo + 1;
        }
        out.push((start, b));
    }

    /// Child ranges around own key `m` inside `[a, b]`: the left remainder
    /// `[a, m-1]` and right remainder `[m+1, b]` are each quantile-split,
    /// with the child budget `k` apportioned by weight. Appends the ranges
    /// in order.
    fn split_around(
        &self,
        a: NodeKey,
        b: NodeKey,
        m: NodeKey,
        k: usize,
        out: &mut Vec<(NodeKey, NodeKey)>,
    ) {
        let sl = (m - a) as usize;
        let sr = (b - m) as usize;
        if sl == 0 && sr == 0 {
            return;
        }
        let wl = if sl > 0 { self.weight(a, m - 1) } else { 0 };
        let wr = if sr > 0 { self.weight(m + 1, b) } else { 0 };
        // Ideal share of the child budget for the left side, rounded,
        // then clamped so each non-empty side keeps at least one child
        // and no side gets more children than keys.
        let mut cl = ((k as u64 * wl + (wl + wr) / 2) / (wl + wr).max(1)) as usize;
        cl = cl.clamp(usize::from(sl > 0), k - usize::from(sr > 0));
        cl = cl.min(sl);
        let cr = (k - cl).min(sr);
        // Hand any unusable right-side budget back to the left.
        cl = (k - cr).min(sl);
        if sl > 0 {
            self.quantiles(a, m - 1, cl, out);
        }
        if sr > 0 {
            self.quantiles(m + 1, b, cr, out);
        }
    }
}

/// Splits `n` nodes of a complete k-ary tree into the sizes of the root's
/// child subtrees (last level filled left to right).
pub fn complete_child_sizes(n: usize, k: usize) -> Vec<usize> {
    let split = CompleteSplit::new(n, k);
    let sizes: Vec<usize> = (0..split.count).map(|i| split.size(i)).collect();
    debug_assert_eq!(sizes.iter().sum::<usize>(), n - 1);
    sizes
}

/// The root's child subtrees of a complete k-ary tree on `n >= 1` nodes
/// in closed form: child `i` holds `interior` nodes above the last level
/// plus `min(per_child, last_total − i·per_child)` of the `last_total`
/// last-level nodes, filled left to right; the first `count` children
/// are non-empty.
struct CompleteSplit {
    interior: usize,
    per_child: usize,
    last_total: usize,
    count: usize,
}

impl CompleteSplit {
    fn new(n: usize, k: usize) -> CompleteSplit {
        debug_assert!(n >= 1);
        let rest = n - 1;
        // Height h of the whole tree: smallest h with cap(h) >= n, where
        // cap(h) = 1 + k + ... + k^h.
        let mut cap = 1usize; // cap(0)
        let mut level_cap = 1usize; // k^0
        let mut h = 0usize;
        while cap < n {
            h += 1;
            level_cap = level_cap.saturating_mul(k);
            cap = cap.saturating_add(level_cap);
        }
        // Each child is a tree of height <= h - 1. Fully-interior part per
        // child: cap(h - 2) nodes; the last level (k^{h-1} slots per
        // child) is filled left to right.
        let mut interior = 0usize; // cap(h-2)
        let mut lc = 1usize;
        for _ in 0..h.saturating_sub(1) {
            interior += lc;
            lc *= k;
        }
        let last_total = rest.saturating_sub(interior * k);
        debug_assert!(rest >= interior * k, "n={n} k={k} h={h}");
        // With interior nodes every child is non-empty; otherwise (h <= 1)
        // each child is a single last-level node.
        let count = if h == 0 {
            0
        } else if interior > 0 {
            k
        } else {
            last_total.min(k)
        };
        CompleteSplit {
            interior,
            per_child: lc,
            last_total,
            count,
        }
    }

    /// Size of child `i < count`.
    #[inline]
    fn size(&self, i: usize) -> usize {
        self.interior
            + self
                .per_child
                .min(self.last_total.saturating_sub(i * self.per_child))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::KstTree;

    /// Depth of every node (root = 0).
    fn depths(s: &ShapeTree) -> Vec<u32> {
        (0..s.len())
            .map(|mut v| {
                let mut d = 0;
                while s.parent[v] != NIL {
                    v = s.parent[v] as usize;
                    d += 1;
                }
                d
            })
            .collect()
    }

    fn height(s: &ShapeTree) -> u32 {
        depths(s).into_iter().max().unwrap_or(0)
    }

    #[test]
    fn complete_sizes_sum() {
        for k in 2..=10 {
            for n in 1..200 {
                let sizes = complete_child_sizes(n, k);
                assert_eq!(sizes.iter().sum::<usize>(), n - 1, "n={n} k={k}");
                assert!(sizes.len() <= k);
            }
        }
    }

    /// The last level filled one child at a time, as a reference for the
    /// closed form.
    fn child_sizes_by_filling(n: usize, k: usize) -> Vec<usize> {
        let mut h = 0u32;
        while (0..=h).map(|e| k.pow(e)).sum::<usize>() < n {
            h += 1;
        }
        if h == 0 {
            return Vec::new();
        }
        let interior: usize = (0..h - 1).map(|e| k.pow(e)).sum();
        let per_child = k.pow(h - 1);
        let mut last = n - 1 - interior * k;
        let mut sizes = Vec::new();
        for _ in 0..k {
            let take = last.min(per_child);
            last -= take;
            if interior + take > 0 {
                sizes.push(interior + take);
            }
        }
        sizes
    }

    #[test]
    fn complete_sizes_match_filling_the_last_level() {
        for k in 2..=10 {
            for n in 1..2000 {
                assert_eq!(
                    complete_child_sizes(n, k),
                    child_sizes_by_filling(n, k),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn balanced_height_is_logarithmic() {
        for k in 2..=10usize {
            for n in [1usize, 2, 10, 100, 1000] {
                let s = ShapeTree::balanced_kary(n, k);
                assert_eq!(s.len(), n);
                s.validate(k).unwrap();
                // height <= ceil(log_k(n(k-1)+1)) (complete tree bound)
                let mut cap = 1usize;
                let mut lvl = 1usize;
                let mut h = 0u32;
                while cap < n {
                    lvl *= k;
                    cap += lvl;
                    h += 1;
                }
                assert_eq!(height(&s), h, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn complete_tree_is_level_filled() {
        // All levels except the last are full.
        for k in 2..=5usize {
            for n in [7usize, 13, 40, 121] {
                let s = ShapeTree::balanced_kary(n, k);
                let depths = depths(&s);
                for lvl in 0..height(&s) {
                    let cnt = depths.iter().filter(|&&d| d == lvl).count();
                    assert_eq!(cnt, k.pow(lvl), "level {lvl} of n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn balanced_own_key_follows_half_the_children() {
        for (n, k) in [(37usize, 3usize), (100, 5), (64, 2)] {
            let s = ShapeTree::balanced_kary(n, k);
            for v in 0..n as u32 {
                let kids: Vec<u32> = (0..n as u32)
                    .filter(|&c| s.parent[c as usize] == v)
                    .collect();
                let below = kids.iter().filter(|&&c| c < v).count();
                assert_eq!(below, kids.len().div_ceil(2), "node {v} of n={n} k={k}");
            }
        }
    }

    #[test]
    fn fill_balanced_composes() {
        // [7 keys] | root | [4 keys]
        let mut s = ShapeTree {
            parent: vec![NIL; 12],
            root: 7,
        };
        let a = s.fill_balanced(0, 7, 3, 7);
        let b = s.fill_balanced(8, 4, 3, 7);
        s.validate(3).unwrap();
        assert_eq!((s.parent[a as usize], s.parent[b as usize]), (7, 7));
        let mut left = ShapeTree {
            parent: s.parent[..7].to_vec(),
            root: a,
        };
        left.parent[a as usize] = NIL;
        assert_eq!(left, ShapeTree::balanced_kary(7, 3));
    }

    #[test]
    fn validate_rejects_each_malformed_shape() {
        let shape = |parent: Vec<u32>, root: u32| ShapeTree { parent, root };
        for (label, s, k, want) in [
            ("two roots", shape(vec![NIL, NIL, 1], 0), 2, "both roots"),
            ("cycle", shape(vec![NIL, 2, 1], 0), 2, "reachable"),
            ("parent out of range", shape(vec![NIL, 5], 0), 2, "outside"),
            ("root out of range", shape(vec![NIL], 3), 2, "outside"),
            ("parented root", shape(vec![1, 0], 0), 2, "has a parent"),
            ("over-full node", shape(vec![NIL, 0, 0, 0], 0), 2, "> k = 2"),
            // Keys {1, 3, 4} under key 4, key 2 at the root.
            (
                "key hole",
                shape(vec![3, NIL, 3, 1], 1),
                3,
                "spans offsets 0..=3 but holds 3",
            ),
        ] {
            let err = s.validate(k).expect_err(label);
            assert!(err.contains(want), "{label}: {err}");
        }
        assert!(shape(vec![NIL, 0, 0, 0], 0).validate(3).is_ok());
        assert!(shape(Vec::new(), 0).validate(2).is_ok());
    }

    #[test]
    fn weight_balanced_with_no_demand_is_exactly_balanced() {
        for k in 2..=6usize {
            for n in [1usize, 13, 100, 1000] {
                assert_eq!(
                    ShapeTree::weight_balanced(n, k, &[]),
                    ShapeTree::balanced_kary(n, k),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn weight_balanced_is_valid() {
        let hots: Vec<Vec<(NodeKey, u64)>> = vec![
            vec![(1, 1000)],
            vec![(50, 7), (51, 9000), (99, 3)],
            vec![(3, 1), (10, 1), (20, 1), (80, 1)],
            (1..=100)
                .map(|key| (key, key as u64 * key as u64))
                .collect(),
        ];
        for k in 2..=6usize {
            for n in [100usize, 257, 1000] {
                for hot in &hots {
                    let s = ShapeTree::weight_balanced(n, k, hot);
                    assert_eq!(s.len(), n, "n={n} k={k}");
                    s.validate(k).unwrap();
                }
            }
        }
    }

    #[test]
    fn weight_balanced_puts_dominant_keys_near_the_root() {
        let n = 4096;
        for k in [2usize, 4] {
            for hot_key in [1 as NodeKey, 2000, 4096] {
                let s = ShapeTree::weight_balanced(n, k, &[(hot_key, 1_000_000)]);
                s.validate(k).unwrap();
                let depth = depths(&s)[hot_key as usize - 1];
                assert!(
                    depth <= 1,
                    "key {hot_key} with dominant weight sits at depth {depth} (k={k})"
                );
            }
        }
    }

    #[test]
    fn arity_256_builds_validates_and_materializes() {
        let k = 256;
        let s = ShapeTree::weight_balanced(600, k, &[(600, 1_000_000)]);
        s.validate(k).unwrap();
        assert_eq!(s.root, 599);
        assert_eq!(s.parent.iter().filter(|&&p| p == s.root).count(), k);
        let t = KstTree::from_shape(k, &s);
        crate::invariants::validate(&t).unwrap();
        assert_eq!(t.key_of(t.root()), 600);
    }

    #[test]
    fn weight_balanced_depth_stays_logarithmic_under_skew() {
        // A hot set plus a cold tail must not degenerate into a path: the
        // base weight of 1 per key keeps cold regions complete-balanced.
        let n = 10_000;
        let hot: Vec<(NodeKey, u64)> = (0..32).map(|i| (1 + i * 311, 1u64 << (i % 20))).collect();
        for k in [2usize, 3, 8] {
            let s = ShapeTree::weight_balanced(n, k, &hot);
            s.validate(k).unwrap();
            let bound = 4 * ((n as f64).log2() / (k as f64).log2()).ceil() as u32 + 8;
            assert!(
                height(&s) <= bound,
                "height {} exceeds {bound} (k={k})",
                height(&s)
            );
        }
    }

    #[test]
    fn weight_balanced_is_deterministic() {
        let hot = vec![(5 as NodeKey, 42u64), (900, 17), (901, 17)];
        let a = ShapeTree::weight_balanced(1000, 3, &hot);
        let b = ShapeTree::weight_balanced(1000, 3, &hot);
        assert_eq!(a, b);
    }
}
