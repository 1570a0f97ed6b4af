//! Rooted ordered tree *shapes* with in-order key assignment.
//!
//! Several constructions in the paper fix a tree shape first and distribute
//! keys afterwards so that the search property holds (Section 3.2: "we can
//! first fix the tree structure and then distribute the keys"). A
//! [`ShapeTree`] is such a shape: an ordered rooted tree where each node has
//! a list of ordered children plus a `key_gap` saying between which children
//! the node's *own* key falls in the in-order sequence of its subtree.
//!
//! Shapes are produced by the balanced builder here, by the dynamic programs
//! in `kst-statics`, and by the centroid construction; they are consumed by
//! the arena-tree builder (`KstTree::from_shape`) and by the static distance
//! evaluator.

use crate::key::NodeKey;

/// Largest supported arity: a node's own-key position
/// ([`ShapeTree::key_gap`]) is a `u8`, so a node may have at most 255
/// children.
pub const MAX_ARITY: usize = 255;

/// An ordered rooted tree shape with a per-node in-order position for the
/// node's own key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeTree {
    /// `children[v]` lists the ordered children of shape node `v`.
    pub children: Vec<Vec<u32>>,
    /// The node's own key precedes child `key_gap[v]` in its in-order
    /// sequence (so `key_gap[v] == children[v].len()` puts it last).
    pub key_gap: Vec<u8>,
    /// Root shape node.
    pub root: u32,
}

impl ShapeTree {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True when the shape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Builds the complete ("full" in the paper's terminology, Section 5)
    /// k-ary tree shape on `n` nodes: every level fully filled except the
    /// last, whose nodes are grouped to the left.
    ///
    /// The own-key gap is placed at the middle child to keep in-order keys
    /// near the subtree median.
    pub fn balanced_kary(n: usize, k: usize) -> ShapeTree {
        assert!(k >= 2, "arity must be at least 2");
        assert!(k <= MAX_ARITY, "arity {k} exceeds MAX_ARITY = {MAX_ARITY}");
        let mut shape = ShapeTree {
            children: Vec::with_capacity(n),
            key_gap: Vec::with_capacity(n),
            root: 0,
        };
        if n == 0 {
            return shape;
        }
        let root = build_complete(&mut shape, n, k);
        shape.root = root;
        shape
    }

    /// Builds a **weight-balanced** k-ary search tree shape on keys
    /// `1..=n` from observed per-key frequencies: every key gets a base
    /// weight of 1 plus its observed frequency from `hot` (a by-key sorted
    /// `(key, frequency)` list, keys in `1..=n`, typically
    /// `SparseDemand::key_weights`), and each node takes the weighted
    /// median of its key range as its own key, splitting the remainder
    /// into up to `k` child ranges of roughly equal weight.
    ///
    /// Hot keys therefore sit near the root (weighted depth is
    /// logarithmic in total weight), while regions with **no** observed
    /// demand degrade to the complete balanced subtree — with an empty
    /// `hot` the result is exactly [`ShapeTree::balanced_kary`]. A dense
    /// prefix array over the keys makes every range weight O(1), so the
    /// build costs O(n) for the prefix and the shape plus O(k · log size)
    /// binary-search probes per node of a range holding hot keys — no
    /// O(n³)-ish DP, which is what makes lazy rebuilds viable at 10⁶–10⁷
    /// nodes.
    ///
    /// Fully deterministic: same `n`, `k`, `hot` → same shape.
    pub fn weight_balanced(n: usize, k: usize, hot: &[(NodeKey, u64)]) -> ShapeTree {
        assert!(k >= 2, "arity must be at least 2");
        assert!(k <= MAX_ARITY, "arity {k} exceeds MAX_ARITY = {MAX_ARITY}");
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
        let mut shape = ShapeTree {
            children: Vec::with_capacity(n),
            key_gap: Vec::with_capacity(n),
            root: 0,
        };
        if n == 0 {
            return shape;
        }
        let wb = WeightIndex::new(n, hot);

        // Explicit work stack (DFS preorder): a pathological weight profile
        // must not be able to overflow the call stack at 10⁶ nodes. Jobs
        // pop in left-to-right order, so appending each new node to its
        // parent's child list as it pops preserves child order.
        const NO_PARENT: u32 = u32::MAX;
        let mut stack: Vec<(NodeKey, NodeKey, u32)> = vec![(1, n as NodeKey, NO_PARENT)];
        let mut ranges: Vec<(NodeKey, NodeKey)> = Vec::with_capacity(2 * k);
        while let Some((a, b, parent)) = stack.pop() {
            let id = if wb.weight(a, b) == (b - a + 1) as u64 {
                // Cold range: no observed demand — fall back to the
                // complete balanced subtree (O(size), no searches).
                shape.push_balanced_subtree((b - a + 1) as usize, k)
            } else {
                let id = shape.push_leaf();
                let m = wb.weighted_median(a, b);
                ranges.clear();
                let cl = wb.split_around(a, b, m, k, &mut ranges);
                shape.key_gap[id as usize] = cl as u8;
                for &(ca, cb) in ranges.iter().rev() {
                    stack.push((ca, cb, id));
                }
                id
            };
            if parent == NO_PARENT {
                shape.root = id;
            } else {
                shape.children[parent as usize].push(id);
            }
        }
        debug_assert_eq!(shape.len(), n);
        shape
    }

    /// Subtree sizes (number of shape nodes, including the node itself).
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let n = self.len();
        let mut sizes = vec![0usize; n];
        // Iterative post-order to avoid recursion depth limits on long paths.
        let mut stack: Vec<(u32, usize)> = vec![(self.root, 0)];
        while let Some(&(v, ci)) = stack.last() {
            if ci < self.children[v as usize].len() {
                // ksan-allow: panic-surface the while-let guard just yielded this top-of-stack entry
                stack.last_mut().unwrap().1 += 1;
                stack.push((self.children[v as usize][ci], 0));
            } else {
                stack.pop();
                let mut s = 1usize;
                for &c in &self.children[v as usize] {
                    s += sizes[c as usize];
                }
                sizes[v as usize] = s;
            }
        }
        sizes
    }

    /// Assigns keys `first_key..first_key + n` to shape nodes by an in-order
    /// walk that respects each node's `key_gap`. Returns the key per shape
    /// node.
    pub fn assign_keys(&self, first_key: NodeKey) -> Vec<NodeKey> {
        let n = self.len();
        let mut keys = vec![0 as NodeKey; n];
        if n == 0 {
            return keys;
        }
        // Iterative in-order: state = (node, next child position to visit).
        let mut next = first_key;
        let mut stack: Vec<(u32, usize)> = vec![(self.root, 0)];
        while let Some(&(v, pos)) = stack.last() {
            let cs = &self.children[v as usize];
            let gap = self.key_gap[v as usize] as usize;
            if pos == gap && keys[v as usize] == 0 {
                keys[v as usize] = next;
                next += 1;
                if pos == cs.len() {
                    stack.pop();
                    continue;
                }
            }
            if pos < cs.len() {
                // ksan-allow: panic-surface the while-let guard just yielded this top-of-stack entry
                stack.last_mut().unwrap().1 += 1;
                stack.push((cs[pos], 0));
            } else {
                if keys[v as usize] == 0 {
                    keys[v as usize] = next;
                    next += 1;
                }
                stack.pop();
            }
        }
        debug_assert_eq!(next, first_key + n as NodeKey);
        keys
    }

    /// Checks structural sanity: every node except the root has exactly one
    /// parent, children counts are within `k`, and `key_gap` is in range.
    ///
    /// Panics if `k` exceeds [`MAX_ARITY`].
    pub fn validate(&self, k: usize) -> Result<(), String> {
        assert!(k <= MAX_ARITY, "arity {k} exceeds MAX_ARITY = {MAX_ARITY}");
        let n = self.len();
        let mut seen = vec![false; n];
        let mut stack = vec![self.root];
        let mut visited = 0usize;
        while let Some(v) = stack.pop() {
            let v = v as usize;
            if seen[v] {
                return Err(format!("shape node {v} reached twice"));
            }
            seen[v] = true;
            visited += 1;
            if self.children[v].len() > k {
                return Err(format!(
                    "shape node {v} has {} > k = {k} children",
                    self.children[v].len()
                ));
            }
            if (self.key_gap[v] as usize) > self.children[v].len() {
                return Err(format!("shape node {v} key_gap out of range"));
            }
            for &c in &self.children[v] {
                stack.push(c);
            }
        }
        if visited != n {
            return Err(format!("only {visited} of {n} shape nodes reachable"));
        }
        Ok(())
    }

    /// Appends a complete k-ary subtree shape on `n >= 1` nodes into this
    /// arena and returns its root shape id (used to assemble composite
    /// topologies such as the centroid (k+1)-SplayNet).
    pub fn push_balanced_subtree(&mut self, n: usize, k: usize) -> u32 {
        assert!(n >= 1);
        build_complete(self, n, k)
    }

    /// Appends a single childless shape node and returns its id.
    pub fn push_leaf(&mut self) -> u32 {
        let id = self.children.len() as u32;
        self.children.push(Vec::new());
        self.key_gap.push(0);
        id
    }

    /// Depth of every node (root = 0).
    pub fn depths(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.len()];
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            for &c in &self.children[v as usize] {
                d[c as usize] = d[v as usize] + 1;
                stack.push(c);
            }
        }
        d
    }

    /// Height (max depth) of the shape; 0 for a single node.
    pub fn height(&self) -> u32 {
        self.depths().into_iter().max().unwrap_or(0)
    }
}

/// Dense prefix-weight index over keys `1..=n` backing
/// [`ShapeTree::weight_balanced`]: every range weight is one subtraction,
/// so each probe of the split searches is O(1). 8 B per key while the
/// build runs.
struct WeightIndex {
    /// `pre[i]` = weight of keys `1..=i`: `i` plus their hot frequencies.
    pre: Vec<u64>,
}

impl WeightIndex {
    fn new(n: usize, hot: &[(NodeKey, u64)]) -> WeightIndex {
        let mut pre = vec![1u64; n + 1];
        pre[0] = 0;
        for &(key, w) in hot {
            pre[key as usize] += w;
        }
        for i in 1..=n {
            pre[i] += pre[i - 1];
        }
        WeightIndex { pre }
    }

    /// Weight of key range `[a, b]`: base 1 per key plus hot frequencies.
    fn weight(&self, a: NodeKey, b: NodeKey) -> u64 {
        let before = (a - 1) as usize;
        self.pre[b as usize] - self.pre[before]
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
    /// in order and returns the number of left-side children (the node's
    /// `key_gap`).
    fn split_around(
        &self,
        a: NodeKey,
        b: NodeKey,
        m: NodeKey,
        k: usize,
        out: &mut Vec<(NodeKey, NodeKey)>,
    ) -> usize {
        let sl = (m - a) as usize;
        let sr = (b - m) as usize;
        if sl == 0 && sr == 0 {
            return 0;
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
        cl
    }
}

/// Splits `n` nodes of a complete k-ary tree into the sizes of the root's
/// child subtrees (last level filled left to right).
pub fn complete_child_sizes(n: usize, k: usize) -> Vec<usize> {
    debug_assert!(n >= 1);
    let rest = n - 1;
    if rest == 0 {
        return Vec::new();
    }
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
    if h == 0 {
        return Vec::new();
    }
    // Each child is a tree of height <= h - 1. Fully-interior part per child:
    // cap(h - 2) nodes; the last level (k^{h-1} slots per child) is filled
    // left to right.
    let mut interior_child = 0usize; // cap(h-2)
    let mut lc = 1usize;
    for _ in 0..h.saturating_sub(1) {
        interior_child += lc;
        lc *= k;
    }
    let last_per_child = lc; // k^{h-1}
    let interior_total = interior_child * k;
    let last_total = rest.saturating_sub(interior_total);
    debug_assert!(rest >= interior_total, "n={n} k={k} h={h}");
    let mut sizes = Vec::with_capacity(k);
    let mut remaining_last = last_total;
    for _ in 0..k {
        let take = remaining_last.min(last_per_child);
        remaining_last -= take;
        let s = interior_child + take;
        if s > 0 {
            sizes.push(s);
        }
    }
    debug_assert_eq!(sizes.iter().sum::<usize>(), rest);
    sizes
}

fn build_complete(shape: &mut ShapeTree, n: usize, k: usize) -> u32 {
    let id = shape.children.len() as u32;
    shape.children.push(Vec::new());
    shape.key_gap.push(0);
    let sizes = complete_child_sizes(n, k);
    let mut kids = Vec::with_capacity(sizes.len());
    for s in &sizes {
        kids.push(build_complete(shape, *s, k));
    }
    let gap = kids.len().div_ceil(2);
    shape.children[id as usize] = kids;
    shape.key_gap[id as usize] = gap as u8;
    id
}

#[cfg(test)]
mod tests {
    use super::*;

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
                assert_eq!(s.height(), h, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn complete_tree_is_level_filled() {
        // All levels except the last are full.
        for k in 2..=5usize {
            for n in [7usize, 13, 40, 121] {
                let s = ShapeTree::balanced_kary(n, k);
                let depths = s.depths();
                let h = s.height();
                for lvl in 0..h {
                    let cnt = depths.iter().filter(|&&d| d == lvl).count();
                    assert_eq!(cnt, k.pow(lvl), "level {lvl} of n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn push_subtree_and_leaf_compose() {
        let mut s = ShapeTree {
            children: Vec::new(),
            key_gap: Vec::new(),
            root: 0,
        };
        let root = s.push_leaf();
        let a = s.push_balanced_subtree(7, 3);
        let b = s.push_balanced_subtree(4, 3);
        s.children[root as usize] = vec![a, b];
        s.key_gap[root as usize] = 1;
        s.root = root;
        assert_eq!(s.len(), 12);
        s.validate(3).unwrap();
        let mut keys = s.assign_keys(1);
        keys.sort_unstable();
        assert_eq!(keys, (1..=12).collect::<Vec<_>>());
    }

    #[test]
    fn validate_rejects_overfull_nodes() {
        let mut s = ShapeTree {
            children: Vec::new(),
            key_gap: Vec::new(),
            root: 0,
        };
        let root = s.push_leaf();
        let kids: Vec<u32> = (0..4).map(|_| s.push_leaf()).collect();
        s.children[root as usize] = kids;
        s.root = root;
        assert!(
            s.validate(3).is_err(),
            "4 children must not validate at k=3"
        );
        assert!(s.validate(4).is_ok());
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
    fn weight_balanced_is_valid_and_keys_are_a_permutation() {
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
                    let mut keys = s.assign_keys(1);
                    keys.sort_unstable();
                    assert_eq!(keys, (1..=n as NodeKey).collect::<Vec<_>>());
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
                let keys = s.assign_keys(1);
                let depths = s.depths();
                let node = keys.iter().position(|&key| key == hot_key).unwrap();
                assert!(
                    depths[node] <= 1,
                    "key {hot_key} with dominant weight sits at depth {} (k={k})",
                    depths[node]
                );
            }
        }
    }

    #[test]
    fn max_arity_hot_key_sits_at_the_root() {
        let s = ShapeTree::weight_balanced(600, MAX_ARITY, &[(600, 1_000_000)]);
        s.validate(MAX_ARITY).unwrap();
        assert_eq!(s.children[s.root as usize].len(), MAX_ARITY);
        assert_eq!(s.assign_keys(1)[s.root as usize], 600);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_ARITY")]
    fn weight_balanced_rejects_arity_past_max() {
        ShapeTree::weight_balanced(600, MAX_ARITY + 1, &[(600, 1_000_000)]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_ARITY")]
    fn balanced_kary_rejects_arity_past_max() {
        ShapeTree::balanced_kary(600, MAX_ARITY + 1);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_ARITY")]
    fn validate_rejects_arity_past_max() {
        let _ = ShapeTree::balanced_kary(10, 2).validate(MAX_ARITY + 1);
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
                s.height() <= bound,
                "height {} exceeds {bound} (k={k})",
                s.height()
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

    #[test]
    fn keys_are_a_permutation() {
        for k in 2..=6 {
            for n in [1usize, 5, 37, 100] {
                let s = ShapeTree::balanced_kary(n, k);
                let mut keys = s.assign_keys(1);
                keys.sort_unstable();
                let want: Vec<NodeKey> = (1..=n as NodeKey).collect();
                assert_eq!(keys, want, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn inorder_keys_respect_child_order() {
        // For every node: keys of child i are all smaller than keys of
        // child i+1, and the own key sits in gap `key_gap`.
        for (n, k) in [(37usize, 3usize), (100, 5), (64, 2)] {
            let s = ShapeTree::balanced_kary(n, k);
            let keys = s.assign_keys(1);
            let sizes = s.subtree_sizes();
            fn min_max(s: &ShapeTree, keys: &[NodeKey], v: u32) -> (NodeKey, NodeKey) {
                let mut lo = keys[v as usize];
                let mut hi = keys[v as usize];
                for &c in &s.children[v as usize] {
                    let (a, b) = min_max(s, keys, c);
                    lo = lo.min(a);
                    hi = hi.max(b);
                }
                (lo, hi)
            }
            for v in 0..n as u32 {
                let cs = &s.children[v as usize];
                let mut prev_hi = 0;
                for (i, &c) in cs.iter().enumerate() {
                    let (lo, hi) = min_max(&s, &keys, c);
                    assert!(lo > prev_hi);
                    if i == s.key_gap[v as usize] as usize {
                        assert!(keys[v as usize] < lo);
                    }
                    if i + 1 == s.key_gap[v as usize] as usize {
                        assert!(keys[v as usize] > hi);
                    }
                    prev_hi = hi;
                }
            }
            let _ = sizes;
        }
    }
}
