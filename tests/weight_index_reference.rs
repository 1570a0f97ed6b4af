//! Differential guard for `ShapeTree::weight_balanced`'s weight index.
//!
//! The production builder answers each range-weight probe from one dense
//! prefix array over the fragment's keys. The reference below is the
//! earlier index, copied here as it was: prefix sums over the sparse hot
//! list only, with every probe two `partition_point` binary searches plus
//! the closed-form base weight. Both run the same search loops, so over
//! random profiles — empty, single-key, sparse, all-keys-hot and
//! end-key-heavy hot lists, weights up to 2⁴⁰, n ∈ 1..=300, k ∈ {2, 3, 4,
//! 5, 8, 255} — the shapes must be equal: every key's parent and the
//! root.
//!
//! The lazy planner builds each fragment on keys `[a, b]` from the slice
//! `[a − 1, b]` of one global frequency prefix, so the second test checks
//! `weight_balanced_from_prefix` on such slices, with `a > 1`, against the
//! reference on the range's hot keys shifted to local keys.

use ksan::core::NIL;
use ksan::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The earlier sparse prefix-sum index, kept verbatim.
struct SparseWeightIndex<'a> {
    hot: &'a [(NodeKey, u64)],
    /// `pre[i]` = sum of the first `i` hot frequencies.
    pre: Vec<u64>,
}

impl<'a> SparseWeightIndex<'a> {
    fn new(hot: &'a [(NodeKey, u64)]) -> SparseWeightIndex<'a> {
        let mut pre = Vec::with_capacity(hot.len() + 1);
        let mut acc = 0u64;
        pre.push(0);
        for &(_, w) in hot {
            acc += w;
            pre.push(acc);
        }
        SparseWeightIndex { hot, pre }
    }

    fn hot_weight(&self, a: NodeKey, b: NodeKey) -> u64 {
        let lo = self.hot.partition_point(|&(key, _)| key < a);
        let hi = self.hot.partition_point(|&(key, _)| key <= b);
        self.pre[hi] - self.pre[lo]
    }

    fn weight(&self, a: NodeKey, b: NodeKey) -> u64 {
        (b - a + 1) as u64 + self.hot_weight(a, b)
    }

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

    fn quantiles(&self, a: NodeKey, b: NodeKey, c: usize, out: &mut Vec<(NodeKey, NodeKey)>) {
        let total = self.weight(a, b);
        let mut start = a;
        for j in 1..c {
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
        let mut cl = ((k as u64 * wl + (wl + wr) / 2) / (wl + wr).max(1)) as usize;
        cl = cl.clamp(usize::from(sl > 0), k - usize::from(sr > 0));
        cl = cl.min(sl);
        let cr = (k - cl).min(sr);
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

/// The earlier `ShapeTree::weight_balanced` driver over the sparse index,
/// writing each node's parent by key: the median key `m` of a hot range
/// parents the roots of the range's child ranges, and a cold range is the
/// complete balanced subtree.
fn reference_weight_balanced(n: usize, k: usize, hot: &[(NodeKey, u64)]) -> ShapeTree {
    if hot.is_empty() {
        return ShapeTree::balanced_kary(n, k);
    }
    let mut shape = ShapeTree {
        parent: vec![NIL; n],
        root: 0,
    };
    let wb = SparseWeightIndex::new(hot);
    let mut stack: Vec<(NodeKey, NodeKey, u32)> = vec![(1, n as NodeKey, NIL)];
    let mut ranges: Vec<(NodeKey, NodeKey)> = Vec::with_capacity(2 * k);
    while let Some((a, b, parent)) = stack.pop() {
        let id = if wb.hot_weight(a, b) == 0 {
            shape.fill_balanced(a - 1, (b - a + 1) as usize, k, parent)
        } else {
            let m = wb.weighted_median(a, b);
            shape.parent[(m - 1) as usize] = parent;
            ranges.clear();
            wb.split_around(a, b, m, k, &mut ranges);
            for &(ca, cb) in ranges.iter().rev() {
                stack.push((ca, cb, m - 1));
            }
            m - 1
        };
        if parent == NIL {
            shape.root = id;
        }
    }
    shape
}

const MAX_WEIGHT: u64 = 1 << 40;

/// A random frequency: mostly small, sometimes up to 2⁴⁰, sometimes 0.
fn weight(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..8u32) {
        0 => 0,
        1 | 2 => rng.gen_range(1..=MAX_WEIGHT),
        _ => rng.gen_range(1..=1_000u64),
    }
}

/// The five profile kinds over keys `1..=n`, each a strictly key-sorted
/// hot list.
fn profiles(n: usize, rng: &mut StdRng) -> Vec<(&'static str, Vec<(NodeKey, u64)>)> {
    let n_key = n as NodeKey;
    let single = vec![(rng.gen_range(1..=n_key), rng.gen_range(1..=MAX_WEIGHT))];
    let mut sparse: Vec<(NodeKey, u64)> = (0..rng.gen_range(1..=8usize))
        .map(|_| (rng.gen_range(1..=n_key), weight(rng)))
        .collect();
    sparse.sort_unstable_by_key(|&(key, _)| key);
    sparse.dedup_by_key(|&mut (key, _)| key);
    let all_hot: Vec<(NodeKey, u64)> = (1..=n_key).map(|key| (key, weight(rng))).collect();
    let mut end_heavy = vec![(1, rng.gen_range(MAX_WEIGHT / 2..=MAX_WEIGHT))];
    for key in 2..n_key {
        if rng.gen_bool(0.1) {
            end_heavy.push((key, rng.gen_range(1..=100u64)));
        }
    }
    if n_key > 1 {
        end_heavy.push((n_key, rng.gen_range(MAX_WEIGHT / 2..=MAX_WEIGHT)));
    }
    vec![
        ("empty", Vec::new()),
        ("single", single),
        ("sparse", sparse),
        ("all_hot", all_hot),
        ("end_heavy", end_heavy),
    ]
}

#[test]
fn dense_weight_index_builds_the_sparse_index_shapes() {
    let mut rng = StdRng::seed_from_u64(0x5eed_1dec);
    for n in 1..=300usize {
        for k in [2usize, 3, 4, 5, 8, 255] {
            for (label, hot) in profiles(n, &mut rng) {
                let got = ShapeTree::weight_balanced(n, k, &hot);
                let want = reference_weight_balanced(n, k, &hot);
                assert_eq!(got, want, "{label} n={n} k={k}");
            }
        }
    }
}

/// The global prefix `pre[i]` = frequency of keys `1..=i`, as
/// `DemandView::weight_prefix` holds it.
fn global_prefix(n: usize, hot: &[(NodeKey, u64)]) -> Vec<u64> {
    let mut pre = vec![0u64; n + 1];
    for &(key, w) in hot {
        pre[key as usize] += w;
    }
    for i in 1..=n {
        pre[i] += pre[i - 1];
    }
    pre
}

#[test]
fn prefix_slices_build_the_sparse_index_shapes_of_sub_ranges() {
    let mut rng = StdRng::seed_from_u64(0x0ff5_e7ed);
    for n in 2..=160usize {
        for k in [2usize, 3, 4, 8] {
            for (label, hot) in profiles(n, &mut rng) {
                let pre = global_prefix(n, &hot);
                for _ in 0..4 {
                    let a = rng.gen_range(2..=n as NodeKey);
                    let b = rng.gen_range(a..=n as NodeKey);
                    let local: Vec<(NodeKey, u64)> = hot
                        .iter()
                        .filter(|&&(key, _)| a <= key && key <= b)
                        .map(|&(key, w)| (key - a + 1, w))
                        .collect();
                    let size = (b - a + 1) as usize;
                    let got = ShapeTree::weight_balanced_from_prefix(
                        k,
                        &pre[a as usize - 1..=b as usize],
                    );
                    let want = reference_weight_balanced(size, k, &local);
                    assert_eq!(got, want, "{label} n={n} k={k} [{a}, {b}]");
                }
            }
        }
    }
}
