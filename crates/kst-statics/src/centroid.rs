//! The centroid static construction (Section 3.2, Appendix B): a
//! (k+1)-degree tree whose centroid has `k + 1` weakly-complete k-ary
//! subtrees, with all levels full except the last and the last-level leaves
//! grouped to the left (Definition 5) — built in O(n) (Theorem 8) and
//! converted to a k-ary search tree by rooting at a leaf (Remark 7).

use crate::eval::DistTree;
use kst_core::shape::ShapeTree;
use kst_core::NIL;

/// Sizes of the `k + 1` centroid subtrees for `n` nodes (one entry per
/// subtree, zeros trimmed). Levels of the whole tree fill top-down, the
/// last level packs to the left.
pub fn centroid_subtree_sizes(n: usize, k: usize) -> Vec<usize> {
    assert!(k >= 2);
    assert!(n >= 1);
    let rest = n - 1;
    if rest == 0 {
        return Vec::new();
    }
    // Height H of the whole tree: smallest H such that
    // 1 + (k+1) · (k^H − 1)/(k − 1) ≥ n  (each subtree full of height H−1).
    let mut full_subtree = 0usize; // (k^H - 1)/(k-1) for current H
    let mut pow = 1usize; // k^H
    let mut h = 0usize;
    while 1 + (k + 1) * full_subtree < n {
        full_subtree += pow;
        pow *= k;
        h += 1;
    }
    // Interior (everything above the last level) per subtree: full of
    // height H−2, i.e. (k^{H-1} − 1)/(k − 1).
    let mut interior = 0usize;
    let mut last_per = 1usize; // k^{H-1}
    for _ in 0..h.saturating_sub(1) {
        interior += last_per;
        last_per *= k;
    }
    let mut rem_last = rest - (k + 1) * interior;
    let mut sizes = Vec::with_capacity(k + 1);
    for _ in 0..k + 1 {
        let take = rem_last.min(last_per);
        rem_last -= take;
        let s = interior + take;
        if s > 0 {
            sizes.push(s);
        }
    }
    debug_assert_eq!(sizes.iter().sum::<usize>(), rest);
    sizes
}

/// Builds the centroid k-ary search tree shape on `n` nodes in O(n):
/// the (k+1)-degree centroid tree rooted at its leftmost deepest leaf.
pub fn centroid_shape(n: usize, k: usize) -> ShapeTree {
    assert!(n >= 1);
    // 1. Build the undirected (k+1)-degree tree: centroid (node 0) plus
    //    k+1 weakly-complete k-ary subtrees.
    let sizes = centroid_subtree_sizes(n, k);
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut next_id = 1u32;
    // helper: append a complete k-ary subtree, return its root id
    fn build_subtree(adj: &mut [Vec<u32>], next_id: &mut u32, size: usize, k: usize) -> u32 {
        let root = *next_id;
        *next_id += 1;
        let child_sizes = kst_core::shape::complete_child_sizes(size, k);
        for cs in child_sizes {
            let c = build_subtree(adj, next_id, cs, k);
            adj[root as usize].push(c);
            adj[c as usize].push(root);
        }
        root
    }
    for &s in &sizes {
        let r = build_subtree(&mut adj, &mut next_id, s, k);
        adj[0].push(r);
        adj[r as usize].push(0);
    }
    debug_assert_eq!(next_id as usize, n);
    // 2. Root at a leaf: pick a deepest leaf of the *first* subtree (any
    //    leaf works for distances; Remark 7).
    let leaf = {
        // BFS from centroid, keep the last degree-1 node seen
        let mut best = 0u32;
        let mut seen = vec![false; n];
        let mut q = std::collections::VecDeque::from([0u32]);
        seen[0] = true;
        while let Some(v) = q.pop_front() {
            if adj[v as usize].len() == 1 {
                best = v;
            }
            for &w in &adj[v as usize] {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    q.push_back(w);
                }
            }
        }
        best
    };
    // 3. Orient from the leaf (children ≤ k since every node has degree
    //    ≤ k+1 and non-roots lose one neighbour to the parent) and hand
    //    out keys in order: each node's own key follows the first ⌈c/2⌉
    //    of its c children, taken in adjacency order. `(v, p, true)`
    //    emits v's key, `(v, p, false)` expands v below parent p.
    let mut up = vec![NIL; n];
    let mut key = vec![0u32; n];
    let mut next = 0u32;
    let mut stack = vec![(leaf, NIL, false)];
    while let Some((v, parent, emit)) = stack.pop() {
        if emit {
            key[v as usize] = next;
            next += 1;
            continue;
        }
        up[v as usize] = parent;
        let kids: Vec<u32> = adj[v as usize]
            .iter()
            .copied()
            .filter(|&w| w != parent)
            .collect();
        assert!(kids.len() <= k, "node degree exceeds k after rooting");
        let gap = kids.len().div_ceil(2);
        if gap == kids.len() {
            stack.push((v, parent, true));
        }
        for (i, &w) in kids.iter().enumerate().rev() {
            stack.push((w, v, false));
            if i == gap {
                stack.push((v, parent, true));
            }
        }
    }
    let mut shape = ShapeTree {
        parent: vec![NIL; n],
        root: key[leaf as usize],
    };
    for v in 0..n {
        if up[v] != NIL {
            shape.parent[key[v] as usize] = key[up[v] as usize];
        }
    }
    shape
}

/// Builds the centroid static topology (distance-query form).
pub fn centroid_tree(n: usize, k: usize) -> DistTree {
    DistTree::from_shape(&centroid_shape(n, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_tree::full_kary;

    #[test]
    fn sizes_sum_and_balance() {
        for k in 2..=10usize {
            for n in [2usize, 5, 10, 50, 100, 500, 1000] {
                let sizes = centroid_subtree_sizes(n, k);
                assert_eq!(sizes.iter().sum::<usize>(), n - 1, "n={n} k={k}");
                assert!(sizes.len() <= k + 1);
                // heights of subtrees differ by at most one level's worth:
                // max size bounded by full subtree, min ≥ interior
                if sizes.len() == k + 1 {
                    let max = *sizes.iter().max().unwrap();
                    let min = *sizes.iter().min().unwrap();
                    // all interiors are equal; difference only on last level
                    assert!(max - min <= max, "degenerate check n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn shape_is_valid_and_rooted_at_leaf() {
        for k in 2..=6usize {
            for n in [1usize, 2, 3, 10, 100, 321] {
                let s = centroid_shape(n, k);
                assert_eq!(s.len(), n, "n={n} k={k}");
                s.validate(k).unwrap_or_else(|e| panic!("n={n} k={k}: {e}"));
                if n >= 2 {
                    assert_eq!(
                        s.parent.iter().filter(|&&p| p == s.root).count(),
                        1,
                        "root must be a former leaf (single child), n={n} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn centroid_beats_or_ties_full_tree_on_uniform() {
        // Remark 10's practical observation, sampled.
        for k in [2usize, 3, 5] {
            for n in [50usize, 100, 500] {
                let c = centroid_tree(n, k).total_distance_uniform();
                let f = full_kary(n, k).total_distance_uniform();
                assert!(
                    c <= f,
                    "centroid ({c}) worse than full tree ({f}) at n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn construction_is_linear_in_spirit() {
        // smoke: large n builds fast and sums check out
        let t = centroid_tree(100_000, 4);
        assert_eq!(t.n(), 100_000);
        assert!(t.height() < 20);
    }
}
