//! Whole-tree invariant checking (used pervasively in tests and property
//! tests; not on the hot path).
//!
//! The invariants are the paper's Definition 1 plus the engineering
//! invariants of this implementation:
//!
//! 1. parent/child symmetry and a single root; all `n` nodes reachable.
//! 2. every node carries exactly `k - 1` strictly increasing routing
//!    elements, none of which is a key image.
//! 3. search property: a node's key image and all its elements lie strictly
//!    inside its (exact) enclosing gap; the subtree in slot `j` lies
//!    strictly between elements `j-1` and `j`.
//! 4. the global element multiset has `n (k - 1)` values (conservation is
//!    asserted by callers comparing snapshots across operations).

use crate::key::{image_key, key_image, NodeIdx, RoutingKey, NIL};
use crate::tree::KstTree;

/// Validates all structural invariants; returns a description of the first
/// violation found.
pub fn validate(t: &KstTree) -> Result<(), String> {
    let n = t.n();
    let k = t.k();
    if n == 0 {
        return Ok(());
    }
    if t.parent(t.root()) != NIL {
        return Err("root has a parent".into());
    }
    // Link symmetry.
    let mut child_count = vec![0usize; n];
    for v in t.nodes() {
        for (j, &c) in t.children(v).iter().enumerate() {
            if c == NIL {
                continue;
            }
            if c as usize >= n {
                return Err(format!("node {v} slot {j} points out of arena"));
            }
            if t.parent(c) != v {
                return Err(format!(
                    "child key {} of key {} has parent {}",
                    c + 1,
                    v + 1,
                    t.parent(c) + 1
                ));
            }
            child_count[c as usize] += 1;
        }
    }
    for v in t.nodes() {
        let expect = if v == t.root() { 0 } else { 1 };
        if child_count[v as usize] != expect {
            return Err(format!(
                "key {} appears in {} child slots (expected {expect})",
                v + 1,
                child_count[v as usize]
            ));
        }
    }
    // Elements sorted, non-image; search property via DFS with exact gaps.
    let mut visited = 0usize;
    let mut stack: Vec<(NodeIdx, RoutingKey, RoutingKey)> = vec![(t.root(), 0, RoutingKey::MAX)];
    while let Some((v, lo, hi)) = stack.pop() {
        visited += 1;
        let es = t.elems(v);
        for w in es.windows(2) {
            if w[0] >= w[1] {
                return Err(format!("key {}: elements not increasing", v + 1));
            }
        }
        for &e in es {
            if image_key(e, k).is_some() {
                return Err(format!("key {}: element {e} is a key image", v + 1));
            }
            if e <= lo || e >= hi {
                return Err(format!(
                    "key {}: element {e} outside gap ({lo}, {hi})",
                    v + 1
                ));
            }
        }
        let img = key_image(v + 1, k);
        if img <= lo || img >= hi {
            return Err(format!("key {} image outside its gap ({lo}, {hi})", v + 1));
        }
        let cs = t.children(v);
        if cs.len() != k {
            return Err(format!("key {}: wrong slot count", v + 1));
        }
        for (j, &c) in cs.iter().enumerate() {
            if c == NIL {
                continue;
            }
            let glo = if j == 0 { lo } else { es[j - 1] };
            let ghi = if j == k - 1 { hi } else { es[j] };
            stack.push((c, glo, ghi));
        }
    }
    if visited != n {
        return Err(format!("only {visited}/{n} nodes reachable from root"));
    }
    if t.element_multiset().len() != n * (k - 1) {
        return Err("element multiset size mismatch".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_trees_validate() {
        for k in 2..=8 {
            for n in [1usize, 4, 23, 100] {
                validate(&KstTree::balanced(k, n)).unwrap();
            }
        }
    }
}
