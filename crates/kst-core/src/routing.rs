//! Local greedy packet routing over the search-tree network (Section 2:
//! "given a destination identifier each node can decide locally to which
//! neighbor to forward the packet using the search property").
//!
//! Forwarding rules at node `w` for a packet addressed to key `t`:
//!
//! 1. `t == key(w)` — deliver.
//! 2. `t` outside `w`'s interval — forward to the parent. The interval is
//!    not stored: it is the slot gap of `w`'s parent link in the parent's
//!    routing array (`(0, MAX)` at the root). The router keeps the
//!    intervals of the root → `w` path on a stack, seeded once by a search
//!    from the root to the source, pushing the child's gap on a down hop and
//!    popping on an up hop, so deriving them costs O(depth + hops) in total.
//! 3. otherwise `t` falls into exactly one slot gap `j` of `w`'s routing
//!    array: forward to child `j`, **unless** the packet just arrived from
//!    child `j` or the slot is empty, in which case forward to the parent.
//!
//! Rule 3's exception handles the "key dip" wrinkle the paper glosses over:
//! in a non-routing-based tree an internal node with `k` occupied slots
//! necessarily has its own key inside one child gap, so a descendant's
//! interval can contain an *ancestor's* key. A packet for that ancestor
//! descends, bottoms out at an empty slot, and climbs back — rule 3 makes
//! the climb monotone (never bouncing back down the gap it came from), so
//! routing always terminates and delivers; it may just be longer than the
//! tree distance. Routing-based trees (e.g. the classic binary SplayNet)
//! never detour. The simulator's *cost model* always charges the tree
//! distance, matching the paper; this module exists to demonstrate and
//! measure local routability.

use crate::key::{key_image, NodeIdx, NodeKey, RoutingKey, NIL};
use crate::tree::KstTree;

/// Outcome of routing one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTrace {
    /// Nodes visited, starting at the source and ending at the destination.
    pub hops: Vec<NodeIdx>,
}

impl RouteTrace {
    /// Number of links traversed.
    pub fn len(&self) -> u64 {
        (self.hops.len() - 1) as u64
    }

    /// True when source equals destination.
    pub fn is_empty(&self) -> bool {
        self.hops.len() <= 1
    }
}

/// Error when a packet exceeds its hop budget (would indicate an invariant
/// violation; never observed under valid trees — property-tested).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingLoop;

/// Routes a packet from `src` to `dst` using only per-node local state.
pub fn route(t: &KstTree, src: NodeKey, dst: NodeKey) -> Result<RouteTrace, RoutingLoop> {
    let k = t.k();
    let target = key_image(dst, k);
    let mut cur = t.node_of(src);
    let mut came_from: NodeIdx = NIL; // previous hop (child or parent)
    let mut hops = vec![cur];
    // Intervals of the root → `cur` path, `cur`'s on top (rule 2), seeded
    // by searching the source's key down from the root: the search
    // property puts it in the slot of the next ancestor at every level.
    let src_img = key_image(src, k);
    let mut intervals = vec![(0, RoutingKey::MAX)];
    let mut w = t.root();
    while w != cur {
        let j = t.elems(w).partition_point(|&e| e < src_img);
        intervals.push(slot_gap(t, w, j, intervals[intervals.len() - 1]));
        w = t.children(w)[j];
        if w == NIL {
            return Err(RoutingLoop); // search property violated
        }
    }
    let budget = 4 * t.n() as u64 + 16;
    for _ in 0..budget {
        if t.key_of(cur) == dst {
            return Ok(RouteTrace { hops });
        }
        let Some(&(lo, hi)) = intervals.last() else {
            break; // fell off the root: an invariant violation
        };
        let next = if target <= lo || target >= hi {
            // Rule 2: not under me.
            intervals.pop();
            t.parent(cur)
        } else {
            // Rule 3: find the slot gap containing the target.
            let j = t.elems(cur).partition_point(|&e| e < target);
            debug_assert!(j < k);
            let child = t.children(cur)[j];
            if child == NIL || child == came_from {
                intervals.pop();
                t.parent(cur)
            } else {
                intervals.push(slot_gap(t, cur, j, (lo, hi)));
                child
            }
        };
        debug_assert!(next != NIL, "packet fell off the root");
        came_from = cur;
        cur = next;
        hops.push(cur);
    }
    Err(RoutingLoop)
}

/// Interval of the child in slot `j` of `v`, whose own interval is
/// `(lo, hi)`.
fn slot_gap(
    t: &KstTree,
    v: NodeIdx,
    j: usize,
    (lo, hi): (RoutingKey, RoutingKey),
) -> (RoutingKey, RoutingKey) {
    let es = t.elems(v);
    let glo = if j == 0 { lo } else { es[j - 1] };
    let ghi = if j == es.len() { hi } else { es[j] };
    (glo, ghi)
}

/// Convenience: greedy route length, panicking on loops (for tests/benches).
pub fn route_len(t: &KstTree, src: NodeKey, dst: NodeKey) -> u64 {
    // ksan-allow: panic-surface documented panicking convenience wrapper; fallible callers use route() directly
    route(t, src, dst).expect("greedy routing looped").len()
}

/// Measures the detour overhead of greedy routing versus tree distance over
/// all ordered pairs of a (small) tree. Returns (total greedy, total
/// distance).
pub fn detour_totals(t: &KstTree) -> (u64, u64) {
    let n = t.n() as NodeKey;
    let mut greedy = 0u64;
    let mut dist = 0u64;
    for u in 1..=n {
        for v in 1..=n {
            if u == v {
                continue;
            }
            greedy += route_len(t, u, v);
            dist += t.distance_keys(u, v);
        }
    }
    (greedy, dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restructure::WindowPolicy;
    use crate::splay::SplayStrategy;

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn routes_deliver_on_balanced_trees() {
        for k in 2..=7 {
            let t = KstTree::balanced(k, 64);
            for u in 1..=64u32 {
                for v in 1..=64u32 {
                    let r = route(&t, u, v).unwrap();
                    assert_eq!(*r.hops.last().unwrap(), t.node_of(v));
                    assert!(r.len() >= t.distance_keys(u, v));
                }
            }
        }
    }

    #[test]
    fn routes_deliver_after_heavy_splaying() {
        for k in [2usize, 3, 5] {
            let mut t = KstTree::balanced(k, 80);
            let mut x = 3u64;
            for _ in 0..400 {
                let v = (xorshift(&mut x) % 80) as NodeIdx;
                if t.depth(v) >= 2 {
                    t.k_splay(v, WindowPolicy::Paper);
                }
            }
            for u in (1..=80u32).step_by(3) {
                for v in (1..=80u32).step_by(7) {
                    let r = route(&t, u, v)
                        .unwrap_or_else(|_| panic!("routing loop k={k} u={u} v={v}"));
                    assert_eq!(*r.hops.last().unwrap(), t.node_of(v));
                }
            }
        }
    }

    #[test]
    fn routes_deliver_after_splay_until_sequences() {
        let mut t = KstTree::balanced(4, 120);
        let mut x = 11u64;
        for _ in 0..200 {
            let v = (xorshift(&mut x) % 120) as NodeIdx;
            t.splay_until(v, NIL, SplayStrategy::KSplay, WindowPolicy::Paper);
        }
        let (greedy, dist) = detour_totals(&t);
        assert!(greedy >= dist);
        // Detours exist but stay modest in practice.
        assert!(
            greedy <= 3 * dist,
            "greedy {greedy} vs distance {dist}: unexpectedly large detours"
        );
    }

    #[test]
    fn route_to_self_is_empty() {
        let t = KstTree::balanced(3, 10);
        let r = route(&t, 4, 4).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }
}
