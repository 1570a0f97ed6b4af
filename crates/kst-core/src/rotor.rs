//! **Rotor-walk tree** network (after Avin et al., *Deterministic
//! Self-Adjusting Tree Networks Using Rotor Walks*, PAPERS.md), adapted to
//! this repo's pair-communication cost model.
//!
//! Like [`crate::pushdown::PushDownNet`], the link structure is a fixed
//! complete k-ary tree of positions and adjustments permute occupants; the
//! serve body and the promotion guards are
//! [`CompleteTopology::serve_with`]'s. The difference is *where the
//! displaced occupant goes*: a promotion at parent position `q` consults a
//! deterministic **rotor pointer** at `q` that cycles round-robin over
//! `q`'s children. The promoted endpoint takes `q`; the old occupant of `q`
//! is pushed down into the rotor-chosen child; the evicted child occupant
//! back-fills the promoted endpoint's old slot (a 3-cycle — or a plain
//! swap when the rotor happens to point at the endpoint's own slot). The
//! rotor then advances one step. The topology journals the positions each
//! move writes, so `links_changed` stays exact without the net naming them.
//!
//! Rotor walks derandomise "push the loser somewhere fair": every child
//! slot of a busy position absorbs displaced occupants equally often, so no
//! subtree becomes a dumping ground, without any randomness — the whole
//! net is a deterministic function of the request sequence, which is what
//! makes the bit-identical replay and threaded-vs-sequential engine tests
//! possible (`tests/engine_differential.rs`). Fairness and exact
//! `links_changed` accounting are proptested (`tests/proptests.rs`).

use crate::complete::CompleteTopology;
use crate::key::NodeKey;
use crate::net::{Network, ServeCost};

/// Deterministic self-adjusting complete k-ary tree driven by per-position
/// rotor pointers. See the module docs for the discipline.
#[derive(Debug, Clone)]
pub struct RotorWalkNet {
    top: CompleteTopology,
    /// Next child slot each position will push a displaced occupant into.
    rotor: Vec<u32>,
}

impl RotorWalkNet {
    /// Builds a `k`-ary rotor-walk tree over keys `1..=n` in level order,
    /// all rotors pointing at slot 0.
    pub fn new(k: usize, n: usize) -> RotorWalkNet {
        RotorWalkNet {
            top: CompleteTopology::new(k, n),
            rotor: vec![0; n],
        }
    }

    /// The position tree and its current occupancy.
    pub fn topology(&self) -> &CompleteTopology {
        &self.top
    }

    /// Current rotor slot of position `p` (the child slot the next
    /// displacement at `p` will use; 0 for a leaf position).
    pub fn rotor_slot(&self, p: u32) -> u32 {
        let n = self.top.n();
        assert!((p as usize) < n, "position {p} out of range 0..{n}");
        let pi = p as usize;
        let count = self.top.child_count(p);
        if count == 0 {
            0
        } else {
            self.rotor[pi] % count
        }
    }
}

/// Promotes the occupant of position `p` into its parent position `q` via
/// the rotor at `q`. Returns rotations performed (1 for a plain swap, 2
/// for a 3-cycle).
fn promote(rotor: &mut [u32], top: &mut CompleteTopology, p: u32, q: u32) -> u64 {
    // `p` is a child of `q`, so `q` has at least one child.
    let count = top.child_count(q);
    let qi = q as usize;
    let slot = rotor[qi] % count;
    rotor[qi] = (slot + 1) % count;
    let c64 = top.first_child(q) + slot as u64;
    let c = c64 as u32;
    if c == p {
        top.swap_positions(p, q);
        1
    } else {
        let promoted = top.item_at(p);
        let displaced = top.item_at(q);
        let evicted = top.item_at(c);
        top.place(promoted, q);
        top.place(displaced, c);
        top.place(evicted, p);
        2
    }
}

impl Network for RotorWalkNet {
    fn len(&self) -> usize {
        self.top.n()
    }

    fn distance(&self, u: NodeKey, v: NodeKey) -> u64 {
        self.top.distance(u, v)
    }

    fn serve(&mut self, u: NodeKey, v: NodeKey) -> ServeCost {
        let rotor = &mut self.rotor;
        self.top
            .serve_with(u, v, |top, p, q| promote(rotor, top, p, q))
    }

    fn label(&self) -> String {
        format!("{}-ary Rotor-Walk Tree", self.top.k())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn hot_pair_converges_to_root_adjacency() {
        let mut net = RotorWalkNet::new(3, 40);
        let (u, v) = (38, 24);
        for _ in 0..16 {
            net.serve(u, v);
        }
        let tail = net.serve(u, v);
        assert_eq!(tail.routing, 1, "hot pair should be adjacent");
        assert_eq!(tail.rotations, 0, "converged pair must not thrash");
        assert_eq!(tail.links_changed, 0);
        net.top.validate().unwrap();
    }

    #[test]
    fn rotor_advances_round_robin() {
        let mut net = RotorWalkNet::new(4, 85);
        // Repeatedly promote distinct leaves under position 0's subtree and
        // watch the root rotor cycle 0,1,2,3,0,...
        let mut seen = Vec::new();
        let mut state = 3u64;
        for _ in 0..24 {
            let u = (xorshift(&mut state) % 85 + 1) as NodeKey;
            let v = (xorshift(&mut state) % 85 + 1) as NodeKey;
            if u == v {
                continue;
            }
            let before: Vec<u32> = (0..85).map(|p| net.rotor_slot(p)).collect();
            net.serve(u, v);
            for p in 0..85u32 {
                let pi = p as usize;
                let after = net.rotor_slot(p);
                let count = net.top.child_count(p);
                if count == 0 {
                    continue;
                }
                let prev = before[pi];
                // A rotor either held still (not consulted, or consulted
                // 0 times) or advanced by the number of consultations.
                let delta = (after + count - prev) % count;
                assert!(delta <= 2, "rotor at {p} jumped by {delta}");
                seen.push(delta);
            }
            net.top.validate().unwrap();
        }
        assert!(seen.iter().any(|&d| d > 0), "no rotor ever advanced");
    }

    #[test]
    fn links_match_global_edge_diff_on_random_traffic() {
        let mut net = RotorWalkNet::new(3, 64);
        let mut state = 0xDEADBEEFCAFEBABEu64;
        for _ in 0..400 {
            let u = (xorshift(&mut state) % 64 + 1) as NodeKey;
            let v = (xorshift(&mut state) % 64 + 1) as NodeKey;
            let before: BTreeSet<_> = net.top.edge_keys().into_iter().collect();
            let cost = net.serve(u, v);
            let after: BTreeSet<_> = net.top.edge_keys().into_iter().collect();
            let global = before.symmetric_difference(&after).count() as u64;
            assert_eq!(cost.links_changed, global, "req ({u},{v})");
            net.top.validate().unwrap();
        }
    }

    #[test]
    fn deterministic_replay_is_bit_identical() {
        let build_and_run = || {
            let mut net = RotorWalkNet::new(3, 50);
            let mut state = 99u64;
            let mut totals = (0u64, 0u64, 0u64);
            for _ in 0..500 {
                let u = (xorshift(&mut state) % 50 + 1) as NodeKey;
                let v = (xorshift(&mut state) % 50 + 1) as NodeKey;
                let c = net.serve(u, v);
                totals.0 += c.routing;
                totals.1 += c.rotations;
                totals.2 += c.links_changed;
            }
            (totals, net.top.edge_keys())
        };
        assert_eq!(build_and_run(), build_and_run());
    }

    #[test]
    fn self_request_is_free_and_immutable() {
        let mut net = RotorWalkNet::new(2, 9);
        let before = net.top.edge_keys();
        let rotors: Vec<u32> = (0..9).map(|p| net.rotor_slot(p)).collect();
        let cost = net.serve(4, 4);
        assert_eq!(cost, ServeCost::default());
        assert_eq!(net.top.edge_keys(), before);
        let rotors_after: Vec<u32> = (0..9).map(|p| net.rotor_slot(p)).collect();
        assert_eq!(rotors, rotors_after, "self request must not spin rotors");
    }

    #[test]
    #[should_panic(expected = "position 9 out of range 0..9")]
    fn rotor_slot_past_the_last_position_names_it() {
        RotorWalkNet::new(2, 9).rotor_slot(9);
    }
}
