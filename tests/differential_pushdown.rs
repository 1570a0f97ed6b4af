//! Oracle-backed differential harness for the competing complete-tree
//! topologies, mirroring `tests/differential_oracle.rs`.
//!
//! [`RefCompleteNet`] is a deliberately naive, allocation-happy reference
//! implementation of the Push-Down Tree and Rotor-Walk Tree disciplines:
//! depths recomputed by integer division on every query, distances walked
//! ancestor list by ancestor list, link accounting done by diffing
//! *global* key-space edge sets before and after every request. It
//! transcribes the adjustment rules (promote each endpoint one level
//! unless it is at the root or its parent holds the other endpoint; the
//! rotor variant additionally pushes the displaced occupant into the
//! rotor-chosen child) directly from the module docs, independently of the
//! scratch-arena implementation in `kst-core`.
//!
//! Every workload generator in the catalog is fuzzed at n ∈ {16, 64, 257}
//! and the nets must agree **move for move**: identical routing costs,
//! rotation counts, link-change counts, and occupant permutations after
//! every request.

use kst_core::{Network, NodeKey, PushDownNet, RotorWalkNet};
use kst_workloads::{gens, Trace};

/// Which adjustment discipline the reference runs.
#[derive(Clone, Copy, PartialEq)]
enum Discipline {
    PushDown,
    Rotor,
}

/// Naive reference: a complete k-ary position tree with occupants
/// permuted by the guarded one-level promotions.
struct RefCompleteNet {
    k: usize,
    n: usize,
    /// position -> node index
    item: Vec<u32>,
    /// node index -> position
    pos: Vec<u32>,
    /// per-position rotor slots (used by the rotor discipline only)
    rotor: Vec<u32>,
    discipline: Discipline,
}

impl RefCompleteNet {
    fn new(k: usize, n: usize, discipline: Discipline) -> RefCompleteNet {
        RefCompleteNet {
            k,
            n,
            item: (0..n as u32).collect(),
            pos: (0..n as u32).collect(),
            rotor: vec![0; n],
            discipline,
        }
    }

    fn parent(&self, p: u32) -> u32 {
        (p - 1) / self.k as u32
    }

    /// Ancestor positions of `p`, root last (naive re-walk every call).
    fn ancestors(&self, mut p: u32) -> Vec<u32> {
        let mut a = vec![p];
        while p != 0 {
            p = self.parent(p);
            a.push(p);
        }
        a
    }

    fn distance(&self, i: u32, j: u32) -> u64 {
        if i == j {
            return 0;
        }
        let ai = self.ancestors(self.pos[i as usize]);
        let aj = self.ancestors(self.pos[j as usize]);
        let w = *ai
            .iter()
            .find(|x| aj.contains(x))
            .expect("complete tree is connected");
        let di = ai.iter().position(|&x| x == w).unwrap();
        let dj = aj.iter().position(|&x| x == w).unwrap();
        (di + dj) as u64
    }

    /// Global undirected key-space edge set, sorted (recomputed in full for
    /// every link-accounting query — the naivety is the point).
    fn edge_set(&self) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        for p in 1..self.n as u32 {
            let a = self.item[p as usize] + 1;
            let b = self.item[self.parent(p) as usize] + 1;
            edges.push((a.min(b), a.max(b)));
        }
        edges.sort_unstable();
        edges
    }

    fn child_count(&self, p: u32) -> u32 {
        let first = p as u64 * self.k as u64 + 1;
        let n = self.n as u64;
        if first >= n {
            0
        } else {
            (n - first).min(self.k as u64) as u32
        }
    }

    fn swap(&mut self, p: u32, q: u32) {
        self.item.swap(p as usize, q as usize);
        self.pos[self.item[p as usize] as usize] = p;
        self.pos[self.item[q as usize] as usize] = q;
    }

    /// One guarded promotion of node index `x`; returns rotations.
    fn promote(&mut self, x: u32, other: u32) -> u64 {
        let p = self.pos[x as usize];
        if p == 0 {
            return 0;
        }
        let q = self.parent(p);
        if self.item[q as usize] == other {
            return 0;
        }
        match self.discipline {
            Discipline::PushDown => {
                self.swap(p, q);
                1
            }
            Discipline::Rotor => {
                let count = self.child_count(q);
                let slot = self.rotor[q as usize] % count;
                self.rotor[q as usize] = (slot + 1) % count;
                let c = (q as u64 * self.k as u64 + 1 + slot as u64) as u32;
                if c == p {
                    self.swap(p, q);
                    1
                } else {
                    let displaced = self.item[q as usize];
                    let evicted = self.item[c as usize];
                    self.item[q as usize] = x;
                    self.item[c as usize] = displaced;
                    self.item[p as usize] = evicted;
                    self.pos[x as usize] = q;
                    self.pos[displaced as usize] = c;
                    self.pos[evicted as usize] = p;
                    2
                }
            }
        }
    }

    /// Serves one request, returning (routing, rotations, links changed).
    fn serve(&mut self, u: NodeKey, v: NodeKey) -> (u64, u64, u64) {
        let ui = u - 1;
        let vi = v - 1;
        if ui == vi {
            return (0, 0, 0);
        }
        let routing = self.distance(ui, vi);
        let before = self.edge_set();
        let mut rotations = 0;
        rotations += self.promote(ui, vi);
        rotations += self.promote(vi, ui);
        let after = self.edge_set();
        let links = before.iter().filter(|e| !after.contains(e)).count()
            + after.iter().filter(|e| !before.contains(e)).count();
        (routing, rotations, links as u64)
    }
}

/// Asserts production net and oracle hold identical occupant permutations.
fn assert_same_positions(positions: impl Fn(NodeKey) -> u32, oracle: &RefCompleteNet, ctx: &str) {
    for i in 0..oracle.n as u32 {
        assert_eq!(
            positions(i + 1),
            oracle.pos[i as usize],
            "{ctx}: key {} position differs",
            i + 1
        );
    }
}

/// Every generator in the workload catalog at a given n.
fn catalog(n: usize, m: usize, seed: u64) -> Vec<(&'static str, Trace)> {
    vec![
        ("uniform", gens::uniform(n, m, seed)),
        ("temporal", gens::temporal(n, m, 0.6, seed ^ 1)),
        ("zipf", gens::zipf(n, m, 1.2, seed ^ 2)),
        ("hpc", gens::hpc(n, m, seed ^ 3)),
        ("projector", gens::projector(n, m, seed ^ 4)),
        ("facebook", gens::facebook(n, m, seed ^ 5)),
        (
            "sharded_hot_pairs",
            gens::sharded_hot_pairs(n, m, 4, 5, seed ^ 6),
        ),
        (
            "phase_shift",
            gens::phase_shift(n, m, 40, 2, 2, 0.8, seed ^ 7),
        ),
        (
            "drifting_zipf",
            gens::drifting_zipf(n, m, 1.1, 60, 2, seed ^ 8),
        ),
    ]
}

fn fuzz_pushdown(k: usize, n: usize, trace: &Trace, label: &str) {
    let mut net = PushDownNet::new(k, n);
    let mut oracle = RefCompleteNet::new(k, n, Discipline::PushDown);
    for (step, &(u, v)) in trace.requests().iter().enumerate() {
        let c = net.serve(u, v);
        let (routing, rotations, links) = oracle.serve(u, v);
        let ctx = format!("pushdown k={k} n={n} {label} step={step} req=({u},{v})");
        assert_eq!(c.routing, routing, "{ctx}: routing differs");
        assert_eq!(c.rotations, rotations, "{ctx}: rotations differ");
        assert_eq!(c.links_changed, links, "{ctx}: links_changed differs");
        assert_same_positions(|key| net.topology().position_of(key), &oracle, &ctx);
    }
    net.topology().validate().unwrap();
}

fn fuzz_rotor(k: usize, n: usize, trace: &Trace, label: &str) {
    let mut net = RotorWalkNet::new(k, n);
    let mut oracle = RefCompleteNet::new(k, n, Discipline::Rotor);
    for (step, &(u, v)) in trace.requests().iter().enumerate() {
        let c = net.serve(u, v);
        let (routing, rotations, links) = oracle.serve(u, v);
        let ctx = format!("rotor k={k} n={n} {label} step={step} req=({u},{v})");
        assert_eq!(c.routing, routing, "{ctx}: routing differs");
        assert_eq!(c.rotations, rotations, "{ctx}: rotations differ");
        assert_eq!(c.links_changed, links, "{ctx}: links_changed differs");
        assert_same_positions(|key| net.topology().position_of(key), &oracle, &ctx);
        for p in 0..n as u32 {
            if oracle.child_count(p) > 0 {
                assert_eq!(
                    net.rotor_slot(p),
                    oracle.rotor[p as usize] % oracle.child_count(p),
                    "{ctx}: rotor at {p} differs"
                );
            }
        }
    }
    net.topology().validate().unwrap();
}

#[test]
fn pushdown_matches_oracle_across_catalog() {
    for (ni, &n) in [16usize, 64, 257].iter().enumerate() {
        // bound the O(n²)-per-request oracle edge diffs at the largest n
        let m = if n > 100 { 250 } else { 400 };
        for (gi, (label, trace)) in catalog(n, m, 4000 + ni as u64).into_iter().enumerate() {
            let k = [2usize, 3, 4][gi % 3];
            fuzz_pushdown(k, n, &trace, label);
        }
    }
}

#[test]
fn rotor_matches_oracle_across_catalog() {
    for (ni, &n) in [16usize, 64, 257].iter().enumerate() {
        let m = if n > 100 { 250 } else { 400 };
        for (gi, (label, trace)) in catalog(n, m, 5000 + ni as u64).into_iter().enumerate() {
            let k = [2usize, 3, 4][(gi + 1) % 3];
            fuzz_rotor(k, n, &trace, label);
        }
    }
}

#[test]
fn pushdown_matches_oracle_on_hot_pair_convergence() {
    // Heavy repetition drives both implementations into the converged
    // regime where stale scratch state would hide; they must still agree.
    for &k in &[2usize, 3, 5] {
        let n = 64;
        let mut reqs = Vec::new();
        for i in 0..500u32 {
            if i % 5 == 4 {
                reqs.push((i % 63 + 1, 64));
            } else {
                reqs.push((7, 58));
            }
        }
        let reqs: Vec<(NodeKey, NodeKey)> = reqs.into_iter().filter(|&(u, v)| u != v).collect();
        let trace = Trace::new(n, reqs);
        fuzz_pushdown(k, n, &trace, "hot-pair");
        fuzz_rotor(k, n, &trace, "hot-pair");
    }
}
