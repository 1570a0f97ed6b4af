//! Static-topology evaluation: distances, total costs, and the `Network`
//! adapter for static trees (which never reconfigure — adjustment cost 0).

use kst_core::net::{Network, ServeCost};
use kst_core::shape::ShapeTree;
use kst_core::NodeKey;
use kst_workloads::{DemandMatrix, Trace};

const NIL: u32 = u32::MAX;

/// A static tree topology keyed by node keys `1..=n`, optimized for
/// distance queries (parent pointers + cached depths).
#[derive(Debug, Clone)]
pub struct DistTree {
    n: usize,
    /// parent in key-index space (`key - 1`), NIL for the root
    parent: Vec<u32>,
    depth: Vec<u32>,
}

impl DistTree {
    /// Materializes a shape on keys `1..=n` (shape offset `i` is key
    /// `i + 1`): the parents are the shape's, and each depth is found by
    /// climbing to the nearest ancestor whose depth is known. Panics if
    /// the shape fails [`ShapeTree::validate`].
    pub fn from_shape(shape: &ShapeTree) -> DistTree {
        let n = shape.len();
        if let Err(e) = shape.validate(n) {
            panic!("invalid shape: {e}");
        }
        let parent = shape.parent.clone();
        let mut depth = vec![u32::MAX; n];
        if n > 0 {
            depth[shape.root as usize] = 0;
        }
        let mut path = Vec::new();
        for v in 0..n {
            let mut w = v;
            while depth[w] == u32::MAX {
                path.push(w);
                w = parent[w] as usize;
            }
            let mut d = depth[w];
            while let Some(u) = path.pop() {
                d += 1;
                depth[u] = d;
            }
        }
        DistTree { n, parent, depth }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Height (max depth).
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Node index of `key`. Panics, naming the key, unless `1 ≤ key ≤ n`
    /// (in release builds too, so a bad key fails here instead of
    /// wrapping to an index past the arena).
    fn index(&self, key: NodeKey) -> u32 {
        let n = self.n;
        assert!(
            key >= 1 && (key as usize) <= n,
            "key {key} out of range 1..={n}"
        );
        key - 1
    }

    /// Distance between keys. Panics unless both lie in `1..=n`.
    pub fn distance(&self, u: NodeKey, v: NodeKey) -> u64 {
        let (mut a, mut b) = (self.index(u), self.index(v));
        if a == b {
            return 0;
        }
        let (mut da, mut db) = (self.depth[a as usize], self.depth[b as usize]);
        let mut d = 0u64;
        while da > db {
            a = self.parent[a as usize];
            da -= 1;
            d += 1;
        }
        while db > da {
            b = self.parent[b as usize];
            db -= 1;
            d += 1;
        }
        while a != b {
            a = self.parent[a as usize];
            b = self.parent[b as usize];
            d += 2;
        }
        d
    }

    /// Total weighted distance against a demand matrix:
    /// `Σ D[u][v] · d(u,v)` (the paper's `TotalDistance`).
    pub fn total_distance(&self, demand: &DemandMatrix) -> u64 {
        let n = self.n;
        let mut total = 0u64;
        for u in 0..n {
            for v in 0..n {
                let w = demand.at(u, v);
                if w > 0 {
                    total += w * self.distance(u as NodeKey + 1, v as NodeKey + 1);
                }
            }
        }
        total
    }

    /// Total distance under the finite uniform workload (every unordered
    /// pair once), computed in O(n) via edge potentials
    /// `Σ_e |T¹_e| · |T²_e|` (Lemma 36).
    pub fn total_distance_uniform(&self) -> u64 {
        let n = self.n as u64;
        let mut sizes = vec![1u64; self.n];
        // accumulate children into parents in decreasing-depth order
        let mut order: Vec<u32> = (0..self.n as u32).collect();
        order.sort_unstable_by_key(|&v| std::cmp::Reverse(self.depth[v as usize]));
        let mut total = 0u64;
        for v in order {
            let p = self.parent[v as usize];
            if p != NIL {
                let s = sizes[v as usize];
                total += s * (n - s);
                sizes[p as usize] += s;
            }
        }
        total
    }

    /// Sum of routing costs of a whole trace on this static topology.
    pub fn cost_on_trace(&self, trace: &Trace) -> u64 {
        trace
            .requests()
            .iter()
            .map(|&(u, v)| self.distance(u, v))
            .sum()
    }
}

/// `Network` adapter: serves requests without ever adjusting.
#[derive(Debug, Clone)]
pub struct StaticNet {
    tree: DistTree,
    name: String,
}

impl StaticNet {
    /// Wraps a static tree under a display name.
    pub fn new(tree: DistTree, name: impl Into<String>) -> StaticNet {
        StaticNet {
            tree,
            name: name.into(),
        }
    }

    /// Inner distance tree.
    pub fn tree(&self) -> &DistTree {
        &self.tree
    }
}

impl Network for StaticNet {
    fn len(&self) -> usize {
        self.tree.n()
    }

    fn distance(&self, u: NodeKey, v: NodeKey) -> u64 {
        self.tree.distance(u, v)
    }

    fn serve(&mut self, u: NodeKey, v: NodeKey) -> ServeCost {
        ServeCost {
            routing: self.tree.distance(u, v),
            ..ServeCost::default()
        }
    }

    fn label(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "key 0 out of range 1..=10")]
    fn serve_rejects_key_zero() {
        let tree = DistTree::from_shape(&ShapeTree::balanced_kary(10, 2));
        StaticNet::new(tree, "static").serve(0, 3);
    }

    #[test]
    #[should_panic(expected = "key 11 out of range 1..=10")]
    fn serve_rejects_key_past_n() {
        let tree = DistTree::from_shape(&ShapeTree::balanced_kary(10, 2));
        StaticNet::new(tree, "static").serve(3, 11);
    }

    #[test]
    #[should_panic(expected = "key 0 out of range 1..=10")]
    fn distance_rejects_key_zero() {
        DistTree::from_shape(&ShapeTree::balanced_kary(10, 2)).distance(3, 0);
    }

    #[test]
    #[should_panic(expected = "key 11 out of range 1..=10")]
    fn distance_rejects_key_past_n() {
        DistTree::from_shape(&ShapeTree::balanced_kary(10, 2)).distance(11, 11);
    }

    #[test]
    fn distances_match_kst_tree() {
        for k in [2usize, 3, 5] {
            let shape = ShapeTree::balanced_kary(50, k);
            let dt = DistTree::from_shape(&shape);
            let kt = kst_core::KstTree::from_shape(k, &shape);
            for u in 1..=50u32 {
                for v in 1..=50u32 {
                    assert_eq!(dt.distance(u, v), kt.distance_keys(u, v), "k={k} {u},{v}");
                }
            }
        }
    }

    #[test]
    fn uniform_total_matches_pairwise_sum() {
        for (n, k) in [(30usize, 2usize), (40, 3), (25, 5)] {
            let dt = DistTree::from_shape(&ShapeTree::balanced_kary(n, k));
            let mut brute = 0u64;
            for u in 1..=n as u32 {
                for v in u + 1..=n as u32 {
                    brute += dt.distance(u, v);
                }
            }
            assert_eq!(dt.total_distance_uniform(), brute);
            assert_eq!(dt.total_distance(&DemandMatrix::uniform(n)), brute);
        }
    }

    #[test]
    fn static_net_never_adjusts() {
        let mut net = StaticNet::new(
            DistTree::from_shape(&ShapeTree::balanced_kary(20, 2)),
            "full binary",
        );
        let c = net.serve(1, 20);
        assert!(c.routing > 0);
        assert_eq!(c.rotations, 0);
        assert_eq!(c.links_changed, 0);
        assert_eq!(net.serve(1, 20).routing, c.routing, "topology is static");
    }
}
