//! The self-adjusting-network abstraction shared by every topology in the
//! workspace (online k-ary SplayNets, the centroid (k+1)-SplayNet, the
//! classic binary SplayNet, and the static trees).
//!
//! The cost model is the paper's Section 2: serving request `(u, v)` costs
//! the distance between `u` and `v` in the *current* topology `G_{i-1}`
//! (routing cost), plus the reconfiguration performed afterwards
//! (adjustment cost, reported both as rotation count — the paper's unit in
//! Section 5 — and as physical links changed).

use crate::key::NodeKey;
use crate::reshard::Reshardable;
use std::iter::Sum;
use std::ops::AddAssign;

/// Cost breakdown of a request, or of any topology change below it: a
/// rotation, a splay walk, a subtree patch, a rebuild plan or a reshard
/// splice (those report `routing` = 0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCost {
    /// Path length between the endpoints in the topology before adjustment.
    pub routing: u64,
    /// Rotations performed while adjusting (0 for static topologies).
    pub rotations: u64,
    /// Physical links added + removed while adjusting.
    pub links_changed: u64,
    /// Subtree patches applied: by a rebuild this request triggered (0
    /// for every serve but a lazy net's at an epoch boundary; a full
    /// rebuild is one whole-tree patch), or by a reshard splice (a
    /// connector patch on extract, the grafted fragment on absorb).
    /// Telemetry for how *local* rebuilds are.
    pub rebuild_patches: u64,
    /// Nodes re-formed by those patches (n for a full rebuild).
    pub rebuild_nodes: u64,
}

impl ServeCost {
    /// Total cost under the paper's experimental model (routing and
    /// rotation costs both one).
    pub fn total_unit(&self) -> u64 {
        self.routing + self.rotations
    }
}

/// Field-wise addition: `ServeCost` is the workspace's one cost monoid
/// (identity `ServeCost::default()`), so per-request, per-shard and
/// per-run totals all fold with `+=` or `Sum`.
impl AddAssign for ServeCost {
    fn add_assign(&mut self, c: ServeCost) {
        self.routing += c.routing;
        self.rotations += c.rotations;
        self.links_changed += c.links_changed;
        self.rebuild_patches += c.rebuild_patches;
        self.rebuild_nodes += c.rebuild_nodes;
    }
}

impl Sum for ServeCost {
    fn sum<I: Iterator<Item = ServeCost>>(iter: I) -> ServeCost {
        iter.fold(ServeCost::default(), |mut acc, c| {
            acc += c;
            acc
        })
    }
}

/// A communication topology that serves a request sequence.
pub trait Network {
    /// Number of nodes.
    fn len(&self) -> usize;

    /// True if the network is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current distance between two node keys.
    fn distance(&self, u: NodeKey, v: NodeKey) -> u64;

    /// Serves request `(u, v)`: charges the routing cost in the current
    /// topology, then (for self-adjusting networks) reconfigures.
    fn serve(&mut self, u: NodeKey, v: NodeKey) -> ServeCost;

    /// Short human-readable description for reports.
    fn label(&self) -> String;

    /// The net's boundary-run surgery, if it can donate and accept keys
    /// at its ends ([`Reshardable`]); `None` by default. The engine's live
    /// resharding reaches shard nets through this hook, so it runs on any
    /// net type and reshards only those that return `Some`.
    fn reshardable(&mut self) -> Option<&mut dyn Reshardable> {
        None
    }
}
