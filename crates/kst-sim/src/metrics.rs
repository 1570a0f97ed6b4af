//! Aggregate metrics of a simulation run (the paper's cost model,
//! Section 2: total service cost = routing + reconfiguration).

use kst_core::ServeCost;
use std::ops::AddAssign;

/// Accumulated costs over a request sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Requests served.
    pub requests: u64,
    /// Total routing cost (path lengths in the pre-adjustment topologies).
    pub routing: u64,
    /// Total rotations performed (the paper's unit-cost adjustment measure,
    /// Section 5: "we set the routing and rotation costs to one").
    pub rotations: u64,
    /// Total physical links changed (the model's adjustment cost measured
    /// in edges added/removed, Section 2).
    pub links_changed: u64,
    /// Total subtree patches applied by lazy-net rebuilds (a full rebuild
    /// counts as one whole-tree patch) — telemetry for how *local* the
    /// incremental rebuild machinery actually is.
    pub rebuild_patches: u64,
    /// Total nodes re-formed by those rebuilds (n per full rebuild).
    pub rebuild_nodes: u64,
}

/// Adds a cost to the totals without counting a request — the one
/// place `Metrics` touches the [`ServeCost`] fields. `absorb` and
/// `merge` are a request count plus this; the engine books gateway
/// half-serves and router charges with it directly.
impl AddAssign<ServeCost> for Metrics {
    fn add_assign(&mut self, c: ServeCost) {
        self.routing += c.routing;
        self.rotations += c.rotations;
        self.links_changed += c.links_changed;
        self.rebuild_patches += c.rebuild_patches;
        self.rebuild_nodes += c.rebuild_nodes;
    }
}

impl Metrics {
    /// Folds one request's cost in.
    pub fn absorb(&mut self, c: ServeCost) {
        self.requests += 1;
        *self += c;
    }

    /// The accumulated cost, without the request count.
    pub fn cost(&self) -> ServeCost {
        ServeCost {
            routing: self.routing,
            rotations: self.rotations,
            links_changed: self.links_changed,
            rebuild_patches: self.rebuild_patches,
            rebuild_nodes: self.rebuild_nodes,
        }
    }

    /// Mean routing cost per request.
    pub fn avg_routing(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.routing as f64 / self.requests as f64
        }
    }

    /// Mean rotations per request.
    pub fn avg_rotations(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.rotations as f64 / self.requests as f64
        }
    }

    /// Total cost under the paper's experimental unit model
    /// (routing + rotations, each at unit cost).
    pub fn total_unit_cost(&self) -> u64 {
        self.routing + self.rotations
    }

    /// Mean total unit cost (routing + rotations) per request — the
    /// per-request serve cost the scale tests assert stays flat across
    /// windows.
    pub fn avg_total_unit_cost(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_unit_cost() as f64 / self.requests as f64
        }
    }

    /// The metrics of a single served request (so `Metrics::merge` over
    /// per-request singletons reproduces a sequential `absorb` fold).
    pub fn from_cost(c: ServeCost) -> Metrics {
        let mut m = Metrics::default();
        m.absorb(c);
        m
    }

    /// Merges two metric sets (for sharded runs).
    ///
    /// Field-wise `u64` addition, so the operation is **associative and
    /// commutative with `Metrics::default()` as identity** — per-shard
    /// partials reduce in any grouping to exactly the totals a single
    /// unsharded run over the same requests would report. The workspace
    /// property tests (`tests/metrics_prop.rs`) pin this down.
    pub fn merge(&mut self, other: &Metrics) {
        self.requests += other.requests;
        *self += other.cost();
    }

    /// Mean nodes re-formed per rebuild patch (0 when no patches ran) —
    /// the locality figure the experiment tables report.
    pub fn avg_patch_size(&self) -> f64 {
        if self.rebuild_patches == 0 {
            0.0
        } else {
            self.rebuild_nodes as f64 / self.rebuild_patches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_and_averages() {
        let mut m = Metrics::default();
        m.absorb(ServeCost {
            routing: 4,
            rotations: 2,
            links_changed: 6,
            rebuild_patches: 2,
            rebuild_nodes: 30,
        });
        m.absorb(ServeCost {
            routing: 2,
            rotations: 0,
            links_changed: 0,
            rebuild_patches: 0,
            rebuild_nodes: 0,
        });
        assert_eq!(m.requests, 2);
        assert_eq!(m.routing, 6);
        assert!((m.avg_routing() - 3.0).abs() < 1e-12);
        assert!((m.avg_rotations() - 1.0).abs() < 1e-12);
        assert_eq!(m.total_unit_cost(), 8);
        assert_eq!(m.rebuild_patches, 2);
        assert_eq!(m.rebuild_nodes, 30);
        assert!((m.avg_patch_size() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = Metrics {
            requests: 1,
            routing: 2,
            rotations: 3,
            links_changed: 4,
            rebuild_patches: 5,
            rebuild_nodes: 6,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.requests, 2);
        assert_eq!(a.links_changed, 8);
        assert_eq!(a.rebuild_patches, 10);
        assert_eq!(a.rebuild_nodes, 12);
    }
}
