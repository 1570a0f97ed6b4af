//! `ServeCost`-typed glue between the simulator and `kst-obs`.
//!
//! [`ObsCollector`] turns the per-request [`ServeCost`] stream into cost
//! distributions and a typed event timeline. Everything it records on
//! the deterministic layer is a pure function of the trace, so two
//! collectors fed the same request sequence — or per-shard collectors
//! [`ObsCollector::merge`]d in any order — are bit-identical, extending
//! the engine's threaded ≡ sequential guarantee to the histograms.

use crate::metrics::Metrics;
use kst_core::{Network, NodeKey, ServeCost};
use kst_obs::{CostHistograms, EventKind, Histogram, Tracer};
use kst_workloads::Trace;

/// Per-stream observability state: the four cost histograms, the
/// rebuild-size histograms, the rebuild-pause histogram, and a span
/// tracer. The engine keeps one per shard; "observability off" is the
/// absence of a collector.
///
/// The hot-path recorders ([`ObsCollector::observe`] /
/// [`ObsCollector::observe_timed`]) are allocation-free (proved under
/// the counting allocator in `tests/zero_alloc.rs`) and registered as
/// `no-alloc` roots in `kst-analyze`.
#[derive(Debug, Clone)]
pub struct ObsCollector {
    /// Per-request routing / rotations / links / total-unit distributions.
    pub cost: CostHistograms,
    /// Nodes re-formed per rebuild — one sample per serve whose rebuild
    /// applied at least one patch (`ServeCost` can't distinguish a
    /// zero-patch rebuild from no rebuild, and a zero-patch rebuild has
    /// no pause story anyway).
    pub rebuild_nodes: Histogram,
    /// Patches applied per (patching) rebuild.
    pub rebuild_patches: Histogram,
    /// Wall-clock duration (µs) of each serve that applied a rebuild
    /// patch — the pause the lazy nets trade for amortized cost. Only
    /// [`ObsCollector::observe_timed`] records it, so it stays empty
    /// when no clock is read.
    pub rebuild_pause_us: Histogram,
    /// The span timeline (ring buffer; capacity fixed at construction).
    pub tracer: Tracer,
}

impl ObsCollector {
    /// A collector whose tracer records on `track` and keeps the last
    /// `events` spans (0 = count-only null tracer).
    pub fn new(track: u32, events: usize) -> ObsCollector {
        ObsCollector {
            cost: CostHistograms::new(),
            rebuild_nodes: Histogram::new(),
            rebuild_patches: Histogram::new(),
            rebuild_pause_us: Histogram::new(),
            tracer: Tracer::with_capacity(track, events),
        }
    }

    /// Records one served request on the deterministic layer (no
    /// wall-clock fields). Allocation-free.
    pub fn observe(&mut self, u: NodeKey, v: NodeKey, c: ServeCost) {
        ObsCollector::record_serve(self, u, v, c, 0, 0);
    }

    /// Records one served request with caller-supplied wall-clock fields
    /// (the engine layer stamps these from its run-origin
    /// [`kst_obs::Stopwatch`]). The timestamps feed the trace, and a
    /// serve that applied rebuild patches also lands its duration in
    /// [`ObsCollector::rebuild_pause_us`]; the cost histograms never see
    /// them. Allocation-free.
    pub fn observe_timed(&mut self, u: NodeKey, v: NodeKey, c: ServeCost, ts_us: u64, dur_us: u64) {
        ObsCollector::record_serve(self, u, v, c, ts_us, dur_us);
        if c.rebuild_patches > 0 {
            Histogram::record(&mut self.rebuild_pause_us, dur_us);
        }
    }

    // Qualified calls so kst-analyze's name-based call graph resolves
    // them exactly (`.record(...)` would alias the demand-ledger
    // recorders, which allocate by design).
    fn record_serve(&mut self, u: NodeKey, v: NodeKey, c: ServeCost, ts_us: u64, dur_us: u64) {
        CostHistograms::record(&mut self.cost, c.routing, c.rotations, c.links_changed);
        Tracer::record_timed(
            &mut self.tracer,
            EventKind::Serve,
            u as u64,
            v as u64,
            ts_us,
            dur_us,
        );
        if c.rebuild_patches > 0 {
            Histogram::record(&mut self.rebuild_nodes, c.rebuild_nodes);
            Histogram::record(&mut self.rebuild_patches, c.rebuild_patches);
            Tracer::record_timed(
                &mut self.tracer,
                EventKind::RebuildPlan,
                c.rebuild_patches,
                0,
                ts_us,
                0,
            );
            Tracer::record_timed(
                &mut self.tracer,
                EventKind::RebuildApply,
                c.rebuild_nodes,
                c.rebuild_patches,
                ts_us,
                dur_us,
            );
            Tracer::record_timed(
                &mut self.tracer,
                EventKind::SubtreePatch,
                c.rebuild_patches,
                c.rebuild_nodes,
                ts_us,
                0,
            );
        }
    }

    /// Requests observed.
    pub fn requests(&self) -> u64 {
        self.cost.count()
    }

    /// Folds another collector in: histogram merges are the commutative
    /// monoid (deterministic surfaces stay order-independent); tracer
    /// events are appended and renumbered.
    pub fn merge(&mut self, other: &ObsCollector) {
        self.cost.merge(&other.cost);
        self.rebuild_nodes.merge(&other.rebuild_nodes);
        self.rebuild_patches.merge(&other.rebuild_patches);
        self.rebuild_pause_us.merge(&other.rebuild_pause_us);
        self.tracer.merge(&other.tracer);
    }
}

/// Serves the entire trace like [`crate::run`], additionally feeding
/// every request's cost into `obs`. Returns the same [`Metrics`] `run`
/// would.
pub fn run_observed<N: Network>(net: &mut N, trace: &Trace, obs: &mut ObsCollector) -> Metrics {
    let mut m = Metrics::default();
    for &(u, v) in trace.requests() {
        let c = net.serve(u, v);
        m.absorb(c);
        obs.observe(u, v, c);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use kst_core::KSplayNet;
    use kst_workloads::gens;

    #[test]
    fn run_observed_matches_run_and_fills_histograms() {
        let trace = gens::temporal(64, 2_000, 0.8, 7);
        let mut plain = KSplayNet::balanced(3, 64);
        let mut observed = KSplayNet::balanced(3, 64);
        let m_plain = crate::run(&mut plain, &trace);
        let mut obs = ObsCollector::new(0, 256);
        let m_obs = run_observed(&mut observed, &trace, &mut obs);
        assert_eq!(m_plain, m_obs, "observation must not perturb the run");
        assert_eq!(obs.requests(), 2_000);
        assert_eq!(obs.cost.routing.sum(), m_obs.routing);
        assert_eq!(obs.cost.rotations.sum(), m_obs.rotations);
        assert_eq!(obs.cost.links.sum(), m_obs.links_changed);
        assert!(obs.cost.routing.p99() >= obs.cost.routing.p50());
        assert!(obs.tracer.total_recorded() >= 2_000);
    }

    #[test]
    fn split_collectors_merge_to_the_sequential_one() {
        let trace = gens::uniform(32, 1_000, 11);
        let mut net_whole = KSplayNet::balanced(2, 32);
        let mut whole = ObsCollector::new(0, 0);
        run_observed(&mut net_whole, &trace, &mut whole);

        // Same serve stream, costs split across two collectors.
        let mut net_split = KSplayNet::balanced(2, 32);
        let mut a = ObsCollector::new(0, 0);
        let mut b = ObsCollector::new(1, 0);
        for (i, &(u, v)) in trace.requests().iter().enumerate() {
            let c = net_split.serve(u, v);
            if i % 2 == 0 {
                a.observe(u, v, c);
            } else {
                b.observe(u, v, c);
            }
        }
        a.merge(&b);
        assert_eq!(
            a.cost, whole.cost,
            "merge must reproduce sequential histograms"
        );
        assert_eq!(a.rebuild_nodes, whole.rebuild_nodes);
        assert_eq!(a.rebuild_patches, whole.rebuild_patches);
    }

    #[test]
    fn rebuild_costs_populate_the_rebuild_histograms() {
        use kst_core::lazy::{incremental_weight_balanced_rebuilder, LazyKaryNet};
        let trace = gens::temporal(128, 4_000, 0.9, 3);
        let mut net = LazyKaryNet::new(4, 128, 64, incremental_weight_balanced_rebuilder(4, 16))
            .with_half_life(8);
        let mut obs = ObsCollector::new(0, 128);
        run_observed(&mut net, &trace, &mut obs);
        assert!(net.rebuilds() > 0, "workload must trigger rebuilds");
        // Only patching rebuilds are visible through ServeCost (a rebuild
        // whose plan is empty reports zeros), so the histogram counts a
        // subset of the net's rebuild counter.
        assert!(obs.rebuild_patches.count() > 0);
        assert!(obs.rebuild_patches.count() <= net.rebuilds());
        assert_eq!(obs.rebuild_patches.sum(), net.patches_applied());
        assert_eq!(obs.rebuild_nodes.sum(), net.nodes_patched());
        assert!(obs.rebuild_nodes.max() > 0);
        assert!(
            obs.rebuild_pause_us.is_empty(),
            "untimed observation must record no pauses"
        );
        assert!(
            obs.tracer
                .events()
                .any(|e| e.kind == EventKind::RebuildApply),
            "rebuild events must appear in the timeline"
        );
    }
}
