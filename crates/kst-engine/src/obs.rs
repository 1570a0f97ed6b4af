//! Engine-level observability: the per-shard collectors, the
//! dispatcher/lane timelines, and the exporters.
//!
//! Each shard's observations land in one [`ObsCollector`] (cost,
//! rebuild-size and rebuild-pause histograms plus a span ring), fed by the
//! engine's single per-shard step on whichever lane serves the shard. The
//! per-op serve path never branches on [`ObsMode`]: the mode is read when the
//! engine is built (it carries a clock only under
//! [`ObsMode::WallClock`]) and when a report is built ("off" means the
//! report holds no collectors).
//!
//! # Determinism contract
//!
//! The observability surfaces split in two:
//!
//! * **Deterministic** — the per-shard cost histograms and rebuild-size
//!   histograms. These are built purely from `ServeCost` units over each
//!   shard's operation sequence, and routing in trace order fixes that
//!   sequence regardless of thread/batch configuration — so they are
//!   **bit-identical** across any thread count and round size
//!   (`tests/engine_differential.rs` asserts it). [`ObsReport`]'s
//!   `PartialEq` compares exactly these surfaces.
//! * **Wall-clock / layout-dependent** — rebuild pause times, the
//!   per-round lane-load and routed-ops distributions, and the span
//!   timelines.
//!   These describe *one particular run* and are excluded from
//!   equality. Wall-clock fields are only populated under
//!   [`ObsMode::WallClock`], stamped from the engine's run-origin
//!   [`Stopwatch`] (the workspace's audited clock surface).

use kst_obs::json::{histogram_json, trace_events_json};
use kst_obs::{EventKind, Histogram, Stopwatch, Tracer};
use kst_sim::obs::ObsCollector;

/// Span-ring capacity of every tracer an observed run keeps (each
/// shard's, the dispatcher's and each lane's timeline): the newest
/// events survive, older ones are overwritten.
pub const SPAN_EVENTS: usize = 4096;

/// What the engine records while serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// Record nothing (zero overhead on the serve path).
    #[default]
    Off,
    /// Record the deterministic surfaces only: cost/rebuild histograms
    /// and logical-sequence span events. No clock is read.
    Deterministic,
    /// Everything in `Deterministic`, plus wall-clock timestamps on
    /// span events and per-rebuild pause histograms.
    WallClock,
}

impl ObsMode {
    /// Stable lowercase name (used by `KSAN_OBS` and the JSON export).
    pub fn name(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Deterministic => "det",
            ObsMode::WallClock => "wall",
        }
    }

    /// Parses a `KSAN_OBS` value (`off` / `det` / `wall`); `None` for
    /// anything else.
    pub fn parse(s: &str) -> Option<ObsMode> {
        match s {
            "off" => Some(ObsMode::Off),
            "det" | "deterministic" => Some(ObsMode::Deterministic),
            "wall" | "wallclock" => Some(ObsMode::WallClock),
            _ => None,
        }
    }
}

/// The observability half of an `EngineReport`.
///
/// Equality compares **only the deterministic surfaces** (mode, and the
/// per-shard cost + rebuild-size histograms), so whole `EngineReport`s
/// can still be `assert_eq!`d across thread/batch configurations — and
/// across repeated wall-clock runs — exactly as before.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// The mode the run recorded under.
    pub mode: ObsMode,
    /// Per-shard collectors, indexed by shard id. Empty when mode is
    /// [`ObsMode::Off`].
    pub per_shard: Vec<ObsCollector>,
    /// Ops per busy lane per round, its shards' buckets together
    /// (layout-dependent, excluded from equality).
    pub batch_sizes: Histogram,
    /// Ops routed per round, all lanes together (layout-dependent,
    /// excluded from equality).
    pub queue_depth: Histogram,
    /// The routing thread's span timeline: one `BatchHandoff` (lane, ops)
    /// per busy lane per round (track = shard count).
    pub dispatcher: Tracer,
    /// Per-lane span timelines: one `ShardDispatch` (ops, lane) per round
    /// the lane is busy (track = shard count + 1 + lane index). `run_trace` gives
    /// every lane one; a report from `EngineReport::new` has none, so
    /// `serve_one` records no lane spans into it.
    pub workers: Vec<Tracer>,
    /// Keys moved per applied live-resharding migration. Deterministic
    /// (a pure function of the trace and the reshard config) and part of
    /// report equality.
    pub moved_keys: Histogram,
    /// Load-imbalance ratio ×100 (hottest shard load over mean load)
    /// sampled at every reshard epoch boundary. Deterministic and part
    /// of report equality.
    pub imbalance: Histogram,
}

impl PartialEq for ObsReport {
    fn eq(&self, other: &ObsReport) -> bool {
        self.mode == other.mode
            && self.per_shard.len() == other.per_shard.len()
            && self.per_shard.iter().zip(&other.per_shard).all(|(a, b)| {
                a.cost == b.cost
                    && a.rebuild_nodes == b.rebuild_nodes
                    && a.rebuild_patches == b.rebuild_patches
            })
            && self.moved_keys == other.moved_keys
            && self.imbalance == other.imbalance
    }
}

impl Eq for ObsReport {}

impl ObsReport {
    /// The no-op report (mode off, no per-shard state). What
    /// `EngineReport::new` starts with, and the merge identity.
    pub fn off() -> ObsReport {
        ObsReport {
            mode: ObsMode::Off,
            per_shard: Vec::new(),
            batch_sizes: Histogram::new(),
            queue_depth: Histogram::new(),
            dispatcher: Tracer::with_capacity(0, 0),
            workers: Vec::new(),
            moved_keys: Histogram::new(),
            imbalance: Histogram::new(),
        }
    }

    /// A report ready to record for `shards` shards under `mode`,
    /// keeping [`SPAN_EVENTS`] spans per ring. Off mode returns
    /// [`ObsReport::off`].
    pub fn with_config(shards: usize, mode: ObsMode) -> ObsReport {
        if mode == ObsMode::Off {
            return ObsReport::off();
        }
        ObsReport {
            mode,
            per_shard: (0..shards)
                .map(|s| ObsCollector::new(s as u32, SPAN_EVENTS))
                .collect(),
            dispatcher: Tracer::with_capacity(shards as u32, SPAN_EVENTS),
            ..ObsReport::off()
        }
    }

    /// Requests observed across all shards (cross-shard requests count
    /// once per gateway half-serve, mirroring the per-shard streams).
    pub fn requests(&self) -> u64 {
        self.per_shard.iter().map(ObsCollector::requests).sum()
    }

    /// All shards' collectors merged: the cost, rebuild-size and pause
    /// distributions a single observer of every local serve would build.
    /// The span ring is count-only (the per-shard rings keep the events).
    pub fn total(&self) -> ObsCollector {
        let mut acc = ObsCollector::new(0, 0);
        for s in &self.per_shard {
            acc.merge(s);
        }
        acc
    }

    /// Merges another observability report in (chunked/windowed runs).
    /// An off report is the identity on either side.
    pub fn merge(&mut self, other: &ObsReport) {
        if other.mode == ObsMode::Off {
            return;
        }
        if self.mode == ObsMode::Off {
            // ksan-allow: no-alloc report merging is a cold join-time fold, never on the serve path
            *self = other.clone();
            return;
        }
        assert_eq!(
            self.per_shard.len(),
            other.per_shard.len(),
            "cannot merge observability reports with different shard counts"
        );
        for (a, b) in self.per_shard.iter_mut().zip(&other.per_shard) {
            a.merge(b);
        }
        self.batch_sizes.merge(&other.batch_sizes);
        self.queue_depth.merge(&other.queue_depth);
        self.moved_keys.merge(&other.moved_keys);
        self.imbalance.merge(&other.imbalance);
        self.dispatcher.merge(&other.dispatcher);
        for (a, b) in self.workers.iter_mut().zip(&other.workers) {
            a.merge(b);
        }
        if other.workers.len() > self.workers.len() {
            self.workers
                .extend(other.workers[self.workers.len()..].iter().cloned());
        }
    }

    /// JSON snapshot of every histogram surface (totals plus per-shard
    /// routing/pause), for `results/observability.json`.
    pub fn to_json(&self) -> String {
        let total = self.total();
        let cost = &total.cost;
        let mut out = String::from("{");
        out.push_str(&format!("\"mode\":\"{}\"", self.mode.name()));
        out.push_str(&format!(",\"requests\":{}", self.requests()));
        for (label, h) in [
            ("routing", &cost.routing),
            ("rotations", &cost.rotations),
            ("links", &cost.links),
            ("total_unit", &cost.total_unit),
            ("rebuild_nodes", &total.rebuild_nodes),
            ("rebuild_patches", &total.rebuild_patches),
            ("rebuild_pause_us", &total.rebuild_pause_us),
            ("batch_sizes", &self.batch_sizes),
            ("queue_depth", &self.queue_depth),
            ("moved_keys", &self.moved_keys),
            ("imbalance", &self.imbalance),
        ] {
            out.push_str(&format!(",\"{label}\":{}", histogram_json(h)));
        }
        out.push_str(",\"shards\":[");
        for (s, so) in self.per_shard.iter().enumerate() {
            if s > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"shard\":{s},\"routing\":{},\"rebuild_pause_us\":{}}}",
                histogram_json(&so.cost.routing),
                histogram_json(&so.rebuild_pause_us)
            ));
        }
        out.push_str("]}");
        out
    }

    /// Dumps every span ring in chrome://tracing Trace Event Format
    /// (load at `chrome://tracing` or ui.perfetto.dev): one track per
    /// shard, one for the dispatcher, one per lane.
    pub fn to_chrome_trace(&self) -> String {
        let mut tracers: Vec<&Tracer> = Vec::new();
        let mut labels: Vec<String> = Vec::new();
        for (s, so) in self.per_shard.iter().enumerate() {
            tracers.push(&so.tracer);
            labels.push(format!("shard-{s}"));
        }
        tracers.push(&self.dispatcher);
        labels.push(String::from("dispatcher"));
        for (w, t) in self.workers.iter().enumerate() {
            tracers.push(t);
            labels.push(format!("lane-{w}"));
        }
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        trace_events_json(&tracers, &label_refs)
    }
}

/// Microseconds since the run origin, or 0 when no clock is read.
pub(crate) fn stamp(clock: Option<Stopwatch>) -> u64 {
    clock.map_or(0, |origin| origin.elapsed_us())
}

/// Records one round's handoff on an observed report, after routing and
/// before any lane serves: for each busy lane, its op count into
/// `batch_sizes` and a `BatchHandoff` span (lane, ops) on the
/// `dispatcher` timeline; then the ops routed in the round into
/// `queue_depth`. `lens` gives each lane's ops (its shards' buckets
/// together) in lane order.
pub(crate) fn record_handoff(
    obs: &mut ObsReport,
    lens: impl Iterator<Item = usize>,
    clock: Option<Stopwatch>,
) {
    let mut routed = 0;
    for (lane, len) in lens.enumerate().filter(|&(_, len)| len > 0) {
        let (lane, len) = (lane as u64, len as u64);
        routed += len;
        Histogram::record(&mut obs.batch_sizes, len);
        let (tracer, ts) = (&mut obs.dispatcher, stamp(clock));
        Tracer::record_timed(tracer, EventKind::BatchHandoff, lane, len, ts, 0);
    }
    Histogram::record(&mut obs.queue_depth, routed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use kst_core::ServeCost;

    #[test]
    fn obs_mode_parses_env_spellings() {
        assert_eq!(ObsMode::parse("off"), Some(ObsMode::Off));
        assert_eq!(ObsMode::parse("det"), Some(ObsMode::Deterministic));
        assert_eq!(ObsMode::parse("wall"), Some(ObsMode::WallClock));
        assert_eq!(ObsMode::parse("bogus"), None);
        assert_eq!(ObsMode::Off.name(), "off");
    }

    #[test]
    fn equality_ignores_wall_clock_surfaces() {
        let mut a = ObsReport::with_config(2, ObsMode::WallClock);
        let mut b = ObsReport::with_config(2, ObsMode::WallClock);
        let cost = ServeCost {
            routing: 3,
            rotations: 1,
            ..ServeCost::default()
        };
        // Same deterministic stream, wildly different wall-clock fields.
        a.per_shard[0].observe(1, 2, cost, Some((10, 5)));
        b.per_shard[0].observe(1, 2, cost, Some((99_000, 800)));
        record_handoff(&mut a, [64].into_iter(), Some(Stopwatch::start()));
        assert_eq!(a, b);
        // ... but a diverging cost stream is detected.
        b.per_shard[1].observe(3, 4, cost, None);
        assert_ne!(a, b);
    }

    #[test]
    fn merge_has_off_as_identity_and_sums_histograms() {
        let cost = ServeCost {
            routing: 2,
            ..ServeCost::default()
        };
        let mut a = ObsReport::with_config(1, ObsMode::Deterministic);
        a.per_shard[0].observe(1, 2, cost, None);
        let snapshot = a.clone();
        a.merge(&ObsReport::off());
        assert_eq!(a, snapshot);

        let mut id = ObsReport::off();
        id.merge(&snapshot);
        assert_eq!(id, snapshot);
        assert_eq!(id.requests(), 1);

        let mut b = ObsReport::with_config(1, ObsMode::Deterministic);
        b.per_shard[0].observe(1, 2, cost, None);
        a.merge(&b);
        assert_eq!(a.requests(), 2);
        assert_eq!(a.total().cost.routing.sum(), 4);
    }

    #[test]
    fn json_and_trace_exports_are_well_formed() {
        let mut r = ObsReport::with_config(2, ObsMode::WallClock);
        let cost = ServeCost {
            routing: 4,
            rotations: 2,
            links_changed: 1,
            rebuild_patches: 3,
            rebuild_nodes: 20,
        };
        r.per_shard[1].observe(5, 6, cost, Some((120, 30)));
        record_handoff(&mut r, [44, 256].into_iter(), Some(Stopwatch::start()));
        let js = r.to_json();
        assert!(js.starts_with("{\"mode\":\"wall\""));
        for key in [
            "routing",
            "rotations",
            "rebuild_pause_us",
            "batch_sizes",
            "queue_depth",
            "shards",
        ] {
            assert!(js.contains(&format!("\"{key}\":")), "missing {key}");
        }
        let trace = r.to_chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"name\":\"shard-1\""));
        assert!(trace.contains("\"name\":\"dispatcher\""));
        assert!(trace.contains("\"name\":\"rebuild_apply\""));
        assert!(trace.contains("\"name\":\"batch_handoff\""));
    }
}
