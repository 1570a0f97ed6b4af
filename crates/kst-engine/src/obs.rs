//! Engine-level observability: the per-shard collectors, the
//! dispatcher/worker timelines, and the exporters.
//!
//! Each shard's observations land in one [`ObsCollector`] (cost,
//! rebuild-size and rebuild-pause histograms plus a span ring), fed by the
//! engine's single per-shard step on both the inline and the threaded
//! path. The serve path never branches on [`ObsMode`]: the mode is read
//! when the engine is built (it carries a clock only under
//! [`ObsMode::WallClock`]) and when a report is built ("off" means the
//! report holds no collectors).
//!
//! # Determinism contract
//!
//! The observability surfaces split in two:
//!
//! * **Deterministic** — the per-shard cost histograms and rebuild-size
//!   histograms. These are built purely from `ServeCost` units over each
//!   shard's operation sequence, and the dispatcher fixes that sequence
//!   regardless of worker/batch configuration — so they are
//!   **bit-identical** across inline, threaded, and any batch size
//!   (`tests/engine_differential.rs` asserts it). [`ObsReport`]'s
//!   `PartialEq` compares exactly these surfaces.
//! * **Wall-clock / topology-dependent** — rebuild pause times, batch
//!   size and queue occupancy distributions, and the span timelines.
//!   These describe *one particular run* and are excluded from
//!   equality. Wall-clock fields are only populated under
//!   [`ObsMode::WallClock`], stamped from the engine's run-origin
//!   [`Stopwatch`] (the workspace's audited clock surface).

use kst_obs::json::{histogram_json, trace_events_json};
use kst_obs::{EventKind, Histogram, Stopwatch, Tracer};
use kst_sim::obs::ObsCollector;

/// Span-ring capacity of every tracer an observed run keeps (each
/// shard's, the dispatcher's and each worker's timeline): the newest
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
    /// Ops per dispatched batch (threaded runs only; topology-dependent,
    /// excluded from equality).
    pub batch_sizes: Histogram,
    /// Total ops buffered across all workers at each batch handoff — a
    /// queue-occupancy proxy (threaded runs only; excluded from
    /// equality).
    pub queue_depth: Histogram,
    /// The dispatcher's span timeline (batch handoffs; track = shard
    /// count).
    pub dispatcher: Tracer,
    /// Per-worker span timelines (batch receipts; track = shard count +
    /// 1 + worker index).
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
    /// shard, one for the dispatcher, one per worker.
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
            labels.push(format!("worker-{w}"));
        }
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        trace_events_json(&tracers, &label_refs)
    }
}

/// Microseconds since the run origin, or 0 when no clock is read.
pub(crate) fn stamp(clock: Option<Stopwatch>) -> u64 {
    clock.map_or(0, |origin| origin.elapsed_us())
}

/// Records one batch handoff on the dispatcher surfaces of an observed
/// report (`batch_sizes`, `queue_depth`, `dispatcher`): batch size,
/// queue-occupancy proxy, and a `BatchHandoff` span. It takes the three
/// surfaces, not the report, because the threaded dispatcher records
/// while its workers borrow the report's per-shard collectors.
pub(crate) fn record_handoff(
    batch_sizes: &mut Histogram,
    queue_depth: &mut Histogram,
    dispatcher: &mut Tracer,
    worker: usize,
    batch_len: usize,
    buffered: usize,
    clock: Option<Stopwatch>,
) {
    Histogram::record(batch_sizes, batch_len as u64);
    Histogram::record(queue_depth, buffered as u64);
    let ts = stamp(clock);
    Tracer::record_timed(
        dispatcher,
        EventKind::BatchHandoff,
        worker as u64,
        batch_len as u64,
        ts,
        0,
    );
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
        a.per_shard[0].observe_timed(1, 2, cost, 10, 5);
        b.per_shard[0].observe_timed(1, 2, cost, 99_000, 800);
        let (sizes, depth, clock) = (
            &mut a.batch_sizes,
            &mut a.queue_depth,
            Some(Stopwatch::start()),
        );
        record_handoff(sizes, depth, &mut a.dispatcher, 0, 64, 64, clock);
        assert_eq!(a, b);
        // ... but a diverging cost stream is detected.
        b.per_shard[1].observe(3, 4, cost);
        assert_ne!(a, b);
    }

    #[test]
    fn merge_has_off_as_identity_and_sums_histograms() {
        let cost = ServeCost {
            routing: 2,
            ..ServeCost::default()
        };
        let mut a = ObsReport::with_config(1, ObsMode::Deterministic);
        a.per_shard[0].observe(1, 2, cost);
        let snapshot = a.clone();
        a.merge(&ObsReport::off());
        assert_eq!(a, snapshot);

        let mut id = ObsReport::off();
        id.merge(&snapshot);
        assert_eq!(id, snapshot);
        assert_eq!(id.requests(), 1);

        let mut b = ObsReport::with_config(1, ObsMode::Deterministic);
        b.per_shard[0].observe(1, 2, cost);
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
        r.per_shard[1].observe_timed(5, 6, cost, 120, 30);
        let (sizes, depth, clock) = (
            &mut r.batch_sizes,
            &mut r.queue_depth,
            Some(Stopwatch::start()),
        );
        record_handoff(sizes, depth, &mut r.dispatcher, 1, 256, 300, clock);
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
