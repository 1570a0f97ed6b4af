//! # kst-obs — deterministic observability for the ksan workspace
//!
//! The experiment harness reports *aggregate* service cost (`Metrics`:
//! totals and means). That is the paper's Section 5 lens, but a
//! production latency story — ROADMAP's "rebuild pauses become p999
//! spikes" — needs *distributions* and *timelines*. This crate provides
//! the building blocks, split along the workspace's determinism
//! contract:
//!
//! * [`Histogram`] — a log-bucketed, mergeable `u64` histogram
//!   (power-of-two octaves with linear sub-buckets, ≤ 1/32 relative
//!   quantile error). `record` is allocation-free after construction and
//!   the bucket layout is fixed, so histograms built from the same
//!   per-request cost sequence are **bit-identical** — the engine's
//!   threaded ≡ sequential guarantee extends to them.
//! * [`CostHistograms`] — the four per-request cost distributions
//!   (routing, rotations, links changed, total unit cost), built purely
//!   from `ServeCost` units.
//! * [`Tracer`] / [`SpanEvent`] — a fixed-capacity ring-buffer span
//!   tracer for typed events (serve, rebuild apply, shard dispatch,
//!   batch handoff, migration). Logical sequence numbers are always
//!   assigned; wall-clock timestamps are only filled in by the
//!   engine/bench layer via [`Tracer::record_timed`].
//! * [`Stopwatch`] / [`timed`] — the workspace's **one audited
//!   wall-clock surface** (the only `Instant` reads outside test code;
//!   each carries a justified `ksan-allow: determinism`). Durations
//!   never feed `ServeCost` or `Metrics`.
//! * [`json`] — dependency-free exporters: histogram snapshots and a
//!   chrome://tracing Trace Event Format dump of event rings.
//!
//! Everything is std-only — no dependencies — so the crate builds in the
//! registry-less container and can sit below `kst-sim`/`kst-engine`.
//!
//! ```
//! use kst_obs::Histogram;
//!
//! let mut h = Histogram::new();
//! for v in [1u64, 2, 2, 3, 100, 1000] {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 6);
//! assert_eq!(h.quantile(0.5), 2); // exact below 32
//! assert!(h.p999() >= 1000);
//! ```

#![forbid(unsafe_code)]

pub mod cost;
pub mod hist;
pub mod json;
pub mod span;
pub mod time;

pub use cost::CostHistograms;
pub use hist::Histogram;
pub use span::{EventKind, SpanEvent, Tracer};
pub use time::{timed, Stopwatch};
