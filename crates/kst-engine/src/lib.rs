//! # kst-engine — sharded, multi-threaded trace-serving engine
//!
//! The layer between the self-adjusting trees of `kst-core` and the
//! experiment harness of `kst-sim` that takes the networks from
//! one-tree-one-core to datacenter scale: the keyspace is partitioned into
//! `S` contiguous shards, each shard runs one independent
//! [`kst_core::Network`] (k-ary SplayNet, k-semi-splay, centroid, lazy —
//! anything implementing the trait), and traces replay in rounds: routing
//! fills one bucket per shard, and lanes of contiguous shards drain them.
//! Cross-shard requests route via a top-level **router spine** with an
//! explicit, documented cost model (see [`engine`]): a flat star by
//! default, or a self-adjusting k-splay network over the shard gateways
//! ([`SpineMode::KSplay`]) that pulls hot shard pairs adjacent. The
//! partition itself is a **versioned range table** ([`ShardMap`]) that
//! live resharding ([`ReshardConfig`]) rebalances between epochs by
//! splicing boundary subtrees between neighbouring shard trees. The
//! engine reaches those trees through the [`kst_core::Network::reshardable`]
//! hook, so resharding needs no extra bound on the net type: it runs on
//! nets whose hook returns `Some` (the k-ary SplayNet), and
//! [`ShardedEngine::new`] rejects resharding on any other.
//!
//! Guarantees, enforced by the workspace's differential tests:
//!
//! * a **1-shard** engine is bit-identical to [`kst_sim::run`] on the same
//!   network — move-for-move, not just in aggregate;
//! * for any `S`, the per-shard partials [`Metrics::merge`] to exactly the
//!   totals standalone nets over each shard's keyspace would report for
//!   the intra-shard traffic;
//! * the run is bit-identical for any thread count and round size —
//!   every request goes through one round function, which routes in
//!   trace order (fixing each shard's operation order and the spine's)
//!   and serves every op through one per-shard step, shards never share
//!   state, and resharding plans between epochs;
//! * with the star spine and resharding off (the defaults), the engine is
//!   bit-identical to the original fixed-router, fixed-partition engine
//!   on every network type;
//! * with observability on ([`EngineConfig::obs`]), each shard's
//!   [`kst_sim::obs::ObsCollector`] in [`ObsReport`] is fed by that same
//!   step from the same fixed per-shard stream, so its cost and
//!   rebuild-size histograms inherit the bit-identity —
//!   while wall-clock surfaces (rebuild pauses, batch/queue
//!   distributions, span timestamps) are kept out of report equality.
//!
//! ```
//! use kst_engine::{EngineConfig, ShardedEngine};
//! use kst_workloads::gens;
//!
//! let trace = gens::sharded_hot_pairs(1_000, 10_000, 4, 16, 7);
//! let cfg = EngineConfig::default().with_shards(4).with_threads(4);
//! let mut engine = ShardedEngine::ksplay(2, 1_000, cfg);
//! let report = engine.run_trace(&trace);
//! assert_eq!(report.total().requests, 10_000);
//! assert_eq!(report.cross.requests, 0); // that workload stays intra-shard
//! ```
//!
//! [`Metrics::merge`]: kst_sim::Metrics::merge

#![forbid(unsafe_code)]

pub mod engine;
pub mod obs;
pub mod shard;

pub use engine::{
    EngineConfig, EngineReport, ReshardConfig, ReshardReport, ShardedEngine, SpineMode,
};
pub use obs::{ObsMode, ObsReport};
pub use shard::ShardMap;
