//! # ksan — self-adjusting k-ary search tree networks
//!
//! Facade crate re-exporting the whole workspace: a production-quality
//! Rust reproduction of *Toward Self-Adjusting k-ary Search Tree Networks*
//! (Feder, Paramonov, Mavrin, Salem, Aksenov, Schmid; 2024,
//! arXiv:2302.13113).
//!
//! * [`core`] (`kst-core`) — the k-ary search tree network, k-splay
//!   rotations, the online k-ary SplayNet and centroid (k+1)-SplayNet,
//!   greedy local routing;
//! * [`statics`] (`kst-statics`) — offline optimal static trees (O(n³k)
//!   DP, O(n²k) uniform DP, O(n) centroid construction, full trees);
//! * [`workloads`] (`kst-workloads`) — traces, demand matrices, workload
//!   generators and locality statistics;
//! * [`sim`] (`kst-sim`) — the cost-model simulator and experiment
//!   harness;
//! * [`engine`] (`kst-engine`) — the sharded, multi-threaded
//!   trace-serving engine (contiguous keyspace shards served in rounds on
//!   lanes of shards, explicit cross-shard router cost model);
//! * [`obs`] (`kst-obs`) — deterministic observability: log-bucketed
//!   mergeable cost histograms, a ring-buffer span tracer, the audited
//!   wall-clock surface, and JSON/chrome-trace exporters;
//! * [`classic`] (`splaynet-classic`) — the original binary SplayNet
//!   baseline.
//!
//! ## Quick start
//!
//! ```
//! use ksan::prelude::*;
//!
//! // A 4-ary self-adjusting search tree network on 200 nodes.
//! let mut net = KSplayNet::balanced(4, 200);
//! let trace = gens::temporal(200, 10_000, 0.75, 42);
//! let metrics = ksan::sim::run(&mut net, &trace);
//! assert!(metrics.routing > 0);
//! ```

#![forbid(unsafe_code)]

pub use kst_core as core;
pub use kst_engine as engine;
pub use kst_obs as obs;
pub use kst_sim as sim;
pub use kst_statics as statics;
pub use kst_workloads as workloads;
pub use splaynet_classic as classic;

/// Commonly used items in one import.
pub mod prelude {
    pub use kst_core::{
        KPlusOneSplayNet, KSplayNet, KstTree, Network, NodeKey, PushDownNet, RotorWalkNet,
        ServeCost, ShapeTree, SplayStrategy, WindowPolicy,
    };
    pub use kst_engine::{
        EngineConfig, EngineReport, ReshardConfig, ReshardReport, ShardMap, ShardedEngine,
        SpineMode,
    };
    pub use kst_obs::{CostHistograms, Histogram, Stopwatch, Tracer};
    pub use kst_sim::{Metrics, RegretReport, Scale};
    pub use kst_statics::{
        centroid_tree, full_kary, optimal_routing_based_tree, static_reference, DistTree,
    };
    pub use kst_workloads::gens;
    pub use kst_workloads::{
        partition_keyspace, DecayingDemand, DemandMatrix, DemandView, DirtyIndex, EwmaLedger,
        KeyRange, Trace,
    };
    pub use splaynet_classic::ClassicSplayNet;
}
