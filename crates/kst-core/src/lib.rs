//! # kst-core — self-adjusting k-ary search tree networks
//!
//! Core library reproducing the primary contribution of *Toward
//! Self-Adjusting k-ary Search Tree Networks* (Feder, Paramonov, Mavrin,
//! Salem, Aksenov, Schmid; 2024):
//!
//! * [`tree::KstTree`] — the arena-backed k-ary search tree **network**
//!   (Definition 1): permanent node identifiers, per-node routing arrays of
//!   `k−1` routing keys drawn from a separate ordered space, `k` child
//!   slots, search property maintained across reconfiguration.
//! * [`restructure`] — the paper's novel rotations (`k-semi-splay`,
//!   `k-splay`, and their d-node generalization) implemented as one
//!   window-assignment procedure that reproduces classic binary splay
//!   rotations at `k = 2`.
//! * [`ksplaynet::KSplayNet`] — the online **k-ary SplayNet** (Section 4.1).
//! * [`centroid_net::KPlusOneSplayNet`] — the online **(k+1)-SplayNet**
//!   built around the centroid heuristic (Section 4.2).
//! * [`routing`] — local greedy packet routing despite reconfigurations.
//! * [`net::Network`] — the simulation-facing trait shared with baselines
//!   and static topologies.
//!
//! ## Quick start
//!
//! ```
//! use kst_core::{KSplayNet, Network};
//!
//! let mut net = KSplayNet::balanced(4, 100); // 4-ary, 100 nodes
//! let cost = net.serve(17, 93);
//! assert!(cost.routing >= 1);
//! assert_eq!(net.distance(17, 93), 1); // endpoints now adjacent
//! ```

pub mod alloc_probe;
pub mod centroid_net;
pub mod complete;
pub mod invariants;
pub mod key;
pub mod ksplaynet;
pub mod lazy;
pub mod net;
pub mod prefetch;
pub mod pushdown;
pub mod reshard;
pub mod restructure;
pub mod rotor;
pub mod routing;
pub mod shape;
pub mod splay;
pub mod tree;
pub mod viz;

// Send-safety audit: the sharded engine (`kst-engine`) moves whole
// networks into worker threads, so every network type — and the arena
// tree underneath — must stay `Send`. The arena design (a parent `Vec`
// and a row `Vec`, no `Rc`/`RefCell`, no raw pointers, thread-local-free
// scratch) gives this for free today; these assertions turn any future
// regression (e.g. an `Rc`-cached path) into a compile error right here
// instead of a trait-bound error three crates away.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<tree::KstTree>();
    assert_send::<ksplaynet::KSplayNet>();
    assert_send::<centroid_net::KPlusOneSplayNet>();
    assert_send::<pushdown::PushDownNet>();
    assert_send::<rotor::RotorWalkNet>();
    assert_send::<shape::ShapeTree>();
    assert_send::<net::ServeCost>();
    // Lazy nets are Send whenever their rebuild policy is.
    assert_send::<
        lazy::LazyKaryNet<
            lazy::FullRebuild<fn(&kst_workloads::DemandView<'_>) -> shape::ShapeTree>,
        >,
    >();
    assert_send::<lazy::LazyKaryNet<lazy::IncrementalWeightBalanced>>();
};

pub use centroid_net::{KPlusOneSplayNet, Membership};
pub use complete::CompleteTopology;
pub use key::{key_image, NodeIdx, NodeKey, RoutingKey, NIL};
pub use ksplaynet::KSplayNet;
pub use kst_workloads::{DecayingDemand, DemandView, DirtyIndex, EwmaLedger};
pub use lazy::{
    incremental_weight_balanced_rebuilder, weight_balanced_rebuilder, FullRebuild,
    IncrementalWeightBalanced, LazyKaryNet, Rebuild, RebuildPlan, SubtreePatch,
};
pub use net::{Network, ServeCost};
pub use prefetch::prefetch_read;
pub use pushdown::PushDownNet;
pub use reshard::Reshardable;
pub use restructure::WindowPolicy;
pub use rotor::RotorWalkNet;
pub use shape::ShapeTree;
pub use splay::SplayStrategy;
pub use tree::{End, KstTree};
