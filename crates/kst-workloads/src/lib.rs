//! # kst-workloads — traces, demand matrices, and workload generators
//!
//! Implements the workload side of the paper's evaluation (Section 5):
//! * [`trace::Trace`] / [`trace::DemandMatrix`] — the request-sequence and
//!   offline-demand abstractions of the model (Section 2);
//! * [`decay::EwmaLedger`] — the output-sensitive (O(observed pairs))
//!   demand ledger: each epoch recorded as a sorted, coalesced run of
//!   pairs and folded into a fixed-point EWMA that smooths demand across
//!   epochs at a configurable half-life, and
//!   [`decay::DecayingDemand`], which adds the dense per-key fold and
//!   dirty tracking the lazy nets plan from; [`decay::DemandView`] / [`decay::DirtyIndex`] are the
//!   planner-facing snapshot the two-phase rebuild machinery consumes;
//! * [`gens`] — seeded generators for the uniform and temporal-locality
//!   synthetic workloads, plus simulated stand-ins for the three real
//!   datacenter trace datasets (HPC mini-apps, ProjecToR, Facebook);
//! * [`mod@stats`] — temporal/spatial locality measures used to verify that
//!   simulated traces land in the regime the paper describes.

#![forbid(unsafe_code)]

pub mod decay;
pub mod gens;
pub mod stats;
pub mod trace;

pub use decay::{DecayingDemand, DemandView, DirtyIndex, EwmaLedger};
pub use stats::{entropy_bound_rhs, stats, TraceStats};
pub use trace::{partition_keyspace, DemandMatrix, KeyRange, NodeKey, Trace};
