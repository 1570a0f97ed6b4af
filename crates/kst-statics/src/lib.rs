//! # kst-statics — offline static k-ary search tree networks
//!
//! The paper's Section 3 (+ Appendices A–B):
//! * [`dp_general`] — optimal static **routing-based** k-ary search tree
//!   for an arbitrary demand matrix in O(n³·k) (Theorem 2);
//! * [`dp_uniform`] — optimal tree for the uniform workload in O(n²·k)
//!   (Theorem 4);
//! * [`centroid`] — the linear-time centroid construction (Theorem 8,
//!   Definition 5) underlying the online (k+1)-SplayNet;
//! * [`full_tree`] — the complete k-ary tree baseline (Lemma 9);
//! * [`knuth`] — k = 2 near-optimal BST from a Knuth-style restricted
//!   DP for large n (differentially validated against the exact DP);
//! * [`eval`] — static topology evaluation ([`eval::DistTree`],
//!   [`eval::StaticNet`]);
//! * [`regret`] — offline static references (exact DP or centroid bound)
//!   and per-window trace pricing for regret evaluation;
//! * [`brute`] — exponential ground-truth enumeration for tests.

#![forbid(unsafe_code)]

pub mod brute;
pub mod centroid;
pub mod dp_general;
pub mod dp_uniform;
pub mod eval;
pub mod full_tree;
pub mod knuth;
pub mod regret;

pub use centroid::{centroid_shape, centroid_subtree_sizes, centroid_tree};
pub use dp_general::{optimal_routing_based, optimal_routing_based_tree, OptimalStatic};
pub use dp_uniform::{optimal_uniform, optimal_uniform_tree, UniformOptimal};
pub use eval::{DistTree, StaticNet};
pub use full_tree::full_kary;
pub use knuth::optimal_bst_knuth_slack;
pub use regret::{static_reference, window_costs, StaticReference};
