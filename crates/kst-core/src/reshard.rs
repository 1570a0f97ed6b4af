//! Boundary-run hand-off between networks — the core capability behind
//! the engine's live resharding.
//!
//! A reshardable network can splice a run of its lowest or highest keys
//! out as a [`ShapeTree`] fragment ([`KstTree::extract_range`]) and graft
//! a neighbour's fragment onto either end ([`KstTree::absorb_fragment`]),
//! renumbering its local keyspace so it stays `1..=n`. The engine's
//! migration applier pairs one extract with one absorb on the adjacent
//! shard and shifts the [`ShardMap`] boundary between them; the global
//! key numbering is owned by the shard map, so the local renumbering here
//! is invisible above the dispatch layer.
//!
//! These are **cold-path** operations: they run between batches at epoch
//! boundaries and may allocate; the serve path never calls them.
//!
//! [`ShardMap`]: ../../kst_engine/struct.ShardMap.html
//! [`KstTree::extract_range`]: crate::KstTree::extract_range
//! [`KstTree::absorb_fragment`]: crate::KstTree::absorb_fragment

use crate::net::{Network, ServeCost};
use crate::shape::ShapeTree;

/// A network that can donate and accept boundary key runs.
pub trait Reshardable: Network {
    /// Splices the lowest `count` keys out, renumbering the survivors
    /// down. Returns the fragment's shape and the restructuring cost.
    /// Panics unless `1 <= count < len`.
    fn extract_low(&mut self, count: usize) -> (ShapeTree, ServeCost);

    /// Splices the highest `count` keys out (survivors keep their
    /// numbers). Panics unless `1 <= count < len`.
    fn extract_high(&mut self, count: usize) -> (ShapeTree, ServeCost);

    /// Grafts `fragment` in as the new lowest keys, renumbering the
    /// existing keys up by `fragment.len()`.
    fn absorb_low(&mut self, fragment: &ShapeTree) -> ServeCost;

    /// Grafts `fragment` in as the new highest keys.
    fn absorb_high(&mut self, fragment: &ShapeTree) -> ServeCost;
}
