//! Release-mode scale test for the sharded engine: a **10⁷-node** keyspace
//! split into 8 shards of 4-ary SplayNets, driven through the per-shard
//! hot-pair workload (ROADMAP: "push to 10⁷–10⁸" — the sharded sibling of
//! `scale_1m.rs`).
//!
//! `#[ignore]`-gated like `scale_1m`; CI runs it in the release job with
//! `cargo test --release -q --test scale_10m -- --ignored`.
//!
//! ## Memory budget
//!
//! The documented peak-RSS budget is **1536 MiB (1.5 GiB)**. Breakdown for
//! k = 4, n = 10⁷ in 8 shards: the shard arenas total ~320 MB (~32 B/node:
//! parents 4 B, 32-bit elements 12 B, child slots 16 B); `ShardedEngine::new`
//! builds shards **sequentially**, so `from_shape` construction transients
//! peak at one 1.25·10⁶-node shard's worth (~125 MB) rather than 8×; the
//! trace (4·10⁵ requests) and window copies add a few MB.
//! Measured peak 351 MiB (x86-64 Linux, release build); the budget leaves
//! over 4× headroom while still catching per-node boxing or any scheme
//! that materializes all construction transients at once.

// Demo/report output is this target's purpose; the workspace denies stdout printing in library code only.
#![allow(clippy::print_stdout)]

use ksan::engine::{EngineConfig, EngineReport, ShardedEngine};
use ksan::prelude::*;

mod common;
use common::assert_rss_within_budget;

const N: usize = 10_000_000;
const SHARDS: usize = 8;
const REQUESTS: usize = 400_000;
const WINDOW: usize = 50_000;
const RSS_BUDGET_KIB: u64 = 1536 * 1024;

#[test]
#[ignore = "release-only scale test: run with cargo test --release -- --ignored"]
fn ten_million_node_sharded_engine_stays_flat_and_within_memory_budget() {
    let cfg = EngineConfig::from_env().with_shards(SHARDS);
    let mut engine = ShardedEngine::ksplay(4, N, cfg);
    let trace = gens::sharded_hot_pairs(N, REQUESTS, SHARDS, 16, 42);

    // Serve in windows (merging per-window reports) so both the steady
    // state and the report algebra are exercised at scale.
    let mut acc = EngineReport::new(SHARDS);
    let mut window_costs = Vec::new();
    for chunk in trace.requests().chunks(WINDOW) {
        let sub = Trace::new(N, chunk.to_vec());
        let rep = engine.run_trace(&sub);
        window_costs.push(rep.total().avg_total_unit_cost());
        acc.merge(&rep);
    }

    let total = acc.total();
    assert_eq!(total.requests, REQUESTS as u64);
    assert_eq!(acc.cross.requests, 0, "hot-pair workload stays intra-shard");
    assert_eq!(acc.router_hops, 0);
    // Traffic spreads evenly: every shard served its slice.
    for (s, m) in acc.per_shard.iter().enumerate() {
        assert_eq!(m.requests, (REQUESTS / SHARDS) as u64, "shard {s}");
    }

    // Steady-state flatness, as in scale_1m: each shard's hot pair
    // converges within its first few requests and every cold request pays
    // its O(log(n/S)) splay once, so no window may drift from the steady
    // state.
    let (lo, hi) = window_costs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &c| (lo.min(c), hi.max(c)));
    assert!(
        hi <= 1.25 * lo + 0.5,
        "steady-state per-request cost must be flat across windows \
         (min {lo:.3}, max {hi:.3})"
    );
    assert!(
        hi < 8.0,
        "steady-state per-request cost unexpectedly high: {hi:.3}"
    );

    assert_rss_within_budget(RSS_BUDGET_KIB);
}
