//! Release-mode scale tests for the lazy nets (ROADMAP: "grow
//! `LazyKaryNet` from Remark-level prototype into a first-class network"):
//! a 10⁶-node lazy k-ary net — impossible before the sparse epoch-demand
//! redesign, whose dense `vec![0; n*n]` ledger would have needed 8 TB at
//! this n — constructs, serves a skewed trace end-to-end, and rebuilds
//! from observed demand, both standalone and sharded through `kst-engine`.
//!
//! `#[ignore]`-gated because million-node nets are pointless to exercise
//! under the debug profile; CI runs them in the release job with
//! `cargo test --release -- --ignored`.
//!
//! ## Memory budget
//!
//! The documented peak-RSS budget is **512 MiB** (the same envelope as
//! the reactive net's `scale_1m` test). Breakdown for k = 4, n = 10⁶,
//! per test:
//! - the arena tree is 32 MB (32 B per node: three 4 B routing elements,
//!   four 4 B child slots and the parent);
//! - the lazy ledger's dense per-key arrays are 24 MB (24 B per key: the
//!   weight prefix, the planned baselines and the dirty prefix);
//! - a rebuild re-forms the tree in place, so it adds only the new shape
//!   (4 MB of parent pointers) and the patch's retained copy of the old
//!   parent pointers (4 MB);
//! - the pair ledger is the point of the exercise: a few thousand
//!   distinct pairs, well under 1 MB, versus the 8 TB a dense matrix
//!   would demand.
//!
//! That is about 64 MB of arrays per test; rebuild transients, the
//! trace and the runtime bring the standalone test's peak to 92 MiB
//! when it runs alone (x86-64 Linux, release build). The two tests share
//! one process and by default run at the same time, which measured a
//! 167 MiB peak.

// Demo/report output is this target's purpose; the workspace denies stdout printing in library code only.
#![allow(clippy::print_stdout)]

use ksan::core::lazy::weight_balanced_rebuilder;
use ksan::core::LazyKaryNet;
use ksan::engine::{EngineConfig, ShardedEngine};
use ksan::prelude::*;

mod common;

const N: usize = 1_000_000;
const REQUESTS: usize = 200_000;
const WINDOW: usize = 20_000;
const RSS_BUDGET_KIB: u64 = 512 * 1024;

/// Skewed trace over 8 far-apart hot pairs with a pseudo-random cold
/// request mixed in every 16th slot (deterministic, no RNG state needed).
fn skewed_trace(n: usize, m: usize) -> Trace {
    let hot: Vec<(u32, u32)> = (0..8u32)
        .map(|i| (1 + i * 123_457, n as u32 - 1 - i * 97_001))
        .collect();
    let mut reqs = Vec::with_capacity(m);
    let mut x = 0u64;
    for i in 0..m {
        if i % 16 == 0 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let w = ((x >> 33) % (n as u64 - 2) + 2) as u32;
            reqs.push((1, w));
        } else {
            reqs.push(hot[i % hot.len()]);
        }
    }
    Trace::new(n, reqs)
}

#[test]
#[ignore = "release-only scale test: run with cargo test --release -- --ignored"]
fn million_node_lazy_net_rebuilds_and_stays_within_memory_budget() {
    let mut net = LazyKaryNet::new(4, N, 500_000, weight_balanced_rebuilder(4));
    let trace = skewed_trace(N, REQUESTS);
    let (total, windows) = ksan::sim::run_windowed(&mut net, &trace, WINDOW);

    assert_eq!(total.requests, REQUESTS as u64);
    assert_eq!(windows.len(), REQUESTS / WINDOW);
    assert!(
        net.rebuilds() >= 2,
        "α must have fired repeatedly (got {} rebuilds)",
        net.rebuilds()
    );
    assert!(
        total.links_changed > 0,
        "rebuilds must be paid as link churn"
    );

    // The weight-balanced rebuild must actually adapt the topology: after
    // the first rebuild the hot pairs sit near the root, so late windows
    // route strictly cheaper than the first (balanced-tree) window.
    let first = windows.first().unwrap().avg_routing();
    let last = windows.last().unwrap().avg_routing();
    assert!(
        last < first,
        "demand-aware rebuilds must cut routing cost ({last:.3} vs {first:.3})"
    );

    // Output-sensitive ledger: the current epoch tracks only observed
    // pairs (8 hot pairs + the cold singletons of this epoch), never n².
    let epoch_pairs = net.epoch_pairs().len();
    assert!(
        epoch_pairs <= REQUESTS / 16 + 8,
        "ledger holds {epoch_pairs} distinct pairs"
    );

    // Memory: peak RSS within the documented budget (Linux-only probe).
    assert_rss_within_budget();
}

#[test]
#[ignore = "release-only scale test: run with cargo test --release -- --ignored"]
fn million_node_lazy_shards_serve_through_the_engine() {
    // 4 shards × 250k-node lazy nets hosted by the sharded engine: the
    // promotion the sparse ledger buys — before it, one shard alone would
    // have allocated a 500 GB dense epoch matrix.
    let shards = 4;
    let cfg = EngineConfig::default()
        .with_shards(shards)
        .with_threads(2)
        .with_batch(1024);
    let mut engine = ShardedEngine::new(N, cfg, |_, range| {
        LazyKaryNet::new(4, range.len(), 150_000, weight_balanced_rebuilder(4))
    });
    let trace = gens::sharded_hot_pairs(N, REQUESTS, shards, 16, 77);
    let report = engine.run_trace(&trace);

    assert_eq!(report.total().requests, REQUESTS as u64);
    assert_eq!(report.cross.requests, 0, "workload is intra-shard");
    let rebuilds: u64 = engine.nets().iter().map(|n| n.rebuilds()).sum();
    assert!(
        rebuilds >= shards as u64,
        "every shard should have rebuilt at least once (got {rebuilds})"
    );
    assert_rss_within_budget();
}

/// Asserts the documented peak-RSS budget through the shared scale-test
/// helper.
fn assert_rss_within_budget() {
    common::assert_rss_within_budget(RSS_BUDGET_KIB);
}
