//! Release-mode scale test: a 10⁶-node online k-ary SplayNet driven through
//! a skewed trace (ROADMAP: "push the online nets to 10⁶ nodes with memory
//! profiling").
//!
//! `#[ignore]`-gated because a million-node network is pointless to exercise
//! under the debug profile; CI runs it in the release job with
//! `cargo test --release -- --ignored`.
//!
//! ## Memory budget
//!
//! The documented peak-RSS budget is **512 MiB**. Breakdown for k = 4,
//! n = 10⁶: the arena tree itself is ~32 MB (parents 4 MB, 32-bit elements
//! 12 MB, child slots 16 MB); `from_shape` construction transients (the
//! flat shape, its layout, the placement stack) are freed before serving;
//! the trace and test harness add a few MB. The measured peak is 77 MiB
//! (x86-64 Linux, release build), so the budget leaves over 6× headroom
//! while still catching any per-node `Vec` regression or quadratic
//! blow-up (per-node heap boxing at this scale costs hundreds of MB
//! immediately).

// Demo/report output is this target's purpose; the workspace denies stdout printing in library code only.
#![allow(clippy::print_stdout)]

use ksan::prelude::*;

mod common;
use common::assert_rss_within_budget;

const N: usize = 1_000_000;
const REQUESTS: usize = 200_000;
const WINDOW: usize = 20_000;
const RSS_BUDGET_KIB: u64 = 512 * 1024;

/// Skewed trace: a dominant far-apart hot pair with a pseudo-random cold
/// request mixed in every 16th slot (deterministic, no RNG state needed).
fn skewed_trace(n: usize, m: usize) -> Trace {
    let (hu, hv) = (1u32, n as u32);
    let mut reqs = Vec::with_capacity(m);
    let mut x = 0u64;
    for i in 0..m {
        if i % 16 == 0 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let w = ((x >> 33) % (n as u64 - 2) + 2) as u32;
            reqs.push((hu, w));
        } else {
            reqs.push((hu, hv));
        }
    }
    Trace::new(n, reqs)
}

#[test]
#[ignore = "release-only scale test: run with cargo test --release -- --ignored"]
fn million_node_hot_pair_stays_flat_and_within_memory_budget() {
    let mut net = KSplayNet::balanced(4, N);
    let trace = skewed_trace(N, REQUESTS);
    let (total, windows) = ksan::sim::run_windowed(&mut net, &trace, WINDOW);

    assert_eq!(total.requests, REQUESTS as u64);
    assert_eq!(windows.len(), REQUESTS / WINDOW);

    // Serve cost per request must be flat across windows — the hot pair
    // converges within the first few requests, and each cold request pays
    // its O(log n) splay exactly once, so no window may drift away from the
    // steady state (a super-constant trend here would mean the adjustment
    // discipline degrades the topology over time).
    let costs: Vec<f64> = windows.iter().map(|w| w.avg_total_unit_cost()).collect();
    let (lo, hi) = costs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &c| (lo.min(c), hi.max(c)));
    assert!(
        hi <= 1.25 * lo + 0.5,
        "steady-state per-request cost must be flat across windows \
         (min {lo:.3}, max {hi:.3})"
    );
    // Steady state is dominated by adjacent hot-pair serves at unit cost.
    assert!(
        hi < 8.0,
        "steady-state per-request cost unexpectedly high: {hi:.3}"
    );

    // Memory: peak RSS within the documented budget (Linux-only probe).
    assert_rss_within_budget(RSS_BUDGET_KIB);
}

#[test]
#[ignore = "release-only scale test: run with cargo test --release -- --ignored"]
fn million_node_competitors_stay_flat_and_within_memory_budget() {
    // The complete-tree competitors at the same scale. Their footprint is
    // far smaller than the SplayNet's (four u32 arrays plus bounded
    // link-diff scratch — ~20 MB at n = 10⁶), so the shared process-wide
    // 512 MiB budget leaves even more headroom; the interesting failure
    // mode here is cost drift, e.g. rotor displacement slowly pushing the
    // hot pair apart.
    let trace = skewed_trace(N, REQUESTS);
    let run = |label: &str, windows: Vec<ksan::sim::Metrics>, total: ksan::sim::Metrics| {
        assert_eq!(total.requests, REQUESTS as u64, "{label}");
        let costs: Vec<f64> = windows.iter().map(|w| w.avg_total_unit_cost()).collect();
        let (lo, hi) = costs
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        assert!(
            hi <= 1.25 * lo + 0.5,
            "{label}: steady-state per-request cost must be flat across \
             windows (min {lo:.3}, max {hi:.3})"
        );
        assert!(
            hi < 8.0,
            "{label}: steady-state per-request cost unexpectedly high: {hi:.3}"
        );
    };

    let mut pushdown = PushDownNet::new(4, N);
    let (total, windows) = ksan::sim::run_windowed(&mut pushdown, &trace, WINDOW);
    run("PushDownNet", windows, total);

    let mut rotor = RotorWalkNet::new(4, N);
    let (total, windows) = ksan::sim::run_windowed(&mut rotor, &trace, WINDOW);
    run("RotorWalkNet", windows, total);

    assert_rss_within_budget(RSS_BUDGET_KIB);
}
