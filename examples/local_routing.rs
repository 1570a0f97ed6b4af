//! Local greedy routing despite reconfiguration: route packets with only
//! per-node local state while the topology keeps splaying underneath —
//! the property that motivates search-tree networks (Section 2).
//!
//! ```sh
//! cargo run --release --example local_routing
//! ```

// Demo/report output is this target's purpose; the workspace denies stdout printing in library code only.
#![allow(clippy::print_stdout)]

use ksan::core::routing;
use ksan::prelude::*;

fn main() {
    let n = 256;
    let mut net = KSplayNet::balanced(4, n);

    // Scramble the topology with traffic.
    let trace = gens::zipf(n, 20_000, 1.2, 5);
    ksan::sim::run(&mut net, &trace);

    // Route packets greedily; compare with tree distance.
    let mut greedy_total = 0u64;
    let mut dist_total = 0u64;
    let mut detoured = 0usize;
    let probes = 2_000;
    let probe = gens::uniform(n, probes, 17);
    for &(u, v) in probe.requests() {
        let route = routing::route(net.tree(), u, v).expect("greedy routing must deliver");
        let d = net.distance(u, v);
        greedy_total += route.len();
        dist_total += d;
        if route.len() > d {
            detoured += 1;
        }
    }
    println!(
        "{} probes over a heavily-splayed 4-ary tree (n={}):\n\
         greedy route length total = {}, tree distance total = {}\n\
         overhead = {:.2}%, detoured packets = {} ({:.1}%)",
        probes,
        n,
        greedy_total,
        dist_total,
        100.0 * (greedy_total as f64 / dist_total as f64 - 1.0),
        detoured,
        100.0 * detoured as f64 / probes as f64,
    );
    println!(
        "\nEvery packet was delivered using only local node state (routing\n\
         array + interval of its parent link + incoming port) — no\n\
         routing tables were updated during {} reconfigurations.",
        20_000
    );

    // The classic routing-based SplayNet never detours: its routing
    // elements are the keys themselves.
    println!(
        "\nFor contrast, a routing-based tree (classic BST layout) routes\n\
         every packet along the exact shortest path; the k-ary generalization\n\
         trades that for higher arity and the k-splay rotations (Remark 11)."
    );
}
