//! Initial-topology sensitivity: the model hands the online algorithm "an
//! arbitrary initial network G₀" (Section 2). This experiment starts the
//! k-ary SplayNet from a balanced tree, the centroid tree, and a degenerate
//! path, and shows that the topology *shape* is amortized away (the O(m)
//! term of Theorem 12): balanced and centroid starts converge to identical
//! costs.
//!
//! It also demonstrates a subtler, conserved-resource effect this
//! implementation makes visible: rotations conserve the routing-element
//! *multiset*, so the initial **placement of routing-element values** caps
//! the reachable topologies forever. The degenerate path build puts every
//! node's k−1 elements in a tight run just below its own key, where no
//! other key image can ever fall — all spare slots are permanently dead,
//! and a path-initialized k-ary SplayNet behaves exactly like the binary
//! one (compare the k = 4 "path" rows with k = 2). The balanced and
//! centroid builders spread separators across scales, which is what gives
//! higher arity its capacity. This is the network analogue of Remark 11's
//! observation that element/identifier placement is where the k-ary
//! generality lives.

#![forbid(unsafe_code)]

use kst_bench::write_report;
use kst_core::shape::ShapeTree;
use kst_core::{KSplayNet, KstTree, NIL};
use kst_sim::run;
use kst_sim::table::Table;
use kst_statics::centroid_shape;
use kst_workloads::gens;

/// A degenerate single-path shape (worst-case height).
fn path_shape(n: usize) -> ShapeTree {
    // Key i + 1 hangs below key i: own key first, child holds the
    // larger keys.
    ShapeTree {
        parent: (0..n as u32)
            .map(|i| if i == 0 { NIL } else { i - 1 })
            .collect(),
        root: 0,
    }
}

fn main() {
    let m: usize = std::env::var("KSAN_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);
    let n = 512;
    let mut tab = Table::new(&[
        "k",
        "workload",
        "init",
        "avg routing (all)",
        "avg routing (2nd half)",
    ]);
    for k in [2usize, 4] {
        for (wname, trace) in [
            ("temporal 0.5", gens::temporal(n, m, 0.5, 5)),
            ("zipf 1.2", gens::zipf(n, m, 1.2, 6)),
        ] {
            let inits: Vec<(&str, KstTree)> = vec![
                ("balanced", KstTree::balanced(k, n)),
                ("centroid", KstTree::from_shape(k, &centroid_shape(n, k))),
                ("path (worst case)", KstTree::from_shape(k, &path_shape(n))),
            ];
            for (iname, tree) in inits {
                let mut net = KSplayNet::from_tree(tree);
                let half = trace.len() / 2;
                let first = kst_workloads::Trace::new(n, trace.requests()[..half].to_vec());
                let second = kst_workloads::Trace::new(n, trace.requests()[half..].to_vec());
                let m1 = run(&mut net, &first);
                let m2 = run(&mut net, &second);
                let total_avg =
                    (m1.routing + m2.routing) as f64 / (m1.requests + m2.requests) as f64;
                tab.row(vec![
                    k.to_string(),
                    wname.to_string(),
                    iname.to_string(),
                    format!("{total_avg:.3}"),
                    format!("{:.3}", m2.avg_routing()),
                ]);
            }
        }
    }
    let mut report = format!(
        "## Initial-topology sensitivity of k-ary SplayNet (n = {n}, m = {m})\n\n\
         Balanced and centroid starts converge to identical second-half\n\
         averages: splaying amortizes the initial *shape* away. The path\n\
         start at k > 2 stays at binary-level cost: its routing-element\n\
         values are bunched below the node keys, and since rotations\n\
         conserve the element multiset, the spare slots can never become\n\
         usable — initial element *placement* (unlike shape) is permanent.\n\n"
    );
    report.push_str(&tab.to_markdown());
    println!("{report}");
    match write_report("init_topology.md", &report) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
}
