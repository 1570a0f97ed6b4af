//! Shared experiment definitions: the paper's workload catalog (Section 5
//! "Setup and data") and the computations behind each table, reused by the
//! `kst-bench` binaries and the integration tests.

use crate::metrics::Metrics;
use crate::par::par_map;
use crate::regret::{regret_eval_against, RegretReport};
use crate::runner::run;
use kst_core::{KPlusOneSplayNet, KSplayNet, PushDownNet, RotorWalkNet};
use kst_statics::{
    full_kary, optimal_bst_knuth_slack, optimal_routing_based_tree, static_reference,
};
use kst_workloads::{gens, stats, DemandMatrix, Trace, TraceStats};
use splaynet_classic::ClassicSplayNet;

/// Experiment scaling knobs (env-overridable so CI can run small).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Requests per trace (paper: 10⁶). Env: `KSAN_REQUESTS`.
    pub requests: usize,
    /// Facebook workload node count (paper: 10⁴). Env: `KSAN_FACEBOOK_N`.
    pub facebook_n: usize,
    /// Largest n for which the exact O(n³k) DP is attempted.
    /// Env: `KSAN_DP_LIMIT`.
    pub dp_limit: usize,
    /// Worker threads. Env: `KSAN_THREADS`.
    pub threads: usize,
    /// Base RNG seed. Env: `KSAN_SEED`.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Scale {
        Scale {
            requests: 1_000_000,
            facebook_n: 10_000,
            dp_limit: 1100,
            threads: crate::par::default_threads(),
            seed: 0xC0FFEE,
        }
    }
}

impl Scale {
    /// Reads overrides from the environment.
    pub fn from_env() -> Scale {
        let mut s = Scale::default();
        let get = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<usize>().ok());
        if let Some(v) = get("KSAN_REQUESTS") {
            s.requests = v;
        }
        if let Some(v) = get("KSAN_FACEBOOK_N") {
            s.facebook_n = v;
        }
        if let Some(v) = get("KSAN_DP_LIMIT") {
            s.dp_limit = v;
        }
        if let Some(v) = get("KSAN_THREADS") {
            s.threads = v;
        }
        if let Some(v) = std::env::var("KSAN_SEED")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            s.seed = v;
        }
        s
    }

    /// A small configuration for tests.
    pub fn tiny(requests: usize) -> Scale {
        Scale {
            requests,
            facebook_n: 256,
            dp_limit: 128,
            threads: 2,
            seed: 0xC0FFEE,
        }
    }
}

/// The eight evaluation workloads of Section 5.
pub const WORKLOADS: [&str; 8] = [
    "uniform",
    "hpc",
    "projector",
    "facebook",
    "t025",
    "t05",
    "t075",
    "t09",
];

/// Instantiates a named workload at the given scale.
pub fn workload(name: &str, scale: &Scale) -> Trace {
    let m = scale.requests;
    let s = scale.seed;
    match name {
        "uniform" => gens::uniform(100, m, s),
        "hpc" => gens::hpc(500, m, s ^ 1),
        "projector" => gens::projector(100, m, s ^ 2),
        "facebook" => gens::facebook(scale.facebook_n, m, s ^ 3),
        "t025" => gens::temporal(1023, m, 0.25, s ^ 4),
        "t05" => gens::temporal(1023, m, 0.5, s ^ 5),
        "t075" => gens::temporal(1023, m, 0.75, s ^ 6),
        "t09" => gens::temporal(1023, m, 0.9, s ^ 7),
        other => panic!("unknown workload `{other}` (expected one of {WORKLOADS:?})"),
    }
}

/// Human-readable description used in reports.
pub fn workload_label(name: &str) -> &'static str {
    match name {
        "uniform" => "Uniform (n=100)",
        "hpc" => "HPC (simulated, n=500)",
        "projector" => "ProjecToR (simulated, n=100)",
        "facebook" => "Facebook (simulated)",
        "t025" => "Temporal 0.25 (n=1023)",
        "t05" => "Temporal 0.5 (n=1023)",
        "t075" => "Temporal 0.75 (n=1023)",
        "t09" => "Temporal 0.9 (n=1023)",
        _ => "unknown",
    }
}

/// One column of Tables 1–7: everything measured for a single arity k.
#[derive(Debug, Clone)]
pub struct KaryCell {
    /// Arity.
    pub k: usize,
    /// k-ary SplayNet metrics over the whole trace.
    pub splaynet: Metrics,
    /// k-ary Push-Down Tree metrics (competing topology, PAPERS.md).
    pub pushdown: Metrics,
    /// k-ary Rotor-Walk Tree metrics (competing topology, PAPERS.md).
    pub rotor: Metrics,
    /// Total routing cost of the static full k-ary tree.
    pub full_tree: u64,
    /// Total routing cost of the optimal static routing-based k-ary tree
    /// (None when n exceeds the DP limit, as in the paper's Table 3).
    pub optimal: Option<u64>,
}

/// Tables 1–7 for one workload: k-ary SplayNet vs static trees, k ∈ \[2,10\].
#[derive(Debug, Clone)]
pub struct KaryTable {
    /// Workload name.
    pub workload: String,
    /// Trace statistics (locality evidence for EXPERIMENTS.md).
    pub stats: TraceStats,
    /// One cell per k = 2..=10.
    pub cells: Vec<KaryCell>,
}

/// One (trace, k) cell of Tables 1–7.
fn kary_cell(trace: &Trace, demand: &DemandMatrix, k: usize, scale: &Scale) -> KaryCell {
    let n = trace.n();
    let mut net = KSplayNet::balanced(k, n);
    let splaynet = run(&mut net, trace);
    let mut pd = PushDownNet::new(k, n);
    let pushdown = run(&mut pd, trace);
    let mut rw = RotorWalkNet::new(k, n);
    let rotor = run(&mut rw, trace);
    let full = full_kary(n, k).cost_on_trace(trace);
    let optimal = if n <= scale.dp_limit {
        let (t, _) = optimal_routing_based_tree(demand, k);
        Some(t.cost_on_trace(trace))
    } else {
        None
    };
    KaryCell {
        k,
        splaynet,
        pushdown,
        rotor,
        full_tree: full,
        optimal,
    }
}

/// Runs the Tables 1–7 experiment for a workload.
pub fn kary_table(name: &str, scale: &Scale) -> KaryTable {
    kary_tables(&[name], scale)
        .pop()
        // ksan-allow: panic-surface kary_tables returns exactly one table per requested workload
        .expect("one workload in, one table out")
}

/// Runs Tables 1–7 for several workloads at once, parallelizing over the
/// **whole workload × k grid** (per-workload sharding of the experiment
/// sweep): with W workloads the scheduler sees 9·W independent cells
/// instead of 9, so `run_all` saturates the thread pool across workloads
/// rather than stalling on each workload's slowest arity. Thread count
/// comes from [`Scale::threads`] (`KSAN_THREADS`).
pub fn kary_tables(names: &[&str], scale: &Scale) -> Vec<KaryTable> {
    // Stage 1: instantiate the workloads (trace + stats + demand) in
    // parallel — generation and the O(n²) demand aggregation are
    // per-workload independent.
    struct Prepared {
        name: String,
        trace: Trace,
        stats: TraceStats,
        demand: DemandMatrix,
    }
    let prepared: Vec<Prepared> = par_map(names.to_vec(), scale.threads, |name| {
        let trace = workload(name, scale);
        let stats = stats::stats(&trace);
        let demand = DemandMatrix::from_trace(&trace);
        Prepared {
            name: name.to_string(),
            trace,
            stats,
            demand,
        }
    });
    // Stage 2: one job per (workload, k) grid cell.
    let ks: Vec<usize> = (2..=10).collect();
    let jobs: Vec<(usize, usize)> = (0..prepared.len())
        .flat_map(|w| ks.iter().map(move |&k| (w, k)))
        .collect();
    let prepared_ref = &prepared;
    let cells = par_map(jobs, scale.threads, |(w, k)| {
        let p = &prepared_ref[w];
        kary_cell(&p.trace, &p.demand, k, scale)
    });
    // Regroup: cells arrive in job order, |ks| per workload.
    prepared
        .iter()
        .zip(cells.chunks(ks.len()))
        .map(|(p, cells)| KaryTable {
            workload: p.name.clone(),
            stats: p.stats.clone(),
            cells: cells.to_vec(),
        })
        .collect()
}

/// One row of Table 8: 3-SplayNet vs SplayNet vs static binary trees.
///
/// The comparison metric is the paper's **unit cost** per request —
/// routing plus rotations, each at cost one ("In all our experiments, we
/// set the routing and rotation costs to one", Section 5); static trees
/// have zero rotation cost. Routing-only totals remain available in the
/// embedded [`Metrics`].
#[derive(Debug, Clone)]
pub struct Table8Row {
    /// Workload name.
    pub workload: String,
    /// Trace statistics.
    pub stats: TraceStats,
    /// 3-SplayNet (centroid heuristic, k = 2) metrics.
    pub three_splay: Metrics,
    /// Classic SplayNet metrics.
    pub splaynet: Metrics,
    /// Full (complete) binary tree total routing cost.
    pub full_binary: u64,
    /// Static optimal BST total routing cost; `exact` is false when the
    /// Knuth-slack near-optimal heuristic was used (n too large).
    pub optimal: u64,
    /// Whether `optimal` came from the exact DP.
    pub optimal_exact: bool,
}

/// Runs the Table 8 experiment for one workload.
pub fn table8_row(name: &str, scale: &Scale) -> Table8Row {
    let trace = workload(name, scale);
    let st = stats::stats(&trace);
    let n = trace.n();
    let demand = DemandMatrix::from_trace(&trace);

    // Run the two online nets and the two static trees in parallel.
    enum Out {
        Net(Metrics),
        Cost(u64, bool),
    }
    let trace_ref = &trace;
    let demand_ref = &demand;
    let jobs: Vec<Box<dyn FnOnce() -> Out + Send>> = vec![
        Box::new(move || {
            let mut net = KPlusOneSplayNet::new(2, n);
            Out::Net(run(&mut net, trace_ref))
        }),
        Box::new(move || {
            let mut net = ClassicSplayNet::balanced(n);
            Out::Net(run(&mut net, trace_ref))
        }),
        Box::new(move || Out::Cost(full_kary(n, 2).cost_on_trace(trace_ref), true)),
        Box::new(move || {
            if n <= scale.dp_limit {
                let (t, _) = optimal_routing_based_tree(demand_ref, 2);
                Out::Cost(t.cost_on_trace(trace_ref), true)
            } else {
                let (t, _) = optimal_bst_knuth_slack(demand_ref, 16);
                Out::Cost(t.cost_on_trace(trace_ref), false)
            }
        }),
    ];
    let mut outs = par_map(jobs, scale.threads, |j| j());
    let (mut three, mut splay, mut full, mut opt, mut exact) =
        (Metrics::default(), Metrics::default(), 0u64, 0u64, true);
    // outputs arrive in input order
    for (i, o) in outs.drain(..).enumerate() {
        match (i, o) {
            (0, Out::Net(m)) => three = m,
            (1, Out::Net(m)) => splay = m,
            (2, Out::Cost(c, _)) => full = c,
            (3, Out::Cost(c, e)) => {
                opt = c;
                exact = e;
            }
            _ => unreachable!(),
        }
    }
    Table8Row {
        workload: name.to_string(),
        stats: st,
        three_splay: three,
        splaynet: splay,
        full_binary: full,
        optimal: opt,
        optimal_exact: exact,
    }
}

/// Runs Table 8 for several workloads at once, parallelizing over the
/// workload grid (each row's four inner jobs then run on the row's
/// thread, so the pool is never oversubscribed).
pub fn table8_rows(names: &[&str], scale: &Scale) -> Vec<Table8Row> {
    let inner = Scale {
        threads: 1,
        ..scale.clone()
    };
    par_map(names.to_vec(), scale.threads, |name| {
        table8_row(name, &inner)
    })
}

/// Regret evaluation of one workload: every self-adjusting net in the
/// workspace catalog against one shared offline static reference.
#[derive(Debug, Clone)]
pub struct RegretSuite {
    /// Workload name.
    pub workload: String,
    /// Arity evaluated.
    pub k: usize,
    /// Window length in requests.
    pub window: usize,
    /// One report per self-adjusting net (k-SplayNet, (k+1)-SplayNet,
    /// Push-Down Tree, Rotor-Walk Tree), all against the same reference.
    pub reports: Vec<RegretReport>,
}

/// Runs the regret evaluation for one workload at arity `k`: solves the
/// offline static reference once (exact DP within [`Scale::dp_limit`],
/// centroid bound beyond it), then prices every self-adjusting net's
/// windowed run against it.
pub fn regret_suite(name: &str, k: usize, window: usize, scale: &Scale) -> RegretSuite {
    let trace = workload(name, scale);
    regret_suite_on(name, &trace, k, window, scale.dp_limit)
}

/// [`regret_suite`] on a caller-provided trace (for tests and examples).
pub fn regret_suite_on(
    name: &str,
    trace: &Trace,
    k: usize,
    window: usize,
    dp_limit: usize,
) -> RegretSuite {
    let n = trace.n();
    let demand = DemandMatrix::from_trace(trace);
    let reference = static_reference(&demand, k, dp_limit);
    let mut reports = Vec::new();
    let mut ksplay = KSplayNet::balanced(k, n);
    reports.push(regret_eval_against(&mut ksplay, trace, &reference, window));
    let mut centroid = KPlusOneSplayNet::new(k, n);
    reports.push(regret_eval_against(
        &mut centroid,
        trace,
        &reference,
        window,
    ));
    let mut pd = PushDownNet::new(k, n);
    reports.push(regret_eval_against(&mut pd, trace, &reference, window));
    let mut rw = RotorWalkNet::new(k, n);
    reports.push(regret_eval_against(&mut rw, trace, &reference, window));
    RegretSuite {
        workload: name.to_string(),
        k,
        window,
        reports,
    }
}

/// Rebuild policy for [`kst_core::LazyKaryNet`]: the optimal static
/// routing-based tree (Theorem 2's DP) on the ledger's smoothed demand,
/// planned as the degenerate whole-tree patch. The DP wants a dense
/// matrix, so the view's sparse pairs are densified once per rebuild
/// (writing only the observed pairs) — small-n only, as the DP itself is
/// O(n³·k).
pub fn optimal_rebuilder(k: usize) -> impl kst_core::Rebuild {
    kst_core::FullRebuild(move |view: &kst_workloads::DemandView<'_>| {
        let demand = DemandMatrix::from_pairs(view.n(), &view.pairs_sorted());
        kst_statics::optimal_routing_based(&demand, k).shape
    })
}

/// Rebuild policy: the demand-oblivious centroid tree (Theorem 8), as a
/// whole-tree plan.
pub fn centroid_rebuilder(k: usize) -> impl kst_core::Rebuild {
    kst_core::FullRebuild(move |view: &kst_workloads::DemandView<'_>| {
        kst_statics::centroid_shape(view.n(), k)
    })
}

/// Rebuild policies scaling to millions of nodes (re-exported from
/// `kst-core` so the lazy rebuild policies live side by side): the
/// weight-balanced whole-tree plan on the ledger's smoothed key
/// frequencies, and its incremental variant patching only drifted
/// subtrees.
pub use kst_core::lazy::{incremental_weight_balanced_rebuilder, weight_balanced_rebuilder};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_catalog_instantiates() {
        let scale = Scale::tiny(2000);
        for name in WORKLOADS {
            let t = workload(name, &scale);
            assert_eq!(t.len(), 2000, "{name}");
            assert!(t.n() >= 100, "{name}");
        }
    }

    #[test]
    fn kary_table_small_run_has_expected_shape() {
        let mut scale = Scale::tiny(3000);
        scale.dp_limit = 0; // skip the DP for speed here
        let table = kary_table("t05", &scale);
        assert_eq!(table.cells.len(), 9);
        // monotone trend: k=10 routes cheaper than k=2 on temporal traffic
        let c2 = table.cells[0].splaynet.routing;
        let c10 = table.cells[8].splaynet.routing;
        assert!(c10 < c2, "k=10 ({c10}) should beat k=2 ({c2})");
    }

    #[test]
    fn kary_tables_grid_matches_single_table_runs() {
        // The grid-parallel path must produce exactly what per-workload
        // runs produce: same workload instantiation, same cells.
        let mut scale = Scale::tiny(1500);
        scale.dp_limit = 0;
        let grid = kary_tables(&["t05", "uniform"], &scale);
        assert_eq!(grid.len(), 2);
        for table in &grid {
            let single = kary_table(&table.workload, &scale);
            // Entropy stats sum over hash-map iteration order, so float
            // fields are only reproducible to rounding noise; the count
            // fields must match exactly.
            assert_eq!(table.stats.n, single.stats.n, "{}", table.workload);
            assert_eq!(table.stats.m, single.stats.m);
            assert_eq!(table.stats.distinct_pairs, single.stats.distinct_pairs);
            assert!((table.stats.pair_entropy - single.stats.pair_entropy).abs() < 1e-9);
            for (a, b) in table.cells.iter().zip(&single.cells) {
                assert_eq!(a.k, b.k);
                assert_eq!(a.splaynet, b.splaynet, "{} k={}", table.workload, a.k);
                assert_eq!(a.pushdown, b.pushdown, "{} k={}", table.workload, a.k);
                assert_eq!(a.rotor, b.rotor, "{} k={}", table.workload, a.k);
                assert_eq!(a.full_tree, b.full_tree);
                assert_eq!(a.optimal, b.optimal);
            }
        }
    }

    #[test]
    fn table8_rows_grid_matches_single_rows() {
        let scale = Scale::tiny(1200);
        let rows = table8_rows(&["uniform", "t05"], &scale);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            let single = table8_row(&row.workload, &scale);
            assert_eq!(row.three_splay, single.three_splay, "{}", row.workload);
            assert_eq!(row.splaynet, single.splaynet);
            assert_eq!(row.full_binary, single.full_binary);
            assert_eq!(row.optimal, single.optimal);
        }
    }

    #[test]
    fn regret_suite_covers_all_self_adjusting_nets() {
        let scale = Scale::tiny(1200);
        let suite = regret_suite("uniform", 3, 300, &scale);
        assert_eq!(suite.reports.len(), 4);
        for r in &suite.reports {
            assert!(r.exact, "{}: n=100 is within the tiny DP limit", r.net);
            assert_eq!(r.windows.len(), 4, "{}", r.net);
            assert_eq!(r.static_total, suite.reports[0].static_total, "{}", r.net);
            assert!(r.online_total > 0, "{}", r.net);
        }
    }

    #[test]
    fn table8_row_small_run() {
        let scale = Scale::tiny(3000);
        let row = table8_row("uniform", &scale);
        assert_eq!(row.three_splay.requests, 3000);
        assert_eq!(row.splaynet.requests, 3000);
        assert!(row.full_binary > 0);
        assert!(row.optimal > 0);
        assert!(row.optimal_exact);
        // the optimal static tree is never beaten by the full tree
        assert!(row.optimal <= row.full_binary);
    }
}
