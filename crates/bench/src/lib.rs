//! # kst-bench — experiment harness regenerating the paper's tables
//!
//! One binary per paper artifact (the crate map in the workspace
//! `README.md` lists them all):
//! * `run_all` — Tables 1–7 (k-ary SplayNet vs static trees,
//!   k ∈ \[2,10\]), Table 8 (3-SplayNet vs SplayNet vs static binary
//!   trees), the regret, engine and observability reports, writing
//!   `results/*.md`;
//! * `remark10` — centroid-tree optimality sweep (Remark 10/37);
//! * `lemma9` — n² log_k n scaling of full & centroid trees (Lemma 9/36);
//! * `entropy_check` — empirical Theorem 13 entropy bound.
//!
//! Scaling knobs come from the environment: `KSAN_REQUESTS` (default 10⁶),
//! `KSAN_FACEBOOK_N` (default 10⁴), `KSAN_DP_LIMIT`, `KSAN_THREADS`,
//! `KSAN_SEED`.
//!
//! The library part holds shared report plumbing.

#![forbid(unsafe_code)]

use kst_engine::{EngineConfig, EngineReport};
use kst_sim::experiments::{workload_label, KaryTable, Table8Row};
use kst_sim::table::{avg, ratio, Table};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Where `results/*.md` files go.
///
/// Resolution order, so reports land somewhere sensible no matter where
/// the binary is invoked from (or copied to):
/// 1. `KSAN_RESULTS_DIR`, if set — used verbatim;
/// 2. the workspace-root `results/` derived from the compile-time
///    manifest path, if that workspace still exists on disk;
/// 3. `./results` under the current working directory.
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("KSAN_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // workspace root
    if p.is_dir() {
        p.push("results");
        return p;
    }
    PathBuf::from("results")
}

/// Writes a report file under `results/`, creating the directory.
pub fn write_report(name: &str, content: &str) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path)?;
    f.write_all(content.as_bytes())?;
    Ok(path)
}

/// Renders a Tables 1–7 style report: absolute 2-ary cost + relative rows,
/// exactly like the paper ("the lower the better" for every ratio).
///
/// ```
/// use kst_bench::render_kary_table;
/// use kst_sim::experiments::{kary_table, Scale};
///
/// let mut scale = Scale::tiny(500);
/// scale.dp_limit = 0; // skip the DP in this doc test
/// let table = kary_table("t05", &scale);
/// let md = render_kary_table(&table);
/// assert!(md.contains("SplayNet"));
/// assert!(md.contains("Optimal Tree"));
/// ```
pub fn render_kary_table(t: &KaryTable) -> String {
    let base = t.cells[0].splaynet.routing;
    let mut header: Vec<String> = vec!["".to_string()];
    for c in &t.cells {
        header.push(c.k.to_string());
    }
    let hdr_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut tab = Table::new(&hdr_refs);
    // Row 1: absolute routing cost of 2-ary SplayNet, then cost_k / cost_2.
    let mut row1 = vec!["SplayNet".to_string(), base.to_string()];
    for c in &t.cells[1..] {
        row1.push(ratio(c.splaynet.routing as f64 / base as f64));
    }
    tab.row(row1);
    // Row 2: k-ary SplayNet / full k-ary tree.
    let mut row2 = vec!["Full Tree".to_string()];
    for c in &t.cells {
        row2.push(ratio(c.splaynet.routing as f64 / c.full_tree as f64));
    }
    tab.row(row2);
    // Row 3: k-ary SplayNet / optimal static routing-based k-ary tree.
    let mut row3 = vec!["Optimal Tree".to_string()];
    for c in &t.cells {
        match c.optimal {
            Some(o) => row3.push(ratio(c.splaynet.routing as f64 / o as f64)),
            None => row3.push("-".to_string()),
        }
    }
    tab.row(row3);
    // Rows 4–5: competing self-adjusting topologies (PAPERS.md), compared
    // on routing cost against the k-ary SplayNet at the same arity.
    let mut row4 = vec!["Push-Down Tree".to_string()];
    for c in &t.cells {
        row4.push(ratio(c.pushdown.routing as f64 / c.splaynet.routing as f64));
    }
    tab.row(row4);
    let mut row5 = vec!["Rotor-Walk Tree".to_string()];
    for c in &t.cells {
        row5.push(ratio(c.rotor.routing as f64 / c.splaynet.routing as f64));
    }
    tab.row(row5);
    // Regret rows: total unit cost (routing + rotations) of each
    // self-adjusting net over the offline static optimum's routing cost —
    // "how far from clairvoyant", per net, per k.
    for (name, get) in [
        (
            "Regret SplayNet",
            (|c: &kst_sim::experiments::KaryCell| c.splaynet.total_unit_cost())
                as fn(&kst_sim::experiments::KaryCell) -> u64,
        ),
        ("Regret Push-Down", |c| c.pushdown.total_unit_cost()),
        ("Regret Rotor-Walk", |c| c.rotor.total_unit_cost()),
    ] {
        let mut row = vec![name.to_string()];
        for c in &t.cells {
            match c.optimal {
                Some(o) => row.push(ratio(get(c) as f64 / o as f64)),
                None => row.push("-".to_string()),
            }
        }
        tab.row(row);
    }
    let mut out = format!(
        "## k-ary SplayNet on {} \n\n\
         trace: n={} m={} repeat-rate={:.3} src-entropy={:.2} bits\n\n",
        workload_label(&t.workload),
        t.stats.n,
        t.stats.m,
        t.stats.repeat_rate,
        t.stats.src_entropy
    );
    out.push_str(&tab.to_markdown());
    out.push_str(
        "\nRow 1: total routing cost of 2-ary SplayNet, then cost(k)/cost(2).\n\
         Row 2: cost(k-ary SplayNet)/cost(full k-ary tree). \
         Row 3: cost(k-ary SplayNet)/cost(optimal static k-ary tree). \
         Rows 4-5: routing cost of the competing self-adjusting topologies \
         (Push-Down Trees; rotor-walk trees — see PAPERS.md) relative to the \
         k-ary SplayNet at the same arity (x<1 means the competitor routes \
         cheaper). Regret rows: each net's total unit cost (routing + \
         rotations) over the offline optimal static tree's routing cost — \
         closer to x1.000 is closer to clairvoyant. \
         Lower is better for the SplayNet in rows 1-3.\n",
    );
    out
}

/// Renders the regret report (`results/regret.md`): every self-adjusting
/// net's windowed online cost against the shared offline static reference.
pub fn render_regret_table(suites: &[kst_sim::RegretSuite]) -> String {
    let mut out = String::from("# Regret vs the offline static optimum\n");
    for s in suites {
        out.push_str(&format!(
            "\n## {} (k={}, window={})\n\n",
            workload_label(&s.workload),
            s.k,
            s.window
        ));
        let mut tab = Table::new(&[
            "Network",
            "reference",
            "cumulative",
            "first window",
            "last window",
            "regret sign",
        ]);
        for r in &s.reports {
            let last = r.windows.len().saturating_sub(1);
            let sign = match r.cumulative_regret() {
                d if d > 0 => "+",
                d if d < 0 => "- (beats static)",
                _ => "0",
            };
            tab.row(vec![
                r.net.clone(),
                r.reference.to_string(),
                ratio(r.cumulative_ratio()),
                ratio(r.window_ratio(0)),
                ratio(r.window_ratio(last)),
                sign.to_string(),
            ]);
        }
        out.push_str(&tab.to_markdown());
    }
    out.push_str(
        "\nEach cell is online unit cost (routing + rotations) divided by \
         the routing cost of one static tree chosen with hindsight over the \
         whole trace (exact DP optimum when n is within `KSAN_DP_LIMIT`, \
         else the centroid bound). Falling window ratios = the net is \
         converging; a negative regret sign means the self-adjusting net \
         beat the best static tree outright.\n",
    );
    out
}

/// Renders the Table 8 style report.
pub fn render_table8(rows: &[Table8Row]) -> String {
    let mut tab = Table::new(&[
        "Workload",
        "3-SplayNet",
        "SplayNet",
        "Full Binary Net",
        "Static Optimal Net",
    ]);
    for r in rows {
        // Paper metric: unit cost = routing + rotations, each at cost one;
        // static topologies only pay routing.
        let base = r.three_splay.total_unit_cost() as f64 / r.three_splay.requests as f64;
        let ratio_of = |cost: u64| -> String {
            let other = cost as f64 / r.three_splay.requests as f64;
            format!("x{:.3}", other / base)
        };
        let opt_cell = if r.optimal_exact {
            ratio_of(r.optimal)
        } else {
            format!("{} (near-opt)", ratio_of(r.optimal))
        };
        tab.row(vec![
            workload_label(&r.workload).to_string(),
            avg(base),
            ratio_of(r.splaynet.total_unit_cost()),
            ratio_of(r.full_binary),
            opt_cell,
        ]);
    }
    let mut out = String::from("## Table 8: 3-SplayNet vs other networks\n\n");
    out.push_str(&tab.to_markdown());
    out.push_str(
        "\nColumn 1: average request cost (routing + unit-cost rotations) of \
         3-SplayNet. Other columns: that network's average cost relative to \
         3-SplayNet (x>1 means 3-SplayNet is better, as in the paper's green \
         cells). Static trees pay no rotations.\n",
    );
    out
}

/// One workload served through the sharded engine, for the `run_all`
/// engine report.
pub struct EngineRow {
    /// Workload name (see `kst_sim::experiments::WORKLOADS`).
    pub workload: String,
    /// Keyspace size.
    pub n: usize,
    /// Engine result.
    pub report: EngineReport,
    /// Wall-clock serving time.
    pub elapsed: Duration,
}

/// Renders the sharded-engine report: per-workload totals under the
/// engine's cost model (intra-shard serve costs + gateway half-serves +
/// 2 router hops per cross-shard request) plus throughput.
pub fn render_engine_table(cfg: &EngineConfig, rows: &[EngineRow]) -> String {
    let mut tab = Table::new(&[
        "Workload",
        "n",
        "avg unit cost",
        "cross-shard",
        "router hops",
        "Mreq/s",
    ]);
    for r in rows {
        let total = r.report.total();
        tab.row(vec![
            workload_label(&r.workload).to_string(),
            r.n.to_string(),
            avg(total.avg_total_unit_cost()),
            format!("{:.1}%", r.report.cross_fraction() * 100.0),
            r.report.router_hops.to_string(),
            format!(
                "{:.2}",
                total.requests as f64 / r.elapsed.as_secs_f64() / 1e6
            ),
        ]);
    }
    let mut out = format!(
        "## Sharded engine: {} shard(s) × {} thread(s), batch {}\n\n",
        cfg.shards, cfg.threads, cfg.batch
    );
    out.push_str(&tab.to_markdown());
    out.push_str(
        "\nEach workload replays through one k-ary SplayNet per contiguous \
         keyspace shard; cross-shard requests are served to each side's \
         gateway and charged 2 router hops on top (see the kst-engine crate \
         docs for the cost model). `avg unit cost` is routing + rotations \
         per request under that model.\n",
    );
    out
}

/// Renders the observability report (`results/observability.md`): the
/// latency story behind the engine totals — per-request cost
/// distributions and per-rebuild pause tracking, one row per workload
/// served through the lazy rebuild-based engine.
pub fn render_obs_table(cfg: &EngineConfig, rows: &[EngineRow]) -> String {
    let mut tab = Table::new(&[
        "Workload",
        "n",
        "observed",
        "routing p50/p99/p999",
        "rotations p50/p99/p999",
        "rebuilds",
        "pause µs p50/p99/max",
        "nodes/rebuild p99",
        "Mreq/s",
    ]);
    for r in rows {
        let obs = &r.report.obs;
        let total = obs.total();
        let (cost, pause, nodes) = (&total.cost, &total.rebuild_pause_us, &total.rebuild_nodes);
        tab.row(vec![
            workload_label(&r.workload).to_string(),
            r.n.to_string(),
            obs.requests().to_string(),
            format!(
                "{} / {} / {}",
                cost.routing.p50(),
                cost.routing.p99(),
                cost.routing.p999()
            ),
            format!(
                "{} / {} / {}",
                cost.rotations.p50(),
                cost.rotations.p99(),
                cost.rotations.p999()
            ),
            nodes.count().to_string(),
            format!("{} / {} / {}", pause.p50(), pause.p99(), pause.max()),
            nodes.p99().to_string(),
            format!(
                "{:.2}",
                r.report.total().requests as f64 / r.elapsed.as_secs_f64() / 1e6
            ),
        ]);
    }
    let mut out = format!(
        "## Observability: lazy rebuild engine, {} shard(s) × {} thread(s), batch {}, mode {}\n\n",
        cfg.shards,
        cfg.threads,
        cfg.batch,
        cfg.obs.name()
    );
    out.push_str(&tab.to_markdown());
    out.push_str(
        "\nPer-request cost percentiles come from kst-obs log-bucketed \
         histograms (≤ 1/32 relative error, exact below 32) built from \
         deterministic ServeCost units — bit-identical across thread and \
         batch configurations. `observed` counts local shard serves \
         (cross-shard requests contribute one sample per gateway \
         half-serve). The lazy nets adjust by batched rebuilds instead of \
         per-request rotations, so the rotations row is the point: zeros \
         here, with the adjustment cost showing up as rebuild pauses — \
         wall-clock serve time of each rebuild-applying request \
         (`pause µs`), the p999-spike story the roadmap's tail-latency \
         item is about. `results/observability.json` has full histogram \
         snapshots; `results/trace.json` is a chrome://tracing timeline \
         of one run.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate `KSAN_RESULTS_DIR` (cargo runs test
    /// threads in parallel; env vars are process-global).
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn results_dir_honors_env_override_and_write_report_creates_dir() {
        let _guard = ENV_LOCK.lock().unwrap();
        let tmp = std::env::temp_dir().join("ksan-results-test");
        let _ = std::fs::remove_dir_all(&tmp);
        std::env::set_var("KSAN_RESULTS_DIR", &tmp);
        assert_eq!(results_dir(), tmp);
        let path = write_report("probe.md", "# probe\n").unwrap();
        assert!(path.starts_with(&tmp));
        assert_eq!(std::fs::read_to_string(path).unwrap(), "# probe\n");
        std::env::remove_var("KSAN_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(&tmp);
        // Without the override we fall back to a usable directory.
        let fallback = results_dir();
        assert!(fallback.ends_with("results"));
    }

    #[test]
    fn obs_table_renders_percentiles_and_pauses() {
        let cfg = EngineConfig::default()
            .with_shards(2)
            .with_obs(kst_engine::ObsMode::WallClock);
        let trace = kst_workloads::gens::temporal(128, 4_000, 0.9, 3);
        let mut engine = kst_engine::ShardedEngine::lazy(4, 128, 200, 50, 8, cfg.clone());
        let (report, elapsed) = kst_obs::timed(|| engine.run_trace(&trace));
        assert!(report.obs.requests() > 0);
        let rows = vec![EngineRow {
            workload: "t09".to_string(),
            n: 128,
            report,
            elapsed,
        }];
        let md = render_obs_table(&cfg, &rows);
        assert!(md.contains("pause µs p50/p99/max"));
        assert!(md.contains("routing p50/p99/p999"));
        assert!(md.contains("mode wall"));
    }
}
