//! Regenerates the table artifacts in one go, writing `results/*.md`:
//! Tables 1–7 (`table_kary_<workload>.md` each, and all seven in
//! `tables_1_7.md`) and Table 8 (`table8.md`), plus the regret report (`results/regret.md`: every self-adjusting net
//! vs the offline static optimum, windowed), the sharded-engine report
//! (`results/engine.md`) and the observability artifacts below.
//! `remark10`, `lemma9` and `entropy_check` are separate binaries and are
//! not run here.
//!
//! Parallelism: Tables 1–7 fan out over the **whole workload × k grid**
//! (9·W independent cells) and Table 8 over the workload grid, so the
//! thread pool (`KSAN_THREADS`, default: all cores) stays saturated
//! across workloads. The engine section replays each workload through
//! `KSAN_SHARDS` keyspace shards (default 4) on the engine's own worker
//! pool (`KSAN_BATCH` tunes dispatch batching). The observability
//! section replays each workload through the lazy rebuild engine with
//! wall-clock recording on, writing `results/observability.md`,
//! `results/observability.json`, and a chrome://tracing dump
//! `results/trace.json`.

#![forbid(unsafe_code)]

use kst_bench::{
    render_engine_table, render_kary_table, render_obs_table, render_regret_table, render_table8,
    write_report, EngineRow,
};
use kst_engine::{EngineConfig, ObsMode, ShardedEngine};
use kst_obs::Stopwatch;
use kst_sim::experiments::{kary_tables, regret_suite, table8_rows, workload, Scale, WORKLOADS};

fn main() {
    let scale = Scale::from_env();
    eprintln!(
        "run_all: requests={} facebook_n={} dp_limit={} threads={}",
        scale.requests, scale.facebook_n, scale.dp_limit, scale.threads
    );
    let t0 = Stopwatch::start();

    // Tables 1–7: one grid-parallel run over every workload's k column.
    let names = ["hpc", "projector", "facebook", "t025", "t05", "t075", "t09"];
    let start = Stopwatch::start();
    let tables = kary_tables(&names, &scale);
    eprintln!(
        "[tables 1-7 | {} workloads, grid-parallel] {:.1?}",
        names.len(),
        start.elapsed()
    );
    let mut combined = String::new();
    for table in &tables {
        let report = render_kary_table(table);
        println!("{report}");
        combined.push_str(&report);
        combined.push('\n');
        let _ = write_report(&format!("table_kary_{}.md", table.workload), &report);
    }
    let _ = write_report("tables_1_7.md", &combined);

    // Table 8: workload-grid parallel.
    let start = Stopwatch::start();
    let rows = table8_rows(&WORKLOADS, &scale);
    eprintln!(
        "[table 8 | {} workloads, grid-parallel] {:.1?}",
        WORKLOADS.len(),
        start.elapsed()
    );
    let report = render_table8(&rows);
    println!("{report}");
    let _ = write_report("table8.md", &report);

    // Regret: every self-adjusting net vs the offline static optimum,
    // windowed, one suite per workload at k = 4 (the grid's midpoint).
    let start = Stopwatch::start();
    let window = (scale.requests / 10).max(1);
    let suites = kst_sim::par::par_map(WORKLOADS.to_vec(), scale.threads, |name| {
        regret_suite(name, 4, window, &scale)
    });
    eprintln!(
        "[regret | {} workloads, k=4, window={window}] {:.1?}",
        WORKLOADS.len(),
        start.elapsed()
    );
    let report = render_regret_table(&suites);
    println!("{report}");
    let _ = write_report("regret.md", &report);

    // Sharded engine: every workload through S shards of 4-ary SplayNets.
    let mut ecfg = EngineConfig::from_env();
    if std::env::var_os("KSAN_SHARDS").is_none() {
        ecfg.shards = 4;
    }
    // Trace generation parallelizes across workloads; serving then runs
    // one workload at a time so the engine's own worker pool gets the
    // machine to itself (its throughput is the reported number).
    let traces = kst_sim::par::par_map(WORKLOADS.to_vec(), scale.threads, |name| {
        (name, workload(name, &scale))
    });
    let mut engine_rows = Vec::new();
    for (name, trace) in &traces {
        let mut engine = ShardedEngine::ksplay(4, trace.n(), ecfg.clone());
        let (report, elapsed) = kst_obs::timed(|| engine.run_trace(trace));
        eprintln!("[engine | {name}] served in {elapsed:.1?}");
        engine_rows.push(EngineRow {
            workload: name.to_string(),
            n: trace.n(),
            report,
            elapsed,
        });
    }
    let report = render_engine_table(&ecfg, &engine_rows);
    println!("{report}");
    let _ = write_report("engine.md", &report);

    // Observability: the same workloads through the lazy rebuild engine
    // with wall-clock recording on — per-request cost percentiles, and
    // each rebuild's pause. `KSAN_OBS` can force the mode (e.g. `det`
    // for bit-reproducible artifacts); default here is wall-clock, the
    // point of the report.
    let mut ocfg = ecfg.clone();
    // Lazy nets cannot reshard, so `KSAN_RESHARD=on` applies only above.
    ocfg.reshard.enabled = false;
    if std::env::var_os("KSAN_OBS").is_none() {
        ocfg.obs = ObsMode::WallClock;
    }
    let mut obs_rows = Vec::new();
    let mut obs_json = String::from("[");
    let mut trace_dump: Option<String> = None;
    for (name, trace) in &traces {
        // Rebuild-epoch trigger α scales with per-shard traffic so every
        // workload sees a healthy number of rebuilds; τ = α/4 keeps the
        // incremental rebuilder selective about which subtrees it
        // re-forms.
        let alpha = (trace.requests().len() as u64 / ocfg.shards.max(1) as u64 / 8).max(64);
        let tau = (alpha / 4).max(16);
        let mut engine = ShardedEngine::lazy(4, trace.n(), alpha, tau, 8, ocfg.clone());
        let (report, elapsed) = kst_obs::timed(|| engine.run_trace(trace));
        eprintln!(
            "[obs | {name}] served in {elapsed:.1?} ({} rebuild pauses)",
            report.obs.total().rebuild_pause_us.count()
        );
        if obs_json.len() > 1 {
            obs_json.push(',');
        }
        obs_json.push_str(&format!(
            "{{\"workload\":\"{name}\",\"report\":{}}}",
            report.obs.to_json()
        ));
        if *name == "t05" || trace_dump.is_none() {
            trace_dump = Some(report.obs.to_chrome_trace());
        }
        obs_rows.push(EngineRow {
            workload: name.to_string(),
            n: trace.n(),
            report,
            elapsed,
        });
    }
    obs_json.push(']');
    let report = render_obs_table(&ocfg, &obs_rows);
    println!("{report}");
    let _ = write_report("observability.md", &report);
    let _ = write_report("observability.json", &obs_json);
    if let Some(dump) = trace_dump {
        let _ = write_report("trace.json", &dump);
    }

    eprintln!("run_all finished in {:.1?}", t0.elapsed());
    eprintln!("(remark10, lemma9 and entropy_check are separate binaries)");
}
