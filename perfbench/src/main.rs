//! End-to-end benchmark of the sharded engine on one paper workload.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's trace from the seed, replays it through
//! `ShardedEngine::run_trace` in repetitions until `--seconds` have
//! passed, checks every repetition, and prints one JSON line: the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! separate traced pass (`--trace 1`), the deterministic cost totals that
//! `run.py` compares with the pinned ones, and the list of failed checks.
//! `run.py` builds and drives this binary; `README.md` defines every
//! metric.

mod layers;

use kst_core::lazy::{IncrementalWeightBalanced, LazyKaryNet};
use kst_core::{invariants, KSplayNet, KstTree, Network};
use kst_engine::{EngineConfig, EngineReport, ReshardConfig, ShardedEngine, SpineMode};
use kst_obs::Stopwatch;
use kst_workloads::{gens, Trace};

/// Fewest repetitions a run makes, so `setup_s` is a median of several.
const MIN_REPS: usize = 3;

/// The lazy workload's rebuild knobs: the epoch trigger α (routing cost
/// per rebuild), the imbalance threshold τ = α/4 and the ledger half-life
/// in epochs. Chosen so that rebuilds fire often.
const LAZY_ALPHA: u64 = 31_250;
const LAZY_TAU: u64 = LAZY_ALPHA / 4;
const LAZY_HALF_LIFE: u32 = 8;

/// Arity of the boundary workload's k-splay router spine.
const SPINE_K: usize = 2;

/// The three workloads. Each stresses different layers; see README.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Paper temporal trace (p = 0.5) on k = 2 k-ary SplayNet shards:
    /// distance and restructure dominate.
    KSplay,
    /// Drifting Zipf on lazy rebuild-based shards: distance reads plus
    /// bulk subtree rewrites, no rotations.
    Lazy,
    /// Boundary phase shifts on 2 workers with live resharding and the
    /// k-splay router spine.
    Boundary,
}

/// A workload's trace shape and engine configuration.
struct Spec {
    name: &'static str,
    kind: Kind,
    n: usize,
    k: usize,
    shards: usize,
    threads: usize,
    /// Requests replayed after construction, timed into `setup_s`.
    warmup: usize,
    /// Requests in the timed replay.
    timed: usize,
    /// Requests per `run_trace` call of the timed replay.
    window: usize,
}

const SPECS: [Spec; 3] = [
    Spec {
        name: "t05_ksplay_1m",
        kind: Kind::KSplay,
        n: 1 << 20,
        k: 2,
        shards: 4,
        threads: 1,
        warmup: 1 << 15,
        timed: 200 * 1024,
        window: 1024,
    },
    Spec {
        name: "drift_lazy_64k",
        kind: Kind::Lazy,
        n: 1 << 16,
        k: 4,
        shards: 4,
        threads: 1,
        warmup: 1 << 17,
        timed: 400 * 2048,
        window: 2048,
    },
    Spec {
        name: "boundary_reshard_2t",
        kind: Kind::Boundary,
        n: 1 << 16,
        k: 4,
        shards: 8,
        threads: 2,
        // Whole reshard epochs, so every window is exactly one epoch of
        // the one-shot run.
        warmup: 16 * 4096,
        timed: 200 * 4096,
        window: 4096,
    },
];

impl Spec {
    /// The engine configuration of this workload (engine defaults
    /// otherwise).
    fn config(&self) -> EngineConfig {
        let cfg = EngineConfig::default()
            .with_shards(self.shards)
            .with_threads(self.threads);
        match self.kind {
            Kind::Boundary => cfg
                .with_spine(SpineMode::KSplay { k: SPINE_K })
                .with_reshard(ReshardConfig::on()),
            Kind::KSplay | Kind::Lazy => cfg,
        }
    }

    /// The whole seeded trace: warm-up followed by the timed replay.
    fn trace(&self, seed: u64) -> Trace {
        let m = self.warmup + self.timed;
        match self.kind {
            Kind::KSplay => gens::temporal(self.n, m, 0.5, seed),
            Kind::Lazy => gens::drifting_zipf(self.n, m, 1.1, 64, 64, seed),
            Kind::Boundary => {
                let period = 16 * ReshardConfig::on().epoch;
                gens::boundary_phase_shift(self.n, m, self.shards, period, 0.5, seed)
            }
        }
    }
}

/// The workload's inputs, generated once per process and shared by every
/// repetition.
struct Inputs {
    warm: Trace,
    /// The timed replay as one trace (traced pass, batch layer timings).
    timed: Trace,
    /// The timed replay cut into `run_trace` windows.
    windows: Vec<Trace>,
}

impl Inputs {
    fn new(spec: &Spec, seed: u64) -> Inputs {
        let all = spec.trace(seed);
        let (warm, timed) = all.requests().split_at(spec.warmup);
        Inputs {
            warm: Trace::new(spec.n, warm.to_vec()),
            timed: Trace::new(spec.n, timed.to_vec()),
            windows: timed
                .chunks(spec.window)
                .map(|c| Trace::new(spec.n, c.to_vec()))
                .collect(),
        }
    }
}

/// What the benchmark needs from a shard net beyond [`Network`].
trait ShardNet: Network + Send {
    fn tree(&self) -> &KstTree;
    /// Lazy rebuilds fired so far (0 for nets that never rebuild).
    fn rebuilds(&self) -> u64 {
        0
    }
}

impl ShardNet for KSplayNet {
    fn tree(&self) -> &KstTree {
        KSplayNet::tree(self)
    }
}

impl ShardNet for LazyKaryNet<IncrementalWeightBalanced> {
    fn tree(&self) -> &KstTree {
        LazyKaryNet::tree(self)
    }
    fn rebuilds(&self) -> u64 {
        LazyKaryNet::rebuilds(self)
    }
}

type LazyNet = LazyKaryNet<IncrementalWeightBalanced>;

fn build_ksplay(spec: &Spec, cfg: EngineConfig) -> ShardedEngine<KSplayNet> {
    ShardedEngine::ksplay(spec.k, spec.n, cfg)
}

fn build_lazy(spec: &Spec, cfg: EngineConfig) -> ShardedEngine<LazyNet> {
    ShardedEngine::lazy(spec.k, spec.n, LAZY_ALPHA, LAZY_TAU, LAZY_HALF_LIFE, cfg)
}

/// A fresh lazy shard net, built exactly as [`ShardedEngine::lazy`] builds
/// each shard (the traced pass replays its own copies).
fn lazy_shard(k: usize, len: usize) -> LazyNet {
    LazyKaryNet::new(
        k,
        len,
        LAZY_ALPHA,
        kst_core::incremental_weight_balanced_rebuilder(k, LAZY_TAU),
    )
    .with_half_life(LAZY_HALF_LIFE)
}

/// The deterministic cost totals of a timed replay. Pinned per seed in
/// `expected.json`, and reproduced bit for bit by the traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Totals {
    requests: u64,
    /// Routing plus rotations: the paper's §2 unit cost.
    unit_cost: u64,
    /// Links changed by serves and rebuilds, plus reshard surgeries.
    links: u64,
    migrations: u64,
    keys_moved: u64,
    rebuilds: u64,
}

impl Totals {
    fn of(report: &EngineReport, rebuilds: u64) -> Totals {
        let t = report.total();
        Totals {
            requests: t.requests,
            unit_cost: t.total_unit_cost(),
            links: t.links_changed + report.reshard.links_changed,
            migrations: report.reshard.migrations,
            keys_moved: report.reshard.keys_moved,
            rebuilds,
        }
    }
}

/// One construction + warm-up + timed replay.
struct Rep {
    /// Process CPU seconds of construction plus warm-up.
    setup_s: f64,
    /// Wall and process CPU seconds of the timed replay.
    serve_s: f64,
    serve_cpu_s: f64,
    /// Wall and process CPU microseconds of each timed window.
    window_us: Vec<f64>,
    window_cpu_us: Vec<f64>,
    report: EngineReport,
    totals: Totals,
    /// Resident memory gained over engine construction, in bytes.
    build_rss: u64,
    /// Requests unaccounted for or served by a rep that failed a check.
    failed: u64,
    problems: Vec<String>,
}

/// Builds an engine, warms it up and replays the timed windows, then
/// checks the engine's state. Returns the engine for the traced pass.
fn rep<N: ShardNet>(
    inputs: &Inputs,
    build: impl FnOnce() -> ShardedEngine<N>,
) -> (Rep, ShardedEngine<N>) {
    let rss0 = proc_status_kb("VmRSS");
    let setup = process_cpu_s();
    let mut eng = build();
    let build_rss = proc_status_kb("VmRSS").saturating_sub(rss0) * 1024;
    let warm = eng.run_trace(&inputs.warm);
    let setup_s = process_cpu_s() - setup;
    let rebuilds0: u64 = eng.nets().iter().map(N::rebuilds).sum();

    let mut report = EngineReport::new(eng.map().shards());
    let mut window_us = Vec::with_capacity(inputs.windows.len());
    let mut window_cpu_us = Vec::with_capacity(inputs.windows.len());
    let (serve, serve_cpu) = (Stopwatch::start(), process_cpu_s());
    for w in &inputs.windows {
        let (sw, cpu) = (Stopwatch::start(), process_cpu_s());
        let part = eng.run_trace(w);
        window_cpu_us.push((process_cpu_s() - cpu) * 1e6);
        window_us.push(sw.elapsed().as_secs_f64() * 1e6);
        report.merge(&part);
    }
    let serve_cpu_s = process_cpu_s() - serve_cpu;
    let serve_s = serve.elapsed().as_secs_f64();
    let rebuilds = eng.nets().iter().map(N::rebuilds).sum::<u64>() - rebuilds0;

    let mut problems = Vec::new();
    let mut failed = 0;
    for (what, got, want) in [
        ("warm-up", warm.total().requests, inputs.warm.len() as u64),
        ("timed", report.total().requests, inputs.timed.len() as u64),
    ] {
        if got != want {
            problems.push(format!("{what} replay accounted {got} of {want} requests"));
            failed += got.abs_diff(want);
        }
    }
    problems.extend(check_engine(&eng));
    if !problems.is_empty() {
        failed = failed.max((inputs.warm.len() + inputs.timed.len()) as u64);
    }
    let totals = Totals::of(&report, rebuilds);
    let rep = Rep {
        setup_s,
        serve_s,
        serve_cpu_s,
        window_us,
        window_cpu_us,
        report,
        totals,
        build_rss,
        failed,
        problems,
    };
    (rep, eng)
}

/// Structural checks: every shard tree satisfies the k-ary search tree
/// invariants and spans exactly its range, and the map is a partition.
fn check_engine<N: ShardNet>(eng: &ShardedEngine<N>) -> Vec<String> {
    let mut problems = Vec::new();
    if let Err(e) = eng.map().validate() {
        problems.push(format!("shard map: {e}"));
    }
    for (s, net) in eng.nets().iter().enumerate() {
        if let Err(e) = invariants::validate(net.tree()) {
            problems.push(format!("shard {s} tree: {e}"));
        }
        if net.len() != eng.map().range(s).len() {
            problems.push(format!(
                "shard {s} holds {} keys for a {}-key range",
                net.len(),
                eng.map().range(s).len()
            ));
        }
    }
    problems
}

/// CPU seconds used by the whole process: every thread, exited ones
/// included, so a window's figure covers the dispatcher and the workers
/// it spawned. The end-to-end times use this clock rather than wall time:
/// on a shared host, time the hypervisor gives to other guests stretches
/// wall time but not CPU time.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked at compile time below) and the
    // clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux process clocks and /proc/self");

/// A field of `/proc/self/status` in kB (0 where unavailable).
fn proc_status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile (0 for an empty slice).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// `a / b`, 0 when `b` is 0 (a layer the workload does not use).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Metrics in output order: name, value, unit.
type MetricList = Vec<(&'static str, f64, &'static str)>;

/// What one invocation measured and checked.
struct Run {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: MetricList,
    /// The untraced timed replay's totals, for the pins.
    totals: Totals,
    reps: usize,
}

/// The end-to-end run: repetitions until `seconds` have passed (at least
/// [`MIN_REPS`]), each checked, with identical totals across them.
fn end_to_end<N: ShardNet>(
    spec: &Spec,
    inputs: &Inputs,
    seconds: f64,
    build: impl Fn() -> ShardedEngine<N>,
) -> Run {
    let clock = Stopwatch::start();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let elapsed = clock.elapsed().as_secs_f64();
        let per_rep = elapsed / reps.len().max(1) as f64;
        if reps.len() >= MIN_REPS && elapsed + per_rep > seconds {
            break;
        }
        let (r, eng) = rep(inputs, &build);
        drop(eng);
        eprintln!(
            "{} rep {}: setup {:.3} s, serve {:.1} cpu ns/req ({:.1} wall), window p95 {:.0} cpu us",
            spec.name,
            reps.len() + 1,
            r.setup_s,
            r.serve_cpu_s * 1e9 / inputs.timed.len() as f64,
            r.serve_s * 1e9 / inputs.timed.len() as f64,
            quantile(&r.window_cpu_us, 0.95)
        );
        reps.push(r);
    }
    let per_rep = (inputs.warm.len() + inputs.timed.len()) as u64;
    let mut problems: Vec<String> = Vec::new();
    let mut failed = 0;
    for (i, r) in reps.iter().enumerate() {
        let mut rep_failed = r.failed;
        problems.extend(r.problems.iter().map(|p| format!("rep {}: {p}", i + 1)));
        if r.totals != reps[0].totals {
            problems.push(format!("rep {}: cost totals differ from rep 1", i + 1));
            rep_failed = per_rep;
        }
        failed += rep_failed;
    }
    let timed = inputs.timed.len() as f64;
    let totals = reps[0].totals;
    let ns: Vec<f64> = reps.iter().map(|r| r.serve_cpu_s * 1e9 / timed).collect();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let p95: Vec<f64> = reps
        .iter()
        .map(|r| quantile(&r.window_cpu_us, 0.95))
        .collect();
    let metrics = vec![
        ("serve_cpu_ns_per_req", median(&ns), "ns"),
        ("window_cpu_us_p95", median(&p95), "us"),
        ("unit_cost_per_req", totals.unit_cost as f64 / timed, "hops"),
        ("links_per_req", totals.links as f64 / timed, "links"),
        ("setup_s", median(&setup), "s"),
        ("peak_rss_mb", proc_status_kb("VmHWM") as f64 / 1024.0, "MB"),
    ];
    Run {
        attempted: per_rep * reps.len() as u64,
        failed,
        problems,
        metrics,
        totals,
        reps: reps.len(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_result(run: &Run) {
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    let problems: Vec<String> = run.problems.iter().map(|p| json_str(p)).collect();
    let t = run.totals;
    println!(
        "{{\"problems\":[{}],\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\
         \"totals\":{{\"requests\":{},\"unit_cost\":{},\"links\":{},\"migrations\":{},\
         \"keys_moved\":{},\"rebuilds\":{}}},\"reps\":{},\"nproc\":{},\
         \"profile\":{}}}",
        problems.join(","),
        run.attempted,
        run.failed,
        metrics.join(","),
        t.requests,
        t.unit_cost,
        t.links,
        t.migrations,
        t.keys_moved,
        t.rebuilds,
        run.reps,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    );
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let spec = SPECS.iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let spec = args.spec;
    let inputs = Inputs::new(spec, args.seed);
    let run = if args.trace {
        layers::traced(spec, &inputs)
    } else {
        let cfg = spec.config();
        match spec.kind {
            Kind::KSplay | Kind::Boundary => end_to_end(spec, &inputs, args.seconds, || {
                build_ksplay(spec, cfg.clone())
            }),
            Kind::Lazy => end_to_end(spec, &inputs, args.seconds, || {
                build_lazy(spec, cfg.clone())
            }),
        }
    };
    print_result(&run);
}
