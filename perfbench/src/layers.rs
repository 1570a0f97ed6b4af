//! The traced pass: per-layer metrics, timed from the benchmark's own
//! code around calls into each layer's public functions.
//!
//! Each workload first makes one untraced repetition (the same as an
//! end-to-end repetition) and then a traced replay of the same inputs.
//! The traced replay must reproduce the untraced cost totals bit for bit.
//! On the single-threaded workloads it is the benchmark's own replay over
//! its own shard nets, split into the calls of each layer; on the
//! threaded boundary workload it is the engine itself under
//! `ObsMode::WallClock`, whose batch and queue histograms it reads.

use crate::{
    build_ksplay, build_lazy, check_engine, lazy_shard, median, quantile, ratio, rep, Inputs, Kind,
    MetricList, Rep, Run, ShardNet, Spec, Totals,
};
use kst_core::{KSplayNet, Network, Reshardable};
use kst_engine::{EngineConfig, ObsMode, ReshardConfig, ShardMap, ShardedEngine};
use kst_obs::Stopwatch;
use kst_workloads::{NodeKey, Trace};
use std::hint::black_box;

/// Every per-layer metric, in output order, with its unit. A layer the
/// workload does not use reads 0.
const METRICS: [(&str, &str); 27] = [
    ("shard.route_ns", "ns"),
    ("shard.cross_frac", "ratio"),
    ("tree.distance_ns", "ns"),
    ("tree.routing_per_req", "hops"),
    ("setup.bytes_per_node", "B"),
    ("adjust.ns", "ns"),
    ("adjust.rotations_per_req", "rotations"),
    ("adjust.links_per_rotation", "links"),
    ("lazy.serve_ns", "ns"),
    ("lazy.rebuild_us_p50", "us"),
    ("lazy.rebuild_us_max", "us"),
    ("lazy.rebuild_share", "ratio"),
    ("lazy.rebuilds", "count"),
    ("lazy.useful_rebuild_frac", "ratio"),
    ("lazy.nodes_per_rebuild", "nodes"),
    ("lazy.ledger_pairs", "pairs"),
    ("engine.wall_ns_per_req", "ns"),
    ("engine.wall_window_us_p95", "us"),
    ("engine.par_speedup", "x"),
    ("engine.batch_fill", "ratio"),
    ("engine.queue_depth_p95", "ops"),
    ("spine.hops_per_cross", "hops"),
    ("reshard.migrations", "count"),
    ("reshard.keys_moved", "keys"),
    ("reshard.overhead_ns_per_req", "ns"),
    ("reshard.splice_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Batch-timed passes over the trace for `shard.route_ns` and the
/// boundary workload's `tree.distance_ns`; the median pass is reported.
const BATCH_PASSES: usize = 5;

/// Extract + absorb round trips timed for `reshard.splice_us`.
const SPLICE_ROUNDS: usize = 64;

struct Layers(MetricList);

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        let slot = self.0.iter_mut().find(|(n, _, _)| *n == name);
        slot.unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .1 = value;
    }
}

/// Time accumulated over individually timed calls.
#[derive(Default)]
struct Calls {
    ns: f64,
    calls: u64,
}

impl Calls {
    fn add(&mut self, since: Stopwatch) -> f64 {
        let ns = since.elapsed().as_nanos() as f64;
        self.ns += ns;
        self.calls += 1;
        ns
    }

    fn per_call(&self) -> f64 {
        ratio(self.ns, self.calls as f64)
    }
}

/// Runs the traced pass of `spec`.
pub(crate) fn traced(spec: &Spec, inputs: &Inputs) -> Run {
    let cfg = spec.config();
    let mut out = Run {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Vec::new(),
        totals: Totals::default(),
        reps: 1,
    };
    let mut m = Layers(METRICS.iter().map(|&(n, u)| (n, 0.0, u)).collect());
    // The untraced repetition comes first, so its construction is the
    // process's first and `setup.bytes_per_node` sees fresh pages.
    let (base, traced_s, traced_totals) = match spec.kind {
        Kind::KSplay => {
            let (base, eng) = rep(inputs, || build_ksplay(spec, cfg.clone()));
            engine_layers(&mut m, spec, inputs, &base, &eng);
            let (totals, traced_s) = ksplay_pass(&mut m, spec, inputs, &cfg);
            (base, traced_s, totals)
        }
        Kind::Lazy => {
            let (base, eng) = rep(inputs, || build_lazy(spec, cfg.clone()));
            engine_layers(&mut m, spec, inputs, &base, &eng);
            let pairs: usize = eng.nets().iter().map(|n| n.demand().distinct_pairs()).sum();
            m.set("lazy.ledger_pairs", pairs as f64);
            let (totals, traced_s) = lazy_pass(&mut m, spec, inputs, &cfg, &mut out);
            (base, traced_s, totals)
        }
        Kind::Boundary => {
            let (base, eng) = rep(inputs, || build_ksplay(spec, cfg.clone()));
            engine_layers(&mut m, spec, inputs, &base, &eng);
            m.set("tree.distance_ns", batch_distance_ns(&eng, &inputs.timed));
            let (totals, traced_s) = boundary_pass(&mut m, spec, inputs, &cfg, &base, &mut out);
            (base, traced_s, totals)
        }
    };
    m.set(
        "trace.overhead_pct",
        100.0 * (ratio(traced_s, base.serve_s) - 1.0),
    );
    let per_rep = (inputs.warm.len() + inputs.timed.len()) as u64;
    out.attempted += 2 * per_rep;
    out.failed += base.failed;
    out.problems.extend(base.problems.iter().cloned());
    if traced_totals != base.totals {
        out.problems.push(format!(
            "traced totals {traced_totals:?} differ from untraced {:?}",
            base.totals
        ));
        out.failed += inputs.timed.len() as u64;
    }
    out.metrics = m.0;
    out.totals = base.totals;
    out
}

/// Layer metrics read from the untraced repetition's report and engine,
/// common to every workload.
fn engine_layers<N: ShardNet>(
    m: &mut Layers,
    spec: &Spec,
    inputs: &Inputs,
    base: &Rep,
    eng: &ShardedEngine<N>,
) {
    let r = &base.report;
    let t = r.total();
    let reqs = t.requests as f64;
    let serve_links = t.links_changed as f64;
    m.set(
        "setup.bytes_per_node",
        base.build_rss as f64 / spec.n as f64,
    );
    m.set("engine.wall_ns_per_req", base.serve_s * 1e9 / reqs);
    m.set("engine.wall_window_us_p95", quantile(&base.window_us, 0.95));
    m.set("shard.route_ns", batch_route_ns(eng.map(), &inputs.timed));
    m.set("shard.cross_frac", r.cross_fraction());
    m.set(
        "tree.routing_per_req",
        ratio((t.routing - r.router_hops) as f64, reqs),
    );
    m.set("adjust.rotations_per_req", ratio(t.rotations as f64, reqs));
    m.set(
        "adjust.links_per_rotation",
        ratio(serve_links, t.rotations as f64),
    );
    m.set(
        "spine.hops_per_cross",
        ratio(r.router_hops as f64, r.cross.requests as f64),
    );
    m.set("reshard.migrations", base.totals.migrations as f64);
    m.set("reshard.keys_moved", base.totals.keys_moved as f64);
    m.set("lazy.rebuilds", base.totals.rebuilds as f64);
}

/// The engine's request decomposition, restated over the public
/// [`ShardMap`] API: one half-serve for an intra-shard request, or one
/// toward each endpoint's gateway for a cross-shard one (skipped where the
/// endpoint is the gateway). Returns true for a cross-shard request.
fn route(
    map: &ShardMap,
    u: NodeKey,
    v: NodeKey,
    mut half: impl FnMut(usize, NodeKey, NodeKey),
) -> bool {
    let (su, sv) = (map.shard_of(u), map.shard_of(v));
    if su == sv {
        let r = map.range(su);
        half(su, r.to_local(u), r.to_local(v));
        return false;
    }
    for (s, a, b) in [(su, u, map.gateway(su)), (sv, map.gateway(sv), v)] {
        if a != b {
            let r = map.range(s);
            half(s, r.to_local(a), r.to_local(b));
        }
    }
    true
}

/// `ShardMap::shard_of` + `gateway` over the trace, per request.
fn batch_route_ns(map: &ShardMap, trace: &Trace) -> f64 {
    let passes: Vec<f64> = (0..BATCH_PASSES)
        .map(|_| {
            let sw = Stopwatch::start();
            let mut acc = 0u64;
            for &(u, v) in black_box(trace.requests()) {
                let (su, sv) = (map.shard_of(u), map.shard_of(v));
                acc += if su == sv {
                    su as u64
                } else {
                    (map.gateway(su) ^ map.gateway(sv)) as u64
                };
            }
            black_box(acc);
            sw.elapsed().as_nanos() as f64 / trace.len() as f64
        })
        .collect();
    median(&passes)
}

/// `KstTree::distance_lca` on the engine's final shard trees for every
/// half-serve of the trace, per call.
fn batch_distance_ns<N: ShardNet>(eng: &ShardedEngine<N>, trace: &Trace) -> f64 {
    let passes: Vec<f64> = (0..BATCH_PASSES)
        .map(|_| {
            let (mut acc, mut calls) = (0u64, 0u64);
            let sw = Stopwatch::start();
            for &(u, v) in black_box(trace.requests()) {
                route(eng.map(), u, v, |s, a, b| {
                    let tree = eng.nets()[s].tree();
                    acc += tree.distance_lca(tree.node_of(a), tree.node_of(b)).0;
                    calls += 1;
                });
            }
            black_box(acc);
            ratio(sw.elapsed().as_nanos() as f64, calls as f64)
        })
        .collect();
    median(&passes)
}

/// The k-splay workload's own replay: each half-serve is split into its
/// `KstTree::distance_lca` charge and its `KSplayNet::adjust`, both timed.
fn ksplay_pass(m: &mut Layers, spec: &Spec, inputs: &Inputs, cfg: &EngineConfig) -> (Totals, f64) {
    let map = ShardMap::contiguous(spec.n, spec.shards);
    let mut nets: Vec<KSplayNet> = map
        .ranges()
        .iter()
        .map(|r| KSplayNet::balanced(spec.k, r.len()))
        .collect();
    for &(u, v) in inputs.warm.requests() {
        route(&map, u, v, |s, a, b| {
            nets[s].serve(a, b);
        });
    }
    let (mut dist, mut adjust) = (Calls::default(), Calls::default());
    let mut t = Totals::default();
    let sw = Stopwatch::start();
    for &(u, v) in inputs.timed.requests() {
        let cross = route(&map, u, v, |s, a, b| {
            let net = &mut nets[s];
            let tree = net.tree();
            let clock = Stopwatch::start();
            let (d, _) = tree.distance_lca(tree.node_of(a), tree.node_of(b));
            dist.add(clock);
            let clock = Stopwatch::start();
            let st = net.adjust(a, b);
            adjust.add(clock);
            t.unit_cost += d + st.rotations;
            t.links += st.links_changed;
        });
        if cross {
            t.unit_cost += cfg.router_hops;
        }
        t.requests += 1;
    }
    let traced_s = sw.elapsed().as_secs_f64();
    m.set("tree.distance_ns", dist.per_call());
    m.set("adjust.ns", adjust.per_call());
    (t, traced_s)
}

/// The lazy workload's own replay: each half-serve is one timed
/// `Network::serve`, classed as a rebuild when `LazyKaryNet::rebuilds`
/// went up, preceded by a timed read-only `KstTree::distance_lca` of the
/// same pair.
fn lazy_pass(
    m: &mut Layers,
    spec: &Spec,
    inputs: &Inputs,
    cfg: &EngineConfig,
    out: &mut Run,
) -> (Totals, f64) {
    let map = ShardMap::contiguous(spec.n, spec.shards);
    let mut nets: Vec<_> = map
        .ranges()
        .iter()
        .map(|r| lazy_shard(spec.k, r.len()))
        .collect();
    for &(u, v) in inputs.warm.requests() {
        route(&map, u, v, |s, a, b| {
            nets[s].serve(a, b);
        });
    }
    let (mut dist, mut serve, mut rebuild) = (Calls::default(), Calls::default(), Calls::default());
    let mut rebuild_us = Vec::new();
    let (mut useful, mut nodes, mut mismatches) = (0u64, 0u64, 0u64);
    let mut t = Totals::default();
    let sw = Stopwatch::start();
    for &(u, v) in inputs.timed.requests() {
        let cross = route(&map, u, v, |s, a, b| {
            let net = &mut nets[s];
            let tree = net.tree();
            let clock = Stopwatch::start();
            let (d, _) = tree.distance_lca(tree.node_of(a), tree.node_of(b));
            dist.add(clock);
            let before = net.rebuilds();
            let clock = Stopwatch::start();
            let c = net.serve(a, b);
            if net.rebuilds() > before {
                rebuild_us.push(rebuild.add(clock) / 1e3);
                useful += u64::from(c.rebuild_patches > 0);
                nodes += c.rebuild_nodes;
            } else {
                serve.add(clock);
            }
            mismatches += u64::from(d != c.routing);
            t.unit_cost += c.routing + c.rotations;
            t.links += c.links_changed;
        });
        if cross {
            t.unit_cost += cfg.router_hops;
        }
        t.requests += 1;
    }
    let traced_s = sw.elapsed().as_secs_f64();
    t.rebuilds = rebuild.calls;
    if mismatches > 0 {
        out.problems.push(format!(
            "{mismatches} serves charged other than distance_lca"
        ));
        out.failed += mismatches;
    }
    m.set("tree.distance_ns", dist.per_call());
    m.set("lazy.serve_ns", serve.per_call());
    m.set("lazy.rebuild_us_p50", median(&rebuild_us));
    m.set("lazy.rebuild_us_max", quantile(&rebuild_us, 1.0));
    m.set(
        "lazy.rebuild_share",
        ratio(rebuild.ns, rebuild.ns + serve.ns),
    );
    m.set(
        "lazy.useful_rebuild_frac",
        ratio(useful as f64, rebuild.calls as f64),
    );
    m.set(
        "lazy.nodes_per_rebuild",
        ratio(nodes as f64, rebuild.calls as f64),
    );
    (t, traced_s)
}

/// The boundary workload's traced pass: the engine itself under
/// `ObsMode::WallClock` in one `run_trace` call, plus the same
/// repetition on one worker and with resharding off, and timed reshard
/// splices. The extra repetitions' requests and checks go into `out`.
fn boundary_pass(
    m: &mut Layers,
    spec: &Spec,
    inputs: &Inputs,
    cfg: &EngineConfig,
    base: &Rep,
    out: &mut Run,
) -> (Totals, f64) {
    let timed = inputs.timed.len() as f64;
    let per_rep = (inputs.warm.len() + inputs.timed.len()) as u64;

    let mut eng = build_ksplay(spec, cfg.clone().with_obs(ObsMode::WallClock));
    eng.run_trace(&inputs.warm);
    let sw = Stopwatch::start();
    let report = eng.run_trace(&inputs.timed);
    let traced_s = sw.elapsed().as_secs_f64();
    out.problems.extend(check_engine(&eng));
    let obs = &report.obs;
    m.set(
        "engine.batch_fill",
        obs.batch_sizes.mean() / cfg.batch as f64,
    );
    m.set(
        "engine.queue_depth_p95",
        obs.queue_depth.quantile(0.95) as f64,
    );
    drop(eng);

    let (one, _) = rep(inputs, || build_ksplay(spec, cfg.clone().with_threads(1)));
    m.set("engine.par_speedup", ratio(one.serve_s, base.serve_s));
    let (off, _) = rep(inputs, || {
        build_ksplay(spec, cfg.clone().with_reshard(ReshardConfig::default()))
    });
    m.set(
        "reshard.overhead_ns_per_req",
        (base.serve_cpu_s - off.serve_cpu_s) * 1e9 / timed,
    );
    for (what, r) in [("one-worker", &one), ("resharding-off", &off)] {
        out.attempted += per_rep;
        out.failed += r.failed;
        out.problems
            .extend(r.problems.iter().map(|p| format!("{what} rep: {p}")));
    }
    if one.totals != base.totals {
        out.problems
            .push("one-worker totals differ from two-worker totals".to_string());
        out.failed += inputs.timed.len() as u64;
    }

    let size = ratio(base.totals.keys_moved as f64, base.totals.migrations as f64).round() as usize;
    m.set("reshard.splice_us", splice_us(spec, size));
    (Totals::of(&report, 0), traced_s)
}

/// Median time of one `Reshardable` extract + absorb of `size` keys
/// between two balanced shard nets of the workload's shard size.
fn splice_us(spec: &Spec, size: usize) -> f64 {
    let len = spec.n / spec.shards;
    if size == 0 || size >= len {
        return 0.0;
    }
    let (mut lo, mut hi) = (
        KSplayNet::balanced(spec.k, len),
        KSplayNet::balanced(spec.k, len),
    );
    let mut samples = Vec::with_capacity(2 * SPLICE_ROUNDS);
    for _ in 0..SPLICE_ROUNDS {
        let sw = Stopwatch::start();
        let (frag, _) = lo.extract_high(size);
        hi.absorb_low(&frag);
        samples.push(sw.elapsed().as_secs_f64() * 1e6);
        let sw = Stopwatch::start();
        let (frag, _) = hi.extract_low(size);
        lo.absorb_high(&frag);
        samples.push(sw.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}
