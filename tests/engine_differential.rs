//! Differential guarantees of the sharded engine (`kst-engine`):
//!
//! 1. a **1-shard** engine is bit-identical to `kst_sim::run` on *every*
//!    network type — move-for-move per-request costs, not just totals;
//! 2. for an intra-shard trace, **S-shard** per-shard partials are
//!    move-for-move identical to standalone nets over each shard's
//!    keyspace, and `Metrics::merge` reduces them to exactly the summed
//!    unsharded totals;
//! 3. the threaded run is bit-identical to the sequential run;
//! 4. cross-shard requests are charged per the documented router model;
//! 5. the demand-aware dispatch layer is a strict superset: with the
//!    star spine and resharding off the refactored engine reproduces the
//!    fixed-router, fixed-partition engine bit for bit (including the
//!    `ObsReport` histograms), and with them on the threaded run still
//!    equals the sequential run;
//! 6. on a boundary-straddling phase-shift workload live resharding
//!    beats the static partition on total cost;
//! 7. a parallel shard build (`EngineConfig::build_threads`) produces an
//!    engine bit-identical to the sequential build on every network type
//!    × shard count;
//! 8. `serve_one`, called per request, rebuilds `run_trace`'s report
//!    exactly, and its returned costs sum to that report's total.

use ksan::engine::{
    EngineConfig, EngineReport, ObsMode, ObsReport, ReshardConfig, ReshardReport, ShardedEngine,
    SpineMode,
};
use ksan::prelude::*;
use ksan::sim::experiments::centroid_rebuilder;
use ksan::sim::{run, run_observed, ObsCollector};
use ksan::statics::StaticNet;

// The engine moves shard nets into worker threads; every network type it
// may host must be Send (compile-time part of the Send-safety audit —
// kst-core carries the same assertions for its own types).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ClassicSplayNet>();
    assert_send::<StaticNet>();
};

/// Serves `trace` through a fresh 1-shard engine and a fresh reference
/// net from the same factory, asserting per-request bit-identity, then
/// checks the engine total against `run`.
fn assert_one_shard_identical<N: Network + Send>(label: &str, make: impl Fn(usize) -> N + Sync) {
    let n = 96;
    let trace = gens::temporal(n, 3000, 0.6, 17);
    let cfg = EngineConfig::default().with_shards(1).with_threads(1);
    let mut engine = ShardedEngine::new(n, cfg, |_, r| make(r.len()));
    let mut reference = make(n);
    let mut report = EngineReport::new(1);
    for (i, &(u, v)) in trace.requests().iter().enumerate() {
        let want = reference.serve(u, v);
        let got = engine.serve_one(u, v, &mut report);
        assert_eq!(got, want, "{label}: request #{i} ({u},{v}) diverged");
    }
    assert_eq!(report.cross.requests, 0, "{label}: 1 shard cannot cross");
    assert_eq!(report.router_hops, 0, "{label}");
    let totals = run(&mut make(n), &trace);
    assert_eq!(report.total(), totals, "{label}: totals diverged");
}

#[test]
fn one_shard_engine_is_bit_identical_on_every_network_type() {
    for k in [2usize, 3, 5] {
        assert_one_shard_identical(&format!("KSplayNet k={k}"), |n| KSplayNet::balanced(k, n));
    }
    assert_one_shard_identical("KSplayNet semi-splay k=4", |n| {
        KSplayNet::balanced(4, n).with_strategy(SplayStrategy::SemiOnly)
    });
    assert_one_shard_identical("ClassicSplayNet", ClassicSplayNet::balanced);
    for k in [2usize, 3] {
        assert_one_shard_identical(&format!("KPlusOneSplayNet k={k}"), |n| {
            KPlusOneSplayNet::new(k, n)
        });
    }
    assert_one_shard_identical("LazyKaryNet (centroid rebuild)", |n| {
        ksan::core::LazyKaryNet::new(3, n, 400, centroid_rebuilder(3))
    });
    assert_one_shard_identical("LazyKaryNet (weight-balanced rebuild)", |n| {
        ksan::core::LazyKaryNet::new(3, n, 400, ksan::core::weight_balanced_rebuilder(3))
    });
    // Incremental plan/apply rebuilds with a decaying ledger ride through
    // the engine unchanged — the sharding layer is policy-agnostic.
    assert_one_shard_identical("LazyKaryNet (incremental, half-life 4)", |n| {
        ksan::core::LazyKaryNet::new(
            3,
            n,
            400,
            ksan::core::incremental_weight_balanced_rebuilder(3, 8),
        )
        .with_half_life(4)
    });
    assert_one_shard_identical("StaticNet (full 3-ary)", |n| {
        StaticNet::new(full_kary(n, 3), "full-3ary")
    });
    // Competing complete-tree topologies ride the same sharding layer.
    for k in [2usize, 4] {
        assert_one_shard_identical(&format!("PushDownNet k={k}"), |n| PushDownNet::new(k, n));
        assert_one_shard_identical(&format!("RotorWalkNet k={k}"), |n| RotorWalkNet::new(k, n));
    }
}

#[test]
fn multi_shard_intra_traffic_matches_standalone_nets_move_for_move() {
    let n = 400;
    let shards = 4;
    let trace = gens::sharded_hot_pairs(n, 12_000, shards, 8, 23);
    let cfg = EngineConfig::default().with_shards(shards).with_threads(1);
    let mut engine = ShardedEngine::ksplay(3, n, cfg);
    let report = engine.run_trace(&trace);
    assert_eq!(report.cross.requests, 0, "workload must stay intra-shard");

    // Standalone nets over each shard's keyspace, serving the shard's
    // intra-shard requests in shard-local keys.
    let ranges = partition_keyspace(n, shards);
    let mut merged = Metrics::default();
    for (s, range) in ranges.iter().enumerate() {
        let mut standalone = KSplayNet::balanced(3, range.len());
        let mut m = Metrics::default();
        for &(u, v) in trace.requests() {
            if range.contains(u) && range.contains(v) {
                m.absorb(standalone.serve(range.to_local(u), range.to_local(v)));
            }
        }
        assert_eq!(
            report.per_shard[s], m,
            "shard {s}: engine partial != standalone net totals"
        );
        merged.merge(&m);
    }
    // Associative merge of the partials reduces to the engine's total —
    // exactly the summed totals the unsharded per-shard nets report.
    assert_eq!(report.total(), merged);
    assert_eq!(merged.requests, 12_000);
}

#[test]
fn threaded_run_is_bit_identical_to_sequential_across_network_types() {
    let n = 300;
    let trace = gens::uniform(n, 9000, 31); // plenty of cross-shard traffic
    for shards in [2usize, 3, 5] {
        let base = EngineConfig::default().with_shards(shards).with_batch(97);
        let mut seq = ShardedEngine::ksplay(2, n, base.clone().with_threads(1));
        let mut par = ShardedEngine::ksplay(2, n, base.clone().with_threads(4));
        assert_eq!(
            seq.run_trace(&trace),
            par.run_trace(&trace),
            "shards={shards}"
        );
        // Also for the centroid net, which carries extra internal state.
        let mut seq_c = ShardedEngine::new(n, base.clone().with_threads(1), |_, r| {
            KPlusOneSplayNet::new(2, r.len())
        });
        let mut par_c = ShardedEngine::new(n, base.with_threads(3), |_, r| {
            KPlusOneSplayNet::new(2, r.len())
        });
        assert_eq!(
            seq_c.run_trace(&trace),
            par_c.run_trace(&trace),
            "centroid shards={shards}"
        );
    }
    // The complete-tree competitors: rotor state makes RotorWalkNet the
    // most history-sensitive net in the workspace, so thread-count must
    // provably not leak into its results.
    for shards in [2usize, 4] {
        let base = EngineConfig::default().with_shards(shards).with_batch(97);
        let mut seq = ShardedEngine::pushdown(3, n, base.clone().with_threads(1));
        let mut par = ShardedEngine::pushdown(3, n, base.clone().with_threads(4));
        assert_eq!(
            seq.run_trace(&trace),
            par.run_trace(&trace),
            "pushdown shards={shards}"
        );
        let mut seq_r = ShardedEngine::rotor(3, n, base.clone().with_threads(1));
        let mut par_r = ShardedEngine::rotor(3, n, base.with_threads(4));
        assert_eq!(
            seq_r.run_trace(&trace),
            par_r.run_trace(&trace),
            "rotor shards={shards}"
        );
    }
}

#[test]
fn competitor_replay_is_bit_identical_across_runs_and_thread_counts() {
    // Determinism replay: regenerating the same seeded trace and serving
    // it through fresh nets — standalone and through a 4-shard threaded
    // engine — must reproduce bit-identical metrics both times.
    let n = 220;
    let run_standalone = |rotor: bool| -> Metrics {
        let trace = gens::zipf(n, 6000, 1.2, 41);
        let mut m = Metrics::default();
        if rotor {
            let mut net = RotorWalkNet::new(3, n);
            for &(u, v) in trace.requests() {
                m.absorb(net.serve(u, v));
            }
        } else {
            let mut net = PushDownNet::new(3, n);
            for &(u, v) in trace.requests() {
                m.absorb(net.serve(u, v));
            }
        }
        m
    };
    let run_engine = |rotor: bool, threads: usize| -> EngineReport {
        let trace = gens::zipf(n, 6000, 1.2, 41);
        let cfg = EngineConfig::default().with_shards(4).with_threads(threads);
        if rotor {
            ShardedEngine::rotor(3, n, cfg).run_trace(&trace)
        } else {
            ShardedEngine::pushdown(3, n, cfg).run_trace(&trace)
        }
    };
    for rotor in [false, true] {
        let label = if rotor { "rotor" } else { "pushdown" };
        let first = run_standalone(rotor);
        let second = run_standalone(rotor);
        assert_eq!(first, second, "{label}: standalone replay diverged");
        assert!(first.requests == 6000 && first.routing > 0, "{label}");
        let seq = run_engine(rotor, 1);
        let replay = run_engine(rotor, 1);
        assert_eq!(seq, replay, "{label}: engine replay diverged");
        let threaded = run_engine(rotor, 4);
        assert_eq!(seq, threaded, "{label}: thread count leaked into metrics");
    }
}

#[test]
fn cross_shard_accounting_follows_the_router_model() {
    let n = 120;
    let shards = 3;
    let trace = gens::uniform(n, 5000, 7);
    let cfg = EngineConfig::default().with_shards(shards).with_threads(2);
    let mut engine = ShardedEngine::ksplay(2, n, cfg);
    let report = engine.run_trace(&trace);

    let total = report.total();
    assert_eq!(total.requests, 5000);
    // Every request is counted exactly once: intra partials + whole
    // cross requests.
    let intra: u64 = report.per_shard.iter().map(|m| m.requests).sum();
    assert_eq!(intra + report.cross.requests, 5000);
    // The router charges exactly router_hops per cross request, folded
    // into cross.routing on top of the gateway half-serves.
    assert_eq!(report.router_hops, 2 * report.cross.requests);
    assert!(report.cross.routing >= report.router_hops);
    assert!(
        report.cross_fraction() > 0.3,
        "uniform traffic over 3 shards"
    );

    // Expected cross count is a pure function of the partition.
    let map = engine.map().clone();
    let expected_cross = trace
        .requests()
        .iter()
        .filter(|&&(u, v)| map.shard_of(u) != map.shard_of(v))
        .count() as u64;
    assert_eq!(report.cross.requests, expected_cross);
}

#[test]
fn observed_cost_histograms_are_bit_identical_across_configs() {
    // The per-shard cost histograms are built from each shard's FIFO op
    // stream, which the dispatcher fixes regardless of worker or batch
    // configuration — so the deterministic observability surfaces must
    // be bit-identical across every config, exactly like the metrics.
    let n = 300;
    let trace = gens::uniform(n, 9000, 31); // plenty of cross-shard traffic
    let obs_cfg = |threads: usize, batch: usize| {
        EngineConfig::default()
            .with_shards(4)
            .with_threads(threads)
            .with_batch(batch)
            .with_obs(ObsMode::Deterministic)
    };
    let reference = ShardedEngine::ksplay(3, n, obs_cfg(1, 1024)).run_trace(&trace);
    let cost = reference.obs.total().cost;
    assert!(reference.obs.requests() > 0);
    assert!(cost.rotations.count() > 0, "splaying must rotate");
    assert!(cost.routing.p999() >= cost.routing.p99());
    assert!(cost.routing.p99() >= cost.routing.p50());
    for (threads, batch) in [(2usize, 1usize), (4, 97), (3, 100_000)] {
        let got = ShardedEngine::ksplay(3, n, obs_cfg(threads, batch)).run_trace(&trace);
        // Whole-report equality covers metrics AND the deterministic
        // observability surfaces (ObsReport's PartialEq).
        assert_eq!(got, reference, "threads={threads} batch={batch}");
        assert_eq!(
            got.obs.total().cost,
            cost,
            "merged histograms diverged (threads={threads} batch={batch})"
        );
    }

    // Wall-clock mode: pause/timestamp surfaces differ run to run, but
    // the deterministic histograms must stay bit-identical — to each
    // other and to the deterministic-mode run.
    let wall = |threads: usize| {
        let cfg = obs_cfg(threads, 97).with_obs(ObsMode::WallClock);
        ShardedEngine::ksplay(3, n, cfg).run_trace(&trace)
    };
    let (a, b) = (wall(1), wall(4));
    assert_eq!(a.obs, b.obs, "wall-clock noise leaked into obs equality");
    assert_eq!(a.obs.total().cost, cost);
    assert_eq!(b.obs.total().cost, cost);
}

#[test]
fn one_shard_observed_engine_matches_run_observed() {
    // A 1-shard deterministic-mode engine must build the same cost and
    // rebuild histograms as kst_sim::run_observed over a standalone net.
    let n = 96;
    let trace = gens::temporal(n, 3000, 0.6, 17);
    let cfg = EngineConfig::default()
        .with_shards(1)
        .with_threads(1)
        .with_obs(ObsMode::Deterministic);
    let mut engine = ShardedEngine::ksplay(3, n, cfg);
    let report = engine.run_trace(&trace);

    let mut net = KSplayNet::balanced(3, n);
    let mut obs = ObsCollector::new(0, 128);
    let m = run_observed(&mut net, &trace, &mut obs);
    assert_eq!(report.per_shard[0], m);
    assert_eq!(report.obs.per_shard[0].cost, obs.cost);
    assert_eq!(report.obs.per_shard[0].rebuild_nodes, obs.rebuild_nodes);
    assert_eq!(report.obs.per_shard[0].rebuild_patches, obs.rebuild_patches);
    assert_eq!(report.obs.total().cost, obs.cost);
}

#[test]
fn lazy_engine_rebuild_histograms_survive_threading() {
    // The lazy config is the one whose rebuild distributions the
    // observability layer exists to expose; its epoch state makes it the
    // most order-sensitive net here, so thread count must provably not
    // leak into the rebuild histograms.
    let n = 400;
    let trace = gens::temporal(n, 12_000, 0.8, 23);
    let lazy = |threads: usize| {
        let cfg = EngineConfig::default()
            .with_shards(4)
            .with_threads(threads)
            .with_batch(64)
            .with_obs(ObsMode::Deterministic);
        ShardedEngine::lazy(4, n, 600, 150, 8, cfg).run_trace(&trace)
    };
    let seq = lazy(1);
    let par = lazy(4);
    assert_eq!(seq, par);
    assert!(
        seq.obs.total().rebuild_patches.count() > 0,
        "workload must trigger patching rebuilds"
    );
    assert_eq!(seq.obs.total().rebuild_nodes, par.obs.total().rebuild_nodes);
    assert_eq!(
        seq.obs.total().rebuild_patches,
        par.obs.total().rebuild_patches
    );
    // Deterministic mode never touches a clock: no pause samples.
    assert!(seq.obs.total().rebuild_pause_us.is_empty());
}

#[test]
fn star_spine_and_resharding_off_are_bit_identical_to_the_default_engine() {
    // The refactor gate: the demand-aware dispatch layer must be a
    // strict superset of the fixed-router, fixed-partition engine. With
    // an *explicit* star spine and resharding off (the defaults), every
    // network type must produce reports — including the deterministic
    // ObsReport histograms — bit-identical to the plain config, across
    // shard/thread/batch combinations.
    let n = 240;
    let trace = gens::uniform(n, 6000, 11);
    let legacy = SpineMode::Star;
    let off = ReshardConfig {
        enabled: false,
        ..ReshardConfig::on()
    };
    for (shards, threads, batch) in [(2usize, 1usize, 1024usize), (5, 3, 64), (8, 4, 1)] {
        let base = EngineConfig::default()
            .with_shards(shards)
            .with_threads(threads)
            .with_batch(batch)
            .with_obs(ObsMode::Deterministic);
        let gated = base.clone().with_spine(legacy).with_reshard(off);
        let label = format!("shards={shards} threads={threads} batch={batch}");
        let a = ShardedEngine::ksplay(2, n, base.clone()).run_trace(&trace);
        let b = ShardedEngine::ksplay(2, n, gated.clone()).run_trace(&trace);
        assert_eq!(a, b, "ksplay {label}");
        assert_eq!(a.reshard, ReshardReport::default(), "ksplay {label}");
        assert_eq!(a.router_hops, 2 * a.cross.requests, "ksplay {label}");

        let a = ShardedEngine::pushdown(3, n, base.clone()).run_trace(&trace);
        let b = ShardedEngine::pushdown(3, n, gated.clone()).run_trace(&trace);
        assert_eq!(a, b, "pushdown {label}");

        let a = ShardedEngine::rotor(3, n, base.clone()).run_trace(&trace);
        let b = ShardedEngine::rotor(3, n, gated.clone()).run_trace(&trace);
        assert_eq!(a, b, "rotor {label}");

        let a = ShardedEngine::lazy(3, n, 400, 100, 4, base).run_trace(&trace);
        let b = ShardedEngine::lazy(3, n, 400, 100, 4, gated).run_trace(&trace);
        assert_eq!(a, b, "lazy {label}");
    }
    // The epoch-chunked replay path itself (resharding armed, but a gain
    // bar no migration can clear) charges exactly the same costs as the
    // unchunked path.
    let never = ReshardConfig {
        enabled: true,
        epoch: 700,
        min_gain: u64::MAX,
        ..ReshardConfig::default()
    };
    for threads in [1usize, 3] {
        let base = EngineConfig::default().with_shards(4).with_threads(threads);
        let plain = ShardedEngine::ksplay(2, n, base.clone()).run_trace(&trace);
        let armed = ShardedEngine::ksplay(2, n, base.with_reshard(never)).run_trace(&trace);
        assert_eq!(plain, armed, "threads={threads}: chunked replay diverged");
        assert_eq!(armed.reshard, ReshardReport::default());
    }
}

#[test]
fn spine_and_resharding_runs_are_bit_identical_across_thread_counts() {
    // The new demand-aware machinery must preserve guarantee 3: the
    // spine is served on the dispatcher in trace order and migrations
    // are planned between epochs from a thread-count-independent ledger,
    // so thread/batch layout cannot leak into the report.
    let n = 240;
    let trace = gens::boundary_phase_shift(n, 8000, 4, 2000, 0.8, 19);
    let mut rc = ReshardConfig::on();
    rc.epoch = 500;
    rc.budget = 16;
    let cfg = |threads: usize, batch: usize| {
        EngineConfig::default()
            .with_shards(4)
            .with_threads(threads)
            .with_batch(batch)
            .with_spine(SpineMode::KSplay { k: 2 })
            .with_reshard(rc)
            .with_obs(ObsMode::Deterministic)
    };
    let reference = ShardedEngine::ksplay(2, n, cfg(1, 1024)).run_trace(&trace);
    assert!(
        reference.reshard.migrations > 0,
        "the workload must actually trigger migrations"
    );
    for (threads, batch) in [(2usize, 1usize), (4, 97), (3, 100_000)] {
        let got = ShardedEngine::ksplay(2, n, cfg(threads, batch)).run_trace(&trace);
        assert_eq!(got, reference, "threads={threads} batch={batch}");
        assert_eq!(got.reshard, reference.reshard, "threads={threads}");
    }
}

#[test]
fn resharding_beats_the_static_partition_on_boundary_traffic() {
    // Guarantee 6 (and the regime results/resharding.md reports): hot
    // pairs straddling shard boundaries are cross-shard forever under a
    // static partition but become cheap intra-shard traffic once live
    // resharding shifts the boundary.
    let n = 400;
    let shards = 4;
    let trace = gens::boundary_phase_shift(n, 30_000, shards, 7500, 0.9, 5);
    let base = EngineConfig::default().with_shards(shards).with_threads(1);
    let mut rc = ReshardConfig::on();
    rc.epoch = 1000;
    rc.budget = 32;
    let static_rep = ShardedEngine::ksplay(2, n, base.clone()).run_trace(&trace);
    let dynamic_rep = ShardedEngine::ksplay(2, n, base.with_reshard(rc)).run_trace(&trace);
    assert!(dynamic_rep.reshard.migrations > 0);
    let static_cost = static_rep.total().total_unit_cost();
    let dynamic_cost = dynamic_rep.total().total_unit_cost();
    assert!(
        dynamic_cost * 10 <= static_cost * 9,
        "live resharding should win >=10% on boundary traffic \
         (static {static_cost}, resharding {dynamic_cost})"
    );
    assert!(
        dynamic_rep.cross.requests < static_rep.cross.requests,
        "migrations should convert cross-shard traffic to intra-shard"
    );
}

#[test]
fn engine_handles_lopsided_thread_and_batch_configs() {
    let n = 64;
    let trace = gens::temporal(n, 4000, 0.5, 3);
    let reference = {
        let mut e =
            ShardedEngine::ksplay(2, n, EngineConfig::default().with_shards(8).with_threads(1));
        e.run_trace(&trace)
    };
    for (threads, batch) in [(2usize, 1usize), (16, 1), (3, 7), (8, 100_000)] {
        let cfg = EngineConfig::default()
            .with_shards(8)
            .with_threads(threads)
            .with_batch(batch);
        let mut e = ShardedEngine::ksplay(2, n, cfg);
        assert_eq!(
            e.run_trace(&trace),
            reference,
            "threads={threads} batch={batch}"
        );
    }
}

/// Runs the same trace through a sequentially built and a parallel-built
/// engine (same factory, same config otherwise) and asserts the reports —
/// deterministic obs histograms included — are bit-identical. Shards are
/// independent, so `build_threads` must be invisible in every observable.
fn assert_parallel_build_identical<N: Network + Send>(
    label: &str,
    shards: usize,
    make: impl Fn(usize) -> N + Sync,
) {
    let n = 180;
    let trace = gens::uniform(n, 4000, 23);
    let cfg = EngineConfig::default()
        .with_shards(shards)
        .with_threads(1)
        .with_obs(ObsMode::Deterministic);
    let mut seq = ShardedEngine::new(n, cfg.clone().with_build_threads(1), |_, r| make(r.len()));
    let mut par = ShardedEngine::new(n, cfg.with_build_threads(4), |_, r| make(r.len()));
    assert_eq!(
        seq.run_trace(&trace),
        par.run_trace(&trace),
        "{label}: parallel build diverged at {shards} shards"
    );
}

#[test]
fn parallel_build_is_bit_identical_to_sequential_on_every_network_type() {
    for shards in [1usize, 3, 5, 16] {
        assert_parallel_build_identical("KSplayNet k=3", shards, |n| KSplayNet::balanced(3, n));
        assert_parallel_build_identical("KPlusOneSplayNet k=2", shards, |n| {
            KPlusOneSplayNet::new(2, n)
        });
        assert_parallel_build_identical("PushDownNet k=2", shards, |n| PushDownNet::new(2, n));
        assert_parallel_build_identical("RotorWalkNet k=2", shards, |n| RotorWalkNet::new(2, n));
        assert_parallel_build_identical("LazyKaryNet k=2", shards, |n| {
            ksan::core::LazyKaryNet::new(
                2,
                n,
                4,
                ksan::core::incremental_weight_balanced_rebuilder(2, 10),
            )
        });
        assert_parallel_build_identical("ClassicSplayNet", shards, ClassicSplayNet::balanced);
    }
}

#[test]
fn serve_one_per_request_rebuilds_the_run_trace_report() {
    // Guarantee 8: `serve_one` serves a one-request round on one lane,
    // `run_trace` serves rounds on `min(threads, S)` lanes, and both reach
    // the per-shard step through the same round function. Per-request
    // serving must rebuild the run's report exactly, the deterministic
    // observability surfaces included, and its returned costs must sum to
    // the report's total.
    let n = 240;
    let trace = gens::uniform(n, 4000, 47);
    for (shards, threads) in [(3usize, 2usize), (5, 4), (8, 3)] {
        for spine in [SpineMode::Star, SpineMode::KSplay { k: 2 }] {
            let label = format!("shards={shards} threads={threads} {spine:?}");
            let cfg = EngineConfig::default()
                .with_shards(shards)
                .with_threads(threads)
                .with_batch(97)
                .with_spine(spine)
                .with_obs(ObsMode::Deterministic);
            let whole = ShardedEngine::ksplay(3, n, cfg.clone()).run_trace(&trace);
            assert!(whole.cross.requests > 0, "{label}: traffic must cross");

            let mut engine = ShardedEngine::ksplay(3, n, cfg);
            let mut report = EngineReport::new(shards);
            report.obs = ObsReport::with_config(shards, ObsMode::Deterministic);
            let mut sum = ServeCost::default();
            for &(u, v) in trace.requests() {
                sum += engine.serve_one(u, v, &mut report);
            }
            assert_eq!(report, whole, "{label}");
            assert_eq!(sum, report.total().cost(), "{label}: returned costs");
            assert_eq!(report.total().requests, 4000, "{label}");
        }
    }
}
