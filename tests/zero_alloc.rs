//! The zero-allocation serve-path guarantee, enforced as a regular test:
//! with a counting global allocator installed, serving traces on every
//! network implementation must perform **zero** heap allocations — from the
//! very first request, since the constructors pre-size the scratch arenas
//! via `KstTree::reserve_scratch`.
//!
//! The allocation counter is per-thread (`alloc_probe`), so neither
//! sibling tests nor the libtest harness's own reporting thread can
//! pollute the counts — the latter used to fail this test
//! nondeterministically when the harness's progress output raced the
//! first counted window.

use ksan::core::alloc_probe::{self, CountingAlloc};
use ksan::core::lazy::LazyKaryNet;
use ksan::engine::{ObsMode, ObsReport};
use ksan::prelude::*;
use ksan::sim::ObsCollector;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn serve_all<N: Network>(net: &mut N, trace: &Trace) -> u64 {
    let mut acc = 0u64;
    for &(u, v) in trace.requests() {
        acc += net.serve(u, v).total_unit();
    }
    acc
}

#[test]
fn serve_paths_never_allocate() {
    let n = 300;
    let trace = gens::temporal(n, 2000, 0.6, 11);
    let zipf = gens::zipf(n, 2000, 1.2, 12);

    // k-ary SplayNet: every arity, both strategies, all window policies.
    for k in [2usize, 3, 5, 9] {
        for strategy in [SplayStrategy::KSplay, SplayStrategy::SemiOnly] {
            for policy in [
                WindowPolicy::Paper,
                WindowPolicy::Leftmost,
                WindowPolicy::Rightmost,
            ] {
                let mut net = KSplayNet::balanced(k, n)
                    .with_strategy(strategy)
                    .with_policy(policy);
                let ((), allocs) = alloc_probe::count_allocations(|| {
                    std::hint::black_box(serve_all(&mut net, &trace));
                });
                assert_eq!(
                    allocs, 0,
                    "KSplayNet allocated (k={k}, {strategy:?}, {policy:?})"
                );
            }
        }
    }

    // Deep(d) generalized strategies, on an arity with its own compiled
    // restructure kernel (k = 3) and on runtime-k arities.
    for (k, d) in [(3usize, 4u8), (3, 6), (7, 5), (11, 5)] {
        let mut net = KSplayNet::balanced(k, n).with_strategy(SplayStrategy::Deep(d));
        let ((), allocs) = alloc_probe::count_allocations(|| {
            std::hint::black_box(serve_all(&mut net, &zipf));
        });
        assert_eq!(allocs, 0, "KSplayNet allocated (k={k}, Deep({d}))");
    }

    // Centroid (k+1)-SplayNet.
    for k in [2usize, 4] {
        let mut net = KPlusOneSplayNet::new(k, n);
        let ((), allocs) = alloc_probe::count_allocations(|| {
            std::hint::black_box(serve_all(&mut net, &trace));
        });
        assert_eq!(allocs, 0, "KPlusOneSplayNet allocated (k={k})");
    }

    // Cloned networks inherit the scratch *capacity* (KstTree's manual
    // Clone), so a clone serves allocation-free from its first request too.
    {
        let original = KSplayNet::balanced(4, n);
        let mut net = original.clone();
        let ((), allocs) = alloc_probe::count_allocations(|| {
            std::hint::black_box(serve_all(&mut net, &trace));
        });
        assert_eq!(allocs, 0, "cloned KSplayNet allocated");
    }

    // Competing topologies: Push-Down Trees and rotor-walk trees keep the
    // complete position tree fixed and swap occupants; all link-diff
    // scratch is reserved at construction, so serving — including the
    // steady state after convergence — is allocation-free from request one.
    for k in [2usize, 3, 5, 9] {
        {
            let mut net = PushDownNet::new(k, n);
            let ((), allocs) = alloc_probe::count_allocations(|| {
                std::hint::black_box(serve_all(&mut net, &trace));
            });
            assert_eq!(allocs, 0, "PushDownNet allocated (k={k}, temporal)");
            let ((), allocs) = alloc_probe::count_allocations(|| {
                std::hint::black_box(serve_all(&mut net, &zipf));
            });
            assert_eq!(allocs, 0, "PushDownNet allocated (k={k}, zipf)");
        }
        {
            let mut net = RotorWalkNet::new(k, n);
            let ((), allocs) = alloc_probe::count_allocations(|| {
                std::hint::black_box(serve_all(&mut net, &trace));
            });
            assert_eq!(allocs, 0, "RotorWalkNet allocated (k={k}, temporal)");
            let ((), allocs) = alloc_probe::count_allocations(|| {
                std::hint::black_box(serve_all(&mut net, &zipf));
            });
            assert_eq!(allocs, 0, "RotorWalkNet allocated (k={k}, zipf)");
        }
    }

    // Classic binary SplayNet baseline.
    {
        let mut net = ClassicSplayNet::balanced(n);
        let ((), allocs) = alloc_probe::count_allocations(|| {
            std::hint::black_box(serve_all(&mut net, &trace));
        });
        assert_eq!(allocs, 0, "ClassicSplayNet allocated");
    }

    // Observability on the serve path: histogram recording and span
    // tracing pre-size everything at construction, so serving with a
    // collector attached stays allocation-free — including after the
    // ring wraps (capacity far below the request count) and across
    // rebuild events, which record three extra spans each.
    {
        let mut net = KSplayNet::balanced(3, n);
        let mut obs = ObsCollector::new(0, 64); // 64 ≪ 2000 requests: wraps
        let ((), allocs) = alloc_probe::count_allocations(|| {
            for &(u, v) in trace.requests() {
                let c = net.serve(u, v);
                obs.observe(u, v, c, None);
            }
        });
        assert_eq!(allocs, 0, "observed KSplayNet serve path allocated");
        assert_eq!(obs.requests(), 2000);
        assert!(obs.tracer.dropped() > 0, "ring must have wrapped");
    }
    {
        // Rebuild costs too: a lazy net's serve may allocate at rebuild
        // epochs (by design, documented below), so record its cost
        // stream first and replay *observation alone* under the counter
        // — the rebuild branch (extra histograms + three span events per
        // rebuild) must also be allocation-free.
        let mut net = LazyKaryNet::new(
            3,
            n,
            2_500,
            ksan::core::incremental_weight_balanced_rebuilder(3, 64),
        );
        let mut costs: Vec<(NodeKey, NodeKey, ServeCost)> =
            Vec::with_capacity(trace.requests().len());
        for &(u, v) in trace.requests() {
            costs.push((u, v, net.serve(u, v)));
        }
        assert!(
            costs.iter().any(|&(_, _, c)| c.rebuild_patches > 0),
            "trace must trigger patching rebuilds"
        );
        // Untimed and timed (the engine's wall-clock mode, which also
        // records each rebuild's pause).
        let mut obs = ObsCollector::new(0, 128);
        let mut timed = ObsCollector::new(0, 128);
        let ((), allocs) = alloc_probe::count_allocations(|| {
            for (ts, &(u, v, c)) in (0u64..).zip(&costs) {
                obs.observe(u, v, c, None);
                timed.observe(u, v, c, Some((ts, 1)));
            }
        });
        assert_eq!(allocs, 0, "observing rebuild costs allocated");
        assert_eq!(obs.requests(), 2000);
        assert!(obs.rebuild_patches.count() > 0);
        assert_eq!(obs.rebuild_pause_us.count(), 0);
        assert_eq!(timed.rebuild_pause_us.count(), obs.rebuild_patches.count());
    }

    // The engine's demand-aware dispatch path: ShardMap routing, the
    // gateway half-serve decomposition and the self-adjusting router
    // spine allocate nothing outside migration boundaries — including
    // after a live migration has respliced the shard trees and moved a
    // range boundary (epoch boundaries themselves are the documented
    // cold path and may allocate while planning).
    {
        let n = 200;
        let mut rc = ReshardConfig::on();
        rc.epoch = 500;
        rc.budget = 8;
        let cfg = EngineConfig::default()
            .with_shards(4)
            .with_threads(1)
            .with_spine(SpineMode::KSplay { k: 2 })
            .with_reshard(rc);
        let mut eng = ShardedEngine::ksplay(2, n, cfg);
        // Warm run: boundary-straddling traffic forces at least one
        // migration, so the counted window below exercises the
        // post-migration range table and the respliced shard trees.
        let warm = gens::boundary_phase_shift(n, 1000, 4, 500, 0.8, 7);
        let warm_rep = eng.run_trace(&warm);
        assert!(warm_rep.reshard.migrations > 0, "warmup must migrate");
        let steady = gens::uniform(n, 2000, 21);
        let mut report = EngineReport::new(4);
        let ((), allocs) = alloc_probe::count_allocations(|| {
            for &(u, v) in steady.requests() {
                std::hint::black_box(eng.serve_one(u, v, &mut report));
            }
        });
        assert_eq!(allocs, 0, "engine dispatch path allocated");
        assert!(
            report.cross.requests > 0,
            "steady traffic must cross shards"
        );
    }

    // The engine's round path on two lanes: routing, bucket pushes and
    // lane drains allocate nothing per op, so a run allocates its report
    // and each round's spawn and join, whatever the round size. Two
    // engines serve the same number of rounds, of 512 and of 4096
    // requests. The counter is per-thread: it sees the routing, the spawn
    // and join, and the lane this thread drains; the spawned lane runs
    // the same `drain_lane`.
    {
        let (n, rounds) = (400, 6);
        let warmed = |batch: usize| {
            let cfg = EngineConfig::default()
                .with_shards(4)
                .with_threads(2)
                .with_batch(batch);
            let mut eng = ShardedEngine::ksplay(3, n, cfg);
            eng.run_trace(&gens::uniform(n, rounds * batch, 31));
            eng
        };
        let (mut small, mut large) = (warmed(512), warmed(4096));
        let small_trace = gens::uniform(n, rounds * 512, 32);
        let large_trace = gens::uniform(n, rounds * 4096, 33);
        let ((), per_round) = alloc_probe::count_allocations(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| ());
            });
        });
        let (_, per_report) = alloc_probe::count_allocations(|| {
            (
                EngineReport::new(4),
                ObsReport::with_config(4, ObsMode::Off),
            )
        });
        let (rep, small_allocs) = alloc_probe::count_allocations(|| small.run_trace(&small_trace));
        assert!(rep.cross.requests > 0, "uniform traffic must cross shards");
        let (_, large_allocs) = alloc_probe::count_allocations(|| large.run_trace(&large_trace));
        assert_eq!(
            small_allocs, large_allocs,
            "the round path allocated per op (512- vs 4096-request rounds)"
        );
        let bound = per_report + rounds as u64 * per_round;
        assert!(
            small_allocs <= bound,
            "{small_allocs} allocations for {rounds} rounds, more than the \
             report and the rounds' spawn and join ({bound})"
        );
    }

    // Lazy nets are static between rebuilds. The epoch buffer allocates
    // only when coalescing it in place frees less than half of it, that
    // is when the epoch has *new* distinct pairs (amortized growth — the
    // price of O(distinct pairs) memory instead of a dense n² matrix);
    // re-serving pairs already in the coalesced epoch must be
    // allocation-free (rebuilds themselves may — and do — allocate by
    // design).
    {
        let mut net = LazyKaryNet::new(
            3,
            n,
            u64::MAX,
            ksan::core::FullRebuild(|d: &ksan::core::DemandView<'_>| {
                ShapeTree::balanced_kary(d.n(), 3)
            }),
        );
        // Warm pass: every distinct pair enters the ledger once.
        serve_all(&mut net, &trace);
        let pairs_after_warmup = net.epoch_pairs().len();
        let ((), allocs) = alloc_probe::count_allocations(|| {
            std::hint::black_box(serve_all(&mut net, &trace));
        });
        assert_eq!(allocs, 0, "LazyKaryNet allocated on a warmed ledger");
        assert_eq!(
            net.epoch_pairs().len(),
            pairs_after_warmup,
            "second pass over the same trace must add no distinct pairs"
        );
    }

    // A lazy trigger whose plan is empty — most triggers on a stable
    // workload — allocates nothing once warm: the merge writes into the
    // retained ledger and epoch buffers, the view into the retained
    // prefixes, and the empty plan and its baseline advance own no heap.
    // The trace repeats one short cycle and each epoch spans many cycles,
    // so every epoch sees the same pairs at nearly the same weights.
    {
        let cycle = gens::zipf(n, 97, 1.1, 13);
        let mut net = LazyKaryNet::new(
            3,
            n,
            4_000,
            ksan::core::incremental_weight_balanced_rebuilder(3, 64),
        )
        .with_half_life(4);
        for _ in 0..400 {
            serve_all(&mut net, &cycle);
        }
        let (rebuilds, patches) = (net.rebuilds(), net.patches_applied());
        assert!(rebuilds > 0, "warm-up must trigger rebuilds");
        let ((), allocs) = alloc_probe::count_allocations(|| {
            for _ in 0..100 {
                std::hint::black_box(serve_all(&mut net, &cycle));
            }
        });
        assert!(
            net.rebuilds() > rebuilds + 5,
            "the counted window must span lazy triggers"
        );
        assert_eq!(
            net.patches_applied(),
            patches,
            "a stable cycle must plan nothing once warm"
        );
        assert_eq!(allocs, 0, "an empty-plan lazy trigger allocated");
    }
}

/// A shard bucket holds a whole round: a request routes at most one op to
/// any shard, so `run_trace` reserves one round's worth of ops per shard.
/// Rounds whose requests all stay inside shard 0 fill that one bucket to
/// the brim and keep one lane busy, so the replay allocates only its
/// report: no bucket grows and no worker spawns.
#[test]
fn one_shard_rounds_allocate_only_their_report() {
    let (n, batch, rounds) = (400, 512, 4);
    let cfg = EngineConfig::default()
        .with_shards(4)
        .with_threads(2)
        .with_batch(batch);
    let mut eng = ShardedEngine::ksplay(3, n, cfg);
    let warm = eng.run_trace(&gens::uniform(n, rounds * batch, 41));
    assert!(warm.cross.requests > 0, "uniform traffic must cross shards");
    assert_eq!(eng.map().shard_of(1), eng.map().shard_of(2));
    let hot = Trace::new(n, vec![(1, 2); rounds * batch]);
    let (_, per_report) = alloc_probe::count_allocations(|| {
        (
            EngineReport::new(4),
            ObsReport::with_config(4, ObsMode::Off),
        )
    });
    let (rep, allocs) = alloc_probe::count_allocations(|| eng.run_trace(&hot));
    assert_eq!(rep.per_shard[0].requests, (rounds * batch) as u64);
    assert_eq!(
        allocs, per_report,
        "a round held in one shard's bucket allocated beyond its report"
    );
}
