//! The live-resharding capability check of the sharded engine:
//!
//! 1. `Network::reshardable` returns `Some` for the k-ary SplayNet only;
//!    every other net type keeps the default `None`;
//! 2. an engine over a net type that cannot reshard rejects
//!    `ReshardConfig::on()` at construction once there are two or more
//!    shards, instead of failing after a replay;
//! 3. with one shard there is no boundary to move, so the same engines
//!    build and serve exactly as with resharding off.

use ksan::core::lazy::incremental_weight_balanced_rebuilder;
use ksan::core::LazyKaryNet;
use ksan::prelude::*;
use std::panic::catch_unwind;

const N: usize = 120;

fn resharding(shards: usize) -> EngineConfig {
    EngineConfig::default()
        .with_shards(shards)
        .with_threads(1)
        .with_reshard(ReshardConfig::on())
}

/// The engines over net types that cannot reshard.
const COMPETITORS: [&str; 3] = ["pushdown", "rotor", "lazy"];

/// Builds the named competitor engine; the returned closure replays a
/// trace through it.
fn build(name: &str, cfg: &EngineConfig) -> Box<dyn FnMut(&Trace) -> EngineReport> {
    let cfg = cfg.clone();
    match name {
        "pushdown" => {
            let mut engine = ShardedEngine::pushdown(3, N, cfg);
            Box::new(move |trace| engine.run_trace(trace))
        }
        "rotor" => {
            let mut engine = ShardedEngine::rotor(3, N, cfg);
            Box::new(move |trace| engine.run_trace(trace))
        }
        "lazy" => {
            let mut engine = ShardedEngine::lazy(3, N, 200, 50, 4, cfg);
            Box::new(move |trace| engine.run_trace(trace))
        }
        _ => unreachable!("unknown competitor {name}"),
    }
}

#[test]
fn only_the_k_ary_splaynet_is_reshardable() {
    assert!(KSplayNet::balanced(3, 20).reshardable().is_some());
    assert!(PushDownNet::new(3, 20).reshardable().is_none());
    assert!(RotorWalkNet::new(3, 20).reshardable().is_none());
    let mut lazy = LazyKaryNet::new(3, 20, 100, incremental_weight_balanced_rebuilder(3, 25));
    assert!(lazy.reshardable().is_none());
    assert!(KPlusOneSplayNet::new(3, 20).reshardable().is_none());
    assert!(ClassicSplayNet::balanced(20).reshardable().is_none());
}

#[test]
fn non_reshardable_engines_reject_resharding_at_construction() {
    let trace = gens::uniform(N, 10, 1);
    for shards in [2usize, 5] {
        let cfg = resharding(shards);
        for name in COMPETITORS {
            let err = catch_unwind(|| drop(build(name, &cfg)))
                .expect_err(&format!("{name} shards={shards}: built with resharding on"));
            let msg = err.downcast::<String>().expect("a formatted message");
            assert!(
                msg.starts_with("resharding is enabled but") && msg.contains("cannot reshard"),
                "{name} shards={shards}: unexpected panic {msg:?}"
            );
        }
        // The reshardable net builds and serves under the same config.
        let rep = ShardedEngine::ksplay(3, N, cfg).run_trace(&trace);
        assert_eq!(rep.total().requests, 10);
    }
}

#[test]
fn non_reshardable_engines_build_and_serve_with_one_shard() {
    let trace = gens::temporal(N, 3000, 0.5, 7);
    let off = EngineConfig::default().with_shards(1).with_threads(1);
    for name in COMPETITORS {
        let a = build(name, &off)(&trace);
        let b = build(name, &resharding(1))(&trace);
        assert_eq!(b.total().requests, 3000, "{name}");
        assert_eq!(b.reshard, ReshardReport::default(), "{name}");
        assert_eq!(a, b, "{name}: one-shard resharding changed the replay");
    }
}
