//! Sharded-engine serving throughput on the 10⁶-node per-shard hot-pair
//! workload (the engine acceptance scenario): one balanced 4-ary SplayNet
//! per shard, requests round-robin across the shards' hot pairs with a
//! cold request every 64 serves per shard.
//!
//! Three configurations isolate where time goes:
//! * `1x1` — one shard, sequential: the unsharded baseline;
//! * `4x1` — four shards drained sequentially: pure partitioning effect
//!   (smaller trees, no threading);
//! * `4x4` — four shards on four workers: partitioning + parallelism.
//!
//! On a multi-core host `4x4` vs `1x1` is the headline ≥2× number; the
//! run prints the measured ratio and the host's available parallelism so
//! single-core containers (where no threading speedup is physically
//! possible) are self-explaining rather than silently misleading.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use kst_engine::{EngineConfig, ShardedEngine};
use kst_workloads::gens;
use std::hint::black_box;

const N: usize = 1_000_000;
const BATCH: usize = 100_000;
const K: usize = 4;

fn build_trace() -> kst_workloads::Trace {
    gens::sharded_hot_pairs(N, BATCH, 4, 64, 9)
}

fn bench_engine_configs(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_serve_hot_pairs_1m");
    group.throughput(Throughput::Elements(BATCH as u64));
    let trace = build_trace();
    for (shards, threads) in [(1usize, 1usize), (4, 1), (4, 4)] {
        let label = format!("{shards}x{threads}");
        group.bench_with_input(BenchmarkId::from_parameter(&label), &label, |b, _| {
            let cfg = EngineConfig::default()
                .with_shards(shards)
                .with_threads(threads);
            let mut engine = ShardedEngine::ksplay(K, N, cfg);
            engine.run_trace(&trace); // converge the hot pairs before timing
            b.iter(|| {
                let report = engine.run_trace(black_box(&trace));
                report.total().routing
            });
        });
    }
    group.finish();
}

/// Directly times `4x4` against `1x1` and prints the speedup ratio (the
/// acceptance number on multi-core hosts).
fn report_sharding_speedup() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let trace = build_trace();
    let time = |shards: usize, threads: usize| {
        let cfg = EngineConfig::default()
            .with_shards(shards)
            .with_threads(threads);
        let mut engine = ShardedEngine::ksplay(K, N, cfg);
        engine.run_trace(&trace); // warm
        let mut best = f64::MAX;
        for _ in 0..3 {
            let (report, elapsed) = kst_obs::timed(|| engine.run_trace(&trace));
            black_box(report.total().routing);
            best = best.min(elapsed.as_secs_f64());
        }
        best
    };
    let base = time(1, 1);
    let sharded = time(4, 4);
    println!(
        "engine_serve: 4 shards/4 threads vs 1 shard = {:.2}x speedup \
         ({:.1} vs {:.1} Melem/s; host has {cores} core(s){})",
        base / sharded,
        BATCH as f64 / sharded / 1e6,
        BATCH as f64 / base / 1e6,
        if cores < 4 {
            " — threading cannot speed up on this host"
        } else {
            ""
        }
    );
}

criterion_group!(benches, bench_engine_configs);

fn main() {
    benches();
    report_sharding_speedup();
}
