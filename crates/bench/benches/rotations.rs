//! Microbenchmarks of the k-splay rotation machinery: how expensive is one
//! restructure, how does it scale with arity k and with 10⁶ nodes, and a
//! hard assertion that the machinery never touches the heap once the
//! scratch arenas are reserved.

use criterion::{criterion_group, BenchmarkId, Criterion};
use kst_core::alloc_probe::{self, CountingAlloc};
use kst_core::{KstTree, NodeIdx, SplayStrategy, WindowPolicy};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn bench_ksplay(c: &mut Criterion) {
    let mut group = c.benchmark_group("k_splay_deepest");
    for k in [2usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let base = KstTree::balanced(k, 4096);
            let deepest = base.nodes().max_by_key(|&v| base.depth(v)).unwrap();
            b.iter_batched(
                || base.clone(),
                |mut t| {
                    if t.depth(deepest) >= 2 {
                        t.k_splay(black_box(deepest), WindowPolicy::Paper);
                    }
                    t
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_splay_to_root(c: &mut Criterion) {
    let mut group = c.benchmark_group("splay_to_root_n4096");
    for k in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let base = KstTree::balanced(k, 4096);
            let mut i = 0u32;
            b.iter_batched(
                || base.clone(),
                |mut t| {
                    i = (i.wrapping_mul(16_807).wrapping_add(7)) % 4096;
                    t.splay_until(
                        black_box(i as NodeIdx),
                        kst_core::NIL,
                        kst_core::SplayStrategy::KSplay,
                        WindowPolicy::Paper,
                    );
                    t
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_window_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_policy_ablation");
    for (name, policy) in [
        ("paper", WindowPolicy::Paper),
        ("leftmost", WindowPolicy::Leftmost),
        ("rightmost", WindowPolicy::Rightmost),
    ] {
        group.bench_function(name, |b| {
            let base = KstTree::balanced(8, 2048);
            let deepest = base.nodes().max_by_key(|&v| base.depth(v)).unwrap();
            b.iter_batched(
                || base.clone(),
                |mut t| {
                    t.k_splay(black_box(deepest), policy);
                    t
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Uniform splays before `splay_to_root_1m_steady` times any: on 10⁶
/// nodes the rotations per splay settle (25.9 at k = 2, 18.7 at k = 4)
/// and the time per splay stops drifting up after about 10⁶ of them.
const STEADY_WARMUP: usize = 1 << 20;

fn bench_splay_to_root_1m(c: &mut Criterion) {
    let mut group = c.benchmark_group("splay_to_root_1m_steady");
    for k in [2usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            // One evolving tree (cloning 10⁶ nodes per iteration would
            // dwarf the splay itself); node choice cycles pseudo-randomly.
            // A fixed seeded warm-up, untimed, carries it from the
            // balanced start into the steady state of uniform splaying,
            // so every run times the same stationary workload whatever
            // its iteration count.
            let mut t = KstTree::balanced(k, 1_000_000);
            t.reserve_scratch(SplayStrategy::KSplay.span());
            let mut i = 0u64;
            let mut next = move || {
                i = i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ((i >> 33) % 1_000_000) as NodeIdx
            };
            for _ in 0..STEADY_WARMUP {
                let v = next();
                t.splay_until(v, kst_core::NIL, SplayStrategy::KSplay, WindowPolicy::Paper);
            }
            b.iter(|| {
                t.splay_until(
                    black_box(next()),
                    kst_core::NIL,
                    SplayStrategy::KSplay,
                    WindowPolicy::Paper,
                );
            });
        });
    }
    group.finish();
}

/// Asserts k-splay / k-semi-splay / deep restructures are allocation-free
/// after `reserve_scratch` — from the very first call.
fn assert_rotations_allocation_free() {
    for k in [2usize, 5, 16] {
        let mut t = KstTree::balanced(k, 4096);
        t.reserve_scratch(SplayStrategy::Deep(5).span());
        let (_, allocs) = alloc_probe::count_allocations(|| {
            let mut i = 0u64;
            for _ in 0..2000 {
                i = i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let v = ((i >> 33) % 4096) as NodeIdx;
                for strategy in [
                    SplayStrategy::KSplay,
                    SplayStrategy::SemiOnly,
                    SplayStrategy::Deep(5),
                ] {
                    t.splay_until(v, kst_core::NIL, strategy, WindowPolicy::Paper);
                }
            }
        });
        assert_eq!(allocs, 0, "rotation machinery allocated (k={k})");
    }
    println!("rotation allocation assertions passed (0 allocations)");
}

criterion_group!(
    benches,
    bench_ksplay,
    bench_splay_to_root,
    bench_window_policies,
    bench_splay_to_root_1m
);

fn main() {
    assert_rotations_allocation_free();
    benches();
}
