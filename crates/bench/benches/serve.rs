//! Request-serving throughput of each network implementation across
//! workload locality regimes, plus hard zero-allocation assertions on every
//! serve hot path (run before the timed groups; a trip fails the whole
//! bench run, which the CI smoke step relies on).

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use kst_core::alloc_probe::{self, CountingAlloc};
use kst_core::{KPlusOneSplayNet, KSplayNet, Network};
use kst_workloads::gens;
use splaynet_classic::ClassicSplayNet;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 1024;
const BATCH: usize = 2000;

/// Node count of the large-scale hot-pair scenario (ROADMAP: "push the
/// online nets to 10⁶ nodes").
const HOT_N: usize = 1_000_000;
const HOT_BATCH: usize = 10_000;

/// Steady-state serve throughput on a 10⁶-node network dominated by one hot
/// pair, with a cold request mixed in every 64 serves so the rotation
/// machinery stays exercised. This is the acceptance benchmark for the
/// zero-allocation hot-path work: converged serves must not touch the heap
/// at all, and each cold serve reuses the tree's scratch arenas.
fn bench_hot_pair_1m(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_hot_pair_1m");
    group.throughput(Throughput::Elements(HOT_BATCH as u64));
    for k in [2usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let mut net = KSplayNet::balanced(k, HOT_N);
            let (hu, hv) = (1u32, HOT_N as u32);
            net.serve(hu, hv); // converge the hot pair before measuring
            let mut i = 0u64;
            b.iter(|| {
                let mut acc = 0u64;
                for _ in 0..HOT_BATCH {
                    i += 1;
                    let (u, v) = if i.is_multiple_of(64) {
                        // splitmix-style hash picks a pseudo-random cold peer
                        let w = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_right(27)
                            % (HOT_N as u64 - 2)
                            + 2) as u32;
                        (hu, w)
                    } else {
                        (hu, hv)
                    };
                    acc += net.serve(black_box(u), black_box(v)).routing;
                }
                acc
            });
        });
    }
    group.finish();
}

fn bench_ksplaynet_arity(c: &mut Criterion) {
    let mut group = c.benchmark_group("ksplaynet_serve_t05");
    group.throughput(Throughput::Elements(BATCH as u64));
    let trace = gens::temporal(N, 200_000, 0.5, 1);
    for k in [2usize, 3, 5, 10] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let mut net = KSplayNet::balanced(k, N);
            let mut pos = 0usize;
            b.iter(|| {
                let mut acc = 0u64;
                for _ in 0..BATCH {
                    let (u, v) = trace.requests()[pos % trace.len()];
                    pos += 1;
                    acc += net.serve(black_box(u), black_box(v)).routing;
                }
                acc
            });
        });
    }
    group.finish();
}

fn bench_networks_compared(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_by_network_t075");
    group.throughput(Throughput::Elements(BATCH as u64));
    let trace = gens::temporal(N, 200_000, 0.75, 2);
    group.bench_function("classic_splaynet", |b| {
        let mut net = ClassicSplayNet::balanced(N);
        let mut pos = 0usize;
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..BATCH {
                let (u, v) = trace.requests()[pos % trace.len()];
                pos += 1;
                acc += net.serve(black_box(u), black_box(v)).routing;
            }
            acc
        });
    });
    let classic = group.last_ns_per_iter();
    group.bench_function("kary_splaynet_k2", |b| {
        let mut net = KSplayNet::balanced(2, N);
        let mut pos = 0usize;
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..BATCH {
                let (u, v) = trace.requests()[pos % trace.len()];
                pos += 1;
                acc += net.serve(black_box(u), black_box(v)).routing;
            }
            acc
        });
    });
    if let (Some(classic), Some(k2)) = (classic, group.last_ns_per_iter()) {
        // ROADMAP item 2 aims for <= 2x: k = 2 makes the classic moves
        // exactly (tests/differential_k2.rs), so the gap is overhead.
        println!(
            "serve_by_network_t075: kary_splaynet_k2 / classic_splaynet = {:.2}x",
            k2 / classic
        );
    }
    group.bench_function("centroid_3splaynet", |b| {
        let mut net = KPlusOneSplayNet::new(2, N);
        let mut pos = 0usize;
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..BATCH {
                let (u, v) = trace.requests()[pos % trace.len()];
                pos += 1;
                acc += net.serve(black_box(u), black_box(v)).routing;
            }
            acc
        });
    });
    group.finish();
}

/// Asserts that serving a whole trace performs **zero** heap allocations on
/// every network implementation — from the very first request (constructors
/// pre-size the scratch arenas via `KstTree::reserve_scratch`).
fn assert_serve_paths_allocation_free() {
    let trace = gens::temporal(512, 4096, 0.6, 9);
    for k in [2usize, 3, 5, 10] {
        let mut net = KSplayNet::balanced(k, 512);
        let (acc, allocs) = alloc_probe::count_allocations(|| {
            let mut acc = 0u64;
            for &(u, v) in trace.requests() {
                acc += net.serve(u, v).routing;
            }
            acc
        });
        black_box(acc);
        assert_eq!(allocs, 0, "KSplayNet::serve allocated (k={k})");
    }
    {
        let mut net = ClassicSplayNet::balanced(512);
        let (acc, allocs) = alloc_probe::count_allocations(|| {
            let mut acc = 0u64;
            for &(u, v) in trace.requests() {
                acc += net.serve(u, v).routing;
            }
            acc
        });
        black_box(acc);
        assert_eq!(allocs, 0, "ClassicSplayNet::serve allocated");
    }
    {
        let mut net = KPlusOneSplayNet::new(3, 512);
        let (acc, allocs) = alloc_probe::count_allocations(|| {
            let mut acc = 0u64;
            for &(u, v) in trace.requests() {
                acc += net.serve(u, v).routing;
            }
            acc
        });
        black_box(acc);
        assert_eq!(allocs, 0, "KPlusOneSplayNet::serve allocated");
    }
    println!("serve-path allocation assertions passed (0 allocations across all networks)");
}

criterion_group!(
    benches,
    bench_ksplaynet_arity,
    bench_networks_compared,
    bench_hot_pair_1m
);

fn main() {
    assert_serve_paths_allocation_free();
    benches();
}
