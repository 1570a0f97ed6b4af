//! Offline stand-in for the `criterion` crate.
//!
//! Provides the API subset the workspace's benches use —
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_with_input`] /
//! [`BenchmarkGroup::bench_function`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`BenchmarkId`], [`Throughput`],
//! [`BatchSize`], and the [`criterion_group!`] / [`criterion_main!`]
//! macros — with a deliberately simple measurement loop: warm up briefly,
//! time a fixed wall-clock budget, report mean ns/iter (plus throughput
//! when configured). There are no statistical analyses, baselines, or
//! HTML reports. Tune the per-benchmark budget with
//! `KSAN_BENCH_MEASURE_MS` (default 300).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

fn measure_budget() -> Duration {
    let ms = std::env::var("KSAN_BENCH_MEASURE_MS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms)
}

/// Benchmark identifier inside a group (`criterion::BenchmarkId` subset).
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Id rendered as the parameter alone (e.g. the arity `k`).
    pub fn from_parameter<P: Display>(p: P) -> Self {
        BenchmarkId {
            label: p.to_string(),
        }
    }

    /// Id rendered as `name/parameter`.
    pub fn new<S: Into<String>, P: Display>(name: S, p: P) -> Self {
        BenchmarkId {
            label: format!("{}/{}", name.into(), p),
        }
    }
}

/// Units-of-work declaration used to derive throughput numbers.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// How `iter_batched` amortizes setup cost (ignored by this stand-in).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Entry point handed to each benchmark target function.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _c: self,
            name: name.to_string(),
            throughput: None,
            last_ns_per_iter: None,
        }
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    last_ns_per_iter: Option<f64>,
}

impl BenchmarkGroup<'_> {
    /// Declares units of work per iteration for throughput reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Sets the statistical sample count (accepted, unused here).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Sets the measurement time (accepted; this stand-in uses
    /// `KSAN_BENCH_MEASURE_MS` instead).
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmarks `f`, passing it `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::default();
        f(&mut b, input);
        self.report(&id.label, &b);
        self
    }

    /// Benchmarks `f` under the given name.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::default();
        f(&mut b);
        self.report(name, &b);
        self
    }

    /// Ends the group (prints nothing extra; present for API parity).
    pub fn finish(self) {}

    /// Mean ns/iter of the most recent benchmark in this group (not in the
    /// real criterion API; lets a bench print ratios between its members).
    pub fn last_ns_per_iter(&self) -> Option<f64> {
        self.last_ns_per_iter
    }

    fn report(&mut self, label: &str, b: &Bencher) {
        let Some((total, iters)) = b.measurement else {
            self.last_ns_per_iter = None;
            println!("{}/{label}: no measurement recorded", self.name);
            return;
        };
        let ns = total.as_nanos() as f64 / iters as f64;
        self.last_ns_per_iter = Some(ns);
        record_json(&format!("{}/{label}", self.name), ns);
        let mut line = format!(
            "{}/{label}: {:>12.1} ns/iter ({iters} iters)",
            self.name, ns
        );
        match self.throughput {
            Some(Throughput::Elements(e)) => {
                let per_sec = e as f64 * iters as f64 / total.as_secs_f64();
                line.push_str(&format!("  [{:.3} Melem/s]", per_sec / 1e6));
            }
            Some(Throughput::Bytes(by)) => {
                let per_sec = by as f64 * iters as f64 / total.as_secs_f64();
                line.push_str(&format!("  [{:.3} MiB/s]", per_sec / (1024.0 * 1024.0)));
            }
            None => {}
        }
        println!("{line}");
    }
}

/// Appends one `{"bench": .., "ns_per_iter": ..}` JSON line to the file
/// named by `KSAN_BENCH_JSON` (no-op when unset). The `bench_check`
/// binary in `kst-bench` consumes these lines to maintain the committed
/// baseline snapshot under `results/baselines/` and flag regressions.
fn record_json(name: &str, ns_per_iter: f64) {
    let Some(path) = std::env::var_os("KSAN_BENCH_JSON") else {
        return;
    };
    let escaped: String = name
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect();
    let line = format!("{{\"bench\":\"{escaped}\",\"ns_per_iter\":{ns_per_iter:.1}}}\n");
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    if let Err(e) = result {
        eprintln!("KSAN_BENCH_JSON: cannot append to {path:?}: {e}");
    }
}

/// Times closures (`criterion::Bencher` subset).
#[derive(Default)]
pub struct Bencher {
    measurement: Option<(Duration, u64)>,
}

impl Bencher {
    /// Times `routine` in a warmup + fixed-budget measurement loop.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warmup: at least 3 iterations, at most 10% of the budget.
        let budget = measure_budget();
        let warm_deadline = Instant::now() + budget / 10;
        let mut warm_iters = 0u64;
        while warm_iters < 3 || Instant::now() < warm_deadline {
            black_box(routine());
            warm_iters += 1;
        }
        let start = Instant::now();
        let mut iters = 0u64;
        loop {
            black_box(routine());
            iters += 1;
            if start.elapsed() >= budget {
                break;
            }
        }
        self.measurement = Some((start.elapsed(), iters));
    }

    /// Times `routine` over fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let budget = measure_budget();
        for _ in 0..3 {
            let input = setup();
            black_box(routine(input));
        }
        let mut measured = Duration::ZERO;
        let mut iters = 0u64;
        while measured < budget {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            measured += start.elapsed();
            iters += 1;
        }
        self.measurement = Some((measured, iters));
    }
}

/// Declares a function running the listed benchmark targets.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
