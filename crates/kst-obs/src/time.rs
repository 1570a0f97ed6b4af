//! The workspace's one audited wall-clock surface.
//!
//! The determinism contract (enforced by `kst-analyze`) bans `Instant`
//! reads from cost-feeding code: wall clocks are the nondeterminism
//! vector that would break the engine's threaded ≡ sequential
//! bit-identity. Throughput and pause *measurements* still need a
//! clock, so every probe in the workspace (the engine replay timers,
//! the `run_all` section timers, the engine's
//! rebuild-pause histograms) routes through this module — one place to
//! audit, each read carrying its justified `ksan-allow`. Durations
//! produced here must never feed `ServeCost` or `Metrics`; they go to
//! wall-clock-only surfaces (throughput lines, pause histograms, trace
//! timestamps) that are excluded from the determinism guarantees.

use std::time::Duration;

/// A started wall clock. `Copy`, so one run-level origin can be handed
/// to every worker thread and all timestamps share a time base.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    // ksan-allow: determinism audited wall-clock surface; durations never feed ServeCost or Metrics
    start: std::time::Instant,
}

impl Default for Stopwatch {
    fn default() -> Stopwatch {
        Stopwatch::start()
    }
}

impl Stopwatch {
    /// Starts a stopwatch now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            // ksan-allow: determinism audited wall-clock surface; durations never feed ServeCost or Metrics
            start: std::time::Instant::now(),
        }
    }

    /// Time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Time since [`Stopwatch::start`] in whole microseconds, saturating
    /// at `u64::MAX` (584 thousand years).
    pub fn elapsed_us(&self) -> u64 {
        let us = self.start.elapsed().as_micros();
        if us > u64::MAX as u128 {
            u64::MAX
        } else {
            us as u64
        }
    }
}

/// Runs `f`, returning its result together with wall-clock elapsed time
/// — the closure-shaped probe behind the engine replay timers and the
/// bench section timers.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_and_timed_measure_something() {
        let sw = Stopwatch::start();
        let (x, d) = timed(|| {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(x, 42);
        assert!(d >= Duration::from_millis(2));
        assert!(sw.elapsed() >= d);
        assert!(sw.elapsed_us() >= 2000);
    }
}
