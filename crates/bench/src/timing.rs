//! Minimal self-contained timing harness for the timed cases of the
//! `kernel`, `fleet` and `tournament` bins.
//!
//! The build environment has no crates.io access, so the bins time
//! their cases with this module instead of criterion: warm up, pick an
//! iteration count that fills the sampling window, and report the
//! per-iteration median over a few samples.
//!
//! Two measurement bugs shaped this module's current form. The batch
//! size used to be derived from the *first* call of the closure — a
//! cold-cache, cold-allocator outlier that could run 10–100× slower
//! than steady state, inflating `iters` far past the sampling window.
//! And per-iteration time was computed as `Duration / iters`, whose
//! integer nanosecond truncation turns a 0.9 ns loop into 0 ns. The
//! harness now discards the first call as pure warm-up, sizes the
//! batch from a second (warm) call, and keeps per-iteration time in
//! `f64` nanoseconds end to end.

use std::time::{Duration, Instant};

/// How long each measurement sample should roughly run.
const SAMPLE_WINDOW: Duration = Duration::from_millis(50);

/// Samples collected per case.
const SAMPLES: usize = 5;

/// One timed case: per-iteration nanoseconds over `samples` batches of
/// `iters` iterations each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Median per-iteration time (nanoseconds, not truncated).
    pub median_ns: f64,
    /// Fastest sample's per-iteration time.
    pub min_ns: f64,
    /// Slowest sample's per-iteration time.
    pub max_ns: f64,
    /// Iterations per sample batch.
    pub iters: u32,
    /// Number of sample batches.
    pub samples: usize,
}

impl Measurement {
    /// The median as a [`Duration`] (rounded to whole nanoseconds).
    pub fn median(&self) -> Duration {
        Duration::from_nanos(self.median_ns.round().max(0.0) as u64)
    }
}

/// Times `f` and returns per-iteration statistics.
///
/// The first call of `f` is discarded outright (cold caches, lazy
/// allocations); the *second* call — now warm — sizes the batch so one
/// sample takes about 50 ms. Each of the `SAMPLES` batches
/// then reports elapsed-nanoseconds ÷ iterations in `f64`, so
/// sub-nanosecond bodies do not truncate to zero. Use
/// [`std::hint::black_box`] inside `f` to keep the optimizer honest.
pub fn measure<F: FnMut()>(mut f: F) -> Measurement {
    // Cold call: warm-up only, never used for sizing.
    f();
    // Warm call: this one sizes the batch.
    let warm = Instant::now();
    f();
    let once = warm.elapsed().max(Duration::from_nanos(1));
    let iters = (SAMPLE_WINDOW.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u32;
    let mut per_iter_ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    per_iter_ns.sort_by(f64::total_cmp);
    Measurement {
        median_ns: per_iter_ns[SAMPLES / 2],
        min_ns: per_iter_ns[0],
        max_ns: per_iter_ns[SAMPLES - 1],
        iters,
        samples: SAMPLES,
    }
}

/// Times `f` and returns the median per-iteration duration.
///
/// Convenience wrapper over [`measure`] for callers that only need a
/// [`Duration`] (whole-nanosecond resolution).
pub fn time<F: FnMut()>(f: F) -> Duration {
    measure(f).median()
}

/// Times `f`, prints `group/name: <per-iter>` in a fixed-width row, and
/// returns the full [`Measurement`].
pub fn report_case<F: FnMut()>(group: &str, name: &str, f: F) -> Measurement {
    let m = measure(f);
    println!(
        "{:<44} {:>14}",
        format!("{group}/{name}"),
        pretty(m.median())
    );
    m
}

/// Formats a duration with a unit suited to its magnitude.
pub fn pretty(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_returns_positive() {
        let d = time(|| {
            // black_box inside the loop so the optimizer cannot collapse
            // the whole body into a closed form (which would measure 0).
            for i in 0..1_000u64 {
                std::hint::black_box(i);
            }
        });
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn batch_is_sized_from_a_warm_call_not_the_cold_first_call() {
        // A closure whose first call is pathologically slow (simulated
        // cold start) but whose steady state is fast. Sizing from the
        // cold call would pick iters ≈ 1; sizing from the warm call
        // must pick a large batch.
        let mut calls = 0u32;
        let m = measure(|| {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(Duration::from_millis(60));
            }
            std::hint::black_box(calls);
        });
        assert!(
            m.iters > 100,
            "iters={} — batch was sized from the cold first call",
            m.iters
        );
    }

    #[test]
    fn per_iteration_time_does_not_truncate_to_zero() {
        // A body far below 1 ns/iter once batched: integer division
        // `Duration / iters` would floor this to exactly zero.
        let m = measure(|| {
            std::hint::black_box(1u64);
        });
        assert!(m.median_ns > 0.0, "sub-ns body truncated to zero");
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
        assert_eq!(m.samples, SAMPLES);
    }

    #[test]
    fn pretty_picks_units() {
        assert!(pretty(Duration::from_nanos(5)).ends_with("ns"));
        assert!(pretty(Duration::from_micros(50)).ends_with("us"));
        assert!(pretty(Duration::from_millis(50)).ends_with("ms"));
        assert!(pretty(Duration::from_secs(50)).ends_with("s"));
    }
}
