//! Per-layer host-time attribution from the benchmark's own files.
//!
//! [`SpanObserver`] hangs off the engine's `TrialObserver` hooks. Each
//! hook closes the span the previous hook opened, so every instant of
//! an arm's run lands in exactly one layer:
//!
//! * `on_schedule` closes the `sched` span (thread profiling plus
//!   assignment, and in the online loop event draining and admission);
//! * `on_manager_run` closes the `manager` span (`PmView` build plus
//!   solve);
//! * `on_step` closes the `cmpsim.tick` span (`Machine::step` plus the
//!   loop's per-tick bookkeeping).
//!
//! The clock starts when the runner's `make` closure builds the
//! observer, so an arm's set-up falls into its first span. What the
//! engine does between arms — manufacturing the next trial's die and
//! machine, drawing its workload — is recovered per worker thread by
//! [`time_between_arms`].

use std::collections::HashMap;
use std::thread::ThreadId;
use std::time::Instant;
use vasched::manager::{SolveReport, SolveStatus, WarmStart};
use vasched::runtime::TrialObserver;

/// Host time per layer, summed over the arms one observer (or a merge
/// of observers) saw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerSpans {
    /// Summed `cmpsim.tick` spans (seconds).
    pub tick_s: f64,
    /// Ticks observed.
    pub ticks: u64,
    /// One `sched` span per reschedule (microseconds).
    pub sched_us: Vec<f64>,
    /// One `manager` span per manager invocation (microseconds).
    pub manager_us: Vec<f64>,
    /// Host time between consecutive manager invocations of one arm —
    /// one DVFS interval (microseconds).
    pub interval_us: Vec<f64>,
    /// Solve reports seen.
    pub solves: u64,
    /// Reports whose status was a fallback.
    pub fallbacks: u64,
    /// Reports from a warm-startable (LP) solver.
    pub lp_solves: u64,
    /// Simplex pivots over those LP solves.
    pub pivots: u64,
    /// LP solves seeded by a cached basis.
    pub warm_hits: u64,
}

impl LayerSpans {
    /// Folds another observer's spans in.
    pub fn merge(&mut self, other: &LayerSpans) {
        self.tick_s += other.tick_s;
        self.ticks += other.ticks;
        self.sched_us.extend_from_slice(&other.sched_us);
        self.manager_us.extend_from_slice(&other.manager_us);
        self.interval_us.extend_from_slice(&other.interval_us);
        self.solves += other.solves;
        self.fallbacks += other.fallbacks;
        self.lp_solves += other.lp_solves;
        self.pivots += other.pivots;
        self.warm_hits += other.warm_hits;
    }

    /// Summed host time of every span (seconds).
    pub fn total_s(&self) -> f64 {
        self.tick_s
            + (self.sched_us.iter().sum::<f64>() + self.manager_us.iter().sum::<f64>()) / 1e6
    }
}

/// The tracing observer; see the module docs for the span rules.
#[derive(Debug, Clone)]
pub struct SpanObserver {
    thread: ThreadId,
    created: Instant,
    last: Instant,
    last_manager: Option<Instant>,
    spans: LayerSpans,
}

impl Default for SpanObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanObserver {
    /// Starts the clock.
    pub fn new() -> Self {
        let now = Instant::now();
        Self {
            thread: std::thread::current().id(),
            created: now,
            last: now,
            last_manager: None,
            spans: LayerSpans::default(),
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &LayerSpans {
        &self.spans
    }

    /// Closes the open span and returns its length in microseconds.
    fn close(&mut self, now: Instant) -> f64 {
        let us = now.duration_since(self.last).as_secs_f64() * 1e6;
        self.last = now;
        us
    }
}

impl TrialObserver for SpanObserver {
    fn on_schedule(&mut self, _tick: usize, _mapping: &[Option<usize>]) {
        let us = self.close(Instant::now());
        self.spans.sched_us.push(us);
    }

    fn on_manager_run(&mut self, _tick: usize, _levels: &[usize]) {
        let now = Instant::now();
        let us = self.close(now);
        self.spans.manager_us.push(us);
        if let Some(prev) = self.last_manager {
            self.spans
                .interval_us
                .push(now.duration_since(prev).as_secs_f64() * 1e6);
        }
        self.last_manager = Some(now);
    }

    fn on_solve(&mut self, _tick: usize, report: &SolveReport) {
        let s = &mut self.spans;
        s.solves += 1;
        if matches!(report.status, SolveStatus::Fallback(_)) {
            s.fallbacks += 1;
        }
        if report.warm != WarmStart::NotApplicable {
            s.lp_solves += 1;
            s.pivots += report.pivots as u64;
            if report.warm == WarmStart::Hit {
                s.warm_hits += 1;
            }
        }
    }

    fn on_step(&mut self, _machine: &cmpsim::Machine, _stats: &cmpsim::StepStats) {
        let us = self.close(Instant::now());
        self.spans.tick_s += us / 1e6;
        self.spans.ticks += 1;
    }
}

/// Host time (seconds, summed over worker threads) the engine spent
/// outside every observed arm since `start`: on each thread, the time
/// before its first arm and between one arm's last hook and the next
/// arm's start. In a batch or serving round that is die and machine
/// construction plus the workload draw.
pub fn time_between_arms<'a>(
    start: Instant,
    observers: impl IntoIterator<Item = &'a SpanObserver>,
) -> f64 {
    let mut by_thread: HashMap<ThreadId, Vec<(Instant, Instant)>> = HashMap::new();
    for o in observers {
        by_thread
            .entry(o.thread)
            .or_default()
            .push((o.created, o.last));
    }
    let mut gap_s = 0.0;
    for arms in by_thread.values_mut() {
        arms.sort_by_key(|&(created, _)| created);
        let mut prev_end = start;
        for &(created, last) in arms.iter() {
            gap_s += created.saturating_duration_since(prev_end).as_secs_f64();
            prev_end = last;
        }
    }
    gap_s
}
