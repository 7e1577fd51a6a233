//! The metric catalog: every metric a run reports in its final JSON
//! line, with unit, direction, and (end-to-end only) regression bound.
//! `BENCHMARK.json` at the repository root lists the same metrics; a
//! test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `better` field as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalog entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

const fn gate(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: reported by untraced runs (`--trace 0`) on
/// every workload.
pub const END_TO_END: [MetricDef; 3] = [
    gate("setup_s", "s", Lower, 0.25),
    gate("sim_ms_per_s", "chip-ms/s", Higher, 0.25),
    gate("throughput_ratio", "ratio", Higher, 0.05),
];

/// Per-layer metrics: reported by traced runs (`--trace 1`) on every
/// workload, 0 where the layer does not run.
pub const PER_LAYER: [MetricDef; 41] = [
    layer("varius.make_die_ms", "ms", Lower),
    layer("cmpsim.make_machine_ms", "ms", Lower),
    layer("fleet.build_chips_s", "s", Lower),
    layer("construct.share", "frac", Lower),
    layer("cmpsim.tick_ns", "ns", Lower),
    layer("cmpsim.share", "frac", Lower),
    layer("manager.invoke_us_p50", "us", Lower),
    layer("manager.invoke_us_tail", "us", Lower),
    layer("manager.share", "frac", Lower),
    layer("manager.calls", "count", Lower),
    layer("manager.fallback_frac", "frac", Lower),
    layer("power.budget_err_pct", "%", Lower),
    layer("anneal.eval_ns", "ns", Lower),
    layer("linprog.pivots_per_solve", "count", Lower),
    layer("linprog.warm_hit_frac", "frac", Higher),
    layer("sched.reschedule_us_p50", "us", Lower),
    layer("sched.reschedule_us_tail", "us", Lower),
    layer("sched.share", "frac", Lower),
    layer("sched.calls", "count", Lower),
    layer("profile.thread_profiles_us", "us", Lower),
    layer("interval.us_p50", "us", Lower),
    layer("interval.us_tail", "us", Lower),
    layer("interval.samples", "count", Higher),
    layer("engine.busy_frac", "frac", Higher),
    layer("online.reschedules", "count", Lower),
    layer("online.migrations", "count", Lower),
    layer("serve.jobs_per_s", "1/s", Higher),
    layer("serve.latency_ms_p50", "ms", Lower),
    layer("serve.latency_ms_p99", "ms", Lower),
    layer("serve.latency_samples", "count", Higher),
    layer("serve.shed_frac", "frac", Lower),
    layer("fleet.route_us_per_job", "us", Lower),
    layer("fleet.route_share", "frac", Lower),
    layer("fleet.summary_share", "frac", Lower),
    layer("fleet.epoch_share", "frac", Lower),
    layer("fleet.merge_share", "frac", Lower),
    layer("fleet.budget_us_per_epoch", "us", Lower),
    layer("fleet.chip_tick_ns", "ns", Lower),
    layer("mem.peak_rss_mb", "MB", Lower),
    layer("trace.overhead_frac", "frac", Lower),
    layer("trace.coverage", "frac", Higher),
];

/// True when `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
