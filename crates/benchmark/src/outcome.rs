//! What a round produced: its simulated outputs by name, one digest
//! over every simulated value, and the per-round correctness checks
//! (finite outcomes, job conservation).

use crate::stats::{checked_percentile, samples_beyond, sorted, Digest, TAIL_MIN_BEYOND};
use vasched::engine::{OnlineTrialResult, TrialResult};
use vasched::fleet::TierReport;
use vasched::obs::parse_json;
use vasched::online::{LatencyStats, OnlineEvent, OnlineOutcome};
use vasched::runtime::TrialOutcome;

/// Simulated outputs of a round by name (see the README for each).
pub type Values = Vec<(&'static str, f64)>;

/// Looks a value up by name (0 when the workload does not produce it).
pub fn value(values: &Values, name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// One round's simulated outputs and host cost.
#[derive(Debug, Clone)]
pub struct Round {
    /// Digest of every simulated output.
    pub digest: u64,
    /// Host wall time of the round (seconds).
    pub wall_s: f64,
    /// Summed host time of the engine's arm-runs (seconds; 0 for the
    /// fleet, which runs no arms).
    pub busy_s: f64,
    /// Simulated outputs.
    pub values: Values,
    /// Failed per-round checks (empty when correct).
    pub problems: Vec<String>,
}

fn digest_trial(d: &mut Digest, o: &TrialOutcome) {
    for v in [
        o.mips,
        o.weighted_mips,
        o.avg_power_w,
        o.ed2,
        o.weighted_ed2,
        o.avg_freq_hz,
        o.power_deviation_frac,
    ] {
        d.f64(v);
    }
    d.count(o.manager_runs);
    for &m in &o.per_thread_mips {
        d.f64(m);
    }
}

fn trial_is_finite(o: &TrialOutcome) -> bool {
    [
        o.mips,
        o.weighted_mips,
        o.avg_power_w,
        o.ed2,
        o.weighted_ed2,
        o.avg_freq_hz,
        o.power_deviation_frac,
    ]
    .iter()
    .chain(&o.per_thread_mips)
    .all(|v| v.is_finite())
}

pub(crate) fn dvfs_round(
    results: &[Vec<TrialResult>],
    base: usize,
    managed: usize,
    wall_s: f64,
) -> Round {
    let mut d = Digest::default();
    let mut problems = Vec::new();
    let (mut mips_ratio, mut ed2_ratio, mut dev, mut busy_s) = (0.0, 0.0, 0.0, 0.0);
    let mut n = 0usize;
    for trial in results.iter().flatten() {
        d.word(trial.trial_seed);
        for arm in &trial.arms {
            digest_trial(&mut d, &arm.outcome);
            busy_s += arm.wall_s;
            if !trial_is_finite(&arm.outcome) {
                problems.push(format!(
                    "finite: trial seed {} has a non-finite outcome",
                    trial.trial_seed
                ));
            }
        }
        let (b, m) = (&trial.arms[base].outcome, &trial.arms[managed].outcome);
        mips_ratio += m.mips / b.mips;
        ed2_ratio += m.ed2 / b.ed2;
        dev += m.power_deviation_frac;
        n += 1;
    }
    let n = n.max(1) as f64;
    Round {
        digest: d.value(),
        wall_s,
        busy_s,
        values: vec![
            ("throughput_ratio", mips_ratio / n),
            ("power.budget_err_pct", 100.0 * dev / n),
            ("ed2_ratio", ed2_ratio / n),
        ],
        problems,
    }
}

fn digest_online(d: &mut Digest, o: &OnlineOutcome) {
    digest_trial(d, &o.chip);
    for n in [o.arrived, o.completed, o.shed, o.migrations, o.queue_peak] {
        d.count(n);
    }
    d.f64(o.utilization);
    let opt = |v: Option<f64>| v.unwrap_or(f64::NAN);
    for j in &o.jobs {
        d.count(j.job);
        d.f64(j.arrival_ms);
        d.f64(opt(j.admit_ms));
        d.f64(opt(j.completion_ms));
        d.f64(j.instructions);
        d.count(j.migrations);
    }
    d.count(o.events.len());
}

/// Job conservation for one online trial: every job that entered
/// (initial residents included in `arrived`) completed, was shed, or
/// is still in flight — resident per the job records, or queued per
/// the event trace.
fn online_conservation(o: &OnlineOutcome, initial: usize) -> Result<(), String> {
    let n = o.jobs.len();
    let (mut arrived, mut shed) = (vec![false; n], vec![false; n]);
    let mut arrival_events = 0usize;
    for e in &o.events {
        match e.event {
            OnlineEvent::Arrival { job } => {
                arrived[job] = true;
                arrival_events += 1;
            }
            OnlineEvent::Shed { job } => shed[job] = true,
            _ => {}
        }
    }
    let resident = o
        .jobs
        .iter()
        .filter(|j| j.admit_ms.is_some() && j.completion_ms.is_none())
        .count();
    let queued = (0..n)
        .filter(|&j| arrived[j] && o.jobs[j].admit_ms.is_none() && !shed[j])
        .count();
    let in_flight = resident + queued;
    if arrival_events + initial != o.arrived || o.arrived != o.completed + o.shed + in_flight {
        return Err(format!(
            "online conservation: {} arrivals + {initial} initial, counter {}, \
             {} completed + {} shed + {in_flight} in flight",
            arrival_events, o.arrived, o.completed, o.shed
        ));
    }
    Ok(())
}

pub(crate) fn online_round(results: &[OnlineTrialResult], initial: usize, wall_s: f64) -> Round {
    let mut d = Digest::default();
    let mut problems = Vec::new();
    let (mut arrived, mut completed, mut shed, mut migrations, mut reschedules) = (0, 0, 0, 0, 0);
    let (mut dev, mut jobs_per_s, mut busy_s) = (0.0, 0.0, 0.0);
    let mut latencies = Vec::new();
    for trial in results {
        d.word(trial.trial_seed);
        for arm in &trial.arms {
            let o = &arm.outcome;
            digest_online(&mut d, o);
            busy_s += arm.wall_s;
            if let Err(e) = online_conservation(o, initial) {
                problems.push(format!("{e} (trial seed {})", trial.trial_seed));
            }
            if !trial_is_finite(&o.chip) || !o.utilization.is_finite() {
                problems.push(format!(
                    "finite: trial seed {} has a non-finite outcome",
                    trial.trial_seed
                ));
            }
            arrived += o.arrived;
            completed += o.completed;
            shed += o.shed;
            migrations += o.migrations;
            reschedules += o
                .events
                .iter()
                .filter(|e| matches!(e.event, OnlineEvent::Reschedule { .. }))
                .count();
            dev += o.chip.power_deviation_frac;
            jobs_per_s += o.jobs_per_s();
            latencies.extend(o.jobs.iter().filter_map(|j| j.latency_ms()));
        }
    }
    let trials = results.len().max(1) as f64;
    let latencies = sorted(latencies);
    let mut values = vec![
        ("throughput_ratio", completed as f64 / arrived.max(1) as f64),
        ("power.budget_err_pct", 100.0 * dev / trials),
        ("serve.jobs_per_s", jobs_per_s / trials),
    ];
    values.extend(latency_values(&latencies));
    values.extend([
        ("serve.shed_frac", shed as f64 / arrived.max(1) as f64),
        ("serve.arrived", arrived as f64),
        ("serve.completed", completed as f64),
        ("serve.shed", shed as f64),
        ("online.reschedules", reschedules as f64),
        ("online.migrations", migrations as f64),
    ]);
    Round {
        digest: d.value(),
        wall_s,
        busy_s,
        values,
        problems,
    }
}

/// p50/p99 of an ascending latency sample, each only when ten samples
/// lie beyond it, plus the sample count.
fn latency_values(sorted_ms: &[f64]) -> Values {
    let mut values = vec![("serve.latency_samples", sorted_ms.len() as f64)];
    for (name, pct) in [
        ("serve.latency_ms_p50", 50.0),
        ("serve.latency_ms_p99", 99.0),
    ] {
        if let Some(v) = checked_percentile(sorted_ms, pct) {
            values.push((name, v));
        }
    }
    values
}

/// What both fleet paths (`run_fleet` and the traced epoch loop)
/// produce; the digest covers all of it.
#[derive(Debug, Clone)]
pub(crate) struct FleetTotals {
    pub(crate) arrived: usize,
    pub(crate) completed: usize,
    pub(crate) shed: usize,
    pub(crate) migrations: usize,
    pub(crate) queued: usize,
    pub(crate) resident: usize,
    pub(crate) latency: Option<LatencyStats>,
    pub(crate) duration_ms: f64,
    pub(crate) datacenter: TierReport,
    pub(crate) racks: Vec<TierReport>,
}

/// The `queued` and `resident` counts of the last `vasp.fleet.v1`
/// epoch record.
pub(crate) fn last_epoch_backlog(trace: &str) -> Result<(usize, usize), String> {
    let line = trace.lines().last().ok_or("fleet trace is empty")?;
    let rec = parse_json(line).map_err(|e| format!("fleet trace: {e}"))?;
    let field = |k: &str| {
        rec.get(k)
            .and_then(|v| v.as_f64())
            .map(|v| v as usize)
            .ok_or(format!("fleet trace: last record lacks `{k}`"))
    };
    Ok((field("queued")?, field("resident")?))
}

pub(crate) fn fleet_round(t: &FleetTotals, wall_s: f64) -> Round {
    let mut d = Digest::default();
    let mut problems = Vec::new();
    for n in [
        t.arrived,
        t.completed,
        t.shed,
        t.migrations,
        t.queued,
        t.resident,
    ] {
        d.count(n);
    }
    let tier = |d: &mut Digest, r: &TierReport| {
        d.f64(r.target_w);
        d.f64(r.mean_power_w);
        d.f64(r.tracking_error_w);
    };
    tier(&mut d, &t.datacenter);
    for r in &t.racks {
        tier(&mut d, r);
    }
    if t.arrived != t.completed + t.shed + t.queued + t.resident {
        problems.push(format!(
            "fleet conservation: {} arrived != {} completed + {} shed + {} queued + {} resident",
            t.arrived, t.completed, t.shed, t.queued, t.resident
        ));
    }
    let mut values = vec![
        (
            "throughput_ratio",
            t.completed as f64 / t.arrived.max(1) as f64,
        ),
        (
            "power.budget_err_pct",
            100.0 * t.datacenter.tracking_error_w / t.datacenter.target_w,
        ),
        (
            "serve.jobs_per_s",
            t.completed as f64 / (t.duration_ms / 1e3),
        ),
    ];
    match t.latency {
        Some(l) => {
            for v in [l.mean_ms, l.p50_ms, l.p95_ms, l.p99_ms, l.max_ms] {
                d.f64(v);
            }
            d.count(l.count);
            values.push(("serve.latency_samples", l.count as f64));
            // LatencyStats percentiles are nearest-rank too; keep each
            // only when ten samples lie beyond it.
            for (name, pct, v) in [
                ("serve.latency_ms_p50", 50.0, l.p50_ms),
                ("serve.latency_ms_p99", 99.0, l.p99_ms),
            ] {
                if samples_beyond(l.count, pct) >= TAIL_MIN_BEYOND {
                    values.push((name, v));
                }
            }
        }
        None => problems.push("fleet: no job completed".to_string()),
    }
    values.extend([
        ("serve.shed_frac", t.shed as f64 / t.arrived.max(1) as f64),
        ("serve.arrived", t.arrived as f64),
        ("serve.completed", t.completed as f64),
        ("serve.shed", t.shed as f64),
        ("fleet.migrations", t.migrations as f64),
    ]);
    Round {
        digest: d.value(),
        wall_s,
        busy_s: 0.0,
        values,
        problems,
    }
}
