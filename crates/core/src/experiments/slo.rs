//! SLO-aware serving experiment (beyond the paper): the
//! reschedule-window sweep behind the `slo` bench bin.
//!
//! The [`super::online`] sweep serves an open stream with the legacy
//! per-event policy: every arrival admission and completion triggers a
//! full reschedule, and nothing is ever refused. This experiment turns
//! on the two [`ServicePolicy`] knobs and asks the serving questions
//! that policy cannot answer:
//!
//! * **Windowed rescheduling** — at high churn with a realistic
//!   migration penalty, how much completed-job throughput does
//!   batching membership changes into periodic windows buy back from
//!   migration stalls, and where does the window get so coarse that
//!   placement quality decays?
//! * **Deadline admission** — does shedding jobs whose deadline is
//!   already unreachable actually protect tail latency, compared with
//!   the accept-everything baseline whose queue grows without bound
//!   under overload?
//!
//! Every arm of a trial replays the identical die and arrival stream
//! (salted arms), so the curves isolate the service policy.

use super::online::{serving_budget, MEAN_JOB_INSTRUCTIONS};
use super::{Scale, Series, ServingSite};
use crate::engine::{mean_metric, OnlineArm, SeedPlan, TrialRunner, TrialSpec};
use crate::manager::ManagerSpec;
use crate::online::{ArrivalConfig, OnlineConfig, ServicePolicy};
use crate::runtime::RuntimeConfig;
use crate::sched::SchedulerSpec;
use cmpsim::Mix;

/// Reschedule windows swept (ms). `0` is per-event rescheduling — the
/// legacy behavior, kept as the leftmost point so the sweep reads as
/// "what does batching buy".
pub const WINDOWS_MS: [f64; 4] = [0.0, 10.0, 25.0, 50.0];

/// Offered load (jobs/s): roughly 3× the 40 W chip's serving capacity,
/// so admission control must shed and the run queue would otherwise
/// grow for the whole horizon.
pub const SLO_ARRIVAL_RATE_PER_S: f64 = 240.0;

/// Deadline slack: a job's deadline is `arrival + slack × ideal
/// service time`. 2× sheds any job that queued longer than one ideal
/// service time — tight enough that a 3×-overloaded queue sheds
/// steadily instead of aging jobs for the whole horizon, loose enough
/// that budget-throttled service alone does not disqualify a job.
pub const SLO_DEADLINE_SLACK: f64 = 2.0;

/// Migration penalty (ms): high churn only punishes per-event
/// rescheduling if moving a thread costs something. 3 ms is ~a third
/// of a DVFS interval — an OS-scale context-migration cost, far above
/// the online sweep's optimistic 0.1 ms.
pub const SLO_MIGRATION_PENALTY_MS: f64 = 3.0;

/// Results of the window sweep. Each metric holds two series over the
/// same x axis ([`WINDOWS_MS`]): the SLO arms (deadline admission on,
/// window = x), and the accept-everything per-event baseline repeated
/// as a flat reference line.
#[derive(Debug, Clone)]
pub struct SloSweep {
    /// Completed-job throughput (jobs/s).
    pub completed_jobs_per_s: Vec<Series>,
    /// p99 arrival-to-completion latency over completed jobs (ms; NaN
    /// when nothing completed).
    pub p99_latency_ms: Vec<Series>,
    /// Jobs shed by admission control, per second of horizon (the
    /// baseline line is identically zero).
    pub shed_jobs_per_s: Vec<Series>,
    /// Thread migrations per trial.
    pub migrations: Vec<Series>,
}

/// The serving configuration one arm runs: the online sweep's timeline
/// with the heavier [`SLO_MIGRATION_PENALTY_MS`] and the given policy.
pub fn slo_config(scale: &Scale, service: ServicePolicy) -> OnlineConfig {
    OnlineConfig {
        runtime: RuntimeConfig {
            duration_ms: scale.duration_ms,
            os_interval_ms: scale.duration_ms.min(100.0),
            ..RuntimeConfig::paper_default()
        },
        arrivals: ArrivalConfig::poisson(SLO_ARRIVAL_RATE_PER_S, MEAN_JOB_INSTRUCTIONS),
        initial_jobs: 20,
        migration_penalty_ms: SLO_MIGRATION_PENALTY_MS,
        service,
    }
}

/// Sweeps the reschedule window under deadline admission (LinOpt +
/// `VarF&AppIPC`, 40 W budget, 3× overload) against the
/// accept-everything per-event baseline.
///
/// Arm 0 is the baseline ([`ServicePolicy::default`]); arms 1..N are
/// the SLO arms, one per [`WINDOWS_MS`] entry. All arms of a trial
/// share the die and arrival stream.
pub fn window_sweep(scale: &Scale, seed: u64) -> SloSweep {
    let site = ServingSite::at_grid(scale.grid);
    let budget = serving_budget();
    let runner = TrialRunner::new();

    let mut arms = vec![OnlineArm {
        label: "no SLO (per-event)".to_string(),
        policy: SchedulerSpec::VarFAppIpc,
        manager: ManagerSpec::LinOpt,
        budget,
        config: slo_config(scale, ServicePolicy::default()),
        rng_salt: Some(0x510),
    }];
    for &window_ms in &WINDOWS_MS {
        arms.push(OnlineArm {
            label: format!("SLO window {window_ms} ms"),
            policy: SchedulerSpec::VarFAppIpc,
            manager: ManagerSpec::LinOpt,
            budget,
            config: slo_config(
                scale,
                ServicePolicy {
                    reschedule_window_ms: window_ms,
                    deadline_slack: SLO_DEADLINE_SLACK,
                },
            ),
            rng_salt: Some(0x510),
        });
    }

    let spec = TrialSpec::builder(site.ctx(), site.pool())
        .mix(Mix::Balanced)
        .trials(scale.trials)
        .seed(seed)
        .plan(SeedPlan {
            mul: 1_000_003,
            offset: 95_000,
            stride: 1,
        })
        .arms(arms)
        .build()
        .expect("SLO sweep spec is valid");
    let results = runner.run(&spec);

    let horizon_s = scale.duration_ms / 1e3;
    let completed = mean_metric(&results, |o| o.jobs_per_s());
    let p99 = mean_metric(&results, |o| o.latency.map_or(f64::NAN, |l| l.p99_ms));
    let shed = mean_metric(&results, |o| o.shed as f64 / horizon_s);
    let migrations = mean_metric(&results, |o| o.migrations as f64);

    // Arm 0 is the baseline; repeat it across the x axis as a flat
    // reference line next to the per-window SLO series.
    let pair = |means: &[f64]| -> Vec<Series> {
        vec![
            Series::new("SLO", WINDOWS_MS.to_vec(), means[1..].to_vec()),
            Series::new(
                "no SLO (per-event)",
                WINDOWS_MS.to_vec(),
                vec![means[0]; WINDOWS_MS.len()],
            ),
        ]
    };

    SloSweep {
        completed_jobs_per_s: pair(&completed),
        p99_latency_ms: pair(&p99),
        shed_jobs_per_s: pair(&shed),
        migrations: pair(&migrations),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_rescheduling_beats_per_event_and_admission_protects_p99() {
        // The acceptance sweep: at 3× overload with a 3 ms migration
        // penalty, batching membership changes into windows must
        // complete more jobs than per-event rescheduling, and deadline
        // admission must keep the completed-job tail below the
        // accept-everything baseline's. The horizon must be long
        // enough for the baseline's unbounded queue to age visibly —
        // completed-job latency is clamped by the horizon on both
        // sides, so short runs hide the gap.
        let scale = Scale {
            trials: 3,
            duration_ms: 1200.0,
            ..Scale::smoke()
        };
        let sweep = window_sweep(&scale, 17);
        for metric in [
            &sweep.completed_jobs_per_s,
            &sweep.p99_latency_ms,
            &sweep.shed_jobs_per_s,
            &sweep.migrations,
        ] {
            assert_eq!(metric.len(), 2);
            for s in metric.iter() {
                assert_eq!(s.x, WINDOWS_MS.to_vec());
            }
        }
        let slo = &sweep.completed_jobs_per_s[0];
        let windowed_best = slo.y[1..].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            windowed_best > slo.y[0],
            "some window must beat per-event rescheduling: {:?}",
            slo.y
        );

        // Admission control is active and visible.
        let shed = &sweep.shed_jobs_per_s[0];
        assert!(shed.y.iter().all(|&s| s > 0.0), "overload must shed");
        assert!(sweep.shed_jobs_per_s[1].y.iter().all(|&s| s == 0.0));

        // Tail protection: every SLO arm's p99 sits below the
        // accept-everything baseline, whose queue grows all horizon.
        let p99_slo = &sweep.p99_latency_ms[0];
        let p99_base = sweep.p99_latency_ms[1].y[0];
        for (w, &p) in WINDOWS_MS.iter().zip(&p99_slo.y) {
            assert!(
                p < p99_base,
                "window {w} ms p99 {p} must undercut the no-SLO baseline {p99_base}"
            );
        }

        // Batching exists to cut migrations; the coarsest window must
        // migrate less than per-event under the same churn.
        let mig = &sweep.migrations[0];
        assert!(
            mig.y.last().unwrap() < &mig.y[0],
            "coarse windows must migrate less: {:?}",
            mig.y
        );
    }
}
