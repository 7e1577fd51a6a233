//! Online serving: dynamic job arrivals, migration-aware rescheduling,
//! and load-adaptive power management.
//!
//! The paper frames scheduling + LinOpt as an *online* OS loop that
//! re-runs whenever "applications enter or leave the system" (§4), but
//! its evaluation holds the thread set fixed for the whole trial. This
//! module is that loop, open: a deterministic discrete-event simulation
//! in which jobs arrive over time (a seeded Poisson process over the
//! calibrated application pool), queue when the chip is full, run to a
//! per-job instruction budget, and leave — re-triggering the
//! variation-aware scheduler and the power manager on every membership
//! change and charging a migration penalty for each moved thread. The
//! batch [`crate::runtime::run_trial`] is the same loop, closed: a
//! fixed resident set, no arrivals, free migrations.
//!
//! ```text
//!   arrivals (Poisson, seeded) ──► run queue ──► admission
//!                                                  │ membership change
//!   EventQueue ── Arrival/Completion/OsTick/DvfsTick
//!        │                                         ▼
//!        └──► per-tick loop ──► Scheduler::assign + migration penalty
//!                          └──► HardenedManager::invoke (budget tracking)
//!                          └──► Machine::step ──► completion detection
//! ```
//!
//! # Determinism contract
//!
//! Every stochastic input derives from the caller's [`vastats::SimRng`]:
//! the initial resident workload continues the caller's stream exactly
//! as the batch engine does, and — only when the arrival rate is
//! non-zero — the whole arrival schedule (times, applications, budgets,
//! phase offsets) is pre-drawn from a single fork of that stream before
//! the loop starts. Consequently:
//!
//! * the same seed yields a byte-identical event trace and metrics
//!   regardless of worker count or host (`tests/online.rs`);
//! * a **zero-arrival** configuration with a zero migration penalty
//!   consumes the RNG in exactly the batch pattern (draw the workload,
//!   then spawn its threads) and reproduces the
//!   [`crate::runtime::run_trial`] outcome bit for bit
//!   (`tests/property.rs`).
//!
//! # Migration model
//!
//! When a reschedule moves a resident thread to a different core, the
//! destination core is charged [`OnlineConfig::migration_penalty_ms`]
//! of stall (state re-warm: registers, L1/L2 footprint), during which
//! it burns power but retires nothing — the same mechanism as the
//! machine's DVFS-transition stalls. The batch engine's epoch remaps
//! are free, so the zero-arrival equivalence above sets the penalty to
//! zero; online configurations default to 0.1 ms per move.

mod arrivals;
mod metrics;
mod queue;
mod sim;
mod snapshot;

pub(crate) use arrivals::arrivals;
pub use arrivals::{generate_arrivals, ArrivalConfig, JobSpec};
pub use metrics::{percentile, LatencyStats};
pub use queue::{Event, EventKind, EventQueue};
pub use sim::{run_online, EventRecord, JobRecord, OnlineEvent, OnlineOutcome, OnlineSim};
pub use snapshot::{SimCounters, Snapshot, SnapshotError, SnapshotGuard, SNAPSHOT_SCHEMA};

use crate::runtime::{ConfigError, RuntimeConfig};
use cmpsim::{AppSpec, Mix, Workload};
use vastats::SimRng;

/// Parameters of one online serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Timeline: tick, DVFS interval, OS interval, and the serving
    /// horizon (`duration_ms`).
    pub runtime: RuntimeConfig,
    /// The arrival process (rate 0 disables arrivals entirely).
    pub arrivals: ArrivalConfig,
    /// Jobs resident at t = 0, drawn from the pool like a batch
    /// workload by [`OnlineConfig::draw_residents`] (0 starts the
    /// system empty).
    pub initial_jobs: usize,
    /// Stall charged to the destination core for every thread a
    /// reschedule moves (milliseconds). Zero recovers the batch
    /// engine's free-migration assumption.
    pub migration_penalty_ms: f64,
    /// SLO-aware serving knobs (windowed rescheduling and deadline
    /// admission control). [`ServicePolicy::default`] disables both and
    /// keeps the historical per-event path bit for bit.
    pub service: ServicePolicy,
}

/// SLO-aware serving knobs layered on the online loop.
///
/// Both knobs are RNG-neutral: enabling or disabling them never changes
/// which random numbers the simulation draws, only how it reacts to
/// membership churn — so A/B sweeps over policies stay on the common
/// random numbers the experiment harness depends on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServicePolicy {
    /// Reschedule batching window (milliseconds). `0` keeps the
    /// historical per-event behaviour: a full scheduler pass on every
    /// arrival and completion. A positive window defers
    /// membership-triggered reschedules to window boundaries — newly
    /// admitted threads get a cheap deterministic placement (fastest
    /// free live core) in the meantime — trading placement quality for
    /// far fewer migrations under churn.
    pub reschedule_window_ms: f64,
    /// Deadline slack factor: a job's deadline is its arrival time plus
    /// `deadline_slack ×` its ideal (contention-free) service time.
    /// `∞` disables deadlines entirely. Finite slack switches admission
    /// from FIFO to earliest-deadline-first and sheds queued jobs whose
    /// deadline can no longer be met, protecting the latency tail of
    /// the jobs that stay.
    pub deadline_slack: f64,
}

impl Default for ServicePolicy {
    /// The legacy policy: per-event rescheduling, no deadlines.
    fn default() -> Self {
        Self {
            reschedule_window_ms: 0.0,
            deadline_slack: f64::INFINITY,
        }
    }
}

impl ServicePolicy {
    /// Windowed rescheduling with no deadlines.
    pub fn windowed(reschedule_window_ms: f64) -> Self {
        Self {
            reschedule_window_ms,
            ..Self::default()
        }
    }

    /// True when either SLO mechanism is active.
    pub fn is_active(&self) -> bool {
        self.reschedule_window_ms > 0.0 || self.deadline_slack.is_finite()
    }

    /// Validates the window and the slack factor.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let window_ok = self.reschedule_window_ms >= 0.0 && !self.reschedule_window_ms.is_nan();
        let slack_ok = self.deadline_slack > 0.0 && !self.deadline_slack.is_nan();
        if !window_ok || !slack_ok {
            return Err(ConfigError::BadServicePolicy);
        }
        Ok(())
    }
}

impl OnlineConfig {
    /// Paper-style timeline with a 0.1 ms migration penalty and no
    /// arrivals: the closed-system baseline callers specialize.
    pub fn paper_default() -> Self {
        Self {
            runtime: RuntimeConfig::paper_default(),
            arrivals: ArrivalConfig::closed(),
            initial_jobs: 0,
            migration_penalty_ms: 0.1,
            service: ServicePolicy::default(),
        }
    }

    /// Draws the [`OnlineConfig::initial_jobs`] residents from `pool`
    /// under `mix`, exactly as the batch engine draws a workload (`None`
    /// and no RNG draw when the system starts empty).
    ///
    /// # Panics
    ///
    /// Panics if residents are configured and the mix admits no
    /// application from the pool.
    pub fn draw_residents(&self, pool: &[AppSpec], mix: Mix, rng: &mut SimRng) -> Option<Workload> {
        (self.initial_jobs > 0).then(|| Workload::draw_mix(pool, self.initial_jobs, mix, rng))
    }

    /// Validates the timeline, the arrival process, and the migration
    /// penalty.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.runtime.validate()?;
        self.arrivals.validate()?;
        if self.migration_penalty_ms < 0.0 || self.migration_penalty_ms.is_nan() {
            return Err(ConfigError::NegativeMigrationPenalty);
        }
        self.service.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert_eq!(OnlineConfig::paper_default().validate(), Ok(()));
    }

    #[test]
    fn negative_penalty_rejected() {
        let cfg = OnlineConfig {
            migration_penalty_ms: -1.0,
            ..OnlineConfig::paper_default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::NegativeMigrationPenalty));
    }
}
