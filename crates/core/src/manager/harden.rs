//! Manager-side hardening against degraded telemetry.
//!
//! The paper assumes perfect sensors and a fixed core set; production
//! silicon offers neither. This module is the control plane's
//! degradation ladder, climbed one rung at a time as inputs get worse:
//!
//! 1. **Sanitize** — [`SensorConditioner`] clamps non-finite/negative
//!    readings, restores per-level power monotonicity, and EWMA-smooths
//!    consecutive snapshots so Gaussian sensor noise cannot whipsaw the
//!    optimizer.
//! 2. **Fall back** — when the primary manager's solver still fails
//!    ([`SolverError`], e.g. LinOpt's LP turns infeasible during an
//!    injected budget drop), [`HardenedManager`] swaps in the chip-wide
//!    manager for that interval and logs a
//!    [`DegradationEvent::SolverFallback`].
//! 3. **Reschedule** — core failures are handled above this layer: the
//!    trial runtime observes [`cmpsim::FaultEvent::CoreFailed`] and
//!    immediately re-plans the assignment over the surviving cores (see
//!    `crate::runtime`).
//!
//! The wrapper is a strict superset of the plain path: built with
//! hardening disabled it reads the raw sensors, asks the primary for
//! levels and applies them, with no conditioning and no fallback,
//! which is what keeps zero-fault runs bit-identical to the historical
//! traces.

use crate::manager::{
    chipwide::ChipWide, ControlState, CoreView, ManagerSpec, PmView, PowerBudget, PowerManager,
    SolveReport, SolveStatus, SolverError,
};
use crate::runtime::{ConfigError, RuntimeConfig};
use cmpsim::{FaultEvent, Machine, StateMismatch};
use std::fmt;
use vastats::SimRng;

/// Ceiling for a sanitized IPC reading (well above any calibrated app).
const MAX_IPC: f64 = 16.0;

/// Ceiling for a sanitized per-core power reading (watts); an order of
/// magnitude above the hottest core at maximum voltage.
const MAX_CORE_POWER_W: f64 = 100.0;

/// A logged step down the degradation ladder. The trial runtime feeds
/// these to [`crate::runtime::TrialObserver::on_degradation`] and the
/// online loop records them in its event trace, so experiments can
/// count how often — and why — the control plane degraded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradationEvent {
    /// The primary manager's solver failed; the chip-wide fallback
    /// manager handled this DVFS interval.
    SolverFallback {
        /// Why the solver failed.
        error: SolverError,
    },
    /// A core failed permanently; the runtime rescheduled off it.
    CoreFailed {
        /// The dead core.
        core: usize,
    },
    /// A core's sensors froze at their last reading.
    SensorStuck {
        /// The affected core.
        core: usize,
    },
    /// An injected budget drop opened: the manager now steers toward
    /// the scaled budget.
    BudgetDropBegan {
        /// Budget multiplier now in force.
        factor: f64,
    },
    /// The nominal budget is back.
    BudgetRestored,
    /// More live threads than live cores: the lowest-IPC threads were
    /// parked (left unscheduled) this epoch.
    ThreadsParked {
        /// Number of parked threads.
        parked: usize,
    },
}

impl fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SolverFallback { error } => write!(f, "solver fallback to chip-wide: {error}"),
            Self::CoreFailed { core } => write!(f, "core {core} failed"),
            Self::SensorStuck { core } => write!(f, "core {core} sensors stuck"),
            Self::BudgetDropBegan { factor } => write!(f, "budget dropped to x{factor}"),
            Self::BudgetRestored => f.write_str("budget restored"),
            Self::ThreadsParked { parked } => write!(f, "{parked} threads parked"),
        }
    }
}

impl From<FaultEvent> for DegradationEvent {
    fn from(ev: FaultEvent) -> Self {
        match ev {
            FaultEvent::CoreFailed { core } => Self::CoreFailed { core },
            FaultEvent::SensorStuck { core } => Self::SensorStuck { core },
            FaultEvent::BudgetDropBegan { factor } => Self::BudgetDropBegan { factor },
            FaultEvent::BudgetRestored => Self::BudgetRestored,
        }
    }
}

/// Cumulative counts of the conditioner's interventions — the
/// observability layer's window into how hard the sanitizer is working.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConditionStats {
    /// Readings replaced wholesale (non-finite or negative samples).
    pub clamped: u64,
    /// Readings capped at a sanity ceiling (`MAX_IPC`,
    /// `MAX_CORE_POWER_W`).
    pub saturated: u64,
    /// Monotonicity repairs applied to emitted power curves.
    pub monotone_repairs: u64,
    /// Per-core filter resets caused by a thread migrating onto or off
    /// the core (see [`SensorConditioner::note_assignment`]).
    pub migration_resets: u64,
}

/// The run-time state of a [`SensorConditioner`], which it keeps in
/// this form and a checkpoint stores as it is: the per-core EWMA
/// filters, the resident-thread identity tracking, the uncore filter,
/// and the cumulative intervention counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConditionerState {
    /// Per-core smoothing state as `(ipc, per-level power_w)`: the last
    /// conditioned reading, before the monotonicity repair.
    pub cores: Vec<Option<(f64, Vec<f64>)>>,
    /// Resident thread per core at the last assignment note.
    pub residents: Vec<Option<usize>>,
    /// Smoothed uncore power (watts), if any reading was taken.
    pub uncore_w: Option<f64>,
    /// Cumulative intervention counts.
    pub stats: ConditionStats,
}

/// Checkpointed state of a [`HardenedManager`]: the primary manager's
/// [`ControlState`] plus the conditioner's filter state. The fallback
/// manager (chip-wide stepping) is stateless.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HardenedState {
    /// The primary manager's cross-interval state (`None` when the
    /// front end is unmanaged, i.e. `ManagerSpec::None`).
    pub primary: Option<ControlState>,
    /// The sensor conditioner's filter state.
    pub conditioner: ConditionerState,
}

/// Sanitizes and smooths manager input views.
///
/// Clamping handles the catastrophic lies (NaN, negative watts,
/// power curves bent non-monotone by noise); the EWMA handles the
/// persistent ones, trading a little reaction latency for a lot of
/// noise rejection. State is keyed by core and cleared on every
/// reschedule (the runtime calls [`SensorConditioner::clear`]), so the
/// filter never blends readings of two different threads.
#[derive(Debug, Clone)]
pub struct SensorConditioner {
    alpha: f64,
    /// The filters, resident tracking and counters. Residents are kept
    /// per core so migrations that dodge a full reschedule still reset
    /// a core's filter ([`Self::note_assignment`]).
    state: ConditionerState,
}

impl SensorConditioner {
    /// Default smoothing weight on the *new* reading — a bias/variance
    /// compromise: an EWMA of iid multiplicative noise has
    /// σ_eff ≈ σ·√(α/(2−α)), so lower α rejects more sensor noise, but
    /// the true power curve drifts with thread phases and temperature,
    /// and too much smoothing lags it by more than the noise it
    /// removes.
    pub const DEFAULT_ALPHA: f64 = 0.4;

    /// EWMA weight for the uncore (chip-meter minus core-sum) reading.
    /// The chip meter's multiplicative noise scales with *total* chip
    /// power — at a 40 W budget a 5% σ is ±2 W per invocation fed
    /// straight into the manager's budget equation, the single largest
    /// noise term in the control loop. Unlike the per-core curves, the
    /// uncore truth drifts slowly (L2 activity, not thread phase), so
    /// it tolerates a much heavier filter.
    pub const UNCORE_ALPHA: f64 = 0.1;

    /// A conditioner for a machine with `cores` cores.
    pub fn new(cores: usize) -> Self {
        Self {
            alpha: Self::DEFAULT_ALPHA,
            state: ConditionerState {
                cores: vec![None; cores],
                residents: vec![None; cores],
                uncore_w: None,
                stats: ConditionStats::default(),
            },
        }
    }

    /// Overrides the EWMA weight on the newest reading (`1.0` disables
    /// smoothing, leaving only the clamps).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        self.alpha = alpha;
        self
    }

    /// Drops the per-core smoothing state (call when the
    /// thread-to-core mapping changes, so old threads' readings never
    /// bleed into new ones). The chip-level uncore filter survives:
    /// no reschedule invalidates what the L2 draws.
    pub fn clear(&mut self) {
        self.state.cores.iter_mut().for_each(|s| *s = None);
    }

    /// Reconciles the filter with the current thread-to-core
    /// `assignment`: any core whose resident thread differs from the
    /// one its state was built on — a migration, a parked thread, a
    /// dead core's refugee landing elsewhere — gets its state reset, so
    /// the EWMA can never blend two threads' readings even when no
    /// full reschedule (and hence no [`Self::clear`]) happened.
    pub fn note_assignment(&mut self, assignment: &[Option<usize>]) {
        let st = &mut self.state;
        if st.residents.len() != assignment.len() {
            // Machine shape changed; restart identity tracking.
            st.residents = vec![None; assignment.len()];
            st.cores = vec![None; assignment.len()];
        }
        for ((&now, seen), filter) in assignment.iter().zip(&mut st.residents).zip(&mut st.cores) {
            if *seen != now {
                if filter.take().is_some() {
                    st.stats.migration_resets += 1;
                }
                *seen = now;
            }
        }
    }

    /// Cumulative intervention counts since construction.
    pub fn stats(&self) -> ConditionStats {
        self.state.stats
    }

    /// Captures the filter state for a checkpoint.
    pub fn export_state(&self) -> ConditionerState {
        self.state.clone()
    }

    /// Restores filter state captured by
    /// [`SensorConditioner::export_state`]. The smoothing weight is
    /// configuration and is kept as constructed.
    ///
    /// # Errors
    ///
    /// Returns [`StateMismatch::CoreCount`], before changing anything,
    /// if the state's per-core filters or residents do not cover
    /// exactly this conditioner's cores.
    pub fn import_state(&mut self, state: &ConditionerState) -> Result<(), StateMismatch> {
        let n = self.state.cores.len();
        if state.cores.len() != n || state.residents.len() != n {
            return Err(StateMismatch::CoreCount);
        }
        self.state.clone_from(state);
        Ok(())
    }

    /// Returns the sanitized, smoothed copy of `view`.
    pub fn condition(&mut self, view: &PmView) -> PmView {
        let alpha = self.alpha;
        let st = &mut self.state;
        let mut present = vec![false; st.cores.len()];
        let cores: Vec<CoreView> = view
            .cores()
            .iter()
            .map(|c| {
                present[c.core] = true;
                let prev = st.cores[c.core].take();

                // Clamp, falling back to the previous accepted reading
                // (or zero) when a sample is unusable.
                let prev_ipc = prev.as_ref().map(|&(ipc, _)| ipc);
                let mut ipc = if c.ipc.is_finite() && c.ipc >= 0.0 {
                    if c.ipc > MAX_IPC {
                        st.stats.saturated += 1;
                    }
                    c.ipc.min(MAX_IPC)
                } else {
                    st.stats.clamped += 1;
                    prev_ipc.unwrap_or(0.0)
                };
                let mut power_w: Vec<f64> = c
                    .power_w
                    .iter()
                    .enumerate()
                    .map(|(l, &p)| {
                        if p.is_finite() && p >= 0.0 {
                            if p > MAX_CORE_POWER_W {
                                st.stats.saturated += 1;
                            }
                            p.min(MAX_CORE_POWER_W)
                        } else {
                            st.stats.clamped += 1;
                            prev.as_ref()
                                .and_then(|(_, prev_w)| prev_w.get(l).copied())
                                .unwrap_or(0.0)
                        }
                    })
                    .collect();
                // EWMA against the previous conditioned reading.
                if let Some((prev_ipc, prev_w)) = prev.filter(|(_, w)| w.len() == power_w.len()) {
                    ipc = alpha * ipc + (1.0 - alpha) * prev_ipc;
                    for (l, w) in power_w.iter_mut().enumerate() {
                        *w = alpha * *w + (1.0 - alpha) * prev_w[l];
                    }
                }
                // The smoothing state keeps the un-repaired curve:
                // feeding the cummax output back into the EWMA would
                // ratchet the bias of each repair into the state, where
                // it accumulates instead of averaging out.
                st.cores[c.core] = Some((ipc, power_w.clone()));
                // Power is physically non-decreasing in voltage; noise
                // can bend the curve backwards and break the fit. The
                // repair runs *after* the EWMA, on the emitted copy
                // only: a running max of raw noisy samples is biased
                // upward by the full sensor σ every invocation, and
                // that bias — unlike variance — survives averaging.
                // On the smoothed curve it shrinks with the residual
                // noise instead.
                for l in 1..power_w.len() {
                    if power_w[l] < power_w[l - 1] {
                        st.stats.monotone_repairs += 1;
                        power_w[l] = power_w[l - 1];
                    }
                }
                CoreView {
                    core: c.core,
                    ipc,
                    voltages: c.voltages.clone(),
                    freqs: c.freqs.clone(),
                    power_w,
                }
            })
            .collect();
        // Cores that left the view (idle or dead) lose their state.
        for (filter, seen) in st.cores.iter_mut().zip(&present) {
            if !seen {
                *filter = None;
            }
        }
        let raw_uncore = view.uncore_power();
        let mut uncore = if raw_uncore.is_finite() && raw_uncore >= 0.0 {
            raw_uncore
        } else {
            st.stats.clamped += 1;
            st.uncore_w.unwrap_or(0.0)
        };
        if let Some(prev) = st.uncore_w {
            uncore = Self::UNCORE_ALPHA * uncore + (1.0 - Self::UNCORE_ALPHA) * prev;
        }
        st.uncore_w = Some(uncore);
        PmView::from_cores(cores).with_uncore_power(uncore)
    }
}

/// The hardened power-management front end the trial runtimes drive.
///
/// Wraps the primary manager (built from a [`ManagerSpec`]) together
/// with a [`SensorConditioner`] and a chip-wide fallback. With
/// hardening *disabled* it runs the plain path — raw sensor view,
/// [`PowerManager::levels`], apply — with no conditioning, no fallback
/// and no events, which is what keeps zero-fault runs bit-identical to
/// historical traces.
pub struct HardenedManager {
    primary: Option<Box<dyn PowerManager>>,
    fallback: ChipWide,
    conditioner: SensorConditioner,
    hardened: bool,
    last_report: Option<SolveReport>,
}

impl HardenedManager {
    /// Builds the front end for `kind` on a machine with `cores` cores.
    /// `hardened` enables conditioning and solver fallback (the trial
    /// runtimes pass `fault_plan.is_active()`). `rt` parameterizes the
    /// primary's construction (see [`ManagerSpec::build`]); degenerate
    /// specs surface as [`ConfigError::BadManager`].
    pub fn new(
        kind: ManagerSpec,
        cores: usize,
        hardened: bool,
        rt: &RuntimeConfig,
    ) -> Result<Self, ConfigError> {
        Ok(Self {
            primary: kind.build(rt)?,
            fallback: ChipWide,
            conditioner: SensorConditioner::new(cores),
            hardened,
            last_report: None,
        })
    }

    /// Whether a manager runs at all (`false` for [`ManagerSpec::None`],
    /// where the runtime pins levels by frequency mode instead).
    pub fn is_managed(&self) -> bool {
        self.primary.is_some()
    }

    /// Tells the conditioner the thread-to-core mapping changed, so
    /// smoothing never blends readings across different threads.
    pub fn note_reschedule(&mut self) {
        if self.hardened {
            self.conditioner.clear();
        }
    }

    /// One DVFS-interval invocation. Returns the applied levels (in
    /// [`PmView`] core order), or `None` when no manager runs or no
    /// cores are active. Degradations (solver fallbacks) are appended
    /// to `events`.
    pub fn invoke(
        &mut self,
        machine: &mut Machine,
        budget: &PowerBudget,
        rng: &mut SimRng,
        events: &mut Vec<DegradationEvent>,
    ) -> Option<Vec<usize>> {
        self.last_report = None;
        let pm = self.primary.as_deref_mut()?;
        if !self.hardened {
            // The historical code path, bit for bit; the report is a
            // pure read-out and cannot perturb it.
            let view = PmView::from_machine(machine);
            if view.is_empty() {
                return None;
            }
            let levels = pm.levels(&view, budget, rng);
            view.apply(machine, &levels);
            self.last_report = Some(
                pm.last_solve()
                    .unwrap_or_else(|| SolveReport::heuristic(pm.name())),
            );
            return Some(levels);
        }
        // Thread migrations invalidate per-core filter state even when
        // no reschedule cleared it (belt for `note_reschedule`'s
        // suspenders: today every migration follows a reschedule, but
        // the filter must not rely on that coupling).
        self.conditioner.note_assignment(machine.assignment());
        let raw = PmView::from_machine(machine);
        if raw.is_empty() {
            return None;
        }
        let view = self.conditioner.condition(&raw);
        let levels = match pm.try_levels(&view, budget, rng) {
            Ok(levels) => {
                self.last_report = Some(
                    pm.last_solve()
                        .unwrap_or_else(|| SolveReport::heuristic(pm.name())),
                );
                levels
            }
            Err(error) => {
                events.push(DegradationEvent::SolverFallback { error });
                let mut report = pm
                    .last_solve()
                    .unwrap_or_else(|| SolveReport::heuristic(pm.name()));
                report.status = SolveStatus::Fallback(error);
                self.last_report = Some(report);
                self.fallback.levels(&view, budget, rng)
            }
        };
        view.apply(machine, &levels);
        Some(levels)
    }

    /// The [`SolveReport`] of the most recent [`Self::invoke`] that
    /// actually ran a manager (`None` when unmanaged, no cores were
    /// active, or nothing ran yet). On a solver fallback the report
    /// keeps the primary's cost counters but carries
    /// [`SolveStatus::Fallback`].
    pub fn last_solve(&self) -> Option<SolveReport> {
        self.last_report
    }

    /// Captures the front end's cross-interval state for a checkpoint.
    /// The pending [`Self::last_solve`] report is transient per-invoke
    /// output and is not captured; the next invocation refreshes it.
    pub fn export_state(&self) -> HardenedState {
        HardenedState {
            primary: self.primary.as_ref().map(|pm| pm.snapshot()),
            conditioner: self.conditioner.export_state(),
        }
    }

    /// Restores state captured by [`HardenedManager::export_state`]
    /// onto a front end freshly built from the same [`ManagerSpec`] and
    /// core count.
    ///
    /// # Errors
    ///
    /// Returns the conditioner's [`StateMismatch`], before changing
    /// anything, if the state was taken for another core count.
    pub fn import_state(&mut self, state: &HardenedState) -> Result<(), StateMismatch> {
        self.conditioner.import_state(&state.conditioner)?;
        if let (Some(pm), Some(st)) = (self.primary.as_deref_mut(), state.primary.as_ref()) {
            pm.restore(st);
        }
        self.last_report = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::synthetic_core;

    fn noisy_view() -> PmView {
        let mut a = synthetic_core(0, 1.0, 9, 1.0);
        a.power_w[4] = f64::NAN;
        a.power_w[5] = -3.0;
        let mut b = synthetic_core(1, 0.5, 9, 1.0);
        b.ipc = f64::INFINITY;
        PmView::from_cores(vec![a, b]).with_uncore_power(5.0)
    }

    #[test]
    fn conditioner_clamps_garbage() {
        let mut cond = SensorConditioner::new(4).with_alpha(1.0);
        let out = cond.condition(&noisy_view());
        for c in out.cores() {
            assert!(c.ipc.is_finite() && c.ipc >= 0.0);
            for w in c.power_w.windows(2) {
                assert!(w[0].is_finite() && w[0] >= 0.0);
                assert!(w[1] >= w[0], "power must stay monotone");
            }
        }
        assert_eq!(out.uncore_power(), 5.0);
    }

    #[test]
    fn conditioner_smooths_noise() {
        let mut cond = SensorConditioner::new(2).with_alpha(0.5);
        let clean = PmView::from_cores(vec![synthetic_core(0, 1.0, 9, 1.0)]);
        let mut spiky = clean.clone();
        cond.condition(&clean);
        // A 2x power spike should be halved by the EWMA.
        let spiked: Vec<f64> = clean.cores()[0].power_w.iter().map(|p| p * 2.0).collect();
        spiky = PmView::from_cores(vec![CoreView {
            power_w: spiked,
            ..spiky.cores()[0].clone()
        }]);
        let out = cond.condition(&spiky);
        let raw = spiky.cores()[0].power_w[8];
        let base = clean.cores()[0].power_w[8];
        let expect = 0.5 * raw + 0.5 * base;
        assert!((out.cores()[0].power_w[8] - expect).abs() < 1e-9);
    }

    #[test]
    fn clear_forgets_history() {
        let mut cond = SensorConditioner::new(2).with_alpha(0.5);
        let clean = PmView::from_cores(vec![synthetic_core(0, 1.0, 9, 1.0)]);
        cond.condition(&clean);
        cond.clear();
        // After clear, the next reading passes through unsmoothed.
        let out = cond.condition(&clean);
        assert_eq!(out.cores()[0].power_w, clean.cores()[0].power_w);
    }

    #[test]
    fn migration_resets_filter_without_a_clear() {
        // Thread 7 runs on core 0 and builds up smoothing state; then
        // thread 9 migrates onto core 0 *without* a reschedule-driven
        // clear(). The filter must not blend thread 7's readings into
        // thread 9's first sample.
        let mut cond = SensorConditioner::new(2).with_alpha(0.5);
        let hot = PmView::from_cores(vec![synthetic_core(0, 2.0, 9, 1.0)]);
        let cool = PmView::from_cores(vec![CoreView {
            power_w: hot.cores()[0].power_w.iter().map(|p| p * 0.5).collect(),
            ipc: 0.4,
            ..hot.cores()[0].clone()
        }]);

        cond.note_assignment(&[Some(7), None]);
        cond.condition(&hot);
        cond.condition(&hot);

        // Same thread, same readings: the EWMA is at steady state.
        cond.note_assignment(&[Some(7), None]);
        let stats_before = cond.stats();
        assert_eq!(stats_before.migration_resets, 0, "no migration yet");

        // Migration: a different thread lands on core 0.
        cond.note_assignment(&[Some(9), None]);
        assert_eq!(cond.stats().migration_resets, 1);
        let out = cond.condition(&cool);
        assert_eq!(
            out.cores()[0].power_w,
            cool.cores()[0].power_w,
            "first post-migration reading must pass through unblended"
        );
        assert_eq!(out.cores()[0].ipc, 0.4);
    }

    #[test]
    fn note_assignment_is_idempotent_for_stable_mappings() {
        let mut cond = SensorConditioner::new(3).with_alpha(0.5);
        let v = PmView::from_cores(vec![synthetic_core(0, 1.0, 9, 1.0)]);
        cond.note_assignment(&[Some(1), Some(2), None]);
        cond.condition(&v);
        cond.note_assignment(&[Some(1), Some(2), None]);
        // State survived: the second identical reading is smoothed
        // (steady state ⇒ output equals input, but state is Some).
        let out = cond.condition(&v);
        assert_eq!(out.cores()[0].power_w, v.cores()[0].power_w);
        assert_eq!(cond.stats().migration_resets, 0);

        // Parking the thread (core goes empty) then unparking it also
        // resets, covering dead-core churn from the faults path.
        cond.note_assignment(&[None, Some(2), None]);
        cond.note_assignment(&[Some(1), Some(2), None]);
        assert_eq!(cond.stats().migration_resets, 1);
    }

    #[test]
    fn degradation_events_display() {
        let e = DegradationEvent::SolverFallback {
            error: SolverError::Infeasible,
        };
        assert!(e.to_string().contains("chip-wide"));
        assert_eq!(
            DegradationEvent::from(FaultEvent::CoreFailed { core: 3 }),
            DegradationEvent::CoreFailed { core: 3 }
        );
    }
}
