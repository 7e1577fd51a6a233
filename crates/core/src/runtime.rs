//! The execution timeline (paper Figure 2).
//!
//! At every **OS scheduling interval** the scheduler revisits the
//! thread-to-core assignment using one of the [`crate::sched`] policies;
//! at every (much shorter) **DVFS interval** the power manager re-solves
//! the (V, f) assignment. The machine advances in fixed ticks between
//! those events, and power/IPC sensors stay on throughout.
//!
//! This module holds the timeline's configuration, the observer hook,
//! and the reschedule steps of the one tick loop,
//! [`crate::online::OnlineSim`]: [`run_trial`] is its closed run over a
//! fixed workload, and every fleet chip ([`crate::fleet::ChipSim`]) runs
//! it with injected arrivals.

use crate::manager::{DegradationEvent, HardenedManager, ManagerSpec, PowerBudget, SolveReport};
use crate::online::{OnlineSim, SnapshotGuard};
use crate::profile::{thread_profiles, CoreProfile};
use crate::sched::{Scheduler, SchedulerSpec};
use cmpsim::{FaultConfigError, FaultPlan, Machine, StepStats, Workload};
use std::fmt;
use vastats::SimRng;

/// How core frequencies are set in configurations without DVFS
/// (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreqMode {
    /// `UniFreq`: all active cores cycle at the frequency of the
    /// slowest one.
    Uniform,
    /// `NUniFreq`: each active core cycles at its own maximum frequency.
    NonUniform,
}

/// Timeline parameters.
///
/// Construct with [`RuntimeConfig::paper_default`] (then adjust fields
/// in-place) or through [`RuntimeConfig::builder`], which validates the
/// interval nesting at build time. The struct is `#[non_exhaustive]` so
/// later papers' timeline knobs can be added without breaking callers.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct RuntimeConfig {
    /// Machine tick (sensor/thermal update granularity), milliseconds.
    pub tick_ms: f64,
    /// DVFS interval: how often the power manager runs (paper: 10 ms).
    pub dvfs_interval_ms: f64,
    /// OS scheduling interval (paper: a multiple of the DVFS interval).
    pub os_interval_ms: f64,
    /// Total simulated time per trial, milliseconds.
    pub duration_ms: f64,
    /// Frequency mode used when no DVFS manager runs.
    pub freq_mode: FreqMode,
    /// Ticks inside this initial window are excluded from the
    /// power-deviation statistic: the machine starts at ambient
    /// temperature, and the paper's Figure 14 measures steady-state
    /// tracking, not the cold-start ramp. Clamped to half the duration.
    pub deviation_warmup_ms: f64,
}

impl RuntimeConfig {
    /// The paper's timeline: 1 ms ticks, 10 ms DVFS intervals, 100 ms
    /// OS intervals, 300 ms trials (3 scheduling epochs, 30 manager
    /// invocations).
    pub fn paper_default() -> Self {
        Self {
            tick_ms: 1.0,
            dvfs_interval_ms: 10.0,
            os_interval_ms: 100.0,
            duration_ms: 300.0,
            freq_mode: FreqMode::NonUniform,
            deviation_warmup_ms: 100.0,
        }
    }

    /// Validates interval nesting: every interval must be positive and
    /// finite, and they must nest (tick ≤ DVFS ≤ OS ≤ duration).
    pub fn validate(&self) -> Result<(), ConfigError> {
        // Comparisons plus explicit finiteness checks (rather than
        // `!(x > 0.0)`) so a NaN or infinite interval is rejected too.
        if self.tick_ms <= 0.0 || self.tick_ms.is_nan() {
            return Err(ConfigError::NonPositiveTick);
        }
        if self.dvfs_interval_ms < self.tick_ms || !self.dvfs_interval_ms.is_finite() {
            return Err(ConfigError::DvfsShorterThanTick);
        }
        if self.os_interval_ms < self.dvfs_interval_ms || !self.os_interval_ms.is_finite() {
            return Err(ConfigError::OsShorterThanDvfs);
        }
        if self.duration_ms < self.os_interval_ms || !self.duration_ms.is_finite() {
            return Err(ConfigError::DurationShorterThanOs);
        }
        Ok(())
    }

    /// A builder seeded with the paper's timeline; override individual
    /// knobs and finish with [`RuntimeConfigBuilder::build`].
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder {
            inner: Self::paper_default(),
        }
    }
}

/// Builder for [`RuntimeConfig`], starting from
/// [`RuntimeConfig::paper_default`].
#[derive(Debug, Clone)]
pub struct RuntimeConfigBuilder {
    inner: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Machine tick, milliseconds.
    pub fn tick_ms(mut self, v: f64) -> Self {
        self.inner.tick_ms = v;
        self
    }

    /// DVFS (power-manager) interval, milliseconds.
    pub fn dvfs_interval_ms(mut self, v: f64) -> Self {
        self.inner.dvfs_interval_ms = v;
        self
    }

    /// OS scheduling interval, milliseconds.
    pub fn os_interval_ms(mut self, v: f64) -> Self {
        self.inner.os_interval_ms = v;
        self
    }

    /// Simulated duration per trial, milliseconds.
    pub fn duration_ms(mut self, v: f64) -> Self {
        self.inner.duration_ms = v;
        self
    }

    /// Frequency mode when no DVFS manager runs.
    pub fn freq_mode(mut self, v: FreqMode) -> Self {
        self.inner.freq_mode = v;
        self
    }

    /// Warm-up window excluded from the power-deviation statistic.
    pub fn deviation_warmup_ms(mut self, v: f64) -> Self {
        self.inner.deviation_warmup_ms = v;
        self
    }

    /// Validates interval nesting and returns the configuration.
    pub fn build(self) -> Result<RuntimeConfig, ConfigError> {
        self.inner.validate()?;
        Ok(self.inner)
    }
}

/// Why a [`RuntimeConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `tick_ms` is zero, negative, or NaN.
    NonPositiveTick,
    /// `dvfs_interval_ms` is shorter than one tick, or not finite.
    DvfsShorterThanTick,
    /// `os_interval_ms` is shorter than one DVFS interval, or not
    /// finite.
    OsShorterThanDvfs,
    /// `duration_ms` does not cover one OS interval, or is not finite.
    DurationShorterThanOs,
    /// An online arrival process is degenerate (negative, infinite or
    /// NaN rate, non-positive instruction budget, or jitter outside
    /// `[0, 1)`).
    BadArrivalProcess,
    /// An online migration penalty is negative or NaN.
    NegativeMigrationPenalty,
    /// An online service policy is degenerate (negative/NaN reschedule
    /// window, or non-positive/NaN deadline slack).
    BadServicePolicy,
    /// A fleet configuration is degenerate (epoch shorter than a tick,
    /// non-positive datacenter budget or integral gain, or a zero
    /// per-chip queue capacity).
    BadFleet,
    /// A manager or scheduler spec names a degenerate configuration
    /// (zero-evaluation SAnn, zero-size voltage domains, non-finite or
    /// non-positive regulator gain).
    BadManager,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            ConfigError::NonPositiveTick => "tick must be positive",
            ConfigError::DvfsShorterThanTick => "DVFS interval must be at least one tick",
            ConfigError::OsShorterThanDvfs => "OS interval must be at least one DVFS interval",
            ConfigError::DurationShorterThanOs => "duration must cover at least one OS interval",
            ConfigError::BadArrivalProcess => "arrival process is degenerate",
            ConfigError::NegativeMigrationPenalty => "migration penalty must be non-negative",
            ConfigError::BadServicePolicy => "service policy is degenerate",
            ConfigError::BadFleet => "fleet configuration is degenerate",
            ConfigError::BadManager => "manager or scheduler spec is degenerate",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

/// Why a trial could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialError {
    /// The runtime configuration failed validation.
    Config(ConfigError),
    /// The fault plan failed validation against the machine.
    Fault(FaultConfigError),
    /// The workload has more threads than the machine has cores.
    WorkloadTooLarge {
        /// Threads in the workload.
        threads: usize,
        /// Cores on the machine.
        cores: usize,
    },
    /// A checkpoint does not fit the machine or configuration it was
    /// resumed on.
    SnapshotMismatch(SnapshotGuard),
}

impl fmt::Display for TrialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid runtime configuration: {e}"),
            Self::Fault(e) => write!(f, "invalid fault plan: {e}"),
            Self::WorkloadTooLarge { threads, cores } => {
                write!(
                    f,
                    "workload has {threads} threads but machine has {cores} cores"
                )
            }
            Self::SnapshotMismatch(guard) => write!(f, "snapshot fails its {guard:?} guard"),
        }
    }
}

impl std::error::Error for TrialError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            Self::Fault(e) => Some(e),
            Self::WorkloadTooLarge { .. } | Self::SnapshotMismatch(_) => None,
        }
    }
}

impl From<ConfigError> for TrialError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

impl From<FaultConfigError> for TrialError {
    fn from(e: FaultConfigError) -> Self {
        Self::Fault(e)
    }
}

/// Per-trial observability hook.
///
/// The trial runtime calls these as the timeline advances; the default
/// implementations do nothing, so observers override only what they
/// need. [`crate::engine::TelemetryObserver`] adapts this interface to
/// [`cmpsim::Telemetry`] for full per-tick traces.
pub trait TrialObserver {
    /// Called after each OS scheduling epoch with the new
    /// thread-to-core mapping (`mapping[core] = Some(thread)`).
    fn on_schedule(&mut self, tick: usize, mapping: &[Option<usize>]) {
        let _ = (tick, mapping);
    }

    /// Called after each power-manager invocation with the chosen
    /// per-active-core levels (in [`crate::manager::PmView`] order).
    fn on_manager_run(&mut self, tick: usize, levels: &[usize]) {
        let _ = (tick, levels);
    }

    /// Called after each power-manager invocation with the solver-side
    /// cost record of the solve (pivot count, warm-start disposition,
    /// outcome). Fires right after
    /// [`TrialObserver::on_manager_run`], and only when the manager
    /// exposes a report.
    fn on_solve(&mut self, tick: usize, report: &SolveReport) {
        let _ = (tick, report);
    }

    /// Called after every machine tick.
    fn on_step(&mut self, machine: &Machine, stats: &StepStats) {
        let _ = (machine, stats);
    }

    /// Called whenever the control plane degrades: a solver falls back
    /// to chip-wide, a core dies, sensors freeze, the budget drops, or
    /// threads are parked for lack of live cores. Never called in
    /// zero-fault runs.
    fn on_degradation(&mut self, tick: usize, event: DegradationEvent) {
        let _ = (tick, event);
    }

    /// Called when online admission control sheds a queued job whose
    /// deadline became unreachable. Online-only: the batch runtime and
    /// deadline-free online runs never fire it.
    fn on_job_shed(&mut self, tick: usize, job: usize) {
        let _ = (tick, job);
    }

    /// Called when temperature-triggered migration
    /// ([`crate::extensions::MigrationConfig`]) moves the thread on the
    /// hottest active core to the coolest idle one. Only thermal trials
    /// fire it.
    fn on_migration(&mut self, tick: usize) {
        let _ = tick;
    }
}

/// The do-nothing observer, for runs nobody watches.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl TrialObserver for NullObserver {}

/// Results of one trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Average chip throughput (MIPS).
    pub mips: f64,
    /// Weighted throughput (Σ per-thread normalized throughput).
    pub weighted_mips: f64,
    /// Average chip power (watts).
    pub avg_power_w: f64,
    /// `ED²` index (power / MIPS³); compare ratios only.
    pub ed2: f64,
    /// Weighted `ED²` index (power / weighted-throughput³).
    pub weighted_ed2: f64,
    /// Time-averaged frequency of active cores (Hz).
    pub avg_freq_hz: f64,
    /// Mean absolute deviation of 1 ms power from the chip budget,
    /// as a fraction of the budget (Figure 14's metric).
    pub power_deviation_frac: f64,
    /// Number of power-manager invocations.
    pub manager_runs: usize,
    /// Per-thread average MIPS.
    pub per_thread_mips: Vec<f64>,
}

/// Re-profiles the resident threads and plans the next thread-to-core
/// assignment, working around dead cores.
///
/// With every core alive and enough capacity, this is a passthrough to
/// the scheduler (byte-identical RNG consumption to the pre-fault code,
/// which is what keeps zero-fault runs reproducible). Once cores have
/// failed, the scheduler sees only the survivors; if more threads are
/// live than cores, the lowest-IPC threads are parked for this epoch.
/// With no core left alive, every resident thread is parked without
/// profiling. Returns the full-machine mapping and the number of parked
/// threads.
fn plan_assignment(
    scheduler: &mut dyn Scheduler,
    cores: &[CoreProfile],
    machine: &Machine,
    rng: &mut SimRng,
) -> (Vec<Option<usize>>, usize) {
    // Let machine-aware schedulers (ThermalMap) read sensors before the
    // assignment; the default hook is a no-op and draws no RNG, so
    // machine-oblivious policies stay bit-identical to the pre-hook
    // code. This is the single choke point every execution path (batch,
    // online, fleet, thermal) routes scheduling through.
    scheduler.observe(machine);
    let n_alive = cores.iter().filter(|c| machine.core_alive(c.core)).count();
    if n_alive == 0 {
        return (vec![None; cores.len()], machine.threads().len());
    }
    let threads = thread_profiles(machine, rng);
    if n_alive == cores.len() && threads.len() <= n_alive {
        return (scheduler.assign(cores, &threads, rng), 0);
    }
    let alive: Vec<CoreProfile> = cores
        .iter()
        .filter(|c| machine.core_alive(c.core))
        .cloned()
        .collect();
    let parked = threads.len().saturating_sub(alive.len());
    let mut runnable = threads;
    if parked > 0 {
        // Keep the highest-IPC threads (deterministic ties by index; a
        // NaN IPC ranks last, so it is parked first), then restore
        // thread order so policy tie-breaks are stable.
        runnable.sort_by(|a, b| {
            crate::order::desc_nan_worst(a.ipc, b.ipc).then(a.thread.cmp(&b.thread))
        });
        runnable.truncate(alive.len());
        runnable.sort_by_key(|t| t.thread);
    }
    // The scheduler works positionally over the slices it is given, so
    // translate its sub-machine mapping back to full-machine indices.
    let sub = scheduler.assign(&alive, &runnable, rng);
    let mut mapping = vec![None; cores.len()];
    for (pos, slot) in sub.iter().enumerate() {
        if let Some(tpos) = slot {
            mapping[alive[pos].core] = Some(runnable[*tpos].thread);
        }
    }
    (mapping, parked)
}

/// Tick counts and durations the serving loop derives from its
/// configuration, computed in one place for a fresh and a resumed
/// [`crate::online::OnlineSim`] (and so for every trial and fleet
/// chip).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Cadence {
    /// Tick length (ms).
    pub tick_ms: f64,
    /// Tick length (s): the machine step.
    pub dt_s: f64,
    /// Ticks in the horizon.
    pub total_ticks: usize,
    /// Ticks per DVFS interval.
    pub dvfs_every: usize,
    /// Ticks per OS interval.
    pub os_every: usize,
    /// Ticks per reschedule window (0 = per-event rescheduling).
    pub window_every: usize,
    /// Leading ticks excluded from the power-deviation statistic.
    pub warmup_ticks: usize,
    /// Stall charged to the destination core of a moved thread (s).
    pub penalty_s: f64,
}

impl Cadence {
    /// Derives the cadence of `rt` plus the serving knobs.
    pub(crate) fn new(rt: &RuntimeConfig, migration_penalty_ms: f64, window_ms: f64) -> Self {
        let ticks = |ms: f64| (ms / rt.tick_ms).round() as usize;
        let total_ticks = ticks(rt.duration_ms);
        Self {
            tick_ms: rt.tick_ms,
            dt_s: rt.tick_ms / 1e3,
            total_ticks,
            dvfs_every: ticks(rt.dvfs_interval_ms),
            os_every: ticks(rt.os_interval_ms),
            window_every: ticks(window_ms),
            warmup_ticks: ticks(rt.deviation_warmup_ms).min(total_ticks / 2),
            penalty_s: migration_penalty_ms / 1e3,
        }
    }

    /// Whether membership changes trigger a full reschedule at `tick`:
    /// at once in per-event mode, at the next window boundary in
    /// windowed mode, where `window_dirty` carries a change across
    /// ticks until then (the reschedule clears it).
    pub(crate) fn membership_trigger(
        &self,
        tick: usize,
        changed: bool,
        window_dirty: &mut bool,
    ) -> bool {
        if self.window_every == 0 {
            return changed;
        }
        *window_dirty |= changed;
        *window_dirty && tick.is_multiple_of(self.window_every)
    }
}

/// What one full reschedule did.
pub(crate) struct Remap {
    /// The applied mapping (`mapping[core] = Some(thread)`).
    pub mapping: Vec<Option<usize>>,
    /// Threads parked for lack of live cores.
    pub parked: usize,
    /// Threads the remap moved to a different core.
    pub moved: Vec<usize>,
}

/// The full reschedule of the serving loop: plan the mapping
/// ([`plan_assignment`]), apply it, charge `penalty_s` of stall to the
/// destination core of every thread that moved (first placements are
/// free), and, when no manager runs, pin levels by `freq_mode`.
pub(crate) fn remap(
    scheduler: &mut dyn Scheduler,
    cores: &[CoreProfile],
    machine: &mut Machine,
    rng: &mut SimRng,
    manager: &mut HardenedManager,
    penalty_s: f64,
    freq_mode: FreqMode,
) -> Remap {
    let mut prev_core = vec![None; machine.threads().len()];
    for (core, slot) in machine.assignment().iter().enumerate() {
        if let Some(t) = *slot {
            prev_core[t] = Some(core);
        }
    }
    let (mapping, parked) = plan_assignment(scheduler, cores, machine, rng);
    machine.assign(&mapping);
    manager.note_reschedule();
    let mut moved = Vec::new();
    for (core, slot) in mapping.iter().enumerate() {
        if let Some(t) = *slot {
            if prev_core[t].is_some_and(|pc| pc != core) {
                moved.push(t);
                if penalty_s > 0.0 {
                    machine.charge_stall(core, penalty_s);
                }
            }
        }
    }
    if !manager.is_managed() {
        match freq_mode {
            FreqMode::Uniform => {
                machine.set_uniform_frequency();
            }
            FreqMode::NonUniform => machine.set_all_levels_max(),
        }
    }
    Remap {
        mapping,
        parked,
        moved,
    }
}

/// Places thread `tid` on the fastest free live core (ties go to the
/// lower index; a NaN rating never wins). This is the cheap placement
/// a job admitted between windowed reschedules runs on until the next
/// full one. Does nothing when no live core is free.
pub(crate) fn place_on_fastest_free(
    machine: &mut Machine,
    cores: &[CoreProfile],
    manager: &mut HardenedManager,
    tid: usize,
) {
    let mut mapping = machine.assignment().to_vec();
    let free = (0..mapping.len())
        .filter(|&c| mapping[c].is_none() && machine.core_alive(c))
        .max_by(|&a, &b| {
            // desc_nan_worst with the operands flipped: the fastest
            // core is the max, and a NaN rating loses to every real one.
            crate::order::desc_nan_worst(cores[b].max_freq_hz, cores[a].max_freq_hz).then(b.cmp(&a))
        });
    if let Some(core) = free {
        mapping[core] = Some(tid);
        machine.assign(&mapping);
        manager.note_reschedule();
    }
}

/// Runs one batch trial: load → profile → schedule → manage → tick.
///
/// A batch trial is the closed case of the online loop: an
/// [`OnlineSim`] over the caller's pre-drawn `workload` with no
/// arrivals, free migrations and the default
/// [`crate::online::ServicePolicy`]. It reschedules every OS interval
/// and re-solves DVFS every DVFS interval (paper Figure 2). The
/// machine should be freshly built (or reused across trials of the
/// same die). The control plane is stateful within the trial: Foxton\*
/// keeps its round-robin cursor and LinOpt warm-starts across DVFS
/// intervals. The observer sees every scheduling decision, manager
/// invocation and machine tick, and never perturbs the run.
///
/// With an inactive plan ([`FaultPlan::none`] or all-default) the run
/// draws no extra random numbers and builds no fallback manager. With
/// an active plan the machine's sensors are distorted per the plan and
/// the control plane hardens itself: manager input views are sanitized
/// and smoothed, solver failures fall back to the chip-wide manager,
/// core failures trigger an immediate reschedule onto the survivors,
/// and every degradation is reported through
/// [`TrialObserver::on_degradation`]. During a transient budget drop
/// the *manager* chases the reduced budget, but
/// [`TrialOutcome::power_deviation_frac`] keeps measuring against the
/// nominal budget: the metric reports what the faults cost, not what
/// the manager was told.
#[allow(clippy::too_many_arguments)] // the trial's inputs, the plan, and the observer
pub fn run_trial(
    machine: &mut Machine,
    workload: &Workload,
    policy: SchedulerSpec,
    manager: ManagerSpec,
    budget: PowerBudget,
    config: &RuntimeConfig,
    fault_plan: &FaultPlan,
    rng: &mut SimRng,
    observer: &mut dyn TrialObserver,
) -> Result<TrialOutcome, TrialError> {
    let mut sim = OnlineSim::closed(
        machine, workload, policy, manager, budget, config, fault_plan, rng,
    )?;
    sim.run(observer);
    Ok(sim.finish().chip)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim::{app_pool, MachineConfig};
    use floorplan::paper_20_core;
    use varius::{DieGenerator, VariationConfig};

    fn machine(seed: u64) -> Machine {
        let cfg = VariationConfig {
            grid: 24,
            ..VariationConfig::paper_default()
        };
        let die = DieGenerator::new(cfg)
            .unwrap()
            .generate(&mut SimRng::seed_from(seed));
        Machine::new(&die, &paper_20_core(), MachineConfig::paper_default())
    }

    fn quick_config() -> RuntimeConfig {
        RuntimeConfig {
            tick_ms: 1.0,
            dvfs_interval_ms: 10.0,
            os_interval_ms: 50.0,
            duration_ms: 100.0,
            freq_mode: FreqMode::NonUniform,
            deviation_warmup_ms: 20.0,
        }
    }

    fn workload(n: usize, seed: u64) -> Workload {
        let pool = app_pool(&MachineConfig::paper_default().dynamic);
        Workload::draw(&pool, n, &mut SimRng::seed_from(seed))
    }

    #[test]
    fn trial_produces_sane_outcome() {
        let mut m = machine(1);
        let w = workload(8, 2);
        let out = run_trial(
            &mut m,
            &w,
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget::cost_performance(8),
            &quick_config(),
            &FaultPlan::none(),
            &mut SimRng::seed_from(3),
            &mut NullObserver,
        )
        .expect("valid trial");
        assert!(out.mips > 0.0);
        assert!(out.avg_power_w > 0.0);
        assert!(out.weighted_mips > 0.0 && out.weighted_mips <= 8.5);
        assert!(out.avg_freq_hz > 1.0e9);
        assert_eq!(out.manager_runs, 10);
        assert_eq!(out.per_thread_mips.len(), 8);
    }

    #[test]
    fn linopt_respects_budget_on_real_machine() {
        let mut m = machine(4);
        let w = workload(20, 5);
        let budget = PowerBudget::cost_performance(20);
        let out = run_trial(
            &mut m,
            &w,
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            budget,
            &quick_config(),
            &FaultPlan::none(),
            &mut SimRng::seed_from(6),
            &mut NullObserver,
        )
        .expect("valid trial");
        assert!(
            out.avg_power_w <= budget.chip_w * 1.10,
            "avg power {} vs budget {}",
            out.avg_power_w,
            budget.chip_w
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let w = workload(6, 7);
        let run = || {
            let mut m = machine(8);
            run_trial(
                &mut m,
                &w,
                SchedulerSpec::VarP,
                ManagerSpec::FoxtonStar,
                PowerBudget::cost_performance(6),
                &quick_config(),
                &FaultPlan::none(),
                &mut SimRng::seed_from(9),
                &mut NullObserver,
            )
            .expect("valid trial")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn uniform_frequency_mode_slows_chip() {
        let w = workload(12, 10);
        let mut cfg = quick_config();
        cfg.freq_mode = FreqMode::Uniform;
        let mut m1 = machine(11);
        let uni = run_trial(
            &mut m1,
            &w,
            SchedulerSpec::Random,
            ManagerSpec::None,
            PowerBudget::cost_performance(12),
            &cfg,
            &FaultPlan::none(),
            &mut SimRng::seed_from(12),
            &mut NullObserver,
        )
        .expect("valid trial");
        cfg.freq_mode = FreqMode::NonUniform;
        let mut m2 = machine(11);
        let non = run_trial(
            &mut m2,
            &w,
            SchedulerSpec::Random,
            ManagerSpec::None,
            PowerBudget::cost_performance(12),
            &cfg,
            &FaultPlan::none(),
            &mut SimRng::seed_from(12),
            &mut NullObserver,
        )
        .expect("valid trial");
        assert!(
            non.avg_freq_hz > uni.avg_freq_hz,
            "NUniFreq {} should beat UniFreq {}",
            non.avg_freq_hz,
            uni.avg_freq_hz
        );
    }

    #[test]
    fn manager_none_keeps_max_levels() {
        let mut m = machine(13);
        let w = workload(4, 14);
        let out = run_trial(
            &mut m,
            &w,
            SchedulerSpec::VarF,
            ManagerSpec::None,
            PowerBudget::high_performance(4),
            &quick_config(),
            &FaultPlan::none(),
            &mut SimRng::seed_from(15),
            &mut NullObserver,
        )
        .expect("valid trial");
        assert_eq!(out.manager_runs, 0);
        for core in 0..m.core_count() {
            if m.thread_of(core).is_some() {
                assert_eq!(m.level(core), m.vf_table(core).max_level());
            }
        }
    }

    #[test]
    fn validate_reports_each_failure_mode() {
        assert_eq!(quick_config().validate(), Ok(()));
        let bad_tick = RuntimeConfig {
            tick_ms: 0.0,
            ..quick_config()
        };
        assert_eq!(bad_tick.validate(), Err(ConfigError::NonPositiveTick));
        let bad_dvfs = RuntimeConfig {
            dvfs_interval_ms: 0.5,
            ..quick_config()
        };
        assert_eq!(bad_dvfs.validate(), Err(ConfigError::DvfsShorterThanTick));
        let bad_os = RuntimeConfig {
            os_interval_ms: 5.0,
            ..quick_config()
        };
        assert_eq!(bad_os.validate(), Err(ConfigError::OsShorterThanDvfs));
        let bad_duration = RuntimeConfig {
            duration_ms: 10.0,
            ..quick_config()
        };
        assert_eq!(
            bad_duration.validate(),
            Err(ConfigError::DurationShorterThanOs)
        );
        // NaN fails every comparison and infinity passes the nesting
        // checks, so both need their own rejection.
        let nan_dvfs = RuntimeConfig {
            dvfs_interval_ms: f64::NAN,
            ..quick_config()
        };
        assert_eq!(nan_dvfs.validate(), Err(ConfigError::DvfsShorterThanTick));
        let nan_os = RuntimeConfig {
            os_interval_ms: f64::NAN,
            ..quick_config()
        };
        assert_eq!(nan_os.validate(), Err(ConfigError::OsShorterThanDvfs));
        for duration_ms in [f64::NAN, f64::INFINITY] {
            let bad = RuntimeConfig {
                duration_ms,
                ..quick_config()
            };
            assert_eq!(
                bad.validate(),
                Err(ConfigError::DurationShorterThanOs),
                "duration {duration_ms}"
            );
        }
        let endless = RuntimeConfig {
            dvfs_interval_ms: f64::INFINITY,
            os_interval_ms: f64::INFINITY,
            duration_ms: f64::INFINITY,
            ..quick_config()
        };
        assert_eq!(endless.validate(), Err(ConfigError::DvfsShorterThanTick));
        let flood = crate::online::ArrivalConfig::poisson(f64::INFINITY, 1e6);
        assert_eq!(flood.validate(), Err(ConfigError::BadArrivalProcess));
    }

    #[test]
    fn nan_dvfs_interval_is_a_config_error_not_a_panic() {
        let mut m = machine(1);
        let config = RuntimeConfig {
            dvfs_interval_ms: f64::NAN,
            ..quick_config()
        };
        let result = run_trial(
            &mut m,
            &workload(4, 2),
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget::cost_performance(4),
            &config,
            &FaultPlan::none(),
            &mut SimRng::seed_from(3),
            &mut NullObserver,
        );
        assert_eq!(
            result.unwrap_err(),
            TrialError::Config(ConfigError::DvfsShorterThanTick)
        );
    }

    #[test]
    fn observer_sees_the_whole_timeline() {
        #[derive(Default)]
        struct Counting {
            schedules: usize,
            manager_runs: usize,
            steps: usize,
        }
        impl TrialObserver for Counting {
            fn on_schedule(&mut self, _tick: usize, mapping: &[Option<usize>]) {
                assert_eq!(mapping.len(), 20);
                self.schedules += 1;
            }
            fn on_manager_run(&mut self, _tick: usize, levels: &[usize]) {
                assert!(!levels.is_empty());
                self.manager_runs += 1;
            }
            fn on_step(&mut self, _machine: &Machine, stats: &StepStats) {
                assert!(stats.total_power_w > 0.0);
                self.steps += 1;
            }
        }

        let mut m = machine(30);
        let w = workload(6, 31);
        let mut obs = Counting::default();
        let out = run_trial(
            &mut m,
            &w,
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::FoxtonStar,
            PowerBudget::cost_performance(6),
            &quick_config(),
            &FaultPlan::none(),
            &mut SimRng::seed_from(32),
            &mut obs,
        )
        .expect("valid trial");
        assert_eq!(obs.schedules, 2); // 100 ms / 50 ms OS epochs
        assert_eq!(obs.manager_runs, out.manager_runs);
        assert_eq!(obs.steps, 100); // one per tick
    }
}
