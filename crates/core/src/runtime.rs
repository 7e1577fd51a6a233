//! The execution timeline (paper Figure 2).
//!
//! At every **OS scheduling interval** the scheduler revisits the
//! thread-to-core assignment using one of the [`crate::sched`] policies;
//! at every (much shorter) **DVFS interval** the power manager re-solves
//! the (V, f) assignment. The machine advances in fixed ticks between
//! those events, and power/IPC sensors stay on throughout.

use crate::manager::{DegradationEvent, HardenedManager, ManagerSpec, PowerBudget, SolveReport};
use crate::metrics::{ed2_index, weighted_mips};
use crate::profile::{core_profiles, thread_profiles, CoreProfile};
use crate::sched::{Scheduler, SchedulerSpec};
use cmpsim::{FaultConfigError, FaultEvent, FaultPlan, Machine, StepStats, Workload};
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
    /// they must nest (tick ≤ DVFS ≤ OS ≤ duration).
    pub fn validate(&self) -> Result<(), ConfigError> {
        // `<=` plus an explicit NaN check (rather than `!(x > 0.0)`) so
        // a NaN tick is rejected too.
        if self.tick_ms <= 0.0 || self.tick_ms.is_nan() {
            return Err(ConfigError::NonPositiveTick);
        }
        if self.dvfs_interval_ms < self.tick_ms {
            return Err(ConfigError::DvfsShorterThanTick);
        }
        if self.os_interval_ms < self.dvfs_interval_ms {
            return Err(ConfigError::OsShorterThanDvfs);
        }
        if self.duration_ms < self.os_interval_ms {
            return Err(ConfigError::DurationShorterThanOs);
        }
        Ok(())
    }

    /// Like [`RuntimeConfig::validate`], for callers that treat a bad
    /// configuration as a programming error.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message if validation fails.
    pub fn validate_or_panic(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid runtime configuration: {e}");
        }
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
    /// `dvfs_interval_ms` is shorter than one tick.
    DvfsShorterThanTick,
    /// `os_interval_ms` is shorter than one DVFS interval.
    OsShorterThanDvfs,
    /// `duration_ms` does not cover one OS interval.
    DurationShorterThanOs,
    /// An online arrival process is degenerate (negative/NaN rate,
    /// non-positive instruction budget, or jitter outside `[0, 1)`).
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
        }
    }
}

impl std::error::Error for TrialError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            Self::Fault(e) => Some(e),
            Self::WorkloadTooLarge { .. } => None,
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
}

/// The do-nothing observer behind plain [`run_trial`].
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

/// Runs one trial: load → profile → schedule → manage → tick.
///
/// The machine should be freshly built (or reused across trials of the
/// same die); threads are loaded from `workload` at the start.
///
/// # Panics
///
/// Panics if the workload is larger than the machine or the runtime
/// configuration is invalid.
pub fn run_trial(
    machine: &mut Machine,
    workload: &Workload,
    policy: SchedulerSpec,
    manager: ManagerSpec,
    budget: PowerBudget,
    config: &RuntimeConfig,
    rng: &mut SimRng,
) -> TrialOutcome {
    run_trial_observed(
        machine,
        workload,
        policy,
        manager,
        budget,
        config,
        rng,
        &mut NullObserver,
    )
}

/// [`run_trial`] with an observability hook: the observer sees every
/// scheduling decision, manager invocation, and machine tick.
///
/// The control plane is *stateful* within the trial: one scheduler and
/// one power manager are built up front (via [`SchedulerSpec::build`]
/// and [`ManagerSpec::build`]) and invoked repeatedly, so Foxton\* keeps
/// its round-robin cursor and LinOpt warm-starts across DVFS intervals.
///
/// # Panics
///
/// Panics if the workload is larger than the machine, the runtime
/// configuration is invalid, or a control-plane spec is degenerate.
#[allow(clippy::too_many_arguments)] // mirrors run_trial + the observer
pub fn run_trial_observed(
    machine: &mut Machine,
    workload: &Workload,
    policy: SchedulerSpec,
    manager: ManagerSpec,
    budget: PowerBudget,
    config: &RuntimeConfig,
    rng: &mut SimRng,
    observer: &mut dyn TrialObserver,
) -> TrialOutcome {
    config.validate_or_panic();
    match run_trial_faulted(
        machine,
        workload,
        policy,
        manager,
        budget,
        config,
        &FaultPlan::none(),
        rng,
        observer,
    ) {
        Ok(outcome) => outcome,
        Err(e) => panic!("trial failed: {e}"),
    }
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
pub(crate) fn plan_assignment(
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

/// The canonical trial entry point: [`run_trial_observed`] plus a
/// [`FaultPlan`] and typed errors.
///
/// With an inactive plan ([`FaultPlan::none`] or all-default) this is
/// bit-identical to the historical fault-free path: no extra RNG draws,
/// no conditioning, no fallback manager. With an active plan the
/// machine's sensors are distorted per the plan and the control plane
/// hardens itself: manager input views are sanitized and smoothed,
/// solver failures fall back to the chip-wide manager, core failures
/// trigger an immediate reschedule onto the survivors, and every
/// degradation is reported through
/// [`TrialObserver::on_degradation`].
///
/// During a transient budget drop the *manager* chases the reduced
/// budget, but [`TrialOutcome::power_deviation_frac`] keeps measuring
/// against the nominal budget — the metric reports what the faults
/// cost, not what the manager was told.
#[allow(clippy::too_many_arguments)] // mirrors run_trial_observed + the plan
pub fn run_trial_faulted(
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
    config.validate()?;
    if workload.len() > machine.core_count() {
        return Err(TrialError::WorkloadTooLarge {
            threads: workload.len(),
            cores: machine.core_count(),
        });
    }
    // Build the control plane before touching the machine so degenerate
    // specs fail cleanly (ConfigError::BadManager) with no side effects.
    let mut scheduler = policy.build(config)?;
    manager.validate(config)?;
    machine.load_threads(workload.spawn_threads(rng));
    machine.install_faults(fault_plan)?;
    let hardened = machine.has_active_faults();
    let mut power_manager = HardenedManager::new(manager, machine.core_count(), hardened, config)?;

    let cores = core_profiles(machine);
    let dt_s = config.tick_ms / 1e3;
    let total_ticks = (config.duration_ms / config.tick_ms).round() as usize;
    let dvfs_every = (config.dvfs_interval_ms / config.tick_ms).round() as usize;
    let os_every = (config.os_interval_ms / config.tick_ms).round() as usize;

    let warmup_ticks =
        ((config.deviation_warmup_ms / config.tick_ms).round() as usize).min(total_ticks / 2);
    let mut freq_time_sum = 0.0f64;
    let mut deviation_sum = 0.0f64;
    let mut deviation_ticks = 0usize;
    let mut manager_runs = 0usize;

    // Set when a core fails mid-epoch: forces a reschedule on the next
    // tick instead of waiting for the OS interval.
    let mut core_dirty = false;
    let mut degradations: Vec<DegradationEvent> = Vec::new();

    for tick in 0..total_ticks {
        if tick % os_every == 0 || core_dirty {
            core_dirty = false;
            // OS scheduling epoch: re-profile threads and re-map.
            let (mapping, parked) = plan_assignment(scheduler.as_mut(), &cores, machine, rng);
            machine.assign(&mapping);
            power_manager.note_reschedule();
            if !power_manager.is_managed() {
                match config.freq_mode {
                    FreqMode::Uniform => {
                        machine.set_uniform_frequency();
                    }
                    FreqMode::NonUniform => machine.set_all_levels_max(),
                }
            }
            observer.on_schedule(tick, &mapping);
            if parked > 0 {
                observer.on_degradation(tick, DegradationEvent::ThreadsParked { parked });
            }
        }
        if power_manager.is_managed() && tick % dvfs_every == 0 {
            // Under an injected budget drop, the manager chases the
            // scaled budget (the deviation metric below does not).
            let eff_budget = if hardened {
                PowerBudget {
                    chip_w: budget.chip_w * machine.fault_budget_factor(),
                    per_core_w: budget.per_core_w,
                }
            } else {
                budget
            };
            if let Some(levels) = power_manager.invoke(machine, &eff_budget, rng, &mut degradations)
            {
                observer.on_manager_run(tick, &levels);
                if let Some(report) = power_manager.last_solve() {
                    observer.on_solve(tick, &report);
                }
            }
            for event in degradations.drain(..) {
                observer.on_degradation(tick, event);
            }
            manager_runs += 1;
        }

        let stats = machine.step(dt_s);
        for event in machine.take_fault_events() {
            if matches!(event, FaultEvent::CoreFailed { .. }) {
                core_dirty = true;
            }
            observer.on_degradation(tick, DegradationEvent::from(event));
        }
        observer.on_step(machine, &stats);
        if tick >= warmup_ticks {
            deviation_sum += (stats.total_power_w - budget.chip_w).abs();
            deviation_ticks += 1;
        }

        // Track the average frequency of active cores this tick.
        let mut f_sum = 0.0;
        let mut active = 0usize;
        for core in 0..machine.core_count() {
            if machine.thread_of(core).is_some() {
                f_sum += machine.effective_freq(core);
                active += 1;
            }
        }
        if active > 0 {
            freq_time_sum += f_sum / active as f64;
        }
    }

    let per_thread_mips: Vec<f64> = machine.threads().iter().map(|t| t.average_mips()).collect();
    let reference_mips: Vec<f64> = workload
        .specs()
        .iter()
        .map(|s| s.ipc_at(4.0e9) * 4.0e9 / 1e6)
        .collect();

    let mips = machine.average_mips();
    let avg_power_w = machine.average_power();
    let wmips = weighted_mips(&per_thread_mips, &reference_mips);

    Ok(TrialOutcome {
        mips,
        weighted_mips: wmips,
        avg_power_w,
        ed2: ed2_index(avg_power_w, mips),
        weighted_ed2: ed2_index(avg_power_w, wmips),
        avg_freq_hz: freq_time_sum / total_ticks as f64,
        power_deviation_frac: deviation_sum / deviation_ticks.max(1) as f64 / budget.chip_w,
        manager_runs,
        per_thread_mips,
    })
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
            &mut SimRng::seed_from(3),
        );
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
            &mut SimRng::seed_from(6),
        );
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
                &mut SimRng::seed_from(9),
            )
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
            &mut SimRng::seed_from(12),
        );
        cfg.freq_mode = FreqMode::NonUniform;
        let mut m2 = machine(11);
        let non = run_trial(
            &mut m2,
            &w,
            SchedulerSpec::Random,
            ManagerSpec::None,
            PowerBudget::cost_performance(12),
            &cfg,
            &mut SimRng::seed_from(12),
        );
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
            &mut SimRng::seed_from(15),
        );
        assert_eq!(out.manager_runs, 0);
        for core in 0..m.core_count() {
            if m.thread_of(core).is_some() {
                assert_eq!(m.level(core), m.vf_table(core).max_level());
            }
        }
    }

    #[test]
    #[should_panic(expected = "OS interval")]
    fn bad_interval_nesting_rejected() {
        let cfg = RuntimeConfig {
            os_interval_ms: 5.0,
            ..quick_config()
        };
        cfg.validate_or_panic();
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
        let out = run_trial_observed(
            &mut m,
            &w,
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::FoxtonStar,
            PowerBudget::cost_performance(6),
            &quick_config(),
            &mut SimRng::seed_from(32),
            &mut obs,
        );
        assert_eq!(obs.schedules, 2); // 100 ms / 50 ms OS epochs
        assert_eq!(obs.manager_runs, out.manager_runs);
        assert_eq!(obs.steps, 100); // one per tick
    }
}
