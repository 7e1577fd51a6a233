//! The trial engine: declarative die-batch × workload × policy fan-out.
//!
//! Every figure experiment in [`crate::experiments`] runs the same
//! protocol: derive a per-trial seed, manufacture a die, build the
//! machine, then run one or more *arms* — (scheduler, manager, budget,
//! timeline) configurations — against that same die and compare them.
//! This module owns that protocol once, for batch and serving arms
//! alike:
//!
//! * [`TrialSpec`] — the declarative description of a batch, checked
//!   by one builder. Its arms are [`TrialArm`]s (batch) or
//!   [`OnlineArm`]s (serving); the sealed [`Arm`] trait states where
//!   the two differ;
//! * [`TrialRunner`] — executes a spec, optionally across threads, with
//!   results **bit-identical** to a sequential run (every trial derives
//!   all of its randomness from its own seed);
//! * [`TrialResult`]/[`ArmRun`] — per-trial outcomes plus wall-clock
//!   timing per arm;
//! * [`TelemetryObserver`] — adapts the runtime's
//!   [`TrialObserver`] hook to [`cmpsim::Telemetry`] so any arm of any
//!   experiment can produce full per-tick traces.
//!
//! ```text
//!   experiment (figure)          crates/core/src/experiments/*.rs
//!        │  builds
//!        ▼
//!   TrialSpec ──► TrialRunner ──► Arm::run ──► run_trial / run_online ──► OnlineSim
//!                     │               │
//!                     │               └──► TrialObserver (telemetry, timing)
//!                     └──► Vec<TrialResult> (ordered, deterministic)
//! ```

use crate::experiments::Context;
use crate::manager::{ManagerSpec, PowerBudget};
use crate::online::{run_online, OnlineConfig, OnlineOutcome};
use crate::runtime::{
    run_trial, NullObserver, RuntimeConfig, TrialError, TrialObserver, TrialOutcome,
};
use crate::sched::SchedulerSpec;
use cmpsim::{FaultPlan, Machine, Mix, StepStats, Telemetry, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use vastats::SimRng;

/// How a trial's seed is derived from the experiment seed:
///
/// ```text
/// trial_seed = seed · mul + offset + stride · trial     (wrapping)
/// ```
///
/// Each experiment uses distinct constants so batches never share
/// random streams; the defaults (`mul = 1`, `offset = 0`, `stride = 1`)
/// give consecutive seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedPlan {
    /// Multiplier applied to the experiment seed.
    pub mul: u64,
    /// Constant offset (e.g. a thread-count namespace).
    pub offset: u64,
    /// Increment per trial index.
    pub stride: u64,
}

impl Default for SeedPlan {
    fn default() -> Self {
        Self {
            mul: 1,
            offset: 0,
            stride: 1,
        }
    }
}

impl SeedPlan {
    /// The seed for `trial` under this plan.
    pub fn derive(&self, seed: u64, trial: usize) -> u64 {
        seed.wrapping_mul(self.mul).wrapping_add(
            self.offset
                .wrapping_add(self.stride.wrapping_mul(trial as u64)),
        )
    }

    /// The sub-seed for chip `chip` of trial `trial` — the fleet's
    /// per-chip derivation. Defined as
    ///
    /// ```text
    /// chip_seed = (derive(seed, trial) ⊕ (chip+1)·GOLDEN) · MIX    (wrapping)
    /// ```
    ///
    /// with `GOLDEN = 0x9E37_79B9_7F4A_7C15` (the splitmix64 increment)
    /// and `MIX = 0x2545_F491_4F6C_DD1D` (the xorshift* multiplier).
    /// `chip+1` keeps chip 0 from collapsing onto the trial seed times
    /// `MIX`, and the final odd multiply decorrelates neighbouring chip
    /// indices so adjacent chips never share leading RNG output. Values
    /// are pinned by a golden test — changing this formula invalidates
    /// every committed fleet trace.
    pub fn chip_seed(&self, seed: u64, trial: usize, chip: usize) -> u64 {
        const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
        const MIX: u64 = 0x2545_F491_4F6C_DD1D;
        (self.derive(seed, trial) ^ (chip as u64 + 1).wrapping_mul(GOLDEN)).wrapping_mul(MIX)
    }
}

/// A batch configuration, run on the workload its trial draws once for
/// every arm (see [`Arm`]).
#[derive(Debug, Clone)]
pub struct TrialArm {
    /// Label as it appears in the figure's legend.
    pub label: String,
    /// Scheduling policy.
    pub policy: SchedulerSpec,
    /// Power-management algorithm.
    pub manager: ManagerSpec,
    /// Power constraints.
    pub budget: PowerBudget,
    /// Timeline parameters (arms may differ, e.g. a DVFS-interval sweep).
    pub runtime: RuntimeConfig,
    /// XOR salt for this arm's RNG: the arm runs with a fresh
    /// `SimRng::seed_from(trial_seed ^ salt)` so every arm of a trial
    /// sees identical stochastic inputs. `None` continues the trial's
    /// setup RNG instead (single-arm specs that want one unbroken
    /// random stream per trial).
    pub rng_salt: Option<u64>,
}

/// A serving configuration, which draws its own jobs (see [`Arm`]).
#[derive(Debug, Clone)]
pub struct OnlineArm {
    /// Label as it appears in the figure's legend / CSV.
    pub label: String,
    /// Scheduling policy.
    pub policy: SchedulerSpec,
    /// Power-management algorithm.
    pub manager: ManagerSpec,
    /// Power constraints.
    pub budget: PowerBudget,
    /// Serving configuration (timeline, arrival process, migration
    /// penalty).
    pub config: OnlineConfig,
    /// XOR salt for this arm's RNG, exactly as in [`TrialArm`]: salted
    /// arms of one trial replay the identical workload and arrival
    /// schedule, so arm differences isolate the policy.
    pub rng_salt: Option<u64>,
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::TrialArm {}
    impl Sealed for super::OnlineArm {}
}

/// The arm kinds a [`TrialSpec`] can hold: [`TrialArm`] and
/// [`OnlineArm`]. Every trial runs the same protocol for both; this
/// sealed trait states the two choices in which they differ.
///
/// * **Workload.** A batch trial draws one workload after building its
///   machine and hands it to every arm; an online arm draws its
///   residents and arrivals from its own RNG inside the run.
/// * **Configuration.** The builder checks a batch arm's
///   [`RuntimeConfig`] and an online arm's [`OnlineConfig`].
///
/// Both kinds run their arms one after another on the trial's machine.
/// No arm inherits anything from the one before it: every run starts
/// by loading its threads, which resets the machine's whole run-time
/// state (temperatures included) to that of a cold machine.
pub trait Arm: sealed::Sealed + Sync + Sized {
    /// What one run of the arm returns.
    type Outcome: Send;
    /// What a trial draws once and shares with all of its arms.
    type Workload;

    /// Checks the spec's workload and every arm's configuration and
    /// manager spec.
    fn validate(spec: &TrialSpec<'_, Self>) -> Result<(), TrialError>;

    /// Draws the trial's shared workload from the trial RNG.
    fn draw(spec: &TrialSpec<'_, Self>, rng: &mut SimRng) -> Self::Workload;

    /// The arm's RNG salt (see [`TrialArm::rng_salt`]).
    fn rng_salt(&self) -> Option<u64>;

    /// Runs the arm on the trial's machine.
    fn run(
        &self,
        spec: &TrialSpec<'_, Self>,
        workload: &Self::Workload,
        machine: &mut Machine,
        fault_plan: &FaultPlan,
        rng: &mut SimRng,
        observer: &mut dyn TrialObserver,
    ) -> Result<Self::Outcome, TrialError>;
}

impl Arm for TrialArm {
    type Outcome = TrialOutcome;
    type Workload = Workload;

    fn validate(spec: &TrialSpec<'_, Self>) -> Result<(), TrialError> {
        if spec.threads == 0 {
            return Err(TrialError::EmptyWorkload);
        }
        spec.check_draw(spec.threads, true)?;
        for arm in &spec.arms {
            arm.runtime.validate()?;
            arm.manager.validate(&arm.runtime)?;
        }
        Ok(())
    }

    fn draw(spec: &TrialSpec<'_, Self>, rng: &mut SimRng) -> Workload {
        Workload::draw_mix(spec.pool, spec.threads, spec.mix, rng)
    }

    fn rng_salt(&self) -> Option<u64> {
        self.rng_salt
    }

    fn run(
        &self,
        _spec: &TrialSpec<'_, Self>,
        workload: &Workload,
        machine: &mut Machine,
        fault_plan: &FaultPlan,
        rng: &mut SimRng,
        observer: &mut dyn TrialObserver,
    ) -> Result<TrialOutcome, TrialError> {
        run_trial(
            machine,
            workload,
            self.policy,
            self.manager,
            self.budget,
            &self.runtime,
            fault_plan,
            rng,
            observer,
        )
    }
}

impl Arm for OnlineArm {
    type Outcome = OnlineOutcome;
    type Workload = ();

    fn validate(spec: &TrialSpec<'_, Self>) -> Result<(), TrialError> {
        for arm in &spec.arms {
            let config = &arm.config;
            config.validate()?;
            arm.manager.validate(&config.runtime)?;
            let draws = config.initial_jobs > 0 || config.arrivals.rate_per_s > 0.0;
            spec.check_draw(config.initial_jobs, draws)?;
        }
        Ok(())
    }

    fn draw(_spec: &TrialSpec<'_, Self>, _rng: &mut SimRng) {}

    fn rng_salt(&self) -> Option<u64> {
        self.rng_salt
    }

    fn run(
        &self,
        spec: &TrialSpec<'_, Self>,
        _workload: &(),
        machine: &mut Machine,
        fault_plan: &FaultPlan,
        rng: &mut SimRng,
        observer: &mut dyn TrialObserver,
    ) -> Result<OnlineOutcome, TrialError> {
        run_online(
            machine,
            spec.pool,
            spec.mix,
            self.policy,
            self.manager,
            self.budget,
            &self.config,
            fault_plan,
            rng,
            observer,
        )
    }
}

/// A batch of independent trials: each manufactures a fresh die from
/// its own seed, then runs every arm on it ([`Arm`] says what differs
/// between batch and serving arms).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TrialSpec<'a, A = TrialArm> {
    /// Shared floorplan/die-generator/machine-config context.
    pub ctx: &'a Context,
    /// Application pool workloads and jobs are drawn from.
    pub pool: &'a [cmpsim::AppSpec],
    /// Applications per batch workload. Online arms draw their own
    /// jobs ([`OnlineConfig::initial_jobs`] and arrivals) and ignore it.
    pub threads: usize,
    /// Which applications the draws admit.
    pub mix: Mix,
    /// Number of independent trials.
    pub trials: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Per-trial seed derivation.
    pub plan: SeedPlan,
    /// The configurations compared within each trial.
    pub arms: Vec<A>,
    /// Sensor/core faults injected into every trial ([`FaultPlan::none`]
    /// disables injection entirely). Each trial re-seeds the plan with
    /// `plan.seed ^ trial_seed`, and all arms of one trial share it, so
    /// arm comparisons see identical fault timelines.
    pub fault_plan: FaultPlan,
}

/// The serving spec under its earlier name, kept for the repository
/// benchmark crate.
pub type OnlineTrialSpec<'a> = TrialSpec<'a, OnlineArm>;

impl<'a, A: Arm> TrialSpec<'a, A> {
    /// A builder over the required context and pool; remaining fields
    /// start from the same defaults every experiment uses (1 thread,
    /// balanced mix, 1 trial, seed 0, default seed plan, no arms, no
    /// faults).
    pub fn builder(ctx: &'a Context, pool: &'a [cmpsim::AppSpec]) -> TrialSpecBuilder<'a, A> {
        TrialSpecBuilder {
            inner: TrialSpec {
                ctx,
                pool,
                threads: 1,
                mix: Mix::Balanced,
                trials: 1,
                seed: 0,
                plan: SeedPlan::default(),
                arms: Vec::new(),
                fault_plan: FaultPlan::none(),
            },
        }
    }

    /// Checks a draw of `threads` applications per trial: they must fit
    /// on the machine, and when the trial draws from the pool at all
    /// (`draws`), the mix must admit at least one application.
    fn check_draw(&self, threads: usize, draws: bool) -> Result<(), TrialError> {
        let cores = self.ctx.floorplan().core_count();
        if threads > cores {
            return Err(TrialError::WorkloadTooLarge { threads, cores });
        }
        if draws && !self.pool.iter().any(|app| self.mix.admits(app)) {
            return Err(TrialError::EmptyMix(self.mix));
        }
        Ok(())
    }
}

/// Builder for [`TrialSpec`].
#[derive(Debug, Clone)]
pub struct TrialSpecBuilder<'a, A> {
    inner: TrialSpec<'a, A>,
}

/// Builder methods that each set the [`TrialSpec`] field of their name.
macro_rules! setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty;)*) => {$(
        $(#[$doc])*
        pub fn $field(mut self, $field: $ty) -> Self {
            self.inner.$field = $field;
            self
        }
    )*};
}

impl TrialSpecBuilder<'_, TrialArm> {
    setters! {
        /// Applications per batch workload.
        threads: usize;
    }
}

impl<'a, A: Arm> TrialSpecBuilder<'a, A> {
    setters! {
        /// Which applications the draws admit.
        mix: Mix;
        /// Number of independent trials.
        trials: usize;
        /// Experiment seed.
        seed: u64;
        /// Per-trial seed derivation.
        plan: SeedPlan;
        /// Replaces the arm list.
        arms: Vec<A>;
        /// Fault plan injected into every trial.
        fault_plan: FaultPlan;
    }

    /// Appends one arm.
    pub fn arm(mut self, arm: A) -> Self {
        self.inner.arms.push(arm);
        self
    }

    /// Validates what every trial draws ([`Arm::validate`]), every
    /// arm's configuration and manager spec, and the fault plan against
    /// the context's machine, and returns the spec.
    pub fn build(self) -> Result<TrialSpec<'a, A>, TrialError> {
        A::validate(&self.inner)?;
        self.inner
            .fault_plan
            .validate(self.inner.ctx.floorplan().core_count())?;
        Ok(self.inner)
    }
}

/// One arm's result within one trial.
#[derive(Debug, Clone)]
pub struct ArmRun<O = TrialOutcome> {
    /// The arm's outcome.
    pub outcome: O,
    /// Wall-clock seconds this arm took (host time, not simulated).
    pub wall_s: f64,
}

/// All arms of one trial, in spec order.
#[derive(Debug, Clone)]
pub struct TrialResult<O = TrialOutcome> {
    /// Trial index within the batch.
    pub trial: usize,
    /// The derived seed this trial ran from.
    pub trial_seed: u64,
    /// One entry per [`TrialSpec::arms`] element.
    pub arms: Vec<ArmRun<O>>,
}

/// The serving result under its earlier name, kept for the repository
/// benchmark crate.
pub type OnlineTrialResult = TrialResult<OnlineOutcome>;

impl<O> TrialResult<O> {
    /// The outcomes alone, in arm order (wall-clock stripped — this is
    /// what determinism comparisons should use).
    pub fn outcomes(&self) -> Vec<&O> {
        self.arms.iter().map(|a| &a.outcome).collect()
    }
}

/// Executes [`TrialSpec`] batches, optionally across OS threads.
///
/// Trials are embarrassingly parallel — each derives all randomness
/// from its own seed — so the result vector is identical to a
/// sequential run regardless of thread scheduling (asserted by
/// `tests/engine.rs`).
#[derive(Debug, Clone, Copy)]
pub struct TrialRunner {
    workers: usize,
}

impl Default for TrialRunner {
    fn default() -> Self {
        Self::new()
    }
}

/// Process-wide worker-count override for [`TrialRunner::new`]
/// (0 = use `available_parallelism`). Lets CLI entry points expose a
/// `--threads` flag without threading a runner through every
/// experiment signature.
static DEFAULT_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker count [`TrialRunner::new`] uses from here on.
/// Pass 0 to restore the default (`available_parallelism`).
pub fn set_default_workers(workers: usize) {
    DEFAULT_WORKERS.store(workers, Ordering::Relaxed);
}

impl TrialRunner {
    /// A runner using the process-wide default: the count set by
    /// [`set_default_workers`], or every available core.
    pub fn new() -> Self {
        let workers = match DEFAULT_WORKERS.load(Ordering::Relaxed) {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        };
        Self { workers }
    }

    /// A single-threaded runner.
    pub fn sequential() -> Self {
        Self { workers: 1 }
    }

    /// A runner with an explicit worker count.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers > 0, "runner needs at least one worker");
        Self { workers }
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every trial of the spec, returning results in trial order.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any trial.
    pub fn run<A: Arm>(&self, spec: &TrialSpec<'_, A>) -> Vec<TrialResult<A::Outcome>> {
        self.map(spec.trials, |trial| {
            run_one(spec, trial, |_| NullObserver).0
        })
    }

    /// Like [`TrialRunner::run`], but builds one observer per arm (via
    /// `make(arm_index)`) and returns them alongside each trial's
    /// result, in arm order.
    pub fn run_observed<A: Arm, O: TrialObserver + Send>(
        &self,
        spec: &TrialSpec<'_, A>,
        make: impl Fn(usize) -> O + Sync,
    ) -> Vec<(TrialResult<A::Outcome>, Vec<O>)> {
        self.map(spec.trials, |trial| run_one(spec, trial, &make))
    }

    /// [`TrialRunner::run`] under its earlier serving name, kept for the
    /// repository benchmark crate.
    pub fn run_online(&self, spec: &OnlineTrialSpec<'_>) -> Vec<OnlineTrialResult> {
        self.run(spec)
    }

    /// [`TrialRunner::run_observed`] under its earlier serving name,
    /// kept for the repository benchmark crate.
    pub fn run_online_observed<O: TrialObserver + Send>(
        &self,
        spec: &OnlineTrialSpec<'_>,
        make: impl Fn(usize) -> O + Sync,
    ) -> Vec<(OnlineTrialResult, Vec<O>)> {
        self.run_observed(spec, make)
    }

    /// Runs `count` independent jobs across the workers and returns
    /// their results in job order — the generic substrate under
    /// [`TrialRunner::run`], also used directly by experiments whose
    /// per-job work is not a machine trial (e.g. die-batch statistics).
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job.
    pub fn map<T: Send>(&self, count: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let workers = self.workers.min(count.max(1));
        if workers <= 1 || count <= 1 {
            return (0..count).map(job).collect();
        }
        // Workers claim job indices from one counter; sorting by index
        // restores job order whatever the interleaving.
        let next = AtomicUsize::new(0);
        let mut produced: Vec<(usize, T)> = std::thread::scope(|scope| {
            let worker = || {
                let mut produced = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        return produced;
                    }
                    produced.push((i, job(i)));
                }
            };
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("trial job panicked"))
                .collect()
        });
        produced.sort_unstable_by_key(|&(i, _)| i);
        produced.into_iter().map(|(_, value)| value).collect()
    }
}

/// Runs one trial of a spec: seed → die → machine → shared workload →
/// arms, each arm with its salted RNG or the continued trial RNG.
fn run_one<A: Arm, O: TrialObserver>(
    spec: &TrialSpec<'_, A>,
    trial: usize,
    make: impl Fn(usize) -> O,
) -> (TrialResult<A::Outcome>, Vec<O>) {
    let trial_seed = spec.plan.derive(spec.seed, trial);
    let mut rng = SimRng::seed_from(trial_seed);
    let die = spec.ctx.make_die(&mut rng);
    let mut machine = spec.ctx.make_machine(&die);
    let workload = A::draw(spec, &mut rng);
    // Every arm of this trial shares one fault timeline, re-seeded per
    // trial so trials see independent fault noise.
    let fault_plan = spec
        .fault_plan
        .clone()
        .with_seed(spec.fault_plan.seed ^ trial_seed);
    let (arms, observers) = spec
        .arms
        .iter()
        .enumerate()
        .map(|(ai, arm)| {
            let mut observer = make(ai);
            let start = Instant::now();
            let mut salted = arm
                .rng_salt()
                .map(|salt| SimRng::seed_from(trial_seed ^ salt));
            let rng = salted.as_mut().unwrap_or(&mut rng);
            let outcome = arm
                .run(
                    spec,
                    &workload,
                    &mut machine,
                    &fault_plan,
                    rng,
                    &mut observer,
                )
                .unwrap_or_else(|e| panic!("trial failed: {e}"));
            let wall_s = start.elapsed().as_secs_f64();
            (ArmRun { outcome, wall_s }, observer)
        })
        .unzip();
    let result = TrialResult {
        trial,
        trial_seed,
        arms,
    };
    (result, observers)
}

/// Per-arm mean over trials of `metric(outcome) / metric(first arm)` —
/// the normalization every relative figure uses (the first arm is the
/// baseline and averages to exactly 1).
///
/// # Panics
///
/// Panics if `results` is empty or any trial has no arms.
pub fn mean_relative<O>(results: &[TrialResult<O>], metric: impl Fn(&O) -> f64) -> Vec<f64> {
    mean_relative_to(results, 0, metric)
}

/// Like [`mean_relative`] with an arbitrary baseline arm (e.g. a sweep
/// normalized to its middle point).
///
/// # Panics
///
/// Panics if `results` is empty or `baseline` is out of range.
pub fn mean_relative_to<O>(
    results: &[TrialResult<O>],
    baseline: usize,
    metric: impl Fn(&O) -> f64,
) -> Vec<f64> {
    mean_over(results, |r| metric(&r.arms[baseline].outcome), &metric)
}

/// Per-arm mean over trials of `metric(outcome)`, unnormalized.
///
/// # Panics
///
/// Panics if `results` is empty.
pub fn mean_metric<O>(results: &[TrialResult<O>], metric: impl Fn(&O) -> f64) -> Vec<f64> {
    // Division by 1 is exact, so every sum keeps its bits.
    mean_over(results, |_| 1.0, metric)
}

/// Per-arm mean over trials of `metric(outcome) / base(trial)`.
fn mean_over<O>(
    results: &[TrialResult<O>],
    base: impl Fn(&TrialResult<O>) -> f64,
    metric: impl Fn(&O) -> f64,
) -> Vec<f64> {
    assert!(!results.is_empty(), "no trials to average");
    let mut sums = vec![0.0f64; results[0].arms.len()];
    for r in results {
        let base = base(r);
        for (ai, arm) in r.arms.iter().enumerate() {
            sums[ai] += metric(&arm.outcome) / base;
        }
    }
    sums.iter().map(|s| s / results.len() as f64).collect()
}

/// Prepares the standard machine state the optimizer-level experiments
/// probe: manufacture a die from `rng`, draw `threads` applications,
/// map them to the first cores, and take one 1 ms step to populate the
/// power/IPC sensors. The `rng` continues past the draw so callers can
/// feed it to stochastic optimizers.
pub fn loaded_machine(
    ctx: &Context,
    pool: &[cmpsim::AppSpec],
    threads: usize,
    rng: &mut SimRng,
) -> Machine {
    let die = ctx.make_die(rng);
    let mut machine = ctx.make_machine(&die);
    let workload = Workload::draw(pool, threads, rng);
    machine.load_threads(workload.spawn_threads(rng));
    let mut mapping = vec![None; machine.core_count()];
    for t in 0..threads {
        mapping[t] = Some(t);
    }
    machine.assign(&mapping);
    machine.step(0.001);
    machine
}

/// A [`TrialObserver`] that records a full [`Telemetry`] trace of the
/// trial it observes.
#[derive(Debug, Clone, Default)]
pub struct TelemetryObserver {
    telemetry: Telemetry,
}

impl TelemetryObserver {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded trace.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

impl TrialObserver for TelemetryObserver {
    fn on_step(&mut self, machine: &Machine, stats: &StepStats) {
        self.telemetry.record(machine, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;
    use crate::runtime::FreqMode;
    use cmpsim::app_pool;

    fn spec_fixture<'a>(ctx: &'a Context, pool: &'a [cmpsim::AppSpec]) -> TrialSpec<'a> {
        let runtime = RuntimeConfig {
            duration_ms: 60.0,
            os_interval_ms: 30.0,
            freq_mode: FreqMode::NonUniform,
            ..RuntimeConfig::paper_default()
        };
        TrialSpec::builder(ctx, pool)
            .threads(4)
            .mix(Mix::Balanced)
            .trials(3)
            .seed(77)
            .plan(SeedPlan {
                mul: 1_000_003,
                offset: 4_000,
                stride: 1,
            })
            .arm(TrialArm {
                label: "Random".into(),
                policy: SchedulerSpec::Random,
                manager: ManagerSpec::None,
                budget: PowerBudget::high_performance(4),
                runtime,
                rng_salt: Some(0xABCD),
            })
            .arm(TrialArm {
                label: "VarF&AppIPC".into(),
                policy: SchedulerSpec::VarFAppIpc,
                manager: ManagerSpec::None,
                budget: PowerBudget::high_performance(4),
                runtime,
                rng_salt: Some(0xABCD),
            })
            .build()
            .expect("fixture spec is valid")
    }

    #[test]
    fn seed_plan_matches_legacy_formulas() {
        let plan = SeedPlan {
            mul: 1_000_003,
            offset: 8 * 1000,
            stride: 1,
        };
        let seed = 42u64;
        assert_eq!(
            plan.derive(seed, 5),
            seed.wrapping_mul(1_000_003).wrapping_add(8 * 1000 + 5)
        );
        let stride_plan = SeedPlan {
            stride: 6011,
            ..SeedPlan::default()
        };
        assert_eq!(stride_plan.derive(seed, 3), seed.wrapping_add(3 * 6011));
    }

    #[test]
    fn chip_seed_matches_golden_values() {
        // Golden values for the per-chip sub-seed derivation. These pin
        // the formula itself: every committed fleet trace replays from
        // these seeds, so a change here is a breaking change to the
        // fleet determinism contract (regenerate tests/golden/ fleet
        // files if the formula ever moves deliberately).
        let plan = SeedPlan::default();
        assert_eq!(plan.chip_seed(42, 0, 0), 0x187f_0859_9446_7623);
        assert_eq!(plan.chip_seed(42, 0, 1), 0xd88f_b12e_10f8_1800);
        assert_eq!(plan.chip_seed(42, 0, 2), 0xd394_99b0_9d62_4761);
        assert_eq!(plan.chip_seed(42, 0, 255), 0x2262_a263_720b_a7c2);
        let salted = SeedPlan {
            mul: 1_000_003,
            offset: 95_000,
            stride: 1,
        };
        assert_eq!(salted.chip_seed(2008, 3, 7), 0x5b51_35aa_09ef_103f);
        // Neighbouring chips of the same trial never collide.
        let seeds: Vec<u64> = (0..64).map(|c| plan.chip_seed(42, 0, c)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "chip seeds must be distinct");
    }

    #[test]
    fn runner_produces_one_result_per_trial_in_order() {
        let scale = Scale::smoke();
        let ctx = Context::new(scale.grid);
        let pool = app_pool(&ctx.machine_config().dynamic);
        let spec = spec_fixture(&ctx, &pool);
        let results = TrialRunner::sequential().run(&spec);
        assert_eq!(results.len(), 3);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.trial, i);
            assert_eq!(r.trial_seed, spec.plan.derive(spec.seed, i));
            assert_eq!(r.arms.len(), 2);
            for arm in &r.arms {
                assert!(arm.outcome.mips > 0.0);
                assert!(arm.wall_s >= 0.0);
            }
        }
    }

    #[test]
    fn mean_relative_baseline_is_one() {
        let scale = Scale::smoke();
        let ctx = Context::new(scale.grid);
        let pool = app_pool(&ctx.machine_config().dynamic);
        let spec = spec_fixture(&ctx, &pool);
        let results = TrialRunner::sequential().run(&spec);
        let rel = mean_relative(&results, |o| o.mips);
        assert_eq!(rel.len(), 2);
        assert!((rel[0] - 1.0).abs() < 1e-12, "baseline normalizes to 1");
        assert!(rel[1] > 0.0);
    }

    #[test]
    fn telemetry_observer_captures_every_tick() {
        let scale = Scale::smoke();
        let ctx = Context::new(scale.grid);
        let pool = app_pool(&ctx.machine_config().dynamic);
        let mut spec = spec_fixture(&ctx, &pool);
        spec.trials = 1;
        let results = TrialRunner::sequential().run_observed(&spec, |_| TelemetryObserver::new());
        assert_eq!(results.len(), 1);
        let (_, observers) = &results[0];
        assert_eq!(observers.len(), 2);
        for obs in observers {
            // 60 ms at 1 ms ticks.
            assert_eq!(obs.telemetry().len(), 60);
            assert!(obs.telemetry().peak_power_w() > 0.0);
        }
    }

    #[test]
    fn map_preserves_job_order() {
        let out = TrialRunner::with_workers(4).map(16, |i| i * i);
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    fn online_spec_fixture<'a>(
        ctx: &'a Context,
        pool: &'a [cmpsim::AppSpec],
    ) -> TrialSpec<'a, OnlineArm> {
        let config = OnlineConfig {
            runtime: RuntimeConfig {
                duration_ms: 60.0,
                os_interval_ms: 30.0,
                ..RuntimeConfig::paper_default()
            },
            arrivals: crate::online::ArrivalConfig::poisson(300.0, 30.0e6),
            initial_jobs: 0,
            migration_penalty_ms: 0.1,
            service: crate::online::ServicePolicy::default(),
        };
        TrialSpec::builder(ctx, pool)
            .mix(Mix::Balanced)
            .trials(3)
            .seed(91)
            .plan(SeedPlan {
                mul: 1_000_003,
                offset: 7_000,
                stride: 1,
            })
            .arm(OnlineArm {
                label: "Foxton*".into(),
                policy: SchedulerSpec::VarFAppIpc,
                manager: ManagerSpec::FoxtonStar,
                budget: PowerBudget::cost_performance(20),
                config,
                rng_salt: Some(0x0111),
            })
            .arm(OnlineArm {
                label: "LinOpt".into(),
                policy: SchedulerSpec::VarFAppIpc,
                manager: ManagerSpec::LinOpt,
                budget: PowerBudget::cost_performance(20),
                config,
                rng_salt: Some(0x0111),
            })
            .build()
            .expect("fixture spec is valid")
    }

    #[test]
    fn online_runner_is_deterministic_across_worker_counts() {
        let scale = Scale::smoke();
        let ctx = Context::new(scale.grid);
        let pool = app_pool(&ctx.machine_config().dynamic);
        let spec = online_spec_fixture(&ctx, &pool);
        let sequential = TrialRunner::sequential().run(&spec);
        let parallel = TrialRunner::with_workers(4).run(&spec);
        assert_eq!(sequential.len(), 3);
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.trial, p.trial);
            assert_eq!(s.trial_seed, p.trial_seed);
            assert_eq!(s.outcomes(), p.outcomes(), "worker count leaked in");
            for (sa, pa) in s.arms.iter().zip(&p.arms) {
                assert_eq!(
                    sa.outcome.trace(),
                    pa.outcome.trace(),
                    "event traces must be byte-identical"
                );
            }
        }
    }

    #[test]
    fn online_salted_arms_replay_the_same_job_stream() {
        let scale = Scale::smoke();
        let ctx = Context::new(scale.grid);
        let pool = app_pool(&ctx.machine_config().dynamic);
        let mut spec = online_spec_fixture(&ctx, &pool);
        spec.trials = 1;
        let results = TrialRunner::sequential().run(&spec);
        let [fox, lin] = &results[0].outcomes()[..] else {
            panic!("two arms expected");
        };
        assert_eq!(fox.arrived, lin.arrived);
        let key = |o: &OnlineOutcome| -> Vec<(f64, &'static str, f64)> {
            o.jobs
                .iter()
                .map(|j| (j.arrival_ms, j.app, j.instructions))
                .collect()
        };
        assert_eq!(key(fox), key(lin), "arms must serve the same jobs");
        assert!(fox.completed > 0 && lin.completed > 0);
    }
}
