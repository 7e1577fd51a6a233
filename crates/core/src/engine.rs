//! The trial engine: declarative die-batch × workload × policy fan-out.
//!
//! Every figure experiment in [`crate::experiments`] runs the same
//! protocol: derive a per-trial seed, manufacture a die, build the
//! machine, draw a workload, then run one or more *arms* — (scheduler,
//! manager, budget, runtime) configurations — against that same (die,
//! workload) pair and compare them. This module owns that protocol once:
//!
//! * [`TrialSpec`] — the declarative description of a batch (context,
//!   workload size, trial count, seed derivation, arms);
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
//!   TrialSpec ──► TrialRunner ──► run_trial ──► OnlineSim ──► Machine
//!                     │                   │
//!                     │                   └──► TrialObserver (telemetry, timing)
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

/// One configuration run against each trial's (die, workload) pair.
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

/// One serving configuration run against each trial's die in an
/// [`OnlineTrialSpec`] — the open-system counterpart of [`TrialArm`].
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

/// A batch of independent online serving trials: each manufactures a
/// fresh die from its own seed, then serves every arm's arrival
/// process on that die. Seed derivation and parallel execution follow
/// the batch [`TrialSpec`] exactly.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct OnlineTrialSpec<'a> {
    /// Shared floorplan/die-generator/machine-config context.
    pub ctx: &'a Context,
    /// Application pool jobs are drawn from.
    pub pool: &'a [cmpsim::AppSpec],
    /// Which applications the draw admits.
    pub mix: Mix,
    /// Number of independent trials.
    pub trials: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Per-trial seed derivation.
    pub plan: SeedPlan,
    /// The serving configurations compared within each trial.
    pub arms: Vec<OnlineArm>,
    /// Sensor/core faults injected into every trial ([`FaultPlan::none`]
    /// disables injection entirely). Each trial re-seeds the plan with
    /// `plan.seed ^ trial_seed`, and all arms of one trial share it, so
    /// arm comparisons see identical fault timelines.
    pub fault_plan: FaultPlan,
}

impl<'a> OnlineTrialSpec<'a> {
    /// A builder over the required context and pool; remaining fields
    /// start from the same defaults every experiment uses (balanced
    /// mix, 1 trial, seed 0, default seed plan, no arms, no faults).
    pub fn builder(ctx: &'a Context, pool: &'a [cmpsim::AppSpec]) -> OnlineTrialSpecBuilder<'a> {
        OnlineTrialSpecBuilder {
            inner: OnlineTrialSpec {
                ctx,
                pool,
                mix: Mix::Balanced,
                trials: 1,
                seed: 0,
                plan: SeedPlan::default(),
                arms: Vec::new(),
                fault_plan: FaultPlan::none(),
            },
        }
    }
}

/// Builder for [`OnlineTrialSpec`].
#[derive(Debug, Clone)]
pub struct OnlineTrialSpecBuilder<'a> {
    inner: OnlineTrialSpec<'a>,
}

impl<'a> OnlineTrialSpecBuilder<'a> {
    /// Which applications the workload draw admits.
    pub fn mix(mut self, mix: Mix) -> Self {
        self.inner.mix = mix;
        self
    }

    /// Number of independent trials.
    pub fn trials(mut self, trials: usize) -> Self {
        self.inner.trials = trials;
        self
    }

    /// Experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Per-trial seed derivation.
    pub fn plan(mut self, plan: SeedPlan) -> Self {
        self.inner.plan = plan;
        self
    }

    /// Appends one serving arm.
    pub fn arm(mut self, arm: OnlineArm) -> Self {
        self.inner.arms.push(arm);
        self
    }

    /// Replaces the arm list.
    pub fn arms(mut self, arms: Vec<OnlineArm>) -> Self {
        self.inner.arms = arms;
        self
    }

    /// Fault plan injected into every trial.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.inner.fault_plan = plan;
        self
    }

    /// Validates every arm's configuration and manager spec and the
    /// fault plan against the context's machine, and returns the spec.
    pub fn build(self) -> Result<OnlineTrialSpec<'a>, TrialError> {
        for arm in &self.inner.arms {
            arm.config.validate()?;
            arm.manager.validate(&arm.config.runtime)?;
        }
        self.inner
            .fault_plan
            .validate(self.inner.ctx.floorplan().core_count())?;
        Ok(self.inner)
    }
}

/// One online arm's result within one trial.
#[derive(Debug, Clone)]
pub struct OnlineArmRun {
    /// The serving outcome.
    pub outcome: OnlineOutcome,
    /// Wall-clock seconds this arm took (host time, not simulated).
    pub wall_s: f64,
}

/// All online arms of one trial, in spec order.
#[derive(Debug, Clone)]
pub struct OnlineTrialResult {
    /// Trial index within the batch.
    pub trial: usize,
    /// The derived seed this trial ran from.
    pub trial_seed: u64,
    /// One entry per [`OnlineTrialSpec::arms`] element.
    pub arms: Vec<OnlineArmRun>,
}

impl OnlineTrialResult {
    /// The outcomes alone, in arm order (wall-clock stripped — this is
    /// what determinism comparisons should use).
    pub fn outcomes(&self) -> Vec<&OnlineOutcome> {
        self.arms.iter().map(|a| &a.outcome).collect()
    }
}

/// A batch of independent trials: each manufactures a fresh die and
/// workload from its own seed, then runs every arm on that pair.
///
/// Machine state (thermal history in particular) carries over from arm
/// to arm within a trial, as the figure experiments always ran them.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TrialSpec<'a> {
    /// Shared floorplan/die-generator/machine-config context.
    pub ctx: &'a Context,
    /// Application pool workloads are drawn from.
    pub pool: &'a [cmpsim::AppSpec],
    /// Applications per workload.
    pub threads: usize,
    /// Which applications the draw admits.
    pub mix: Mix,
    /// Number of independent trials.
    pub trials: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Per-trial seed derivation.
    pub plan: SeedPlan,
    /// The configurations compared within each trial.
    pub arms: Vec<TrialArm>,
    /// Sensor/core faults injected into every trial ([`FaultPlan::none`]
    /// disables injection entirely). Each trial re-seeds the plan with
    /// `plan.seed ^ trial_seed`, and all arms of one trial share it, so
    /// arm comparisons see identical fault timelines.
    pub fault_plan: FaultPlan,
}

impl<'a> TrialSpec<'a> {
    /// A builder over the required context and pool; remaining fields
    /// start from the same defaults every experiment uses (1 thread,
    /// balanced mix, 1 trial, seed 0, default seed plan, no arms, no
    /// faults).
    pub fn builder(ctx: &'a Context, pool: &'a [cmpsim::AppSpec]) -> TrialSpecBuilder<'a> {
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
}

/// Builder for [`TrialSpec`].
#[derive(Debug, Clone)]
pub struct TrialSpecBuilder<'a> {
    inner: TrialSpec<'a>,
}

impl<'a> TrialSpecBuilder<'a> {
    /// Applications per workload.
    pub fn threads(mut self, threads: usize) -> Self {
        self.inner.threads = threads;
        self
    }

    /// Which applications the workload draw admits.
    pub fn mix(mut self, mix: Mix) -> Self {
        self.inner.mix = mix;
        self
    }

    /// Number of independent trials.
    pub fn trials(mut self, trials: usize) -> Self {
        self.inner.trials = trials;
        self
    }

    /// Experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Per-trial seed derivation.
    pub fn plan(mut self, plan: SeedPlan) -> Self {
        self.inner.plan = plan;
        self
    }

    /// Appends one arm.
    pub fn arm(mut self, arm: TrialArm) -> Self {
        self.inner.arms.push(arm);
        self
    }

    /// Replaces the arm list.
    pub fn arms(mut self, arms: Vec<TrialArm>) -> Self {
        self.inner.arms = arms;
        self
    }

    /// Fault plan injected into every trial.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.inner.fault_plan = plan;
        self
    }

    /// Validates every arm's runtime configuration and manager spec, the
    /// workload size, and the fault plan against the context's machine,
    /// and returns the spec.
    pub fn build(self) -> Result<TrialSpec<'a>, TrialError> {
        let cores = self.inner.ctx.floorplan().core_count();
        if self.inner.threads > cores {
            return Err(TrialError::WorkloadTooLarge {
                threads: self.inner.threads,
                cores,
            });
        }
        for arm in &self.inner.arms {
            arm.runtime.validate()?;
            arm.manager.validate(&arm.runtime)?;
        }
        self.inner.fault_plan.validate(cores)?;
        Ok(self.inner)
    }
}

/// One arm's result within one trial.
#[derive(Debug, Clone)]
pub struct ArmRun {
    /// The trial outcome.
    pub outcome: TrialOutcome,
    /// Wall-clock seconds this arm took (host time, not simulated).
    pub wall_s: f64,
}

/// All arms of one trial, in spec order.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// Trial index within the batch.
    pub trial: usize,
    /// The derived seed this trial ran from.
    pub trial_seed: u64,
    /// One entry per [`TrialSpec::arms`] element.
    pub arms: Vec<ArmRun>,
}

impl TrialResult {
    /// The outcomes alone, in arm order (wall-clock stripped — this is
    /// what determinism comparisons should use).
    pub fn outcomes(&self) -> Vec<&TrialOutcome> {
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
static DEFAULT_WORKERS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Sets the worker count [`TrialRunner::new`] uses from here on.
/// Pass 0 to restore the default (`available_parallelism`).
pub fn set_default_workers(workers: usize) {
    DEFAULT_WORKERS.store(workers, std::sync::atomic::Ordering::Relaxed);
}

impl TrialRunner {
    /// A runner using the process-wide default: the count set by
    /// [`set_default_workers`], or every available core.
    pub fn new() -> Self {
        let workers = match DEFAULT_WORKERS.load(std::sync::atomic::Ordering::Relaxed) {
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
    pub fn run(&self, spec: &TrialSpec<'_>) -> Vec<TrialResult> {
        self.map(spec.trials, |trial| {
            run_one(spec, trial, |_| NullObserver).0
        })
    }

    /// Like [`TrialRunner::run`], but builds one observer per arm (via
    /// `make(arm_index)`) and returns them alongside each trial's
    /// result, in arm order.
    pub fn run_observed<O, F>(&self, spec: &TrialSpec<'_>, make: F) -> Vec<(TrialResult, Vec<O>)>
    where
        O: TrialObserver + Send,
        F: Fn(usize) -> O + Sync,
    {
        self.map(spec.trials, |trial| run_one(spec, trial, &make))
    }

    /// Runs every online serving trial of the spec, returning results
    /// in trial order — bit-identical across worker counts, exactly as
    /// [`TrialRunner::run`] is for batch trials.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any trial.
    pub fn run_online(&self, spec: &OnlineTrialSpec<'_>) -> Vec<OnlineTrialResult> {
        self.map(spec.trials, |trial| {
            run_one_online(spec, trial, |_| NullObserver).0
        })
    }

    /// Like [`TrialRunner::run_online`], but builds one observer per
    /// arm (via `make(arm_index)`) and returns them alongside each
    /// trial's result, in arm order — the open-system counterpart of
    /// [`TrialRunner::run_observed`].
    pub fn run_online_observed<O, F>(
        &self,
        spec: &OnlineTrialSpec<'_>,
        make: F,
    ) -> Vec<(OnlineTrialResult, Vec<O>)>
    where
        O: TrialObserver + Send,
        F: Fn(usize) -> O + Sync,
    {
        self.map(spec.trials, |trial| run_one_online(spec, trial, &make))
    }

    /// Runs `count` independent jobs across the workers and returns
    /// their results in job order — the generic substrate under
    /// [`TrialRunner::run`], also used directly by experiments whose
    /// per-job work is not a machine trial (e.g. die-batch statistics).
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job.
    pub fn map<T, F>(&self, count: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.workers.min(count.max(1));
        if workers <= 1 || count <= 1 {
            return (0..count).map(job).collect();
        }
        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let job_ref = &job;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let next = &next;
                handles.push(scope.spawn(move || {
                    let mut produced: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= count {
                            return produced;
                        }
                        produced.push((i, job_ref(i)));
                    }
                }));
            }
            for handle in handles {
                for (i, value) in handle.join().expect("trial job panicked") {
                    slots[i] = Some(value);
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect()
    }
}

/// Runs one trial of a spec: seed → die → machine → workload → arms.
fn run_one<O, F>(spec: &TrialSpec<'_>, trial: usize, make: F) -> (TrialResult, Vec<O>)
where
    O: TrialObserver,
    F: Fn(usize) -> O,
{
    let trial_seed = spec.plan.derive(spec.seed, trial);
    let mut rng = SimRng::seed_from(trial_seed);
    let die = spec.ctx.make_die(&mut rng);
    let mut machine = spec.ctx.make_machine(&die);
    let workload = Workload::draw_mix(spec.pool, spec.threads, spec.mix, &mut rng);
    // Every arm of this trial shares one fault timeline, re-seeded per
    // trial so trials see independent fault noise.
    let fault_plan = spec
        .fault_plan
        .clone()
        .with_seed(spec.fault_plan.seed ^ trial_seed);

    let mut arms = Vec::with_capacity(spec.arms.len());
    let mut observers = Vec::with_capacity(spec.arms.len());
    for (ai, arm) in spec.arms.iter().enumerate() {
        let mut observer = make(ai);
        let start = Instant::now();
        let result = match arm.rng_salt {
            Some(salt) => run_trial(
                &mut machine,
                &workload,
                arm.policy,
                arm.manager,
                arm.budget,
                &arm.runtime,
                &fault_plan,
                &mut SimRng::seed_from(trial_seed ^ salt),
                &mut observer,
            ),
            None => run_trial(
                &mut machine,
                &workload,
                arm.policy,
                arm.manager,
                arm.budget,
                &arm.runtime,
                &fault_plan,
                &mut rng,
                &mut observer,
            ),
        };
        let outcome = result.unwrap_or_else(|e| panic!("trial failed: {e}"));
        arms.push(ArmRun {
            outcome,
            wall_s: start.elapsed().as_secs_f64(),
        });
        observers.push(observer);
    }
    (
        TrialResult {
            trial,
            trial_seed,
            arms,
        },
        observers,
    )
}

/// Runs one online trial of a spec: seed → die → machine → arms. The
/// workload (initial residents + arrival schedule) is drawn inside
/// [`run_online`] from each arm's RNG, so salted arms replay the
/// identical job stream.
fn run_one_online<O, F>(
    spec: &OnlineTrialSpec<'_>,
    trial: usize,
    make: F,
) -> (OnlineTrialResult, Vec<O>)
where
    O: TrialObserver,
    F: Fn(usize) -> O,
{
    let trial_seed = spec.plan.derive(spec.seed, trial);
    let mut rng = SimRng::seed_from(trial_seed);
    let die = spec.ctx.make_die(&mut rng);
    let machine = spec.ctx.make_machine(&die);
    // Every arm of this trial shares one fault timeline, re-seeded per
    // trial so trials see independent fault noise.
    let fault_plan = spec
        .fault_plan
        .clone()
        .with_seed(spec.fault_plan.seed ^ trial_seed);

    let mut arms = Vec::with_capacity(spec.arms.len());
    let mut observers = Vec::with_capacity(spec.arms.len());
    for (ai, arm) in spec.arms.iter().enumerate() {
        let mut observer = make(ai);
        let start = Instant::now();
        // Unlike the batch path, every arm serves from the cold
        // manufactured machine: the serving curves compare policies on
        // identical initial conditions, and letting arm N inherit arm
        // N−1's thermal state would tax later arms with the leakage of
        // an already-hot chip — an ordering artifact, not policy.
        let mut arm_machine = machine.clone();
        let result = match arm.rng_salt {
            Some(salt) => run_online(
                &mut arm_machine,
                spec.pool,
                spec.mix,
                arm.policy,
                arm.manager,
                arm.budget,
                &arm.config,
                &fault_plan,
                &mut SimRng::seed_from(trial_seed ^ salt),
                &mut observer,
            ),
            None => run_online(
                &mut arm_machine,
                spec.pool,
                spec.mix,
                arm.policy,
                arm.manager,
                arm.budget,
                &arm.config,
                &fault_plan,
                &mut rng,
                &mut observer,
            ),
        };
        let outcome = result.unwrap_or_else(|e| panic!("online trial failed: {e}"));
        arms.push(OnlineArmRun {
            outcome,
            wall_s: start.elapsed().as_secs_f64(),
        });
        observers.push(observer);
    }
    (
        OnlineTrialResult {
            trial,
            trial_seed,
            arms,
        },
        observers,
    )
}

/// Per-arm mean over trials of `metric(outcome)` for online results,
/// unnormalized — the open-system counterpart of [`mean_metric`].
///
/// # Panics
///
/// Panics if `results` is empty.
pub fn mean_online_metric(
    results: &[OnlineTrialResult],
    metric: impl Fn(&OnlineOutcome) -> f64,
) -> Vec<f64> {
    assert!(!results.is_empty(), "no trials to average");
    let arms = results[0].arms.len();
    let mut sums = vec![0.0f64; arms];
    for r in results {
        for (ai, arm) in r.arms.iter().enumerate() {
            sums[ai] += metric(&arm.outcome);
        }
    }
    sums.iter().map(|s| s / results.len() as f64).collect()
}

/// Per-arm mean over trials of `metric(outcome) / metric(first arm)` —
/// the normalization every relative figure uses (the first arm is the
/// baseline and averages to exactly 1).
///
/// # Panics
///
/// Panics if `results` is empty or any trial has no arms.
pub fn mean_relative(results: &[TrialResult], metric: impl Fn(&TrialOutcome) -> f64) -> Vec<f64> {
    mean_relative_to(results, 0, metric)
}

/// Like [`mean_relative`] with an arbitrary baseline arm (e.g. a sweep
/// normalized to its middle point).
///
/// # Panics
///
/// Panics if `results` is empty or `baseline` is out of range.
pub fn mean_relative_to(
    results: &[TrialResult],
    baseline: usize,
    metric: impl Fn(&TrialOutcome) -> f64,
) -> Vec<f64> {
    assert!(!results.is_empty(), "no trials to average");
    let arms = results[0].arms.len();
    let mut sums = vec![0.0f64; arms];
    for r in results {
        let base = metric(&r.arms[baseline].outcome);
        for (ai, arm) in r.arms.iter().enumerate() {
            sums[ai] += metric(&arm.outcome) / base;
        }
    }
    sums.iter().map(|s| s / results.len() as f64).collect()
}

/// Per-arm mean over trials of `metric(outcome)`, unnormalized.
///
/// # Panics
///
/// Panics if `results` is empty.
pub fn mean_metric(results: &[TrialResult], metric: impl Fn(&TrialOutcome) -> f64) -> Vec<f64> {
    assert!(!results.is_empty(), "no trials to average");
    let arms = results[0].arms.len();
    let mut sums = vec![0.0f64; arms];
    for r in results {
        for (ai, arm) in r.arms.iter().enumerate() {
            sums[ai] += metric(&arm.outcome);
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
    ) -> OnlineTrialSpec<'a> {
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
        OnlineTrialSpec::builder(ctx, pool)
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
        let sequential = TrialRunner::sequential().run_online(&spec);
        let parallel = TrialRunner::with_workers(4).run_online(&spec);
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
        let results = TrialRunner::sequential().run_online(&spec);
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
