//! The serving loop: a deterministic discrete-event simulation over
//! the machine model, and the one tick loop every trial runs on.
//!
//! [`OnlineSim`] runs the paper's timeline — profile → schedule →
//! manage → tick — from an event queue, so the thread set can change
//! mid-run: jobs arrive (pre-drawn Poisson schedule), queue FIFO when
//! every core is busy, retire a per-job instruction budget, and leave.
//! Any membership change re-invokes both the scheduler and the power
//! manager at that tick, and every thread a reschedule moves between
//! cores is charged the migration penalty on its destination core. A
//! batch trial ([`crate::runtime::run_trial`]) is the closed run of
//! this loop over a fixed resident set, and the thermal trial
//! ([`crate::extensions::run_thermal_trial`]) is that run with
//! temperature-triggered migration switched on.
//!
//! [`run_online`] drives an [`OnlineSim`] to completion in one call.
//! Holding the simulation as a value is what enables checkpoint/restore: at any
//! tick boundary [`OnlineSim::checkpoint`] captures the complete
//! mutable state as a [`Snapshot`], and [`OnlineSim::resume`] rebuilds
//! a simulation from one whose subsequent behaviour — events, RNG
//! draws, traces, metrics — is bit-identical to the uninterrupted run.
//!
//! [`super::ServicePolicy`] layers SLO-aware serving on top: per-job
//! deadlines with shed-on-admission load control, and windowed batched
//! rescheduling that defers membership-triggered reschedules to window
//! boundaries instead of paying a migration storm on every arrival and
//! completion. The default policy disables both, keeping the
//! historical per-event path bit for bit.

use super::arrivals::{generate_arrivals, JobSpec};
use super::metrics::LatencyStats;
use super::queue::{EventKind, EventQueue};
use super::snapshot::{SimCounters, Snapshot, SnapshotGuard};
use super::{ArrivalConfig, OnlineConfig, ServicePolicy};
use crate::extensions::{try_migrate, MigrationConfig};
use crate::manager::{DegradationEvent, HardenedManager, ManagerSpec, PowerBudget};
use crate::metrics::{ed2_index, weighted_mips};
use crate::profile::{core_profiles, CoreProfile};
use crate::runtime::{
    place_on_fastest_free, remap, Cadence, RuntimeConfig, TrialError, TrialObserver, TrialOutcome,
};
use crate::sched::{Scheduler, SchedulerSpec};
use cmpsim::{AppSpec, FaultEvent, FaultPlan, Machine, Mix, Thread, Workload};
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use vastats::SimRng;

/// Lifecycle record of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id (initial residents first, then arrival order).
    pub job: usize,
    /// Application the job ran.
    pub app: &'static str,
    /// When the job entered the system (ms; 0 for initial residents).
    pub arrival_ms: f64,
    /// When the job was admitted to a core (`None`: still queued at the
    /// horizon, or shed by admission control).
    pub admit_ms: Option<f64>,
    /// When the job retired its budget (`None`: still running or
    /// queued at the horizon).
    pub completion_ms: Option<f64>,
    /// Instruction budget (`f64::INFINITY` for never-ending residents).
    pub instructions: f64,
    /// Times a reschedule moved this job between cores.
    pub migrations: usize,
}

impl JobRecord {
    /// Arrival-to-completion latency (ms), if the job completed.
    pub fn latency_ms(&self) -> Option<f64> {
        self.completion_ms.map(|c| c - self.arrival_ms)
    }

    /// Arrival-to-admission queueing delay (ms), if the job was
    /// admitted.
    pub fn queue_wait_ms(&self) -> Option<f64> {
        self.admit_ms.map(|a| a - self.arrival_ms)
    }
}

/// One entry of the run's event trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OnlineEvent {
    /// A job entered the system and joined the run queue.
    Arrival {
        /// Job id.
        job: usize,
    },
    /// A queued job was admitted to a free core.
    Admit {
        /// Job id.
        job: usize,
    },
    /// Admission control shed a queued job whose deadline had become
    /// unreachable (deadline-enabled [`super::ServicePolicy`] only).
    Shed {
        /// Job id.
        job: usize,
    },
    /// A running job retired its budget and left.
    Complete {
        /// Job id.
        job: usize,
    },
    /// The scheduler re-mapped the resident threads.
    Reschedule {
        /// Threads moved to a different core (each charged the
        /// migration penalty).
        moved: usize,
        /// Resident threads at this point.
        resident: usize,
    },
    /// The power manager re-solved the (V, f) assignment.
    ManagerRun,
    /// The control plane degraded (fault-injected runs only): a solver
    /// fell back, a core died, sensors froze, the budget dropped, or
    /// threads were parked.
    Degraded {
        /// The degradation.
        event: DegradationEvent,
    },
}

impl fmt::Display for OnlineEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineEvent::Arrival { job } => write!(f, "arrive job={job}"),
            OnlineEvent::Admit { job } => write!(f, "admit job={job}"),
            OnlineEvent::Shed { job } => write!(f, "shed job={job}"),
            OnlineEvent::Complete { job } => write!(f, "complete job={job}"),
            OnlineEvent::Reschedule { moved, resident } => {
                write!(f, "reschedule resident={resident} moved={moved}")
            }
            OnlineEvent::ManagerRun => f.write_str("manager"),
            OnlineEvent::Degraded { event } => write!(f, "degraded {event}"),
        }
    }
}

/// A timestamped trace entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Tick the event was processed at.
    pub tick: usize,
    /// What happened.
    pub event: OnlineEvent,
}

/// Results of one online serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineOutcome {
    /// Chip-level metrics in the batch engine's shape. In a
    /// zero-arrival run with a zero migration penalty this equals the
    /// [`crate::runtime::run_trial`] outcome bit for bit; degenerate
    /// runs guard the batch metrics' panics (`ed2 = ∞` when nothing
    /// retired, `weighted_mips = 0` when no thread survives to the
    /// horizon).
    pub chip: TrialOutcome,
    /// Per-job lifecycle records (initial residents first).
    pub jobs: Vec<JobRecord>,
    /// The full event trace, in processing order.
    pub events: Vec<EventRecord>,
    /// Simulated horizon (ms).
    pub duration_ms: f64,
    /// Jobs that entered the system within the horizon.
    pub arrived: usize,
    /// Jobs that completed within the horizon.
    pub completed: usize,
    /// Jobs shed by deadline admission control (0 when deadlines are
    /// disabled). Each shed job contributes an `∞` latency sample, so
    /// shedding surfaces as [`LatencyStats::dropped`] right next to the
    /// tail percentiles it protected.
    pub shed: usize,
    /// Time-averaged fraction of cores running a thread.
    pub utilization: f64,
    /// Largest run-queue depth observed.
    pub queue_peak: usize,
    /// Total thread moves across all reschedules.
    pub migrations: usize,
    /// Arrival-to-completion latency summary (`None`: nothing
    /// completed).
    pub latency: Option<LatencyStats>,
    /// Arrival-to-admission queueing-delay summary (`None`: nothing
    /// admitted).
    pub queue_wait: Option<LatencyStats>,
}

impl OnlineOutcome {
    /// Completed-job throughput over the horizon (jobs per second).
    pub fn jobs_per_s(&self) -> f64 {
        self.completed as f64 / (self.duration_ms / 1e3)
    }

    /// Renders the event trace as text, one event per line — the
    /// byte-identity artifact the determinism tests compare.
    pub fn trace(&self) -> String {
        let mut out = String::new();
        for r in &self.events {
            let _ = writeln!(out, "{:>6} {}", r.tick, r.event);
        }
        out
    }
}

/// Ideal (contention-free) service time of a scheduled job at the
/// reference operating point: budget / (IPC(f_ref) · f_ref), in ms.
/// The deterministic yardstick deadlines derive from — no RNG draw, so
/// deadline-enabled and deadline-free runs consume identical streams.
fn ideal_service_ms(js: &JobSpec) -> f64 {
    js.instructions / (js.spec.ipc_at(4.0e9) * 4.0e9) * 1e3
}

/// One online serving run held as a stepwise value: construct with
/// [`OnlineSim::new`] (or [`OnlineSim::resume`]), advance with
/// [`OnlineSim::step`]/[`OnlineSim::run`], and close out with
/// [`OnlineSim::finish`].
///
/// [`run_online`], [`crate::runtime::run_trial`] and
/// [`crate::extensions::run_thermal_trial`] are thin wrappers over this
/// type; the value form exists so callers can interleave the simulation with
/// their own control — most importantly [`OnlineSim::checkpoint`],
/// which captures the complete mutable state at a tick boundary. A
/// simulation resumed from that snapshot replays the remaining ticks
/// bit-identically to the uninterrupted run (the tests pin this,
/// including the serialized round trip).
///
/// A fleet chip ([`crate::fleet::ChipSim`]) owns its simulation's
/// machine and RNG instead of borrowing them. A job's [`JobSpec`] lives
/// only while the job waits; what stays is its [`JobRecord`].
pub struct OnlineSim<'a> {
    machine: Held<'a, Machine>,
    rng: Held<'a, SimRng>,
    rt: RuntimeConfig,
    /// The budget the manager tracks; a fleet chip's hierarchy retargets
    /// it between epochs.
    pub(crate) budget: PowerBudget,
    hardened: bool,
    cadence: Cadence,
    /// Temperature-triggered migration as (interval in ticks, trigger
    /// gap in kelvin); `None` leaves it off.
    thermal_migration: Option<(usize, f64)>,
    /// Deadline slack factor (`∞` = deadlines disabled).
    deadline_slack: f64,
    cores: Vec<CoreProfile>,
    /// Jobs whose `Arrival` event has not fired, in arrival order.
    unarrived: VecDeque<JobSpec>,
    initial_count: usize,
    /// The arrival fork's initial state (checkpoint support).
    arrival_rng: Option<[u64; 4]>,
    tick: usize,
    queue: EventQueue,
    jobs: Vec<JobRecord>,
    /// Thread index → job id, maintained under the machine's
    /// swap_remove semantics.
    thread_job: Vec<usize>,
    scheduler: Box<dyn Scheduler>,
    power_manager: HardenedManager,
    degradations: Vec<DegradationEvent>,
    /// Set when a core fails: forces a reschedule on the next tick.
    fault_dirty: bool,
    /// Set when membership changed inside an open reschedule window.
    window_dirty: bool,
    shed: usize,
    /// Arrived, not yet admitted jobs with their specs, front first.
    run_queue: VecDeque<(usize, JobSpec)>,
    events: Vec<EventRecord>,
    counters: SimCounters,
}

/// A simulation's machine or RNG: borrowed from the caller, or owned.
enum Held<'a, T> {
    Borrowed(&'a mut T),
    Owned(T),
}

impl<T> std::ops::Deref for Held<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Held::Borrowed(t) => t,
            Held::Owned(t) => t,
        }
    }
}

impl<T> std::ops::DerefMut for Held<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match self {
            Held::Borrowed(t) => t,
            Held::Owned(t) => t,
        }
    }
}

impl<'a> OnlineSim<'a> {
    /// Builds a fresh simulation over the caller's `residents` (`None`
    /// starts the system empty; [`OnlineConfig::draw_residents`] draws the
    /// configured count): spawns their threads from `rng`, pre-draws
    /// the arrival schedule (exactly as [`run_online`] documents) and
    /// stands the control plane up, without executing any tick.
    #[allow(clippy::too_many_arguments)] // mirrors run_online + the residents
    pub fn new(
        machine: &'a mut Machine,
        residents: Option<&Workload>,
        pool: &[AppSpec],
        mix: Mix,
        policy: SchedulerSpec,
        manager: ManagerSpec,
        budget: PowerBudget,
        config: &OnlineConfig,
        fault_plan: &FaultPlan,
        rng: &'a mut SimRng,
    ) -> Result<Self, TrialError> {
        Self::build(
            Held::Borrowed(machine),
            residents,
            pool,
            mix,
            policy,
            manager,
            budget,
            config,
            fault_plan,
            Held::Borrowed(rng),
        )
    }

    /// An empty simulation that owns its machine and RNG and draws no
    /// arrivals of its own: its jobs come in through
    /// [`OnlineSim::inject`]. This is a fleet chip's loop; `config`
    /// should describe a closed system with no residents.
    pub(crate) fn owned(
        machine: Machine,
        policy: SchedulerSpec,
        manager: ManagerSpec,
        budget: PowerBudget,
        config: &OnlineConfig,
        rng: SimRng,
    ) -> Result<OnlineSim<'static>, TrialError> {
        OnlineSim::build(
            Held::Owned(machine),
            None,
            &[],
            Mix::Balanced,
            policy,
            manager,
            budget,
            config,
            &FaultPlan::none(),
            Held::Owned(rng),
        )
    }

    #[allow(clippy::too_many_arguments)] // OnlineSim::new's inputs
    fn build(
        mut machine: Held<'a, Machine>,
        residents: Option<&Workload>,
        pool: &[AppSpec],
        mix: Mix,
        policy: SchedulerSpec,
        manager: ManagerSpec,
        budget: PowerBudget,
        config: &OnlineConfig,
        fault_plan: &FaultPlan,
        mut rng: Held<'a, SimRng>,
    ) -> Result<Self, TrialError> {
        config.validate()?;
        let rt = config.runtime;
        let resident_count = residents.map_or(0, Workload::len);
        if resident_count > machine.core_count() {
            return Err(TrialError::WorkloadTooLarge {
                threads: resident_count,
                cores: machine.core_count(),
            });
        }
        // Build the scheduler (and validate the manager spec) before
        // touching the machine, so degenerate specs fail cleanly.
        let scheduler = policy.build(&rt)?;
        manager.validate(&rt)?;

        machine.load_threads(residents.map_or_else(Vec::new, |w| w.spawn_threads(&mut rng)));
        machine.install_faults(fault_plan)?;
        let hardened = machine.has_active_faults();
        let initial_count = machine.threads().len();

        // Arrival schedule: pre-drawn from a fork taken only when the
        // process is active, so a closed system leaves the caller's
        // stream untouched. The fork's initial state is kept so a
        // checkpoint can regenerate the identical schedule instead of
        // serializing it.
        let (arrival_rng, schedule) = if config.arrivals.rate_per_s > 0.0 {
            let mut fork = rng.fork();
            let state = fork.state();
            let schedule =
                generate_arrivals(pool, mix, &config.arrivals, rt.duration_ms, &mut fork);
            (Some(state), schedule)
        } else {
            (None, Vec::new())
        };

        let cores = core_profiles(&machine);
        let cadence = Cadence::new(
            &rt,
            config.migration_penalty_ms,
            config.service.reschedule_window_ms,
        );
        let total_ticks = cadence.total_ticks;
        let mut queue = EventQueue::new();
        for tick in (0..total_ticks).step_by(cadence.os_every) {
            queue.push(tick, EventKind::OsTick);
        }
        for tick in (0..total_ticks).step_by(cadence.dvfs_every) {
            queue.push(tick, EventKind::DvfsTick);
        }

        // Job records of the residents (budget = the configured mean,
        // drawn without jitter so a closed system consumes no extra
        // RNG); the arrival schedule's follow via `inject`.
        let jobs: Vec<JobRecord> = machine
            .threads()
            .iter()
            .enumerate()
            .map(|(i, t)| JobRecord {
                job: i,
                app: t.spec().name,
                arrival_ms: 0.0,
                admit_ms: Some(0.0),
                completion_ms: None,
                instructions: config.arrivals.mean_instructions,
                migrations: 0,
            })
            .collect();
        let core_count = machine.core_count();

        let mut sim = Self {
            machine,
            rng,
            rt,
            budget,
            hardened,
            cadence,
            thermal_migration: None,
            deadline_slack: config.service.deadline_slack,
            cores,
            unarrived: VecDeque::with_capacity(schedule.len()),
            initial_count,
            arrival_rng,
            tick: 0,
            queue,
            thread_job: (0..initial_count).collect(),
            jobs,
            scheduler,
            power_manager: HardenedManager::new(manager, core_count, hardened, &rt)?,
            degradations: Vec::new(),
            fault_dirty: false,
            window_dirty: false,
            shed: 0,
            run_queue: VecDeque::new(),
            events: Vec::new(),
            counters: SimCounters {
                arrived: initial_count,
                ..SimCounters::default()
            },
        };
        for js in schedule {
            // A job arriving mid-tick becomes visible at the next
            // boundary (one arriving past the horizon never does).
            sim.inject((js.arrival_ms / rt.tick_ms).ceil() as usize, js);
        }
        Ok(sim)
    }

    /// Appends a job arriving at `tick` to the arrival sequence: its
    /// record, its spec at the back of `unarrived`, and its `Arrival`
    /// event. The pre-drawn schedule enters this way, and so does every
    /// job the fleet dispatcher routes to a chip. A loop fed from
    /// outside cannot be resumed from a checkpoint: resume regenerates
    /// only the pre-drawn schedule.
    pub(crate) fn inject(&mut self, tick: usize, js: JobSpec) {
        let job = self.jobs.len();
        self.jobs.push(JobRecord {
            job,
            app: js.spec.name,
            arrival_ms: js.arrival_ms,
            admit_ms: None,
            completion_ms: None,
            instructions: js.instructions,
            migrations: 0,
        });
        self.queue
            .push(tick, EventKind::Arrival(job - self.initial_count));
        self.unarrived.push_back(js);
    }

    /// Rebuilds a suspended simulation from a [`Snapshot`].
    ///
    /// `machine` must be a fresh build of the *same die and floorplan*
    /// the checkpointed run used, and every other argument must equal
    /// the original run's configuration — the snapshot carries only the
    /// mutable state, not the configuration (see [`Snapshot`]). The
    /// caller's `rng` is overwritten with the checkpointed stream
    /// position.
    ///
    /// # Errors
    ///
    /// Returns [`TrialError::SnapshotMismatch`] naming the guard the
    /// snapshot fails. The structural guards (core count, timeline
    /// length, tick within the horizon, job tables against the
    /// regenerated schedule) are checked before touching the machine;
    /// [`SnapshotGuard::Machine`] comes from
    /// [`Machine::import_state`], after the machine was reset and the
    /// fault plan re-installed.
    #[allow(clippy::too_many_arguments)] // mirrors OnlineSim::new
    pub fn resume(
        machine: &'a mut Machine,
        pool: &[AppSpec],
        mix: Mix,
        policy: SchedulerSpec,
        manager: ManagerSpec,
        budget: PowerBudget,
        config: &OnlineConfig,
        fault_plan: &FaultPlan,
        rng: &'a mut SimRng,
        snapshot: &Snapshot,
    ) -> Result<Self, TrialError> {
        config.validate()?;
        let rt = config.runtime;
        let cadence = Cadence::new(
            &rt,
            config.migration_penalty_ms,
            config.service.reschedule_window_ms,
        );
        let total_ticks = cadence.total_ticks;
        // The schedule is a pure function of the arrival fork's initial
        // state; regenerate it instead of trusting a serialized copy,
        // and keep only the jobs that have not arrived yet.
        let mut schedule = match snapshot.arrival_rng {
            Some(state) => generate_arrivals(
                pool,
                mix,
                &config.arrivals,
                rt.duration_ms,
                &mut SimRng::from_state(state),
            ),
            None => Vec::new(),
        };
        let initial = snapshot.initial_count;
        let arrived = snapshot.counters.arrived.wrapping_sub(initial);
        let jobs = snapshot.jobs.len();
        let tables_ok = jobs == initial + schedule.len()
            && arrived <= schedule.len()
            && snapshot.thread_job.len() == snapshot.machine.threads.len()
            && snapshot.thread_job.iter().all(|&job| job < jobs)
            && snapshot
                .run_queue
                .iter()
                .all(|&job| (initial..initial + arrived).contains(&job));
        let failed = if snapshot.core_count != machine.core_count() {
            Some(SnapshotGuard::CoreCount)
        } else if snapshot.total_ticks != total_ticks {
            Some(SnapshotGuard::TimelineLength)
        } else if snapshot.tick > total_ticks {
            Some(SnapshotGuard::TickBeyondHorizon)
        } else if !tables_ok {
            Some(SnapshotGuard::JobTables)
        } else {
            None
        };
        if let Some(guard) = failed {
            return Err(TrialError::SnapshotMismatch(guard));
        }

        machine.load_threads(Vec::new());
        machine.install_faults(fault_plan)?;
        machine
            .import_state(&snapshot.machine)
            .map_err(|e| TrialError::SnapshotMismatch(SnapshotGuard::Machine(e)))?;
        let hardened = machine.has_active_faults();

        let mut scheduler = policy.build(&rt)?;
        scheduler.restore(&snapshot.scheduler);
        let mut power_manager = HardenedManager::new(manager, machine.core_count(), hardened, &rt)?;
        power_manager.import_state(&snapshot.manager);

        *rng = SimRng::from_state(snapshot.rng);
        let cores = core_profiles(machine);
        let run_queue = snapshot
            .run_queue
            .iter()
            .map(|&job| (job, schedule[job - initial].clone()))
            .collect();

        Ok(Self {
            machine: Held::Borrowed(machine),
            rng: Held::Borrowed(rng),
            rt,
            budget,
            hardened,
            cadence,
            thermal_migration: None,
            deadline_slack: config.service.deadline_slack,
            cores,
            unarrived: schedule.drain(arrived..).collect(),
            initial_count: initial,
            arrival_rng: snapshot.arrival_rng,
            tick: snapshot.tick,
            queue: EventQueue::import(snapshot.queue_events.clone(), snapshot.queue_next_seq),
            jobs: snapshot.jobs.clone(),
            thread_job: snapshot.thread_job.clone(),
            scheduler,
            power_manager,
            degradations: Vec::new(),
            fault_dirty: snapshot.fault_dirty,
            window_dirty: snapshot.window_dirty,
            shed: snapshot.shed,
            run_queue,
            events: snapshot.events.clone(),
            counters: snapshot.counters.clone(),
        })
    }

    /// A closed simulation over the caller's pre-drawn `workload`: no
    /// arrivals, free migrations, default [`ServicePolicy`]. This is
    /// the batch trial's configuration of the loop.
    #[allow(clippy::too_many_arguments)] // mirrors run_trial minus the observer
    pub(crate) fn closed(
        machine: &'a mut Machine,
        workload: &Workload,
        policy: SchedulerSpec,
        manager: ManagerSpec,
        budget: PowerBudget,
        rt: &RuntimeConfig,
        fault_plan: &FaultPlan,
        rng: &'a mut SimRng,
    ) -> Result<Self, TrialError> {
        let config = OnlineConfig {
            runtime: *rt,
            arrivals: ArrivalConfig::closed(),
            initial_jobs: workload.len(),
            migration_penalty_ms: 0.0,
            service: ServicePolicy::default(),
        };
        // A closed run never draws arrivals, so it needs no pool.
        Self::new(
            machine,
            Some(workload),
            &[],
            Mix::Balanced,
            policy,
            manager,
            budget,
            &config,
            fault_plan,
            rng,
        )
    }

    /// Turns on temperature-triggered migration: every
    /// `migration.interval_ms` (never at tick 0) the thread on the
    /// hottest active core moves to the coolest idle core when the gap
    /// reaches `migration.trigger_k`. A resumed simulation needs the
    /// same call again, like the rest of its configuration.
    pub(crate) fn with_thermal_migration(mut self, migration: MigrationConfig) -> Self {
        let every = ((migration.interval_ms / self.cadence.tick_ms).round() as usize).max(1);
        self.thermal_migration = Some((every, migration.trigger_k));
        self
    }

    /// The next tick to execute (0-based).
    pub fn tick(&self) -> usize {
        self.tick
    }

    /// Total ticks in the run's timeline.
    pub fn total_ticks(&self) -> usize {
        self.cadence.total_ticks
    }

    /// True once every tick has executed.
    pub fn is_done(&self) -> bool {
        self.tick >= self.cadence.total_ticks
    }

    /// The machine the loop drives.
    pub(crate) fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Lifecycle records of every job so far, by job id.
    pub(crate) fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// The run's scalar accumulators so far.
    pub(crate) fn counters(&self) -> &SimCounters {
        &self.counters
    }

    /// Jobs not yet admitted: queued, or waiting for their arrival tick.
    pub(crate) fn waiting(&self) -> usize {
        self.run_queue.len() + self.unarrived.len()
    }

    /// Drains the event log so far, so a long-lived loop (a fleet chip)
    /// does not carry it past the caller's reporting interval.
    pub(crate) fn drain_events(&mut self) -> std::vec::Drain<'_, EventRecord> {
        self.events.drain(..)
    }

    /// Captures the complete mutable state at the current tick
    /// boundary.
    ///
    /// A checkpoint is valid at *any* boundary; for a byte-identical
    /// *trace tail* through a [`crate::obs::TraceObserver`], checkpoint
    /// at a DVFS-interval boundary (the observer's interval
    /// accumulators are empty exactly there — see
    /// [`crate::obs::TraceObserver::fast_forward`]).
    pub fn checkpoint(&self) -> Snapshot {
        debug_assert!(
            self.degradations.is_empty(),
            "degradations must be drained at a tick boundary"
        );
        let (queue_events, queue_next_seq) = self.queue.export();
        Snapshot {
            tick: self.tick,
            total_ticks: self.cadence.total_ticks,
            core_count: self.machine.core_count(),
            initial_count: self.initial_count,
            machine: self.machine.export_state(),
            rng: self.rng.state(),
            arrival_rng: self.arrival_rng,
            scheduler: self.scheduler.snapshot(),
            manager: self.power_manager.export_state(),
            queue_events,
            queue_next_seq,
            jobs: self.jobs.clone(),
            thread_job: self.thread_job.clone(),
            run_queue: self.run_queue.iter().map(|&(job, _)| job).collect(),
            events: self.events.clone(),
            fault_dirty: self.fault_dirty,
            window_dirty: self.window_dirty,
            shed: self.shed,
            counters: self.counters.clone(),
        }
    }

    /// Deadline of a queued job: arrival plus `deadline_slack ×` its
    /// ideal service time.
    fn deadline_ms(&self, js: &JobSpec) -> f64 {
        js.arrival_ms + self.deadline_slack * ideal_service_ms(js)
    }

    /// Picks the next queued job to consider for admission: FIFO when
    /// deadlines are disabled (the historical policy), earliest
    /// deadline first (ties by job id) when enabled.
    fn next_admission(&mut self) -> Option<(usize, JobSpec)> {
        if !self.deadline_slack.is_finite() {
            return self.run_queue.pop_front();
        }
        let best = self
            .run_queue
            .iter()
            .enumerate()
            .min_by(|(_, (a, ja)), (_, (b, jb))| {
                // Earliest deadline first; a NaN deadline ranks last so
                // it can never starve real deadlines.
                crate::order::asc_nan_worst(self.deadline_ms(ja), self.deadline_ms(jb))
                    .then(a.cmp(b))
            })?
            .0;
        self.run_queue.remove(best)
    }

    /// Executes one tick.
    ///
    /// # Panics
    ///
    /// Panics if the run is already done.
    pub fn step(&mut self, observer: &mut dyn TrialObserver) {
        assert!(!self.is_done(), "stepping past the horizon");
        let tick = self.tick;
        let now_ms = tick as f64 * self.cadence.tick_ms;
        let mut os_due = false;
        let mut dvfs_due = false;
        let mut membership_dirty = false;

        // Drain this tick's events: completions free cores before
        // arrivals queue behind them (EventQueue's kind priority).
        while let Some(ev) = self.queue.pop_due(tick) {
            match ev.kind {
                EventKind::Completion(job) => {
                    let tid = self
                        .thread_job
                        .iter()
                        .position(|&j| j == job)
                        .expect("completed job must be resident");
                    self.machine.remove_thread(tid);
                    self.thread_job.swap_remove(tid);
                    self.jobs[job].completion_ms = Some(now_ms);
                    self.counters.completed += 1;
                    membership_dirty = true;
                    self.events.push(EventRecord {
                        tick,
                        event: OnlineEvent::Complete { job },
                    });
                }
                EventKind::Arrival(i) => {
                    let job = self.initial_count + i;
                    let js = self
                        .unarrived
                        .pop_front()
                        .expect("arrivals fire in the order their specs were queued");
                    self.counters.arrived += 1;
                    self.run_queue.push_back((job, js));
                    self.counters.queue_peak = self.counters.queue_peak.max(self.run_queue.len());
                    self.events.push(EventRecord {
                        tick,
                        event: OnlineEvent::Arrival { job },
                    });
                }
                EventKind::OsTick => os_due = true,
                EventKind::DvfsTick => dvfs_due = true,
            }
        }

        // Admission into free cores (capacity shrinks as cores fail;
        // queued jobs wait rather than land on dead silicon). With
        // deadlines enabled, a job whose deadline became unreachable
        // while it queued is shed here, so the queue stops feeding work
        // that can no longer meet its SLO into the tail.
        while self.machine.threads().len() < self.machine.alive_core_count() {
            let Some((job, js)) = self.next_admission() else {
                break;
            };
            if self.deadline_slack.is_finite()
                && now_ms + ideal_service_ms(&js) > self.deadline_ms(&js)
            {
                self.shed += 1;
                self.events.push(EventRecord {
                    tick,
                    event: OnlineEvent::Shed { job },
                });
                observer.on_job_shed(tick, job);
                continue;
            }
            let tid = self
                .machine
                .add_thread(Thread::with_phase_offset(js.spec, js.phase_offset_ms));
            debug_assert_eq!(tid, self.thread_job.len());
            self.thread_job.push(job);
            self.jobs[job].admit_ms = Some(now_ms);
            membership_dirty = true;
            self.events.push(EventRecord {
                tick,
                event: OnlineEvent::Admit { job },
            });
            // Windowed mode: the full reschedule waits for the window
            // boundary, so give the new thread a cheap deterministic
            // placement in the meantime.
            if self.cadence.window_every > 0 {
                place_on_fastest_free(&mut self.machine, &self.cores, &mut self.power_manager, tid);
            }
        }

        // Reschedule on the OS boundary — and on membership changes:
        // immediately in per-event mode (the paper's "whenever
        // applications enter or leave the system"), or batched at the
        // next window boundary in windowed mode.
        let membership_trigger =
            self.cadence
                .membership_trigger(tick, membership_dirty, &mut self.window_dirty);
        let resident = self.machine.threads().len();
        if (os_due || membership_trigger || self.fault_dirty) && resident > 0 {
            self.fault_dirty = false;
            self.window_dirty = false;
            let remap = remap(
                self.scheduler.as_mut(),
                &self.cores,
                &mut self.machine,
                &mut self.rng,
                &mut self.power_manager,
                self.cadence.penalty_s,
                self.rt.freq_mode,
            );
            observer.on_schedule(tick, &remap.mapping);
            if remap.parked > 0 {
                let event = DegradationEvent::ThreadsParked {
                    parked: remap.parked,
                };
                self.events.push(EventRecord {
                    tick,
                    event: OnlineEvent::Degraded { event },
                });
                observer.on_degradation(tick, event);
            }
            for &t in &remap.moved {
                self.jobs[self.thread_job[t]].migrations += 1;
            }
            self.counters.migrations_total += remap.moved.len();
            self.events.push(EventRecord {
                tick,
                event: OnlineEvent::Reschedule {
                    moved: remap.moved.len(),
                    resident,
                },
            });
        }

        // Power manager on the DVFS boundary, plus load-adaptive
        // re-solves whenever membership changed (at the same cadence
        // the scheduler reacts: per event, or per window).
        if self.power_manager.is_managed() && (dvfs_due || membership_trigger) {
            // Under an injected budget drop, the manager chases the
            // scaled budget (the deviation metric below does not).
            let eff_budget = if self.hardened {
                PowerBudget {
                    chip_w: self.budget.chip_w * self.machine.fault_budget_factor(),
                    per_core_w: self.budget.per_core_w,
                }
            } else {
                self.budget
            };
            if let Some(levels) = self.power_manager.invoke(
                &mut self.machine,
                &eff_budget,
                &mut self.rng,
                &mut self.degradations,
            ) {
                self.events.push(EventRecord {
                    tick,
                    event: OnlineEvent::ManagerRun,
                });
                observer.on_manager_run(tick, &levels);
                if let Some(report) = self.power_manager.last_solve() {
                    observer.on_solve(tick, &report);
                }
            }
            for event in self.degradations.drain(..) {
                self.events.push(EventRecord {
                    tick,
                    event: OnlineEvent::Degraded { event },
                });
                observer.on_degradation(tick, event);
            }
            self.counters.manager_runs += 1;
        }

        // Temperature-triggered migration (thermal trials only, which
        // are closed and fault-free: no penalty, no conditioner).
        if let Some((every, trigger_k)) = self.thermal_migration {
            if tick > 0 && tick.is_multiple_of(every) && try_migrate(&mut self.machine, trigger_k) {
                observer.on_migration(tick);
            }
        }

        let stats = self.machine.step(self.cadence.dt_s);
        for event in self.machine.take_fault_events() {
            if matches!(event, FaultEvent::CoreFailed { .. }) {
                self.fault_dirty = true;
            }
            self.events.push(EventRecord {
                tick,
                event: OnlineEvent::Degraded {
                    event: DegradationEvent::from(event),
                },
            });
            observer.on_degradation(tick, DegradationEvent::from(event));
        }
        observer.on_step(&self.machine, &stats);
        if tick >= self.cadence.warmup_ticks {
            self.counters.deviation_sum += (stats.total_power_w - self.budget.chip_w).abs();
            self.counters.deviation_ticks += 1;
        }

        let mut f_sum = 0.0;
        let mut active = 0usize;
        for core in 0..self.machine.core_count() {
            if self.machine.thread_of(core).is_some() {
                f_sum += self.machine.effective_freq(core);
                active += 1;
            }
        }
        if active > 0 {
            self.counters.freq_time_sum += f_sum / active as f64;
        }
        self.counters.util_sum += active as f64 / self.machine.core_count() as f64;

        // Completion detection: a job crossing its budget this tick
        // leaves at the next boundary (it cannot retire further — the
        // Completion event drains before the next step, so every thread
        // seen here is still below its budget at the previous check).
        for (tid, thread) in self.machine.threads().iter().enumerate() {
            let job = self.thread_job[tid];
            if thread.instructions() >= self.jobs[job].instructions {
                self.queue.push(tick + 1, EventKind::Completion(job));
            }
        }

        self.tick += 1;
    }

    /// Runs the remaining ticks to the horizon.
    pub fn run(&mut self, observer: &mut dyn TrialObserver) {
        while !self.is_done() {
            self.step(observer);
        }
    }

    /// Assembles the outcome after the horizon.
    ///
    /// # Panics
    ///
    /// Panics if the run has not reached the horizon — partial-run
    /// metrics would silently divide by the full tick count.
    pub fn finish(self) -> OnlineOutcome {
        assert!(self.is_done(), "finish() before the horizon");
        // Chip metrics over the threads resident at the horizon, in the
        // batch outcome's shape (and bit-identical to it for a closed
        // run).
        let per_thread_mips: Vec<f64> = self
            .machine
            .threads()
            .iter()
            .map(|t| t.average_mips())
            .collect();
        let reference_mips: Vec<f64> = self
            .machine
            .threads()
            .iter()
            .map(|t| t.spec().ipc_at(4.0e9) * 4.0e9 / 1e6)
            .collect();
        let mips = self.machine.average_mips();
        let avg_power_w = self.machine.average_power();
        let wmips = if per_thread_mips.is_empty() {
            0.0
        } else {
            weighted_mips(&per_thread_mips, &reference_mips)
        };
        let c = &self.counters;
        let chip = TrialOutcome {
            mips,
            weighted_mips: wmips,
            avg_power_w,
            ed2: if mips > 0.0 {
                ed2_index(avg_power_w, mips)
            } else {
                f64::INFINITY
            },
            weighted_ed2: if wmips > 0.0 {
                ed2_index(avg_power_w, wmips)
            } else {
                f64::INFINITY
            },
            avg_freq_hz: c.freq_time_sum / self.cadence.total_ticks as f64,
            power_deviation_frac: c.deviation_sum
                / c.deviation_ticks.max(1) as f64
                / self.budget.chip_w,
            manager_runs: c.manager_runs,
            per_thread_mips,
        };

        // Shed jobs contribute an ∞ latency sample: LatencyStats keeps
        // non-finite samples out of the percentiles but reports them as
        // `dropped`, so shedding stays visible next to the tail it
        // protected.
        let mut latencies: Vec<f64> = self.jobs.iter().filter_map(JobRecord::latency_ms).collect();
        latencies.extend(std::iter::repeat_n(f64::INFINITY, self.shed));
        let waits: Vec<f64> = self
            .jobs
            .iter()
            .filter_map(JobRecord::queue_wait_ms)
            .collect();

        OnlineOutcome {
            chip,
            latency: LatencyStats::of(&latencies),
            queue_wait: LatencyStats::of(&waits),
            jobs: self.jobs,
            events: self.events,
            duration_ms: self.rt.duration_ms,
            arrived: self.counters.arrived,
            completed: self.counters.completed,
            shed: self.shed,
            utilization: self.counters.util_sum / self.cadence.total_ticks as f64,
            queue_peak: self.counters.queue_peak,
            migrations: self.counters.migrations_total,
        }
    }
}

/// Runs one online serving trial.
///
/// The initial residents ([`OnlineConfig::initial_jobs`], possibly none) are
/// drawn from `pool` exactly as the batch engine draws a workload —
/// continuing the caller's RNG stream — and the arrival schedule is
/// pre-drawn from a fork of that stream, taken only when the arrival
/// rate is non-zero. See the [module docs](crate::online) for the
/// determinism contract. The observer sees the same hooks the batch
/// trial fires (schedule, manager run, solve report, degradation, step)
/// plus the online-only job-shed hook; observation is a pure read-out
/// and never perturbs RNG streams or outcomes.
///
/// With an inactive fault plan the run takes the fault-free path bit
/// for bit. With an active plan, the same degradation ladder as
/// [`crate::runtime::run_trial`] applies — conditioned manager views,
/// chip-wide solver fallback, immediate rescheduling off dead cores —
/// plus one open-system rule: admission capacity shrinks to the live
/// core count, so jobs queue rather than land on dead silicon. Every
/// degradation appears in the event trace as an
/// [`OnlineEvent::Degraded`] entry.
///
/// # Panics
///
/// Panics if the mix admits no application from the pool while
/// residents or arrivals are configured.
#[allow(clippy::too_many_arguments)] // the run's inputs, the plan, and the observer
pub fn run_online(
    machine: &mut Machine,
    pool: &[AppSpec],
    mix: Mix,
    policy: SchedulerSpec,
    manager: ManagerSpec,
    budget: PowerBudget,
    config: &OnlineConfig,
    fault_plan: &FaultPlan,
    rng: &mut SimRng,
    observer: &mut dyn TrialObserver,
) -> Result<OnlineOutcome, TrialError> {
    let residents = config.draw_residents(pool, mix, rng);
    let mut sim = OnlineSim::new(
        machine,
        residents.as_ref(),
        pool,
        mix,
        policy,
        manager,
        budget,
        config,
        fault_plan,
        rng,
    )?;
    sim.run(observer);
    Ok(sim.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{ArrivalConfig, ServicePolicy};
    use crate::runtime::{run_trial, NullObserver};
    use cmpsim::{app_pool, MachineConfig, StateMismatch};
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

    fn pool() -> Vec<AppSpec> {
        app_pool(&MachineConfig::paper_default().dynamic)
    }

    fn quick_runtime() -> RuntimeConfig {
        RuntimeConfig {
            tick_ms: 1.0,
            dvfs_interval_ms: 10.0,
            os_interval_ms: 50.0,
            duration_ms: 100.0,
            freq_mode: crate::runtime::FreqMode::NonUniform,
            deviation_warmup_ms: 20.0,
        }
    }

    fn open_config(rate_per_s: f64, mean_instructions: f64) -> OnlineConfig {
        OnlineConfig {
            runtime: quick_runtime(),
            arrivals: ArrivalConfig::poisson(rate_per_s, mean_instructions),
            initial_jobs: 0,
            migration_penalty_ms: 0.1,
            service: ServicePolicy::default(),
        }
    }

    /// A clean, unobserved VarF&AppIPC run of `config` on die `die`
    /// under the 20-core cost-performance budget.
    fn serve(die: u64, manager: ManagerSpec, config: &OnlineConfig, seed: u64) -> OnlineOutcome {
        run_online(
            &mut machine(die),
            &pool(),
            Mix::Balanced,
            SchedulerSpec::VarFAppIpc,
            manager,
            PowerBudget::cost_performance(20),
            config,
            &FaultPlan::none(),
            &mut SimRng::seed_from(seed),
            &mut NullObserver,
        )
        .expect("valid run")
    }

    #[test]
    fn zero_arrival_run_matches_the_batch_engine_bit_for_bit() {
        let pool = pool();
        let config = OnlineConfig {
            runtime: quick_runtime(),
            arrivals: ArrivalConfig::closed(),
            initial_jobs: 6,
            migration_penalty_ms: 0.0,
            service: ServicePolicy::default(),
        };

        let mut batch_rng = SimRng::seed_from(77);
        let workload = Workload::draw_mix(&pool, 6, Mix::Balanced, &mut batch_rng);
        let mut m1 = machine(5);
        let batch = run_trial(
            &mut m1,
            &workload,
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget::cost_performance(6),
            &quick_runtime(),
            &FaultPlan::none(),
            &mut batch_rng,
            &mut NullObserver,
        )
        .expect("valid trial");

        let mut m2 = machine(5);
        let online = run_online(
            &mut m2,
            &pool,
            Mix::Balanced,
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget::cost_performance(6),
            &config,
            &FaultPlan::none(),
            &mut SimRng::seed_from(77),
            &mut NullObserver,
        )
        .expect("valid trial");

        assert_eq!(online.chip, batch);
        assert_eq!(online.arrived, 6);
        assert_eq!(online.completed, 0, "infinite budgets never complete");
        assert_eq!(online.migrations, 0, "batch epochs keep the same mapping");
    }

    #[test]
    fn open_system_serves_and_completes_jobs() {
        let out = serve(1, ManagerSpec::LinOpt, &open_config(300.0, 40.0e6), 2);
        assert!(out.arrived > 10, "arrived {}", out.arrived);
        assert!(out.completed > 0, "completed {}", out.completed);
        assert!(out.completed <= out.arrived);
        assert_eq!(out.shed, 0, "no deadlines, no shedding");
        assert!(out.utilization > 0.0 && out.utilization <= 1.0);
        let lat = out.latency.expect("completions imply latency stats");
        assert!(lat.p50_ms <= lat.p95_ms && lat.p95_ms <= lat.p99_ms);
        assert!(lat.p99_ms <= lat.max_ms);
        for job in &out.jobs {
            if let (Some(a), Some(c)) = (job.admit_ms, job.completion_ms) {
                assert!(c > a, "job {} completed before admission", job.job);
            }
        }
    }

    #[test]
    fn same_seed_gives_identical_trace_and_outcome() {
        let run = |seed: u64| {
            serve(
                3,
                ManagerSpec::FoxtonStar,
                &open_config(250.0, 50.0e6),
                seed,
            )
        };
        let (a, b) = (run(9), run(9));
        assert_eq!(a, b);
        assert_eq!(a.trace(), b.trace());
        assert!(!a.trace().is_empty());
        let c = run(10);
        assert_ne!(a.trace(), c.trace(), "different seeds must differ");
    }

    #[test]
    fn overload_builds_a_queue() {
        let out = serve(4, ManagerSpec::LinOpt, &open_config(2000.0, 200.0e6), 6);
        assert!(out.queue_peak > 0, "overload must queue jobs");
        assert!(
            out.jobs.iter().any(|j| j.admit_ms.is_none()),
            "some jobs must still be waiting at the horizon"
        );
        assert!(out.utilization > 0.9, "overloaded chip should be busy");
    }

    #[test]
    fn migration_penalty_costs_throughput() {
        let run = |penalty_ms: f64| {
            serve(
                7,
                ManagerSpec::LinOpt,
                &OnlineConfig {
                    migration_penalty_ms: penalty_ms,
                    ..open_config(400.0, 60.0e6)
                },
                8,
            )
        };
        let free = run(0.0);
        let taxed = run(5.0);
        assert!(free.migrations > 0, "churn should move threads");
        assert!(taxed.migrations > 0, "churn should move threads");
        assert!(
            taxed.completed <= free.completed,
            "stalls cannot complete more jobs: {} vs {}",
            taxed.completed,
            free.completed
        );
        assert!(
            taxed.chip.mips < free.chip.mips,
            "5 ms per move must cost throughput: {} vs {}",
            taxed.chip.mips,
            free.chip.mips
        );
    }

    #[test]
    fn finite_budgets_drain_a_closed_system() {
        // Rate 0 with a finite mean: the residents complete and the
        // chip drains to idle.
        let pool = pool();
        let config = OnlineConfig {
            runtime: quick_runtime(),
            arrivals: ArrivalConfig {
                mean_instructions: 20.0e6,
                ..ArrivalConfig::closed()
            },
            initial_jobs: 4,
            migration_penalty_ms: 0.1,
            service: ServicePolicy::default(),
        };
        let out = run_online(
            &mut machine(11),
            &pool,
            Mix::Balanced,
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget::cost_performance(4),
            &config,
            &FaultPlan::none(),
            &mut SimRng::seed_from(12),
            &mut NullObserver,
        )
        .expect("valid trial");
        assert_eq!(out.completed, 4, "all residents should drain");
        assert!(out.chip.weighted_mips == 0.0, "no thread survives");
        assert!(out.chip.ed2.is_finite(), "work was retired");
    }

    // ----------------------------------------------------------------
    // Checkpoint/restore
    // ----------------------------------------------------------------

    /// Runs the scenario uninterrupted, and again with a checkpoint +
    /// serialized round trip + restore at `cut_tick`, and asserts the
    /// outcomes and traces are identical.
    fn assert_resume_bit_identical(config: &OnlineConfig, fault_plan: &FaultPlan, cut_tick: usize) {
        let pool = pool();
        let policy = SchedulerSpec::VarFAppIpc;
        let manager = ManagerSpec::LinOpt;
        let budget = PowerBudget::cost_performance(20);

        let mut m1 = machine(3);
        let mut rng1 = SimRng::seed_from(9);
        let full = run_online(
            &mut m1,
            &pool,
            Mix::Balanced,
            policy,
            manager,
            budget,
            config,
            fault_plan,
            &mut rng1,
            &mut NullObserver,
        )
        .expect("uninterrupted run");

        // First half.
        let mut m2 = machine(3);
        let mut rng2 = SimRng::seed_from(9);
        let residents = config.draw_residents(&pool, Mix::Balanced, &mut rng2);
        let mut sim = OnlineSim::new(
            &mut m2,
            residents.as_ref(),
            &pool,
            Mix::Balanced,
            policy,
            manager,
            budget,
            config,
            fault_plan,
            &mut rng2,
        )
        .expect("construct");
        while sim.tick() < cut_tick {
            sim.step(&mut NullObserver);
        }
        let snapshot = sim.checkpoint();
        drop(sim);

        // Serialized round trip.
        let json = snapshot.to_json();
        let revived = Snapshot::from_json(&json, &pool).expect("snapshot JSON round trip");
        assert_eq!(revived, snapshot, "codec must be lossless");

        // Second half on a fresh machine and a garbage RNG (resume
        // overwrites it with the checkpointed stream position).
        let mut m3 = machine(3);
        let mut rng3 = SimRng::seed_from(0xDEAD);
        let mut sim = OnlineSim::resume(
            &mut m3,
            &pool,
            Mix::Balanced,
            policy,
            manager,
            budget,
            config,
            fault_plan,
            &mut rng3,
            &revived,
        )
        .expect("resume");
        assert_eq!(sim.tick(), cut_tick);
        sim.run(&mut NullObserver);
        let resumed = sim.finish();

        assert_eq!(resumed, full, "restored run must match bit for bit");
        assert_eq!(resumed.trace(), full.trace());
        assert_eq!(rng3, rng1, "RNG stream must end at the same position");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_mid_run() {
        assert_resume_bit_identical(&open_config(250.0, 50.0e6), &FaultPlan::none(), 50);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_off_boundary() {
        // A DVFS boundary (30) and an unaligned tick (37): state
        // capture is boundary-agnostic.
        for cut in [30, 37] {
            assert_resume_bit_identical(&open_config(400.0, 40.0e6), &FaultPlan::none(), cut);
        }
    }

    #[test]
    fn checkpoint_resume_survives_initial_residents_and_drain() {
        let config = OnlineConfig {
            initial_jobs: 5,
            ..open_config(150.0, 30.0e6)
        };
        assert_resume_bit_identical(&config, &FaultPlan::none(), 60);
    }

    #[test]
    fn checkpoint_resume_carries_the_fault_timeline() {
        use cmpsim::{BudgetDrop, CoreFailure, StuckSensor};
        let plan = FaultPlan {
            seed: 77,
            sensor_noise_sigma: 0.05,
            sensor_drift_per_s: 0.0,
            stuck_sensors: vec![StuckSensor {
                core: 2,
                at_ms: 20.0,
            }],
            core_failures: vec![CoreFailure {
                core: 5,
                at_ms: 40.0,
            }],
            budget_drops: vec![BudgetDrop {
                start_ms: 30.0,
                end_ms: 60.0,
                factor: 0.7,
            }],
        };
        let config = OnlineConfig {
            initial_jobs: 8,
            ..open_config(200.0, 40.0e6)
        };
        // Cut after the failure fired so the restored run carries the
        // dead core, the stuck sensor, and the in-flight budget drop.
        assert_resume_bit_identical(&config, &plan, 55);
    }

    #[test]
    fn checkpoint_resume_preserves_slo_serving_state() {
        let config = OnlineConfig {
            service: ServicePolicy {
                reschedule_window_ms: 25.0,
                deadline_slack: 3.0,
            },
            ..open_config(800.0, 80.0e6)
        };
        assert_resume_bit_identical(&config, &FaultPlan::none(), 45);
    }

    #[test]
    fn resume_rejects_a_mismatched_machine() {
        let pool = pool();
        let config = open_config(250.0, 50.0e6);
        let mut m = machine(3);
        let mut rng = SimRng::seed_from(9);
        let sim = OnlineSim::new(
            &mut m,
            None,
            &pool,
            Mix::Balanced,
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget::cost_performance(20),
            &config,
            &FaultPlan::none(),
            &mut rng,
        )
        .unwrap();
        let snapshot = sim.checkpoint();
        drop(sim);
        for guard in [
            SnapshotGuard::CoreCount,
            SnapshotGuard::TimelineLength,
            SnapshotGuard::TickBeyondHorizon,
            SnapshotGuard::JobTables,
            SnapshotGuard::Machine(StateMismatch::CoreCount),
        ] {
            let mut bad = snapshot.clone();
            match guard {
                SnapshotGuard::CoreCount => bad.core_count = 4,
                SnapshotGuard::TimelineLength => bad.total_ticks += 1,
                SnapshotGuard::TickBeyondHorizon => bad.tick = bad.total_ticks + 1,
                SnapshotGuard::JobTables => bad.thread_job.push(0),
                SnapshotGuard::Machine(_) => bad.machine.levels.push(0),
            }
            let mut m2 = machine(3);
            let mut rng2 = SimRng::seed_from(9);
            let resumed = OnlineSim::resume(
                &mut m2,
                &pool,
                Mix::Balanced,
                SchedulerSpec::VarFAppIpc,
                ManagerSpec::LinOpt,
                PowerBudget::cost_performance(20),
                &config,
                &FaultPlan::none(),
                &mut rng2,
                &bad,
            );
            assert_eq!(resumed.err(), Some(TrialError::SnapshotMismatch(guard)));
        }
    }

    #[test]
    fn resume_without_the_fault_plan_is_a_mismatch() {
        use cmpsim::StuckSensor;
        let pool = pool();
        let config = open_config(250.0, 50.0e6);
        let plan = FaultPlan {
            seed: 5,
            stuck_sensors: vec![StuckSensor {
                core: 2,
                at_ms: 20.0,
            }],
            ..FaultPlan::none()
        };
        let resume = |snapshot: &Snapshot, plan: &FaultPlan| {
            OnlineSim::resume(
                &mut machine(3),
                &pool,
                Mix::Balanced,
                SchedulerSpec::VarFAppIpc,
                ManagerSpec::LinOpt,
                PowerBudget::cost_performance(20),
                &config,
                plan,
                &mut SimRng::seed_from(9),
                snapshot,
            )
            .map(|sim| sim.tick())
        };
        let mut m = machine(3);
        let mut rng = SimRng::seed_from(9);
        let mut sim = OnlineSim::new(
            &mut m,
            None,
            &pool,
            Mix::Balanced,
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget::cost_performance(20),
            &config,
            &plan,
            &mut rng,
        )
        .unwrap();
        while sim.tick() < 30 {
            sim.step(&mut NullObserver);
        }
        let snapshot = sim.checkpoint();
        drop(sim);
        assert_eq!(
            resume(&snapshot, &FaultPlan::none()),
            Err(TrialError::SnapshotMismatch(SnapshotGuard::Machine(
                StateMismatch::FaultPlan
            )))
        );
        assert_eq!(resume(&snapshot, &plan), Ok(30));
    }

    // ----------------------------------------------------------------
    // SLO-aware serving
    // ----------------------------------------------------------------

    #[test]
    fn default_service_policy_is_the_legacy_path() {
        // A ServicePolicy::default() config must not perturb the
        // historical behaviour at all.
        let run = |service: ServicePolicy| {
            serve(
                3,
                ManagerSpec::LinOpt,
                &OnlineConfig {
                    service,
                    ..open_config(250.0, 50.0e6)
                },
                21,
            )
        };
        let default = run(ServicePolicy::default());
        let explicit = run(ServicePolicy {
            reschedule_window_ms: 0.0,
            deadline_slack: f64::INFINITY,
        });
        assert_eq!(default, explicit);
        assert_eq!(default.shed, 0);
    }

    #[test]
    fn tight_deadlines_shed_queued_jobs() {
        let run = |slack: f64| {
            serve(
                4,
                ManagerSpec::LinOpt,
                &OnlineConfig {
                    service: ServicePolicy {
                        reschedule_window_ms: 0.0,
                        deadline_slack: slack,
                    },
                    ..open_config(2000.0, 100.0e6)
                },
                6,
            )
        };
        let strict = run(1.5);
        let loose = run(1e9);
        assert!(strict.shed > 0, "overload with tight slack must shed");
        assert_eq!(loose.shed, 0, "astronomical slack never sheds");
        // Shed jobs surface as dropped latency samples.
        let lat = strict.latency.expect("some jobs complete");
        assert_eq!(lat.dropped, strict.shed);
        // Every shed job is in the event trace and was never admitted.
        let shed_events: Vec<usize> = strict
            .events
            .iter()
            .filter_map(|r| match r.event {
                OnlineEvent::Shed { job } => Some(job),
                _ => None,
            })
            .collect();
        assert_eq!(shed_events.len(), strict.shed);
        for job in shed_events {
            assert_eq!(strict.jobs[job].admit_ms, None);
            assert_eq!(strict.jobs[job].completion_ms, None);
        }
    }

    #[test]
    fn windowed_rescheduling_batches_membership_changes() {
        let run = |window_ms: f64| {
            serve(
                7,
                ManagerSpec::LinOpt,
                &OnlineConfig {
                    migration_penalty_ms: 3.0,
                    service: ServicePolicy {
                        reschedule_window_ms: window_ms,
                        deadline_slack: f64::INFINITY,
                    },
                    ..open_config(600.0, 50.0e6)
                },
                8,
            )
        };
        let per_event = run(0.0);
        let windowed = run(25.0);
        let reschedules = |o: &OnlineOutcome| {
            o.events
                .iter()
                .filter(|r| matches!(r.event, OnlineEvent::Reschedule { .. }))
                .count()
        };
        assert!(
            reschedules(&windowed) < reschedules(&per_event),
            "batching must cut reschedules: {} vs {}",
            reschedules(&windowed),
            reschedules(&per_event)
        );
        assert!(
            windowed.migrations < per_event.migrations,
            "fewer reschedules must move fewer threads: {} vs {}",
            windowed.migrations,
            per_event.migrations
        );
        // Jobs admitted inside a window still run (the incremental
        // placement): throughput does not collapse.
        assert!(windowed.completed > 0);
    }
}
