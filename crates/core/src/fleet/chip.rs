//! One fleet chip: a machine, its control plane, and a windowed
//! serving loop, owned as a value so hundreds can run side by side.
//!
//! [`ChipSim`] is the fleet's unit of parallelism. It runs the serving
//! tick of [`crate::online::OnlineSim`] through the same code for the
//! timeline cadence, fastest-free-core placement, rescheduling with
//! migration charging, and the unmanaged-frequency rule, but it *owns*
//! its machine, RNG, scheduler, and manager instead of borrowing them,
//! and keeps its own job tables: jobs come from a queue the fleet
//! dispatcher fills rather than from a private arrival schedule, and
//! same-tick completions retire in descending thread order (the online
//! loop retires them in completion-event order, so sharing the tables
//! would move one side's trajectory). Every chip reschedules on window
//! boundaries, not per event, because at fleet arrival rates per-event
//! rescheduling is a migration storm.
//!
//! Determinism: a chip's entire stochastic behaviour derives from its
//! own [`vastats::SimRng`], seeded by
//! [`crate::engine::SeedPlan::chip_seed`], and epoch execution touches
//! nothing outside `self` — so chips can run on any worker in any
//! order and the fleet merge (chip index order) is bit-identical to a
//! sequential run.

use crate::experiments::Context;
use crate::manager::{DegradationEvent, HardenedManager, ManagerSpec, PowerBudget};
use crate::profile::{core_profiles, CoreProfile};
use crate::runtime::{place_on_fastest_free, remap, Cadence, FreqMode};
use crate::sched::{Scheduler, SchedulerSpec};
use cmpsim::{Machine, Thread};
use std::collections::VecDeque;
use vastats::SimRng;

use super::FleetConfig;

/// One job routed to a chip: the dispatch-level view of an arrival.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// Fleet-wide job id (arrival order).
    pub id: usize,
    /// Arrival time (ms since the start of the run).
    pub arrival_ms: f64,
    /// First tick the job is admissible at (`ceil(arrival_ms / tick)`).
    pub arrival_tick: usize,
    /// The application the job runs.
    pub spec: cmpsim::AppSpec,
    /// Instructions the job must retire to complete.
    pub instructions: f64,
    /// Phase offset the job's thread starts at (ms).
    pub phase_offset_ms: f64,
}

/// Per-epoch chip statistics, drained by the fleet after every epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochStats {
    /// Jobs admitted to cores this epoch.
    pub admitted: usize,
    /// Jobs completed this epoch.
    pub completed: usize,
    /// Threads moved by reschedules this epoch.
    pub migrations: usize,
    /// Mean chip power over the epoch's ticks (watts; 0 for an empty
    /// epoch).
    pub mean_power_w: f64,
}

/// One chip of the fleet, held as a value.
pub struct ChipSim {
    machine: Machine,
    rng: SimRng,
    cores: Vec<CoreProfile>,
    scheduler: Box<dyn Scheduler>,
    manager: HardenedManager,
    budget: PowerBudget,
    degradations: Vec<DegradationEvent>,
    cadence: Cadence,
    freq_mode: FreqMode,
    window_dirty: bool,
    // Jobs.
    queue: VecDeque<FleetJob>,
    /// Resident jobs, parallel to `machine.threads()` under the
    /// machine's swap_remove semantics.
    resident: Vec<FleetJob>,
    /// Completion flags, parallel to `resident`.
    pending: Vec<bool>,
    // Whole-run totals.
    completed: usize,
    latencies_ms: Vec<f64>,
    power_sum: f64,
    busy_sum: f64,
    ticks_run: usize,
    // Epoch accumulators.
    epoch: EpochStats,
    epoch_power_sum: f64,
    epoch_ticks: usize,
}

impl ChipSim {
    /// Manufactures one chip: die and machine assembled from a
    /// pre-drawn systematic variation field (`sys`) plus this chip's
    /// own `seed` sub-stream, a fresh scheduler/manager pair, and the
    /// fleet timing grid.
    ///
    /// The field comes in from outside so fleet construction can draw
    /// every chip's field in one batched sequential pass (two fields
    /// per FFT on circulant grids) and then assemble chips in
    /// parallel — see `manufacture_chips` in the fleet event loop.
    pub fn new(
        ctx: &Context,
        seed: u64,
        sys: &[f64],
        policy: SchedulerSpec,
        manager: ManagerSpec,
        budget: PowerBudget,
        config: &FleetConfig,
    ) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let die = ctx.generator().die_from_field(sys, &mut rng);
        let machine = ctx.make_machine(&die);
        let cores = core_profiles(&machine);
        let rt = &config.runtime;
        let core_count = machine.core_count();
        Self {
            machine,
            rng,
            cores,
            // `run_fleet` pre-validates both specs, so failures here are
            // programming errors.
            scheduler: policy.build(rt).expect("valid scheduler spec"),
            manager: HardenedManager::new(manager, core_count, false, rt)
                .expect("valid manager spec"),
            budget,
            degradations: Vec::new(),
            cadence: Cadence::new(rt, config.migration_penalty_ms, config.reschedule_window_ms),
            freq_mode: rt.freq_mode,
            window_dirty: false,
            queue: VecDeque::new(),
            resident: Vec::new(),
            pending: Vec::new(),
            completed: 0,
            latencies_ms: Vec::new(),
            power_sum: 0.0,
            busy_sum: 0.0,
            ticks_run: 0,
            epoch: EpochStats::default(),
            epoch_power_sum: 0.0,
            epoch_ticks: 0,
        }
    }

    /// Queues a routed job (admitted once a core frees up at or after
    /// its arrival tick).
    pub fn enqueue(&mut self, job: FleetJob) {
        self.queue.push_back(job);
    }

    /// Jobs queued and not yet admitted.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Threads currently resident.
    pub fn resident_len(&self) -> usize {
        self.resident.len()
    }

    /// Live cores.
    pub fn alive_cores(&self) -> usize {
        self.machine.alive_core_count()
    }

    /// The chip's capability fingerprint as the dispatcher sees it:
    /// the *effective* frequency every live core currently sustains
    /// (its DVFS level under the chip's power allocation, reduced by
    /// any cap), sorted descending. Under a tight budget this is where
    /// variation shows: a low-leakage die runs its cores at higher
    /// levels than a leaky one at the same watts.
    pub fn effective_freq_profile(&self) -> Vec<f64> {
        let mut v: Vec<f64> = (0..self.machine.core_count())
            .filter(|&c| self.machine.core_alive(c))
            .map(|c| self.machine.effective_freq(c))
            .collect();
        v.sort_by(|a, b| b.total_cmp(a));
        v
    }

    /// The chip's current power allocation (watts).
    pub fn budget_w(&self) -> f64 {
        self.budget.chip_w
    }

    /// Points the chip's manager at a new power allocation — the
    /// hierarchy's downlink. Takes effect at the next manager
    /// invocation.
    pub fn set_budget_w(&mut self, chip_w: f64) {
        self.budget.chip_w = chip_w;
    }

    /// Jobs completed over the whole run.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Arrival-to-completion latencies of every completed job (ms), in
    /// completion order.
    pub fn latencies_ms(&self) -> &[f64] {
        &self.latencies_ms
    }

    /// Mean chip power over the whole run (watts).
    pub fn mean_power_w(&self) -> f64 {
        self.power_sum / self.ticks_run.max(1) as f64
    }

    /// Time-averaged fraction of cores running a thread.
    pub fn utilization(&self) -> f64 {
        self.busy_sum / self.ticks_run.max(1) as f64
    }

    /// Drains and resets the epoch accumulators.
    pub fn end_epoch(&mut self) -> EpochStats {
        let mut stats = self.epoch;
        stats.mean_power_w = self.epoch_power_sum / self.epoch_ticks.max(1) as f64;
        self.epoch = EpochStats::default();
        self.epoch_power_sum = 0.0;
        self.epoch_ticks = 0;
        stats
    }

    /// Runs ticks `[start, end)` of the fleet timeline. All state the
    /// loop touches lives in `self`, so epochs of different chips can
    /// execute on different workers with a bit-identical result.
    pub fn run_epoch(&mut self, start: usize, end: usize) {
        for tick in start..end {
            self.step(tick);
        }
    }

    fn step(&mut self, tick: usize) {
        let now_ms = tick as f64 * self.cadence.tick_ms;
        let mut membership_dirty = false;

        // 1. Completions flagged last tick leave before admission looks
        // at the queue. Descending thread order is safe under the
        // machine's swap_remove semantics: the swapped-in tail thread
        // always has a larger index, which this loop already passed.
        for tid in (0..self.resident.len()).rev() {
            if !self.pending[tid] {
                continue;
            }
            self.machine.remove_thread(tid);
            let job = self.resident.swap_remove(tid);
            self.pending.swap_remove(tid);
            self.latencies_ms.push(now_ms - job.arrival_ms);
            self.completed += 1;
            self.epoch.completed += 1;
            membership_dirty = true;
        }

        // 2. FIFO admission into free live cores, with the windowed
        // loop's cheap incremental placement (fastest free live core)
        // so a job starts working before the next window boundary.
        while self.machine.threads().len() < self.machine.alive_core_count() {
            match self.queue.front() {
                Some(job) if job.arrival_tick <= tick => {}
                _ => break,
            }
            let job = self.queue.pop_front().expect("checked above");
            let tid = self.machine.add_thread(Thread::with_phase_offset(
                job.spec.clone(),
                job.phase_offset_ms,
            ));
            debug_assert_eq!(tid, self.resident.len());
            self.resident.push(job);
            self.pending.push(false);
            self.epoch.admitted += 1;
            membership_dirty = true;
            place_on_fastest_free(&mut self.machine, &self.cores, &mut self.manager, tid);
        }

        // 3. Full reschedule on the OS boundary, or for batched
        // membership changes at the window boundary (per-event when the
        // window is zero).
        let membership_trigger =
            self.cadence
                .membership_trigger(tick, membership_dirty, &mut self.window_dirty);
        let os_due = tick.is_multiple_of(self.cadence.os_every);
        if (os_due || membership_trigger) && !self.machine.threads().is_empty() {
            self.window_dirty = false;
            let remap = remap(
                self.scheduler.as_mut(),
                &self.cores,
                &mut self.machine,
                &mut self.rng,
                &mut self.manager,
                self.cadence.penalty_s,
                self.freq_mode,
            );
            self.epoch.migrations += remap.moved.len();
        }

        // 4. Power manager on the DVFS boundary and at the same cadence
        // membership changes retrigger the scheduler.
        let dvfs_due = tick.is_multiple_of(self.cadence.dvfs_every);
        if self.manager.is_managed() && (dvfs_due || membership_trigger) {
            let _ = self.manager.invoke(
                &mut self.machine,
                &self.budget,
                &mut self.rng,
                &mut self.degradations,
            );
            self.degradations.clear();
        }

        // 5. Advance the physics and the accumulators.
        let stats = self.machine.step(self.cadence.dt_s);
        self.power_sum += stats.total_power_w;
        self.epoch_power_sum += stats.total_power_w;
        let active = (0..self.machine.core_count())
            .filter(|&c| self.machine.thread_of(c).is_some())
            .count();
        self.busy_sum += active as f64 / self.machine.core_count() as f64;
        self.ticks_run += 1;
        self.epoch_ticks += 1;

        // 6. Completion detection: a job crossing its budget this tick
        // leaves at the start of the next (it cannot retire further).
        for (tid, thread) in self.machine.threads().iter().enumerate() {
            if !self.pending[tid] && thread.instructions() >= self.resident[tid].instructions {
                self.pending[tid] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ServingSite;
    use crate::runtime::RuntimeConfig;

    fn config() -> FleetConfig {
        FleetConfig {
            runtime: RuntimeConfig {
                duration_ms: 100.0,
                os_interval_ms: 50.0,
                ..RuntimeConfig::paper_default()
            },
            ..FleetConfig::serving_default()
        }
    }

    /// Draws a systematic field the way fleet construction would —
    /// from a dedicated stream separate from the chip's own seed.
    fn sys_field(site: &ServingSite, seed: u64) -> Vec<f64> {
        site.ctx()
            .generator()
            .field()
            .sample(&mut SimRng::seed_from(seed ^ 0xF1E1D))
    }

    fn job(id: usize, spec: cmpsim::AppSpec, arrival_tick: usize) -> FleetJob {
        FleetJob {
            id,
            arrival_ms: arrival_tick as f64,
            arrival_tick,
            spec,
            instructions: 3.0e6,
            phase_offset_ms: 0.0,
        }
    }

    #[test]
    fn chip_serves_queued_jobs_to_completion() {
        let site = ServingSite::at_grid(20);
        let cfg = config();
        let mut chip = ChipSim::new(
            site.ctx(),
            7,
            &sys_field(&site, 7),
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget {
                chip_w: 40.0,
                per_core_w: PowerBudget::DEFAULT_PER_CORE_W,
            },
            &cfg,
        );
        for i in 0..6 {
            chip.enqueue(job(i, site.pool()[i % site.pool().len()].clone(), i));
        }
        chip.run_epoch(0, 100);
        assert_eq!(chip.queue_len(), 0, "all jobs admitted");
        assert!(chip.completed() > 0, "short jobs must complete");
        assert_eq!(chip.latencies_ms().len(), chip.completed());
        for &l in chip.latencies_ms() {
            assert!(l > 0.0 && l < 100.0);
        }
        assert!(chip.mean_power_w() > 0.0);
        assert!(chip.utilization() > 0.0 && chip.utilization() <= 1.0);
    }

    #[test]
    fn epoch_stats_drain_and_reset() {
        let site = ServingSite::at_grid(20);
        let cfg = config();
        let mut chip = ChipSim::new(
            site.ctx(),
            9,
            &sys_field(&site, 9),
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget {
                chip_w: 40.0,
                per_core_w: PowerBudget::DEFAULT_PER_CORE_W,
            },
            &cfg,
        );
        for i in 0..4 {
            chip.enqueue(job(i, site.pool()[i].clone(), 0));
        }
        chip.run_epoch(0, 20);
        let first = chip.end_epoch();
        assert_eq!(first.admitted, 4);
        assert!(first.mean_power_w > 0.0);
        let empty = chip.end_epoch();
        assert_eq!(empty, EpochStats::default());
    }

    #[test]
    fn same_seed_same_epoch_split_is_bit_identical() {
        // The chip's determinism contract in miniature: running
        // [0,100) in one call or four must not change a single bit of
        // the outputs the fleet merges.
        let site = ServingSite::at_grid(20);
        let cfg = config();
        let run = |cuts: &[usize]| {
            let mut chip = ChipSim::new(
                site.ctx(),
                11,
                &sys_field(&site, 11),
                SchedulerSpec::VarFAppIpc,
                ManagerSpec::LinOpt,
                PowerBudget {
                    chip_w: 40.0,
                    per_core_w: PowerBudget::DEFAULT_PER_CORE_W,
                },
                &cfg,
            );
            for i in 0..10 {
                chip.enqueue(job(i, site.pool()[i % site.pool().len()].clone(), i * 3));
            }
            let mut start = 0;
            for &cut in cuts {
                chip.run_epoch(start, cut);
                let _ = chip.end_epoch();
                start = cut;
            }
            chip.run_epoch(start, 100);
            (
                chip.completed(),
                chip.latencies_ms().to_vec(),
                chip.mean_power_w().to_bits(),
                chip.utilization().to_bits(),
            )
        };
        assert_eq!(run(&[]), run(&[25, 50, 75]));
    }

    #[test]
    fn unmanaged_uniform_chip_runs_every_active_core_at_one_frequency() {
        let site = ServingSite::at_grid(20);
        let mut cfg = config();
        cfg.runtime.freq_mode = FreqMode::Uniform;
        let mut chip = ChipSim::new(
            site.ctx(),
            17,
            &sys_field(&site, 17),
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::None,
            PowerBudget::high_performance(20),
            &cfg,
        );
        for i in 0..6 {
            chip.enqueue(job(i, site.pool()[i].clone(), 0));
        }
        chip.run_epoch(0, 1);
        let freqs: Vec<f64> = (0..20)
            .filter(|&c| chip.machine.thread_of(c).is_some())
            .map(|c| chip.machine.effective_freq(c))
            .collect();
        assert_eq!(freqs.len(), 6);
        assert!(
            freqs.iter().all(|&f| f == freqs[0]),
            "UniFreq must pin one frequency: {freqs:?}"
        );
    }

    #[test]
    fn effective_profile_is_sorted_and_tracks_throttling() {
        let site = ServingSite::at_grid(20);
        let cfg = config();
        let mut chip = ChipSim::new(
            site.ctx(),
            13,
            &sys_field(&site, 13),
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
            PowerBudget {
                chip_w: 40.0,
                per_core_w: PowerBudget::DEFAULT_PER_CORE_W,
            },
            &cfg,
        );
        let caps = chip.effective_freq_profile();
        assert_eq!(caps.len(), 20);
        for w in caps.windows(2) {
            assert!(w[0] >= w[1]);
        }
        // Load the chip and run: under the tight 40 W budget the
        // manager cannot hold every core at its rated maximum, so the
        // advertised capability must sit below the rated total.
        let rated_total: f64 = (0..20).map(|c| chip.machine.rated_max_freq(c)).sum();
        for i in 0..20 {
            chip.enqueue(job(i, site.pool()[i % site.pool().len()].clone(), 0));
        }
        chip.run_epoch(0, 30);
        let loaded_total: f64 = chip.effective_freq_profile().iter().sum();
        assert!(
            loaded_total < rated_total,
            "throttled profile {loaded_total:.3e} must undercut rated {rated_total:.3e}"
        );
    }
}
