//! One fleet chip: the online serving loop over the chip's own machine
//! and RNG, owned as a value so hundreds can run side by side.
//!
//! [`ChipSim`] is the fleet's unit of parallelism. It holds one
//! [`OnlineSim`] in its owned form and adds nothing to the tick: jobs
//! the dispatcher routes here are injected into the loop as arrivals,
//! [`ChipSim::run_epoch`] steps it, and every statistic the fleet reads
//! comes from the loop's job records, counters and event log. The
//! loop's fault handling, deadlines and observer hooks are therefore
//! the chip's too. Every chip reschedules on window boundaries
//! ([`super::FleetConfig::reschedule_window_ms`]), not per event,
//! because at fleet arrival rates per-event rescheduling is a
//! migration storm.
//!
//! Determinism: a chip's entire stochastic behaviour derives from its
//! own [`vastats::SimRng`], seeded by
//! [`crate::engine::SeedPlan::chip_seed`], and epoch execution touches
//! nothing outside `self` — so chips can run on any worker in any
//! order and the fleet merge (chip index order) is bit-identical to a
//! sequential run.

use crate::experiments::Context;
use crate::manager::{ManagerSpec, PowerBudget};
use crate::online::{JobRecord, JobSpec, OnlineEvent, OnlineSim};
use crate::runtime::TrialObserver;
use crate::sched::SchedulerSpec;
use cmpsim::{Machine, StepStats};
use std::cell::OnceCell;
use vastats::SimRng;

use super::FleetConfig;

/// One job routed to a chip: the dispatch-level view of an arrival.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// Fleet-wide job id (arrival order). The chip numbers its own jobs
    /// in the order they are enqueued.
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

/// The chip's `on_step` observer: chip power summed in tick order over
/// the whole run and over the current epoch.
#[derive(Debug, Default)]
struct PowerSums {
    run_w: f64,
    epoch_w: f64,
    epoch_ticks: usize,
}

impl TrialObserver for PowerSums {
    fn on_step(&mut self, _machine: &Machine, stats: &StepStats) {
        self.run_w += stats.total_power_w;
        self.epoch_w += stats.total_power_w;
        self.epoch_ticks += 1;
    }
}

/// One chip of the fleet, held as a value.
pub struct ChipSim {
    sim: OnlineSim<'static>,
    power: PowerSums,
    /// Completed jobs' latencies, collected from the job records on
    /// first read after a run.
    latencies: OnceCell<Vec<f64>>,
}

impl ChipSim {
    /// Manufactures one chip: die and machine assembled from a
    /// pre-drawn systematic variation field (`sys`) plus this chip's
    /// own `seed` sub-stream, under a serving loop with a fresh
    /// scheduler/manager pair on the fleet timing grid
    /// ([`FleetConfig`]'s per-chip loop configuration).
    ///
    /// The field comes in from outside so fleet construction can draw
    /// every chip's field in one batched sequential pass (two fields
    /// per FFT on circulant grids) and then assemble chips in
    /// parallel — see `manufacture_chips` in the fleet event loop.
    ///
    /// # Panics
    ///
    /// Panics if `config` or either spec is invalid; `run_fleet` and
    /// `build_fleet_chips` validate them before building any chip.
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
        let sim = OnlineSim::owned(machine, policy, manager, budget, &config.chip_config(), rng)
            .expect("valid fleet chip configuration");
        Self {
            sim,
            power: PowerSums::default(),
            latencies: OnceCell::new(),
        }
    }

    /// Queues a routed job: it arrives at its arrival tick and is
    /// admitted once a live core is free.
    pub fn enqueue(&mut self, job: FleetJob) {
        self.sim.inject(
            job.arrival_tick,
            JobSpec {
                arrival_ms: job.arrival_ms,
                spec: job.spec,
                instructions: job.instructions,
                phase_offset_ms: job.phase_offset_ms,
            },
        );
    }

    /// Jobs queued and not yet admitted.
    pub fn queue_len(&self) -> usize {
        self.sim.waiting()
    }

    /// Threads currently resident.
    pub fn resident_len(&self) -> usize {
        self.sim.machine().threads().len()
    }

    /// Live cores.
    pub fn alive_cores(&self) -> usize {
        self.sim.machine().alive_core_count()
    }

    /// The chip's capability fingerprint as the dispatcher sees it:
    /// the *effective* frequency every live core currently sustains
    /// (its DVFS level under the chip's power allocation, reduced by
    /// any cap), sorted descending. Under a tight budget this is where
    /// variation shows: a low-leakage die runs its cores at higher
    /// levels than a leaky one at the same watts.
    pub fn effective_freq_profile(&self) -> Vec<f64> {
        let machine = self.sim.machine();
        let mut v: Vec<f64> = (0..machine.core_count())
            .filter(|&c| machine.core_alive(c))
            .map(|c| machine.effective_freq(c))
            .collect();
        v.sort_by(|a, b| b.total_cmp(a));
        v
    }

    /// The chip's current power allocation (watts).
    pub fn budget_w(&self) -> f64 {
        self.sim.budget.chip_w
    }

    /// Points the chip's manager at a new power allocation — the
    /// hierarchy's downlink. Takes effect at the next manager
    /// invocation.
    pub fn set_budget_w(&mut self, chip_w: f64) {
        self.sim.budget.chip_w = chip_w;
    }

    /// Jobs completed over the whole run.
    pub fn completed(&self) -> usize {
        self.sim.counters().completed
    }

    /// Arrival-to-completion latencies of every completed job (ms), in
    /// the order the jobs were enqueued.
    pub fn latencies_ms(&self) -> &[f64] {
        self.latencies.get_or_init(|| {
            self.sim
                .jobs()
                .iter()
                .filter_map(JobRecord::latency_ms)
                .collect()
        })
    }

    /// Mean chip power over the whole run (watts).
    pub fn mean_power_w(&self) -> f64 {
        self.power.run_w / self.sim.tick().max(1) as f64
    }

    /// Time-averaged fraction of cores running a thread.
    pub fn utilization(&self) -> f64 {
        self.sim.counters().util_sum / self.sim.tick().max(1) as f64
    }

    /// Drains the epoch's statistics from the loop's event log and the
    /// power observer, and resets both.
    pub fn end_epoch(&mut self) -> EpochStats {
        let mut stats = EpochStats {
            mean_power_w: self.power.epoch_w / self.power.epoch_ticks.max(1) as f64,
            ..EpochStats::default()
        };
        self.power.epoch_w = 0.0;
        self.power.epoch_ticks = 0;
        for record in self.sim.drain_events() {
            match record.event {
                OnlineEvent::Admit { .. } => stats.admitted += 1,
                OnlineEvent::Complete { .. } => stats.completed += 1,
                OnlineEvent::Reschedule { moved, .. } => stats.migrations += moved,
                _ => {}
            }
        }
        stats
    }

    /// Runs ticks `[start, end)` of the fleet timeline. Epochs run back
    /// to back from tick 0, so `start` is the loop's next tick. All
    /// state the loop touches lives in `self`, so epochs of different
    /// chips can execute on different workers with a bit-identical
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if `end` lies beyond the fleet's horizon.
    pub fn run_epoch(&mut self, start: usize, end: usize) {
        debug_assert_eq!(start, self.sim.tick(), "epochs run back to back");
        self.latencies.take();
        while self.sim.tick() < end {
            self.sim.step(&mut self.power);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ServingSite;
    use crate::runtime::{FreqMode, RuntimeConfig};

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
        // [0,100) in one call or in any run of epochs must not change a
        // single bit of the outputs the fleet merges.
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
            let mut counts = (0, 0, 0);
            for &end in cuts.iter().chain([&100]) {
                chip.run_epoch(start, end);
                let s = chip.end_epoch();
                counts = (
                    counts.0 + s.admitted,
                    counts.1 + s.completed,
                    counts.2 + s.migrations,
                );
                start = end;
            }
            (
                counts,
                chip.completed(),
                chip.latencies_ms().to_vec(),
                chip.mean_power_w().to_bits(),
                chip.utilization().to_bits(),
            )
        };
        let whole = run(&[]);
        assert_eq!(whole, run(&[25, 50, 75]));
        let mut rng = SimRng::seed_from(0xC075);
        for _ in 0..4 {
            let mut cuts: Vec<usize> = (0..1 + rng.index(6)).map(|_| 1 + rng.index(99)).collect();
            cuts.sort_unstable();
            cuts.dedup();
            assert_eq!(whole, run(&cuts), "epoch cuts {cuts:?}");
        }
    }

    #[test]
    fn first_placement_is_free_at_window_zero() {
        // Per-event rescheduling places admitted jobs in the same tick:
        // a thread's first core is not a migration.
        let site = ServingSite::at_grid(20);
        let mut cfg = config();
        cfg.reschedule_window_ms = 0.0;
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
        for i in 0..8 {
            chip.enqueue(job(i, site.pool()[i % site.pool().len()].clone(), 0));
        }
        chip.run_epoch(0, 1);
        let stats = chip.end_epoch();
        assert_eq!(stats.admitted, 8);
        assert_eq!(stats.migrations, 0);
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
            .filter(|&c| chip.sim.machine().thread_of(c).is_some())
            .map(|c| chip.sim.machine().effective_freq(c))
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
        let rated_total: f64 = (0..20).map(|c| chip.sim.machine().rated_max_freq(c)).sum();
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
