//! The four workloads: their literal parameters, construction, and one
//! measured round each.
//!
//! Every parameter is written out here rather than borrowed from
//! `vasched::experiments`, so editing an experiment can never change
//! what the benchmark measures. A round is a pure function of the seed:
//! every round of a run must digest identically.

use crate::fleet_loop::{self, FleetSpans};
use crate::outcome::{
    dvfs_round, fleet_round, last_epoch_backlog, online_round, FleetTotals, Round,
};
use crate::stats::median;
use crate::trace::{time_between_arms, LayerSpans, SpanObserver};
use cmpsim::Mix;
use std::time::Instant;
use vasched::engine::{
    loaded_machine, OnlineArm, OnlineTrialSpec, SeedPlan, TrialArm, TrialResult, TrialRunner,
    TrialSpec,
};
use vasched::experiments::ServingSite;
use vasched::fleet::{build_fleet_chips, run_fleet, DispatchPolicy, FleetConfig, FleetSpec};
use vasched::manager::{ManagerSpec, PowerBudget};
use vasched::online::{ArrivalConfig, OnlineConfig, ServicePolicy};
use vasched::profile::thread_profiles;
use vasched::runtime::{FreqMode, RuntimeConfig};
use vasched::sched::SchedulerSpec;
use vastats::SimRng;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The §7.5 batch protocol without SAnn (Figs 11a/b).
    DvfsLinopt,
    /// SAnn at the paper-scale 100k-evaluation budget against LinOpt.
    DvfsSann,
    /// One 40 W chip serving a 3×-overloaded Poisson stream.
    OnlineSlo,
    /// A 256-chip fleet under variation-aware dispatch.
    FleetVa,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 4] = [
        Kind::DvfsLinopt,
        Kind::DvfsSann,
        Kind::OnlineSlo,
        Kind::FleetVa,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DvfsLinopt => "dvfs_linopt",
            Kind::DvfsSann => "dvfs_sann",
            Kind::OnlineSlo => "online_slo",
            Kind::FleetVa => "fleet_va",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Workload sizes. [`Sizing::full`] is what the benchmark measures;
/// [`Sizing::tiny`] keeps the same shapes at test scale.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizing {
    /// Variation-map grid per axis.
    pub grid: usize,
    /// Thread counts of `dvfs_linopt`.
    pub thread_counts: Vec<usize>,
    /// Dies per thread count in `dvfs_linopt`.
    pub dies_per_count: usize,
    /// Simulated milliseconds per batch arm-run.
    pub trial_ms: f64,
    /// Trials of `dvfs_sann`.
    pub sann_trials: usize,
    /// SAnn cost evaluations per manager invocation.
    pub sann_evaluations: usize,
    /// Dies (trials) of `online_slo`.
    pub online_dies: usize,
    /// Serving horizon of `online_slo` (ms).
    pub online_ms: f64,
    /// Chips of `fleet_va`.
    pub fleet_chips: usize,
    /// Fleet horizon (ms).
    pub fleet_ms: f64,
}

impl Sizing {
    /// The measured sizes: the paper-scale protocol and the ROADMAP's
    /// fleet shape.
    pub fn full() -> Self {
        Self {
            grid: 60,
            thread_counts: vec![4, 8, 16, 20],
            dies_per_count: 60,
            trial_ms: 300.0,
            sann_trials: 6,
            sann_evaluations: 100_000,
            online_dies: 16,
            online_ms: 4_000.0,
            fleet_chips: 256,
            fleet_ms: 200.0,
        }
    }

    /// Test-scale sizes: every code path, a fraction of a second.
    pub fn tiny() -> Self {
        Self {
            grid: 20,
            thread_counts: vec![4, 8],
            dies_per_count: 2,
            trial_ms: 60.0,
            sann_trials: 2,
            sann_evaluations: 2_000,
            online_dies: 2,
            online_ms: 300.0,
            fleet_chips: 8,
            fleet_ms: 120.0,
        }
    }
}

/// Seed plan of the batch workloads: `seed · 1 000 033 + 1000 · threads + trial`.
fn dvfs_plan(threads: usize) -> SeedPlan {
    SeedPlan {
        mul: 1_000_033,
        offset: (threads * 1000) as u64,
        stride: 1,
    }
}

/// Seed plan of `online_slo`.
const ONLINE_PLAN: SeedPlan = SeedPlan {
    mul: 1_000_003,
    offset: 95_000,
    stride: 1,
};

/// Threads in every `dvfs_sann` trial.
const SANN_THREADS: usize = 20;
/// Initial residents of every `online_slo` trial (one per core).
const ONLINE_INITIAL_JOBS: usize = 20;
/// The serving chip's power budget (W) and per-core cap (W).
const SERVE_CHIP_W: f64 = 40.0;
const PER_CORE_W: f64 = 12.0;
/// Fleet chips per rack.
const CHIPS_PER_RACK: usize = 4;

/// What a traced round recorded besides its [`Round`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Spans over every arm.
    pub layers: LayerSpans,
    /// Spans of the SAnn arm alone (`dvfs_sann`).
    pub sann: LayerSpans,
    /// Fleet phase times (`fleet_va`).
    pub fleet: Option<FleetSpans>,
    /// Host time the engine spent outside every arm, summed over
    /// workers: die and machine construction plus workload draws.
    pub between_arms_s: f64,
}

/// Construction timings of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    /// The whole set-up (seconds).
    pub total_s: f64,
    /// Summed `make_die` time (seconds).
    pub make_die_s: f64,
    /// Summed `make_machine` time (seconds).
    pub make_machine_s: f64,
    /// Dies built.
    pub dies: usize,
    /// `build_fleet_chips` (seconds; fleet only).
    pub build_chips_s: f64,
}

/// One workload at one seed, ready to run rounds.
pub struct Workload {
    kind: Kind,
    sizing: Sizing,
    seed: u64,
    site: ServingSite,
}

impl Workload {
    /// Builds the shared context (floorplan, die generator, app pool).
    pub fn new(kind: Kind, sizing: Sizing, seed: u64) -> Self {
        let site = ServingSite::at_grid(sizing.grid);
        Self {
            kind,
            sizing,
            seed,
            site,
        }
    }

    /// The sizes it runs at.
    pub fn sizing(&self) -> &Sizing {
        &self.sizing
    }

    /// Median host time (µs) of one `profile::thread_profiles` call on
    /// a machine loaded with 20 threads — the profiling half of every
    /// `sched` span.
    pub fn time_thread_profiles(&self, reps: usize) -> f64 {
        let mut rng = SimRng::seed_from(self.seed);
        let machine = loaded_machine(self.site.ctx(), self.site.pool(), 20, &mut rng);
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(thread_profiles(&machine, &mut rng));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples)
    }

    /// Simulated chip-milliseconds one round covers.
    pub fn sim_chip_ms(&self) -> f64 {
        let s = &self.sizing;
        match self.kind {
            Kind::DvfsLinopt => (s.thread_counts.len() * s.dies_per_count * 3) as f64 * s.trial_ms,
            Kind::DvfsSann => (s.sann_trials * 2) as f64 * s.trial_ms,
            Kind::OnlineSlo => s.online_dies as f64 * s.online_ms,
            Kind::FleetVa => s.fleet_chips as f64 * s.fleet_ms,
        }
    }

    /// The seed of every die the engine manufactures in one round.
    fn trial_seeds(&self) -> Vec<u64> {
        let s = &self.sizing;
        match self.kind {
            Kind::DvfsLinopt => s
                .thread_counts
                .iter()
                .flat_map(|&t| {
                    (0..s.dies_per_count).map(move |i| dvfs_plan(t).derive(self.seed, i))
                })
                .collect(),
            Kind::DvfsSann => (0..s.sann_trials)
                .map(|i| dvfs_plan(SANN_THREADS).derive(self.seed, i))
                .collect(),
            Kind::OnlineSlo => (0..s.online_dies)
                .map(|i| ONLINE_PLAN.derive(self.seed, i))
                .collect(),
            Kind::FleetVa => Vec::new(),
        }
    }

    fn runtime(duration_ms: f64) -> RuntimeConfig {
        RuntimeConfig::builder()
            .tick_ms(1.0)
            .dvfs_interval_ms(10.0)
            .os_interval_ms(duration_ms.min(100.0))
            .duration_ms(duration_ms)
            .freq_mode(FreqMode::NonUniform)
            .deviation_warmup_ms(100.0)
            .build()
            .expect("benchmark timeline is valid")
    }

    /// The batch specs of a round (one per thread count) and the
    /// (baseline, managed) arm indices the ratios compare.
    fn dvfs_specs(&self) -> (Vec<TrialSpec<'_>>, usize, usize) {
        let s = &self.sizing;
        let runtime = Self::runtime(s.trial_ms);
        let arm = |label: &str, policy, manager, threads| TrialArm {
            label: label.to_string(),
            policy,
            manager,
            budget: PowerBudget::scaled(75.0, threads),
            runtime,
            rng_salt: Some(0x5EED),
        };
        let build = |threads: usize, trials: usize, arms: Vec<TrialArm>| {
            TrialSpec::builder(self.site.ctx(), self.site.pool())
                .threads(threads)
                .mix(Mix::Balanced)
                .trials(trials)
                .seed(self.seed)
                .plan(dvfs_plan(threads))
                .arms(arms)
                .build()
                .expect("benchmark spec is valid")
        };
        match self.kind {
            Kind::DvfsLinopt => {
                let specs = s
                    .thread_counts
                    .iter()
                    .map(|&t| {
                        let arms = vec![
                            arm(
                                "Random+Foxton*",
                                SchedulerSpec::Random,
                                ManagerSpec::FoxtonStar,
                                t,
                            ),
                            arm(
                                "VarF&AppIPC+Foxton*",
                                SchedulerSpec::VarFAppIpc,
                                ManagerSpec::FoxtonStar,
                                t,
                            ),
                            arm(
                                "VarF&AppIPC+LinOpt",
                                SchedulerSpec::VarFAppIpc,
                                ManagerSpec::LinOpt,
                                t,
                            ),
                        ];
                        build(t, s.dies_per_count, arms)
                    })
                    .collect();
                (specs, 0, 2)
            }
            Kind::DvfsSann => {
                let t = SANN_THREADS;
                let arms = vec![
                    arm(
                        "VarF&AppIPC+LinOpt",
                        SchedulerSpec::VarFAppIpc,
                        ManagerSpec::LinOpt,
                        t,
                    ),
                    arm(
                        "VarF&AppIPC+SAnn",
                        SchedulerSpec::VarFAppIpc,
                        ManagerSpec::SAnn {
                            evaluations: s.sann_evaluations,
                        },
                        t,
                    ),
                ];
                (vec![build(t, s.sann_trials, arms)], 0, 1)
            }
            _ => unreachable!("not a batch workload"),
        }
    }

    fn online_spec(&self) -> OnlineTrialSpec<'_> {
        let config = OnlineConfig {
            runtime: Self::runtime(self.sizing.online_ms),
            arrivals: ArrivalConfig::poisson(240.0, 200.0e6),
            initial_jobs: ONLINE_INITIAL_JOBS,
            migration_penalty_ms: 3.0,
            service: ServicePolicy {
                reschedule_window_ms: 10.0,
                deadline_slack: 2.0,
            },
        };
        OnlineTrialSpec::builder(self.site.ctx(), self.site.pool())
            .mix(Mix::Balanced)
            .trials(self.sizing.online_dies)
            .seed(self.seed)
            .plan(ONLINE_PLAN)
            .arm(OnlineArm {
                label: "VarF&AppIPC+LinOpt".to_string(),
                policy: SchedulerSpec::VarFAppIpc,
                manager: ManagerSpec::LinOpt,
                budget: PowerBudget {
                    chip_w: SERVE_CHIP_W,
                    per_core_w: PER_CORE_W,
                },
                config,
                rng_salt: Some(0x510),
            })
            .build()
            .expect("benchmark spec is valid")
    }

    fn fleet_spec(&self) -> FleetSpec<'_> {
        let chips = self.sizing.fleet_chips;
        FleetSpec {
            site: &self.site,
            mix: Mix::Balanced,
            chips,
            chips_per_rack: CHIPS_PER_RACK,
            policy: SchedulerSpec::VarFAppIpc,
            manager: ManagerSpec::LinOpt,
            dispatch: DispatchPolicy::VariationAware,
            config: FleetConfig {
                runtime: Self::runtime(self.sizing.fleet_ms),
                epoch_ms: 10.0,
                arrivals: ArrivalConfig::poisson(1_500.0 * chips as f64, 3.0e6),
                datacenter_budget_w: SERVE_CHIP_W * chips as f64,
                budget_gain: 0.4,
                migration_penalty_ms: 1.0,
                reschedule_window_ms: 20.0,
                max_queue_per_chip: 40,
            },
            seed: self.seed,
            plan: SeedPlan::default(),
        }
    }

    /// Times one construction of the workload's inputs through the
    /// public constructors: the shared context, then every die and
    /// machine a round manufactures (or the whole fleet's chips). It
    /// runs on one thread: with two, where the scheduler happens to
    /// place them moves small set-ups by 20% from run to run.
    pub fn time_setup(kind: Kind, sizing: &Sizing, seed: u64) -> SetupTiming {
        let start = Instant::now();
        let wl = Workload::new(kind, sizing.clone(), seed);
        let mut t = SetupTiming::default();
        if kind == Kind::FleetVa {
            let built = Instant::now();
            let chips = build_fleet_chips(&wl.fleet_spec(), 1).expect("fleet spec is valid");
            t.build_chips_s = built.elapsed().as_secs_f64();
            std::hint::black_box(&chips);
        } else {
            let ctx = wl.site.ctx();
            for seed in wl.trial_seeds() {
                let mut rng = SimRng::seed_from(seed);
                let t0 = Instant::now();
                let die = ctx.make_die(&mut rng);
                let t1 = Instant::now();
                std::hint::black_box(ctx.make_machine(&die));
                t.make_die_s += t1.duration_since(t0).as_secs_f64();
                t.make_machine_s += t1.elapsed().as_secs_f64();
                t.dies += 1;
            }
        }
        t.total_s = start.elapsed().as_secs_f64();
        t
    }

    /// One untraced round through the public entry points.
    pub fn round(&self, workers: usize) -> Round {
        let runner = TrialRunner::with_workers(workers);
        let start = Instant::now();
        match self.kind {
            Kind::DvfsLinopt | Kind::DvfsSann => {
                let (specs, base, managed) = self.dvfs_specs();
                let results: Vec<Vec<TrialResult>> = specs.iter().map(|s| runner.run(s)).collect();
                let wall_s = start.elapsed().as_secs_f64();
                dvfs_round(&results, base, managed, wall_s)
            }
            Kind::OnlineSlo => {
                let results = runner.run_online(&self.online_spec());
                let wall_s = start.elapsed().as_secs_f64();
                online_round(&results, ONLINE_INITIAL_JOBS, wall_s)
            }
            Kind::FleetVa => {
                let out = run_fleet(&self.fleet_spec(), workers).expect("fleet spec is valid");
                let wall_s = start.elapsed().as_secs_f64();
                let mut problems = Vec::new();
                let (queued, resident) = last_epoch_backlog(&out.trace).unwrap_or_else(|e| {
                    problems.push(e);
                    (0, 0)
                });
                let totals = FleetTotals {
                    arrived: out.arrived,
                    completed: out.completed,
                    shed: out.shed,
                    migrations: out.migrations,
                    queued,
                    resident,
                    latency: out.latency,
                    duration_ms: out.duration_ms,
                    datacenter: out.datacenter,
                    racks: out.rack_reports,
                };
                let mut round = fleet_round(&totals, wall_s);
                round.problems.extend(problems);
                round
            }
        }
    }

    /// One traced round: the same simulation with spans recorded.
    pub fn traced_round(&self, workers: usize) -> (Round, Trace) {
        let runner = TrialRunner::with_workers(workers);
        let start = Instant::now();
        let mut trace = Trace::default();
        let round = match self.kind {
            Kind::DvfsLinopt | Kind::DvfsSann => {
                let (specs, base, managed) = self.dvfs_specs();
                let mut observed = Vec::with_capacity(specs.len());
                for spec in &specs {
                    let spec_start = Instant::now();
                    observed.push((
                        spec_start,
                        runner.run_observed(spec, |_| SpanObserver::new()),
                    ));
                }
                let wall_s = start.elapsed().as_secs_f64();
                let mut results = Vec::with_capacity(observed.len());
                for (spec_start, trials) in observed {
                    trace.between_arms_s += time_between_arms(
                        spec_start,
                        trials.iter().flat_map(|(_, obs)| obs.iter()),
                    );
                    let mut batch = Vec::with_capacity(trials.len());
                    for (result, observers) in trials {
                        for (ai, obs) in observers.iter().enumerate() {
                            trace.layers.merge(obs.spans());
                            if self.kind == Kind::DvfsSann && ai == managed {
                                trace.sann.merge(obs.spans());
                            }
                        }
                        batch.push(result);
                    }
                    results.push(batch);
                }
                dvfs_round(&results, base, managed, wall_s)
            }
            Kind::OnlineSlo => {
                let observed =
                    runner.run_online_observed(&self.online_spec(), |_| SpanObserver::new());
                let wall_s = start.elapsed().as_secs_f64();
                trace.between_arms_s =
                    time_between_arms(start, observed.iter().flat_map(|(_, obs)| obs.iter()));
                let mut results = Vec::with_capacity(observed.len());
                for (result, observers) in observed {
                    for obs in &observers {
                        trace.layers.merge(obs.spans());
                    }
                    results.push(result);
                }
                online_round(&results, ONLINE_INITIAL_JOBS, wall_s)
            }
            Kind::FleetVa => {
                let (totals, spans) = fleet_loop::epoch_loop(&self.fleet_spec(), workers);
                trace.fleet = Some(spans);
                fleet_round(&totals, start.elapsed().as_secs_f64())
            }
        };
        (round, trace)
    }
}
