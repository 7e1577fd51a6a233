//! Integration tests for the fault-injection subsystem: the
//! bit-identity contract of zero-fault plans, determinism of faulted
//! runs across worker counts, and the graceful-degradation ladder
//! (solver fallback, thread parking) observed through the public API.

use vasp::cmpsim::{app_pool, FaultPlan, Mix, Workload};
use vasp::vasched::engine::{OnlineArm, SeedPlan, TrialArm, TrialRunner, TrialSpec};
use vasp::vasched::experiments::{Context, Scale};
use vasp::vasched::manager::{DegradationEvent, ManagerSpec, PowerBudget};
use vasp::vasched::online::{run_online, ArrivalConfig, OnlineConfig, OnlineEvent, ServicePolicy};
use vasp::vasched::runtime::{run_trial, NullObserver, RuntimeConfig, TrialObserver};
use vasp::vasched::sched::SchedulerSpec;
use vasp::vastats::SimRng;

fn runtime() -> RuntimeConfig {
    RuntimeConfig::builder()
        .duration_ms(80.0)
        .os_interval_ms(20.0)
        .build()
        .unwrap()
}

/// A fault plan exercising every fault type at once.
fn stress_plan() -> FaultPlan {
    FaultPlan::none()
        .with_seed(0xBAD)
        .with_sensor_noise(0.04)
        .with_sensor_drift(0.05)
        .with_stuck_sensor(7, 30.0)
        .with_core_failure(3, 25.0)
        .with_core_failure(12, 55.0)
        .with_budget_drop(40.0, 60.0, 0.6)
}

fn faulted_spec<'a>(ctx: &'a Context, pool: &'a [vasp::cmpsim::AppSpec]) -> TrialSpec<'a> {
    let budget = PowerBudget::cost_performance(16);
    TrialSpec::builder(ctx, pool)
        .threads(16)
        .mix(Mix::Balanced)
        .trials(3)
        .seed(2024)
        .plan(SeedPlan {
            mul: 1_000_003,
            offset: 55_000,
            stride: 1,
        })
        .fault_plan(stress_plan())
        .arm(TrialArm {
            label: "Foxton*".into(),
            policy: SchedulerSpec::Random,
            manager: ManagerSpec::FoxtonStar,
            budget,
            runtime: runtime(),
            rng_salt: Some(0xF0),
        })
        .arm(TrialArm {
            label: "LinOpt".into(),
            policy: SchedulerSpec::VarFAppIpc,
            manager: ManagerSpec::LinOpt,
            budget,
            runtime: runtime(),
            rng_salt: Some(0xF0),
        })
        .build()
        .unwrap()
}

/// Faulted trials are bit-identical between the sequential and the
/// parallel runner: fault noise comes from the plan's counter-mode
/// stream, so thread scheduling cannot leak into outcomes.
#[test]
fn faulted_trials_are_bit_identical_across_worker_counts() {
    let ctx = Context::new(Scale::smoke().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let spec = faulted_spec(&ctx, &pool);
    let sequential = TrialRunner::sequential().run(&spec);
    let parallel = TrialRunner::with_workers(4).run(&spec);
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.trial_seed, p.trial_seed);
        assert_eq!(
            s.outcomes(),
            p.outcomes(),
            "faulted trial {} diverged between worker counts",
            s.trial
        );
    }
}

/// Faulted online trials hold the same determinism contract.
#[test]
fn faulted_online_trials_are_bit_identical_across_worker_counts() {
    let ctx = Context::new(Scale::smoke().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let config = OnlineConfig {
        runtime: runtime(),
        arrivals: ArrivalConfig::poisson(500.0, 20.0e6),
        initial_jobs: 12,
        migration_penalty_ms: 0.1,
        service: ServicePolicy::default(),
    };
    let spec = TrialSpec::builder(&ctx, &pool)
        .mix(Mix::Balanced)
        .trials(3)
        .seed(4242)
        .fault_plan(stress_plan())
        .arm(OnlineArm {
            label: "LinOpt".into(),
            policy: SchedulerSpec::VarFAppIpc,
            manager: ManagerSpec::LinOpt,
            budget: PowerBudget::low_power(20),
            config,
            rng_salt: Some(0x51),
        })
        .build()
        .unwrap();
    let sequential = TrialRunner::sequential().run(&spec);
    let parallel = TrialRunner::with_workers(4).run(&spec);
    for (s, p) in sequential.iter().zip(&parallel) {
        for (sa, pa) in s.arms.iter().zip(&p.arms) {
            assert_eq!(sa.outcome, pa.outcome);
            assert_eq!(sa.outcome.trace(), pa.outcome.trace());
        }
    }
}

/// The bit-identity contract: a zero-fault plan runs the fault-free
/// path exactly, whatever seed it carries and whether or not an
/// observer watches, field for field across policies, managers, and
/// occupancies, and it reports no degradation.
#[test]
fn zero_fault_plan_matches_legacy_run_bit_for_bit() {
    let ctx = Context::new(Scale::smoke().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let cases = [
        (4usize, SchedulerSpec::VarFAppIpc, ManagerSpec::LinOpt),
        (10, SchedulerSpec::VarP, ManagerSpec::FoxtonStar),
        (20, SchedulerSpec::Random, ManagerSpec::ChipWide),
        (8, SchedulerSpec::VarF, ManagerSpec::None),
    ];
    for seed in 0u64..4 {
        for &(threads, policy, manager) in &cases {
            let die = ctx.make_die(&mut SimRng::seed_from(7_000 + seed));
            let machine = ctx.make_machine(&die);
            let budget = PowerBudget::cost_performance(threads);
            let mut wl_rng = SimRng::seed_from(100 + seed);
            let workload = Workload::draw(&pool, threads, &mut wl_rng);
            let run = |plan: &FaultPlan, observer: &mut dyn TrialObserver| {
                run_trial(
                    &mut machine.clone(),
                    &workload,
                    policy,
                    manager,
                    budget,
                    &runtime(),
                    plan,
                    &mut SimRng::seed_from(9 * seed + 1),
                    observer,
                )
                .expect("valid spec")
            };
            let legacy = run(&FaultPlan::none(), &mut NullObserver);
            let mut audit = DegradationAudit::default();
            let seeded = run(&FaultPlan::none().with_seed(0xBAD ^ seed), &mut audit);
            assert_eq!(
                legacy, seeded,
                "seed {seed}, {threads} threads, {policy:?}, {manager:?}"
            );
            assert_eq!((audit.solver_fallbacks, audit.parked_events), (0, 0));
        }
    }
}

/// The online counterpart: a seeded zero-fault plan under an observer
/// reproduces the plain run exactly, including the event trace.
#[test]
fn zero_fault_online_matches_legacy_run_bit_for_bit() {
    let ctx = Context::new(Scale::smoke().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let config = OnlineConfig {
        runtime: runtime(),
        arrivals: ArrivalConfig::poisson(400.0, 20.0e6),
        initial_jobs: 6,
        migration_penalty_ms: 0.1,
        service: ServicePolicy::default(),
    };
    for seed in 0u64..4 {
        let die = ctx.make_die(&mut SimRng::seed_from(8_000 + seed));
        let machine = ctx.make_machine(&die);
        let run = |plan: &FaultPlan, observer: &mut dyn TrialObserver| {
            run_online(
                &mut machine.clone(),
                &pool,
                Mix::Balanced,
                SchedulerSpec::VarFAppIpc,
                ManagerSpec::LinOpt,
                PowerBudget::cost_performance(20),
                &config,
                plan,
                &mut SimRng::seed_from(77 * seed + 3),
                observer,
            )
            .expect("valid spec")
        };
        let legacy = run(&FaultPlan::none(), &mut NullObserver);
        let mut audit = DegradationAudit::default();
        let seeded = run(&FaultPlan::none().with_seed(0xBAD ^ seed), &mut audit);
        assert_eq!(legacy, seeded, "seed {seed}");
        assert_eq!(legacy.trace(), seeded.trace(), "seed {seed}");
        assert_eq!((audit.solver_fallbacks, audit.parked_events), (0, 0));
    }
}

/// Observer that tallies degradation events and audits the dead-core
/// invariant on every tick.
#[derive(Default)]
struct DegradationAudit {
    dead: Vec<usize>,
    solver_fallbacks: usize,
    parked_events: usize,
    violations: Vec<String>,
}

impl TrialObserver for DegradationAudit {
    fn on_degradation(&mut self, _tick: usize, event: DegradationEvent) {
        match event {
            DegradationEvent::CoreFailed { core } => self.dead.push(core),
            DegradationEvent::SolverFallback { .. } => self.solver_fallbacks += 1,
            DegradationEvent::ThreadsParked { .. } => self.parked_events += 1,
            _ => {}
        }
    }

    fn on_step(&mut self, machine: &vasp::cmpsim::Machine, _stats: &vasp::cmpsim::StepStats) {
        for &core in &self.dead {
            if machine.thread_of(core).is_some() {
                self.violations
                    .push(format!("thread still on dead core {core}"));
            }
        }
    }

    fn on_schedule(&mut self, tick: usize, mapping: &[Option<usize>]) {
        for &core in &self.dead {
            if mapping[core].is_some() {
                self.violations.push(format!(
                    "tick {tick}: schedule placed a thread on dead core {core}"
                ));
            }
        }
    }
}

/// A deep transient budget drop makes LinOpt's solve infeasible; the
/// hardened manager must emit visible fallback events and finish the
/// run instead of panicking.
#[test]
fn deep_budget_drop_is_survived_via_visible_fallback() {
    let ctx = Context::new(Scale::smoke().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let die = ctx.make_die(&mut SimRng::seed_from(31));
    let mut machine = ctx.make_machine(&die);
    let workload = Workload::draw(&pool, 20, &mut SimRng::seed_from(32));
    let plan = FaultPlan::none().with_budget_drop(20.0, 60.0, 0.2);
    let mut audit = DegradationAudit::default();
    let outcome = run_trial(
        &mut machine,
        &workload,
        SchedulerSpec::VarFAppIpc,
        ManagerSpec::LinOpt,
        PowerBudget {
            chip_w: 40.0,
            per_core_w: PowerBudget::DEFAULT_PER_CORE_W,
        },
        &runtime(),
        &plan,
        &mut SimRng::seed_from(33),
        &mut audit,
    )
    .expect("run survives the drop");
    assert!(outcome.mips > 0.0);
    assert!(
        audit.solver_fallbacks > 0,
        "20 threads cannot run under 8 W; LinOpt must fall back"
    );
}

/// Core failures on a full chip park the displaced threads (visibly)
/// and the run completes with every surviving thread off dead silicon.
#[test]
fn core_failures_park_threads_and_clear_dead_cores() {
    let ctx = Context::new(Scale::smoke().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let die = ctx.make_die(&mut SimRng::seed_from(41));
    let mut machine = ctx.make_machine(&die);
    let workload = Workload::draw(&pool, 20, &mut SimRng::seed_from(42));
    let plan = FaultPlan::none()
        .with_core_failure(2, 15.0)
        .with_core_failure(9, 35.0);
    let mut audit = DegradationAudit::default();
    let outcome = run_trial(
        &mut machine,
        &workload,
        SchedulerSpec::VarFAppIpc,
        ManagerSpec::LinOpt,
        PowerBudget::cost_performance(20),
        &runtime(),
        &plan,
        &mut SimRng::seed_from(43),
        &mut audit,
    )
    .expect("run survives the failures");
    assert!(outcome.mips > 0.0);
    assert_eq!(audit.dead, vec![2, 9], "both failures observed in order");
    assert!(
        audit.parked_events > 0,
        "a full chip losing cores must park threads"
    );
    assert!(
        audit.violations.is_empty(),
        "dead-core invariant violated: {:?}",
        audit.violations
    );
}

/// Plan that kills every core of the 20-core die at 30 ms.
fn every_core_fails_plan() -> FaultPlan {
    (0..20).fold(FaultPlan::none(), |plan, core| {
        plan.with_core_failure(core, 30.0)
    })
}

/// Observer that records the size of every `ThreadsParked` event.
#[derive(Default)]
struct ParkedLog(Vec<usize>);

impl TrialObserver for ParkedLog {
    fn on_degradation(&mut self, _tick: usize, event: DegradationEvent) {
        if let DegradationEvent::ThreadsParked { parked } = event {
            self.0.push(parked);
        }
    }
}

/// Losing every core ends a batch trial's useful work, not the trial:
/// the reschedule parks all resident threads without profiling.
#[test]
fn batch_trial_survives_every_core_failing() {
    let ctx = Context::new(Scale::smoke().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let die = ctx.make_die(&mut SimRng::seed_from(51));
    let workload = Workload::draw(&pool, 12, &mut SimRng::seed_from(52));
    for manager in [
        ManagerSpec::LinOpt,
        ManagerSpec::FoxtonStar,
        ManagerSpec::SAnn { evaluations: 2_000 },
    ] {
        let mut machine = ctx.make_machine(&die);
        let mut parked = ParkedLog::default();
        let outcome = run_trial(
            &mut machine,
            &workload,
            SchedulerSpec::VarFAppIpc,
            manager,
            PowerBudget::cost_performance(12),
            &runtime(),
            &every_core_fails_plan(),
            &mut SimRng::seed_from(53),
            &mut parked,
        )
        .expect("the trial finishes with every core dead");
        assert!(outcome.mips > 0.0, "{manager:?}: work before the failures");
        assert_eq!(machine.alive_core_count(), 0);
        assert!(
            machine.assignment().iter().all(Option::is_none),
            "{manager:?}: threads left on dead cores"
        );
        assert!(!parked.0.is_empty(), "{manager:?}: no parking reported");
        assert!(
            parked.0.iter().all(|&p| p == workload.len()),
            "{manager:?}: every resident thread parks, got {:?}",
            parked.0
        );
    }
}

/// The online loop survives the same plan and reports the parking as
/// an event: nothing is admitted to a dead chip, so every job resident
/// at the end is parked by the last reschedule.
#[test]
fn online_trial_survives_every_core_failing() {
    let ctx = Context::new(Scale::smoke().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let die = ctx.make_die(&mut SimRng::seed_from(61));
    let mut machine = ctx.make_machine(&die);
    let config = OnlineConfig {
        runtime: runtime(),
        arrivals: ArrivalConfig::poisson(400.0, 20.0e6),
        initial_jobs: 8,
        migration_penalty_ms: 0.1,
        service: ServicePolicy::default(),
    };
    let outcome = run_online(
        &mut machine,
        &pool,
        Mix::Balanced,
        SchedulerSpec::VarFAppIpc,
        ManagerSpec::LinOpt,
        PowerBudget::cost_performance(20),
        &config,
        &every_core_fails_plan(),
        &mut SimRng::seed_from(62),
        &mut NullObserver,
    )
    .expect("the online trial finishes with every core dead");
    assert_eq!(machine.alive_core_count(), 0);
    let resident = machine.threads().len();
    assert!(resident > 0, "jobs were still resident when the chip died");
    let parked: Vec<usize> = outcome
        .events
        .iter()
        .filter_map(|r| match r.event {
            OnlineEvent::Degraded {
                event: DegradationEvent::ThreadsParked { parked },
            } => Some(parked),
            _ => None,
        })
        .collect();
    assert_eq!(
        parked.last(),
        Some(&resident),
        "the last reschedule parks every resident thread"
    );
}
