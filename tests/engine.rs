//! Trial-engine determinism: a parallel [`TrialRunner`] must produce
//! results bit-identical to a sequential run. Every trial derives all
//! of its randomness from its own seed, so thread scheduling can never
//! leak into outcomes — this test is the regression gate for that
//! property. It also checks that spec builders and entry points reject
//! a manager spec that cannot run before any worker starts.

use cmpsim::{FaultPlan, Mix, Workload};
use vasp::vasched::engine::{
    OnlineArm, OnlineTrialSpec, SeedPlan, TrialArm, TrialRunner, TrialSpec,
};
use vasp::vasched::experiments::fleet::golden_spec;
use vasp::vasched::experiments::{Context, Scale, ServingSite};
use vasp::vasched::fleet::{run_fleet, FleetSpec};
use vasp::vasched::manager::{ManagerSpec, PowerBudget};
use vasp::vasched::online::{run_online, ArrivalConfig, OnlineConfig, OnlineSim};
use vasp::vasched::prelude::*;
use vasp::vasched::runtime::{run_trial, ConfigError, FreqMode, NullObserver, TrialError};

fn smoke_spec<'a>(ctx: &'a Context, pool: &'a [cmpsim::AppSpec]) -> TrialSpec<'a> {
    let scale = Scale::smoke();
    let runtime = RuntimeConfig::builder()
        .duration_ms(scale.duration_ms)
        .freq_mode(FreqMode::NonUniform)
        .build()
        .unwrap();
    let budget = PowerBudget::cost_performance(8);
    TrialSpec::builder(ctx, pool)
        .threads(8)
        .mix(Mix::Balanced)
        .trials(scale.dies)
        .seed(314)
        .plan(SeedPlan {
            mul: 1_000_003,
            offset: 8_000,
            stride: 1,
        })
        .arm(TrialArm {
            label: "Random+Foxton*".into(),
            policy: SchedulerSpec::Random,
            manager: ManagerSpec::FoxtonStar,
            budget,
            runtime,
            rng_salt: Some(0xABCD),
        })
        .arm(TrialArm {
            label: "VarF&AppIPC+LinOpt".into(),
            policy: SchedulerSpec::VarFAppIpc,
            manager: ManagerSpec::LinOpt,
            budget,
            runtime,
            rng_salt: Some(0xABCD),
        })
        .build()
        .unwrap()
}

#[test]
fn parallel_runner_matches_sequential_bit_for_bit() {
    let scale = Scale::smoke();
    let ctx = Context::new(scale.grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let spec = smoke_spec(&ctx, &pool);

    let sequential = TrialRunner::sequential().run(&spec);
    let parallel = TrialRunner::with_workers(4).run(&spec);

    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.trial, p.trial);
        assert_eq!(s.trial_seed, p.trial_seed);
        // Outcomes (not wall-clock) must match exactly, field for field.
        assert_eq!(
            s.outcomes(),
            p.outcomes(),
            "trial {} diverged between sequential and parallel runs",
            s.trial
        );
    }
}

#[test]
fn repeated_parallel_runs_are_identical() {
    // Thread interleaving varies run to run; outcomes must not.
    let scale = Scale::smoke();
    let ctx = Context::new(scale.grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let spec = smoke_spec(&ctx, &pool);

    let a = TrialRunner::with_workers(3).run(&spec);
    let b = TrialRunner::with_workers(4).run(&spec);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.outcomes(), y.outcomes());
    }
}

#[test]
fn runner_defaults_use_available_parallelism() {
    let runner = TrialRunner::new();
    assert!(runner.workers() >= 1);
    let explicit = TrialRunner::with_workers(2);
    assert_eq!(explicit.workers(), 2);
}

#[test]
fn seed_plan_derivation_is_stable() {
    // Golden values: these pin the seed→trial mapping. Changing them
    // silently re-rolls every experiment in the repository.
    let default_plan = SeedPlan::default();
    assert_eq!(default_plan.derive(0, 0), 0);
    assert_eq!(default_plan.derive(20_080_621, 0), 20_080_621);
    assert_eq!(default_plan.derive(20_080_621, 1), 20_080_622);
    let offset_plan = SeedPlan {
        mul: 1_000_003,
        offset: 90_000,
        stride: 1,
    };
    assert_eq!(offset_plan.derive(6, 0), 6_000_018 + 90_000);
    assert_eq!(offset_plan.derive(6, 5), 6_000_018 + 90_005);
    // Wrapping, not overflow.
    assert_eq!(
        offset_plan.derive(u64::MAX, 3),
        u64::MAX.wrapping_mul(1_000_003).wrapping_add(90_003)
    );
}

/// One batch arm and one online arm running `manager`.
fn arms_with(manager: ManagerSpec) -> (TrialArm, OnlineArm) {
    let runtime = RuntimeConfig::builder()
        .duration_ms(60.0)
        .os_interval_ms(30.0)
        .build()
        .unwrap();
    let budget = PowerBudget::cost_performance(20);
    let batch = TrialArm {
        label: manager.name().into(),
        policy: SchedulerSpec::VarFAppIpc,
        manager,
        budget,
        runtime,
        rng_salt: None,
    };
    let online = OnlineArm {
        label: manager.name().into(),
        policy: SchedulerSpec::VarFAppIpc,
        manager,
        budget,
        config: OnlineConfig {
            runtime,
            ..OnlineConfig::paper_default()
        },
        rng_salt: None,
    };
    (batch, online)
}

const BAD_MANAGER: TrialError = TrialError::Config(ConfigError::BadManager);

/// A zero-evaluation SAnn arm used to build and then panic in the
/// runner's worker; both builders now reject it.
#[test]
fn builders_reject_zero_evaluation_sann() {
    let ctx = Context::new(Scale::smoke().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let (batch, online) = arms_with(ManagerSpec::SAnn { evaluations: 0 });
    let built = TrialSpec::builder(&ctx, &pool)
        .threads(4)
        .arm(batch)
        .build();
    assert_eq!(built.err(), Some(BAD_MANAGER));
    let built = OnlineTrialSpec::builder(&ctx, &pool).arm(online).build();
    assert_eq!(built.err(), Some(BAD_MANAGER));
}

/// Exhaustive search over 9 levels per core fits `MAX_POINTS` up to 8
/// active cores. A 12-thread batch arm (9^12 points) used to build and
/// then panic at the first DVFS interval. The builders, every entry
/// point and `OnlineSim::new` now reject it, and reject Exhaustive
/// outright for open runs, which manage all 20 cores.
#[test]
fn oversized_exhaustive_search_is_rejected_before_running() {
    let ctx = Context::new(Scale::smoke().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let (batch, closed) = arms_with(ManagerSpec::Exhaustive);
    let spec = |threads: usize| {
        TrialSpec::builder(&ctx, &pool)
            .threads(threads)
            .arm(batch.clone())
            .build()
    };
    assert_eq!(spec(12).err(), Some(BAD_MANAGER));
    assert!(spec(8).is_ok());
    let online_spec = |arm: &OnlineArm| {
        OnlineTrialSpec::builder(&ctx, &pool)
            .arm(arm.clone())
            .build()
    };
    // A closed online arm manages only its residents (none here).
    assert!(online_spec(&closed).is_ok());
    let mut online = closed;
    online.config.arrivals = ArrivalConfig::poisson(100.0, 1e7);
    assert_eq!(online_spec(&online).err(), Some(BAD_MANAGER));

    let mut rng = SimRng::seed_from(5);
    let die = ctx.make_die(&mut rng);
    let mut machine = ctx.make_machine(&die);
    let workload = Workload::draw(&pool, 12, &mut rng);
    let trial = run_trial(
        &mut machine,
        &workload,
        batch.policy,
        batch.manager,
        batch.budget,
        &batch.runtime,
        &FaultPlan::none(),
        &mut rng,
        &mut NullObserver,
    );
    assert_eq!(trial.err(), Some(BAD_MANAGER));
    let served = run_online(
        &mut machine,
        &pool,
        Mix::Balanced,
        online.policy,
        online.manager,
        online.budget,
        &online.config,
        &FaultPlan::none(),
        &mut rng,
        &mut NullObserver,
    );
    assert_eq!(served.err(), Some(BAD_MANAGER));
    let sim = OnlineSim::new(
        &mut machine,
        None,
        &pool,
        Mix::Balanced,
        online.policy,
        online.manager,
        online.budget,
        &online.config,
        &FaultPlan::none(),
        &mut rng,
    );
    assert_eq!(sim.err(), Some(BAD_MANAGER));

    let site = ServingSite::at_grid(Scale::smoke().grid);
    let fleet = FleetSpec {
        manager: ManagerSpec::Exhaustive,
        ..golden_spec(&site)
    };
    assert_eq!(run_fleet(&fleet, 1).err(), Some(BAD_MANAGER));
}
