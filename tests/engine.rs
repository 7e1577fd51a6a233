//! Trial-engine determinism: a parallel [`TrialRunner`] must produce
//! results bit-identical to a sequential run. Every trial derives all
//! of its randomness from its own seed, so thread scheduling can never
//! leak into outcomes — this test is the regression gate for that
//! property. It also checks that the spec builders reject a degenerate
//! manager spec before any worker starts, and that Exhaustive arms of
//! any size run.

use cmpsim::Mix;
use vasp::vasched::engine::{
    OnlineArm, OnlineTrialSpec, SeedPlan, TrialArm, TrialRunner, TrialSpec,
};
use vasp::vasched::experiments::{Context, Scale};
use vasp::vasched::manager::{ManagerSpec, PowerBudget};
use vasp::vasched::online::{ArrivalConfig, OnlineConfig};
use vasp::vasched::prelude::*;
use vasp::vasched::runtime::{ConfigError, FreqMode, TrialError};

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

/// The exact solver has no search-space limit. The 12-thread batch
/// arm (9^12 level vectors) and an open online arm, which manages all
/// 20 cores, build and run to completion.
#[test]
fn exhaustive_arms_run_to_completion() {
    let ctx = Context::new(Scale::smoke().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let (batch, mut online) = arms_with(ManagerSpec::Exhaustive);
    online.config.arrivals = ArrivalConfig::poisson(100.0, 1e7);
    let runner = TrialRunner::with_workers(1);

    let spec = TrialSpec::builder(&ctx, &pool)
        .threads(12)
        .arm(batch)
        .build()
        .expect("valid spec");
    let trial = &runner.run(&spec)[0].arms[0].outcome;
    assert_eq!(trial.manager_runs, 6);
    assert_eq!(trial.per_thread_mips.len(), 12);
    assert!(trial.mips > 0.0);

    let spec = OnlineTrialSpec::builder(&ctx, &pool)
        .arm(online)
        .build()
        .expect("valid spec");
    let served = &runner.run_online(&spec)[0].arms[0].outcome;
    assert!(served.arrived > 0 && served.completed > 0);
    assert!(served.chip.manager_runs > 0);
}
