//! Trial-engine determinism: a parallel [`TrialRunner`] must produce
//! results bit-identical to a sequential run. Every trial derives all
//! of its randomness from its own seed, so thread scheduling can never
//! leak into outcomes — this test is the regression gate for that
//! property. It also checks that the spec builder rejects a degenerate
//! manager spec or workload before any worker starts, that Exhaustive
//! arms of any size run, and pins what both arm kinds return.

use cmpsim::{AppClass, FaultPlan, Mix};
use vasp::vasched::engine::{OnlineArm, SeedPlan, TrialArm, TrialRunner, TrialSpec};
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
/// runner's worker; the builder rejects it for both arm kinds.
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
    let built = TrialSpec::builder(&ctx, &pool).arm(online).build();
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

    let spec = TrialSpec::builder(&ctx, &pool)
        .arm(online)
        .build()
        .expect("valid spec");
    let served = &runner.run(&spec)[0].arms[0].outcome;
    assert!(served.arrived > 0 && served.completed > 0);
    assert!(served.chip.manager_runs > 0);
}

/// A zero-thread batch spec used to build and then panic in the
/// worker's workload draw; the builder rejects it.
#[test]
fn builder_rejects_an_empty_batch_workload() {
    let ctx = Context::new(Scale::smoke().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let (batch, _) = arms_with(ManagerSpec::LinOpt);
    let built = TrialSpec::builder(&ctx, &pool)
        .threads(0)
        .arm(batch)
        .build();
    assert_eq!(built.err(), Some(TrialError::EmptyWorkload));
}

/// An online arm with more initial residents than cores used to build
/// and then panic in the worker; the builder rejects it.
#[test]
fn builder_rejects_more_residents_than_cores() {
    let ctx = Context::new(Scale::smoke().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let (_, mut online) = arms_with(ManagerSpec::LinOpt);
    online.config.initial_jobs = 21;
    let built = TrialSpec::builder(&ctx, &pool).arm(online.clone()).build();
    let too_large = TrialError::WorkloadTooLarge {
        threads: 21,
        cores: 20,
    };
    assert_eq!(built.err(), Some(too_large));
    online.config.initial_jobs = 20;
    assert!(TrialSpec::builder(&ctx, &pool).arm(online).build().is_ok());
}

/// A mix that admits no application from the pool used to build and
/// then panic in the worker's draw. The builder rejects it whenever
/// the trial, an arm's residents or an arm's arrivals draw from the
/// pool, and accepts a serving arm that draws nothing.
#[test]
fn builder_rejects_a_mix_that_admits_nothing() {
    let ctx = Context::new(Scale::smoke().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let ints: Vec<_> = pool
        .iter()
        .filter(|app| app.class == AppClass::Int)
        .cloned()
        .collect();
    let empty = Some(TrialError::EmptyMix(Mix::FpOnly));
    let (batch, closed) = arms_with(ManagerSpec::LinOpt);
    let built = TrialSpec::builder(&ctx, &ints)
        .threads(4)
        .mix(Mix::FpOnly)
        .arm(batch)
        .build();
    assert_eq!(built.err(), empty);

    let mut residents = closed.clone();
    residents.config.initial_jobs = 4;
    let mut arrivals = closed.clone();
    arrivals.config.arrivals = ArrivalConfig::poisson(100.0, 1e7);
    for arm in [residents, arrivals] {
        let built = TrialSpec::builder(&ctx, &ints)
            .mix(Mix::FpOnly)
            .arm(arm)
            .build();
        assert_eq!(built.err(), empty);
    }
    let built = TrialSpec::builder(&ctx, &ints)
        .mix(Mix::FpOnly)
        .arm(closed)
        .build();
    assert!(built.is_ok(), "an arm that draws nothing needs no mix");
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins what the runner returns for both arm kinds. In each spec an
/// unsalted arm follows a salted one on the same machine, so its
/// outcome depends on the trial RNG continuing past the trial's draws,
/// and it must start as cold as the first arm. Each outcome is folded
/// through its `Debug` form, which prints every float in its shortest
/// round-trip form, and each online event trace is folded as well.
/// The values were captured before the batch and online specs shared
/// one engine.
#[test]
fn trial_outcomes_are_pinned() {
    let ctx = Context::new(Scale::smoke().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let runtime = RuntimeConfig::builder()
        .duration_ms(60.0)
        .os_interval_ms(30.0)
        .freq_mode(FreqMode::NonUniform)
        .build()
        .unwrap();
    let faults = FaultPlan::none()
        .with_seed(0x5EED)
        .with_sensor_noise(0.03)
        .with_core_failure(5, 35.0);
    let batch = TrialSpec::builder(&ctx, &pool)
        .threads(6)
        .trials(2)
        .seed(2026)
        .fault_plan(faults.clone())
        .arm(TrialArm {
            label: "Random+Foxton*".into(),
            policy: SchedulerSpec::Random,
            manager: ManagerSpec::FoxtonStar,
            budget: PowerBudget::cost_performance(6),
            runtime,
            rng_salt: Some(0xA1),
        })
        .arm(TrialArm {
            label: "VarF&AppIPC+LinOpt".into(),
            policy: SchedulerSpec::VarFAppIpc,
            manager: ManagerSpec::LinOpt,
            budget: PowerBudget::cost_performance(6),
            runtime,
            rng_salt: None,
        })
        .build()
        .unwrap();
    let config = OnlineConfig {
        runtime,
        arrivals: ArrivalConfig::poisson(400.0, 20.0e6),
        initial_jobs: 4,
        ..OnlineConfig::paper_default()
    };
    let online = TrialSpec::builder(&ctx, &pool)
        .trials(2)
        .seed(2027)
        .fault_plan(faults)
        .arm(OnlineArm {
            label: "VarF&AppIPC+Foxton*".into(),
            policy: SchedulerSpec::VarFAppIpc,
            manager: ManagerSpec::FoxtonStar,
            budget: PowerBudget::cost_performance(20),
            config,
            rng_salt: Some(0xB2),
        })
        .arm(OnlineArm {
            label: "VarF&AppIPC+LinOpt".into(),
            policy: SchedulerSpec::VarFAppIpc,
            manager: ManagerSpec::LinOpt,
            budget: PowerBudget::cost_performance(20),
            config,
            rng_salt: None,
        })
        .build()
        .unwrap();

    let runner = TrialRunner::with_workers(2);
    let mut batch_hash = 0xcbf2_9ce4_8422_2325;
    for r in runner.run(&batch) {
        let folded = format!("{} {} {:?}", r.trial, r.trial_seed, r.outcomes());
        batch_hash = fnv(batch_hash, folded.as_bytes());
    }
    let mut online_hash = 0xcbf2_9ce4_8422_2325;
    for r in runner.run(&online) {
        let folded = format!("{} {}", r.trial, r.trial_seed);
        online_hash = fnv(online_hash, folded.as_bytes());
        for o in r.outcomes() {
            online_hash = fnv(online_hash, format!("{o:?}").as_bytes());
            online_hash = fnv(online_hash, o.trace().as_bytes());
        }
    }
    assert_eq!(
        (batch_hash, online_hash),
        (0xc054_053d_bab3_7069, 0x8451_fe9c_c2a9_4a33),
        "batch {batch_hash:#018x}, online {online_hash:#018x}"
    );
}
