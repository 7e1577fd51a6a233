//! Integration tests for the online serving subsystem: the
//! discrete-event loop exercised end-to-end through the public API,
//! and the determinism contract the engine guarantees across worker
//! counts.

use vasp::cmpsim::{app_pool, FaultPlan, Mix};
use vasp::vasched::engine::{OnlineArm, OnlineTrialSpec, SeedPlan, TrialRunner};
use vasp::vasched::experiments::{Context, Scale};
use vasp::vasched::manager::{ManagerSpec, PowerBudget};
use vasp::vasched::online::{run_online, ArrivalConfig, OnlineConfig, ServicePolicy};
use vasp::vasched::runtime::{NullObserver, RuntimeConfig};
use vasp::vasched::sched::SchedulerSpec;
use vasp::vastats::SimRng;

fn serving_config(rate_per_s: f64) -> OnlineConfig {
    OnlineConfig {
        runtime: RuntimeConfig::builder()
            .duration_ms(60.0)
            .os_interval_ms(30.0)
            .build()
            .unwrap(),
        arrivals: ArrivalConfig::poisson(rate_per_s, 20.0e6),
        initial_jobs: 0,
        migration_penalty_ms: 0.1,
        service: ServicePolicy::default(),
    }
}

/// An open system serves jobs end-to-end: arrivals are admitted,
/// complete, and produce consistent latency accounting.
#[test]
fn open_system_serves_jobs_end_to_end() {
    let ctx = Context::new(20);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let mut rng = SimRng::seed_from(501);
    let die = ctx.make_die(&mut rng);
    let mut machine = ctx.make_machine(&die);
    let outcome = run_online(
        &mut machine,
        &pool,
        Mix::Balanced,
        SchedulerSpec::VarFAppIpc,
        ManagerSpec::LinOpt,
        PowerBudget::cost_performance(20),
        &serving_config(400.0),
        &FaultPlan::none(),
        &mut rng,
        &mut NullObserver,
    )
    .expect("valid trial");
    assert!(outcome.arrived > 0, "jobs must arrive");
    assert!(outcome.completed > 0, "jobs must complete");
    assert!(outcome.completed <= outcome.arrived);
    assert!(outcome.utilization > 0.0 && outcome.utilization <= 1.0);
    let latency = outcome.latency.expect("completions imply latency stats");
    assert!(latency.p50_ms <= latency.p95_ms && latency.p95_ms <= latency.p99_ms);
    assert!(latency.count == outcome.completed);
    // Every completed job's latency covers its queue wait.
    for job in outcome.jobs.iter().filter(|j| j.completion_ms.is_some()) {
        let wait = job.queue_wait_ms().expect("admitted");
        assert!(job.latency_ms().expect("completed") >= wait);
    }
}

/// The acceptance contract: the same spec run on the sequential and
/// the parallel runner yields byte-identical event traces and equal
/// outcomes, trial for trial.
#[test]
fn online_trials_are_bit_identical_across_worker_counts() {
    let ctx = Context::new(Scale::smoke().grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let arms: Vec<OnlineArm> = [ManagerSpec::FoxtonStar, ManagerSpec::LinOpt]
        .iter()
        .map(|&manager| OnlineArm {
            label: manager.name().to_string(),
            policy: SchedulerSpec::VarFAppIpc,
            manager,
            budget: PowerBudget::low_power(20),
            config: serving_config(600.0),
            rng_salt: Some(0x51),
        })
        .collect();
    let spec = OnlineTrialSpec::builder(&ctx, &pool)
        .mix(Mix::Balanced)
        .trials(3)
        .seed(777)
        .plan(SeedPlan {
            mul: 1_000_003,
            offset: 40_000,
            stride: 1,
        })
        .arms(arms)
        .build()
        .unwrap();
    let sequential = TrialRunner::with_workers(1).run_online(&spec);
    let parallel = TrialRunner::with_workers(4).run_online(&spec);
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.trial, p.trial);
        assert_eq!(s.trial_seed, p.trial_seed);
        for (sa, pa) in s.arms.iter().zip(&p.arms) {
            assert_eq!(sa.outcome, pa.outcome, "outcomes must match bit for bit");
            assert_eq!(
                sa.outcome.trace(),
                pa.outcome.trace(),
                "event traces must be byte-identical"
            );
        }
    }
}
