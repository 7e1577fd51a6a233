//! Integration tests for the online serving subsystem: the
//! discrete-event loop exercised end-to-end through the public API,
//! the determinism contract the engine guarantees across worker
//! counts, and the committed checkpoint wire format
//! (`tests/golden/snapshots.jsonl`; regenerate after an intentional
//! format change with `UPDATE_GOLDENS=1 cargo test --test online`).

mod common;

use common::check_golden;
use vasp::cmpsim::{app_pool, BudgetDrop, CoreFailure, FaultPlan, Mix, StuckSensor};
use vasp::vasched::engine::{OnlineArm, SeedPlan, TrialRunner, TrialSpec};
use vasp::vasched::experiments::{Context, Scale};
use vasp::vasched::manager::{ManagerSpec, PowerBudget};
use vasp::vasched::obs::{parse_json, JsonValue};
use vasp::vasched::online::{
    run_online, ArrivalConfig, OnlineConfig, OnlineEvent, OnlineSim, ServicePolicy, Snapshot,
    SnapshotError,
};
use vasp::vasched::runtime::{FreqMode, NullObserver, RuntimeConfig};
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
    let spec = TrialSpec::builder(&ctx, &pool)
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
    let sequential = TrialRunner::with_workers(1).run(&spec);
    let parallel = TrialRunner::with_workers(4).run(&spec);
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

/// Checkpoints `manager` serving `config` under `plan` on die `die` at
/// `cut_tick`.
fn checkpoint_at(
    die: u64,
    manager: ManagerSpec,
    config: &OnlineConfig,
    plan: &FaultPlan,
    cut_tick: usize,
) -> Snapshot {
    let ctx = Context::new(20);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let mut rng = SimRng::seed_from(die);
    let mut machine = ctx.make_machine(&ctx.make_die(&mut rng));
    let residents = config.draw_residents(&pool, Mix::Balanced, &mut rng);
    let mut sim = OnlineSim::new(
        &mut machine,
        residents.as_ref(),
        &pool,
        Mix::Balanced,
        SchedulerSpec::VarFAppIpc,
        manager,
        PowerBudget::cost_performance(20),
        config,
        plan,
        &mut rng,
    )
    .expect("valid run");
    while sim.tick() < cut_tick {
        sim.step(&mut NullObserver);
    }
    sim.checkpoint()
}

/// One checkpoint per wire shape: an open LinOpt stream; a faulted
/// IntReg run (stuck sensor, core failure, budget drop: fault state,
/// conditioner filters, `Degraded` events); an SLO Foxton* run with
/// queued and shed jobs; and a closed unmanaged `UniFreq` run
/// (`"inf"` budgets, frequency caps, no primary manager state).
fn golden_snapshots() -> Vec<Snapshot> {
    let faults = FaultPlan {
        seed: 77,
        sensor_noise_sigma: 0.05,
        sensor_drift_per_s: 0.0,
        stuck_sensors: vec![StuckSensor {
            core: 2,
            at_ms: 10.0,
        }],
        core_failures: vec![CoreFailure {
            core: 5,
            at_ms: 20.0,
        }],
        budget_drops: vec![BudgetDrop {
            start_ms: 15.0,
            end_ms: 45.0,
            factor: 0.7,
        }],
    };
    let slo = OnlineConfig {
        service: ServicePolicy {
            reschedule_window_ms: 25.0,
            deadline_slack: 3.0,
        },
        ..serving_config(1500.0)
    };
    let closed = OnlineConfig {
        runtime: RuntimeConfig::builder()
            .duration_ms(60.0)
            .os_interval_ms(30.0)
            .freq_mode(FreqMode::Uniform)
            .build()
            .unwrap(),
        arrivals: ArrivalConfig::closed(),
        initial_jobs: 6,
        ..serving_config(0.0)
    };
    let faulted = OnlineConfig {
        initial_jobs: 6,
        ..serving_config(200.0)
    };
    vec![
        checkpoint_at(
            31,
            ManagerSpec::LinOpt,
            &serving_config(400.0),
            &FaultPlan::none(),
            37,
        ),
        checkpoint_at(32, ManagerSpec::integral_regulator(), &faulted, &faults, 35),
        checkpoint_at(33, ManagerSpec::FoxtonStar, &slo, &FaultPlan::none(), 45),
        checkpoint_at(34, ManagerSpec::None, &closed, &FaultPlan::none(), 25),
    ]
}

/// The checkpoint wire format is pinned byte for byte, and every
/// committed line decodes to the checkpoint it came from and encodes
/// back to itself.
#[test]
fn snapshot_wire_format_matches_golden() {
    let pool = app_pool(&Context::new(20).machine_config().dynamic);
    let snapshots = golden_snapshots();
    let (faulted, slo, closed) = (&snapshots[1], &snapshots[2], &snapshots[3]);
    assert!(faulted.machine.faults.is_some() && faulted.manager.conditioner.uncore_w.is_some());
    assert!(faulted
        .manager
        .conditioner
        .cores
        .iter()
        .any(Option::is_some));
    assert!(faulted
        .events
        .iter()
        .any(|r| matches!(r.event, OnlineEvent::Degraded { .. })));
    assert!(
        slo.shed > 0 && !slo.run_queue.is_empty(),
        "SLO run must queue and shed"
    );
    assert!(
        closed.manager.primary.is_none()
            && closed.jobs.iter().all(|j| j.instructions.is_infinite())
    );
    assert!(closed.machine.freq_caps.iter().any(Option::is_some));
    let mut lines = String::new();
    for snapshot in snapshots {
        let line = snapshot.to_json();
        let revived = Snapshot::from_json(&line, &pool).expect("decodes");
        assert_eq!(revived, snapshot, "decode must be lossless");
        assert_eq!(revived.to_json(), line, "re-encode must be byte-identical");
        lines.push_str(&line);
        lines.push('\n');
    }
    check_golden("snapshots.jsonl", &lines);
}

/// The value at a dotted `path` (array indices as numbers).
fn value_at<'a>(doc: &'a mut JsonValue, path: &str) -> &'a mut JsonValue {
    path.split('.').fold(doc, |v, key| match v {
        JsonValue::Obj(entries) => &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1,
        JsonValue::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
        _ => panic!("no {key} in {path}"),
    })
}

/// A corrupted value of each wire shape is reported with its full path,
/// and an application missing from the pool as `UnknownApp`.
#[test]
fn corrupt_snapshot_fields_are_reported_by_full_path() {
    let pool = app_pool(&Context::new(20).machine_config().dynamic);
    let line = golden_snapshots()[1].to_json();
    let decode = |path: &str, bad: JsonValue| {
        let mut doc = parse_json(&line).unwrap();
        *value_at(&mut doc, path) = bad;
        Snapshot::from_json(&doc.to_json(), &pool).unwrap_err()
    };
    for (path, reported) in [
        ("machine.faults.stuck.2", "machine.faults.stuck[2]"),
        ("queue.events.4", "queue.events[4]"),
        ("jobs.3.admit_ms", "jobs[3].admit_ms"),
        ("events.5.event.kind", "events[5].event.kind"),
        (
            "manager.conditioner.stats.clamped",
            "manager.conditioner.stats.clamped",
        ),
        ("rng.1", "rng[1]"),
    ] {
        match decode(path, JsonValue::Bool(true)) {
            SnapshotError::Schema { field, .. } => assert_eq!(field, reported),
            other => panic!("{path}: {other:?}"),
        }
    }
    assert_eq!(
        decode("jobs.3.app", JsonValue::Str("no-such-app".into())),
        SnapshotError::UnknownApp("no-such-app".into())
    );
}
