//! Observability-layer integration tests: golden files pinning the
//! no-observer hot path byte-for-byte, plus (once the obs layer lands)
//! the JSONL run-trace schema and its worker-count determinism.
//!
//! The goldens under `tests/golden/` were generated from the engine
//! *before* the observability layer existed; the tests here re-run the
//! same deterministic smoke trials and demand byte-identical output, so
//! any observability cost leaking into the disabled path fails loudly.
//! Regenerate after an intentional engine change with
//! `UPDATE_GOLDENS=1 cargo test --test obs`.

mod common;

use common::check_golden;
use vasp::cmpsim::{app_pool, FaultPlan, Mix};
use vasp::vasched::engine::{SeedPlan, TelemetryObserver, TrialArm, TrialRunner, TrialSpec};
use vasp::vasched::experiments::Context;
use vasp::vasched::manager::{ManagerSpec, PowerBudget};
use vasp::vasched::obs::{parse_json, JsonValue, TraceObserver, TRACE_SCHEMA};
use vasp::vasched::online::{
    run_online, ArrivalConfig, OnlineConfig, OnlineOutcome, ServicePolicy,
};
use vasp::vasched::runtime::{NullObserver, RuntimeConfig};
use vasp::vasched::sched::SchedulerSpec;
use vasp::vastats::SimRng;

/// The timeline every golden run uses: 60 ms, 10 ms DVFS intervals,
/// 30 ms OS epochs.
fn golden_runtime() -> RuntimeConfig {
    RuntimeConfig::builder()
        .duration_ms(60.0)
        .os_interval_ms(30.0)
        .deviation_warmup_ms(10.0)
        .build()
        .expect("golden timeline is valid")
}

/// The batch spec of the golden trial: one trial, two arms (LinOpt and
/// Foxton*) over the same die and workload.
fn golden_spec<'a>(ctx: &'a Context, pool: &'a [vasp::cmpsim::AppSpec]) -> TrialSpec<'a> {
    TrialSpec::builder(ctx, pool)
        .threads(6)
        .mix(Mix::Balanced)
        .trials(1)
        .seed(20_080_621)
        .plan(SeedPlan {
            mul: 1_000_003,
            offset: 5_000,
            stride: 1,
        })
        .arm(TrialArm {
            label: "LinOpt".into(),
            policy: SchedulerSpec::VarFAppIpc,
            manager: ManagerSpec::LinOpt,
            budget: PowerBudget::cost_performance(6),
            runtime: golden_runtime(),
            rng_salt: Some(0xBEEF),
        })
        .arm(TrialArm {
            label: "Foxton*".into(),
            policy: SchedulerSpec::VarFAppIpc,
            manager: ManagerSpec::FoxtonStar,
            budget: PowerBudget::cost_performance(6),
            runtime: golden_runtime(),
            rng_salt: Some(0xBEEF),
        })
        .build()
        .expect("golden spec is valid")
}

/// Renders the golden batch trial's telemetry as (chip CSV, core CSV) —
/// the engine runs with a plain [`TelemetryObserver`], exactly as any
/// pre-observability caller would.
fn golden_batch_csvs() -> (String, String) {
    let ctx = Context::new(24);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let spec = golden_spec(&ctx, &pool);
    let results = TrialRunner::sequential().run_observed(&spec, |_| TelemetryObserver::new());
    let (_, observers) = &results[0];
    let telemetry = observers[0].telemetry();
    (telemetry.to_chip_csv(), telemetry.to_core_csv())
}

/// Runs the golden online serving trial (no observer anywhere).
fn golden_online_outcome() -> OnlineOutcome {
    let ctx = Context::new(24);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let mut rng = SimRng::seed_from(20_080_621);
    let die = ctx.make_die(&mut rng);
    let mut machine = ctx.make_machine(&die);
    let config = OnlineConfig {
        runtime: golden_runtime(),
        arrivals: ArrivalConfig::poisson(300.0, 30.0e6),
        initial_jobs: 0,
        migration_penalty_ms: 0.1,
        service: ServicePolicy::default(),
    };
    run_online(
        &mut machine,
        &pool,
        Mix::Balanced,
        SchedulerSpec::VarFAppIpc,
        ManagerSpec::LinOpt,
        PowerBudget::cost_performance(20),
        &config,
        &FaultPlan::none(),
        &mut rng,
        &mut NullObserver,
    )
    .expect("valid trial")
}

#[test]
fn disabled_observer_batch_csvs_match_pre_obs_goldens() {
    let (chip, core) = golden_batch_csvs();
    check_golden("batch_chip.csv", &chip);
    check_golden("batch_core.csv", &core);
}

#[test]
fn disabled_observer_online_trace_matches_pre_obs_golden() {
    let outcome = golden_online_outcome();
    assert!(outcome.completed > 0, "golden run must serve jobs");
    check_golden("online_trace.txt", &outcome.trace());
}

/// Runs the golden batch trial under a [`TraceObserver`] and returns
/// the LinOpt arm's JSONL trace.
fn golden_trace_jsonl(runner: TrialRunner) -> String {
    let ctx = Context::new(24);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let spec = golden_spec(&ctx, &pool);
    let mut results = runner.run_observed(&spec, |_| TraceObserver::new());
    let (_, observers) = results.remove(0);
    observers
        .into_iter()
        .next()
        .expect("LinOpt arm")
        .into_jsonl()
}

#[test]
fn trace_jsonl_matches_schema_and_golden() {
    let jsonl = golden_trace_jsonl(TrialRunner::sequential());
    let mut lines = jsonl.lines();

    // Header line carries the schema tag.
    let header = parse_json(lines.next().expect("header line")).expect("header parses");
    assert_eq!(header.get("schema").unwrap().as_str(), Some(TRACE_SCHEMA));
    assert_eq!(header.get("interval_ticks").unwrap().as_f64(), Some(10.0));

    // 60 ms at 10 ms per record = 6 records.
    let records: Vec<JsonValue> = lines
        .map(|l| parse_json(l).expect("record parses"))
        .collect();
    assert_eq!(records.len(), 6, "one record per DVFS interval");

    for (i, rec) in records.iter().enumerate() {
        for key in [
            "t_s",
            "tick",
            "power_w",
            "mips",
            "scheduled",
            "solve",
            "degradations",
            "cores",
        ] {
            assert!(rec.get(key).is_some(), "record {i} missing key {key}");
        }
        assert!(rec.get("power_w").unwrap().as_f64().unwrap() > 0.0);
        let cores = rec.get("cores").unwrap().as_arr().unwrap();
        assert_eq!(cores.len(), 20, "paper chip has 20 cores");
        for core in cores {
            let v = core.get("v").unwrap().as_f64().unwrap();
            let f = core.get("f_hz").unwrap().as_f64().unwrap();
            assert!((0.5..2.0).contains(&v), "voltage {v} out of range");
            assert!(f > 1.0e8, "frequency {f} implausibly low");
            assert!(core.get("temp_k").unwrap().as_f64().unwrap() > 250.0);
        }
        // LinOpt reports a solve on every interval of this run.
        let solve = rec.get("solve").unwrap();
        assert_eq!(solve.get("manager").unwrap().as_str(), Some("LinOpt"));
        assert_eq!(solve.get("status").unwrap().as_str(), Some("optimal"));
        let warm = solve.get("warm").unwrap().as_str().unwrap();
        if i == 0 {
            assert_eq!(warm, "cold", "first solve has no basis to reuse");
        } else {
            assert!(warm == "hit" || warm == "miss");
        }
    }

    check_golden("trace_smoke.jsonl", &jsonl);
}

#[test]
fn trace_jsonl_is_identical_across_worker_counts() {
    let sequential = golden_trace_jsonl(TrialRunner::sequential());
    let parallel = golden_trace_jsonl(TrialRunner::with_workers(4));
    assert!(
        sequential == parallel,
        "JSONL trace must not depend on worker count"
    );
}

#[test]
fn trace_metrics_summarize_the_run() {
    let ctx = Context::new(24);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let spec = golden_spec(&ctx, &pool);
    let results = TrialRunner::sequential().run_observed(&spec, |_| TraceObserver::new());
    let (_, observers) = &results[0];

    let linopt = observers[0].metrics();
    assert_eq!(linopt.counter("steps"), 60);
    assert_eq!(linopt.counter("records"), 6);
    assert_eq!(linopt.counter("solves"), 6);
    assert_eq!(linopt.counter("solves_optimal"), 6);
    assert_eq!(
        linopt.counter("warm_cold"),
        1,
        "only the first solve is cold"
    );
    let pivots = linopt.histogram("pivots").expect("pivot histogram");
    assert_eq!(pivots.total(), 6);
    assert!(pivots.sum() > 0.0, "simplex must pivot at least once");

    // Foxton* is a heuristic: solves are reported but never optimal.
    let foxton = observers[1].metrics();
    assert_eq!(foxton.counter("solves"), foxton.counter("solves_heuristic"));
    assert!(foxton.counter("solves") > 0);

    // Registries render to parseable JSON.
    let doc = parse_json(&linopt.to_json()).expect("metrics JSON parses");
    assert!(doc.get("counters").is_some());
}

#[test]
fn replay_scenario_matches_golden_and_restores_byte_identically() {
    // The committed replay scenario (`experiments::replay`): the
    // uninterrupted trace is pinned byte-for-byte, and the
    // checkpoint → JSON → restore run must reproduce the exact bytes
    // of the post-checkpoint tail.
    let artifacts = vasp::vasched::experiments::replay::run_scenario();
    check_golden("replay_online.jsonl", &artifacts.trace);
    assert!(
        artifacts.resumed_tail == artifacts.expected_tail,
        "restored trace tail diverged: {:?}",
        vasp::vasched::obs::diff_traces(&artifacts.expected_tail, &artifacts.resumed_tail)
    );
    assert_eq!(artifacts.outcome_full, artifacts.outcome_resumed);
}
