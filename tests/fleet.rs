//! Fleet-layer integration tests: worker-count determinism of the
//! cluster event loop and the committed golden pinning the fleet trace
//! byte-for-byte.
//!
//! The fleet runs its chips in parallel shards but merges epoch
//! results in chip order, so the same [`FleetSpec`] must produce
//! bit-identical output at any `--threads` setting. The golden under
//! `tests/golden/fleet_smoke.jsonl` pins the variation-aware golden
//! scenario, and `tests/golden/fleet_policies.jsonl`
//! pins every dispatch policy's routing, shed path included;
//! regenerate after an intentional engine change with
//! `UPDATE_GOLDENS=1 cargo test --test fleet`.

mod common;

use common::check_golden;
use vasp::vasched::experiments::fleet::{
    fleet_config, fleet_spec, golden_spec, run_golden_scenario, DEFAULT_BUDGET_PER_CHIP_W,
    DISPATCHERS, FLEET_GOLDEN_SEED,
};
use vasp::vasched::experiments::ServingSite;
use vasp::vasched::fleet::{run_fleet, FleetOutcome};
use vasp::vasched::obs::{diff_traces, parse_json};

#[test]
fn fleet_run_is_identical_across_worker_counts() {
    let site = ServingSite::at_grid(20);
    let spec = golden_spec(&site);
    let run = |workers: usize| -> FleetOutcome {
        run_fleet(&spec, workers).expect("golden spec is valid")
    };
    let one = run(1);
    for workers in [2, 8] {
        let many = run(workers);
        assert!(
            one.trace == many.trace,
            "trace diverged at {workers} workers: {:?}",
            diff_traces(&one.trace, &many.trace)
        );
        assert_eq!(
            one.metrics.to_json(),
            many.metrics.to_json(),
            "metrics diverged at {workers} workers"
        );
        assert_eq!(one.completed, many.completed);
        assert_eq!(one.shed, many.shed);
        assert_eq!(one.migrations, many.migrations);
        assert_eq!(
            one.latency.map(|l| l.p99_ms.to_bits()),
            many.latency.map(|l| l.p99_ms.to_bits()),
            "latency bits diverged at {workers} workers"
        );
    }
}

#[test]
fn fleet_smoke_trace_matches_golden() {
    let out = run_golden_scenario();
    assert!(out.completed > 0, "golden run must serve jobs");
    check_golden("fleet_smoke.jsonl", &out.trace);
}

#[test]
fn every_dispatch_policy_matches_golden() {
    // One small overloaded fleet per policy: 8 chips behind queues of
    // 4, so every policy sheds and the golden pins the shed path along
    // with each policy's placements.
    let site = ServingSite::at_grid(20);
    let mut traces = String::new();
    for policy in DISPATCHERS {
        let mut config = fleet_config(120.0, 8, DEFAULT_BUDGET_PER_CHIP_W);
        config.max_queue_per_chip = 4;
        let spec = fleet_spec(&site, 8, policy, config, FLEET_GOLDEN_SEED);
        let out = run_fleet(&spec, 2).expect("policy spec is valid");
        assert!(out.shed > 0, "{} must shed", policy.name());
        traces.push_str(&out.trace);
    }
    check_golden("fleet_policies.jsonl", &traces);
}

#[test]
fn golden_epochs_conserve_jobs() {
    // Every routed job is queued, admitted or still waiting, and every
    // admitted one is resident until it completes: each epoch record's
    // backlog follows from the previous record and its own flows.
    let out = run_golden_scenario();
    let (mut queued, mut resident) = (0.0, 0.0);
    for (i, line) in out.trace.lines().skip(1).enumerate() {
        let record = parse_json(line).expect("trace record is JSON");
        let field = |name: &str| {
            record
                .get(name)
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("epoch {i} lacks {name}"))
        };
        let admitted = field("admitted");
        assert_eq!(
            field("queued"),
            queued + field("arrived") - field("shed") - admitted,
            "epoch {i}: queued"
        );
        assert_eq!(
            field("resident"),
            resident + admitted - field("completed"),
            "epoch {i}: resident"
        );
        queued = field("queued");
        resident = field("resident");
    }
    assert!(resident > 0.0, "the scenario must end with jobs in flight");
}
