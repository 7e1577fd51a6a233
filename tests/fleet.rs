//! Fleet-layer integration tests: worker-count determinism of the
//! cluster event loop and the committed golden pinning the fleet trace
//! byte-for-byte.
//!
//! The fleet runs its chips in parallel shards but merges epoch
//! results in chip order, so the same [`FleetSpec`] must produce
//! bit-identical output at any `--threads` setting. The golden under
//! `tests/golden/fleet_smoke.jsonl` pins the scenario CI's
//! `fleet-smoke` gate replays; regenerate after an intentional engine
//! change with `UPDATE_GOLDENS=1 cargo test --test fleet`.

use vasp::vasched::experiments::fleet::{golden_spec, run_golden_scenario, GOLDEN_PATH};
use vasp::vasched::experiments::ServingSite;
use vasp::vasched::fleet::{run_fleet, FleetOutcome};
use vasp::vasched::obs::{diff_traces, parse_json};

/// Compares `actual` against `tests/golden/<name>`, or rewrites the
/// golden when `UPDATE_GOLDENS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert!(
        expected == actual,
        "{name} drifted from its golden ({} vs {} bytes); if the engine \
         change is intentional, regenerate with UPDATE_GOLDENS=1",
        expected.len(),
        actual.len()
    );
}

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
    // The committed copy the CI gate replays against must be the same
    // document this test pins.
    assert_eq!(
        diff_traces(
            &out.trace,
            &std::fs::read_to_string(
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH)
            )
            .expect("committed golden exists"),
        ),
        None,
        "replaying the committed golden must report zero divergence"
    );
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
