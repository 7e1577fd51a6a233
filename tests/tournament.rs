//! Tournament-harness integration tests: worker-count determinism of
//! the full contender × scenario fan-out and the committed golden
//! pinning the ranked JSONL report byte-for-byte.
//!
//! The tournament flattens (scenario, contender, trial) jobs through
//! `TrialRunner::map`, which returns results in job order regardless
//! of scheduling, so the same (scale, seed) must produce a
//! byte-identical report at any worker count. The golden under
//! `tests/golden/tournament_smoke.jsonl` pins the smoke scenario;
//! regenerate after an intentional engine change with
//! `UPDATE_GOLDENS=1 cargo test --test tournament`.

mod common;

use common::check_golden;
use vasp::vasched::experiments::tournament::{
    contenders, golden_scale, run_golden_scenario, run_with_workers, scenarios,
    TOURNAMENT_GOLDEN_SEED,
};
use vasp::vasched::obs::diff_traces;

#[test]
fn tournament_report_is_identical_across_worker_counts() {
    let scale = golden_scale();
    let one = run_with_workers(&scale, TOURNAMENT_GOLDEN_SEED, 1);
    for workers in [2, 8] {
        let many = run_with_workers(&scale, TOURNAMENT_GOLDEN_SEED, workers);
        let (a, b) = (one.to_jsonl(), many.to_jsonl());
        assert!(
            a == b,
            "report diverged at {workers} workers: {:?}",
            diff_traces(&a, &b)
        );
        assert_eq!(one.csv(), many.csv(), "CSV diverged at {workers} workers");
    }
}

#[test]
fn tournament_smoke_report_matches_golden() {
    let report = run_golden_scenario();
    assert_eq!(report.scenarios.len(), scenarios().len());
    assert_eq!(report.ranking.len(), contenders().len());
    check_golden("tournament_smoke.jsonl", &report.to_jsonl());
}
