//! The committed deterministic-replay scenario: one fixed online
//! serving run whose JSONL trace is pinned byte-for-byte under
//! `tests/golden/replay_online.jsonl`, plus the checkpoint/restore
//! drill the `tests/obs.rs` golden test executes against it.
//!
//! Everything here is deliberately constant — seed, die, arrival
//! stream, service policy, checkpoint tick — because the artifact
//! under test is *bytes*. The scenario exercises the full online
//! surface in one run: Poisson arrivals over initial residents, LinOpt
//! under the tight serving budget, windowed rescheduling, deadline
//! shedding (so the trace's `dropped` field is exercised), and a
//! mid-run checkpoint through the [`crate::online::Snapshot`] JSON
//! codec.
//!
//! Two consumers share it: the `tests/obs.rs` golden test (the
//! tier-1 gate, with [`crate::obs::diff_traces`] diagnosis on
//! failure) and anyone bisecting a determinism regression by hand.

use super::online::serving_budget;
use super::ServingSite;
use crate::manager::ManagerSpec;
use crate::obs::TraceObserver;
use crate::online::{
    run_online, ArrivalConfig, OnlineConfig, OnlineOutcome, OnlineSim, ServicePolicy, Snapshot,
};
use crate::runtime::{NullObserver, RuntimeConfig};
use crate::sched::SchedulerSpec;
use cmpsim::{FaultPlan, Mix};
use vastats::SimRng;

/// Master seed of the committed scenario. Changing it (or anything
/// else here) invalidates the golden — regenerate with
/// `UPDATE_GOLDENS=1 cargo test --test obs`.
pub const REPLAY_SEED: u64 = 20_080_621;

/// Tick the checkpoint drill cuts at: a DVFS-interval boundary (the
/// trace samples every 10 ticks), mid-horizon so both segments do real
/// work.
pub const CHECKPOINT_TICK: usize = 60;

/// Variation-map grid of the scenario die (smoke fidelity: the
/// scenario pins determinism, not model accuracy).
const GRID: usize = 20;

/// The committed serving configuration: 120 ms horizon, heavy Poisson
/// stream over a full chip, windowed rescheduling with deadline
/// shedding.
pub fn scenario_config() -> OnlineConfig {
    OnlineConfig {
        runtime: RuntimeConfig {
            duration_ms: 120.0,
            os_interval_ms: 30.0,
            ..RuntimeConfig::paper_default()
        },
        arrivals: ArrivalConfig::poisson(300.0, 120.0e6),
        initial_jobs: 8,
        migration_penalty_ms: 1.0,
        service: ServicePolicy {
            reschedule_window_ms: 20.0,
            deadline_slack: 1.5,
        },
    }
}

/// Everything the replay gates compare.
#[derive(Debug, Clone)]
pub struct ReplayArtifacts {
    /// JSONL trace of the uninterrupted run (header + 12 records) —
    /// the document pinned at `tests/golden/replay_online.jsonl`.
    pub trace: String,
    /// Trace records emitted after [`CHECKPOINT_TICK`] by the
    /// checkpoint → JSON round trip → restore run.
    pub resumed_tail: String,
    /// The same tail cut out of `trace` — the byte-identity reference
    /// for `resumed_tail`.
    pub expected_tail: String,
    /// Outcome of the uninterrupted run.
    pub outcome_full: OnlineOutcome,
    /// Outcome of the restored run — must equal `outcome_full`.
    pub outcome_resumed: OnlineOutcome,
}

/// Runs the committed scenario three ways — uninterrupted, to the
/// checkpoint, and restored from the serialized checkpoint — and
/// returns the artifacts the gates byte-compare.
///
/// # Panics
///
/// Panics if any run rejects its configuration or the snapshot fails
/// to round-trip through JSON; the scenario is fixed, so either is a
/// bug, not an input error.
pub fn run_scenario() -> ReplayArtifacts {
    let site = ServingSite::at_grid(GRID);
    let (ctx, pool) = (site.ctx(), site.pool());
    let config = scenario_config();
    let policy = SchedulerSpec::VarFAppIpc;
    let manager = ManagerSpec::LinOpt;
    let budget = serving_budget();
    let faults = FaultPlan::none();
    let dt_s = config.runtime.tick_ms / 1e3;

    // Pass 1: the uninterrupted run, traced from tick 0.
    let mut rng = SimRng::seed_from(REPLAY_SEED);
    let die = ctx.make_die(&mut rng);
    let mut machine = ctx.make_machine(&die);
    let mut observer = TraceObserver::new();
    let outcome_full = run_online(
        &mut machine,
        pool,
        Mix::Balanced,
        policy,
        manager,
        budget,
        &config,
        &faults,
        &mut rng,
        &mut observer,
    )
    .expect("replay scenario is valid");
    let trace = observer.into_jsonl();

    // Pass 2: identical run cut at the checkpoint; serialize the
    // snapshot through the JSON codec so restore exercises the full
    // round trip, not a clone.
    let mut rng = SimRng::seed_from(REPLAY_SEED);
    let die = ctx.make_die(&mut rng);
    let mut machine = ctx.make_machine(&die);
    let residents = config.draw_residents(pool, Mix::Balanced, &mut rng);
    let mut sim = OnlineSim::new(
        &mut machine,
        residents.as_ref(),
        pool,
        Mix::Balanced,
        policy,
        manager,
        budget,
        &config,
        &faults,
        &mut rng,
    )
    .expect("replay scenario is valid");
    let mut null = NullObserver;
    for _ in 0..CHECKPOINT_TICK {
        sim.step(&mut null);
    }
    let snapshot_json = sim.checkpoint().to_json();
    drop(sim);
    let snapshot = Snapshot::from_json(&snapshot_json, pool).expect("snapshot round-trips");

    // Pass 3: restore onto a fresh machine (same die), with a fresh
    // observer fast-forwarded to the cut, and run out the tail. The
    // restored RNG comes from the snapshot, so the seed here is
    // irrelevant by construction.
    let mut rng = SimRng::seed_from(REPLAY_SEED);
    let die = ctx.make_die(&mut rng);
    let mut machine = ctx.make_machine(&die);
    let mut sim = OnlineSim::resume(
        &mut machine,
        pool,
        Mix::Balanced,
        policy,
        manager,
        budget,
        &config,
        &faults,
        &mut rng,
        &snapshot,
    )
    .expect("snapshot restores");
    let mut tail_observer = TraceObserver::new();
    tail_observer.fast_forward(CHECKPOINT_TICK, dt_s);
    sim.run(&mut tail_observer);
    let outcome_resumed = sim.finish();
    let resumed_tail = tail_observer.into_jsonl();

    let expected_tail = tail_of(&trace);
    ReplayArtifacts {
        trace,
        resumed_tail,
        expected_tail,
        outcome_full,
        outcome_resumed,
    }
}

/// Cuts the post-checkpoint tail out of the full trace: drops the
/// schema header plus the records the checkpointed segment already
/// emitted (one per 10-tick DVFS interval).
fn tail_of(trace: &str) -> String {
    let skip = 1 + CHECKPOINT_TICK / 10;
    trace.split_inclusive('\n').skip(skip).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_exercises_shedding_and_windowing() {
        // The golden is only a strong determinism gate if the run it
        // pins actually drives the new machinery.
        let a = run_scenario();
        assert!(a.outcome_full.shed > 0, "scenario must shed");
        assert!(a.outcome_full.completed > 0, "scenario must complete");
        assert!(
            a.trace.lines().count() == 13,
            "120 ms at 10 ms intervals is a header + 12 records"
        );
        assert!(
            a.trace.contains("\"dropped\":"),
            "trace must carry the dropped field"
        );
    }

    #[test]
    fn resumed_tail_is_byte_identical_and_outcomes_agree() {
        let a = run_scenario();
        assert_eq!(a.outcome_full, a.outcome_resumed);
        assert!(
            a.resumed_tail == a.expected_tail,
            "restored trace tail diverged: {:?}",
            crate::obs::diff_traces(&a.expected_tail, &a.resumed_tail)
        );
    }
}
