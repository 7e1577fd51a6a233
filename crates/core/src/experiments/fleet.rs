//! Fleet serving experiments (beyond the paper): dispatcher policy ×
//! fleet size × datacenter budget, plus the committed golden scenario
//! that `tests/fleet.rs` pins.
//!
//! The single-chip experiments established that variation-aware
//! scheduling wins *within* a chip. The fleet sweeps ask whether the
//! same information wins *across* chips: at equal total power and an
//! identical arrival stream (common random numbers — every arm replays
//! the same dies and jobs), does routing on chip capability
//! ([`DispatchPolicy::VariationAware`]) complete more jobs than
//! balancing queue lengths ([`DispatchPolicy::LeastLoaded`]) or blind
//! rotation ([`DispatchPolicy::RoundRobin`])?
//!
//! The regime matters: far below saturation any policy keeps up, and
//! deep into overload every chip is saturated and capability signals
//! degenerate into backlog counts. The sweeps therefore run the fleet
//! near its serving capacity ([`RATE_PER_CHIP_PER_S`] with a bounded
//! per-chip queue), where the dispatcher's choice of *which* silicon
//! serves each job is the difference between completing and shedding.

use super::{Scale, Series, ServingSite};
use crate::engine::{SeedPlan, TrialRunner};
use crate::fleet::{run_fleet, DispatchPolicy, FleetConfig, FleetOutcome, FleetSpec};
use crate::manager::ManagerSpec;
use crate::online::ArrivalConfig;
use crate::runtime::RuntimeConfig;
use crate::sched::SchedulerSpec;
use cmpsim::Mix;

/// The routing policies every sweep compares, baseline first.
pub const DISPATCHERS: [DispatchPolicy; 3] = [
    DispatchPolicy::RoundRobin,
    DispatchPolicy::LeastLoaded,
    DispatchPolicy::VariationAware,
];

/// Fleet sizes of the chip-count sweep.
pub const FLEET_CHIP_COUNTS: [usize; 3] = [4, 8, 16];

/// Per-chip datacenter budget points of the budget sweep (watts); the
/// datacenter cap is `chips ×` this, so arms at the same point spend
/// equal total power.
pub const BUDGET_PER_CHIP_W: [f64; 3] = [25.0, 40.0, 60.0];

/// The serving point both sweeps hold fixed unless they sweep it:
/// 40 W per chip — the single-chip serving budget the online
/// experiments use.
pub const DEFAULT_BUDGET_PER_CHIP_W: f64 = 40.0;

/// Chips per rack in every fleet experiment.
pub const CHIPS_PER_RACK: usize = 4;

/// Mean job size (instructions): short serving requests, ~1–2 ms of
/// one core, so a chip turns over its residents many times per run and
/// routing quality surfaces quickly.
pub const FLEET_MEAN_JOB_INSTRUCTIONS: f64 = 3.0e6;

/// Offered load per chip (jobs/s): ~90% of a 40 W chip's measured
/// completion rate (~1 700/s) at [`FLEET_MEAN_JOB_INSTRUCTIONS`]. The
/// fleet runs hot but below collapse — the regime where routing
/// quality decides which jobs queue: deep overload saturates every
/// chip and degenerates all policies into backlog counting.
pub const RATE_PER_CHIP_PER_S: f64 = 1_500.0;

/// Variation-map grid of the golden scenario's dies (smoke fidelity).
const GOLDEN_GRID: usize = 20;

/// Master seed of the committed golden scenario.
pub const FLEET_GOLDEN_SEED: u64 = 20_080_808;

/// The fleet configuration the sweeps run: paper timeline over
/// `duration_ms`, 10 ms epochs, 20 ms reschedule windows, and an
/// arrival stream of [`RATE_PER_CHIP_PER_S`] per chip.
pub fn fleet_config(duration_ms: f64, chips: usize, per_chip_w: f64) -> FleetConfig {
    FleetConfig {
        runtime: RuntimeConfig {
            duration_ms,
            os_interval_ms: duration_ms.min(100.0),
            ..RuntimeConfig::paper_default()
        },
        arrivals: ArrivalConfig::poisson(
            RATE_PER_CHIP_PER_S * chips as f64,
            FLEET_MEAN_JOB_INSTRUCTIONS,
        ),
        datacenter_budget_w: per_chip_w * chips as f64,
        ..FleetConfig::serving_default()
    }
}

/// A fleet spec at the sweeps' fixed serving point.
pub fn fleet_spec<'a>(
    site: &'a ServingSite,
    chips: usize,
    dispatch: DispatchPolicy,
    config: FleetConfig,
    seed: u64,
) -> FleetSpec<'a> {
    FleetSpec {
        site,
        mix: Mix::Balanced,
        chips,
        chips_per_rack: CHIPS_PER_RACK,
        policy: SchedulerSpec::VarFAppIpc,
        manager: ManagerSpec::LinOpt,
        dispatch,
        config,
        seed,
        plan: SeedPlan::default(),
    }
}

/// Results of a fleet sweep: one series per dispatcher (in
/// [`DISPATCHERS`] order) over the swept axis.
#[derive(Debug, Clone)]
pub struct FleetSweep {
    /// Completed-job throughput (jobs/s).
    pub throughput_jobs_per_s: Vec<Series>,
    /// p99 arrival-to-completion latency over completed jobs (ms; NaN
    /// when nothing completed).
    pub p99_latency_ms: Vec<Series>,
    /// Jobs shed at routing, per second of horizon.
    pub shed_jobs_per_s: Vec<Series>,
    /// Mean datacenter power tracking error (watts).
    pub dc_tracking_error_w: Vec<Series>,
}

fn sweep_outcomes(
    label_of: impl Fn(DispatchPolicy) -> String,
    x: Vec<f64>,
    outcomes: &[Vec<FleetOutcome>],
) -> FleetSweep {
    let series = |f: &dyn Fn(&FleetOutcome) -> f64| -> Vec<Series> {
        DISPATCHERS
            .iter()
            .zip(outcomes)
            .map(|(&d, row)| Series::new(label_of(d), x.clone(), row.iter().map(f).collect()))
            .collect()
    };
    FleetSweep {
        throughput_jobs_per_s: series(&|o| o.jobs_per_s()),
        p99_latency_ms: series(&|o| o.latency.map_or(f64::NAN, |l| l.p99_ms)),
        shed_jobs_per_s: series(&|o| o.shed as f64 / (o.duration_ms / 1e3)),
        dc_tracking_error_w: series(&|o| o.datacenter.tracking_error_w),
    }
}

/// Sweeps fleet size at the fixed per-chip budget: every dispatcher
/// serves the identical stream over the identical dies at each size
/// (common random numbers), so the series isolate routing policy.
pub fn dispatch_chip_sweep(scale: &Scale, seed: u64) -> FleetSweep {
    let site = ServingSite::at_grid(scale.grid);
    let workers = TrialRunner::new().workers();
    let outcomes: Vec<Vec<FleetOutcome>> = DISPATCHERS
        .iter()
        .map(|&dispatch| {
            FLEET_CHIP_COUNTS
                .iter()
                .map(|&chips| {
                    let config = fleet_config(scale.duration_ms, chips, DEFAULT_BUDGET_PER_CHIP_W);
                    let spec = fleet_spec(&site, chips, dispatch, config, seed);
                    run_fleet(&spec, workers).expect("sweep spec is valid")
                })
                .collect()
        })
        .collect();
    sweep_outcomes(
        |d| d.name().to_string(),
        FLEET_CHIP_COUNTS.iter().map(|&c| c as f64).collect(),
        &outcomes,
    )
}

/// Sweeps the datacenter budget (as watts per chip) at a fixed
/// 8-chip fleet: at every point all dispatchers spend the same total
/// power, so a throughput gap is routing quality, not wattage.
pub fn dispatch_budget_sweep(scale: &Scale, seed: u64) -> FleetSweep {
    let site = ServingSite::at_grid(scale.grid);
    let workers = TrialRunner::new().workers();
    let chips = 8;
    let outcomes: Vec<Vec<FleetOutcome>> = DISPATCHERS
        .iter()
        .map(|&dispatch| {
            BUDGET_PER_CHIP_W
                .iter()
                .map(|&per_chip_w| {
                    let config = fleet_config(scale.duration_ms, chips, per_chip_w);
                    let spec = fleet_spec(&site, chips, dispatch, config, seed);
                    run_fleet(&spec, workers).expect("sweep spec is valid")
                })
                .collect()
        })
        .collect();
    sweep_outcomes(
        |d| d.name().to_string(),
        BUDGET_PER_CHIP_W.to_vec(),
        &outcomes,
    )
}

/// The committed golden scenario: 8 chips in 2 racks serving 120 ms of
/// the near-saturation stream under variation-aware dispatch. Its
/// trace is pinned byte-for-byte at `tests/golden/fleet_smoke.jsonl`;
/// regenerate with `UPDATE_GOLDENS=1 cargo test --test fleet`.
pub fn golden_spec(site: &ServingSite) -> FleetSpec<'_> {
    let config = fleet_config(120.0, 8, DEFAULT_BUDGET_PER_CHIP_W);
    fleet_spec(
        site,
        8,
        DispatchPolicy::VariationAware,
        config,
        FLEET_GOLDEN_SEED,
    )
}

/// Runs the golden scenario at the process-default worker count (the
/// trace is worker-count-independent by construction).
pub fn run_golden_scenario() -> FleetOutcome {
    let site = ServingSite::at_grid(GOLDEN_GRID);
    let spec = golden_spec(&site);
    run_fleet(&spec, TrialRunner::new().workers()).expect("golden scenario is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variation_aware_beats_least_loaded_at_equal_power() {
        // The fleet acceptance criterion: at the near-saturation
        // serving point, with identical dies, arrival stream, and
        // total power, routing on chip capability must complete more
        // jobs than balancing queue lengths — the fleet-level analogue
        // of the paper's VarF result.
        let site = ServingSite::at_grid(20);
        let workers = TrialRunner::new().workers();
        let chips = 8;
        let config = fleet_config(300.0, chips, DEFAULT_BUDGET_PER_CHIP_W);
        let run = |dispatch| {
            let spec = fleet_spec(&site, chips, dispatch, config.clone(), 42);
            run_fleet(&spec, workers).expect("valid")
        };
        let va = run(DispatchPolicy::VariationAware);
        let ll = run(DispatchPolicy::LeastLoaded);
        let rr = run(DispatchPolicy::RoundRobin);
        assert!(
            va.completed > ll.completed,
            "variation-aware must beat least-loaded: {} vs {} (RR {})",
            va.completed,
            ll.completed,
            rr.completed
        );
        assert!(
            va.completed > rr.completed,
            "variation-aware must beat round-robin: {} vs {}",
            va.completed,
            rr.completed
        );
        // Routing to faster silicon should also shorten the tail, not
        // just raise throughput.
        let p99 = |o: &crate::fleet::FleetOutcome| o.latency.expect("completions").p99_ms;
        assert!(
            p99(&va) < p99(&ll),
            "variation-aware p99 {} must undercut least-loaded {}",
            p99(&va),
            p99(&ll)
        );
    }

    #[test]
    fn golden_scenario_exercises_the_fleet_surface() {
        // The golden is only a strong gate if the run it pins drives
        // the whole fleet: arrivals on every chip, completions, budget
        // re-apportionment with nonzero observed power, and a trace
        // with one record per epoch.
        let out = run_golden_scenario();
        assert_eq!(out.chips, 8);
        assert_eq!(out.racks, 2);
        assert!(out.completed > 100, "golden must serve: {}", out.completed);
        assert!(out.datacenter.mean_power_w > 0.0);
        assert!(out.latency.is_some());
        assert_eq!(out.trace.lines().count(), 1 + 12, "header + 12 epochs");
    }

    #[test]
    fn chip_sweep_has_one_series_per_dispatcher() {
        let scale = Scale {
            duration_ms: 40.0,
            ..Scale::smoke()
        };
        let sweep = dispatch_chip_sweep(&scale, 7);
        for metric in [
            &sweep.throughput_jobs_per_s,
            &sweep.p99_latency_ms,
            &sweep.shed_jobs_per_s,
            &sweep.dc_tracking_error_w,
        ] {
            assert_eq!(metric.len(), DISPATCHERS.len());
            for (series, d) in metric.iter().zip(DISPATCHERS) {
                assert_eq!(series.label, d.name());
                assert_eq!(series.x.len(), FLEET_CHIP_COUNTS.len());
            }
        }
    }
}
