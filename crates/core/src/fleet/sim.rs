//! The cluster event loop: dispatch, budget, and sharded execution.
//!
//! A fleet run alternates two strictly separated phases per epoch:
//!
//! 1. **Boundary (sequential)** — the hierarchy re-apportions power
//!    from last epoch's observed per-chip means, fresh
//!    [`ChipSummary`]s are built and indexed once, and the dispatcher
//!    routes every job arriving within the epoch (re-keying the target
//!    after each placement, so policies see their own consequences).
//! 2. **Execution (parallel)** — chips run the epoch's ticks in
//!    contiguous shards across `workers` threads. A chip touches only
//!    its own state and its own RNG sub-stream, so shard boundaries
//!    cannot change any result; the merge back into fleet totals walks
//!    chips in index order.
//!
//! That separation is the determinism argument in one sentence: all
//! cross-chip communication happens in phase 1, which is sequential
//! and worker-count-independent, and phase 2 is embarrassingly
//! parallel. `tests/fleet.rs` pins the consequence — byte-identical
//! traces and metrics at 1, 2, and 8 workers.

use super::budget::{BudgetHierarchy, TierReport};
use super::chip::{ChipSim, FleetJob};
use super::dispatch::{ChipSummary, DispatchPolicy};
use super::FleetConfig;
use crate::engine::{SeedPlan, TrialRunner};
use crate::experiments::ServingSite;
use crate::manager::{ManagerSpec, PowerBudget};
use crate::obs::json::{push_json_f64, push_json_str};
use crate::obs::MetricsRegistry;
use crate::online::{arrivals, LatencyStats};
use crate::runtime::{ConfigError, TrialError};
use crate::sched::SchedulerSpec;
use cmpsim::Mix;
use std::fmt::Write as _;
use vastats::SimRng;

/// Schema tag of the fleet trace (header line, `schema` field).
pub const FLEET_TRACE_SCHEMA: &str = "vasp.fleet.v1";

/// Salt separating the fleet-wide arrival stream from the per-chip
/// sub-streams derived off the same trial seed.
const ARRIVAL_SALT: u64 = 0xA5B3_52F1_EE70_0D15;

/// Salt separating the fleet-wide systematic-field stream (one batched
/// draw covering every chip's die) from the arrival stream and the
/// per-chip sub-streams.
const DIE_FIELD_SALT: u64 = 0x6C84_D1EF_1E1D_B2A7;

/// Bucket bounds of the `fleet.latency_ms` histogram.
const LATENCY_BOUNDS_MS: [f64; 10] = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0];

/// One fleet run, declaratively: the cluster's shape, its per-chip
/// control plane, the routing policy, and the workload.
#[derive(Debug, Clone)]
pub struct FleetSpec<'a> {
    /// The shared die context and application pool every chip draws
    /// from (each chip manufactures its *own* die from its sub-seed).
    pub site: &'a ServingSite,
    /// Which applications arrivals sample.
    pub mix: Mix,
    /// Chips in the fleet.
    pub chips: usize,
    /// Chips per rack (contiguous grouping; the last rack may be
    /// short).
    pub chips_per_rack: usize,
    /// Per-chip scheduling policy.
    pub policy: SchedulerSpec,
    /// Per-chip power manager.
    pub manager: ManagerSpec,
    /// Cluster-level routing policy.
    pub dispatch: DispatchPolicy,
    /// Timeline, arrival process, budgets, and service knobs.
    pub config: FleetConfig,
    /// Trial seed.
    pub seed: u64,
    /// Seed derivation (chips use [`SeedPlan::chip_seed`] at trial 0).
    pub plan: SeedPlan,
}

/// Everything a fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Chips simulated.
    pub chips: usize,
    /// Racks in the hierarchy.
    pub racks: usize,
    /// Simulated horizon (ms).
    pub duration_ms: f64,
    /// Jobs that arrived within the horizon and were routed.
    pub arrived: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs shed at routing time (target chip's queue at capacity).
    pub shed: usize,
    /// Thread migrations across all chips.
    pub migrations: usize,
    /// Arrival-to-completion latency summary over completed jobs
    /// (`None` when nothing completed).
    pub latency: Option<LatencyStats>,
    /// Datacenter-tier power tracking.
    pub datacenter: TierReport,
    /// Rack-tier power tracking, in rack order.
    pub rack_reports: Vec<TierReport>,
    /// The per-tier counters/gauges/histograms of the run.
    pub metrics: MetricsRegistry,
    /// The `vasp.fleet.v1` JSONL trace (header + one record per
    /// epoch).
    pub trace: String,
}

impl FleetOutcome {
    /// Completed-job throughput over the horizon (jobs/s).
    pub fn jobs_per_s(&self) -> f64 {
        self.completed as f64 / (self.duration_ms / 1e3)
    }
}

/// Checks everything [`run_fleet`] documents as an error, once, so
/// `ChipSim::new` (which runs on worker threads and cannot surface a
/// `Result`) can rely on the specs.
fn validate(spec: &FleetSpec<'_>) -> Result<(), TrialError> {
    spec.config.validate()?;
    if spec.chips == 0 || spec.chips_per_rack == 0 {
        return Err(TrialError::Config(ConfigError::BadFleet));
    }
    spec.manager.validate(&spec.config.runtime)?;
    Ok(())
}

/// Runs one fleet trial across `workers` threads. Bit-identical for
/// every `workers` value — chips communicate only at sequential epoch
/// boundaries and own all of their state and randomness.
///
/// # Errors
///
/// Returns [`TrialError::Config`] when the configuration fails
/// [`FleetConfig::validate`], the fleet has zero chips or zero chips
/// per rack, or a chip's scheduler or manager spec is invalid.
pub fn run_fleet(spec: &FleetSpec<'_>, workers: usize) -> Result<FleetOutcome, TrialError> {
    validate(spec)?;
    let cfg = &spec.config;
    let tick_ms = cfg.runtime.tick_ms;
    let total_ticks = (cfg.runtime.duration_ms / tick_ms).round() as usize;
    let epoch_ticks = ((cfg.epoch_ms / tick_ms).round() as usize).max(1);
    let workers = workers.max(1);

    let mut hierarchy = BudgetHierarchy::new(
        cfg.datacenter_budget_w,
        cfg.budget_gain,
        spec.chips,
        spec.chips_per_rack,
    );

    let mut chips = manufacture_chips(spec, &hierarchy, workers);

    // One fleet-wide arrival stream, salted away from the chip
    // sub-streams: the `generate_arrivals` schedule, drawn as routing
    // consumes it so no job's spec outlives its wait on a chip.
    let mut arrival_rng = SimRng::seed_from(spec.plan.derive(spec.seed, 0) ^ ARRIVAL_SALT);
    let mut arrivals = arrivals(
        spec.site.pool(),
        spec.mix,
        &cfg.arrivals,
        cfg.runtime.duration_ms,
        &mut arrival_rng,
    )
    .map(|job| ((job.arrival_ms / tick_ms).ceil() as usize, job))
    .peekable();

    let mut dispatcher = spec.dispatch.build();
    let mut trace = String::new();
    write!(
        trace,
        "{{\"schema\":\"{FLEET_TRACE_SCHEMA}\",\"chips\":{},\"racks\":{},\"dispatch\":",
        spec.chips,
        hierarchy.racks(),
    )
    .expect("write to String");
    push_json_str(&mut trace, spec.dispatch.name());
    trace.push_str(",\"epoch_ms\":");
    push_json_f64(&mut trace, cfg.epoch_ms);
    trace.push_str(",\"datacenter_w\":");
    push_json_f64(&mut trace, cfg.datacenter_budget_w);
    trace.push_str("}\n");

    let n_epochs = total_ticks.div_ceil(epoch_ticks);
    let mut epoch_powers = vec![0.0f64; spec.chips];
    let mut next_job = 0usize;
    let (mut arrived, mut shed, mut completed, mut migrations) = (0usize, 0usize, 0usize, 0usize);

    for e in 0..n_epochs {
        let start = e * epoch_ticks;
        let end = ((e + 1) * epoch_ticks).min(total_ticks);

        // Boundary phase (sequential): budgets, summaries, routing.
        if e > 0 {
            hierarchy.reapportion(&epoch_powers);
            for (c, chip) in chips.iter_mut().enumerate() {
                chip.set_budget_w(hierarchy.chip_budget_w(c));
            }
        }
        let mut summaries: Vec<ChipSummary> = chips
            .iter()
            .enumerate()
            .map(|(c, chip)| ChipSummary {
                chip: c,
                rack: hierarchy.rack_of(c),
                freq_profile_hz: chip.effective_freq_profile(),
                resident: chip.resident_len(),
                queued: chip.queue_len(),
                alive_cores: chip.alive_cores(),
                budget_w: chip.budget_w(),
                power_w: epoch_powers[c],
            })
            .collect();
        dispatcher.begin_epoch(&summaries);
        let (mut e_arrived, mut e_shed) = (0usize, 0usize);
        while let Some((arrival_tick, job)) = arrivals.next_if(|&(tick, _)| tick < end) {
            e_arrived += 1;
            let target = dispatcher.pick();
            if summaries[target].queued >= cfg.max_queue_per_chip {
                e_shed += 1;
            } else {
                chips[target].enqueue(FleetJob {
                    id: next_job,
                    arrival_ms: job.arrival_ms,
                    arrival_tick,
                    spec: job.spec,
                    instructions: job.instructions,
                    phase_offset_ms: job.phase_offset_ms,
                });
                summaries[target].queued += 1;
                dispatcher.enqueued(target);
            }
            next_job += 1;
        }
        arrived += e_arrived;
        shed += e_shed;

        // Execution phase (parallel shards).
        run_shards(&mut chips, start, end, workers);

        // Merge (sequential, chip order).
        let (mut e_admitted, mut e_completed, mut e_migrations) = (0usize, 0usize, 0usize);
        let (mut queued, mut resident) = (0usize, 0usize);
        for (c, chip) in chips.iter_mut().enumerate() {
            let s = chip.end_epoch();
            epoch_powers[c] = s.mean_power_w;
            e_admitted += s.admitted;
            e_completed += s.completed;
            e_migrations += s.migrations;
            queued += chip.queue_len();
            resident += chip.resident_len();
        }
        completed += e_completed;
        migrations += e_migrations;

        write!(trace, "{{\"epoch\":{e},\"tick\":{end},\"dc_power_w\":").expect("write to String");
        push_json_f64(&mut trace, epoch_powers.iter().sum());
        trace.push_str(",\"rack_alloc_w\":[");
        for r in 0..hierarchy.racks() {
            if r > 0 {
                trace.push(',');
            }
            push_json_f64(&mut trace, hierarchy.rack_budget_w(r));
        }
        trace.push_str("],\"rack_power_w\":[");
        for r in 0..hierarchy.racks() {
            if r > 0 {
                trace.push(',');
            }
            let p: f64 = epoch_powers
                .iter()
                .enumerate()
                .filter(|(c, _)| hierarchy.rack_of(*c) == r)
                .map(|(_, &p)| p)
                .sum();
            push_json_f64(&mut trace, p);
        }
        write!(
            trace,
            "],\"arrived\":{e_arrived},\"shed\":{e_shed},\"admitted\":{e_admitted},\"completed\":{e_completed},\"migrations\":{e_migrations},\"queued\":{queued},\"resident\":{resident}}}",
        )
        .expect("write to String");
        trace.push('\n');
    }
    // Fold the final epoch's observation into the tracking reports
    // (its allocations were in force; only the *next* allocations this
    // computes go unused).
    hierarchy.reapportion(&epoch_powers);

    let mut latencies: Vec<f64> = Vec::new();
    let mut util_sum = 0.0;
    for chip in &chips {
        latencies.extend_from_slice(chip.latencies_ms());
        util_sum += chip.utilization();
    }
    let latency = LatencyStats::of(&latencies);

    let datacenter = hierarchy.datacenter_report();
    let rack_reports = hierarchy.rack_reports();
    let mut metrics = MetricsRegistry::new();
    metrics.inc("fleet.jobs.arrived", arrived as u64);
    metrics.inc("fleet.jobs.completed", completed as u64);
    metrics.inc("fleet.jobs.shed", shed as u64);
    metrics.inc("fleet.migrations", migrations as u64);
    metrics.set_gauge("fleet.dc.target_w", datacenter.target_w);
    metrics.set_gauge("fleet.dc.mean_power_w", datacenter.mean_power_w);
    metrics.set_gauge("fleet.dc.tracking_error_w", datacenter.tracking_error_w);
    metrics.set_gauge(
        "fleet.rack.max_tracking_error_w",
        rack_reports
            .iter()
            .map(|r| r.tracking_error_w)
            .fold(0.0, f64::max),
    );
    metrics.set_gauge("fleet.utilization", util_sum / spec.chips as f64);
    for &l in &latencies {
        metrics.observe("fleet.latency_ms", &LATENCY_BOUNDS_MS, l);
    }

    Ok(FleetOutcome {
        chips: spec.chips,
        racks: rack_reports.len(),
        duration_ms: cfg.runtime.duration_ms,
        arrived,
        completed,
        shed,
        migrations,
        latency,
        datacenter,
        rack_reports,
        metrics,
        trace,
    })
}

/// Manufactures the fleet's chips. One sequential pass draws every
/// chip's systematic variation field up front — batched through
/// [`vastats::GaussianField::sample_many`], which gets two fields per
/// FFT on circulant grids — off a dedicated salted stream, then the
/// dies and machines are assembled in parallel from each chip's own
/// `chip_seed` sub-stream. Construction stays a pure function of the
/// chip index (the field pass is worker-count-independent and the
/// per-chip RNGs never touch the field stream), so work-stealing order
/// cannot matter.
fn manufacture_chips(
    spec: &FleetSpec<'_>,
    hierarchy: &BudgetHierarchy,
    workers: usize,
) -> Vec<ChipSim> {
    let mut field_rng = SimRng::seed_from(spec.plan.derive(spec.seed, 0) ^ DIE_FIELD_SALT);
    let fields = spec
        .site
        .ctx()
        .generator()
        .field()
        .sample_many(spec.chips, &mut field_rng);
    let runner = TrialRunner::with_workers(workers);
    runner.map(spec.chips, |c| {
        ChipSim::new(
            spec.site.ctx(),
            spec.plan.chip_seed(spec.seed, 0, c),
            &fields[c],
            spec.policy,
            spec.manager,
            PowerBudget {
                chip_w: hierarchy.chip_budget_w(c),
                per_core_w: PowerBudget::DEFAULT_PER_CORE_W,
            },
            &spec.config,
        )
    })
}

/// Builds the fleet's chips exactly as [`run_fleet`] would — batched
/// field draw, parallel assembly, initial even budget split — without
/// running any ticks. This is the construction path the fleet bench
/// times.
///
/// # Errors
///
/// Returns [`TrialError::Config`] for the same configuration errors as
/// [`run_fleet`].
pub fn build_fleet_chips(spec: &FleetSpec<'_>, workers: usize) -> Result<Vec<ChipSim>, TrialError> {
    validate(spec)?;
    let hierarchy = BudgetHierarchy::new(
        spec.config.datacenter_budget_w,
        spec.config.budget_gain,
        spec.chips,
        spec.chips_per_rack,
    );
    Ok(manufacture_chips(spec, &hierarchy, workers.max(1)))
}

/// Runs the epoch's ticks on every chip, split into contiguous shards
/// across `workers` threads. Each chip is self-contained, so the shard
/// layout affects wall-clock only.
fn run_shards(chips: &mut [ChipSim], start: usize, end: usize, workers: usize) {
    let shards = workers.min(chips.len()).max(1);
    if shards <= 1 {
        for chip in chips.iter_mut() {
            chip.run_epoch(start, end);
        }
        return;
    }
    let chunk = chips.len().div_ceil(shards);
    std::thread::scope(|scope| {
        for shard in chips.chunks_mut(chunk) {
            scope.spawn(move || {
                for chip in shard {
                    chip.run_epoch(start, end);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;

    fn smoke_spec(site: &ServingSite) -> FleetSpec<'_> {
        FleetSpec {
            site,
            mix: Mix::Balanced,
            chips: 4,
            chips_per_rack: 2,
            policy: SchedulerSpec::VarFAppIpc,
            manager: ManagerSpec::LinOpt,
            dispatch: DispatchPolicy::VariationAware,
            config: FleetConfig {
                runtime: RuntimeConfig {
                    duration_ms: 60.0,
                    os_interval_ms: 30.0,
                    ..RuntimeConfig::paper_default()
                },
                arrivals: crate::online::ArrivalConfig::poisson(2_000.0, 3.0e6),
                datacenter_budget_w: 160.0,
                ..FleetConfig::serving_default()
            },
            seed: 2008,
            plan: SeedPlan::default(),
        }
    }

    #[test]
    fn fleet_serves_and_reports() {
        let site = ServingSite::at_grid(20);
        let spec = smoke_spec(&site);
        let out = run_fleet(&spec, 2).expect("smoke spec is valid");
        assert_eq!(out.chips, 4);
        assert_eq!(out.racks, 2);
        assert!(out.arrived > 0, "the stream must arrive");
        assert!(out.completed > 0, "chips must complete jobs");
        assert!(out.jobs_per_s() > 0.0);
        let lat = out.latency.expect("completions imply latencies");
        assert!(lat.p50_ms > 0.0 && lat.p99_ms >= lat.p50_ms);
        assert_eq!(out.datacenter.target_w, 160.0);
        assert!(out.datacenter.mean_power_w > 0.0);
        assert_eq!(out.rack_reports.len(), 2);
        assert_eq!(
            out.metrics.counter("fleet.jobs.completed"),
            out.completed as u64
        );
        // Trace: header + one record per epoch (60 ms / 10 ms epochs).
        assert_eq!(out.trace.lines().count(), 1 + 6);
        assert!(out.trace.starts_with("{\"schema\":\"vasp.fleet.v1\""));
    }

    #[test]
    fn worker_count_cannot_change_a_bit() {
        let site = ServingSite::at_grid(20);
        let spec = smoke_spec(&site);
        let a = run_fleet(&spec, 1).expect("valid");
        let b = run_fleet(&spec, 3).expect("valid");
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency, b.latency);
    }

    #[test]
    fn zero_chips_is_a_config_error() {
        let site = ServingSite::at_grid(20);
        let mut spec = smoke_spec(&site);
        spec.chips = 0;
        assert_eq!(
            run_fleet(&spec, 1).unwrap_err(),
            TrialError::Config(ConfigError::BadFleet)
        );
    }
}
