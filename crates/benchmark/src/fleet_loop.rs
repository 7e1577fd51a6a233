//! `run_fleet`'s epoch loop, driven through public calls so each phase
//! can be timed: the fleet has no observer hooks, so the traced fleet
//! round runs this copy instead.

use crate::outcome::FleetTotals;
use std::time::Instant;
use vasched::fleet::{
    build_fleet_chips, BudgetHierarchy, ChipSim, ChipSummary, FleetJob, FleetSpec,
};
use vasched::online::{generate_arrivals, LatencyStats};
use vastats::SimRng;

/// Must equal `run_fleet`'s private arrival salt: the copy replays the
/// same arrival stream, and the traced-versus-untraced digest check
/// fails if the two ever drift apart.
const FLEET_ARRIVAL_SALT: u64 = 0xA5B3_52F1_EE70_0D15;

/// Host time per fleet phase, from the traced epoch-loop copy.
#[derive(Debug, Clone, Default)]
pub struct FleetSpans {
    /// `build_fleet_chips` (seconds).
    pub build_s: f64,
    /// Arrival-stream generation (seconds).
    pub arrivals_s: f64,
    /// Budget re-apportionment (seconds).
    pub budget_s: f64,
    /// Chip-summary construction (seconds).
    pub summary_s: f64,
    /// Routing, sequential (seconds).
    pub route_s: f64,
    /// Sharded chip epochs (seconds of wall time).
    pub epoch_s: f64,
    /// Epoch merges and the final report (seconds).
    pub merge_s: f64,
    /// Jobs routed.
    pub jobs: usize,
    /// Epochs run.
    pub epochs: usize,
    /// Chip-ticks simulated.
    pub chip_ticks: usize,
    /// Shards the epochs ran on.
    pub shards: usize,
}

impl FleetSpans {
    /// Summed host time of every phase (seconds).
    pub fn total_s(&self) -> f64 {
        self.build_s
            + self.arrivals_s
            + self.budget_s
            + self.summary_s
            + self.route_s
            + self.epoch_s
            + self.merge_s
    }
}

/// Replays `run_fleet` exactly — same chips, arrival stream, routing,
/// budgets and merge order, which the digest comparison against
/// untraced rounds checks — timing each phase.
pub(crate) fn epoch_loop(spec: &FleetSpec<'_>, workers: usize) -> (FleetTotals, FleetSpans) {
    let cfg = &spec.config;
    let mut spans = FleetSpans {
        shards: workers.min(spec.chips).max(1),
        ..FleetSpans::default()
    };
    let tick_ms = cfg.runtime.tick_ms;
    let total_ticks = (cfg.runtime.duration_ms / tick_ms).round() as usize;
    let epoch_ticks = ((cfg.epoch_ms / tick_ms).round() as usize).max(1);

    let mut t = Instant::now();
    let mut lap = |acc: &mut f64| {
        let now = Instant::now();
        *acc += now.duration_since(t).as_secs_f64();
        t = now;
    };

    let mut chips = build_fleet_chips(spec, workers).expect("fleet spec is valid");
    let mut hierarchy = BudgetHierarchy::new(
        cfg.datacenter_budget_w,
        cfg.budget_gain,
        spec.chips,
        spec.chips_per_rack,
    );
    lap(&mut spans.build_s);

    let mut arrival_rng = SimRng::seed_from(spec.plan.derive(spec.seed, 0) ^ FLEET_ARRIVAL_SALT);
    let jobs = generate_arrivals(
        spec.site.pool(),
        spec.mix,
        &cfg.arrivals,
        cfg.runtime.duration_ms,
        &mut arrival_rng,
    );
    let arrival_ticks: Vec<usize> = jobs
        .iter()
        .map(|j| (j.arrival_ms / tick_ms).ceil() as usize)
        .collect();
    let mut dispatcher = spec.dispatch.build();
    lap(&mut spans.arrivals_s);

    let n_epochs = total_ticks.div_ceil(epoch_ticks);
    let mut epoch_powers = vec![0.0f64; spec.chips];
    let mut next_job = 0usize;
    let (mut arrived, mut shed, mut completed, mut migrations) = (0, 0, 0, 0);
    let (mut queued, mut resident) = (0, 0);
    for e in 0..n_epochs {
        let start = e * epoch_ticks;
        let end = ((e + 1) * epoch_ticks).min(total_ticks);
        if e > 0 {
            hierarchy.reapportion(&epoch_powers);
            for (c, chip) in chips.iter_mut().enumerate() {
                chip.set_budget_w(hierarchy.chip_budget_w(c));
            }
        }
        lap(&mut spans.budget_s);

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
        lap(&mut spans.summary_s);

        while next_job < jobs.len() && arrival_ticks[next_job] < end {
            let job = &jobs[next_job];
            arrived += 1;
            let target = dispatcher.route(job, &summaries);
            if summaries[target].queued >= cfg.max_queue_per_chip {
                shed += 1;
            } else {
                chips[target].enqueue(FleetJob {
                    id: next_job,
                    arrival_ms: job.arrival_ms,
                    arrival_tick: arrival_ticks[next_job],
                    spec: job.spec.clone(),
                    instructions: job.instructions,
                    phase_offset_ms: job.phase_offset_ms,
                });
                summaries[target].queued += 1;
            }
            next_job += 1;
        }
        lap(&mut spans.route_s);

        run_shards(&mut chips, start, end, spans.shards);
        spans.chip_ticks += (end - start) * spec.chips;
        lap(&mut spans.epoch_s);

        queued = 0;
        resident = 0;
        for (c, chip) in chips.iter_mut().enumerate() {
            let s = chip.end_epoch();
            epoch_powers[c] = s.mean_power_w;
            completed += s.completed;
            migrations += s.migrations;
            queued += chip.queue_len();
            resident += chip.resident_len();
        }
        spans.epochs += 1;
        lap(&mut spans.merge_s);
    }
    hierarchy.reapportion(&epoch_powers);
    lap(&mut spans.budget_s);

    let latencies: Vec<f64> = chips
        .iter()
        .flat_map(|c| c.latencies_ms().iter().copied())
        .collect();
    let totals = FleetTotals {
        arrived,
        completed,
        shed,
        migrations,
        queued,
        resident,
        latency: LatencyStats::of(&latencies),
        duration_ms: cfg.runtime.duration_ms,
        datacenter: hierarchy.datacenter_report(),
        racks: hierarchy.rack_reports(),
    };
    lap(&mut spans.merge_s);
    spans.jobs = arrived;
    (totals, spans)
}

/// Runs one epoch on every chip in contiguous shards, as `run_fleet`
/// does.
fn run_shards(chips: &mut [ChipSim], start: usize, end: usize, shards: usize) {
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
