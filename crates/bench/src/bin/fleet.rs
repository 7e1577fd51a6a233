//! Fleet serving benches (beyond the paper): dispatcher sweeps, a
//! scale demonstration, and the per-component timings behind
//! `results/BENCH_fleet.json`.
//!
//! Three parts:
//!
//! 1. The dispatcher sweeps ([`fleet::dispatch_chip_sweep`],
//!    [`fleet::dispatch_budget_sweep`]) — throughput, p99 latency,
//!    shed rate, and datacenter tracking error per routing policy,
//!    written as `results/fleet_*.csv`.
//! 2. The mega-fleet run: one large cluster served end to end at the
//!    scale's size (256 chips / 3 s at `--scale paper`, sized so the
//!    run completes over a million jobs), then re-run at a different
//!    worker count and byte-compared — the scale-level determinism
//!    gate. At paper scale a completion count under one million is a
//!    hard failure.
//! 3. Fixed-size timed cases (`BENCH_fleet.json`): a small fleet run
//!    end to end (die generation through final merge), fleet
//!    construction, and the routing path `run_fleet` runs per epoch —
//!    `begin_epoch` over synthetic summaries, then 1 000
//!    `pick`/`enqueued` pairs — per policy at 64 and 1 024 chips.
//!    `check_bench --baseline` diffs the medians against the
//!    committed report. The bin fails unless variation-aware routing
//!    at 1 024 chips costs under [`VA_OVER_LL_MAX`]× least-loaded's
//!    and under [`VA_GROWTH_MAX`]× its own 64-chip case: ratios within
//!    one process, so host speed cancels.

use std::time::Instant;

use vasched::engine::TrialRunner;
use vasched::experiments::fleet::{self, fleet_config, fleet_spec};
use vasched::experiments::{Scale, ServingSite};
use vasched::fleet::{build_fleet_chips, run_fleet, ChipSummary, DispatchPolicy};
use vasched::obs::diff_traces;
use vasp_bench::harness::{slug, Harness};
use vasp_bench::json_report::BenchReport;
use vasp_bench::timing::report_case;

/// Fleet sizes of the routing cases.
const ROUTE_CHIPS: [usize; 2] = [64, 1_024];

/// Routing gate: variation-aware at 1 024 chips must cost less than
/// this multiple of least-loaded at 1 024 chips.
const VA_OVER_LL_MAX: f64 = 10.0;

/// Routing gate: variation-aware at 1 024 chips must cost less than
/// this multiple of its 64-chip case (16× the chips), so routing cost
/// grows sublinearly in the fleet size.
const VA_GROWTH_MAX: f64 = 8.0;

/// Mega-fleet size per scale: `(chips, duration_ms, jobs_floor)`.
/// Paper scale is sized so ~90% of `chips × rate × duration` arrivals
/// still clears one million completions.
fn mega_params(scale: &Scale) -> (usize, f64, usize) {
    if scale.dies >= Scale::paper().dies {
        (256, 3_000.0, 1_000_000)
    } else if scale.dies >= Scale::quick().dies {
        (32, 500.0, 0)
    } else {
        (8, 120.0, 0)
    }
}

/// Serves one mega-fleet at two worker counts and byte-compares the
/// runs; returns `false` when the jobs floor is missed or the trace,
/// metrics, or counters depend on the worker count.
fn run_mega(h: &Harness, report: &mut BenchReport) -> bool {
    let (chips, duration_ms, jobs_floor) = mega_params(&h.scale);
    let site = ServingSite::at_grid(h.scale.grid);
    let config = fleet_config(duration_ms, chips, fleet::DEFAULT_BUDGET_PER_CHIP_W);
    let spec = fleet_spec(&site, chips, DispatchPolicy::VariationAware, config, h.seed);
    let workers = TrialRunner::new().workers();
    let start = Instant::now();
    let out = run_fleet(&spec, workers).expect("mega spec is valid");
    report.push_stage("mega_fleet", start.elapsed().as_secs_f64());
    println!(
        "mega fleet: {chips} chips x {duration_ms} ms, {} arrived, {} completed \
         ({:.0} jobs/s), {} shed, dc error {:.2} W",
        out.arrived,
        out.completed,
        out.jobs_per_s(),
        out.shed,
        out.datacenter.tracking_error_w
    );

    let mut ok = true;
    if out.completed < jobs_floor {
        eprintln!(
            "FAIL: mega fleet completed {} jobs, below the {jobs_floor} floor",
            out.completed
        );
        ok = false;
    }

    // Same spec at a different worker count: every byte must match.
    let other_workers = if workers >= 2 { workers / 2 } else { 2 };
    let start = Instant::now();
    let redo = run_fleet(&spec, other_workers).expect("mega spec is valid");
    report.push_stage("mega_fleet_redo", start.elapsed().as_secs_f64());
    if out.trace == redo.trace && out.metrics == redo.metrics && out.completed == redo.completed {
        println!(
            "determinism: byte-identical at {workers} and {other_workers} workers \
             ({} trace bytes)",
            out.trace.len()
        );
    } else {
        ok = false;
        eprintln!("FAIL: mega fleet diverged between {workers} and {other_workers} workers");
        if let Some(d) = diff_traces(&out.trace, &redo.trace) {
            eprintln!("  {d}");
        }
    }
    ok
}

/// Synthetic summaries for the routing cases: a fleet of `chips` with
/// spread frequencies and loads.
fn synthetic_summaries(chips: usize) -> Vec<ChipSummary> {
    (0..chips)
        .map(|chip| ChipSummary {
            chip,
            rack: chip / 4,
            freq_profile_hz: (0..20)
                .map(|core| 4.0e9 - 2.0e7 * ((chip * 7 + core * 13) % 40) as f64)
                .collect(),
            resident: (chip * 5) % 21,
            queued: (chip * 3) % 8,
            alive_cores: 20,
            budget_w: 40.0,
            power_w: 30.0,
        })
        .collect()
}

/// The id of the routing case for `policy` at `chips` chips.
fn route_case(chips: usize, policy: DispatchPolicy) -> String {
    format!("epoch_1k_{chips}chip_{}", slug(policy.name()))
}

/// Times one routing epoch per policy and fleet size: `begin_epoch`,
/// then 1 000 placements, each a `pick` and an `enqueued`.
fn bench_dispatch(report: &mut BenchReport) {
    for chips in ROUTE_CHIPS {
        let summaries = synthetic_summaries(chips);
        for policy in fleet::DISPATCHERS {
            let mut dispatcher = policy.build();
            let name = route_case(chips, policy);
            let m = report_case("dispatch", &name, || {
                dispatcher.begin_epoch(&summaries);
                let mut acc = 0usize;
                for _ in 0..1_000 {
                    let chip = dispatcher.pick();
                    dispatcher.enqueued(chip);
                    acc += chip;
                }
                std::hint::black_box(acc);
            });
            report.push_case("dispatch", &name, m);
        }
    }
}

/// Enforces the routing gates on the timed cases; returns `false`
/// (after printing every violation) when one fails.
fn dispatch_gate(report: &BenchReport) -> bool {
    let median = |chips: usize, policy: DispatchPolicy| {
        report
            .median_of(&format!("dispatch/{}", route_case(chips, policy)))
            .expect("routing case was timed")
    };
    let va = median(1_024, DispatchPolicy::VariationAware);
    let mut ok = true;
    for (what, ratio, max) in [
        (
            "VariationAware over LeastLoaded at 1024 chips",
            va / median(1_024, DispatchPolicy::LeastLoaded),
            VA_OVER_LL_MAX,
        ),
        (
            "VariationAware at 1024 over 64 chips",
            va / median(64, DispatchPolicy::VariationAware),
            VA_GROWTH_MAX,
        ),
    ] {
        if ratio < max {
            println!("gate ok   {what}: {ratio:.2}x (max {max}x)");
        } else {
            eprintln!("FAIL: {what}: {ratio:.2}x, not under {max}x");
            ok = false;
        }
    }
    ok
}

/// Fixed-size timed cases, independent of `--scale` so the committed
/// baseline stays comparable.
fn bench_cases(report: &mut BenchReport) {
    bench_dispatch(report);

    let site = ServingSite::at_grid(20);
    // A small fleet served end to end: die generation, dispatch,
    // sharded epochs, merge. Dominated by the chip event loops.
    let config = fleet_config(60.0, 2, fleet::DEFAULT_BUDGET_PER_CHIP_W);
    let spec = fleet_spec(&site, 2, DispatchPolicy::VariationAware, config, 11);
    let m = report_case("run", "fleet_2chip_60ms", || {
        std::hint::black_box(run_fleet(&spec, 1).expect("bench spec is valid"));
    });
    report.push_case("run", "fleet_2chip_60ms", m);

    // Construction alone, at a size where the batched field draw
    // matters: 32 chips built exactly as `run_fleet` would build them
    // (one sequential `sample_many` pass, parallel die/machine
    // assembly) but with zero ticks run. Single worker so the case
    // times the work, not the thread pool.
    let config = fleet_config(60.0, 32, fleet::DEFAULT_BUDGET_PER_CHIP_W);
    let spec = fleet_spec(&site, 32, DispatchPolicy::VariationAware, config, 11);
    let m = report_case("construct", "fleet_32chip", || {
        std::hint::black_box(build_fleet_chips(&spec, 1).expect("bench spec is valid"));
    });
    report.push_case("construct", "fleet_32chip", m);
}

fn main() {
    let h = Harness::from_args();
    let mut report = BenchReport::new();

    let start = Instant::now();
    let chip_sweep = fleet::dispatch_chip_sweep(&h.scale, h.seed);
    report.push_stage("chip_sweep", start.elapsed().as_secs_f64());
    h.report(
        "fleet_throughput",
        "Fleet: completed jobs/s vs chip count per dispatcher (equal power per chip)",
        &chip_sweep.throughput_jobs_per_s,
    );
    h.report(
        "fleet_p99_latency",
        "Fleet: p99 arrival-to-completion latency (ms) vs chip count per dispatcher",
        &chip_sweep.p99_latency_ms,
    );
    h.report(
        "fleet_shed",
        "Fleet: shed jobs/s vs chip count per dispatcher (bounded per-chip queues)",
        &chip_sweep.shed_jobs_per_s,
    );

    let start = Instant::now();
    let budget_sweep = fleet::dispatch_budget_sweep(&h.scale, h.seed);
    report.push_stage("budget_sweep", start.elapsed().as_secs_f64());
    h.report(
        "fleet_budget_throughput",
        "Fleet: completed jobs/s vs datacenter budget (W per chip) per dispatcher",
        &budget_sweep.throughput_jobs_per_s,
    );
    h.report(
        "fleet_dc_error",
        "Fleet: mean datacenter power tracking error (W) vs budget per dispatcher",
        &budget_sweep.dc_tracking_error_w,
    );

    let mega_ok = run_mega(&h, &mut report);
    bench_cases(&mut report);
    let ok = dispatch_gate(&report) && mega_ok;

    match report.write("fleet") {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_fleet.json: {e}"),
    }
    if !ok {
        std::process::exit(1);
    }
}
