//! Kernel microbenches: the costs every experiment pays per tick.
//!
//! Measures the public kernel entry points (`Machine::step`, thread
//! profiling, thermal stepping, field sampling, LinOpt, Foxton*, SAnn
//! and the exact solver) plus the in-place scratch-buffer APIs; writes
//! `results/BENCH_kernel.json`. The committed pre-optimization run is
//! `results/BENCH_kernel_baseline.json`; `check_bench --baseline`
//! diffs the two.
//!
//! Flags:
//!
//! * `--gate` — after writing the report, compare against the
//!   committed baseline and exit non-zero unless the optimized kernels
//!   hold their promised speedups ([`STEP_SPEEDUP_MIN`]× on
//!   `machine/step_1ms_20t`, [`FIELD_SPEEDUP_MIN`]× on the large-grid
//!   field cases, [`PROFILE_SPEEDUP_MIN`]× on
//!   `profile/thread_profiles_20t`, [`SANN_SPEEDUP_MIN`]× on
//!   `solver/sann_20c`). The baseline was timed on another day, so
//!   each raw speedup is first multiplied by the host factor, the
//!   repository benchmark's own rescaling: the fastest of
//!   [`HOST_REFERENCE_RUNS`] timings of its host-reference kernel
//!   before the cases and as many after, over
//!   [`host::NOMINAL_S`]. A slow host phase slows the kernel and the
//!   cases alike, and the product survives it. The written report
//!   stays raw.
//! * `--cholesky-reference` — instead of benchmarking, time the
//!   forced-Cholesky field path once per case and print ready-to-paste
//!   baseline entries (a 64×64 dense factorization takes tens of
//!   seconds, far too slow for the sampling harness).

use cmpsim::{app_pool, Machine, MachineConfig, StepPhaseTimes, Workload};
use floorplan::paper_20_core;
use linprog::{Problem, SolveWorkspace};
use std::hint::black_box;
use std::time::Instant;
use thermal::{ThermalModel, ThermalParams, ThermalScratch};
use varius::{DieGenerator, VariationConfig};
use vasched::manager::exhaustive::exhaustive_levels;
use vasched::manager::foxton::foxton_star_levels;
use vasched::manager::linopt::{linopt_levels, LinOpt};
use vasched::manager::sann::sann_levels;
use vasched::manager::{synthetic_core, PmView, PowerBudget, PowerManager};
use vasched::obs::{parse_json, JsonValue};
use vasched::profile::thread_profiles;
use vasp_bench::json_report::BenchReport;
use vasp_bench::timing::report_case;
use vasp_benchmark::host;
use vastats::{GaussianField, SimRng, SphericalCorrelogram};

/// `--gate`: required speedup of `machine/step_1ms_20t` over the
/// committed baseline. Raised from 5× when the thermal transient was
/// collapsed into a precomputed dense step operator and the L2
/// occupancy solve learned to exit on convergence.
const STEP_SPEEDUP_MIN: f64 = 8.0;

/// `--gate`: required speedup of the `field/*_64x64` cases over the
/// committed (forced-Cholesky) baseline.
const FIELD_SPEEDUP_MIN: f64 = 10.0;

/// `--gate`: required speedup of `profile/thread_profiles_20t` over the
/// committed clone-per-thread baseline, from reusing one probe machine.
const PROFILE_SPEEDUP_MIN: f64 = 3.0;

/// `--gate`: required speedup of `solver/sann_20c` over the committed
/// exact-only baseline, from screening one-level moves with an O(1)
/// lower bound. The screen measured 1.5–1.6× on real views; the floor
/// leaves room for host noise.
const SANN_SPEEDUP_MIN: f64 = 1.3;

/// `--gate`: timings of the host-reference kernel taken before the
/// cases, and again after them; the fastest of all sets the host
/// factor.
const HOST_REFERENCE_RUNS: usize = 3;

/// The committed pre-optimization reference the gate reads, found from
/// the checkout whatever directory the bin runs in (the report itself
/// goes to `results/` under the working directory).
const BASELINE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/BENCH_kernel_baseline.json"
);

/// Builds the paper-scale machine loaded with `threads` running threads.
fn loaded_machine(threads: usize) -> Machine {
    let generator = DieGenerator::new(VariationConfig {
        grid: 40,
        ..VariationConfig::paper_default()
    })
    .expect("valid config");
    let die = generator.generate(&mut SimRng::seed_from(3));
    let fp = paper_20_core();
    let mut machine = Machine::new(&die, &fp, MachineConfig::paper_default());
    let pool = app_pool(&machine.config().dynamic);
    let mut rng = SimRng::seed_from(4);
    let workload = Workload::draw(&pool, threads, &mut rng);
    machine.load_threads(workload.spawn_threads(&mut rng));
    let mapping: Vec<Option<usize>> = (0..machine.core_count())
        .map(|c| (c < threads).then_some(c))
        .collect();
    machine.assign(&mapping);
    machine
}

fn bench_step(report: &mut BenchReport) {
    for &threads in &[20usize, 8] {
        let mut machine = loaded_machine(threads);
        let name = format!("step_1ms_{threads}t");
        let m = report_case("machine", &name, || {
            black_box(machine.step(0.001));
        });
        report.push_case("machine", &name, m);
    }

    // Where the step budget goes: run the instrumented step (same
    // numerics, per-phase `Instant` probes) and record each phase's
    // accumulated wall time as a report stage. The phase split is the
    // profile that justified the thermal-operator and
    // occupancy-convergence work, kept in `BENCH_kernel.json` so the
    // next optimization round starts from data.
    const PROFILE_STEPS: usize = 20_000;
    let mut machine = loaded_machine(20);
    let mut times = StepPhaseTimes::default();
    for _ in 0..PROFILE_STEPS {
        black_box(machine.step_profiled(0.001, &mut times));
    }
    let total = times.l2_occupancy_s + times.leakage_s + times.dispatch_s + times.thermal_s;
    for (stage, secs) in [
        ("step_l2_occupancy", times.l2_occupancy_s),
        ("step_leakage", times.leakage_s),
        ("step_dispatch", times.dispatch_s),
        ("step_thermal", times.thermal_s),
    ] {
        println!(
            "{:<44} {:>10.1} ns/step ({:>4.1}%)",
            format!("machine/{stage}"),
            secs * 1e9 / PROFILE_STEPS as f64,
            100.0 * secs / total
        );
        report.push_stage(stage, secs);
    }
}

fn bench_view(report: &mut BenchReport) {
    let mut machine = loaded_machine(20);
    for _ in 0..50 {
        machine.step(0.001);
    }
    let m = report_case("machine", "pm_view_from_machine", || {
        black_box(PmView::from_machine(&machine));
    });
    report.push_case("machine", "pm_view_from_machine", m);
}

/// One OS-epoch re-profile of a full chip: every thread probed for two
/// ticks on a random core of a scratch copy of the machine.
fn bench_profile(report: &mut BenchReport) {
    // A chip that has been running, as at every reschedule but the
    // first: its thermal step operator is built and its sensors read.
    let mut machine = loaded_machine(20);
    for _ in 0..50 {
        machine.step(0.001);
    }
    let mut rng = SimRng::seed_from(10);
    let m = report_case("profile", "thread_profiles_20t", || {
        black_box(thread_profiles(&machine, &mut rng));
    });
    report.push_case("profile", "thread_profiles_20t", m);
}

fn bench_thermal(report: &mut BenchReport) {
    let fp = paper_20_core();
    let model = ThermalModel::new(&fp, ThermalParams::paper_default());
    let powers: Vec<f64> = (0..fp.blocks().len())
        .map(|i| 2.0 + (i % 5) as f64)
        .collect();
    let temps = model.steady_state(&powers);

    let m = report_case("thermal", "transient_step_1ms", || {
        black_box(model.transient_step(black_box(&temps), &powers, 0.001));
    });
    report.push_case("thermal", "transient_step_1ms", m);

    let m = report_case("thermal", "steady_state", || {
        black_box(model.steady_state(black_box(&powers)));
    });
    report.push_case("thermal", "steady_state", m);

    // In-place variants: what Machine::step actually pays in steady
    // state, with the scratch and output buffers reused across calls.
    let mut scratch = ThermalScratch::for_model(&model);
    let mut t = temps.clone();
    let m = report_case("thermal", "transient_step_into_1ms", || {
        t.copy_from_slice(&temps);
        model.transient_step_into(&mut t, &powers, 0.001, &mut scratch);
        black_box(&t);
    });
    report.push_case("thermal", "transient_step_into_1ms", m);

    let mut out = vec![0.0; powers.len()];
    let m = report_case("thermal", "steady_state_into", || {
        model.steady_state_into(black_box(&powers), &mut out, &mut scratch);
        black_box(&out);
    });
    report.push_case("thermal", "steady_state_into", m);
}

fn bench_field(report: &mut BenchReport) {
    let corr = SphericalCorrelogram::new(VariationConfig::paper_default().phi);

    // 64×64 = 4096 cells: well past CHOLESKY_MAX_CELLS, so `build`
    // dispatches to the circulant-embedding sampler.
    let m = report_case("field", "build_64x64", || {
        black_box(GaussianField::build(64, 64, corr).expect("embedding admits 64x64"));
    });
    report.push_case("field", "build_64x64", m);

    let field = GaussianField::build(64, 64, corr).expect("embedding admits 64x64");
    let mut rng = SimRng::seed_from(7);
    let m = report_case("field", "sample_pair_64x64", || {
        black_box(field.sample_many(2, &mut rng));
    });
    report.push_case("field", "sample_pair_64x64", m);

    // The die-level view of the same win: two paper-config dies on the
    // evaluation's large grid, fields drawn through `sample_many`.
    let generator = DieGenerator::new(VariationConfig {
        grid: 60,
        ..VariationConfig::paper_default()
    })
    .expect("valid config");
    let mut rng = SimRng::seed_from(8);
    let m = report_case("field", "generate_many_pair_grid60", || {
        black_box(generator.generate_many(2, &mut rng));
    });
    report.push_case("field", "generate_many_pair_grid60", m);
}

fn drifting_view(step: usize) -> PmView {
    let drift = 1.0 + 0.01 * step as f64;
    PmView::from_cores(
        (0..20)
            .map(|i| synthetic_core(i, drift * (0.2 + 0.09 * i as f64), 9, 1.0))
            .collect(),
    )
}

fn bench_solver(report: &mut BenchReport) {
    let budget_of = |v: &PmView| {
        let min_p = v.total_power(&v.min_levels());
        let max_p = v.total_power(&v.max_levels());
        PowerBudget {
            chip_w: min_p + 0.55 * (max_p - min_p),
            per_core_w: 100.0,
        }
    };

    let mut manager = LinOpt::new();
    let mut rng = SimRng::seed_from(9);
    let mut step = 0usize;
    let m = report_case("solver", "linopt_resolve_warm_20c", || {
        let view = drifting_view(step % 8);
        step += 1;
        let budget = budget_of(&view);
        black_box(manager.levels(&view, &budget, &mut rng));
    });
    report.push_case("solver", "linopt_resolve_warm_20c", m);

    let view = drifting_view(0);
    let budget = budget_of(&view);
    let m = report_case("solver", "linopt_cold_20c", || {
        black_box(linopt_levels(black_box(&view), &budget));
    });
    report.push_case("solver", "linopt_cold_20c", m);
    let m = report_case("solver", "foxton_star_20c", || {
        black_box(foxton_star_levels(black_box(&view), &budget));
    });
    report.push_case("solver", "foxton_star_20c", m);

    let n = 20usize;
    let build = || {
        let mut lp = Problem::maximize((0..n).map(|i| 1.0 + i as f64 * 0.1).collect());
        lp = lp.constraint_le(vec![3.0; n], 0.2 * n as f64);
        for i in 0..n {
            let mut row = vec![0.0; n];
            row[i] = 1.0;
            lp = lp.constraint_le(row, 0.4);
        }
        lp
    };
    let m = report_case("solver", "simplex_cold_20c", || {
        black_box(build().solve().expect("feasible"));
    });
    report.push_case("solver", "simplex_cold_20c", m);

    // Warm re-solve through a reused workspace: rebuild the LP in place
    // (recycled rows), install the previous basis, solve without
    // reallocating the tableau — LinOpt's steady-state inner loop.
    let mut ws = SolveWorkspace::new();
    let mut lp = build();
    let mut basis = lp.solve_warm_with(None, &mut ws).expect("feasible").basis;
    let mut round = 0usize;
    let objective: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.1).collect();
    let chip_row = vec![3.0; n];
    let m = report_case("solver", "simplex_warm_ws_20c", || {
        round += 1;
        let wiggle = 1.0 + 0.001 * (round % 7) as f64;
        lp.reset_maximize(&objective);
        lp.push_le(&chip_row, 0.2 * n as f64 * wiggle);
        for i in 0..n {
            lp.push_le_with(0.4, |row| row[i] = 1.0);
        }
        let s = lp.solve_warm_with(Some(&basis), &mut ws).expect("feasible");
        basis = s.basis;
        black_box(s.objective);
    });
    report.push_case("solver", "simplex_warm_ws_20c", m);
}

/// One SAnn invocation at 20k evaluations on a real 20-thread view
/// under the Cost-Performance budget: the annealing walk every SAnn
/// arm pays per DVFS interval; beside it, the exact solver (ungated).
fn bench_sann(report: &mut BenchReport) {
    let mut machine = loaded_machine(20);
    for _ in 0..50 {
        machine.step(0.001);
    }
    let view = PmView::from_machine(&machine);
    let budget = PowerBudget::scaled(75.0, 20);
    let mut rng = SimRng::seed_from(11);
    let m = report_case("solver", "sann_20c", || {
        black_box(sann_levels(black_box(&view), &budget, 20_000, &mut rng));
    });
    report.push_case("solver", "sann_20c", m);
    let m = report_case("solver", "exact_20c", || {
        black_box(exhaustive_levels(black_box(&view), &budget));
    });
    report.push_case("solver", "exact_20c", m);
}

/// Times the forced-Cholesky field path once per case and prints the
/// numbers as baseline-file case entries. One call each: the 64×64
/// dense build factorizes a 4096×4096 covariance, so the sampling
/// harness (7+ calls per case) is out of the question.
fn cholesky_reference() {
    let corr = SphericalCorrelogram::new(VariationConfig::paper_default().phi);

    let start = Instant::now();
    let field = GaussianField::build_cholesky(64, 64, corr).expect("64x64 factorizes");
    let build_ns = start.elapsed().as_nanos() as f64;
    eprintln!("cholesky build_64x64: {build_ns:.0} ns");

    let mut rng = SimRng::seed_from(7);
    black_box(field.sample_many(2, &mut rng)); // warm-up
    let start = Instant::now();
    black_box(field.sample_many(2, &mut rng));
    let pair_ns = start.elapsed().as_nanos() as f64;
    eprintln!("cholesky sample_pair_64x64: {pair_ns:.0} ns");

    for (id, ns) in [
        ("field/build_64x64", build_ns),
        ("field/sample_pair_64x64", pair_ns),
    ] {
        println!(
            "{{\"id\":\"{id}\",\"median_ns\":{ns},\"min_ns\":{ns},\"max_ns\":{ns},\"iters\":1,\"samples\":1}},"
        );
    }
}

/// Looks up a case median in a parsed baseline report.
fn baseline_median(doc: &JsonValue, id: &str) -> Option<f64> {
    doc.get("cases")?
        .as_arr()?
        .iter()
        .find(|c| c.get("id").and_then(JsonValue::as_str) == Some(id))?
        .get("median_ns")?
        .as_f64()
}

/// The fastest of [`HOST_REFERENCE_RUNS`] timings of the benchmark's
/// host-reference kernel on two threads (seconds).
fn fastest_host_reference_s() -> f64 {
    (0..HOST_REFERENCE_RUNS)
        .map(|_| host::reference_s(2))
        .fold(f64::INFINITY, f64::min)
}

/// Enforces the promised speedups against the committed baseline,
/// each raw speedup multiplied by `host_factor` (this host's slowdown
/// against [`host::NOMINAL_S`]). Returns false (after printing every
/// violation) when any gated case falls short.
fn gate(report: &BenchReport, host_factor: f64) -> bool {
    let text = match std::fs::read_to_string(BASELINE_PATH) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("GATE FAIL: cannot read {BASELINE_PATH}: {e}");
            return false;
        }
    };
    let doc = match parse_json(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("GATE FAIL: {BASELINE_PATH} does not parse: {e}");
            return false;
        }
    };
    let mut ok = true;
    for (id, need) in [
        ("machine/step_1ms_20t", STEP_SPEEDUP_MIN),
        ("field/build_64x64", FIELD_SPEEDUP_MIN),
        ("field/sample_pair_64x64", FIELD_SPEEDUP_MIN),
        ("profile/thread_profiles_20t", PROFILE_SPEEDUP_MIN),
        ("solver/sann_20c", SANN_SPEEDUP_MIN),
    ] {
        let Some(then) = baseline_median(&doc, id) else {
            eprintln!("GATE FAIL: baseline has no case '{id}'");
            ok = false;
            continue;
        };
        let Some(now) = report.median_of(id) else {
            eprintln!("GATE FAIL: this run has no case '{id}'");
            ok = false;
            continue;
        };
        let raw = then / now;
        let speedup = raw * host_factor;
        let detail = format!("{raw:.2}x raw x host factor {host_factor:.3}");
        if speedup >= need {
            println!("gate ok   {id}: {speedup:.2}x ({detail}; need {need}x)");
        } else {
            eprintln!(
                "GATE FAIL {id}: {speedup:.2}x < required {need}x ({detail}; {then:.0} ns -> {now:.0} ns)"
            );
            ok = false;
        }
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--cholesky-reference") {
        cholesky_reference();
        return;
    }
    let gate_requested = args.iter().any(|a| a == "--gate");

    let host_before_s = gate_requested.then(fastest_host_reference_s);
    let mut report = BenchReport::new();
    bench_step(&mut report);
    bench_view(&mut report);
    bench_profile(&mut report);
    bench_thermal(&mut report);
    bench_field(&mut report);
    bench_solver(&mut report);
    bench_sann(&mut report);
    match report.write("kernel") {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_kernel.json: {e}"),
    }
    if let Some(before_s) = host_before_s {
        let host_factor = before_s.min(fastest_host_reference_s()) / host::NOMINAL_S;
        if !gate(&report, host_factor) {
            std::process::exit(1);
        }
    }
}
