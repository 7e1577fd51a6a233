//! Kernel microbenches: the costs every experiment pays per tick.
//!
//! Measures the public kernel entry points (`Machine::step`, thread
//! profiling, the sensor view and one whole DVFS interval, thermal
//! stepping, field sampling, die and machine construction, LinOpt,
//! Foxton*, SAnn and the exact solver) plus the in-place scratch-buffer
//! APIs; writes
//! `results/BENCH_kernel.json`. The committed pre-optimization run is
//! `results/BENCH_kernel_baseline.json`; `check_bench --baseline`
//! diffs the two.
//!
//! Flags:
//!
//! * `--gate` — after writing the report, compare against the
//!   committed baseline and exit non-zero unless the optimized kernels
//!   hold their promised speedups ([`GATED`]: [`STEP_SPEEDUP_MIN`]× on
//!   `machine/step_1ms_20t`, [`FIELD_SPEEDUP_MIN`]× on the large-grid
//!   field cases, [`PROFILE_SPEEDUP_MIN`]× on
//!   `profile/thread_profiles_20t`, [`SANN_SPEEDUP_MIN`]× on
//!   `solver/sann_20c`, [`CONSTRUCT_SPEEDUP_MIN`]× on
//!   `construct/machine_grid60`). The baseline was timed on another day, so
//!   each raw speedup is first multiplied by its case's host factor, the
//!   repository benchmark's own rescaling: the fastest of
//!   [`HOST_REFERENCE_RUNS`] timings of its host-reference kernel just
//!   before the case and as many just after, over [`host::NOMINAL_S`].
//!   A slow host phase slows the kernel and the case alike, and the
//!   product survives it; bracketing each case on its own keeps a fast
//!   moment elsewhere in the run from rescaling a case that ran in a
//!   slow one. The written report stays raw.
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
use vasched::experiments::Context;
use vasched::manager::exhaustive::exhaustive_levels;
use vasched::manager::foxton::foxton_star_levels;
use vasched::manager::linopt::{linopt_levels, LinOpt};
use vasched::manager::sann::sann_levels;
use vasched::manager::{
    synthetic_core, HardenedManager, ManagerSpec, PmView, PowerBudget, PowerManager,
};
use vasched::obs::{parse_json, JsonValue};
use vasched::profile::thread_profiles;
use vasched::runtime::RuntimeConfig;
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
/// committed clone-per-thread baseline, from probing one core instead of
/// stepping a copy of the machine. Raised from 3× (one reused copy);
/// three gate runs of the one-core probe read 33–45× raw and 56–61×
/// rescaled, so the floor holds in slow host phases with room.
const PROFILE_SPEEDUP_MIN: f64 = 15.0;

/// `--gate`: required speedup of `solver/sann_20c` over the committed
/// exact-only baseline, from screening one-level moves with an O(1)
/// lower bound. The screen measured 1.5–1.6× on real views; the floor
/// leaves room for host noise.
const SANN_SPEEDUP_MIN: f64 = 1.3;

/// `--gate`: required speedup of `construct/machine_grid60` over the
/// committed all-cells baseline, from rating each core's (V, f) table
/// on its (Vth, Leff) skyline only. Seven gate runs measured 2.0–3.5×.
/// The baseline entry was divided by its own run's host factor, so it
/// stands for nominal host speed like the rescaled timing it meets.
const CONSTRUCT_SPEEDUP_MIN: f64 = 1.8;

/// `--gate`: every gated case and the speedup it must hold over the
/// committed baseline.
const GATED: [(&str, f64); 6] = [
    ("machine/step_1ms_20t", STEP_SPEEDUP_MIN),
    ("field/build_64x64", FIELD_SPEEDUP_MIN),
    ("field/sample_pair_64x64", FIELD_SPEEDUP_MIN),
    ("profile/thread_profiles_20t", PROFILE_SPEEDUP_MIN),
    ("solver/sann_20c", SANN_SPEEDUP_MIN),
    ("construct/machine_grid60", CONSTRUCT_SPEEDUP_MIN),
];

/// `--gate`: timings of the host-reference kernel taken just before a
/// gated case, and again just after it; the fastest of the bracket sets
/// that case's host factor.
const HOST_REFERENCE_RUNS: usize = 3;

/// The committed pre-optimization reference the gate reads, found from
/// the checkout whatever directory the bin runs in (the report itself
/// goes to `results/` under the working directory).
const BASELINE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/BENCH_kernel_baseline.json"
);

/// The report being written and, under `--gate`, the host factor of
/// each gated case.
struct Bench {
    report: BenchReport,
    /// `Some` under `--gate`: each gated case's id and the host factor
    /// of the host-reference timings bracketing it.
    host_factors: Option<Vec<(String, f64)>>,
}

impl Bench {
    /// Times `f` as case `group/name` and records it. Under `--gate`, a
    /// gated case is bracketed by host-reference timings.
    fn case(&mut self, group: &str, name: &str, f: impl FnMut()) {
        let id = format!("{group}/{name}");
        let bracket = self.host_factors.is_some() && GATED.iter().any(|&(g, _)| g == id);
        let before_s = bracket.then(fastest_host_reference_s);
        let m = report_case(group, name, f);
        if let (Some(before_s), Some(factors)) = (before_s, self.host_factors.as_mut()) {
            let fastest_s = before_s.min(fastest_host_reference_s());
            factors.push((id, fastest_s / host::NOMINAL_S));
        }
        self.report.push_case(group, name, m);
    }
}

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

fn bench_step(bench: &mut Bench) {
    for &threads in &[20usize, 8] {
        let mut machine = loaded_machine(threads);
        bench.case("machine", &format!("step_1ms_{threads}t"), || {
            black_box(machine.step(0.001));
        });
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
    let total = times.l2_occupancy_s + times.dispatch_s + times.thermal_s;
    for (stage, secs) in [
        ("step_l2_occupancy", times.l2_occupancy_s),
        ("step_dispatch", times.dispatch_s),
        ("step_thermal", times.thermal_s),
    ] {
        println!(
            "{:<44} {:>10.1} ns/step ({:>4.1}%)",
            format!("machine/{stage}"),
            secs * 1e9 / PROFILE_STEPS as f64,
            100.0 * secs / total
        );
        bench.report.push_stage(stage, secs);
    }
}

/// The per-interval control path: the sensor view the manager
/// refreshes in place every DVFS interval, and one whole 10 ms interval
/// as the serving loop runs it.
fn bench_control(bench: &mut Bench) {
    let mut machine = loaded_machine(20);
    for _ in 0..50 {
        machine.step(0.001);
    }
    let mut view = PmView::default();
    bench.case("machine", "pm_view_refresh_20t", || {
        view.refresh(black_box(&machine));
        black_box(&view);
    });

    // `HardenedManager::invoke` (view refresh, LinOpt levels, apply),
    // then the interval's ten 1 ms steps. Reported, not gated: its
    // spread across host phases is not measured yet.
    let rt = RuntimeConfig::paper_default();
    let mut manager = HardenedManager::new(ManagerSpec::LinOpt, machine.core_count(), false, &rt)
        .expect("LinOpt builds");
    let budget = PowerBudget::scaled(40.0, 20);
    let mut rng = SimRng::seed_from(13);
    let mut events = Vec::new();
    bench.case("control", "interval_20c", || {
        black_box(manager.invoke(&mut machine, &budget, &mut rng, &mut events));
        for _ in 0..10 {
            black_box(machine.step(0.001));
        }
    });
}

/// One OS-epoch re-profile of a full chip: every thread probed for two
/// ticks alone on a random core (`Machine::probe_thread`).
fn bench_profile(bench: &mut Bench) {
    // A chip that has been running, as at every reschedule but the
    // first: its thermal step operator is built and its sensors read.
    let mut machine = loaded_machine(20);
    for _ in 0..50 {
        machine.step(0.001);
    }
    let mut rng = SimRng::seed_from(10);
    bench.case("profile", "thread_profiles_20t", || {
        black_box(thread_profiles(&machine, &mut rng));
    });
}

fn bench_thermal(bench: &mut Bench) {
    let fp = paper_20_core();
    let model = ThermalModel::new(&fp, ThermalParams::paper_default());
    let powers: Vec<f64> = (0..fp.blocks().len())
        .map(|i| 2.0 + (i % 5) as f64)
        .collect();
    // Warm blocks: one simulated second of these powers from ambient.
    let mut scratch = ThermalScratch::for_model(&model);
    let mut temps = vec![model.params().ambient_k; powers.len()];
    for _ in 0..100 {
        model.transient_step_into(&mut temps, &powers, 0.01, &mut scratch);
    }

    bench.case("thermal", "transient_step_1ms", || {
        black_box(model.transient_step(black_box(&temps), &powers, 0.001));
    });

    // The in-place variant: what Machine::step actually pays in steady
    // state, with the scratch buffer reused across calls.
    let mut t = temps.clone();
    bench.case("thermal", "transient_step_into_1ms", || {
        t.copy_from_slice(&temps);
        model.transient_step_into(&mut t, &powers, 0.001, &mut scratch);
        black_box(&t);
    });
}

fn bench_field(bench: &mut Bench) {
    let corr = SphericalCorrelogram::new(VariationConfig::paper_default().phi);

    // 64×64 = 4096 cells: well past CHOLESKY_MAX_CELLS, so `build`
    // dispatches to the circulant-embedding sampler.
    bench.case("field", "build_64x64", || {
        black_box(GaussianField::build(64, 64, corr).expect("embedding admits 64x64"));
    });

    let field = GaussianField::build(64, 64, corr).expect("embedding admits 64x64");
    let mut rng = SimRng::seed_from(7);
    bench.case("field", "sample_pair_64x64", || {
        black_box(field.sample_many(2, &mut rng));
    });
}

/// What every trial and fleet chip pays once, at the evaluation's
/// grid: one die (`Context::make_die`: the field draw and the random
/// components), and one machine around a prebuilt die
/// (`Context::make_machine`: the (V, f) tables, the leakage models and
/// the thermal model).
fn bench_construct(bench: &mut Bench) {
    let ctx = Context::new(60);
    let mut rng = SimRng::seed_from(8);
    bench.case("construct", "die_grid60", || {
        black_box(ctx.make_die(&mut rng));
    });

    let die = ctx.make_die(&mut SimRng::seed_from(12));
    bench.case("construct", "machine_grid60", || {
        black_box(ctx.make_machine(black_box(&die)));
    });
}

fn drifting_view(step: usize) -> PmView {
    let drift = 1.0 + 0.01 * step as f64;
    PmView::from_cores(
        (0..20)
            .map(|i| synthetic_core(i, drift * (0.2 + 0.09 * i as f64), 9, 1.0))
            .collect(),
    )
}

fn bench_solver(bench: &mut Bench) {
    let budget_of = |v: &PmView| {
        let min_p = v.total_power(&v.min_levels());
        let max_p = v.total_power(&v.max_levels());
        PowerBudget {
            chip_w: min_p + 0.55 * (max_p - min_p),
            per_core_w: 100.0,
        }
    };

    // Eight drifting views and their budgets, built once: the case
    // times LinOpt's warm re-solve alone.
    let drifting: Vec<(PmView, PowerBudget)> = (0..8)
        .map(|step| {
            let view = drifting_view(step);
            let budget = budget_of(&view);
            (view, budget)
        })
        .collect();
    let mut manager = LinOpt::new();
    let mut rng = SimRng::seed_from(9);
    let mut step = 0usize;
    bench.case("solver", "linopt_resolve_warm_20c", || {
        let (view, budget) = &drifting[step % drifting.len()];
        step += 1;
        black_box(manager.levels(view, budget, &mut rng));
    });

    let view = drifting_view(0);
    let budget = budget_of(&view);
    bench.case("solver", "linopt_cold_20c", || {
        black_box(linopt_levels(black_box(&view), &budget));
    });
    bench.case("solver", "foxton_star_20c", || {
        black_box(foxton_star_levels(black_box(&view), &budget));
    });

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
    bench.case("solver", "simplex_cold_20c", || {
        black_box(build().solve().expect("feasible"));
    });

    // Warm re-solve through a reused workspace: rebuild the LP in place
    // (recycled rows), install the previous basis, solve without
    // reallocating the tableau — LinOpt's steady-state inner loop.
    let mut ws = SolveWorkspace::new();
    let mut lp = build();
    let mut basis = lp.solve_warm_with(None, &mut ws).expect("feasible").basis;
    let mut round = 0usize;
    let objective: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.1).collect();
    let chip_row = vec![3.0; n];
    bench.case("solver", "simplex_warm_ws_20c", || {
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
}

/// One SAnn invocation at 20k evaluations on a real 20-thread view
/// under the Cost-Performance budget: the annealing walk every SAnn
/// arm pays per DVFS interval; beside it, the exact solver (ungated).
fn bench_sann(bench: &mut Bench) {
    let mut machine = loaded_machine(20);
    for _ in 0..50 {
        machine.step(0.001);
    }
    let view = PmView::from_machine(&machine);
    let budget = PowerBudget::scaled(75.0, 20);
    let mut rng = SimRng::seed_from(11);
    bench.case("solver", "sann_20c", || {
        black_box(sann_levels(black_box(&view), &budget, 20_000, &mut rng));
    });
    bench.case("solver", "exact_20c", || {
        black_box(exhaustive_levels(black_box(&view), &budget));
    });
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
/// each raw speedup multiplied by its case's entry in `host_factors`
/// (this host's slowdown against [`host::NOMINAL_S`] while the case
/// ran). Returns false (after printing every violation) when any gated
/// case falls short.
fn gate(report: &BenchReport, host_factors: &[(String, f64)]) -> bool {
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
    for (id, need) in GATED {
        let Some(then) = baseline_median(&doc, id) else {
            eprintln!("GATE FAIL: baseline has no case '{id}'");
            ok = false;
            continue;
        };
        let (Some(now), Some(&(_, host_factor))) = (
            report.median_of(id),
            host_factors.iter().find(|(case, _)| case == id),
        ) else {
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

    let mut bench = Bench {
        report: BenchReport::new(),
        host_factors: gate_requested.then(Vec::new),
    };
    bench_step(&mut bench);
    bench_control(&mut bench);
    bench_profile(&mut bench);
    bench_thermal(&mut bench);
    bench_field(&mut bench);
    bench_construct(&mut bench);
    bench_solver(&mut bench);
    bench_sann(&mut bench);
    match bench.report.write("kernel") {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_kernel.json: {e}"),
    }
    if let Some(host_factors) = &bench.host_factors {
        if !gate(&bench.report, host_factors) {
            std::process::exit(1);
        }
    }
}
