//! Standing-tournament bench (beyond the paper): runs the full
//! contender × scenario cross product
//! ([`vasched::experiments::tournament`]), prints the ranked standing,
//! exports the report artifacts, and times the fixed-size solver cases
//! behind `results/BENCH_tournament.json`.
//!
//! Three parts:
//!
//! 1. The tournament itself at `--scale` fidelity: ranked table on
//!    stdout, `results/tournament_report.{csv,jsonl}` artifacts, and
//!    the summary metrics as `results/tournament_metrics.json`.
//! 2. Fixed-size timed solve cases (independent of `--scale` so the
//!    committed baseline stays comparable): one power-management
//!    interval for LinOpt and for the integral regulator over the
//!    same 20-core view. The regulator must come in at least 10×
//!    cheaper per interval — it replaces an LP solve with one
//!    multiply-accumulate sweep — or the bin exits non-zero.
//! 3. The budget-tracking comparison on a fixed paper-shape trial:
//!    LinOpt's and the regulator's mean budget deviation must agree
//!    within 2 points of budget fraction (the regulator trades
//!    optimality for cost, not tracking), pinned as `stages` entries
//!    in `BENCH_tournament.json`.

use std::time::Instant;

use cmpsim::{app_pool, FaultPlan, Workload};
use vasched::experiments::{tournament, Context};
use vasched::manager::{synthetic_core, ManagerSpec, PmView, PowerBudget};
use vasched::obs::MetricsRegistry;
use vasched::runtime::{run_trial, NullObserver, RuntimeConfig};
use vasched::sched::SchedulerSpec;
use vasp_bench::harness::Harness;
use vasp_bench::json_report::BenchReport;
use vasp_bench::timing::report_case;
use vastats::SimRng;

/// Maximum allowed gap between LinOpt's and the regulator's mean
/// budget deviation, as a fraction of the chip budget.
const BUDGET_ERR_GAP_MAX: f64 = 0.02;

/// Minimum per-interval solve-cost ratio (LinOpt / regulator).
const SOLVE_RATIO_MIN: f64 = 10.0;

/// A fixed 20-core sensor view for the solve cases: spread IPCs and
/// power scales, deterministic from the seed.
fn solve_view() -> PmView {
    let mut rng = SimRng::seed_from(0xB0_57);
    PmView::from_cores(
        (0..20)
            .map(|i| synthetic_core(i, rng.uniform(0.1, 1.2), 9, rng.uniform(0.8, 1.3)))
            .collect(),
    )
}

/// Times one manager's per-interval solve over the fixed view and
/// pushes the case; returns the median (ns).
fn solve_case(report: &mut BenchReport, spec: ManagerSpec, name: &str) -> f64 {
    let rt = RuntimeConfig::paper_default();
    let mut manager = spec
        .build(&rt)
        .expect("valid spec")
        .expect("spec is not ManagerSpec::None");
    let view = solve_view();
    // Mid-range budget: tight enough that every manager does real
    // work, loose enough that greedy_fill has headroom to spend.
    let budget = PowerBudget {
        chip_w: 0.6 * view.total_power(&view.max_levels()),
        per_core_w: PowerBudget::DEFAULT_PER_CORE_W,
    };
    let mut rng = SimRng::seed_from(0xB0_58);
    let m = report_case("solve", name, || {
        std::hint::black_box(manager.levels(&view, &budget, &mut rng));
    });
    report.push_case("solve", name, m);
    m.median_ns
}

/// Runs the fixed budget-tracking trial for one manager and returns
/// its mean budget deviation fraction.
fn tracking_error(manager: ManagerSpec) -> f64 {
    let ctx = Context::new(20);
    let mut rng = SimRng::seed_from(0xB0_59);
    let die = ctx.make_die(&mut rng);
    let mut machine = ctx.make_machine(&die);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let workload = Workload::draw(&pool, 16, &mut rng);
    let runtime = RuntimeConfig::builder()
        .duration_ms(200.0)
        .os_interval_ms(100.0)
        .build()
        .expect("valid runtime config");
    let outcome = run_trial(
        &mut machine,
        &workload,
        SchedulerSpec::VarFAppIpc,
        manager,
        PowerBudget::cost_performance(16),
        &runtime,
        &FaultPlan::none(),
        &mut rng,
        &mut NullObserver,
    )
    .expect("valid trial");
    outcome.power_deviation_frac
}

fn main() {
    let h = Harness::from_args();
    let mut report = BenchReport::new();
    let mut ok = true;

    // Part 1: the tournament at the requested fidelity.
    let start = Instant::now();
    let result = tournament::run(h.scale(), h.seed());
    report.push_stage("tournament", start.elapsed().as_secs_f64());

    println!(
        "\n== Tournament standing ({} scenarios, {} trials each) ==",
        result.scenarios.len(),
        result.trials
    );
    println!(
        "{:>4}  {:<12} {:>8} {:>6}",
        "rank", "contender", "score", "wins"
    );
    for (i, r) in result.ranking.iter().enumerate() {
        println!(
            "{:>4}  {:<12} {:>8.4} {:>6}",
            i + 1,
            r.contender,
            r.score,
            r.wins
        );
    }

    h.artifact("tournament_report.jsonl", &result.to_jsonl());
    h.artifact("tournament_report.csv", &result.csv());
    let mut registry = MetricsRegistry::new();
    result.record_metrics(&mut registry);
    h.artifact("tournament_metrics.json", &registry.to_json());

    // Part 2: fixed-size solve-cost cases. The regulator's entire
    // point is a cheap interval, so a collapsed ratio is a regression.
    let linopt_ns = solve_case(&mut report, ManagerSpec::LinOpt, "linopt_20core");
    let intreg_ns = solve_case(
        &mut report,
        ManagerSpec::integral_regulator(),
        "intreg_20core",
    );
    let ratio = linopt_ns / intreg_ns;
    println!("solve cost ratio (LinOpt / IntReg): {ratio:.1}x");
    if ratio < SOLVE_RATIO_MIN {
        eprintln!("FAIL: regulator only {ratio:.1}x cheaper than LinOpt (need {SOLVE_RATIO_MIN}x)");
        ok = false;
    }

    // Part 3: budget tracking must not pay for the cheap interval.
    let err_linopt = tracking_error(ManagerSpec::LinOpt);
    let err_intreg = tracking_error(ManagerSpec::integral_regulator());
    report.push_stage("budget_err_linopt", err_linopt);
    report.push_stage("budget_err_intreg", err_intreg);
    println!(
        "budget tracking error: LinOpt {:.4}, IntReg {:.4} (gap {:.4})",
        err_linopt,
        err_intreg,
        (err_linopt - err_intreg).abs()
    );
    if (err_linopt - err_intreg).abs() > BUDGET_ERR_GAP_MAX {
        eprintln!(
            "FAIL: budget-tracking gap {:.4} exceeds {BUDGET_ERR_GAP_MAX}",
            (err_linopt - err_intreg).abs()
        );
        ok = false;
    }

    match report.write("tournament") {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_tournament.json: {e}"),
    }
    if !ok {
        std::process::exit(1);
    }
}
