//! Benches of the power-management optimizers.
//!
//! The headline comparison backing Figure 15 and the "orders of
//! magnitude" claim of §4.3.2: LinOpt (Simplex) vs Foxton* vs SAnn, on
//! identical sensor views of various sizes.
//! Plain `harness = false` binary (no crates.io access in this build
//! environment), timed via `vasp_bench::timing`.

use std::hint::black_box;
use vasched::manager::{
    foxton::foxton_star_levels, linopt::linopt_levels, sann::sann_levels, synthetic_core, PmView,
    PowerBudget,
};
use vasp_bench::json_report::BenchReport;
use vasp_bench::timing::report_case;
use vastats::SimRng;

fn view_of(threads: usize) -> PmView {
    PmView::from_cores(
        (0..threads)
            .map(|i| synthetic_core(i, 0.1 + 0.11 * (i % 12) as f64, 9, 1.0))
            .collect(),
    )
}

fn mid_budget(view: &PmView) -> PowerBudget {
    let min_p = view.total_power(&view.min_levels());
    let max_p = view.total_power(&view.max_levels());
    PowerBudget {
        chip_w: (min_p + max_p) / 2.0,
        per_core_w: 10.0,
    }
}

/// Figure 15's sweep: LinOpt solve time vs thread count, one series per
/// power environment (looser budgets widen the feasible region).
fn bench_linopt_fig15(report: &mut BenchReport) {
    for &threads in &[1usize, 2, 4, 8, 16, 20] {
        let view = view_of(threads);
        for (env, base_w) in [("low50", 50.0), ("cost75", 75.0), ("high100", 100.0)] {
            let budget = PowerBudget {
                chip_w: base_w * threads as f64 / 20.0,
                per_core_w: 8.0,
            };
            let name = format!("{env}/{threads}");
            let m = report_case("linopt_fig15", &name, || {
                black_box(linopt_levels(black_box(&view), &budget));
            });
            report.push_case("linopt_fig15", &name, m);
        }
    }
}

/// LinOpt vs the alternatives at 20 threads — the "orders of magnitude"
/// computation-time gap between LinOpt and SAnn.
fn bench_manager_comparison(report: &mut BenchReport) {
    let view = view_of(20);
    let budget = mid_budget(&view);

    let m = report_case("managers_20_threads", "foxton_star", || {
        black_box(foxton_star_levels(black_box(&view), &budget));
    });
    report.push_case("managers_20_threads", "foxton_star", m);
    let m = report_case("managers_20_threads", "linopt", || {
        black_box(linopt_levels(black_box(&view), &budget));
    });
    report.push_case("managers_20_threads", "linopt", m);
    let m = report_case("managers_20_threads", "sann_20k_evals", || {
        let mut rng = SimRng::seed_from(1);
        black_box(sann_levels(black_box(&view), &budget, 20_000, &mut rng));
    });
    report.push_case("managers_20_threads", "sann_20k_evals", m);
}

fn main() {
    let mut report = BenchReport::new();
    bench_linopt_fig15(&mut report);
    bench_manager_comparison(&mut report);
    match report.write("optimizers") {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_optimizers.json: {e}"),
    }
}
