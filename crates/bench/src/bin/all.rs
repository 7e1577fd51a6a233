//! Runs the complete evaluation and writes `results/REPORT.md`:
//! a paper-vs-measured summary for every figure and table, plus all the
//! per-figure CSVs. This is the one-command reproduction entry point:
//!
//! ```text
//! cargo run --release -p vasp-bench --bin all -- --scale quick
//! ```

use std::fmt::Write as _;
use std::time::Instant;
use vasched::engine::TrialRunner;
use vasched::experiments::{
    ablation, dvfs, faults, granularity, online, scheduling, timing, validation, variation, Series,
};
use vasp_bench::harness::Harness;
use vasp_bench::json_report::BenchReport;

/// Records per-stage wall-clock laps into a [`BenchReport`].
struct StageTimer {
    last: Instant,
}

impl StageTimer {
    fn start() -> Self {
        Self {
            last: Instant::now(),
        }
    }

    /// Closes the current stage: everything since the previous lap is
    /// charged to `stage`.
    fn lap(&mut self, bench: &mut BenchReport, stage: &str) {
        let now = Instant::now();
        bench.push_stage(stage, (now - self.last).as_secs_f64());
        self.last = now;
    }
}

fn mean(s: &Series) -> f64 {
    s.y.iter().sum::<f64>() / s.y.len() as f64
}

fn pct(x: f64) -> String {
    format!("{:+.1}%", (x - 1.0) * 100.0)
}

fn range_pct(s: &Series) -> String {
    let lo = s.y.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = s.y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    format!("{} to {}", pct(lo), pct(hi))
}

fn main() {
    let h = Harness::from_args();
    let scale = *h.scale();
    let seed = h.seed();
    // parse_args installed --threads as the engine default; every
    // experiment below fans its trials out through this runner width.
    let workers = TrialRunner::new().workers();
    println!("trial engine: {workers} worker thread(s)");
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# Reproduction report\n\nScale: {} dies, {} trials, {} ms/trial, grid {}, SAnn {} evals. Seed {}. {} runner worker(s).\n",
        scale.dies, scale.trials, scale.duration_ms, scale.grid, scale.sann_evaluations, seed, workers
    );
    let _ = writeln!(md, "| Artifact | Paper | Measured |");
    let _ = writeln!(md, "|---|---|---|");
    let run_start = Instant::now();
    let mut bench = BenchReport::new();
    let mut stages = StageTimer::start();

    // Figure 4.
    println!("[1/14] fig4 ...");
    let f4 = variation::fig4(&scale, seed);
    let _ = writeln!(
        md,
        "| Fig 4a mean power ratio | ~1.53 (mostly 1.4–1.7) | {:.3} |",
        f4.mean_power_ratio()
    );
    let _ = writeln!(
        md,
        "| Fig 4b mean frequency ratio | ~1.33 (mostly 1.2–1.5) | {:.3} |",
        f4.mean_freq_ratio()
    );

    stages.lap(&mut bench, "fig4");
    // Figure 5.
    println!("[2/14] fig5 ...");
    let (f5p, f5f) = variation::fig5(&scale, seed.wrapping_add(1));
    let _ = writeln!(
        md,
        "| Fig 5a power ratio at σ/µ = 0.03 → 0.12 | grows with σ; significant even at 0.06 | {:.2} → {:.2} |",
        f5p.y[0], f5p.y[3]
    );
    let _ = writeln!(
        md,
        "| Fig 5b frequency ratio at σ/µ = 0.03 → 0.12 | grows with σ | {:.2} → {:.2} |",
        f5f.y[0], f5f.y[3]
    );
    h.report("fig05", "Figure 5", &[f5p, f5f]);

    stages.lap(&mut bench, "fig5");
    // Figure 6.
    println!("[3/14] fig6 ...");
    let (f6max, f6min) = variation::fig6(&scale, seed.wrapping_add(2));
    let _ = writeln!(
        md,
        "| Fig 6 MinF top frequency (vs MaxF @1 V) | ~0.74 | {:.2} |",
        f6min.x.last().expect("points")
    );
    h.report("fig06", "Figure 6", &[f6max, f6min]);

    stages.lap(&mut bench, "fig6");
    // Table 5 is exact by construction (asserted by tests).
    let _ = writeln!(
        md,
        "| Table 5 per-app power & IPC | 14 apps | exact (calibrated) |"
    );

    stages.lap(&mut bench, "table5");
    // Figures 7-8.
    println!("[4/14] fig7 ...");
    let (f7p, f7e) = scheduling::fig7(&scale, seed.wrapping_add(3));
    let _ = writeln!(
        md,
        "| Fig 7a VarP power at 4 threads / 20 threads | ~−10% / ~0% | {} / {} |",
        pct(f7p[1].y[1]),
        pct(f7p[1].y[4])
    );
    h.report("fig07a", "Figure 7a", &f7p);
    h.report("fig07b", "Figure 7b", &f7e);
    stages.lap(&mut bench, "fig7");
    println!("[5/14] fig8 ...");
    let (f8p, f8e) = scheduling::fig8(&scale, seed.wrapping_add(4));
    let _ = writeln!(
        md,
        "| Fig 8a VarP power at 4 threads (NUniFreq) | ~−14% | {} |",
        pct(f8p[1].y[1])
    );
    h.report("fig08a", "Figure 8a", &f8p);
    h.report("fig08b", "Figure 8b", &f8e);

    stages.lap(&mut bench, "fig8");
    // Figures 9-10.
    println!("[6/14] fig9/10 ...");
    let (f9f, f9m, f10) = scheduling::fig9_fig10(&scale, seed.wrapping_add(5));
    let _ = writeln!(
        md,
        "| Fig 9a VarF frequency at 4 threads | ~+10% | {} |",
        pct(f9f[1].y[1])
    );
    let _ = writeln!(
        md,
        "| Fig 9b VarF&AppIPC throughput | +5% to +10% | {} |",
        range_pct(&f9m[2])
    );
    let _ = writeln!(
        md,
        "| Fig 10 VarF&AppIPC ED² at 16–20 threads | −10% to −13% | {} / {} |",
        pct(f10[2].y[3]),
        pct(f10[2].y[4])
    );
    h.report("fig09a", "Figure 9a", &f9f);
    h.report("fig09b", "Figure 9b", &f9m);
    h.report("fig10", "Figure 10", &f10);

    stages.lap(&mut bench, "fig9_10");
    // Figures 11 & 13.
    println!("[7/14] fig11/13 ...");
    let (f11m, f11e, f13m, f13e) = dvfs::fig11_fig13(&scale, seed.wrapping_add(6));
    let _ = writeln!(
        md,
        "| Fig 11a LinOpt throughput | +12% to +17% | {} |",
        range_pct(&f11m[2])
    );
    let _ = writeln!(
        md,
        "| Fig 11a SAnn − LinOpt gap | ~+2% | {:+.1} pp |",
        (mean(&f11m[3]) - mean(&f11m[2])) * 100.0
    );
    let _ = writeln!(
        md,
        "| Fig 11b LinOpt ED² | −30% to −38% | {} |",
        range_pct(&f11e[2])
    );
    let _ = writeln!(
        md,
        "| Fig 13a LinOpt weighted throughput | +9% to +14% | {} |",
        range_pct(&f13m[2])
    );
    let _ = writeln!(
        md,
        "| Fig 13b LinOpt weighted ED² | −24% to −33% | {} |",
        range_pct(&f13e[2])
    );
    h.report("fig11a", "Figure 11a", &f11m);
    h.report("fig11b", "Figure 11b", &f11e);
    h.report("fig13a", "Figure 13a", &f13m);
    h.report("fig13b", "Figure 13b", &f13e);

    stages.lap(&mut bench, "fig11_13");
    // Figure 12.
    println!("[8/14] fig12 ...");
    let f12 = dvfs::fig12(&scale, seed.wrapping_add(7));
    let _ = writeln!(
        md,
        "| Fig 12 LinOpt gain at 50/75/100 W | +16% / +12% / +11% | {} / {} / {} |",
        pct(f12[2].y[0]),
        pct(f12[2].y[1]),
        pct(f12[2].y[2])
    );
    h.report("fig12", "Figure 12", &f12);

    stages.lap(&mut bench, "fig12");
    // Figure 14.
    println!("[9/14] fig14 ...");
    let f14 = granularity::fig14(&scale, seed.wrapping_add(8), &[4, 20]);
    let _ = writeln!(
        md,
        "| Fig 14 deviation at 10 ms (4 / 20 threads) | <1% | {:.1}% / {:.1}% |",
        f14[0].y[4], f14[1].y[4]
    );
    let _ = writeln!(
        md,
        "| Fig 14 deviation at 2 s (4 / 20 threads) | ~5% / ~18% | {:.1}% / {:.1}% |",
        f14[0].y[0], f14[1].y[0]
    );
    h.report("fig14", "Figure 14", &f14);

    stages.lap(&mut bench, "fig14");
    // Figure 15.
    println!("[10/14] fig15 ...");
    let f15 = timing::fig15(&scale, seed.wrapping_add(9), 200);
    let slowest = f15
        .iter()
        .map(|s| *s.y.last().expect("points"))
        .fold(0.0f64, f64::max);
    let _ = writeln!(
        md,
        "| Fig 15 LinOpt time at 20 threads | ≤6 µs (4 GHz CPU) | {slowest:.1} µs (host) |"
    );
    h.report("fig15", "Figure 15", &f15);

    stages.lap(&mut bench, "fig15");
    // Validation.
    println!("[11/14] sann vs exhaustive ...");
    let val = validation::sann_vs_exhaustive(&scale, seed.wrapping_add(10), &[2, 4, 8, 20]);
    let worst_sann = val
        .iter()
        .map(|r| r.sann_vs_exhaustive())
        .fold(1.0f64, f64::min);
    let worst_lin = val
        .iter()
        .map(|r| r.linopt_vs_sann())
        .fold(1.0f64, f64::min);
    let _ = writeln!(
        md,
        "| SAnn vs exhaustive (2–20 threads) | within 1% (≤4 threads) | worst {:.2}% below |",
        (1.0 - worst_sann) * 100.0
    );
    let _ = writeln!(
        md,
        "| LinOpt vs SAnn | within ~2% | worst {:.2}% below |",
        (1.0 - worst_lin) * 100.0
    );

    stages.lap(&mut bench, "sann_vs_exhaustive");
    // Ablations.
    println!("[12/14] ablations ...");
    let gran = ablation::granularity(&scale, seed.wrapping_add(11));
    let _ = writeln!(
        md,
        "| DVFS granularity: chip-wide vs per-core | finer is better (H&M) | {} at 20 cores/domain |",
        pct(gran.y[4])
    );
    let trans = ablation::transition_cost(&scale, seed.wrapping_add(12), 20);
    let _ = writeln!(
        md,
        "| 1 ms vs 10 ms LinOpt interval (XScale transitions) | n/a (extension) | {} |",
        pct(trans.y[0])
    );
    h.report("ablation_granularity", "Granularity", &[gran]);
    h.report("ablation_transition", "Transition cost", &[trans]);

    stages.lap(&mut bench, "ablations");
    // Online serving (beyond the paper).
    println!("[13/14] online serving ...");
    let sweep = online::arrival_sweep(&scale, seed.wrapping_add(13));
    let last = sweep.throughput_jobs_per_s[0].y.len() - 1;
    let _ = writeln!(
        md,
        "| Online serving capacity at 40 W (Foxton* / LinOpt / chip-wide) | n/a (extension) | {:.0} / {:.0} / {:.0} jobs/s |",
        sweep.throughput_jobs_per_s[0].y[last],
        sweep.throughput_jobs_per_s[1].y[last],
        sweep.throughput_jobs_per_s[2].y[last]
    );
    h.report(
        "online_throughput",
        "Online throughput",
        &sweep.throughput_jobs_per_s,
    );
    h.report(
        "online_p95_latency",
        "Online p95 latency",
        &sweep.p95_latency_ms,
    );
    h.report(
        "online_utilization",
        "Online utilization",
        &sweep.utilization,
    );
    h.report("online_power", "Online chip power", &sweep.avg_power_w);

    stages.lap(&mut bench, "online");
    println!("[14/14] fault injection ...");
    let noise = faults::noise_sweep(&scale, seed.wrapping_add(14));
    let failures = faults::failure_sweep(&scale, seed.wrapping_add(14));
    let tracking = faults::tracking_scenario(&scale, seed.wrapping_add(14));
    let fallback = faults::fallback_scenario(&scale, seed.wrapping_add(14));
    let lin = tracking
        .iter()
        .find(|r| r.label == "LinOpt")
        .expect("LinOpt report");
    let lin_fb = fallback
        .iter()
        .find(|r| r.label == "LinOpt")
        .expect("LinOpt report");
    let _ = writeln!(
        md,
        "| Fault tracking: LinOpt |P−40 W| under σ=0.05 + 2 dead cores | n/a (extension, bar ≤ 1 W) | {:.2} W ({:.1} fallbacks/run under a deep budget drop) |",
        lin.deviation_w, lin_fb.solver_fallbacks
    );
    h.report("faults_noise_mips", "Fault noise throughput", &noise.mips);
    h.report(
        "faults_noise_deviation",
        "Fault noise budget deviation (W)",
        &noise.budget_deviation_w,
    );
    h.report(
        "faults_failures_mips",
        "Core-failure throughput",
        &failures.mips,
    );
    h.report(
        "faults_failures_deviation",
        "Core-failure budget deviation (W)",
        &failures.budget_deviation_w,
    );

    stages.lap(&mut bench, "faults");
    h.artifact("REPORT.md", &md);
    bench.push_stage("total", run_start.elapsed().as_secs_f64());
    match bench.write("all") {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_all.json: {e}"),
    }
    println!("\n{md}");
}
