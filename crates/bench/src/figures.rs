//! The paper's evaluation, one function per figure: Figures 4–15,
//! Table 5, the §7.5 validation, the ablations and the two studies
//! beyond the paper (online serving, fault injection).
//!
//! Each function takes the master seed from its [`Harness`], runs its
//! experiments at the seed the `all` bin has always given that figure
//! (the master seed plus a fixed per-figure offset), prints the series
//! the paper plots, writes its CSVs under `results/` and returns its
//! rows of `results/REPORT.md`. [`FIGURES`] lists them in `all`'s order
//! under the stage names `BENCH_all.json` records. `all` runs the whole
//! table and each figure bin runs one entry through [`standalone`], so
//! both write the same bytes.

use crate::harness::Harness;
use vasched::experiments::faults::DegradationReport;
use vasched::experiments::validation::OptimizerComparison;
use vasched::experiments::{
    ablation, dvfs, faults, granularity, online, scheduling, timing, validation, variation, Series,
};
use vastats::{bootstrap::mean_ci, SimRng};

/// A figure: runs it from the harness's master seed and returns its
/// `REPORT.md` rows.
pub type Figure = fn(&Harness) -> Vec<String>;

/// Every figure in `all`'s order, under its `BENCH_all.json` stage name.
pub const FIGURES: [(&str, Figure); 15] = [
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("table5", table5),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9_10", fig9_10),
    ("fig11_13", fig11_13),
    ("fig12", fig12),
    ("fig14", fig14),
    ("fig15", fig15),
    ("sann_vs_exhaustive", sann_vs_exhaustive),
    ("ablations", ablations),
    ("online", online),
    ("faults", faults),
];

/// A figure bin's `main`: parses the standard CLI, runs `figure` and
/// prints its `REPORT.md` rows.
pub fn standalone(figure: Figure) {
    for row in figure(&Harness::from_args()) {
        println!("{row}");
    }
}

/// One `REPORT.md` table row.
fn row(artifact: &str, paper: &str, measured: String) -> String {
    format!("| {artifact} | {paper} | {measured} |")
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

/// Figure 4: histograms of per-die core-to-core power and frequency
/// ratios over a batch of dies (σ/µ = 0.12), with bootstrap CIs.
pub fn fig4(h: &Harness) -> Vec<String> {
    let data = variation::fig4(&h.scale, h.seed);
    let mut ci_rng = SimRng::seed_from(h.seed ^ 0xC1);
    println!(
        "Figure 4(a): max/min core power ratio, {} dies",
        data.power_ratios.len()
    );
    println!("{}", data.power_histogram(14));
    let ci = mean_ci(&data.power_ratios, 0.95, 2000, &mut ci_rng);
    println!(
        "mean power ratio: {:.3} [95% CI {:.3}-{:.3}] (paper: ~1.53, mostly 1.4-1.7)",
        ci.mean, ci.lo, ci.hi
    );
    println!("\nFigure 4(b): max/min core frequency ratio");
    println!("{}", data.freq_histogram(10));
    let ci = mean_ci(&data.freq_ratios, 0.95, 2000, &mut ci_rng);
    println!(
        "mean frequency ratio: {:.3} [95% CI {:.3}-{:.3}] (paper: ~1.33, mostly 1.2-1.5)",
        ci.mean, ci.lo, ci.hi
    );
    let dies: Vec<f64> = (0..data.power_ratios.len()).map(|i| i as f64).collect();
    let series = [
        Series::new("power_ratio", dies.clone(), data.power_ratios.clone()),
        Series::new("freq_ratio", dies, data.freq_ratios.clone()),
    ];
    h.report("fig04", "Figure 4 raw per-die ratios", &series);
    vec![
        row(
            "Fig 4a mean power ratio",
            "~1.53 (mostly 1.4–1.7)",
            format!("{:.3}", data.mean_power_ratio()),
        ),
        row(
            "Fig 4b mean frequency ratio",
            "~1.33 (mostly 1.2–1.5)",
            format!("{:.3}", data.mean_freq_ratio()),
        ),
    ]
}

/// Figure 5: mean core-to-core power/frequency ratio vs Vth σ/µ.
pub fn fig5(h: &Harness) -> Vec<String> {
    let (power, freq) = variation::fig5(&h.scale, h.seed.wrapping_add(1));
    let rows = vec![
        row(
            "Fig 5a power ratio at σ/µ = 0.03 → 0.12",
            "grows with σ; significant even at 0.06",
            format!("{:.2} → {:.2}", power.y[0], power.y[3]),
        ),
        row(
            "Fig 5b frequency ratio at σ/µ = 0.03 → 0.12",
            "grows with σ",
            format!("{:.2} → {:.2}", freq.y[0], freq.y[3]),
        ),
    ];
    h.report(
        "fig05",
        "Figure 5: max/min ratios vs Vth sigma/mu (paper: both grow with sigma)",
        &[power, freq],
    );
    rows
}

/// Figure 6: core power vs frequency for the fastest (MaxF) and
/// slowest (MinF) cores of one die, V = 0.6-1.0 V, running bzip2.
pub fn fig6(h: &Harness) -> Vec<String> {
    let (maxf, minf) = variation::fig6(&h.scale, h.seed.wrapping_add(2));
    let top = *minf.x.last().expect("points");
    println!("(x = frequency, y = power; both normalized to MaxF at 1 V)");
    println!("Paper's shape: MinF is more power-efficient at low frequency,");
    println!("MaxF at high frequency, with a crossover in between.");
    h.report(
        "fig06",
        "Figure 6: power vs frequency, MaxF and MinF cores",
        &[maxf, minf],
    );
    vec![row(
        "Fig 6 MinF top frequency (vs MaxF @1 V)",
        "~0.74",
        format!("{top:.2}"),
    )]
}

/// Table 5: per-application dynamic power (4 GHz / 1 V) and IPC, exact
/// by construction (the test suite asserts every cell).
pub fn table5(_: &Harness) -> Vec<String> {
    println!("Table 5: application characteristics (calibration check)");
    println!("{:>10} {:>18} {:>8}", "app", "dynamic power (W)", "IPC");
    for (name, power, ipc) in variation::table5() {
        println!("{name:>10} {power:>18.1} {ipc:>8.1}");
    }
    vec![row(
        "Table 5 per-app power & IPC",
        "14 apps",
        "exact (calibrated)".into(),
    )]
}

/// Figure 7: UniFreq power (a) and ED² (b) vs thread count for
/// Random / VarP / VarP&AppP, relative to Random.
pub fn fig7(h: &Harness) -> Vec<String> {
    let (power, ed2) = scheduling::fig7(&h.scale, h.seed.wrapping_add(3));
    let rows = vec![row(
        "Fig 7a VarP power at 4 threads / 20 threads",
        "~−10% / ~0%",
        format!("{} / {}", pct(power[1].y[1]), pct(power[1].y[4])),
    )];
    h.report(
        "fig07a",
        "Figure 7(a): UniFreq relative power (paper: VarP saves ~10% at 4 threads, nothing at 20)",
        &power,
    );
    h.report(
        "fig07b",
        "Figure 7(b): UniFreq relative ED^2 (paper: tracks the power savings)",
        &ed2,
    );
    rows
}

/// Figure 8: NUniFreq power (a) and ED² (b) vs thread count for
/// Random / VarP / VarP&AppP, relative to Random.
pub fn fig8(h: &Harness) -> Vec<String> {
    let (power, ed2) = scheduling::fig8(&h.scale, h.seed.wrapping_add(4));
    let rows = vec![row(
        "Fig 8a VarP power at 4 threads (NUniFreq)",
        "~−14%",
        pct(power[1].y[1]),
    )];
    h.report(
        "fig08a",
        "Figure 8(a): NUniFreq relative power (paper: ~14% savings at 4 threads)",
        &power,
    );
    h.report("fig08b", "Figure 8(b): NUniFreq relative ED^2 (paper: smaller gains than 7b - VarP picks slow cores)", &ed2);
    rows
}

/// Figures 9 and 10: NUniFreq frequency (9a), throughput (9b) and ED²
/// (10) vs thread count for Random / VarF / VarF&AppIPC.
pub fn fig9_10(h: &Harness) -> Vec<String> {
    let (freq, mips, ed2) = scheduling::fig9_fig10(&h.scale, h.seed.wrapping_add(5));
    let rows = vec![
        row(
            "Fig 9a VarF frequency at 4 threads",
            "~+10%",
            pct(freq[1].y[1]),
        ),
        row(
            "Fig 9b VarF&AppIPC throughput",
            "+5% to +10%",
            range_pct(&mips[2]),
        ),
        row(
            "Fig 10 VarF&AppIPC ED² at 16–20 threads",
            "−10% to −13%",
            format!("{} / {}", pct(ed2[2].y[3]), pct(ed2[2].y[4])),
        ),
    ];
    h.report(
        "fig09a",
        "Figure 9(a): relative frequency (paper: VarF +10% at 4 threads, ~0 at 20)",
        &freq,
    );
    h.report(
        "fig09b",
        "Figure 9(b): relative MIPS (paper: VarF&AppIPC +5-10% across loads)",
        &mips,
    );
    h.report(
        "fig10",
        "Figure 10: relative ED^2 (paper: VarF&AppIPC 10-13% below Random at 8-20 threads)",
        &ed2,
    );
    rows
}

/// Figures 11 and 13: NUniFreq+DVFS throughput and ED², plain (11) and
/// weighted (13), relative to Random+Foxton*, Cost-Performance env.
pub fn fig11_13(h: &Harness) -> Vec<String> {
    let (mips, ed2, wmips, wed2) = dvfs::fig11_fig13(&h.scale, h.seed.wrapping_add(6));
    let rows = vec![
        row(
            "Fig 11a LinOpt throughput",
            "+12% to +17%",
            range_pct(&mips[2]),
        ),
        row(
            "Fig 11a SAnn − LinOpt gap",
            "~+2%",
            format!("{:+.1} pp", (mean(&mips[3]) - mean(&mips[2])) * 100.0),
        ),
        row("Fig 11b LinOpt ED²", "−30% to −38%", range_pct(&ed2[2])),
        row(
            "Fig 13a LinOpt weighted throughput",
            "+9% to +14%",
            range_pct(&wmips[2]),
        ),
        row(
            "Fig 13b LinOpt weighted ED²",
            "−24% to −33%",
            range_pct(&wed2[2]),
        ),
    ];
    h.report(
        "fig11a",
        "Figure 11(a): relative MIPS (paper: LinOpt +12-17%, SAnn ~+2% over LinOpt)",
        &mips,
    );
    h.report(
        "fig11b",
        "Figure 11(b): relative ED^2 (paper: LinOpt -30-38%)",
        &ed2,
    );
    h.report(
        "fig13a",
        "Figure 13(a): relative weighted MIPS (paper: LinOpt +9-14%)",
        &wmips,
    );
    h.report(
        "fig13b",
        "Figure 13(b): relative weighted ED^2 (paper: LinOpt -24-33%)",
        &wed2,
    );
    rows
}

/// Figure 12: throughput vs power environment (50/75/100 W) at
/// 20 threads, relative to Random+Foxton*.
pub fn fig12(h: &Harness) -> Vec<String> {
    let series = dvfs::fig12(&h.scale, h.seed.wrapping_add(7));
    let gain = |i: usize| pct(series[2].y[i]);
    let rows = vec![row(
        "Fig 12 LinOpt gain at 50/75/100 W",
        "+16% / +12% / +11%",
        format!("{} / {} / {}", gain(0), gain(1), gain(2)),
    )];
    h.report(
        "fig12",
        "Figure 12: relative MIPS per power target (paper: LinOpt +16%/+12%/+11% at 50/75/100 W)",
        &series,
    );
    rows
}

/// Figure 14: power deviation from Ptarget vs LinOpt interval.
pub fn fig14(h: &Harness) -> Vec<String> {
    let series = granularity::fig14(&h.scale, h.seed.wrapping_add(8), &[4, 20]);
    let at = |i: usize| format!("{:.1}% / {:.1}%", series[0].y[i], series[1].y[i]);
    let rows = vec![
        row("Fig 14 deviation at 10 ms (4 / 20 threads)", "<1%", at(4)),
        row(
            "Fig 14 deviation at 2 s (4 / 20 threads)",
            "~5% / ~18%",
            at(0),
        ),
    ];
    h.report(
        "fig14",
        "Figure 14: % deviation from Ptarget vs LinOpt interval (paper: <1% at 10 ms)",
        &series,
    );
    rows
}

/// Figure 15: LinOpt execution time vs thread count, per environment
/// (host timings, so its CSV is not reproducible bit for bit).
pub fn fig15(h: &Harness) -> Vec<String> {
    let series = timing::fig15(&h.scale, h.seed.wrapping_add(9), 200);
    let slowest = series
        .iter()
        .map(|s| *s.y.last().expect("points"))
        .fold(0.0f64, f64::max);
    println!("(y = microseconds per LinOpt invocation, median of 200 runs)");
    h.report(
        "fig15",
        "Figure 15: LinOpt execution time (paper: grows with threads and looser targets; <=6 us at 20 threads on 4 GHz)",
        &series,
    );
    vec![row(
        "Fig 15 LinOpt time at 20 threads",
        "≤6 µs (4 GHz CPU)",
        format!("{slowest:.1} µs (host)"),
    )]
}

/// §7.5 validation: SAnn vs the exact optimum vs LinOpt, at 1–20
/// threads.
pub fn sann_vs_exhaustive(h: &Harness) -> Vec<String> {
    let results =
        validation::sann_vs_exhaustive(&h.scale, h.seed.wrapping_add(10), &[1, 2, 4, 8, 16, 20]);
    println!(
        "{:>8} {:>16} {:>12} {:>12} {:>14} {:>14}",
        "threads", "exhaustive MIPS", "SAnn MIPS", "LinOpt MIPS", "SAnn/exh", "LinOpt/SAnn"
    );
    for r in &results {
        println!(
            "{:>8} {:>16.0} {:>12.0} {:>12.0} {:>14.4} {:>14.4}",
            r.threads,
            r.exhaustive_mips,
            r.sann_mips,
            r.linopt_mips,
            r.sann_vs_exhaustive(),
            r.linopt_vs_sann()
        );
    }
    println!("\n(paper: SAnn within 1% of exhaustive for <=4 threads;");
    println!(" LinOpt within ~2% of SAnn)");
    let worst = |ratio: fn(&OptimizerComparison) -> f64| {
        let worst = results.iter().map(ratio).fold(1.0f64, f64::min);
        format!("worst {:.2}% below", (1.0 - worst) * 100.0)
    };
    vec![
        row(
            "SAnn vs exhaustive (1–20 threads)",
            "within 1% (≤4 threads)",
            worst(OptimizerComparison::sann_vs_exhaustive),
        ),
        row(
            "LinOpt vs SAnn",
            "within ~2%",
            worst(OptimizerComparison::linopt_vs_sann),
        ),
    ]
}

/// Ablations of LinOpt's design choices (DESIGN.md §5): power-fit point
/// count, rounding policy, IPC-frequency-independence error, DVFS
/// domain granularity, voltage-transition costs, and the scheduling
/// gain's dependence on σ/µ.
pub fn ablations(h: &Harness) -> Vec<String> {
    for threads in [8usize, 20] {
        println!("\n== LinOpt variants, {threads} threads ==");
        println!(
            "{:>28} {:>12} {:>12} {:>10}",
            "variant", "MIPS", "power (W)", "feasible"
        );
        for (label, point) in ablation::linopt_variants(&h.scale, h.seed, threads) {
            println!(
                "{label:>28} {:>12.0} {:>12.2} {:>10}",
                point.mips, point.power_w, point.feasible
            );
        }
        let err = ablation::ipc_frequency_error(&h.scale, h.seed, threads);
        println!(
            "IPC-frequency independence: mean relative IPC error {:.2}%",
            err * 100.0
        );
    }
    let gran = ablation::granularity(&h.scale, h.seed.wrapping_add(11));
    let trans = ablation::transition_cost(&h.scale, h.seed.wrapping_add(12), 20);
    let rows = vec![
        row(
            "DVFS granularity: chip-wide vs per-core",
            "finer is better (H&M)",
            format!("{} at 20 cores/domain", pct(gran.y[4])),
        ),
        row(
            "1 ms vs 10 ms LinOpt interval (XScale transitions)",
            "n/a (extension)",
            pct(trans.y[0]),
        ),
    ];
    h.report(
        "ablation_granularity",
        "DVFS granularity (x = cores per voltage domain; Herbert & Marculescu: finer is better)",
        &[gran],
    );
    h.report(
        "ablation_transition",
        "DVFS interval under XScale transition costs (x = interval ms, normalized to 10 ms)",
        &[trans],
    );
    h.report(
        "ablation_gain_vs_sigma",
        "Variation-aware scheduling gain vs Vth sigma/mu (must vanish at sigma -> 0)",
        &[ablation::gain_vs_sigma(&h.scale, h.seed, 8)],
    );
    rows
}

/// Online serving sweep (beyond the paper): completed-job throughput,
/// p95 latency, utilization, chip power and dropped jobs vs Poisson
/// arrival rate, per power manager, under the tight serving budget.
pub fn online(h: &Harness) -> Vec<String> {
    let sweep = online::arrival_sweep(&h.scale, h.seed.wrapping_add(13));
    let top = |i: usize| *sweep.throughput_jobs_per_s[i].y.last().expect("rates");
    let rows = vec![row(
        "Online serving capacity at 40 W (Foxton* / LinOpt / chip-wide)",
        "n/a (extension)",
        format!("{:.0} / {:.0} / {:.0} jobs/s", top(0), top(1), top(2)),
    )];
    h.report(
        "online_throughput",
        "Online serving: completed jobs/s vs arrival rate (LinOpt sustains the most under the 40 W budget)",
        &sweep.throughput_jobs_per_s,
    );
    h.report(
        "online_p95_latency",
        "Online serving: p95 arrival-to-completion latency (ms) vs arrival rate",
        &sweep.p95_latency_ms,
    );
    h.report(
        "online_utilization",
        "Online serving: busy-core fraction vs arrival rate",
        &sweep.utilization,
    );
    h.report(
        "online_power",
        "Online serving: average chip power (W) vs arrival rate (budget 40 W)",
        &sweep.avg_power_w,
    );
    h.report(
        "online_dropped",
        "Online serving: jobs dropped from the latency summary per trial (shed by admission; 0 without an SLO policy)",
        &sweep.dropped_jobs,
    );
    rows
}

fn print_reports(title: &str, reports: &[DegradationReport]) {
    println!("\n== {title} ==");
    println!(
        "{:<12} {:>10} {:>14} {:>11} {:>10} {:>9}",
        "manager", "MIPS", "|P-40W| (W)", "fallbacks", "failures", "parked"
    );
    for r in reports {
        println!(
            "{:<12} {:>10.0} {:>14.3} {:>11.2} {:>10.2} {:>9.2}",
            r.label, r.mips, r.deviation_w, r.solver_fallbacks, r.core_failures, r.threads_parked
        );
    }
}

/// Fault-injection study (beyond the paper): sensor-noise and
/// core-failure sweeps under the 40 W serving budget, plus the two
/// graceful-degradation scenarios (budget tracking through faults, and
/// solver fallback under a deep transient budget drop).
pub fn faults(h: &Harness) -> Vec<String> {
    let seed = h.seed.wrapping_add(14);
    let noise = faults::noise_sweep(&h.scale, seed);
    h.report(
        "faults_noise_mips",
        "Sensor noise: throughput (MIPS) vs noise sigma (40 W budget, 20 threads)",
        &noise.mips,
    );
    h.report(
        "faults_noise_deviation",
        "Sensor noise: mean |power - 40 W| (W) vs noise sigma",
        &noise.budget_deviation_w,
    );
    let failures = faults::failure_sweep(&h.scale, seed);
    h.report(
        "faults_failures_mips",
        "Core failures: throughput (MIPS) vs failed cores (sigma = 0.05 noise floor)",
        &failures.mips,
    );
    h.report(
        "faults_failures_deviation",
        "Core failures: mean |power - 40 W| (W) vs failed cores",
        &failures.budget_deviation_w,
    );
    let tracking = faults::tracking_scenario(&h.scale, seed);
    print_reports(
        "Tracking scenario: sigma = 0.05 noise + 2 core failures",
        &tracking,
    );
    let fallback = faults::fallback_scenario(&h.scale, seed);
    print_reports(
        "Fallback scenario: + budget drop to 25% over [40%, 70%) of the run",
        &fallback,
    );
    println!("\n(LinOpt should hold |P-40W| near the clean baseline while degrading");
    println!(" throughput smoothly; fallbacks > 0 shows the chip-wide safety net)");
    vec![row(
        "Fault tracking: LinOpt |P−40 W| under σ=0.05 + 2 dead cores",
        "n/a (extension, bar ≤ 1 W)",
        format!(
            "{:.2} W ({:.1} fallbacks/run under a deep budget drop)",
            linopt(&tracking).deviation_w,
            linopt(&fallback).solver_fallbacks
        ),
    )]
}

fn linopt(reports: &[DegradationReport]) -> &DegradationReport {
    reports
        .iter()
        .find(|r| r.label == "LinOpt")
        .expect("LinOpt report")
}
