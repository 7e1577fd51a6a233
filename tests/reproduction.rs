//! Reproduction smoke tests: assert the *direction and rough magnitude*
//! of every headline claim in the paper's evaluation, at smoke scale.
//!
//! These are the repository's contract with the paper. They run the
//! same experiment functions the figure binaries use, at reduced scale,
//! and check the qualitative shape each figure exists to show.

use vasp::vasched::experiments::{
    dvfs, granularity, scheduling, timing, validation, variation, Scale,
};

fn scale() -> Scale {
    Scale {
        dies: 10,
        trials: 3,
        duration_ms: 100.0,
        grid: 24,
        sann_evaluations: 8_000,
    }
}

#[test]
fn fig4_core_to_core_variation_is_substantial() {
    let data = variation::fig4(&scale(), 1);
    // Paper: "in most of the dies there is 40-70% variation in total
    // power" and "20-50% variation in core frequency".
    let p = data.mean_power_ratio();
    let f = data.mean_freq_ratio();
    assert!(p > 1.35 && p < 1.95, "power ratio {p}");
    assert!(f > 1.15 && f < 1.55, "freq ratio {f}");
}

#[test]
fn fig5_variation_grows_with_sigma() {
    let (power, freq) = variation::fig5(&scale(), 2);
    assert!(power.y[3] > power.y[0] + 0.1, "{:?}", power.y);
    assert!(freq.y[3] > freq.y[0] + 0.05, "{:?}", freq.y);
    // Even sigma/mu = 0.06 shows significant variation (paper §7.1).
    assert!(power.y[1] > 1.15, "{:?}", power.y);
}

#[test]
fn fig6_efficiency_crossover_exists() {
    // Paper: "for frequencies below ~0.74, MinF is more power
    // efficient, while above that, MaxF is". Check both regimes on the
    // overlapping frequency range.
    let interp = |s: &vasp::vasched::experiments::Series, x: f64| -> Option<f64> {
        let pts: Vec<(f64, f64)> = s.x.iter().cloned().zip(s.y.iter().cloned()).collect();
        if x < pts[0].0 || x > pts[pts.len() - 1].0 {
            return None;
        }
        let i = pts.iter().position(|&(px, _)| px >= x)?;
        if i == 0 {
            return Some(pts[0].1);
        }
        let (x0, y0) = pts[i - 1];
        let (x1, y1) = pts[i];
        Some(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    };
    // The paper plots one sample die; the crossover's exact position
    // varies die to die. Scan a few dies: MaxF must win at the top of
    // the overlap on every die, and at least one die must show MinF
    // winning (or tying) at the bottom — the relative-efficiency flip
    // §7.1 describes.
    let mut crossover_seen = false;
    for seed in 3u64..15 {
        let (maxf, minf) = variation::fig6(
            &Scale {
                grid: 30,
                ..scale()
            },
            seed,
        );
        let lo = maxf.x[0];
        let hi = *minf.x.last().unwrap();
        assert!(hi > lo, "seed {seed}: curves must overlap in frequency");
        let f_bot = lo * 1.01;
        let f_top = hi * 0.99;
        let (max_bot, min_bot) = (interp(&maxf, f_bot).unwrap(), interp(&minf, f_bot).unwrap());
        let (max_top, min_top) = (interp(&maxf, f_top).unwrap(), interp(&minf, f_top).unwrap());
        // MaxF reaches the top of the overlap at a much lower voltage,
        // so it is at least competitive there on every die (on very
        // leaky MaxF cores it may lose by a sliver).
        assert!(
            max_top < min_top * 1.10,
            "seed {seed}: MaxF {max_top} not competitive with MinF {min_top} at high f"
        );
        // A full crossover: MinF at least ties at the bottom while MaxF
        // wins at the top.
        if min_bot <= max_bot * 1.02 && max_top < min_top {
            crossover_seen = true;
        }
    }
    assert!(
        crossover_seen,
        "no die in the batch showed the efficiency crossover"
    );
}

#[test]
fn fig7_fig8_varp_saves_power_only_below_full_occupancy() {
    let (power, _) = scheduling::fig7(&scale(), 4);
    let varp = &power[1];
    // Savings at 4 threads, none at 20.
    assert!(varp.y[1] < 0.97, "4 threads: {:?}", varp.y);
    assert!(varp.y[4] > 0.96, "20 threads: {:?}", varp.y);
}

#[test]
fn fig9_variation_aware_scheduling_buys_throughput() {
    let (freq, mips, ed2) = scheduling::fig9_fig10(&scale(), 5);
    let varf_freq = &freq[1];
    let appipc_mips = &mips[2];
    // VarF lifts frequency at light load.
    assert!(varf_freq.y[1] > 1.02, "{:?}", varf_freq.y);
    // VarF&AppIPC lifts throughput at every load (paper: 5-10%).
    for &v in &appipc_mips.y {
        assert!(v > 1.0, "{:?}", appipc_mips.y);
    }
    // And cuts ED2 under high load (paper: 10-13% at 8-20 threads).
    let appipc_ed2 = &ed2[2];
    assert!(
        appipc_ed2.y[3].min(appipc_ed2.y[4]) < 0.97,
        "{:?}",
        appipc_ed2.y
    );
}

#[test]
fn fig11_linopt_beats_baselines_and_tracks_sann() {
    let (mips, ed2, wmips, _) = dvfs::fig11_fig13(&scale(), 6);
    let mean = |s: &vasp::vasched::experiments::Series| s.y.iter().sum::<f64>() / s.y.len() as f64;
    let foxton = mean(&mips[1]);
    let linopt = mean(&mips[2]);
    let sann = mean(&mips[3]);
    // Headline direction: LinOpt above both Foxton* variants.
    assert!(linopt > 1.0, "LinOpt vs baseline: {linopt}");
    assert!(
        linopt > foxton - 0.01,
        "LinOpt {linopt} vs Foxton* {foxton}"
    );
    // SAnn within a few percent of LinOpt (paper: ~2%).
    assert!(
        (sann - linopt).abs() < 0.05,
        "SAnn {sann} vs LinOpt {linopt}"
    );
    // ED2 falls well below the baseline.
    assert!(mean(&ed2[2]) < 0.95, "LinOpt ED2 {:?}", ed2[2].y);
    // Weighted throughput gains are positive but smaller (paper §7.5).
    assert!(mean(&wmips[2]) > 1.0);
}

#[test]
fn fig12_gains_exist_in_every_power_environment() {
    let series = dvfs::fig12(&scale(), 7);
    let linopt = &series[2];
    for (i, &v) in linopt.y.iter().enumerate() {
        assert!(v > 0.99, "environment {i}: LinOpt at {v}");
    }
}

#[test]
fn fig14_deviation_shrinks_with_interval() {
    let series = granularity::fig14(&scale(), 8, &[4]);
    let y = &series[0].y;
    // 10 ms tracks the budget better than 2 s.
    assert!(y[4] < y[0], "10ms {} vs 2s {}", y[4], y[0]);
}

#[test]
fn fig15_linopt_is_fast_and_scales() {
    let series = timing::fig15(&scale(), 9, 50);
    for s in &series {
        // Microsecond regime (paper: <=6 us on their 4 GHz machine).
        assert!(s.y[5] < 5_000.0, "{}: {} us", s.label, s.y[5]);
        assert!(s.y[5] > s.y[0], "{}: should grow with threads", s.label);
    }
}

#[test]
fn sann_validation_chain() {
    let results = validation::sann_vs_exhaustive(
        &Scale {
            sann_evaluations: 30_000,
            ..scale()
        },
        10,
        &[2, 4, 8, 20],
    );
    for r in &results {
        let ratio = r.sann_vs_exhaustive();
        assert!(ratio > 0.99, "{} threads: {ratio}", r.threads);
    }
}

#[test]
fn table5_is_exact() {
    let rows = variation::table5();
    let total_power: f64 = rows.iter().map(|(_, p, _)| p).sum();
    // Sum of Table 5's power column: 39.6 W.
    assert!((total_power - 39.6).abs() < 1e-9);
}
