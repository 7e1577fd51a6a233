//! Scheduling experiments without DVFS (paper §7.3–§7.4):
//! Figures 7–10.
//!
//! Protocol: for each thread count, run `trials` independent trials.
//! Each trial manufactures a fresh die, draws a fresh workload, and
//! runs every policy on the *same* (die, workload) pair; metrics are
//! normalized to `Random` per trial and then averaged, which is how the
//! paper's relative bars are constructed.

use super::{Context, Scale, Series};
use crate::engine::{mean_relative, SeedPlan, TrialArm, TrialRunner, TrialSpec};
use crate::manager::{ManagerSpec, PowerBudget};
use crate::runtime::{FreqMode, RuntimeConfig, TrialOutcome};
use crate::sched::SchedulerSpec;
use cmpsim::{app_pool, Mix};

/// Thread counts used by Figures 7–10.
pub const THREAD_COUNTS: [usize; 5] = [2, 4, 8, 16, 20];

/// Runs one (policy × thread-count) grid without DVFS and returns, for
/// each requested metric, one series per policy with y-values averaged
/// over trials and normalized to the first policy.
///
/// `metrics[k]` extracts the k-th metric from a [`TrialOutcome`].
fn policy_grid(
    scale: &Scale,
    seed: u64,
    freq_mode: FreqMode,
    policies: &[SchedulerSpec],
    metrics: &[fn(&TrialOutcome) -> f64],
) -> Vec<Vec<Series>> {
    let ctx = Context::new(scale.grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let runtime = RuntimeConfig {
        duration_ms: scale.duration_ms,
        os_interval_ms: scale.duration_ms.min(100.0),
        freq_mode,
        ..RuntimeConfig::paper_default()
    };
    let runner = TrialRunner::new();

    // rel[thread_count][metric][policy] = mean normalized value.
    let rel: Vec<Vec<Vec<f64>>> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let spec = TrialSpec::builder(&ctx, &pool)
                .threads(threads)
                .mix(Mix::Balanced)
                .trials(scale.trials)
                .seed(seed)
                .plan(SeedPlan {
                    mul: 1_000_003,
                    offset: (threads * 1000) as u64,
                    stride: 1,
                })
                .arms(
                    policies
                        .iter()
                        .map(|&policy| TrialArm {
                            label: policy.name().to_string(),
                            policy,
                            manager: ManagerSpec::None,
                            // Budget is irrelevant without a manager but
                            // required by the runtime signature.
                            budget: PowerBudget::high_performance(threads),
                            runtime,
                            // Same RNG seed per policy so Random's choices are
                            // the only stochastic difference.
                            rng_salt: Some(0xABCD),
                        })
                        .collect(),
                )
                .build()
                .expect("scheduling spec is valid");
            let results = runner.run(&spec);
            metrics.iter().map(|m| mean_relative(&results, m)).collect()
        })
        .collect();

    (0..metrics.len())
        .map(|mi| {
            policies
                .iter()
                .enumerate()
                .map(|(pi, policy)| {
                    Series::new(
                        policy.name(),
                        THREAD_COUNTS.iter().map(|&t| t as f64).collect(),
                        rel.iter().map(|per_metric| per_metric[mi][pi]).collect(),
                    )
                })
                .collect()
        })
        .collect()
}

/// Figure 7: `UniFreq` total power (a) and ED² (b) relative to `Random`
/// for `Random`/`VarP`/`VarP&AppP`.
///
/// Returns `(power_series, ed2_series)`, one entry per policy.
pub fn fig7(scale: &Scale, seed: u64) -> (Vec<Series>, Vec<Series>) {
    let mut grids = policy_grid(
        scale,
        seed,
        FreqMode::Uniform,
        &[
            SchedulerSpec::Random,
            SchedulerSpec::VarP,
            SchedulerSpec::VarPAppP,
        ],
        &[|o| o.avg_power_w, |o| o.ed2],
    );
    let ed2 = grids.pop().expect("two metrics");
    let power = grids.pop().expect("two metrics");
    (power, ed2)
}

/// Figure 8: like Figure 7 but in `NUniFreq` (each core at its own
/// maximum frequency).
pub fn fig8(scale: &Scale, seed: u64) -> (Vec<Series>, Vec<Series>) {
    let mut grids = policy_grid(
        scale,
        seed,
        FreqMode::NonUniform,
        &[
            SchedulerSpec::Random,
            SchedulerSpec::VarP,
            SchedulerSpec::VarPAppP,
        ],
        &[|o| o.avg_power_w, |o| o.ed2],
    );
    let ed2 = grids.pop().expect("two metrics");
    let power = grids.pop().expect("two metrics");
    (power, ed2)
}

/// Figures 9 and 10: `NUniFreq` average frequency (9a), throughput
/// (9b), and ED² (10) relative to `Random` for
/// `Random`/`VarF`/`VarF&AppIPC`.
///
/// Returns `(freq_series, mips_series, ed2_series)`.
pub fn fig9_fig10(scale: &Scale, seed: u64) -> (Vec<Series>, Vec<Series>, Vec<Series>) {
    let mut grids = policy_grid(
        scale,
        seed,
        FreqMode::NonUniform,
        &[
            SchedulerSpec::Random,
            SchedulerSpec::VarF,
            SchedulerSpec::VarFAppIpc,
        ],
        &[|o| o.avg_freq_hz, |o| o.mips, |o| o.ed2],
    );
    let ed2 = grids.pop().expect("three metrics");
    let mips = grids.pop().expect("three metrics");
    let freq = grids.pop().expect("three metrics");
    (freq, mips, ed2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            trials: 2,
            duration_ms: 60.0,
            grid: 20,
            ..Scale::smoke()
        }
    }

    #[test]
    fn fig7_varp_saves_power_at_light_load() {
        let (power, _eds) = fig7(&tiny_scale(), 42);
        assert_eq!(power.len(), 3);
        let varp = &power[1];
        assert_eq!(varp.label, "VarP");
        // At 4 threads VarP should save power vs Random; at 20 threads
        // the savings vanish (all cores in use).
        assert!(
            varp.y[1] < 0.99,
            "VarP at 4 threads should save power: {:?}",
            varp.y
        );
        assert!(
            varp.y[4] > 0.97,
            "VarP at 20 threads should converge to Random: {:?}",
            varp.y
        );
        // Random normalizes to 1.
        for &v in &power[0].y {
            assert!((v - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fig9_varf_boosts_frequency_and_appipc_boosts_mips() {
        let (freq, mips, _) = fig9_fig10(&tiny_scale(), 43);
        let varf = &freq[1];
        assert!(
            varf.y[1] > 1.02,
            "VarF at 4 threads should raise frequency: {:?}",
            varf.y
        );
        // At full load VarF degenerates to Random.
        assert!((varf.y[4] - 1.0).abs() < 0.02, "{:?}", varf.y);
        // VarF&AppIPC delivers at least VarF's throughput on average.
        let varf_mips = &mips[1];
        let appipc_mips = &mips[2];
        let mean = |s: &Series| s.y.iter().sum::<f64>() / s.y.len() as f64;
        assert!(
            mean(appipc_mips) >= mean(varf_mips) - 0.02,
            "VarF&AppIPC {:?} vs VarF {:?}",
            appipc_mips.y,
            varf_mips.y
        );
    }
}
