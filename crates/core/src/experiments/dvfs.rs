//! DVFS experiments (paper §7.5): Figures 11–13.
//!
//! The four algorithms of Table 1's lower section, all in
//! `NUniFreq+DVFS`:
//!
//! * `Random+Foxton*` (the baseline every figure normalizes to),
//! * `VarF&AppIPC+Foxton*`,
//! * `VarF&AppIPC+LinOpt`,
//! * `VarF&AppIPC+SAnn`.

use super::{Context, Scale, Series};
use crate::engine::{mean_relative, SeedPlan, TrialArm, TrialRunner, TrialSpec};
use crate::manager::{ManagerSpec, PowerBudget};
use crate::runtime::{RuntimeConfig, TrialOutcome};
use crate::sched::SchedulerSpec;
use cmpsim::{app_pool, Mix};

/// Thread counts used by Figures 11 and 13.
pub const THREAD_COUNTS: [usize; 4] = [4, 8, 16, 20];

/// The four (scheduler, manager) combinations of §7.5, in figure order.
pub fn algorithms(scale: &Scale) -> Vec<(&'static str, SchedulerSpec, ManagerSpec)> {
    vec![
        (
            "Random+Foxton*",
            SchedulerSpec::Random,
            ManagerSpec::FoxtonStar,
        ),
        (
            "VarF&AppIPC+Foxton*",
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::FoxtonStar,
        ),
        (
            "VarF&AppIPC+LinOpt",
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::LinOpt,
        ),
        (
            "VarF&AppIPC+SAnn",
            SchedulerSpec::VarFAppIpc,
            ManagerSpec::SAnn {
                evaluations: scale.sann_evaluations,
            },
        ),
    ]
}

/// Runs the §7.5 grid for the given budgets and thread counts,
/// averaging metric ratios vs the first algorithm.
///
/// Returns `results[metric][algorithm]` for metrics
/// `[mips, ed2, weighted_mips, weighted_ed2]`.
fn dvfs_grid(
    scale: &Scale,
    seed: u64,
    thread_counts: &[usize],
    budget_of: impl Fn(usize) -> PowerBudget,
) -> Vec<Vec<Series>> {
    let ctx = Context::new(scale.grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let runtime = RuntimeConfig {
        duration_ms: scale.duration_ms,
        os_interval_ms: scale.duration_ms.min(100.0),
        ..RuntimeConfig::paper_default()
    };
    let algos = algorithms(scale);
    let metrics: [fn(&TrialOutcome) -> f64; 4] = [
        |o| o.mips,
        |o| o.ed2,
        |o| o.weighted_mips,
        |o| o.weighted_ed2,
    ];

    let runner = TrialRunner::new();
    // rel[thread_count][metric][algorithm] = mean normalized value.
    let rel: Vec<Vec<Vec<f64>>> = thread_counts
        .iter()
        .map(|&threads| {
            let budget = budget_of(threads);
            let spec = TrialSpec::builder(&ctx, &pool)
                .threads(threads)
                .mix(Mix::Balanced)
                .trials(scale.trials)
                .seed(seed)
                .plan(SeedPlan {
                    mul: 1_000_033,
                    offset: (threads * 1000) as u64,
                    stride: 1,
                })
                .arms(
                    algos
                        .iter()
                        .map(|&(label, policy, manager)| TrialArm {
                            label: label.to_string(),
                            policy,
                            manager,
                            budget,
                            runtime,
                            rng_salt: Some(0x5EED),
                        })
                        .collect(),
                )
                .build()
                .expect("DVFS spec is valid");
            let results = runner.run(&spec);
            metrics.iter().map(|m| mean_relative(&results, m)).collect()
        })
        .collect();

    (0..metrics.len())
        .map(|mi| {
            algos
                .iter()
                .enumerate()
                .map(|(ai, (label, _, _))| {
                    Series::new(
                        *label,
                        thread_counts.iter().map(|&t| t as f64).collect(),
                        rel.iter().map(|per_metric| per_metric[mi][ai]).collect(),
                    )
                })
                .collect()
        })
        .collect()
}

/// Figures 11 and 13: throughput (11a), ED² (11b), weighted throughput
/// (13a), and weighted ED² (13b) relative to `Random+Foxton*` in the
/// Cost-Performance environment, for 4–20 threads.
///
/// Returns `(mips, ed2, weighted_mips, weighted_ed2)` series vectors.
#[allow(clippy::type_complexity)]
pub fn fig11_fig13(
    scale: &Scale,
    seed: u64,
) -> (Vec<Series>, Vec<Series>, Vec<Series>, Vec<Series>) {
    let mut grids = dvfs_grid(scale, seed, &THREAD_COUNTS, PowerBudget::cost_performance);
    let wed2 = grids.pop().expect("four metrics");
    let wmips = grids.pop().expect("four metrics");
    let ed2 = grids.pop().expect("four metrics");
    let mips = grids.pop().expect("four metrics");
    (mips, ed2, wmips, wed2)
}

/// Figure 12: throughput relative to `Random+Foxton*` at 20 threads in
/// the three power environments (50 W, 75 W, 100 W).
///
/// Returns one series per algorithm with x = power target in watts.
pub fn fig12(scale: &Scale, seed: u64) -> Vec<Series> {
    type Env = (f64, fn(usize) -> PowerBudget);
    let environments: [Env; 3] = [
        (50.0, PowerBudget::low_power),
        (75.0, PowerBudget::cost_performance),
        (100.0, PowerBudget::high_performance),
    ];
    let algos = algorithms(scale);
    let mut per_algo: Vec<Vec<f64>> = vec![Vec::new(); algos.len()];
    for (_, budget_of) in environments.iter() {
        // Identical dies and workloads across environments: the power
        // target is the only independent variable.
        let grids = dvfs_grid(scale, seed, &[20], *budget_of);
        for (ai, series) in grids[0].iter().enumerate() {
            per_algo[ai].push(series.y[0]);
        }
    }
    algos
        .iter()
        .enumerate()
        .map(|(ai, (label, _, _))| {
            Series::new(
                *label,
                environments.iter().map(|&(w, _)| w).collect(),
                per_algo[ai].clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            trials: 2,
            duration_ms: 60.0,
            grid: 20,
            sann_evaluations: 3_000,
            ..Scale::smoke()
        }
    }

    #[test]
    fn fig11_linopt_beats_foxton_baseline() {
        let (mips, ed2, _, _) = fig11_fig13(&tiny_scale(), 7);
        assert_eq!(mips.len(), 4);
        let linopt = &mips[2];
        assert_eq!(linopt.label, "VarF&AppIPC+LinOpt");
        let mean = |s: &Series| s.y.iter().sum::<f64>() / s.y.len() as f64;
        // The headline claim's direction: LinOpt above the baseline and
        // above Foxton* with the same scheduler.
        assert!(
            mean(linopt) > 1.0,
            "LinOpt should beat Random+Foxton*: {:?}",
            linopt.y
        );
        assert!(
            mean(linopt) > mean(&mips[1]) - 0.02,
            "LinOpt {:?} vs VarF&AppIPC+Foxton* {:?}",
            linopt.y,
            mips[1].y
        );
        // And ED2 should drop below the baseline.
        let linopt_ed2 = &ed2[2];
        assert!(
            mean(linopt_ed2) < 1.0,
            "LinOpt should cut ED2: {:?}",
            linopt_ed2.y
        );
    }

    #[test]
    fn fig12_has_three_environments() {
        let series = fig12(&tiny_scale(), 8);
        assert_eq!(series.len(), 4);
        for s in &series {
            assert_eq!(s.x, vec![50.0, 75.0, 100.0]);
        }
        // Baseline is 1 in every environment.
        for &v in &series[0].y {
            assert!((v - 1.0).abs() < 1e-9);
        }
    }
}
