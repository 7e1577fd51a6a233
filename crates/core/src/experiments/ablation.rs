//! Ablations of LinOpt's design choices (DESIGN.md §5).
//!
//! * **Fit points**: the paper fits power at 3 voltages and mentions 2
//!   as the minimum (§5.2). How much does the coarser fit cost?
//! * **Rounding**: the LP's continuous voltage must land on a discrete
//!   level. Round-down never overshoots the linearized budget;
//!   round-to-nearest gains throughput but risks violations that the
//!   monitoring loop must repair.
//! * **IPC–frequency independence**: LinOpt assumes a thread's IPC does
//!   not change with frequency. The simulator knows the truth, so the
//!   assumption's prediction error is measurable.

use super::{Context, Scale, Series};
use crate::engine::{
    loaded_machine, mean_relative, mean_relative_to, SeedPlan, TrialArm, TrialRunner, TrialSpec,
};
use crate::manager::linopt::{linopt_levels_with, RoundingPolicy};
use crate::manager::{ManagerSpec, PmView, PowerBudget};
use crate::runtime::RuntimeConfig;
use crate::sched::SchedulerSpec;
use cmpsim::{app_pool, Mix};
use varius::VariationConfig;
use vastats::SimRng;

/// Outcome of one ablation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationPoint {
    /// Achieved throughput (MIPS) at the manager's chosen levels.
    pub mips: f64,
    /// Measured power at the chosen levels (watts).
    pub power_w: f64,
    /// Whether the chosen levels satisfied both constraints *before*
    /// any repair would run (violations measured against the raw LP
    /// output are what the rounding policy risks).
    pub feasible: bool,
}

/// Compares LinOpt variants (fit points × rounding) on fresh machine
/// states. Returns `(label, point)` pairs averaged over `scale.trials`
/// states.
pub fn linopt_variants(scale: &Scale, seed: u64, threads: usize) -> Vec<(String, AblationPoint)> {
    let ctx = Context::new(scale.grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let variants = [
        ("3-point fit, round down", 3usize, RoundingPolicy::Down),
        ("2-point fit, round down", 2, RoundingPolicy::Down),
        ("3-point fit, round nearest", 3, RoundingPolicy::Nearest),
    ];
    let plan = SeedPlan {
        stride: 6011,
        ..SeedPlan::default()
    };

    // per_trial[trial][variant] = (mips, power, feasible).
    let per_trial = TrialRunner::new().map(scale.trials, |trial| {
        let mut rng = SimRng::seed_from(plan.derive(seed, trial));
        let machine = loaded_machine(&ctx, &pool, threads, &mut rng);
        let view = PmView::from_machine(&machine);
        let budget = PowerBudget::cost_performance(threads);
        variants
            .iter()
            .map(|&(_, points, rounding)| {
                let levels = linopt_levels_with(&view, &budget, points, rounding);
                (
                    view.throughput_mips(&levels),
                    view.total_power(&levels),
                    view.feasible(&levels, &budget),
                )
            })
            .collect::<Vec<_>>()
    });

    variants
        .iter()
        .enumerate()
        .map(|(vi, &(label, _, _))| {
            let mips: f64 = per_trial.iter().map(|t| t[vi].0).sum();
            let power: f64 = per_trial.iter().map(|t| t[vi].1).sum();
            (
                label.to_string(),
                AblationPoint {
                    mips: mips / scale.trials as f64,
                    power_w: power / scale.trials as f64,
                    feasible: per_trial.iter().all(|t| t[vi].2),
                },
            )
        })
        .collect()
}

/// Measures the IPC–frequency-independence assumption: for each active
/// thread, compares the IPC LinOpt assumed (profiled at the current
/// frequency) against the true IPC at the frequency LinOpt chose.
/// Returns the mean absolute relative error over threads and trials.
pub fn ipc_frequency_error(scale: &Scale, seed: u64, threads: usize) -> f64 {
    let ctx = Context::new(scale.grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let plan = SeedPlan {
        stride: 6029,
        ..SeedPlan::default()
    };

    let per_trial = TrialRunner::new().map(scale.trials, |trial| {
        let mut rng = SimRng::seed_from(plan.derive(seed, trial));
        let machine = loaded_machine(&ctx, &pool, threads, &mut rng);
        let view = PmView::from_machine(&machine);
        let budget = PowerBudget::cost_performance(threads);
        let levels = linopt_levels_with(&view, &budget, 3, RoundingPolicy::Down);

        let mut err = 0.0;
        let mut count = 0usize;
        for (core_view, &level) in view.cores().iter().zip(&levels) {
            let assumed_ipc = core_view.ipc;
            let chosen_f = core_view.freqs[level];
            if chosen_f <= 0.0 {
                continue;
            }
            let thread_idx = machine.thread_of(core_view.core).expect("active core");
            let true_ipc = machine.threads()[thread_idx].ipc_now(chosen_f);
            err += ((true_ipc - assumed_ipc) / true_ipc).abs();
            count += 1;
        }
        (err, count)
    });
    let total_err: f64 = per_trial.iter().map(|&(e, _)| e).sum();
    let count: usize = per_trial.iter().map(|&(_, c)| c).sum();
    total_err / count.max(1) as f64
}

/// DVFS granularity sweep (Herbert & Marculescu): throughput of
/// `DomainLinOpt` at domain sizes {1, 2, 4, 10, 20}, normalized to the
/// per-core (size 1) result, at 20 threads in the Cost-Performance
/// environment.
pub fn granularity(scale: &Scale, seed: u64) -> Series {
    let ctx = Context::new(scale.grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let sizes = [1usize, 2, 4, 10, 20];
    let runtime = RuntimeConfig {
        duration_ms: scale.duration_ms,
        os_interval_ms: scale.duration_ms.min(100.0),
        ..RuntimeConfig::paper_default()
    };
    let budget = PowerBudget::cost_performance(20);

    let spec = TrialSpec::builder(&ctx, &pool)
        .threads(20)
        .mix(Mix::Balanced)
        .trials(scale.trials)
        .seed(seed)
        .plan(SeedPlan {
            mul: 6151,
            ..SeedPlan::default()
        })
        .arms(
            sizes
                .iter()
                .map(|&size| TrialArm {
                    label: format!("{size} cores/domain"),
                    policy: SchedulerSpec::VarFAppIpc,
                    manager: ManagerSpec::DomainLinOpt {
                        cores_per_domain: size,
                    },
                    budget,
                    runtime,
                    rng_salt: Some(0xD0),
                })
                .collect(),
        )
        .build()
        .expect("ablation spec is valid");
    let results = TrialRunner::new().run(&spec);
    Series::new(
        "relative MIPS",
        sizes.iter().map(|&s| s as f64).collect(),
        mean_relative(&results, |o| o.mips),
    )
}

/// Transition-cost sweep: throughput of VarF&AppIPC+LinOpt vs DVFS
/// interval {1, 5, 10, 50} ms under XScale-class transition costs,
/// normalized to the 10 ms paper default. Too-frequent re-optimization
/// pays voltage-ramp stalls; too-infrequent misses phases.
pub fn transition_cost(scale: &Scale, seed: u64, threads: usize) -> Series {
    let ctx = Context::new(scale.grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let intervals = [1.0f64, 5.0, 10.0, 50.0];
    let budget = PowerBudget::cost_performance(threads);

    let spec = TrialSpec::builder(&ctx, &pool)
        .threads(threads)
        .mix(Mix::Balanced)
        .trials(scale.trials)
        .seed(seed)
        .plan(SeedPlan {
            mul: 6301,
            ..SeedPlan::default()
        })
        .arms(
            intervals
                .iter()
                .map(|&interval| {
                    let duration = scale.duration_ms.max(interval * 4.0).max(100.0);
                    TrialArm {
                        label: format!("{interval} ms"),
                        policy: SchedulerSpec::VarFAppIpc,
                        manager: ManagerSpec::LinOpt,
                        budget,
                        runtime: RuntimeConfig {
                            dvfs_interval_ms: interval,
                            os_interval_ms: duration.min(100.0).max(interval),
                            duration_ms: duration,
                            ..RuntimeConfig::paper_default()
                        },
                        rng_salt: Some(0xD1),
                    }
                })
                .collect(),
        )
        .build()
        .expect("ablation spec is valid");
    let results = TrialRunner::new().run(&spec);
    Series::new(
        "relative MIPS",
        intervals.to_vec(),
        mean_relative_to(&results, 2, |o| o.mips), // 10 ms is the baseline
    )
}

/// Workload-mix sensitivity: the VarF&AppIPC+LinOpt gain over
/// Random+Foxton* per [`Mix`], at 16 threads in the Cost-Performance
/// environment. Variation-aware policies feed on heterogeneity, so a
/// homogeneous (e.g. memory-only) mix should show smaller gains than
/// the paper's balanced draw.
///
/// Returns `(mix name, relative MIPS)` pairs.
pub fn mix_sensitivity(scale: &Scale, seed: u64) -> Vec<(String, f64)> {
    let ctx = Context::new(scale.grid);
    let pool = app_pool(&ctx.machine_config().dynamic);
    let threads = 16;
    let budget = PowerBudget::cost_performance(threads);
    let runtime = RuntimeConfig {
        duration_ms: scale.duration_ms,
        os_interval_ms: scale.duration_ms.min(100.0),
        ..RuntimeConfig::paper_default()
    };
    let mixes = [
        (Mix::Balanced, "balanced"),
        (Mix::MemoryHeavy, "memory-heavy"),
        (Mix::ComputeHeavy, "compute-heavy"),
        (Mix::FpOnly, "fp-only"),
        (Mix::IntOnly, "int-only"),
    ];
    let runner = TrialRunner::new();

    mixes
        .iter()
        .map(|&(mix, name)| {
            let arm = |label: &str, policy, manager| TrialArm {
                label: label.to_string(),
                policy,
                manager,
                budget,
                runtime,
                rng_salt: Some(0xA1),
            };
            let spec = TrialSpec::builder(&ctx, &pool)
                .threads(threads)
                .mix(mix)
                .trials(scale.trials)
                .seed(seed)
                .plan(SeedPlan {
                    mul: 6473,
                    ..SeedPlan::default()
                })
                .arms(vec![
                    arm(
                        "Random+Foxton*",
                        SchedulerSpec::Random,
                        ManagerSpec::FoxtonStar,
                    ),
                    arm(
                        "VarF&AppIPC+LinOpt",
                        SchedulerSpec::VarFAppIpc,
                        ManagerSpec::LinOpt,
                    ),
                ])
                .build()
                .expect("ablation spec is valid");
            let results = runner.run(&spec);
            (name.to_string(), mean_relative(&results, |o| o.mips)[1])
        })
        .collect()
}

/// The paper's premise, quantified: the variation-aware scheduling gain
/// (VarF&AppIPC over Random, NUniFreq, no DVFS) as a function of Vth
/// σ/µ. With no variation the cores are identical and the gain must
/// vanish; it should grow with σ.
///
/// Returns a series with x = σ/µ and y = relative MIPS.
pub fn gain_vs_sigma(scale: &Scale, seed: u64, threads: usize) -> Series {
    let sigmas = [0.01, 0.03, 0.06, 0.09, 0.12];
    let pool = app_pool(&Context::new(scale.grid).machine_config().dynamic);
    let budget = PowerBudget::high_performance(threads);
    let runtime = RuntimeConfig {
        duration_ms: scale.duration_ms,
        os_interval_ms: scale.duration_ms.min(100.0),
        ..RuntimeConfig::paper_default()
    };
    let runner = TrialRunner::new();

    let y: Vec<f64> = sigmas
        .iter()
        .map(|&sigma| {
            let ctx = Context::with_variation(VariationConfig {
                grid: scale.grid,
                vth_sigma_over_mu: sigma,
                ..VariationConfig::paper_default()
            });
            let arm = |label: &str, policy| TrialArm {
                label: label.to_string(),
                policy,
                manager: ManagerSpec::None,
                budget,
                runtime,
                rng_salt: Some(0xB2),
            };
            let spec = TrialSpec::builder(&ctx, &pool)
                .threads(threads)
                .mix(Mix::Balanced)
                .trials(scale.trials)
                .seed(seed)
                .plan(SeedPlan {
                    mul: 6553,
                    ..SeedPlan::default()
                })
                .arms(vec![
                    arm("Random", SchedulerSpec::Random),
                    arm("VarF&AppIPC", SchedulerSpec::VarFAppIpc),
                ])
                .build()
                .expect("ablation spec is valid");
            mean_relative(&runner.run(&spec), |o| o.mips)[1]
        })
        .collect();
    Series::new("VarF&AppIPC / Random", sigmas.to_vec(), y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            trials: 2,
            grid: 20,
            ..Scale::smoke()
        }
    }

    #[test]
    fn three_point_round_down_is_feasible() {
        let variants = linopt_variants(&tiny(), 13, 8);
        assert_eq!(variants.len(), 3);
        let (label, point) = &variants[0];
        assert!(label.contains("3-point"));
        assert!(point.feasible, "repaired round-down must be feasible");
        assert!(point.mips > 0.0);
    }

    #[test]
    fn two_point_fit_does_not_collapse() {
        let variants = linopt_variants(&tiny(), 14, 8);
        let three = variants[0].1.mips;
        let two = variants[1].1.mips;
        // The degraded fit loses at most a modest fraction of throughput.
        assert!(two > 0.7 * three, "2-point {two} vs 3-point {three}");
    }

    #[test]
    fn granularity_prefers_fine_domains() {
        let s = granularity(&tiny(), 16);
        // Per-core (x=1) normalizes to 1; chip-wide (x=20) must not be
        // better than per-core.
        assert!((s.y[0] - 1.0).abs() < 1e-9);
        assert!(s.y[4] <= 1.01, "chip-wide {:?}", s.y);
    }

    #[test]
    fn transition_cost_sweep_runs() {
        let s = transition_cost(&tiny(), 17, 8);
        assert_eq!(s.y.len(), 4);
        // 10 ms normalizes to 1; all points within a sane band.
        assert!((s.y[2] - 1.0).abs() < 1e-9);
        for &v in &s.y {
            assert!(v > 0.8 && v < 1.2, "{:?}", s.y);
        }
    }

    #[test]
    fn gains_vanish_without_variation() {
        let scale = Scale {
            trials: 3,
            ..tiny()
        };
        let s = gain_vs_sigma(&scale, 19, 8);
        // Near-zero variation: cores are near-identical, so the
        // variation-aware gain is within noise of zero.
        assert!(
            (s.y[0] - 1.0).abs() < 0.01,
            "sigma 0.01 gain should vanish: {:?}",
            s.y
        );
        // Full variation: a clear gain.
        assert!(s.y[4] > s.y[0] + 0.01, "{:?}", s.y);
    }

    #[test]
    fn mix_sensitivity_runs_all_mixes() {
        let rows = mix_sensitivity(&tiny(), 18);
        assert_eq!(rows.len(), 5);
        for (name, ratio) in &rows {
            assert!(*ratio > 0.8 && *ratio < 1.5, "{name}: {ratio}");
        }
    }

    #[test]
    fn ipc_assumption_error_is_moderate() {
        let err = ipc_frequency_error(&tiny(), 15, 8);
        // IPC rises as frequency drops; the assumption errs by some
        // percent but not wildly (memory-bound apps bound the effect).
        assert!((0.0..0.5).contains(&err), "mean relative error {err}");
    }
}
