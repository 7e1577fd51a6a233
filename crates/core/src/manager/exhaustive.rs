//! Exact search over the (V, f) level space. The paper's exhaustive
//! search "is feasible only for very small systems" (§4.3), so it
//! validates SAnn on up to 4 threads (§6.5). Choosing the levels is a
//! multiple-choice knapsack, which a Pareto-frontier dynamic program
//! (Nemhauser & Ullmann, 1969) solves exactly at any size (DESIGN §3n).

use super::{CoreView, PmView, PowerBudget, PowerManager, SolveReport, SolveStatus, SolverError};
use vastats::SimRng;

/// The most partial sums kept after any core, 16× the largest real
/// 20-thread frontier. Views with MIPS proportional to power keep every
/// distinct sum; past this cap the frontier is thinned.
const MAX_STATES: usize = 1 << 16;

/// The exact solver as a [`PowerManager`] (validation runs only). Its
/// last solve is `Optimal`, `Heuristic` if thinned, or `Fallback` if
/// no point is feasible.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exhaustive {
    last: Option<SolveReport>,
}

impl PowerManager for Exhaustive {
    fn name(&self) -> &'static str {
        "Exhaustive"
    }

    fn levels(&mut self, view: &PmView, budget: &PowerBudget, _rng: &mut SimRng) -> Vec<usize> {
        let (levels, status) = solve(view, budget);
        self.last = Some(SolveReport {
            status,
            ..SolveReport::heuristic(self.name())
        });
        levels
    }

    fn last_solve(&self) -> Option<SolveReport> {
        self.last
    }
}

/// Finds the throughput-optimal feasible levels, summed exactly as
/// [`PmView::feasible`] and [`PmView::throughput_mips`] sum them. Ties
/// in throughput go to the least total power; with no feasible point,
/// all-minimum levels. NaN or infinite entries do not panic.
pub fn exhaustive_levels(view: &PmView, budget: &PowerBudget) -> Vec<usize> {
    solve(view, budget).0
}

/// A partial sum over the cores so far, linked to the state of the
/// previous core's frontier it extends.
#[derive(Debug, Clone, Copy, Default)]
struct State {
    power: f64,
    mips: f64,
    parent: u32,
    level: u32,
}

/// The levels of `core` under the per-core cap, tested as
/// [`PmView::feasible`] tests them.
fn allowed(core: &CoreView, cap_w: f64) -> impl Iterator<Item = usize> + '_ {
    (0..core.level_count()).filter(move |&l| core.power_w[l] <= cap_w + 1e-9)
}

fn solve(view: &PmView, budget: &PowerBudget) -> (Vec<usize>, SolveStatus) {
    let infeasible = (
        view.min_levels(),
        SolveStatus::Fallback(SolverError::Infeasible),
    );
    let cores = view.cores();
    let cheapest: Vec<f64> = cores
        .iter()
        .map(|c| {
            allowed(c, budget.per_core_w)
                .map(|l| c.power_w[l])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    // Float addition is monotone, so a partial sum meets the chip
    // budget with some completion iff it does with the cheapest one,
    // summed in the order `PmView::total_power` sums.
    let overshoots = |power: f64, rest: &[f64]| {
        let total = rest.iter().fold(power, |acc, &p| acc + p);
        view.uncore_power() + total > budget.chip_w + 1e-9
    };
    if overshoots(0.0, &cheapest) {
        return infeasible;
    }

    let mut status = SolveStatus::Optimal;
    let mut frontier = vec![State::default()];
    let mut links: Vec<Vec<(u32, u32)>> = Vec::with_capacity(cores.len());
    let (mut next, mut merged) = (Vec::new(), Vec::new());
    for (k, core) in cores.iter().enumerate() {
        next.clear();
        for level in allowed(core, budget.per_core_w) {
            let step = (core.power_w[level], core.mips_at(level), level as u32);
            merge(&next, &frontier, step, &mut merged);
            std::mem::swap(&mut next, &mut merged);
        }
        let fits = next.partition_point(|s| !overshoots(s.power, &cheapest[k + 1..]));
        next.truncate(fits);
        if next.len() > MAX_STATES {
            // Evenly spaced states, keeping the cheapest (so a feasible
            // point survives) and the richest.
            let last = next.len() - 1;
            for i in 0..MAX_STATES {
                next[i] = next[i * last / (MAX_STATES - 1)];
            }
            next.truncate(MAX_STATES);
            status = SolveStatus::Heuristic;
        }
        links.push(next.iter().map(|s| (s.parent, s.level)).collect());
        std::mem::swap(&mut frontier, &mut next);
    }

    // MIPS rise along the frontier, so its last feasible state is the
    // optimum. On finite views every state left is feasible.
    let Some(mut index) = frontier.iter().rposition(|s| !overshoots(s.power, &[])) else {
        return infeasible;
    };
    let mut levels = vec![0; cores.len()];
    for (k, stage) in links.iter().enumerate().rev() {
        (index, levels[k]) = (stage[index].0 as usize, stage[index].1 as usize);
    }
    debug_assert!(
        view.feasible(&levels, budget),
        "the frontier keeps only feasible points"
    );
    (levels, status)
}

/// Merges `acc` with `prev` extended by one level `(power, mips, level)`
/// into `out`, by ascending power (most MIPS first), keeping the first
/// state and each with more MIPS than all before it (`acc`'s on ties).
fn merge(acc: &[State], prev: &[State], step: (f64, f64, u32), out: &mut Vec<State>) {
    let (power, mips, level) = step;
    let precedes = |a: &State, b: &State| {
        let by_power = a.power.total_cmp(&b.power);
        by_power.then(b.mips.total_cmp(&a.mips)).is_lt()
    };
    let mut acc = acc.iter().copied().peekable();
    let extend = |(i, s): (usize, &State)| State {
        power: s.power + power,
        mips: s.mips + mips,
        parent: i as u32,
        level,
    };
    let mut ext = prev.iter().enumerate().map(extend).peekable();
    out.clear();
    let mut best = f64::NEG_INFINITY;
    loop {
        let state = match (acc.peek(), ext.peek()) {
            (Some(a), Some(b)) if precedes(b, a) => ext.next(),
            (Some(_), _) => acc.next(),
            (None, _) => ext.next(),
        };
        let Some(state) = state else { break };
        if out.is_empty() || state.mips > best {
            best = best.max(state.mips);
            out.push(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::loaded_machine;
    use crate::experiments::Context;
    use crate::manager::{synthetic_core, CoreView};
    use std::sync::Arc;

    /// The reference: visits every point of the level space and keeps
    /// the first point of greatest throughput in its visiting order
    /// (core 0 advances fastest).
    fn odometer_levels(view: &PmView, budget: &PowerBudget) -> Vec<usize> {
        let counts: Vec<usize> = view.cores().iter().map(|c| c.level_count()).collect();
        let n = counts.len();
        let mut point = vec![0usize; n];
        let mut best: Option<(Vec<usize>, f64)> = None;
        loop {
            if view.feasible(&point, budget) {
                let tp = view.throughput_mips(&point);
                if best.as_ref().is_none_or(|(_, b)| tp > *b) {
                    best = Some((point.clone(), tp));
                }
            }
            let mut dim = 0;
            loop {
                if dim == n {
                    return best.map_or_else(|| view.min_levels(), |(p, _)| p);
                }
                point[dim] += 1;
                if point[dim] < counts[dim] {
                    break;
                }
                point[dim] = 0;
                dim += 1;
            }
        }
    }

    /// The solver agrees with the odometer: the same levels, or, where
    /// the odometer's point ties another in throughput bits, a feasible
    /// point of the same throughput. The result is feasible whenever
    /// any point is.
    fn assert_matches_odometer(view: &PmView, budget: &PowerBudget, case: &str) {
        let exact = exhaustive_levels(view, budget);
        let oracle = odometer_levels(view, budget);
        if exact == oracle {
            return;
        }
        assert!(
            view.feasible(&exact, budget),
            "{case}: {exact:?} infeasible"
        );
        assert_eq!(
            view.throughput_mips(&exact).to_bits(),
            view.throughput_mips(&oracle).to_bits(),
            "{case}: {exact:?} vs odometer {oracle:?}"
        );
    }

    fn view(n: usize, levels: usize) -> PmView {
        PmView::from_cores(
            (0..n)
                .map(|i| synthetic_core(i, 0.3 + 0.4 * i as f64, levels, 1.0))
                .collect(),
        )
    }

    /// A core with one (V, f) level.
    fn single_level_core(core: usize, ipc: f64, power_w: f64) -> CoreView {
        CoreView {
            core,
            ipc,
            voltages: Arc::from([0.8]),
            freqs: vec![3.0e9],
            power_w: vec![power_w],
        }
    }

    #[test]
    fn matches_the_odometer_on_synthetic_views() {
        let mut rng = SimRng::seed_from(0x0D0);
        for n in 1..=4 {
            for levels in 1..=9 {
                for case in 0..6 {
                    let cores = (0..n)
                        .map(|i| {
                            let ipc = rng.uniform(0.05, 1.3);
                            if levels == 1 || (case == 5 && i == 0) {
                                single_level_core(i, ipc, rng.uniform(1.0, 4.0))
                            } else {
                                synthetic_core(i, ipc, levels, rng.uniform(0.7, 1.4))
                            }
                        })
                        .collect();
                    let v = PmView::from_cores(cores).with_uncore_power(rng.uniform(0.0, 3.0));
                    let min_p = v.total_power(&v.min_levels());
                    let max_p = v.total_power(&v.max_levels());
                    let max_core = v
                        .cores()
                        .iter()
                        .map(|c| c.power_w[c.level_count() - 1])
                        .fold(0.0, f64::max);
                    let budget = match case {
                        // Generous, mid-range and tight chip budgets.
                        0 => PowerBudget {
                            chip_w: max_p + 1.0,
                            per_core_w: 100.0,
                        },
                        1 | 5 => PowerBudget {
                            chip_w: min_p + rng.uniform(0.2, 0.8) * (max_p - min_p),
                            per_core_w: 100.0,
                        },
                        // A binding per-core cap.
                        2 => PowerBudget {
                            chip_w: max_p,
                            per_core_w: 0.7 * max_core,
                        },
                        // A budget equal to some point's total power.
                        3 => {
                            let point: Vec<usize> = v
                                .cores()
                                .iter()
                                .map(|c| rng.index(c.level_count()))
                                .collect();
                            PowerBudget {
                                chip_w: v.total_power(&point),
                                per_core_w: 100.0,
                            }
                        }
                        // No feasible point.
                        _ => PowerBudget {
                            chip_w: 0.5 * min_p,
                            per_core_w: 100.0,
                        },
                    };
                    let label = format!("{n} cores × {levels} levels, case {case}");
                    assert_matches_odometer(&v, &budget, &label);
                    if case == 4 {
                        assert_eq!(exhaustive_levels(&v, &budget), v.min_levels(), "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn matches_the_odometer_on_loaded_machines() {
        let ctx = Context::new(20);
        let pool = cmpsim::app_pool(&ctx.machine_config().dynamic);
        for threads in 1..=4 {
            for seed in 0..3 {
                let mut rng = SimRng::seed_from(40 + seed);
                let machine = loaded_machine(&ctx, &pool, threads, &mut rng);
                let v = PmView::from_machine(&machine);
                for base_w in [50.0, 75.0, 100.0] {
                    let budget = PowerBudget::scaled(base_w, threads);
                    let label = format!("{threads} threads, seed {seed}, {base_w} W");
                    assert_matches_odometer(&v, &budget, &label);
                    let mut exact = Exhaustive::default();
                    exact.levels(&v, &budget, &mut rng);
                    let status = exact.last_solve().map(|r| r.status);
                    assert!(
                        matches!(
                            status,
                            Some(SolveStatus::Optimal | SolveStatus::Fallback(_))
                        ),
                        "{label}: {status:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn finds_max_levels_under_generous_budget() {
        let v = view(3, 5);
        let budget = PowerBudget {
            chip_w: 1000.0,
            per_core_w: 100.0,
        };
        assert_eq!(exhaustive_levels(&v, &budget), v.max_levels());
    }

    #[test]
    fn result_is_feasible_and_dominates_greedy() {
        let v = view(4, 6);
        let min_p = v.total_power(&v.min_levels());
        let max_p = v.total_power(&v.max_levels());
        let budget = PowerBudget {
            chip_w: (min_p + max_p) / 2.0,
            per_core_w: 100.0,
        };
        let best = exhaustive_levels(&v, &budget);
        assert!(v.feasible(&best, &budget));
        let greedy = crate::manager::sann::greedy_levels(&v, &budget);
        assert!(v.throughput_mips(&best) >= v.throughput_mips(&greedy) - 1e-9);
    }

    #[test]
    fn infeasible_space_returns_minimum() {
        let v = view(2, 4);
        let budget = PowerBudget {
            chip_w: 0.0001,
            per_core_w: 100.0,
        };
        let mut exact = Exhaustive::default();
        assert_eq!(
            exact.levels(&v, &budget, &mut SimRng::seed_from(0)),
            v.min_levels()
        );
        assert_eq!(
            exact.last_solve().map(|r| r.status),
            Some(SolveStatus::Fallback(SolverError::Infeasible))
        );
    }

    /// MIPS proportional to power on every core: no partial sum
    /// dominates another, so the frontier hits the state cap. The
    /// solver thins it, still returns a feasible point and says so.
    #[test]
    fn proportional_view_is_thinned_to_a_feasible_point() {
        let mut rng = SimRng::seed_from(7);
        let cores: Vec<CoreView> = (0..20)
            .map(|i| {
                let mut c = synthetic_core(i, rng.uniform(0.3, 1.2), 9, 1.0);
                let mut freq = 1.0e9;
                for f in &mut c.freqs {
                    freq += rng.uniform(0.1e9, 0.4e9);
                    *f = freq;
                }
                c.power_w = (0..9).map(|l| c.mips_at(l) / 400.0).collect();
                c
            })
            .collect();
        let v = PmView::from_cores(cores);
        let min_p = v.total_power(&v.min_levels());
        let max_p = v.total_power(&v.max_levels());
        let budget = PowerBudget {
            chip_w: (min_p + max_p) / 2.0,
            per_core_w: 100.0,
        };
        let mut exact = Exhaustive::default();
        let levels = exact.levels(&v, &budget, &mut rng);
        assert!(v.feasible(&levels, &budget));
        assert_eq!(
            exact.last_solve().map(|r| r.status),
            Some(SolveStatus::Heuristic)
        );
        let greedy = crate::manager::sann::greedy_levels(&v, &budget);
        assert!(v.throughput_mips(&levels) >= 0.99 * v.throughput_mips(&greedy));
    }

    #[test]
    fn non_finite_views_do_not_panic() {
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for (case, &bad) in specials.iter().cycle().take(12).enumerate() {
            let mut cores: Vec<CoreView> = (0..3)
                .map(|i| synthetic_core(i, 0.5 + 0.2 * i as f64, 5, 1.0))
                .collect();
            let core = &mut cores[case % 3];
            match case / 3 {
                0 => core.power_w[case % 5] = bad,
                1 => core.ipc = bad,
                2 => core.freqs[case % 5] = bad,
                _ => core.power_w.iter_mut().for_each(|p| *p = bad),
            }
            let v = PmView::from_cores(cores);
            for budget in [
                PowerBudget {
                    chip_w: 6.0,
                    per_core_w: 100.0,
                },
                PowerBudget {
                    chip_w: bad,
                    per_core_w: bad,
                },
            ] {
                let levels = exhaustive_levels(&v, &budget);
                assert!(
                    levels == v.min_levels() || v.feasible(&levels, &budget),
                    "case {case}: {levels:?}"
                );
            }
        }
    }
}
