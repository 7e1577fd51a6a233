//! SAnn — power management by simulated annealing (paper §4.3.2, §6.5).
//!
//! SAnn searches the same space as LinOpt — one (V, f) level per active
//! core — but evaluates power *exactly* per level (no linear
//! approximation). It is the paper's near-optimal reference: within 1%
//! of exhaustive search for small configurations, and ~2% above LinOpt
//! in throughput, at orders of magnitude higher computation cost.
//!
//! The initial point comes from "a simple greedy heuristic": starting
//! from all-minimum levels, repeatedly grant one level step to the core
//! with the best marginal throughput per watt while the budget holds.

use crate::manager::{PmView, PowerBudget, PowerManager};
use anneal::{AnnealConfig, Annealer, Objective};
use vastats::SimRng;

/// The SAnn controller as a [`PowerManager`] with a fixed evaluation
/// budget per invocation.
#[derive(Debug, Clone, Copy)]
pub struct SAnn {
    evaluations: usize,
}

impl SAnn {
    /// A controller spending `evaluations` cost evaluations per DVFS
    /// interval.
    ///
    /// # Panics
    ///
    /// Panics if `evaluations` is zero.
    pub fn new(evaluations: usize) -> Self {
        assert!(evaluations > 0, "SAnn needs an evaluation budget");
        Self { evaluations }
    }
}

impl PowerManager for SAnn {
    fn name(&self) -> &'static str {
        "SAnn"
    }

    fn levels(&mut self, view: &PmView, budget: &PowerBudget, rng: &mut SimRng) -> Vec<usize> {
        sann_levels(view, budget, self.evaluations, rng)
    }
}

/// Penalty weight (MIPS per watt of violation) that makes
/// budget-violating points strictly worse than any feasible point.
const PENALTY_MIPS_PER_W: f64 = 1.0e6;

/// Greedy warm start: climb level-by-level, best throughput-per-watt
/// first, while the budget holds.
pub fn greedy_levels(view: &PmView, budget: &PowerBudget) -> Vec<usize> {
    let n = view.len();
    let mut levels = view.min_levels();
    loop {
        let current_power = view.total_power(&levels);
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            let core = &view.cores()[i];
            if levels[i] + 1 >= core.level_count() {
                continue;
            }
            let dp = core.power_w[levels[i] + 1] - core.power_w[levels[i]];
            let dtp = core.mips_at(levels[i] + 1) - core.mips_at(levels[i]);
            if current_power + dp > budget.chip_w || core.power_w[levels[i] + 1] > budget.per_core_w
            {
                continue;
            }
            let efficiency = if dp > 1e-12 { dtp / dp } else { f64::INFINITY };
            if best.is_none_or(|(_, e)| efficiency > e) {
                best = Some((i, efficiency));
            }
        }
        match best {
            Some((i, _)) => levels[i] += 1,
            None => return levels,
        }
    }
}

/// Computes SAnn's level assignment with the given evaluation budget.
///
/// Guarantees a feasible result whenever the all-minimum point is
/// feasible: if annealing's best point violates the budget, the greedy
/// warm start is returned instead.
///
/// # Panics
///
/// Panics if the view is empty or `evaluations` is zero.
pub fn sann_levels(
    view: &PmView,
    budget: &PowerBudget,
    evaluations: usize,
    rng: &mut SimRng,
) -> Vec<usize> {
    assert!(!view.is_empty(), "no active cores to manage");
    let level_counts: Vec<usize> = view.cores().iter().map(|c| c.level_count()).collect();
    let initial = greedy_levels(view, budget);

    let config = AnnealConfig::for_dimensions(view.len()).with_evaluations(evaluations);
    let annealer = Annealer::new(config);
    let result = annealer.minimize_objective(
        &level_counts,
        &initial,
        &mut SannObjective::new(view, budget),
        rng,
    );

    if view.feasible(&result.point, budget) {
        result.point
    } else {
        initial
    }
}

/// Cost to minimize: negative throughput plus a steep penalty for
/// violating either power constraint. The oracle that
/// [`SannObjective`]'s exact path reproduces bit for bit.
#[cfg(test)]
fn cost(view: &PmView, budget: &PowerBudget, levels: &[usize]) -> f64 {
    let tp = view.throughput_mips(levels);
    let total = view.total_power(levels);
    let mut violation = (total - budget.chip_w).max(0.0);
    for (c, &l) in view.cores().iter().zip(levels) {
        violation += (c.power_w[l] - budget.per_core_w).max(0.0);
    }
    -tp + PENALTY_MIPS_PER_W * violation
}

/// One (core, level) entry of [`SannObjective`]'s tables, or the sum
/// of the entries of a level vector.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    mips: f64,
    power_w: f64,
    /// Power above the per-core cap, `(power − cap).max(0)`.
    excess_w: f64,
}

/// SAnn's cost as an [`Objective`] over flattened (core, level) tables
/// built once per invocation.
///
/// The exact path is one pass over the tables in the order of the
/// throughput, total-power and violation sums the cost is defined by,
/// so it returns the same bits. The lower bound of a one-level move
/// updates the current point's exact sums by one entry and subtracts
/// [`SannObjective::error_bound`], which covers the rounding of both the
/// exact pass and the O(1) update. The current sums come from the exact
/// pass of the last accepted point, so they never drift.
#[derive(Debug, Clone)]
struct SannObjective {
    /// `table[offsets[i] + l]` is core `i` at level `l`.
    table: Vec<Entry>,
    offsets: Vec<usize>,
    uncore_w: f64,
    chip_w: f64,
    /// Bound on |exact cost − O(1) estimate| for any one-level move;
    /// infinite when a table entry is not finite, which turns the
    /// screen off.
    error_bound: f64,
    /// Entry sums of the current point.
    current: Entry,
    /// Entry sums of the point last passed to `cost`.
    evaluated: Entry,
}

impl SannObjective {
    fn new(view: &PmView, budget: &PowerBudget) -> Self {
        let mut table = Vec::new();
        let mut offsets = Vec::with_capacity(view.len());
        for core in view.cores() {
            offsets.push(table.len());
            table.extend((0..core.level_count()).map(|l| Entry {
                mips: core.mips_at(l),
                power_w: core.power_w[l],
                excess_w: (core.power_w[l] - budget.per_core_w).max(0.0),
            }));
        }
        let uncore_w = view.uncore_power();
        let finite = uncore_w.is_finite()
            && budget.chip_w.is_finite()
            && table
                .iter()
                .all(|e| e.mips.is_finite() && e.power_w.is_finite() && e.excess_w.is_finite());
        // Against the exact values of the table entries, the exact pass
        // rounds at most 2n + 5 times and the O(1) estimate (which
        // starts from the exact pass's sums) n + 8 times, on terms
        // bounded by these magnitudes: throughput by Σ max|MIPS|, the
        // violation by Σ max|W| + uncore + |budget| + Σ max excess,
        // scaled by the penalty. 4(n + 4)·ε covers the two together,
        // (3n + 13)·ε/2, about twice over, which also covers rounding
        // the bound and subtracting it.
        let error_bound = if finite {
            let widest = |field: fn(&Entry) -> f64| -> f64 {
                offsets
                    .iter()
                    .zip(view.cores())
                    .map(|(&off, core)| {
                        table[off..off + core.level_count()]
                            .iter()
                            .map(|e| field(e).abs())
                            .fold(0.0, f64::max)
                    })
                    .sum()
            };
            let watts =
                widest(|e| e.power_w) + uncore_w + budget.chip_w.abs() + widest(|e| e.excess_w);
            let scale = widest(|e| e.mips) + PENALTY_MIPS_PER_W * watts;
            4.0 * (view.len() + 4) as f64 * f64::EPSILON * scale
        } else {
            f64::INFINITY
        };
        Self {
            table,
            offsets,
            uncore_w,
            chip_w: budget.chip_w,
            error_bound,
            current: Entry::default(),
            evaluated: Entry::default(),
        }
    }
}

impl Objective for SannObjective {
    fn cost(&mut self, levels: &[usize]) -> f64 {
        // The sums start at −0.0 as `Iterator::sum` does; the uncore
        // power joins the core sum afterwards, the chip excess leads
        // the violation, and the per-core excesses follow in core order.
        let mut sums = Entry {
            mips: -0.0,
            power_w: -0.0,
            excess_w: 0.0,
        };
        for (&off, &l) in self.offsets.iter().zip(levels) {
            let e = &self.table[off + l];
            sums.mips += e.mips;
            sums.power_w += e.power_w;
            sums.excess_w += e.excess_w;
        }
        self.evaluated = sums;
        let total = self.uncore_w + sums.power_w;
        let mut violation = (total - self.chip_w).max(0.0);
        for (&off, &l) in self.offsets.iter().zip(levels) {
            violation += self.table[off + l].excess_w;
        }
        -sums.mips + PENALTY_MIPS_PER_W * violation
    }

    fn accept(&mut self) {
        self.current = self.evaluated;
    }

    fn lower_bound(&self, current: &[usize], dim: usize, level: usize) -> f64 {
        let off = self.offsets[dim];
        let from = &self.table[off + current[dim]];
        let to = &self.table[off + level];
        let mips = self.current.mips - from.mips + to.mips;
        let power_w = self.current.power_w - from.power_w + to.power_w;
        let excess_w = self.current.excess_w - from.excess_w + to.excess_w;
        let chip_excess = (self.uncore_w + power_w - self.chip_w).max(0.0);
        -mips + PENALTY_MIPS_PER_W * (chip_excess + excess_w) - self.error_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::exhaustive::exhaustive_levels;
    use crate::manager::view::synthetic_core;
    use crate::manager::CoreView;
    use std::cell::Cell;
    use std::sync::Arc;

    fn view(n: usize) -> PmView {
        PmView::from_cores(
            (0..n)
                .map(|i| synthetic_core(i, 0.2 + 0.35 * i as f64, 9, 1.0))
                .collect(),
        )
    }

    fn mid_budget(v: &PmView) -> PowerBudget {
        let min_p = v.total_power(&v.min_levels());
        let max_p = v.total_power(&v.max_levels());
        PowerBudget {
            chip_w: (min_p + max_p) / 2.0,
            per_core_w: 100.0,
        }
    }

    #[test]
    fn greedy_is_feasible() {
        let v = view(4);
        let budget = mid_budget(&v);
        let g = greedy_levels(&v, &budget);
        assert!(v.feasible(&g, &budget));
    }

    #[test]
    fn greedy_saturates_generous_budget() {
        let v = view(3);
        let budget = PowerBudget {
            chip_w: 1000.0,
            per_core_w: 100.0,
        };
        assert_eq!(greedy_levels(&v, &budget), v.max_levels());
    }

    #[test]
    fn sann_result_is_feasible() {
        let v = view(4);
        let budget = mid_budget(&v);
        let mut rng = SimRng::seed_from(21);
        let levels = sann_levels(&v, &budget, 10_000, &mut rng);
        assert!(v.feasible(&levels, &budget));
    }

    #[test]
    fn sann_at_least_as_good_as_greedy() {
        let v = view(4);
        let budget = mid_budget(&v);
        let mut rng = SimRng::seed_from(22);
        let g = greedy_levels(&v, &budget);
        let s = sann_levels(&v, &budget, 20_000, &mut rng);
        assert!(v.throughput_mips(&s) >= v.throughput_mips(&g) - 1e-9);
    }

    #[test]
    fn sann_matches_exhaustive_within_one_percent() {
        // The paper's validation (§6.5): for <= 4 threads, SAnn is within
        // 1% of exhaustive search.
        for seed in [1u64, 2, 3] {
            let v = view(4);
            let budget = mid_budget(&v);
            let best = exhaustive_levels(&v, &budget);
            let mut rng = SimRng::seed_from(seed);
            let s = sann_levels(&v, &budget, 50_000, &mut rng);
            let ratio = v.throughput_mips(&s) / v.throughput_mips(&best);
            assert!(ratio > 0.99, "seed {seed}: SAnn at {ratio} of optimal");
        }
    }

    /// A core with a single level: every proposal on it clamps.
    fn one_level_core(core: usize, ipc: f64, power_w: f64) -> CoreView {
        CoreView {
            core,
            ipc,
            voltages: Arc::from([0.8]),
            freqs: vec![3.0e9],
            power_w: vec![power_w],
        }
    }

    /// `n` cores with 1–9 levels each, random IPCs and power scales.
    fn random_view(n: usize, rng: &mut SimRng) -> PmView {
        PmView::from_cores(
            (0..n)
                .map(|i| {
                    let ipc = 0.2 + 1.8 * rng.next_f64();
                    let scale = 0.5 + rng.next_f64();
                    match 1 + rng.index(9) {
                        1 => one_level_core(i, ipc, 3.0 * scale),
                        levels => synthetic_core(i, ipc, levels, scale),
                    }
                })
                .collect(),
        )
    }

    /// Runs SAnn's walk over `view` from the greedy start twice, through
    /// the screened objective and through the exact `cost` closure, and
    /// asserts the two are bit-identical down to the RNG end state.
    fn assert_screen_is_exact(view: &PmView, budget: &PowerBudget, evaluations: usize, seed: u64) {
        let counts: Vec<usize> = view.cores().iter().map(|c| c.level_count()).collect();
        let initial = greedy_levels(view, budget);
        let annealer =
            Annealer::new(AnnealConfig::for_dimensions(view.len()).with_evaluations(evaluations));
        let mut exact_rng = SimRng::seed_from(seed);
        let exact = annealer.minimize(&counts, &initial, |x| cost(view, budget, x), &mut exact_rng);
        let mut screened_rng = SimRng::seed_from(seed);
        let screened = annealer.minimize_objective(
            &counts,
            &initial,
            &mut SannObjective::new(view, budget),
            &mut screened_rng,
        );
        let context = format!("{} cores, {budget:?}, seed {seed}", view.len());
        assert_eq!(screened.point, exact.point, "{context}");
        assert_eq!(screened.cost.to_bits(), exact.cost.to_bits(), "{context}");
        assert_eq!(screened.evaluations, exact.evaluations, "{context}");
        assert_eq!(screened.accepted, exact.accepted, "{context}");
        assert_eq!(screened_rng.state(), exact_rng.state(), "{context}");
    }

    /// Real 20-thread views: seeded dies, paper workloads, a few warm
    /// ticks, the Cost-Performance budget.
    fn machine_views() -> Vec<(PmView, PowerBudget)> {
        let ctx = crate::experiments::Context::new(24);
        let pool = cmpsim::app_pool(&ctx.machine_config().dynamic);
        (0..3u64)
            .map(|seed| {
                let mut rng = SimRng::seed_from(40 + seed);
                let mut machine = crate::engine::loaded_machine(&ctx, &pool, 20, &mut rng);
                for _ in 0..4 {
                    machine.step(0.001);
                }
                (
                    PmView::from_machine(&machine),
                    PowerBudget::cost_performance(20),
                )
            })
            .collect()
    }

    #[test]
    fn screened_walk_matches_exact_on_synthetic_views() {
        let mut rng = SimRng::seed_from(31);
        for n in [1usize, 2, 4, 20] {
            for trial in 0..3u64 {
                let v = random_view(n, &mut rng);
                let min_p = v.total_power(&v.min_levels());
                let max_p = v.total_power(&v.max_levels());
                let widest = v.cores().iter().map(|c| c.power_w[c.level_count() - 1]);
                let budgets = [
                    mid_budget(&v),
                    // Impossible and generous chip budgets.
                    PowerBudget {
                        chip_w: 0.001,
                        per_core_w: 100.0,
                    },
                    PowerBudget {
                        chip_w: 10.0 * max_p,
                        per_core_w: 100.0,
                    },
                    // A per-core cap below the hottest core's top level.
                    PowerBudget {
                        chip_w: max_p,
                        per_core_w: 0.8 * widest.fold(0.0, f64::max),
                    },
                ];
                for budget in budgets {
                    assert_screen_is_exact(&v, &budget, 20_000, 100 * n as u64 + trial);
                }
                // Uncore power above the whole chip budget: the chip
                // excess is positive at every point.
                let over = v.clone().with_uncore_power(max_p);
                let budget = PowerBudget {
                    chip_w: 0.5 * (min_p + max_p),
                    per_core_w: 100.0,
                };
                assert_screen_is_exact(&over, &budget, 20_000, 7 + trial);
            }
        }
    }

    #[test]
    fn screened_walk_matches_exact_on_single_level_cores() {
        let only = PmView::from_cores((0..4).map(|i| one_level_core(i, 1.0, 2.0)).collect());
        assert_screen_is_exact(&only, &mid_budget(&only), 5_000, 41);
        let mut cores: Vec<CoreView> = (0..6)
            .map(|i| synthetic_core(i, 0.3 + 0.2 * i as f64, 9, 1.0))
            .collect();
        cores[1] = one_level_core(1, 1.2, 2.5);
        cores[4] = one_level_core(4, 0.4, 1.5);
        let mixed = PmView::from_cores(cores);
        assert_screen_is_exact(&mixed, &mid_budget(&mixed), 20_000, 42);
    }

    #[test]
    fn screened_walk_matches_exact_with_non_finite_power() {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut cores: Vec<CoreView> = (0..4)
                .map(|i| synthetic_core(i, 0.2 + 0.35 * i as f64, 9, 1.0))
                .collect();
            cores[2].power_w[5] = bad;
            let v = PmView::from_cores(cores);
            let budget = PowerBudget {
                chip_w: 6.0,
                per_core_w: 100.0,
            };
            assert!(SannObjective::new(&v, &budget).error_bound.is_infinite());
            assert_screen_is_exact(&v, &budget, 20_000, 43);
        }
    }

    #[test]
    fn screened_walk_matches_exact_on_machine_views() {
        for (i, (view, budget)) in machine_views().iter().enumerate() {
            assert_eq!(view.len(), 20);
            assert_screen_is_exact(view, budget, 30_000, 50 + i as u64);
        }
    }

    /// Counts the exact evaluations and the non-clamped proposals (each
    /// gets one bound) of a walk.
    struct Counting {
        inner: SannObjective,
        exact: usize,
        bounded: Cell<usize>,
    }

    impl Objective for Counting {
        fn cost(&mut self, x: &[usize]) -> f64 {
            self.exact += 1;
            self.inner.cost(x)
        }

        fn accept(&mut self) {
            self.inner.accept();
        }

        fn lower_bound(&self, current: &[usize], dim: usize, level: usize) -> f64 {
            self.bounded.set(self.bounded.get() + 1);
            self.inner.lower_bound(current, dim, level)
        }
    }

    #[test]
    fn screen_skips_most_exact_evaluations_on_a_machine_view() {
        let (view, budget) = machine_views().swap_remove(0);
        let counts: Vec<usize> = view.cores().iter().map(|c| c.level_count()).collect();
        let annealer = Annealer::new(AnnealConfig::for_dimensions(20).with_evaluations(100_000));
        let mut counting = Counting {
            inner: SannObjective::new(&view, &budget),
            exact: 0,
            bounded: Cell::new(0),
        };
        let result = annealer.minimize_objective(
            &counts,
            &greedy_levels(&view, &budget),
            &mut counting,
            &mut SimRng::seed_from(60),
        );
        let bounded = counting.bounded.get();
        assert!(bounded > result.evaluations / 3);
        // Less the initial point's evaluation.
        let exact = counting.exact - 1;
        if cfg!(debug_assertions) {
            // Debug builds re-check every screened rejection exactly.
            assert_eq!(exact, bounded);
        } else {
            assert!(
                exact as f64 <= 0.15 * bounded as f64,
                "{exact} exact evaluations for {bounded} non-clamped proposals"
            );
        }
    }

    #[test]
    fn impossible_budget_pins_minimum() {
        let v = view(3);
        let budget = PowerBudget {
            chip_w: 0.001,
            per_core_w: 100.0,
        };
        let mut rng = SimRng::seed_from(23);
        let levels = sann_levels(&v, &budget, 5_000, &mut rng);
        assert_eq!(levels, v.min_levels());
    }
}
