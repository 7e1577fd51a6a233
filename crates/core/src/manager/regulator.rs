//! Solver-free integral-gain chip power regulation (after Chen, Wardi
//! & Yalamanchili, "Power Regulation in High Performance Multicore
//! Processors" — the same controller PR 7's fleet budget tiers use,
//! here applied *within* one chip).
//!
//! LinOpt re-solves a linear program every DVFS interval; the regulator
//! instead closes a feedback loop over the power sensors. Each interval
//! it compares the chip budget against the power the *previous*
//! interval's level choices draw under the current sensor curves — the
//! curves drift between intervals as temperature moves leakage, which
//! is exactly the persistent bias an integral term integrates away —
//! and adjusts a corrected power pool through an anti-windup
//! [`IntegralController`]. The pool is then apportioned across cores in
//! proportion to their full-throttle draw (measured headroom), each
//! core takes the highest level under its share, and the shared
//! [`repair_to_budget`]/[`greedy_fill`] passes tighten the result
//! against the corrected pool. Cost per interval: one pass over the
//! level tables — no LP, no pivots — which is what makes it a cheap
//! rival to LinOpt in the tournament.

use crate::fleet::IntegralController;
use crate::manager::{
    greedy_fill, repair_to_budget, ControlState, PmView, PowerBudget, PowerManager, SolveReport,
    SolveStatus, WarmStart,
};
use vastats::SimRng;

/// Adjustable-gain integral regulator tracking the chip power budget.
///
/// Build through [`crate::manager::ManagerSpec::IntegralRegulator`],
/// which validates the gain and rescales it from the paper-default
/// 10 ms DVFS interval to the runtime's.
#[derive(Debug, Clone)]
pub struct IntegralRegulator {
    controller: IntegralController,
    /// `(core, level)` chosen at the previous interval, in view order;
    /// empty before the first invocation of a trial.
    last: Vec<(usize, usize)>,
    last_report: Option<SolveReport>,
}

impl IntegralRegulator {
    /// A regulator with the given per-interval integral gain and no
    /// accumulated state.
    pub fn new(gain: f64) -> Self {
        Self {
            controller: IntegralController::new(gain),
            last: Vec::new(),
            last_report: None,
        }
    }

    /// Whether the previous interval's choices line up with this view
    /// core for core — true every interval between reschedules, which
    /// is what makes the warm path the common path.
    fn aligned(&self, view: &PmView) -> bool {
        self.last.len() == view.len()
            && self
                .last
                .iter()
                .zip(view.cores())
                .all(|((c, _), core)| *c == core.core)
    }

    /// The power the previous interval's choices draw under *this*
    /// interval's sensor curves: the regulator's process measurement.
    /// Cores it has not chosen for yet (trial start, post-reschedule
    /// arrivals) are read at their minimum level.
    fn observed_power(&self, view: &PmView, aligned: bool) -> f64 {
        let mut total = view.uncore_power();
        if aligned {
            for ((_, l), core) in self.last.iter().zip(view.cores()) {
                total += core.power_w[(*l).min(core.level_count() - 1)];
            }
            return total;
        }
        for core in view.cores() {
            let level = self
                .last
                .iter()
                .find(|(c, _)| *c == core.core)
                .map(|(_, l)| (*l).min(core.level_count() - 1))
                .unwrap_or(0);
            total += core.power_w[level];
        }
        total
    }
}

impl PowerManager for IntegralRegulator {
    fn name(&self) -> &'static str {
        "IntReg"
    }

    fn levels(&mut self, view: &PmView, budget: &PowerBudget, _rng: &mut SimRng) -> Vec<usize> {
        let aligned = self.aligned(view);
        let warm = if aligned {
            WarmStart::Hit
        } else {
            WarmStart::Cold
        };
        let observed = self.observed_power(view, aligned);
        // The corrected pool is capped at the nominal budget: the
        // PowerManager contract promises sensor-feasible levels
        // whenever the all-minimum point is feasible, so the integral
        // term only works the overshoot side (sensor curves drifting
        // *up* between intervals as leakage heats).
        let pool = self
            .controller
            .update(budget.chip_w, observed)
            .min(budget.chip_w);
        let eff = PowerBudget {
            chip_w: pool,
            per_core_w: budget.per_core_w,
        };

        // Warm path: continue from the previous operating point, so
        // the repair/fill passes only walk the pool *delta* — the
        // steady-state interval is a few O(cores) sweeps, no LP. Cold
        // path (trial start, post-reschedule core churn): seed each
        // core at the highest level under its headroom-proportional
        // share of the core pool.
        let mut levels = if aligned {
            self.last
                .iter()
                .zip(view.cores())
                .map(|((_, l), core)| (*l).min(core.level_count() - 1))
                .collect()
        } else {
            let core_pool = (pool - view.uncore_power()).max(0.0);
            let full_throttle: f64 = view
                .cores()
                .iter()
                .map(|c| c.power_w[c.level_count() - 1])
                .sum();
            let mut levels = Vec::with_capacity(view.len());
            for core in view.cores() {
                let max_w = core.power_w[core.level_count() - 1];
                let share = if full_throttle > 1e-12 {
                    core_pool * max_w / full_throttle
                } else {
                    0.0
                };
                let cap = share.min(budget.per_core_w);
                let mut level = 0;
                for (l, &p) in core.power_w.iter().enumerate() {
                    if p <= cap {
                        level = l;
                    }
                }
                levels.push(level);
            }
            levels
        };
        repair_to_budget(view, &eff, &mut levels);
        greedy_fill(view, &eff, &mut levels);

        if aligned {
            for (slot, &l) in self.last.iter_mut().zip(&levels) {
                slot.1 = l;
            }
        } else {
            self.last = view
                .cores()
                .iter()
                .zip(&levels)
                .map(|(c, &l)| (c.core, l))
                .collect();
        }
        self.last_report = Some(SolveReport {
            manager: self.name(),
            status: SolveStatus::Heuristic,
            pivots: 0,
            warm,
        });
        levels
    }

    fn last_solve(&self) -> Option<SolveReport> {
        self.last_report
    }

    fn snapshot(&self) -> ControlState {
        ControlState::Regulator {
            correction_w: self.controller.correction_w(),
            last: self.last.clone(),
        }
    }

    fn restore(&mut self, state: &ControlState) {
        if let ControlState::Regulator { correction_w, last } = state {
            self.controller.set_correction_w(*correction_w);
            self.last = last.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::CORRECTION_CAP;
    use crate::manager::synthetic_core;

    fn view(n: usize) -> PmView {
        PmView::from_cores(
            (0..n)
                .map(|i| synthetic_core(i, 0.4 + 0.15 * i as f64, 9, 1.0))
                .collect(),
        )
    }

    #[test]
    fn anti_windup_holds_under_saturated_budget() {
        // Budget below even the all-minimum draw: the regulator can
        // never reach the target, so without anti-windup the integrator
        // would run away. Golden values: the correction pins exactly at
        // the clamp and levels pin at minimum.
        let v = view(6);
        let min_p = v.total_power(&v.min_levels());
        let budget = PowerBudget {
            chip_w: min_p * 0.5,
            per_core_w: 100.0,
        };
        let mut reg = IntegralRegulator::new(0.3);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..200 {
            let levels = reg.levels(&v, &budget, &mut rng);
            assert_eq!(levels, v.min_levels());
        }
        let clamp = -CORRECTION_CAP * budget.chip_w;
        let correction = match reg.snapshot() {
            ControlState::Regulator { correction_w, .. } => correction_w,
            other => panic!("unexpected state {other:?}"),
        };
        assert!(
            (correction - clamp).abs() < 1e-12,
            "correction {correction} should pin at the anti-windup clamp {clamp}"
        );
    }

    #[test]
    fn settles_within_one_level_step_of_the_budget() {
        // Static sensor curves: observation equals prediction, so the
        // loop should settle with the realized power within the largest
        // single level step below the budget (greedy_fill's guarantee),
        // and stay there.
        let v = view(8);
        let min_p = v.total_power(&v.min_levels());
        let max_p = v.total_power(&v.max_levels());
        let budget = PowerBudget {
            chip_w: (min_p + max_p) / 2.0,
            per_core_w: 100.0,
        };
        let max_step = v
            .cores()
            .iter()
            .flat_map(|c| c.power_w.windows(2).map(|w| w[1] - w[0]))
            .fold(0.0f64, f64::max);
        let mut reg = IntegralRegulator::new(0.3);
        let mut rng = SimRng::seed_from(2);
        let mut prev: Option<Vec<usize>> = None;
        for round in 0..50 {
            let levels = reg.levels(&v, &budget, &mut rng);
            assert!(v.feasible(&levels, &budget), "round {round} infeasible");
            if round >= 10 {
                let p = v.total_power(&levels);
                assert!(
                    budget.chip_w - p <= max_step + 1e-9,
                    "round {round}: settled power {p} leaves more than one step ({max_step}) of slack under {}",
                    budget.chip_w
                );
                if let Some(prev) = &prev {
                    assert_eq!(prev, &levels, "round {round}: settled choice wobbled");
                }
                prev = Some(levels);
            }
        }
    }

    #[test]
    fn solve_report_tracks_warm_start() {
        let v = view(4);
        let budget = PowerBudget {
            chip_w: v.total_power(&v.max_levels()),
            per_core_w: 100.0,
        };
        let mut reg = IntegralRegulator::new(0.3);
        let mut rng = SimRng::seed_from(3);
        assert!(reg.last_solve().is_none());
        reg.levels(&v, &budget, &mut rng);
        let first = reg.last_solve().expect("reported");
        assert_eq!(first.manager, "IntReg");
        assert_eq!(first.status, SolveStatus::Heuristic);
        assert_eq!(first.warm, WarmStart::Cold);
        reg.levels(&v, &budget, &mut rng);
        assert_eq!(reg.last_solve().expect("reported").warm, WarmStart::Hit);
    }

    #[test]
    fn snapshot_round_trips() {
        let v = view(5);
        let budget = PowerBudget {
            chip_w: v.total_power(&v.max_levels()) * 0.7,
            per_core_w: 100.0,
        };
        let mut reg = IntegralRegulator::new(0.3);
        let mut rng = SimRng::seed_from(4);
        for _ in 0..5 {
            reg.levels(&v, &budget, &mut rng);
        }
        let state = reg.snapshot();
        let mut fresh = IntegralRegulator::new(0.3);
        fresh.restore(&state);
        let a = reg.levels(&v, &budget, &mut rng);
        let b = fresh.levels(&v, &budget, &mut rng);
        assert_eq!(a, b, "restored regulator must continue identically");
        assert_eq!(
            IntegralRegulator::new(0.3).snapshot(),
            ControlState::Regulator {
                correction_w: 0.0,
                last: Vec::new(),
            }
        );
    }
}
