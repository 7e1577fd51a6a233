//! Foxton* — the round-robin baseline power manager.
//!
//! "From among the active cores, we select one core at a time in a
//! round-robin manner, and reduce that core's (Vi, fi) one step. We stop
//! when the chip-wide Ptarget constraint is satisfied and a per-core
//! power constraint (Pcoremax) is satisfied for all cores." (§4.3)
//!
//! This is a small extension of the Itanium II's Foxton controller
//! (which kept both cores at the same (V, f) pair).

use crate::manager::{ControlState, PmView, PowerBudget, PowerManager};
use vastats::SimRng;

/// Computes Foxton*'s level assignment: start every active core at its
/// maximum level and step down round-robin until the budget holds (or
/// every core sits at its minimum level).
///
/// # Panics
///
/// Panics if the view is empty.
///
/// # Example
///
/// ```
/// use vasched::manager::{foxton::foxton_star_levels, synthetic_core, PmView, PowerBudget};
///
/// let view = PmView::from_cores(
///     (0..4).map(|i| synthetic_core(i, 1.0, 9, 1.0)).collect(),
/// );
/// let budget = PowerBudget {
///     chip_w: view.total_power(&view.max_levels()) * 0.7,
///     per_core_w: 100.0,
/// };
/// let levels = foxton_star_levels(&view, &budget);
/// assert!(view.total_power(&levels) <= budget.chip_w);
/// // Round-robin keeps identical cores within one step of each other.
/// let hi = *levels.iter().max().unwrap();
/// let lo = *levels.iter().min().unwrap();
/// assert!(hi - lo <= 1);
/// ```
pub fn foxton_star_levels(view: &PmView, budget: &PowerBudget) -> Vec<usize> {
    let mut cursor = 0;
    foxton_star_levels_from(view, budget, &mut cursor)
}

/// [`foxton_star_levels`] with an explicit round-robin cursor: the scan
/// starts at `*cursor`, and the position after the final reduction is
/// written back. The stateful [`FoxtonStar`] manager threads its cursor
/// through here so consecutive DVFS intervals rotate the burden of
/// stepping down across all cores instead of always hitting core 0
/// first.
///
/// # Panics
///
/// Panics if the view is empty.
pub fn foxton_star_levels_from(
    view: &PmView,
    budget: &PowerBudget,
    cursor: &mut usize,
) -> Vec<usize> {
    assert!(!view.is_empty(), "no active cores to manage");
    let n = view.len();
    let mut levels = view.max_levels();

    // First enforce the per-core cap: step each core down until it
    // complies (a violating core cannot be fixed by lowering others).
    for (i, core) in view.cores().iter().enumerate() {
        while core.power_w[levels[i]] > budget.per_core_w && levels[i] > 0 {
            levels[i] -= 1;
        }
    }

    // Then round-robin reductions until the chip target holds. The
    // active-core count may have changed since the cursor was saved.
    *cursor %= n;
    let mut stuck_rounds = 0usize;
    while view.total_power(&levels) > budget.chip_w {
        if levels[*cursor] > 0 {
            levels[*cursor] -= 1;
            stuck_rounds = 0;
        } else {
            stuck_rounds += 1;
            if stuck_rounds >= n {
                break; // everything at minimum; budget unreachable
            }
        }
        *cursor = (*cursor + 1) % n;
    }
    levels
}

/// The stateful Foxton* controller: a [`PowerManager`] whose round-robin
/// cursor survives from one DVFS interval to the next, as in the
/// Itanium II controller the paper extends (§4.3). A fresh manager
/// starts the scan at core 0.
#[derive(Debug, Clone, Default)]
pub struct FoxtonStar {
    cursor: usize,
}

impl FoxtonStar {
    /// A controller with its cursor at core 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PowerManager for FoxtonStar {
    fn name(&self) -> &'static str {
        "Foxton*"
    }

    fn levels(&mut self, view: &PmView, budget: &PowerBudget, _rng: &mut SimRng) -> Vec<usize> {
        foxton_star_levels_from(view, budget, &mut self.cursor)
    }

    fn snapshot(&self) -> ControlState {
        ControlState::Cursor(self.cursor)
    }

    fn restore(&mut self, state: &ControlState) {
        if let ControlState::Cursor(cursor) = state {
            self.cursor = *cursor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::view::synthetic_core;

    fn view(n: usize) -> PmView {
        PmView::from_cores(
            (0..n)
                .map(|i| synthetic_core(i, 0.5 + 0.1 * i as f64, 9, 1.0))
                .collect(),
        )
    }

    #[test]
    fn generous_budget_keeps_max_levels() {
        let v = view(4);
        let budget = PowerBudget {
            chip_w: 1000.0,
            per_core_w: 100.0,
        };
        let levels = foxton_star_levels(&v, &budget);
        assert_eq!(levels, v.max_levels());
    }

    #[test]
    fn meets_chip_budget_when_reachable() {
        let v = view(4);
        let min_power = v.total_power(&v.min_levels());
        let max_power = v.total_power(&v.max_levels());
        let budget = PowerBudget {
            chip_w: (min_power + max_power) / 2.0,
            per_core_w: 100.0,
        };
        let levels = foxton_star_levels(&v, &budget);
        assert!(v.total_power(&levels) <= budget.chip_w);
    }

    #[test]
    fn impossible_budget_bottoms_out() {
        let v = view(3);
        let budget = PowerBudget {
            chip_w: 0.01,
            per_core_w: 100.0,
        };
        let levels = foxton_star_levels(&v, &budget);
        assert_eq!(levels, v.min_levels());
    }

    #[test]
    fn per_core_cap_enforced() {
        let v = view(2);
        let max = v.max_levels();
        let core_max_power = v.cores()[1].power_w[max[1]];
        let budget = PowerBudget {
            chip_w: 1000.0,
            per_core_w: core_max_power * 0.7,
        };
        let levels = foxton_star_levels(&v, &budget);
        for (c, &l) in v.cores().iter().zip(&levels) {
            assert!(c.power_w[l] <= budget.per_core_w);
        }
    }

    #[test]
    fn cursor_persists_across_invocations() {
        // Identical cores, a budget costing one reduction per interval:
        // the stateful manager must rotate which core pays, while the
        // stateless free function always picks core 0.
        let v = PmView::from_cores((0..4).map(|i| synthetic_core(i, 1.0, 9, 1.0)).collect());
        let max_power = v.total_power(&v.max_levels());
        let one_step = v.cores()[0].power_w[8] - v.cores()[0].power_w[7];
        let budget = PowerBudget {
            chip_w: max_power - 0.5 * one_step,
            per_core_w: 100.0,
        };
        let mut manager = FoxtonStar::new();
        let mut rng = SimRng::seed_from(0);
        let first = manager.levels(&v, &budget, &mut rng);
        let second = manager.levels(&v, &budget, &mut rng);
        assert_eq!(first, vec![7, 8, 8, 8]);
        assert_eq!(second, vec![8, 7, 8, 8], "cursor should have advanced");
        assert_eq!(FoxtonStar::new().levels(&v, &budget, &mut rng), first);
    }

    #[test]
    fn round_robin_spreads_reductions() {
        // With identical cores and a mid budget, levels should end up
        // near-equal (within one step).
        let v = PmView::from_cores((0..5).map(|i| synthetic_core(i, 1.0, 9, 1.0)).collect());
        let min_power = v.total_power(&v.min_levels());
        let max_power = v.total_power(&v.max_levels());
        let budget = PowerBudget {
            chip_w: 0.6 * max_power + 0.4 * min_power,
            per_core_w: 100.0,
        };
        let levels = foxton_star_levels(&v, &budget);
        let lo = *levels.iter().min().unwrap();
        let hi = *levels.iter().max().unwrap();
        assert!(hi - lo <= 1, "levels {levels:?} not balanced");
    }
}
