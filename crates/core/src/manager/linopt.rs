//! LinOpt — power management by linear programming (paper §4.3.1).
//!
//! Every DVFS interval, LinOpt solves
//!
//! ```text
//! maximize    Σᵢ aᵢ·vᵢ                    (throughput, tpᵢ = ipcᵢ·fᵢ(vᵢ) ≈ aᵢvᵢ)
//! subject to  Σᵢ bᵢ·vᵢ + c ≤ Ptarget     (chip power, linearized)
//!             bᵢ·vᵢ + cᵢ ≤ Pcoremax ∀i   (per-core power)
//!             Vlow ≤ vᵢ ≤ Vhigh
//! ```
//!
//! with the Simplex method. The constants come from profile data:
//! `fᵢ(v)` is fitted linearly from the manufacturer (V, f) table, and
//! `pᵢ(v) = bᵢv + cᵢ` is fitted to power-sensor readings at three
//! voltages (`Vlow`, `Vmid`, `Vhigh`) exactly as in the paper's
//! Figure 1. The LP's continuous voltages are then rounded *down* to
//! table levels so the measured power cannot exceed the linear
//! estimate's intent.

use crate::manager::{
    ControlState, PmView, PowerBudget, PowerManager, SolveReport, SolveStatus, SolverError,
    WarmStart,
};
use linprog::{Problem, SolveWorkspace};
use vastats::{LineFit, SimRng};

/// Number of power measurement points used for the linear fit (the
/// paper measures at 1, 0.8 and 0.6 V).
pub const FIT_POINTS: usize = 3;

/// Per-core constants of the linear program (exposed for the ablation
/// benches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinOptCoefficients {
    /// Throughput coefficient `aᵢ` (MIPS per volt).
    pub a: f64,
    /// Power slope `bᵢ` (watts per volt).
    pub b: f64,
    /// Power intercept `cᵢ` (watts).
    pub c: f64,
}

/// Fits the LinOpt constants for one core from its sensor view, using
/// `points` power measurements spread over the voltage range (the paper
/// uses 3; 2 is the degraded variant mentioned in §5.2).
///
/// # Panics
///
/// Panics if `points < 2` or the core has fewer than two levels.
pub fn fit_core(core: &crate::manager::CoreView, points: usize) -> LinOptCoefficients {
    fit_core_into(core, points, &mut Vec::new(), &mut Vec::new())
}

/// [`fit_core`] writing its measurement points into caller-owned
/// buffers, so the per-interval re-fit of every core allocates nothing
/// in steady state. The fitted constants are bit-identical to
/// [`fit_core`]'s (which is this function over throwaway buffers).
///
/// # Panics
///
/// Panics if `points < 2` or the core has fewer than two levels.
pub fn fit_core_into(
    core: &crate::manager::CoreView,
    points: usize,
    f_points: &mut Vec<(f64, f64)>,
    p_points: &mut Vec<(f64, f64)>,
) -> LinOptCoefficients {
    assert!(points >= 2, "need at least two fit points");
    let levels = core.level_count();
    assert!(levels >= 2, "core needs at least two levels");

    // Frequency is approximately linear in voltage; fit over the whole
    // manufacturer table.
    f_points.clear();
    f_points.extend(
        core.voltages
            .iter()
            .zip(&core.freqs)
            .map(|(&v, &f)| (v, f / 1e6)),
    );
    let f_fit = LineFit::fit(f_points).expect("table voltages are distinct");
    let a = core.ipc * f_fit.slope.max(0.0);

    // Power measured at `points` levels spread across the range.
    p_points.clear();
    for k in 0..points {
        let level = (k * (levels - 1)) / (points - 1);
        p_points.push((core.voltages[level], core.power_w[level]));
    }
    let p_fit = LineFit::fit(p_points).expect("fit voltages are distinct");

    LinOptCoefficients {
        a,
        b: p_fit.slope.max(1e-9),
        c: p_fit.intercept,
    }
}

/// Reusable buffers for the full LinOpt pipeline: the LP (whose
/// constraint rows are recycled via [`Problem::reset_maximize`]), the
/// Simplex [`SolveWorkspace`], the per-core fit constants, and every
/// intermediate vector the assembly used to allocate per interval. The
/// stateful [`LinOpt`] manager owns one; the free functions run over a
/// throwaway, so all paths compute identical results.
#[derive(Debug, Clone, Default)]
struct LinOptWorkspace {
    solver: SolveWorkspace,
    lp: Option<Problem>,
    coefs: Vec<LinOptCoefficients>,
    v_low: Vec<f64>,
    objective: Vec<f64>,
    power_row: Vec<f64>,
    f_points: Vec<(f64, f64)>,
    p_points: Vec<(f64, f64)>,
}

/// Computes LinOpt's level assignment for the active cores.
///
/// Falls back to all-minimum levels when even the minimum voltages
/// exceed the chip budget (the LP is then infeasible).
///
/// # Panics
///
/// Panics if the view is empty.
///
/// # Example
///
/// ```
/// use vasched::manager::{linopt::linopt_levels, synthetic_core, PmView, PowerBudget};
///
/// let view = PmView::from_cores(vec![
///     synthetic_core(0, 1.2, 9, 1.0), // high-IPC thread
///     synthetic_core(1, 0.1, 9, 1.0), // memory-bound thread
/// ]);
/// let mid = (view.total_power(&view.min_levels())
///     + view.total_power(&view.max_levels())) / 2.0;
/// let budget = PowerBudget { chip_w: mid, per_core_w: 100.0 };
/// let levels = linopt_levels(&view, &budget);
/// // The budget holds and the high-IPC core gets the higher level.
/// assert!(view.total_power(&levels) <= budget.chip_w);
/// assert!(levels[0] >= levels[1]);
/// ```
pub fn linopt_levels(view: &PmView, budget: &PowerBudget) -> Vec<usize> {
    linopt_levels_with(view, budget, FIT_POINTS, RoundingPolicy::Down)
}

/// How the LP's continuous voltage is mapped to a discrete table level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundingPolicy {
    /// Highest level with voltage ≤ the LP optimum (never overshoots
    /// the linearized budget).
    Down,
    /// Nearest level (may overshoot; measured by the ablation bench).
    Nearest,
}

/// Assembles LinOpt's linear program into `ws`: variables are the
/// shifted voltages `x_i = v_i − Vlow_i`, constraint 0 is the chip
/// power budget (net of uncore power), and constraint `1 + i` is core
/// i's combined upper bound (voltage ceiling tightened by `Pcoremax`).
/// On success `ws.lp` holds the program (rows recycled from the
/// previous interval's) and `ws.v_low` the per-core voltage floors.
/// Every row's right-hand side is non-negative, as `linprog` requires:
/// an over-budget floor returns early, and a core whose fitted floor
/// exceeds `Pcoremax` gets the bound 0.
///
/// Returns `false` when even the all-minimum floor exceeds the budget.
fn assemble_lp(
    view: &PmView,
    budget: &PowerBudget,
    fit_points: usize,
    ws: &mut LinOptWorkspace,
) -> bool {
    let n = view.len();
    ws.coefs.clear();
    for c in view.cores() {
        ws.coefs.push(fit_core_into(
            c,
            fit_points,
            &mut ws.f_points,
            &mut ws.p_points,
        ));
    }

    ws.v_low.clear();
    ws.v_low.extend(view.cores().iter().map(|c| c.voltages[0]));

    // Chip constraint: sum b_i x_i <= Ptarget - uncore - sum(b_i Vlow_i + c_i).
    let base_power: f64 = ws
        .coefs
        .iter()
        .zip(&ws.v_low)
        .map(|(k, &vl)| k.b * vl + k.c)
        .sum();
    let chip_rhs = budget.chip_w - view.uncore_power() - base_power;
    if chip_rhs < 0.0 {
        return false;
    }

    ws.objective.clear();
    ws.objective.extend(ws.coefs.iter().map(|k| k.a));
    ws.power_row.clear();
    ws.power_row.extend(ws.coefs.iter().map(|k| k.b));
    let lp = match &mut ws.lp {
        Some(lp) => {
            lp.reset_maximize(&ws.objective);
            lp
        }
        None => ws.lp.insert(Problem::maximize(ws.objective.clone())),
    };
    lp.push_le(&ws.power_row, chip_rhs);
    for i in 0..n {
        // Upper bound: x_i <= Vhigh - Vlow, tightened by Pcoremax.
        let v_high = *view.cores()[i].voltages.last().expect("non-empty table");
        let mut ub = v_high - ws.v_low[i];
        let core_rhs = budget.per_core_w - (ws.coefs[i].b * ws.v_low[i] + ws.coefs[i].c);
        if core_rhs < 0.0 {
            ub = 0.0;
        } else {
            ub = ub.min(core_rhs / ws.coefs[i].b);
        }
        lp.push_le_with(ub, |row| row[i] = 1.0);
    }
    true
}

/// The marginal throughput value of one more watt of chip budget —
/// the LP dual (shadow price) of the `Ptarget` constraint, in MIPS/W.
///
/// Returns `None` when the budget is unreachable (LP infeasible) and
/// `Some(0.0)` when the budget is not binding (every core already at
/// its ceiling).
///
/// # Panics
///
/// Panics if the view is empty.
pub fn chip_power_shadow_price(view: &PmView, budget: &PowerBudget) -> Option<f64> {
    assert!(!view.is_empty(), "no active cores to manage");
    let mut ws = LinOptWorkspace::default();
    if !assemble_lp(view, budget, FIT_POINTS, &mut ws) {
        return None;
    }
    let lp = ws.lp.as_ref().expect("lp was just assembled");
    lp.solve_warm_with(None, &mut ws.solver)
        .ok()
        .map(|s| s.dual[0])
}

/// LinOpt with explicit fit-point count and rounding policy — the knobs
/// the ablation experiments turn. A cold solve; solver failure pins
/// minimum levels (the closest the machine can get to an unreachable
/// budget).
///
/// # Panics
///
/// Panics if the view is empty or `fit_points < 2`.
pub fn linopt_levels_with(
    view: &PmView,
    budget: &PowerBudget,
    fit_points: usize,
    rounding: RoundingPolicy,
) -> Vec<usize> {
    let mut ws = LinOptWorkspace::default();
    try_linopt_levels_traced_with(view, budget, fit_points, rounding, &mut None, &mut ws)
        .0
        .unwrap_or_else(|_| view.min_levels())
}

/// The full LinOpt pipeline over a caller-owned [`LinOptWorkspace`],
/// with a warm-start slot: `warm` carries the previous Simplex basis
/// into this solve and receives the new one. Returns the levels, or
/// `Err(SolverError::Infeasible)` when even the all-minimum floor
/// exceeds the chip budget and `Err(SolverError::NumericalFailure)`
/// when the Simplex solve breaks down, plus the Simplex pivot count
/// and warm-start disposition that feed [`PowerManager::last_solve`].
/// The LP, the tableau and every assembly vector are recycled across
/// intervals, so the steady-state 10 ms re-solve allocates only the
/// returned level vector.
///
/// # Panics
///
/// Panics if the view is empty or `fit_points < 2`.
fn try_linopt_levels_traced_with(
    view: &PmView,
    budget: &PowerBudget,
    fit_points: usize,
    rounding: RoundingPolicy,
    warm: &mut Option<Vec<usize>>,
    ws: &mut LinOptWorkspace,
) -> (Result<Vec<usize>, SolverError>, usize, WarmStart) {
    assert!(!view.is_empty(), "no active cores to manage");
    let had_hint = warm.is_some();
    let missed = |had: bool| {
        if had {
            WarmStart::Miss
        } else {
            WarmStart::Cold
        }
    };
    let n = view.len();
    if !assemble_lp(view, budget, fit_points, ws) {
        // Even the floor violates the target.
        *warm = None;
        return (Err(SolverError::Infeasible), 0, missed(had_hint));
    }

    let lp = ws.lp.as_ref().expect("lp was just assembled");
    let Ok(solution) = lp.solve_warm_with(warm.as_deref(), &mut ws.solver) else {
        *warm = None;
        return (Err(SolverError::NumericalFailure), 0, missed(had_hint));
    };
    let warm_disposition = if solution.warm_started {
        WarmStart::Hit
    } else {
        missed(had_hint)
    };
    // The solution's basis vector is freshly allocated by the solver;
    // move it into the warm slot instead of cloning.
    *warm = Some(solution.basis);

    // Discretize the continuous voltages to table levels.
    let mut levels = Vec::with_capacity(n);
    for (i, core) in view.cores().iter().enumerate() {
        let v_star = ws.v_low[i] + solution.x[i];
        let level = match rounding {
            RoundingPolicy::Down => core
                .voltages
                .iter()
                .rposition(|&v| v <= v_star + 1e-9)
                .unwrap_or(0),
            RoundingPolicy::Nearest => {
                let mut best = 0;
                let mut best_d = f64::INFINITY;
                for (l, &v) in core.voltages.iter().enumerate() {
                    let d = (v - v_star).abs();
                    if d < best_d {
                        best_d = d;
                        best = l;
                    }
                }
                best
            }
        };
        levels.push(level);
    }
    // The linear fit underestimates the convex power curve near Vhigh,
    // so the LP can overshoot; the monitoring loop repairs against
    // measured powers (§5.2). Rounding down then leaves slack below
    // Ptarget, which the fill pass converts back into throughput.
    crate::manager::view::repair_to_budget(view, budget, &mut levels);
    crate::manager::view::greedy_fill(view, budget, &mut levels);
    (Ok(levels), solution.pivots, warm_disposition)
}

/// The stateful LinOpt controller: a [`PowerManager`] that warm-starts
/// each Simplex solve from the previous interval's optimal basis.
/// Consecutive DVFS intervals see slowly drifting IPC and power
/// readings, so the basis usually survives and the Simplex converges in
/// a handful of pivots; the chosen levels are identical to a cold solve.
#[derive(Debug, Clone)]
pub struct LinOpt {
    basis: Option<Vec<usize>>,
    last: Option<SolveReport>,
    ws: LinOptWorkspace,
}

impl LinOpt {
    /// The paper's configuration: three fit points, round-down.
    pub fn new() -> Self {
        Self {
            basis: None,
            last: None,
            ws: LinOptWorkspace::default(),
        }
    }

    /// Whether a warm-start basis is currently cached.
    pub fn has_warm_basis(&self) -> bool {
        self.basis.is_some()
    }
}

impl Default for LinOpt {
    fn default() -> Self {
        Self::new()
    }
}

impl PowerManager for LinOpt {
    fn name(&self) -> &'static str {
        "LinOpt"
    }

    fn levels(&mut self, view: &PmView, budget: &PowerBudget, rng: &mut SimRng) -> Vec<usize> {
        // Legacy semantics: solver failure silently pins minimum
        // levels, but the report still records the degradation.
        self.try_levels(view, budget, rng)
            .unwrap_or_else(|_| view.min_levels())
    }

    fn try_levels(
        &mut self,
        view: &PmView,
        budget: &PowerBudget,
        _rng: &mut SimRng,
    ) -> Result<Vec<usize>, SolverError> {
        let (result, pivots, warm) = try_linopt_levels_traced_with(
            view,
            budget,
            FIT_POINTS,
            RoundingPolicy::Down,
            &mut self.basis,
            &mut self.ws,
        );
        self.last = Some(SolveReport {
            manager: self.name(),
            status: match &result {
                Ok(_) => SolveStatus::Optimal,
                Err(e) => SolveStatus::Fallback(*e),
            },
            pivots,
            warm,
        });
        result
    }

    fn last_solve(&self) -> Option<SolveReport> {
        self.last
    }

    fn snapshot(&self) -> ControlState {
        // The warm basis is the only state that shapes future solves;
        // `last` is refreshed by the next invocation and the workspace
        // is pure scratch.
        ControlState::Basis(self.basis.clone())
    }

    fn restore(&mut self, state: &ControlState) {
        if let ControlState::Basis(basis) = state {
            self.basis = basis.clone();
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
                .map(|i| synthetic_core(i, 0.3 + 0.2 * i as f64, 9, 1.0))
                .collect(),
        )
    }

    #[test]
    fn generous_budget_reaches_max_levels() {
        let v = view(4);
        let budget = PowerBudget {
            chip_w: 1000.0,
            per_core_w: 100.0,
        };
        let levels = linopt_levels(&v, &budget);
        assert_eq!(levels, v.max_levels());
    }

    #[test]
    fn impossible_budget_pins_minimum() {
        let v = view(4);
        let budget = PowerBudget {
            chip_w: 0.001,
            per_core_w: 100.0,
        };
        assert_eq!(linopt_levels(&v, &budget), v.min_levels());
    }

    #[test]
    fn respects_chip_budget_approximately() {
        // The linear fit of a convex power curve over-estimates interior
        // points, and rounding-down only lowers power further, so the
        // measured power should come in at or under the target (with
        // a small tolerance for fit error).
        let v = view(6);
        let min_p = v.total_power(&v.min_levels());
        let max_p = v.total_power(&v.max_levels());
        for frac in [0.3, 0.5, 0.7, 0.9] {
            let budget = PowerBudget {
                chip_w: min_p + frac * (max_p - min_p),
                per_core_w: 100.0,
            };
            let levels = linopt_levels(&v, &budget);
            let p = v.total_power(&levels);
            assert!(
                p <= budget.chip_w + 1e-9,
                "frac {frac}: power {p} vs target {}",
                budget.chip_w
            );
        }
    }

    #[test]
    fn prefers_high_throughput_cores() {
        // Two identical cores except for IPC; with a budget allowing only
        // one at a high level, the high-IPC core should win.
        let v = PmView::from_cores(vec![
            synthetic_core(0, 2.0, 9, 1.0),
            synthetic_core(1, 0.2, 9, 1.0),
        ]);
        let min_p = v.total_power(&v.min_levels());
        let max_p = v.total_power(&v.max_levels());
        let budget = PowerBudget {
            chip_w: (min_p + max_p) / 2.0,
            per_core_w: 100.0,
        };
        let levels = linopt_levels(&v, &budget);
        assert!(
            levels[0] > levels[1],
            "high-IPC core should get the higher level: {levels:?}"
        );
    }

    #[test]
    fn beats_foxton_star_on_throughput() {
        // The headline claim, in miniature: same budget, LinOpt should
        // deliver at least Foxton*'s throughput (typically more, because
        // Foxton* lowers all cores uniformly).
        let v = PmView::from_cores(vec![
            synthetic_core(0, 1.8, 9, 1.0),
            synthetic_core(1, 1.0, 9, 1.0),
            synthetic_core(2, 0.3, 9, 1.0),
            synthetic_core(3, 0.1, 9, 1.0),
        ]);
        let min_p = v.total_power(&v.min_levels());
        let max_p = v.total_power(&v.max_levels());
        let budget = PowerBudget {
            chip_w: min_p + 0.5 * (max_p - min_p),
            per_core_w: 100.0,
        };
        let lin = linopt_levels(&v, &budget);
        let fox = crate::manager::foxton::foxton_star_levels(&v, &budget);
        assert!(v.feasible(&lin, &budget) || v.total_power(&lin) <= budget.chip_w * 1.02);
        assert!(
            v.throughput_mips(&lin) >= v.throughput_mips(&fox),
            "LinOpt {} vs Foxton* {}",
            v.throughput_mips(&lin),
            v.throughput_mips(&fox)
        );
    }

    #[test]
    fn per_core_cap_respected() {
        let v = view(3);
        let max = v.max_levels();
        let biggest = v
            .cores()
            .iter()
            .zip(&max)
            .map(|(c, &l)| c.power_w[l])
            .fold(0.0f64, f64::max);
        let budget = PowerBudget {
            chip_w: 1000.0,
            per_core_w: biggest * 0.6,
        };
        let levels = linopt_levels(&v, &budget);
        for (c, &l) in v.cores().iter().zip(&levels) {
            assert!(
                c.power_w[l] <= budget.per_core_w * 1.05,
                "core power {} vs cap {}",
                c.power_w[l],
                budget.per_core_w
            );
        }
    }

    #[test]
    fn two_point_fit_still_works() {
        let v = view(4);
        let min_p = v.total_power(&v.min_levels());
        let max_p = v.total_power(&v.max_levels());
        let budget = PowerBudget {
            chip_w: (min_p + max_p) / 2.0,
            per_core_w: 100.0,
        };
        let levels = linopt_levels_with(&v, &budget, 2, RoundingPolicy::Down);
        assert!(v.total_power(&levels) <= budget.chip_w * 1.05);
    }

    #[test]
    fn shadow_price_positive_when_binding_zero_when_slack() {
        let v = view(4);
        let min_p = v.total_power(&v.min_levels());
        let max_p = v.total_power(&v.max_levels());
        let tight = PowerBudget {
            chip_w: (min_p + max_p) / 2.0,
            per_core_w: 100.0,
        };
        let loose = PowerBudget {
            chip_w: max_p * 2.0,
            per_core_w: 100.0,
        };
        let p_tight = chip_power_shadow_price(&v, &tight).unwrap();
        let p_loose = chip_power_shadow_price(&v, &loose).unwrap();
        assert!(p_tight > 0.0, "binding budget must have positive price");
        assert!(p_loose.abs() < 1e-9, "slack budget has zero price");
    }

    #[test]
    fn shadow_price_none_when_infeasible() {
        let v = view(3);
        let budget = PowerBudget {
            chip_w: 0.001,
            per_core_w: 100.0,
        };
        assert!(chip_power_shadow_price(&v, &budget).is_none());
    }

    #[test]
    fn warm_started_manager_matches_cold_solves() {
        // The warm start is a speed lever, never a results lever: across
        // a drifting sequence of views the stateful manager must pick
        // exactly the levels the cold free function picks.
        let mut manager = LinOpt::new();
        let mut rng = SimRng::seed_from(7);
        for step in 0..6 {
            let drift = 1.0 + 0.03 * step as f64;
            let v = PmView::from_cores(
                (0..6)
                    .map(|i| synthetic_core(i, drift * (0.3 + 0.2 * i as f64), 9, 1.0))
                    .collect(),
            );
            let min_p = v.total_power(&v.min_levels());
            let max_p = v.total_power(&v.max_levels());
            let budget = PowerBudget {
                chip_w: min_p + 0.55 * (max_p - min_p),
                per_core_w: 100.0,
            };
            let warm = manager.levels(&v, &budget, &mut rng);
            let cold = linopt_levels(&v, &budget);
            assert_eq!(warm, cold, "step {step}");
        }
        assert!(manager.has_warm_basis());
        assert!(!LinOpt::new().has_warm_basis());
    }

    #[test]
    fn solve_reports_track_warm_start_lifecycle() {
        let mut manager = LinOpt::new();
        let mut rng = SimRng::seed_from(11);
        let v = view(5);
        let min_p = v.total_power(&v.min_levels());
        let max_p = v.total_power(&v.max_levels());
        let budget = PowerBudget {
            chip_w: min_p + 0.5 * (max_p - min_p),
            per_core_w: 100.0,
        };
        assert!(manager.last_solve().is_none(), "no solve yet");

        let _ = manager.levels(&v, &budget, &mut rng);
        let first = manager.last_solve().expect("report after solve");
        assert_eq!(first.manager, "LinOpt");
        assert_eq!(first.status, SolveStatus::Optimal);
        assert_eq!(first.warm, WarmStart::Cold);
        assert!(first.pivots > 0);

        let _ = manager.levels(&v, &budget, &mut rng);
        let second = manager.last_solve().unwrap();
        assert_eq!(second.warm, WarmStart::Hit, "same view must reuse basis");
        assert!(second.pivots <= first.pivots);

        // An infeasible budget degrades the status and drops the basis.
        let impossible = PowerBudget {
            chip_w: 0.001,
            per_core_w: 100.0,
        };
        let levels = manager.levels(&v, &impossible, &mut rng);
        assert_eq!(levels, v.min_levels());
        let report = manager.last_solve().unwrap();
        assert_eq!(
            report.status,
            SolveStatus::Fallback(SolverError::Infeasible)
        );
        assert_eq!(report.warm, WarmStart::Miss);
    }

    #[test]
    fn coefficients_have_expected_signs() {
        let core = synthetic_core(0, 1.0, 9, 1.0);
        let k = fit_core(&core, 3);
        assert!(k.a > 0.0, "throughput coefficient should be positive");
        assert!(k.b > 0.0, "power slope should be positive");
    }
}
