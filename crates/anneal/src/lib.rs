//! Simulated annealing over discrete level vectors.
//!
//! The paper's near-optimal reference power manager, **SAnn** (§4.3.2,
//! §6.5), searches the space of per-core voltage-level assignments with
//! the simulated-annealing implementation of the R statistical package:
//! a Gaussian Markov proposal kernel whose scale tracks the annealing
//! temperature, a logarithmic cooling schedule, an initial temperature
//! chosen by problem size, and a fixed budget of cost-function
//! evaluations.
//!
//! This crate reimplements that engine for points in
//! `{0..levels₀} × {0..levels₁} × …` (one discrete level per dimension),
//! minimizing an arbitrary cost closure ([`Annealer::minimize`]) or an
//! [`Objective`] ([`Annealer::minimize_objective`]).
//!
//! Every proposal changes one coordinate, and almost every evaluated
//! proposal is rejected. An [`Objective`] may bound the cost of such a
//! move from below in O(1); when the bound proves the move uphill and
//! the Metropolis uniform lies above the largest acceptance probability
//! the bound allows, the move is rejected without its exact cost. Every
//! other move is evaluated and decided exactly, so a bound that keeps
//! the [`Objective`] contract leaves the random draws, the decisions
//! and the [`AnnealResult`] bit-identical to the exact-only walk. A
//! closure is the exact-only case: there is one annealing loop.
//!
//! # Example
//!
//! Minimize the distance to a target point:
//!
//! ```
//! use anneal::{Annealer, AnnealConfig};
//! use vastats::SimRng;
//!
//! let target = [3usize, 7, 1];
//! let annealer = Annealer::new(AnnealConfig::default());
//! let mut rng = SimRng::seed_from(11);
//! let result = annealer.minimize(
//!     &[10, 10, 10],
//!     &[0, 0, 0],
//!     |x| x.iter().zip(&target).map(|(&a, &b)| (a as f64 - b as f64).powi(2)).sum(),
//!     &mut rng,
//! );
//! assert_eq!(result.point, target);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vastats::rng::SimRng;

/// Annealing temperature after `k` evaluations from initial `t0`:
/// `T_k = T₀ / ln(k + e)`, Belisle's logarithmic schedule as in R's
/// SANN and the paper's SAnn. It guarantees asymptotic convergence but
/// cools very slowly.
fn temperature(t0: f64, k: usize) -> f64 {
    t0 / ((k as f64) + std::f64::consts::E).ln()
}

/// Configuration of the annealing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Initial annealing temperature. The paper scales this with the
    /// number of threads; [`AnnealConfig::for_dimensions`] reproduces
    /// that heuristic.
    pub initial_temp: f64,
    /// Total cost-function evaluations (the paper stops after a fixed
    /// budget; 1 million in its experiments).
    pub evaluations: usize,
    /// Proposal kernel scale at the initial temperature, in *levels*.
    /// The kernel shrinks proportionally as the temperature cools.
    pub kernel_scale: f64,
}

impl Default for AnnealConfig {
    /// A compact budget suitable for unit tests and interactive use.
    /// The paper-scale reference run uses [`AnnealConfig::paper`].
    fn default() -> Self {
        Self {
            initial_temp: 10.0,
            evaluations: 20_000,
            kernel_scale: 3.0,
        }
    }
}

impl AnnealConfig {
    /// The paper's reference budget: 1 million evaluations.
    pub fn paper() -> Self {
        Self {
            evaluations: 1_000_000,
            ..Self::default()
        }
    }

    /// Initial-temperature heuristic from the paper: larger problems
    /// (more scheduled threads) start hotter so the initial search is
    /// more random.
    pub fn for_dimensions(dims: usize) -> Self {
        Self {
            initial_temp: 2.0 * dims as f64 + 2.0,
            ..Self::default()
        }
    }

    /// Returns this configuration with a different evaluation budget.
    pub fn with_evaluations(mut self, evaluations: usize) -> Self {
        self.evaluations = evaluations;
        self
    }
}

/// Result of an annealing run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealResult {
    /// Best point found.
    pub point: Vec<usize>,
    /// Cost at the best point.
    pub cost: f64,
    /// Number of cost evaluations performed.
    pub evaluations: usize,
    /// Number of accepted moves.
    pub accepted: usize,
}

/// Simulated-annealing minimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Annealer {
    config: AnnealConfig,
}

impl Annealer {
    /// Creates an annealer with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (non-positive
    /// temperature, kernel scale, or zero evaluations).
    pub fn new(config: AnnealConfig) -> Self {
        assert!(
            config.initial_temp > 0.0,
            "initial temperature must be positive"
        );
        assert!(config.kernel_scale > 0.0, "kernel scale must be positive");
        assert!(config.evaluations > 0, "evaluation budget must be positive");
        Self { config }
    }

    /// The annealer's configuration.
    pub fn config(&self) -> &AnnealConfig {
        &self.config
    }

    /// Minimizes `cost` over points in
    /// `{0..level_counts[0]} × {0..level_counts[1]} × …`, starting from
    /// `initial`.
    ///
    /// The proposal kernel perturbs one random dimension by a discretized
    /// Gaussian step whose standard deviation is
    /// `kernel_scale · (T / T₀)` levels (minimum one level), matching the
    /// paper's "Gaussian Markov kernel with scale proportional to the
    /// current annealing temperature". Cooling is logarithmic:
    /// `T_k = T₀ / ln(k + e)`.
    ///
    /// A closure cannot bound a move's cost, so every proposal is
    /// evaluated exactly; [`Annealer::minimize_objective`] is the same
    /// walk for an [`Objective`] that can.
    ///
    /// # Panics
    ///
    /// Panics if `level_counts` is empty, any count is zero, or
    /// `initial` is out of range.
    pub fn minimize<F>(
        &self,
        level_counts: &[usize],
        initial: &[usize],
        cost: F,
        rng: &mut SimRng,
    ) -> AnnealResult
    where
        F: FnMut(&[usize]) -> f64,
    {
        self.minimize_objective(level_counts, initial, &mut Exact(cost), rng)
    }

    /// Minimizes `objective` exactly as [`Annealer::minimize`] minimizes
    /// a closure, screening each move with
    /// [`Objective::lower_bound`] first.
    ///
    /// When the bound proves a move uphill, the Metropolis uniform is
    /// drawn where the exact walk would draw it; if it lies above the
    /// largest acceptance probability the bound allows, the move is
    /// rejected without its exact cost. Every other move is evaluated
    /// and decided exactly. For an objective that keeps the
    /// [`Objective`] contract, the random draws, the accept/reject
    /// sequence and the [`AnnealResult`] are therefore bit-identical to
    /// the exact-only walk; debug builds re-check every screened
    /// rejection against the exact cost, and every finite bound of an
    /// evaluated move.
    ///
    /// # Panics
    ///
    /// Panics if `level_counts` is empty, any count is zero, or
    /// `initial` is out of range; in debug builds, also if the
    /// objective breaks its bound contract.
    pub fn minimize_objective<O>(
        &self,
        level_counts: &[usize],
        initial: &[usize],
        objective: &mut O,
        rng: &mut SimRng,
    ) -> AnnealResult
    where
        O: Objective,
    {
        assert!(!level_counts.is_empty(), "need at least one dimension");
        assert_eq!(
            level_counts.len(),
            initial.len(),
            "initial point dimension mismatch"
        );
        assert!(
            level_counts.iter().all(|&c| c > 0),
            "every dimension needs at least one level"
        );
        assert!(
            initial.iter().zip(level_counts).all(|(&x, &c)| x < c),
            "initial point out of range"
        );

        let mut current = initial.to_vec();
        let mut current_cost = objective.cost(&current);
        objective.accept();
        let mut best = current.clone();
        let mut best_cost = current_cost;
        let mut accepted = 0usize;
        let mut evals = 1usize;

        let t0 = self.config.initial_temp;
        // Equal to `current` between proposals: a move sets one
        // coordinate and puts it back when rejected.
        let mut proposal = current.clone();
        // σ = kernel_scale·T_k/T₀ only falls as k grows, so once it
        // reaches the one-level floor it stays there and the kernel
        // needs no more temperatures.
        let mut sigma_floored = false;

        while evals < self.config.evaluations {
            let k = evals;
            evals += 1;

            // Gaussian Markov kernel on one random dimension.
            let dim = rng.index(level_counts.len());
            let sigma = if sigma_floored {
                1.0
            } else {
                let sigma = self.config.kernel_scale * temperature(t0, k) / t0;
                sigma_floored = sigma <= 1.0;
                sigma.max(1.0)
            };
            let step = (vastats::normal::standard_sample(rng) * sigma).round() as i64;
            let step = if step == 0 {
                if rng.next_f64() < 0.5 {
                    -1
                } else {
                    1
                }
            } else {
                step
            };
            let max_level = level_counts[dim] as i64 - 1;
            let new_val = (current[dim] as i64 + step).clamp(0, max_level) as usize;
            if new_val == current[dim] {
                // Degenerate proposal (clamped back onto itself): treat
                // as a rejected evaluation so single-level dimensions
                // cannot stall progress accounting.
                continue;
            }
            let temp = temperature(t0, k).max(1e-12);

            // Screen: a bound above the current cost proves the move
            // uphill, so the exact walk would draw its Metropolis
            // uniform next. Draw it here; at or above the largest
            // acceptance probability the bound allows, the move is
            // rejected whatever its exact cost.
            let lower = objective.lower_bound(&current, dim, new_val);
            let mut uniform = None;
            if lower.is_finite() && lower > current_cost {
                let u = rng.next_f64();
                let p_max = (-(lower - current_cost) / temp).exp();
                if u >= p_max * (1.0 + EXP_SLACK) {
                    #[cfg(debug_assertions)]
                    {
                        proposal[dim] = new_val;
                        let exact = objective.cost(&proposal);
                        proposal[dim] = current[dim];
                        let delta = exact - current_cost;
                        assert!(
                            lower <= exact && delta > 0.0 && u >= (-delta / temp).exp(),
                            "screened rejection of dimension {dim} -> {new_val}: \
                             bound {lower}, exact cost {exact}, current {current_cost}"
                        );
                    }
                    continue;
                }
                uniform = Some(u);
            }

            proposal[dim] = new_val;
            let proposal_cost = objective.cost(&proposal);
            // A bound above the exact cost may have drawn a uniform the
            // exact walk would not have drawn.
            debug_assert!(
                !(lower.is_finite() && lower > proposal_cost),
                "evaluated move of dimension {dim} -> {new_val}: \
                 bound {lower} above exact cost {proposal_cost}"
            );
            let delta = proposal_cost - current_cost;
            let accept =
                delta <= 0.0 || uniform.unwrap_or_else(|| rng.next_f64()) < (-delta / temp).exp();
            if accept {
                current[dim] = new_val;
                current_cost = proposal_cost;
                objective.accept();
                accepted += 1;
                if current_cost < best_cost {
                    best.copy_from_slice(&current);
                    best_cost = current_cost;
                }
            } else {
                proposal[dim] = current[dim];
            }
        }

        AnnealResult {
            point: best,
            cost: best_cost,
            evaluations: evals,
            accepted,
        }
    }
}

/// Relative slack on a screened rejection's acceptance bound. `exp` is
/// not guaranteed monotone to the last bit, so the bound's probability
/// is widened by far more than any ULP before it may reject a move.
const EXP_SLACK: f64 = 1e-12;

/// A cost over level vectors that can bound single-coordinate moves.
///
/// The annealer's proposals change one coordinate of the current point,
/// and most of them are rejected. An objective that can bound such a
/// move's cost from below in O(1) lets [`Annealer::minimize_objective`]
/// prove most rejections without the exact cost.
///
/// # Contract
///
/// * [`Objective::cost`] is the exact cost; the annealer decides every
///   move the bound does not rule out from its value alone.
/// * [`Objective::accept`] tells the objective the annealer moved to
///   the point last passed to `cost`, which is now the current point.
///   The annealer evaluates and accepts the initial point first.
/// * [`Objective::lower_bound`] never exceeds the value `cost` would
///   return for the current point with coordinate `dim` set to
///   `level`. A non-finite bound proves nothing.
///
/// An objective that keeps the contract leaves the walk bit-identical
/// to the exact-only one.
pub trait Objective {
    /// The exact cost of `x`.
    fn cost(&mut self, x: &[usize]) -> f64;

    /// The point last passed to [`Objective::cost`] became the current
    /// point. The default keeps no state.
    fn accept(&mut self) {}

    /// A lower bound on the cost of `current` with `current[dim]`
    /// replaced by `level`; `current` is the current point. The default
    /// (−∞) bounds nothing, so every move is evaluated exactly.
    fn lower_bound(&self, current: &[usize], dim: usize, level: usize) -> f64 {
        let _ = (current, dim, level);
        f64::NEG_INFINITY
    }
}

/// A closure as an exact-only [`Objective`].
struct Exact<F>(F);

impl<F: FnMut(&[usize]) -> f64> Objective for Exact<F> {
    fn cost(&mut self, x: &[usize]) -> f64 {
        (self.0)(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_global_minimum_of_convex_cost() {
        let annealer = Annealer::new(AnnealConfig::default());
        let mut rng = SimRng::seed_from(1);
        let result = annealer.minimize(
            &[20, 20],
            &[0, 0],
            |x| ((x[0] as f64) - 13.0).powi(2) + ((x[1] as f64) - 4.0).powi(2),
            &mut rng,
        );
        assert_eq!(result.point, vec![13, 4]);
        assert_eq!(result.cost, 0.0);
    }

    #[test]
    fn escapes_local_minimum() {
        // Cost with a local minimum at 2 (cost 1) and global at 17
        // (cost 0), separated by a barrier.
        let annealer = Annealer::new(AnnealConfig {
            initial_temp: 20.0,
            evaluations: 50_000,
            kernel_scale: 4.0,
        });
        let mut rng = SimRng::seed_from(3);
        let cost = |x: &[usize]| -> f64 {
            let v = x[0] as f64;
            if x[0] == 17 {
                0.0
            } else if x[0] == 2 {
                1.0
            } else {
                2.0 + (v - 10.0).abs() * 0.1
            }
        };
        let result = annealer.minimize(&[24], &[2], cost, &mut rng);
        assert_eq!(result.point, vec![17]);
    }

    #[test]
    fn respects_level_bounds() {
        let annealer = Annealer::new(AnnealConfig::default());
        let mut rng = SimRng::seed_from(5);
        let mut seen_out_of_range = false;
        let result = annealer.minimize(
            &[3, 5],
            &[1, 1],
            |x| {
                if x[0] >= 3 || x[1] >= 5 {
                    seen_out_of_range = true;
                }
                -((x[0] + x[1]) as f64)
            },
            &mut rng,
        );
        assert!(!seen_out_of_range);
        // Maximizing x0+x1 via negated cost: corner (2,4).
        assert_eq!(result.point, vec![2, 4]);
    }

    #[test]
    fn single_level_dimensions_are_fixed() {
        let annealer = Annealer::new(AnnealConfig {
            evaluations: 2_000,
            ..AnnealConfig::default()
        });
        let mut rng = SimRng::seed_from(7);
        let result =
            annealer.minimize(&[1, 10], &[0, 0], |x| (x[1] as f64 - 6.0).powi(2), &mut rng);
        assert_eq!(result.point[0], 0);
        assert_eq!(result.point[1], 6);
    }

    #[test]
    fn deterministic_for_seed() {
        let annealer = Annealer::new(AnnealConfig::default());
        let cost = |x: &[usize]| (x[0] as f64 - 9.0).abs();
        let a = annealer.minimize(&[32], &[0], cost, &mut SimRng::seed_from(9));
        let b = annealer.minimize(&[32], &[0], cost, &mut SimRng::seed_from(9));
        assert_eq!(a, b);
    }

    #[test]
    fn budget_respected() {
        let annealer = Annealer::new(AnnealConfig {
            evaluations: 500,
            ..AnnealConfig::default()
        });
        let mut count = 0usize;
        let mut rng = SimRng::seed_from(13);
        annealer.minimize(
            &[10],
            &[0],
            |x| {
                count += 1;
                x[0] as f64
            },
            &mut rng,
        );
        assert!(count <= 500, "evaluated {count} times");
    }

    #[test]
    fn dimension_heuristic_scales_temperature() {
        let small = AnnealConfig::for_dimensions(2);
        let large = AnnealConfig::for_dimensions(20);
        assert!(large.initial_temp > small.initial_temp);
    }

    #[test]
    fn cooling_schedules_decrease() {
        let mut prev = f64::INFINITY;
        for k in [1usize, 10, 100, 1000, 10000] {
            let t = temperature(10.0, k);
            assert!(t < prev, "at k={k}");
            assert!(t > 0.0);
            prev = t;
        }
    }

    /// Σ (x_d − target_d)² with an exact O(1) move bound: integer
    /// terms keep every sum exact, so the bound needs no slack.
    struct Bowl {
        target: Vec<f64>,
        current: f64,
        evaluated: f64,
        exact: usize,
        /// Added to every bound; positive values break the contract.
        lie: f64,
    }

    impl Bowl {
        fn new(target: &[f64], lie: f64) -> Self {
            Self {
                target: target.to_vec(),
                current: 0.0,
                evaluated: 0.0,
                exact: 0,
                lie,
            }
        }

        fn term(&self, dim: usize, level: usize) -> f64 {
            (level as f64 - self.target[dim]).powi(2)
        }
    }

    impl Objective for Bowl {
        fn cost(&mut self, x: &[usize]) -> f64 {
            self.exact += 1;
            self.evaluated = x.iter().enumerate().map(|(d, &l)| self.term(d, l)).sum();
            self.evaluated
        }

        fn accept(&mut self) {
            self.current = self.evaluated;
        }

        fn lower_bound(&self, current: &[usize], dim: usize, level: usize) -> f64 {
            self.current - self.term(dim, current[dim]) + self.term(dim, level) + self.lie
        }
    }

    #[test]
    fn screened_objective_walks_like_the_closure() {
        let target = [13.0, 4.0, 0.0, 29.0];
        let annealer = Annealer::new(AnnealConfig::for_dimensions(4));
        let counts = [30, 30, 30, 30];
        let mut closure_rng = SimRng::seed_from(17);
        let exact = annealer.minimize(
            &counts,
            &[0, 0, 0, 0],
            |x| {
                x.iter()
                    .zip(&target)
                    .map(|(&l, t)| (l as f64 - t).powi(2))
                    .sum()
            },
            &mut closure_rng,
        );
        let mut bowl = Bowl::new(&target, 0.0);
        let mut screened_rng = SimRng::seed_from(17);
        let screened =
            annealer.minimize_objective(&counts, &[0, 0, 0, 0], &mut bowl, &mut screened_rng);
        assert_eq!(screened, exact);
        assert_eq!(screened.cost.to_bits(), exact.cost.to_bits());
        assert_eq!(screened_rng.state(), closure_rng.state());
        if !cfg!(debug_assertions) {
            // Only accepted moves and the undecided few need the exact
            // cost (debug builds re-check every screened rejection).
            assert!(bowl.exact < exact.evaluations / 2, "{} exact", bowl.exact);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "screened rejection")]
    fn debug_builds_catch_a_bound_above_the_exact_cost() {
        let annealer = Annealer::new(AnnealConfig::default());
        let mut rng = SimRng::seed_from(19);
        annealer.minimize_objective(
            &[30, 30],
            &[0, 0],
            &mut Bowl::new(&[9.0, 3.0], 1e9),
            &mut rng,
        );
    }

    /// A [`Bowl`] whose bound puts every downhill move one ULP above
    /// the current cost: too close to it to screen any move out, so the
    /// lie only shows on the evaluated path.
    struct UlpUphill(Bowl);

    impl Objective for UlpUphill {
        fn cost(&mut self, x: &[usize]) -> f64 {
            self.0.cost(x)
        }

        fn accept(&mut self) {
            self.0.accept();
        }

        fn lower_bound(&self, current: &[usize], dim: usize, level: usize) -> f64 {
            // The bowl's cost is non-negative, so the next float up is
            // one bit higher.
            let above = f64::from_bits(self.0.current.to_bits() + 1);
            self.0.lower_bound(current, dim, level).max(above)
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "evaluated move")]
    fn debug_builds_catch_a_bound_above_an_evaluated_cost() {
        let annealer = Annealer::new(AnnealConfig::default());
        let mut rng = SimRng::seed_from(23);
        annealer.minimize_objective(
            &[30, 30],
            &[0, 0],
            &mut UlpUphill(Bowl::new(&[9.0, 3.0], 0.0)),
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_initial_rejected() {
        let annealer = Annealer::new(AnnealConfig::default());
        let mut rng = SimRng::seed_from(1);
        annealer.minimize(&[3], &[3], |_| 0.0, &mut rng);
    }
}
