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
//! minimizing an arbitrary cost closure.
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
    /// # Panics
    ///
    /// Panics if `level_counts` is empty, any count is zero, or
    /// `initial` is out of range.
    pub fn minimize<F>(
        &self,
        level_counts: &[usize],
        initial: &[usize],
        mut cost: F,
        rng: &mut SimRng,
    ) -> AnnealResult
    where
        F: FnMut(&[usize]) -> f64,
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
        let mut current_cost = cost(&current);
        let mut best = current.clone();
        let mut best_cost = current_cost;
        let mut accepted = 0usize;
        let mut evals = 1usize;

        let t0 = self.config.initial_temp;
        let mut proposal = current.clone();

        while evals < self.config.evaluations {
            let temp = temperature(t0, evals);

            // Gaussian Markov kernel on one random dimension.
            proposal.copy_from_slice(&current);
            let dim = rng.index(level_counts.len());
            let sigma = (self.config.kernel_scale * temp / t0).max(1.0);
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
                evals += 1;
                continue;
            }
            proposal[dim] = new_val;

            let proposal_cost = cost(&proposal);
            evals += 1;

            let delta = proposal_cost - current_cost;
            let accept = delta <= 0.0 || rng.next_f64() < (-delta / temp.max(1e-12)).exp();
            if accept {
                current.copy_from_slice(&proposal);
                current_cost = proposal_cost;
                accepted += 1;
                if current_cost < best_cost {
                    best.copy_from_slice(&current);
                    best_cost = current_cost;
                }
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

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_initial_rejected() {
        let annealer = Annealer::new(AnnealConfig::default());
        let mut rng = SimRng::seed_from(1);
        annealer.minimize(&[3], &[3], |_| 0.0, &mut rng);
    }
}
