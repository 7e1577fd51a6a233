//! Dense one-phase Simplex linear-programming solver.
//!
//! The paper's LinOpt power manager (§4.3.1) solves, every DVFS
//! interval, a linear program of the form
//!
//! ```text
//! maximize    a₁x₁ + … + a_N x_N
//! subject to  x_i ≥ 0,   and any number of   b·x ≤ B   with B ≥ 0
//! ```
//!
//! using "the Simplex method [Numerical Recipes] because it is
//! relatively straightforward to implement and, in practice, often fast
//! to compute". This crate is that solver: a dense tableau and a
//! Dantzig-then-Bland Simplex over `≤` rows whose right-hand sides are
//! non-negative. The origin satisfies every such program, so the solve
//! starts from the slack basis and needs no phase 1. LinOpt's shift to
//! `xᵢ = vᵢ − Vlowᵢ` puts its program in this form.
//!
//! # Example
//!
//! Maximize `3x + 2y` subject to `x + y ≤ 4`, `x ≤ 2`:
//!
//! ```
//! use linprog::Problem;
//!
//! let solution = Problem::maximize(vec![3.0, 2.0])
//!     .constraint_le(vec![1.0, 1.0], 4.0)
//!     .constraint_le(vec![1.0, 0.0], 2.0)
//!     .solve()
//!     .expect("feasible and bounded");
//! assert!((solution.objective - 10.0).abs() < 1e-9);
//! assert!((solution.x[0] - 2.0).abs() < 1e-9);
//! assert!((solution.x[1] - 2.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
// Index loops mirror the textbook simplex-tableau formulation.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

mod simplex;

pub use simplex::{LpError, Problem, Solution, SolveWorkspace};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_maximization() {
        // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 => (3, 1.5), 21.
        let s = Problem::maximize(vec![5.0, 4.0])
            .constraint_le(vec![6.0, 4.0], 24.0)
            .constraint_le(vec![1.0, 2.0], 6.0)
            .solve()
            .unwrap();
        assert!((s.objective - 21.0).abs() < 1e-9);
        assert!((s.x[0] - 3.0).abs() < 1e-9);
        assert!((s.x[1] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn unbounded_detected() {
        let r = Problem::maximize(vec![1.0, 0.0])
            .constraint_le(vec![0.0, 1.0], 5.0)
            .solve();
        assert_eq!(r.unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic cycling-prone problem (Beale); Bland's rule must
        // terminate.
        let s = Problem::maximize(vec![0.75, -150.0, 0.02, -6.0])
            .constraint_le(vec![0.25, -60.0, -0.04, 9.0], 0.0)
            .constraint_le(vec![0.5, -90.0, -0.02, 3.0], 0.0)
            .constraint_le(vec![0.0, 0.0, 1.0, 0.0], 1.0)
            .solve()
            .unwrap();
        assert!(
            (s.objective - 0.05).abs() < 1e-9,
            "objective {}",
            s.objective
        );
    }

    #[test]
    fn linopt_shaped_problem() {
        // A miniature LinOpt: 3 cores, voltage in [0, 0.4] (shifted from
        // [0.6, 1.0]), throughput weights a_i, power slopes b_i, budget.
        let a = [4.0, 2.5, 1.0];
        let b = [5.0, 4.0, 3.0];
        let budget = 2.0; // headroom above the Vlow operating point
        let mut p = Problem::maximize(a.to_vec());
        p = p.constraint_le(b.to_vec(), budget);
        for i in 0..3 {
            let mut row = vec![0.0; 3];
            row[i] = 1.0;
            p = p.constraint_le(row, 0.4);
        }
        let s = p.solve().unwrap();
        // Budget should be used fully (all weights positive).
        let used: f64 = (0..3).map(|i| b[i] * s.x[i]).sum();
        assert!(used <= budget + 1e-9);
        assert!(used > budget - 1e-6);
        // Highest-efficiency core (a/b): core 0 (0.8) > core 1 (0.625) >
        // core 2 (0.33) — core 0 should be maxed out first.
        assert!((s.x[0] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn textbook_duals() {
        // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6.
        // Optimal duals: y1 = 0.75, y2 = 0.5.
        let s = Problem::maximize(vec![5.0, 4.0])
            .constraint_le(vec![6.0, 4.0], 24.0)
            .constraint_le(vec![1.0, 2.0], 6.0)
            .solve()
            .unwrap();
        assert!((s.dual[0] - 0.75).abs() < 1e-9, "{:?}", s.dual);
        assert!((s.dual[1] - 0.5).abs() < 1e-9, "{:?}", s.dual);
        // Strong duality: b . y = optimal objective.
        let by = 24.0 * s.dual[0] + 6.0 * s.dual[1];
        assert!((by - s.objective).abs() < 1e-9);
    }

    #[test]
    fn non_binding_constraint_has_zero_dual() {
        let s = Problem::maximize(vec![1.0])
            .constraint_le(vec![1.0], 2.0) // binding
            .constraint_le(vec![1.0], 100.0) // slack
            .solve()
            .unwrap();
        assert!((s.dual[0] - 1.0).abs() < 1e-9);
        assert!(s.dual[1].abs() < 1e-9);
    }

    #[test]
    fn strong_duality_on_random_problems() {
        use vastats::SimRng;
        let mut rng = SimRng::seed_from(77);
        for _ in 0..20 {
            let n = 2 + rng.index(4);
            let m = 1 + rng.index(4);
            let c: Vec<f64> = (0..n).map(|_| rng.uniform(0.1, 2.0)).collect();
            let rows: Vec<Vec<f64>> = (0..m)
                .map(|_| (0..n).map(|_| rng.uniform(0.1, 1.0)).collect())
                .collect();
            let rhs: Vec<f64> = (0..m).map(|_| rng.uniform(1.0, 5.0)).collect();
            let mut p = Problem::maximize(c);
            for (row, &b) in rows.iter().zip(&rhs) {
                p = p.constraint_le(row.clone(), b);
            }
            let s = p.solve().unwrap();
            let by: f64 = rhs.iter().zip(&s.dual).map(|(b, y)| b * y).sum();
            assert!(
                (by - s.objective).abs() < 1e-6,
                "gap {by} vs {}",
                s.objective
            );
            // Duals of <= constraints in a max problem are non-negative.
            assert!(s.dual.iter().all(|&y| y >= -1e-9));
        }
    }

    #[test]
    fn zero_objective_feasible_point() {
        let s = Problem::maximize(vec![0.0, 0.0])
            .constraint_le(vec![1.0, 1.0], 1.0)
            .solve()
            .unwrap();
        assert!(s.objective.abs() < 1e-12);
    }

    #[test]
    fn duality_gap_zero_on_random_problems() {
        // For random feasible bounded LPs, check primal solution
        // satisfies constraints and achieves the same value as the dual
        // (weak duality bound via complementary slackness spot check:
        // here we just verify feasibility and local optimality by
        // perturbation).
        use vastats::SimRng;
        let mut rng = SimRng::seed_from(42);
        for trial in 0..20 {
            let n = 3 + rng.index(3);
            let m = 2 + rng.index(3);
            let c: Vec<f64> = (0..n).map(|_| rng.uniform(0.1, 2.0)).collect();
            let rows: Vec<Vec<f64>> = (0..m)
                .map(|_| (0..n).map(|_| rng.uniform(0.1, 1.0)).collect())
                .collect();
            let rhs: Vec<f64> = (0..m).map(|_| rng.uniform(1.0, 5.0)).collect();
            let mut p = Problem::maximize(c.clone());
            for (row, &b) in rows.iter().zip(&rhs) {
                p = p.constraint_le(row.clone(), b);
            }
            let s = p.solve().unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            // Feasible.
            for (row, &b) in rows.iter().zip(&rhs) {
                let lhs: f64 = row.iter().zip(&s.x).map(|(a, x)| a * x).sum();
                assert!(lhs <= b + 1e-7, "constraint violated: {lhs} > {b}");
            }
            assert!(s.x.iter().all(|&x| x >= -1e-9));
            // Objective matches c.x.
            let cx: f64 = c.iter().zip(&s.x).map(|(a, x)| a * x).sum();
            assert!((cx - s.objective).abs() < 1e-7);
        }
    }
}
