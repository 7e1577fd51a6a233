//! One-phase Simplex over a dense tableau.

use std::fmt;

/// Numerical tolerance for pivoting and feasibility checks.
const EPS: f64 = 1e-9;

/// Iteration cap: generous for the problem sizes LinOpt produces
/// (tens of variables and constraints).
const MAX_ITERS: usize = 10_000;

/// Errors from [`Problem::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpError {
    /// The objective can grow without bound.
    Unbounded,
    /// The iteration cap was exceeded (numerical trouble).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::IterationLimit => write!(f, "simplex exceeded its iteration limit"),
        }
    }
}

impl std::error::Error for LpError {}

/// A linear program `max c·x` over non-negative variables and `≤` rows
/// with non-negative right-hand sides, built incrementally. The origin
/// always satisfies such a program, so every solve starts from the
/// slack basis.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Problem {
    objective: Vec<f64>,
    /// `(coeffs, rhs)` per `≤` row.
    constraints: Vec<(Vec<f64>, f64)>,
    /// Retired constraint rows recycled by [`Problem::reset_maximize`] /
    /// [`Problem::push_le`], so a re-built LP reuses its allocations.
    spare_rows: Vec<Vec<f64>>,
}

/// Reusable buffers for repeated solves.
///
/// A solver that rebuilds a same-shaped LP every interval (LinOpt's
/// 10 ms re-solve) passes the same workspace to
/// [`Problem::solve_warm_with`]; the tableau, objective, basis, and
/// reduced-cost vectors are then recycled instead of reallocated.
/// Buffers are taken for the duration of the solve and stored back on
/// every exit path (including errors). Solves through a workspace are
/// bit-identical to [`Problem::solve_warm`], which is itself just a
/// solve through a throwaway workspace.
#[derive(Debug, Clone, Default)]
pub struct SolveWorkspace {
    data: Vec<f64>,
    obj: Vec<f64>,
    basis: Vec<usize>,
    reduced: Vec<f64>,
}

impl SolveWorkspace {
    /// An empty workspace; buffers are sized by the first solve.
    pub fn new() -> Self {
        Self::default()
    }
}

/// An optimal solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal objective value.
    pub objective: f64,
    /// Optimal variable assignment (same order as the objective vector).
    pub x: Vec<f64>,
    /// Dual value (shadow price) of each constraint, in the order the
    /// constraints were added: the rate of objective improvement per
    /// unit of constraint relaxation. Zero for constraints that are not
    /// binding at the optimum (complementary slackness).
    pub dual: Vec<f64>,
    /// The optimal basis: one column index per constraint row. Feed it
    /// back into [`Problem::solve_warm`] to warm-start the next solve of
    /// a same-shaped problem.
    pub basis: Vec<usize>,
    /// Total tableau pivots the solve performed, warm-start basis
    /// installation included. A cheap proxy for solver work (each pivot
    /// is one O(rows × width) tableau update).
    pub pivots: usize,
    /// Whether a caller-supplied basis hint installed successfully and
    /// the solve started from it ([`Problem::solve_warm`]); `false` for
    /// cold solves and for stale hints that were ignored.
    pub warm_started: bool,
}

impl Problem {
    /// Starts a maximization problem with the given objective
    /// coefficients. All variables are constrained to be non-negative.
    ///
    /// # Panics
    ///
    /// Panics if `objective` is empty or contains non-finite values.
    pub fn maximize(objective: Vec<f64>) -> Self {
        assert!(!objective.is_empty(), "objective must have variables");
        assert!(
            objective.iter().all(|c| c.is_finite()),
            "objective must be finite"
        );
        Self {
            objective,
            constraints: Vec::new(),
            spare_rows: Vec::new(),
        }
    }

    /// Adds `coeffs · x ≤ rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the variable count, any
    /// value is non-finite, or `rhs` is negative.
    pub fn constraint_le(mut self, coeffs: Vec<f64>, rhs: f64) -> Self {
        self.push_constraint(coeffs, rhs);
        self
    }

    fn push_constraint(&mut self, coeffs: Vec<f64>, rhs: f64) {
        assert_eq!(
            coeffs.len(),
            self.objective.len(),
            "constraint arity must match variable count"
        );
        assert!(
            coeffs.iter().all(|c| c.is_finite()) && rhs.is_finite(),
            "constraint must be finite"
        );
        assert!(
            rhs >= 0.0,
            "constraint right-hand side must be non-negative, got {rhs}"
        );
        self.constraints.push((coeffs, rhs));
    }

    /// Resets this problem in place to a fresh maximization over
    /// `objective`, retiring the current constraint rows into a spare
    /// pool that [`Problem::push_le`] recycles — so rebuilding a
    /// same-shaped LP every interval allocates nothing in steady state.
    ///
    /// # Panics
    ///
    /// Panics if `objective` is empty or contains non-finite values.
    pub fn reset_maximize(&mut self, objective: &[f64]) {
        assert!(!objective.is_empty(), "objective must have variables");
        assert!(
            objective.iter().all(|c| c.is_finite()),
            "objective must be finite"
        );
        self.objective.clear();
        self.objective.extend_from_slice(objective);
        for (row, _) in self.constraints.drain(..) {
            self.spare_rows.push(row);
        }
    }

    /// Adds `coeffs · x ≤ rhs`, copying the coefficients into a recycled
    /// row buffer (the in-place counterpart of
    /// [`Problem::constraint_le`]).
    ///
    /// # Panics
    ///
    /// As [`Problem::constraint_le`].
    pub fn push_le(&mut self, coeffs: &[f64], rhs: f64) {
        let mut row = self.spare_rows.pop().unwrap_or_default();
        row.clear();
        row.extend_from_slice(coeffs);
        self.push_constraint(row, rhs);
    }

    /// Adds `coeffs · x ≤ rhs` with the row written by `fill` into a
    /// recycled zeroed buffer of variable-count length — for sparse rows
    /// (per-core box constraints) that would otherwise be built in a
    /// fresh `vec![0.0; n]` each time.
    ///
    /// # Panics
    ///
    /// Panics if `fill` writes non-finite values or `rhs` is non-finite
    /// or negative.
    pub fn push_le_with(&mut self, rhs: f64, fill: impl FnOnce(&mut [f64])) {
        let mut row = self.spare_rows.pop().unwrap_or_default();
        row.clear();
        row.resize(self.objective.len(), 0.0);
        fill(&mut row);
        self.push_constraint(row, rhs);
    }

    /// Solves the program.
    ///
    /// # Errors
    ///
    /// * [`LpError::Unbounded`] when the objective is unbounded above.
    /// * [`LpError::IterationLimit`] on numerical cycling (not expected
    ///   in practice thanks to Bland's rule).
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_warm(None)
    }

    /// Solves the program, optionally warm-starting from the basis of a
    /// previous [`Solution`] to a same-shaped problem.
    ///
    /// Consecutive solves of a slowly drifting problem (LinOpt's LP
    /// between DVFS intervals) usually share their optimal basis; when
    /// the hinted basis is still valid and primal-feasible for the new
    /// coefficients, the Simplex starts at (or next to) the optimum
    /// instead of at the slack basis. An unusable hint is ignored, so
    /// the result is always identical to [`Problem::solve`].
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve`].
    pub fn solve_warm(&self, basis_hint: Option<&[usize]>) -> Result<Solution, LpError> {
        let mut ws = SolveWorkspace::new();
        self.solve_warm_with(basis_hint, &mut ws)
    }

    /// Whether `hint` has the right *shape* to warm-start this problem:
    /// one column index per constraint row, every index inside the
    /// structural + slack column range. A shape-compatible hint can
    /// still be rejected at solve time (stale pivots, primal
    /// infeasibility for the new RHS); an incompatible one can never
    /// install. Checkpoint/restore paths use this to vet a captured
    /// basis against a rebuilt problem before offering it as a hint.
    pub fn basis_hint_compatible(&self, hint: &[usize]) -> bool {
        let m = self.constraints.len();
        hint.len() == m && hint.iter().all(|&j| j < self.objective.len() + m)
    }

    /// [`Problem::solve_warm`] through a caller-owned [`SolveWorkspace`]:
    /// the tableau and every solver-internal vector are recycled from
    /// (and stored back into) `ws`, so steady-state re-solves of
    /// same-shaped problems allocate only the returned [`Solution`].
    ///
    /// # Errors
    ///
    /// Same as [`Problem::solve`].
    pub fn solve_warm_with(
        &self,
        basis_hint: Option<&[usize]>,
        ws: &mut SolveWorkspace,
    ) -> Result<Solution, LpError> {
        let mut tableau = Tableau::build_with(self, ws);
        let mut warm_started = false;
        // Shape-incompatible hints (wrong arity, out-of-range columns)
        // can never install, so they are skipped without touching the
        // tableau.
        if let Some(hint) = basis_hint.filter(|h| self.basis_hint_compatible(h)) {
            if tableau.try_install_basis(hint) {
                warm_started = true;
            } else {
                // Stale hint may have left the tableau half-pivoted;
                // re-fill it in place (no reallocation).
                tableau.fill(self);
            }
        }
        let result = tableau.solve();
        tableau.store_into(ws);
        result.map(|s| Solution { warm_started, ..s })
    }
}

/// Dense simplex tableau over one contiguous row-major buffer.
///
/// Column layout: `[structural… | slack… | rhs]`, with row `r`'s slack
/// at column `n_structural + r`; row `r` lives at
/// `data[r * width .. (r + 1) * width]`. Every buffer is borrowed from
/// a [`SolveWorkspace`] at build time and handed back by
/// [`Tableau::store_into`], so steady-state re-solves are
/// allocation-free. The pivoting arithmetic — operand order included —
/// is exactly the `Vec<Vec<f64>>` formulation's (pinned by the
/// `flat_solver_matches_reference_corpus` test), so flattening changes
/// no result bits.
struct Tableau {
    /// `m * width` tableau entries, row-major.
    data: Vec<f64>,
    /// Entries per row (`n_total + 1`; last entry is the RHS).
    width: usize,
    /// Number of rows (constraints).
    m: usize,
    /// Objective coefficients (length = width - 1).
    obj: Vec<f64>,
    /// Basis: for each row, the index of its basic variable.
    basis: Vec<usize>,
    n_structural: usize,
    n_total: usize,
    /// Pivots performed so far (reset only by re-filling the tableau).
    pivots: usize,
    /// Scratch: reduced-cost vector reused across iterations.
    reduced: Vec<f64>,
}

impl Tableau {
    /// Builds the tableau for `p`, recycling `ws`'s buffers.
    fn build_with(p: &Problem, ws: &mut SolveWorkspace) -> Self {
        let mut t = Self {
            data: std::mem::take(&mut ws.data),
            width: 0,
            m: 0,
            obj: std::mem::take(&mut ws.obj),
            basis: std::mem::take(&mut ws.basis),
            n_structural: 0,
            n_total: 0,
            pivots: 0,
            reduced: std::mem::take(&mut ws.reduced),
        };
        t.fill(p);
        t
    }

    /// Hands every buffer back to the workspace for the next solve.
    fn store_into(self, ws: &mut SolveWorkspace) {
        ws.data = self.data;
        ws.obj = self.obj;
        ws.basis = self.basis;
        ws.reduced = self.reduced;
    }

    /// (Re)derives the initial tableau from `p` in place, reusing the
    /// existing buffers: every row's slack is basic. Equivalent to a
    /// fresh build.
    fn fill(&mut self, p: &Problem) {
        let n = p.objective.len();
        let m = p.constraints.len();
        let n_total = n + m;
        let width = n_total + 1;

        self.data.clear();
        self.data.resize(m * width, 0.0);
        for (r, (coeffs, rhs)) in p.constraints.iter().enumerate() {
            let row = &mut self.data[r * width..(r + 1) * width];
            row[..n].copy_from_slice(coeffs);
            row[n + r] = 1.0;
            row[width - 1] = *rhs;
        }
        self.basis.clear();
        self.basis.extend(n..n_total);

        self.obj.clear();
        self.obj.resize(n_total, 0.0);
        self.obj[..n].copy_from_slice(&p.objective);

        self.width = width;
        self.m = m;
        self.n_structural = n;
        self.n_total = n_total;
        self.pivots = 0;
    }

    fn solve(&mut self) -> Result<Solution, LpError> {
        let value = self.optimize()?;

        let mut x = vec![0.0; self.n_structural];
        for (r, &b) in self.basis.iter().enumerate() {
            if b < self.n_structural {
                x[b] = self.rhs(r);
            }
        }
        // Duals: a constraint's shadow price is the simplex multiplier
        // of its slack column — z_j = c_B · B^{-1} A_j.
        let dual = (self.n_structural..self.n_total)
            .map(|col| {
                self.basis
                    .iter()
                    .enumerate()
                    .map(|(r, &b)| self.obj[b] * self.data[r * self.width + col])
                    .sum::<f64>()
            })
            .collect();
        Ok(Solution {
            objective: value,
            x,
            dual,
            basis: self.basis.clone(),
            pivots: self.pivots,
            warm_started: false,
        })
    }

    /// Pivots the tableau toward the shape-compatible hinted basis (see
    /// [`Problem::basis_hint_compatible`]). Returns `false` (and may
    /// leave the tableau half-pivoted — re-fill it) when the hint is
    /// stale: a target column that cannot enter, or a resulting point
    /// that is not primal feasible.
    fn try_install_basis(&mut self, hint: &[usize]) -> bool {
        let wanted = |j: usize| hint.contains(&j);
        for &j in hint {
            if self.basis.contains(&j) {
                continue;
            }
            // Enter j on a row whose basic variable is not wanted.
            let row = (0..self.m)
                .find(|&r| !wanted(self.basis[r]) && self.data[r * self.width + j].abs() > EPS);
            match row {
                Some(r) => self.pivot(r, j),
                None => return false,
            }
        }
        // The hinted basis must be primal feasible for the new RHS,
        // otherwise simplex's invariant breaks.
        (0..self.m).all(|r| self.rhs(r) >= -EPS)
    }

    fn rhs(&self, r: usize) -> f64 {
        self.data[r * self.width + self.width - 1]
    }

    /// Maximizes the objective from the current (primal-feasible)
    /// basis. Returns the optimal value.
    fn optimize(&mut self) -> Result<f64, LpError> {
        let mut reduced = std::mem::take(&mut self.reduced);
        let result = self.optimize_into(&mut reduced);
        self.reduced = reduced;
        result
    }

    fn optimize_into(&mut self, reduced: &mut Vec<f64>) -> Result<f64, LpError> {
        for iter in 0..MAX_ITERS {
            // Reduced costs: z_j - c_j = (c_B B^-1 A_j) - c_j. With the
            // tableau kept in canonical form, compute via basis prices.
            self.reduced_costs_into(reduced);

            // Entering column: Dantzig early on, Bland after a while to
            // guarantee termination under degeneracy.
            let entering = if iter < 2 * self.m + 50 {
                let mut best = None;
                let mut best_val = EPS;
                for (j, &rc) in reduced.iter().enumerate() {
                    if rc > best_val {
                        best_val = rc;
                        best = Some(j);
                    }
                }
                best
            } else {
                reduced.iter().position(|&rc| rc > EPS)
            };

            let Some(col) = entering else {
                // Optimal: objective = c_B x_B.
                let value = self
                    .basis
                    .iter()
                    .enumerate()
                    .map(|(r, &b)| self.obj[b] * self.rhs(r))
                    .sum();
                return Ok(value);
            };

            // Ratio test (Bland tie-break on basis index).
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.m {
                let a = self.data[r * self.width + col];
                if a > EPS {
                    let ratio = self.rhs(r) / a;
                    let better = ratio < best_ratio - EPS
                        || ((ratio - best_ratio).abs() <= EPS
                            && leave.is_some_and(|l| self.basis[r] < self.basis[l]));
                    if (better || leave.is_none()) && ratio < best_ratio + EPS {
                        best_ratio = ratio.min(best_ratio);
                        leave = Some(r);
                    }
                }
            }
            let Some(row) = leave else {
                return Err(LpError::Unbounded);
            };

            self.pivot(row, col);
        }
        Err(LpError::IterationLimit)
    }

    /// Reduced cost of each column given the current basis (canonical
    /// tableau ⇒ `c_j − c_B·column_j`), written into `out`.
    ///
    /// The accumulation runs row-major over the flat tableau (one pass
    /// per basic row, ascending), which adds each column's terms in the
    /// same row order as the column-major formulation — so every
    /// reduced cost is the identical floating-point sum. Rows whose
    /// basis price is exactly zero contribute exactly-zero terms and
    /// are skipped; that can only flip the sign of a zero sum, which no
    /// comparison here distinguishes.
    fn reduced_costs_into(&self, out: &mut Vec<f64>) {
        let c = &self.obj;
        out.clear();
        out.resize(self.n_total, 0.0);
        for (r, &b) in self.basis.iter().enumerate() {
            let price = c[b];
            if price == 0.0 {
                continue;
            }
            let row = &self.data[r * self.width..r * self.width + self.n_total];
            for (slot, &a) in out.iter_mut().zip(row) {
                *slot += price * a;
            }
        }
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = c[j] - *slot;
        }
        // Basic columns have zero reduced cost by construction; zero them
        // explicitly to suppress numerical residue.
        for &b in &self.basis {
            out[b] = 0.0;
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let w = self.width;
        let p = self.data[row * w + col];
        debug_assert!(p.abs() > EPS, "pivot on (near-)zero element");
        // Split the buffer around the pivot row so it can be read while
        // the other rows are updated. Rows are processed in ascending
        // order (before-rows, then after-rows), matching the original
        // `for r in 0..m { skip row }` loop.
        let (before, rest) = self.data.split_at_mut(row * w);
        let (prow, after) = rest.split_at_mut(w);
        for v in prow.iter_mut() {
            *v /= p;
        }
        let eliminate = |chunk: &mut [f64]| {
            for other in chunk.chunks_exact_mut(w) {
                let f = other[col];
                if f.abs() > EPS {
                    for (dst, &src) in other.iter_mut().zip(prow.iter()) {
                        let delta = f * src;
                        *dst -= delta;
                    }
                    other[col] = 0.0;
                }
            }
        };
        eliminate(before);
        eliminate(after);
        self.basis[row] = col;
    }
}

/// The original `Vec<Vec<f64>>` tableau, retained as the bit-exactness
/// oracle for the flat formulation (see the
/// `flat_solver_matches_reference_corpus` test).
#[cfg(test)]
mod reference {
    use super::{LpError, Problem, Solution, EPS, MAX_ITERS};

    pub(super) fn solve_warm(
        p: &Problem,
        basis_hint: Option<&[usize]>,
    ) -> Result<Solution, LpError> {
        let mut tableau = Tableau::build(p);
        let mut warm_started = false;
        if let Some(hint) = basis_hint {
            if tableau.try_install_basis(hint) {
                warm_started = true;
            } else {
                tableau = Tableau::build(p);
            }
        }
        tableau.solve().map(|s| Solution { warm_started, ..s })
    }

    struct Tableau {
        rows: Vec<Vec<f64>>,
        obj: Vec<f64>,
        basis: Vec<usize>,
        n_structural: usize,
        pivots: usize,
    }

    impl Tableau {
        fn build(p: &Problem) -> Self {
            let n = p.objective.len();
            let m = p.constraints.len();
            let width = n + m + 1;

            let mut rows = vec![vec![0.0; width]; m];
            for (r, (coeffs, rhs)) in p.constraints.iter().enumerate() {
                rows[r][..n].copy_from_slice(coeffs);
                rows[r][n + r] = 1.0;
                rows[r][width - 1] = *rhs;
            }
            let mut obj = vec![0.0; n + m];
            obj[..n].copy_from_slice(&p.objective);

            Self {
                rows,
                obj,
                basis: (n..n + m).collect(),
                n_structural: n,
                pivots: 0,
            }
        }

        fn n_total(&self) -> usize {
            self.obj.len()
        }

        fn solve(mut self) -> Result<Solution, LpError> {
            let value = self.optimize()?;

            let mut x = vec![0.0; self.n_structural];
            for (r, &b) in self.basis.iter().enumerate() {
                if b < self.n_structural {
                    x[b] = self.rhs(r);
                }
            }
            let dual = (self.n_structural..self.n_total())
                .map(|col| {
                    self.basis
                        .iter()
                        .enumerate()
                        .map(|(r, &b)| self.obj[b] * self.rows[r][col])
                        .sum::<f64>()
                })
                .collect();
            Ok(Solution {
                objective: value,
                x,
                dual,
                basis: self.basis.clone(),
                pivots: self.pivots,
                warm_started: false,
            })
        }

        fn try_install_basis(&mut self, hint: &[usize]) -> bool {
            if hint.len() != self.rows.len() {
                return false;
            }
            if hint.iter().any(|&j| j >= self.n_total()) {
                return false;
            }
            let wanted = |j: usize| hint.contains(&j);
            for &j in hint {
                if self.basis.contains(&j) {
                    continue;
                }
                let row = (0..self.rows.len())
                    .find(|&r| !wanted(self.basis[r]) && self.rows[r][j].abs() > EPS);
                match row {
                    Some(r) => self.pivot(r, j),
                    None => return false,
                }
            }
            (0..self.rows.len()).all(|r| self.rhs(r) >= -EPS)
        }

        fn rhs(&self, r: usize) -> f64 {
            let w = self.rows[r].len();
            self.rows[r][w - 1]
        }

        fn optimize(&mut self) -> Result<f64, LpError> {
            for iter in 0..MAX_ITERS {
                let reduced = self.reduced_costs();

                let entering = if iter < 2 * self.rows.len() + 50 {
                    let mut best = None;
                    let mut best_val = EPS;
                    for (j, &rc) in reduced.iter().enumerate() {
                        if rc > best_val {
                            best_val = rc;
                            best = Some(j);
                        }
                    }
                    best
                } else {
                    reduced.iter().position(|&rc| rc > EPS)
                };

                let Some(col) = entering else {
                    let value = self
                        .basis
                        .iter()
                        .enumerate()
                        .map(|(r, &b)| self.obj[b] * self.rhs(r))
                        .sum();
                    return Ok(value);
                };

                let mut leave: Option<usize> = None;
                let mut best_ratio = f64::INFINITY;
                for r in 0..self.rows.len() {
                    let a = self.rows[r][col];
                    if a > EPS {
                        let ratio = self.rhs(r) / a;
                        let better = ratio < best_ratio - EPS
                            || ((ratio - best_ratio).abs() <= EPS
                                && leave.is_some_and(|l| self.basis[r] < self.basis[l]));
                        if (better || leave.is_none()) && ratio < best_ratio + EPS {
                            best_ratio = ratio.min(best_ratio);
                            leave = Some(r);
                        }
                    }
                }
                let Some(row) = leave else {
                    return Err(LpError::Unbounded);
                };

                self.pivot(row, col);
            }
            Err(LpError::IterationLimit)
        }

        fn reduced_costs(&self) -> Vec<f64> {
            let mut out = vec![0.0; self.n_total()];
            for (j, slot) in out.iter_mut().enumerate() {
                let mut z = 0.0;
                for (r, &b) in self.basis.iter().enumerate() {
                    z += self.obj[b] * self.rows[r][j];
                }
                *slot = self.obj[j] - z;
            }
            for &b in &self.basis {
                out[b] = 0.0;
            }
            out
        }

        fn pivot(&mut self, row: usize, col: usize) {
            self.pivots += 1;
            let w = self.rows[row].len();
            let p = self.rows[row][col];
            for j in 0..w {
                self.rows[row][j] /= p;
            }
            for r in 0..self.rows.len() {
                if r == row {
                    continue;
                }
                let f = self.rows[r][col];
                if f.abs() > EPS {
                    for j in 0..w {
                        let delta = f * self.rows[row][j];
                        self.rows[r][j] -= delta;
                    }
                    self.rows[r][col] = 0.0;
                }
            }
            self.basis[row] = col;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let _ = Problem::maximize(vec![1.0, 2.0]).constraint_le(vec![1.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "right-hand side must be non-negative")]
    fn negative_rhs_panics() {
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        p.push_le(&[-1.0, -1.0], -2.0);
    }

    #[test]
    fn warm_start_matches_cold_solve() {
        let problem = |budget: f64| {
            Problem::maximize(vec![3.0, 2.0, 1.5])
                .constraint_le(vec![1.0, 1.0, 1.0], budget)
                .constraint_le(vec![1.0, 0.0, 0.0], 2.0)
                .constraint_le(vec![0.0, 1.0, 0.0], 2.0)
                .constraint_le(vec![0.0, 0.0, 1.0], 2.0)
        };
        let first = problem(4.0).solve().unwrap();
        // Drift the RHS a little: the optimal basis is unchanged, so the
        // warm solve must land on the same optimum a cold solve finds.
        let drifted = problem(4.2);
        let cold = drifted.solve().unwrap();
        let warm = drifted.solve_warm(Some(&first.basis)).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        for (w, c) in warm.x.iter().zip(&cold.x) {
            assert!((w - c).abs() < 1e-9);
        }
    }

    #[test]
    fn stale_basis_hint_is_ignored() {
        let p = Problem::maximize(vec![1.0, 1.0]).constraint_le(vec![1.0, 1.0], 1.0);
        let cold = p.solve().unwrap();
        // Wrong arity and out-of-range columns must both fall back.
        let warm = p.solve_warm(Some(&[9, 9, 9])).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-12);
        let warm = p.solve_warm(Some(&[1])).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-12);
    }

    #[test]
    fn basis_hint_compatibility_is_a_shape_check() {
        let p = Problem::maximize(vec![3.0, 2.0])
            .constraint_le(vec![1.0, 1.0], 4.0)
            .constraint_le(vec![1.0, 0.0], 2.0);
        // 2 structural + 2 slack columns, 2 rows.
        assert!(p.basis_hint_compatible(&[0, 1]));
        assert!(p.basis_hint_compatible(&[3, 0]));
        assert!(!p.basis_hint_compatible(&[0]), "wrong arity");
        assert!(!p.basis_hint_compatible(&[0, 4]), "column out of range");
        // A real optimal basis from a same-shaped solve is compatible.
        let s = p.solve().unwrap();
        assert!(p.basis_hint_compatible(&s.basis));
    }

    #[test]
    fn solve_reports_pivot_and_warm_start_stats() {
        let problem = |budget: f64| {
            Problem::maximize(vec![3.0, 2.0])
                .constraint_le(vec![1.0, 1.0], budget)
                .constraint_le(vec![1.0, 0.0], 2.0)
        };
        let cold = problem(3.0).solve().unwrap();
        assert!(cold.pivots > 0, "a non-trivial solve must pivot");
        assert!(!cold.warm_started);

        // A good hint is acknowledged and needs no optimization pivots
        // beyond installing the basis itself.
        let warm = problem(3.1).solve_warm(Some(&cold.basis)).unwrap();
        assert!(warm.warm_started);
        assert!(warm.pivots <= cold.pivots);

        // A stale hint is ignored and reported as a cold solve.
        let stale = problem(3.1).solve_warm(Some(&[9, 9, 9])).unwrap();
        assert!(!stale.warm_started);
        assert_eq!(stale.pivots, cold.pivots);
    }

    #[test]
    fn single_variable_box() {
        let s = Problem::maximize(vec![7.0])
            .constraint_le(vec![1.0], 0.4)
            .solve()
            .unwrap();
        assert!((s.x[0] - 0.4).abs() < 1e-12);
        assert!((s.objective - 2.8).abs() < 1e-9);
    }

    /// Asserts the flat solve and the retained `Vec<Vec<f64>>` reference
    /// produce the exact same outcome: identical error, or bitwise
    /// identical objective / x / dual plus equal basis, pivot count, and
    /// warm-start flag.
    fn assert_matches_reference(p: &Problem, hint: Option<&[usize]>, ws: &mut SolveWorkspace) {
        let flat = p.solve_warm_with(hint, ws);
        let oracle = reference::solve_warm(p, hint);
        match (flat, oracle) {
            (Ok(f), Ok(o)) => {
                assert_eq!(f.objective.to_bits(), o.objective.to_bits(), "objective");
                assert_eq!(f.x.len(), o.x.len());
                for (i, (a, b)) in f.x.iter().zip(&o.x).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "x[{i}]");
                }
                assert_eq!(f.dual.len(), o.dual.len());
                for (i, (a, b)) in f.dual.iter().zip(&o.dual).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "dual[{i}]");
                }
                assert_eq!(f.basis, o.basis, "basis");
                assert_eq!(f.pivots, o.pivots, "pivots");
                assert_eq!(f.warm_started, o.warm_started, "warm_started");
            }
            (Err(f), Err(o)) => assert_eq!(f, o, "errors must agree"),
            (f, o) => panic!("flat {f:?} disagrees with reference {o:?}"),
        }
    }

    /// A LinOpt-shaped LP: maximize throughput-weighted frequencies under
    /// one chip-power row plus a box row per core.
    fn linopt_shaped(cores: usize, drift: f64) -> Problem {
        let objective: Vec<f64> = (0..cores)
            .map(|i| 1.0 + 0.13 * i as f64 + 0.21 * drift)
            .collect();
        let power: Vec<f64> = (0..cores)
            .map(|i| 2.0 + 0.07 * (i as f64) * (1.0 + 0.1 * drift))
            .collect();
        let budget = 0.55 * power.iter().sum::<f64>() * 0.4 + drift;
        let mut p = Problem::maximize(objective);
        p.push_le(&power, budget);
        for i in 0..cores {
            p.push_le_with(0.4, |row| row[i] = 1.0);
        }
        p
    }

    #[test]
    fn flat_solver_matches_reference_corpus() {
        let mut ws = SolveWorkspace::new();

        let p = Problem::maximize(vec![3.0, 2.0, 1.5])
            .constraint_le(vec![1.0, 1.0, 1.0], 4.0)
            .constraint_le(vec![1.0, 0.0, 0.0], 2.0)
            .constraint_le(vec![0.0, 1.0, 0.0], 2.0)
            .constraint_le(vec![0.0, 0.0, 1.0], 2.0);
        assert_matches_reference(&p, None, &mut ws);

        // Unbounded must error identically: x0 has no positive entry in
        // any row, so nothing blocks it once it enters.
        let p = Problem::maximize(vec![1.0, 1.0])
            .constraint_le(vec![-1.0, 1.0], 1.0)
            .constraint_le(vec![0.0, 1.0], 3.0);
        assert_matches_reference(&p, None, &mut ws);

        // Warm-started drifting LinOpt-shaped sequence: thread the basis
        // through like the manager's 10 ms re-solve does, reusing one
        // workspace the whole way.
        for cores in [4, 9, 20] {
            let mut basis: Option<Vec<usize>> = None;
            for step in 0..6 {
                let p = linopt_shaped(cores, 0.3 * step as f64);
                assert_matches_reference(&p, basis.as_deref(), &mut ws);
                let s = p.solve_warm_with(basis.as_deref(), &mut ws).unwrap();
                basis = Some(s.basis);
            }
            // A deliberately stale hint (wrong arity) must fall back to
            // the re-filled cold tableau identically.
            let p = linopt_shaped(cores, 1.7);
            assert_matches_reference(&p, Some(&[0]), &mut ws);
        }

        // In-place rebuild: reset_maximize + push rows, then solve with
        // the same workspace again.
        let mut p = linopt_shaped(6, 0.0);
        assert_matches_reference(&p, None, &mut ws);
        p.reset_maximize(&[5.0, 1.0, 2.0]);
        p.push_le(&[1.0, 2.0, 1.0], 7.0);
        p.push_le_with(1.5, |row| row[0] = 1.0);
        assert_matches_reference(&p, None, &mut ws);
    }
}
