//! Lumped-RC floorplan thermal model: the HotSpot substitute.
//!
//! The paper estimates on-chip temperatures with HotSpot and iterates
//! temperature against leakage per Su et al. (§6.2): temperature is
//! estimated from the current total power, leakage is re-estimated from
//! the new temperature, and the loop repeats to convergence. Here the
//! simulated machine couples the two tick by tick instead: each step
//! evaluates leakage at the current block temperatures, and the step's
//! block powers drive the next transient step.
//!
//! This crate models the die as one RC node per floorplan block:
//!
//! * a **vertical** conductance from each block through the heat
//!   spreader/sink to ambient, proportional to block area (the full-die
//!   junction-to-ambient resistance is a model parameter);
//! * **lateral** conductances between blocks that share a floorplan
//!   edge, proportional to shared edge length over center distance;
//! * a per-block **heat capacity** proportional to area, giving the
//!   transient time constant used by the runtime simulator's
//!   quasi-static temperature updates.
//!
//! Transients compose the stability-bounded forward-Euler sub-steps
//! into one dense affine operator per tick length (`T' = M·T + B·P +
//! d`), built on first use and cached, so a runtime tick costs a single
//! small matrix-vector product instead of a sub-step loop.
//!
//! # Example
//!
//! ```
//! use floorplan::paper_20_core;
//! use thermal::{ThermalModel, ThermalParams, ThermalScratch};
//!
//! let fp = paper_20_core();
//! let model = ThermalModel::new(&fp, ThermalParams::paper_default());
//! let mut scratch = ThermalScratch::for_model(&model);
//! // 5 W in every block for 100 ticks of 1 ms, from ambient.
//! let powers = vec![5.0; fp.blocks().len()];
//! let mut temps = vec![model.params().ambient_k; fp.blocks().len()];
//! for _ in 0..100 {
//!     model.transient_step_into(&mut temps, &powers, 1e-3, &mut scratch);
//! }
//! assert!(temps.iter().all(|&t| t > model.params().ambient_k));
//! ```

#![forbid(unsafe_code)]
// Index loops over thermal nodes mirror the RC-network equations.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

use floorplan::Floorplan;
use std::cell::RefCell;

/// Distinct tick lengths the step-operator cache holds before evicting
/// the oldest entry. Real runs use one or two tick lengths; the cap
/// only bounds pathological callers sweeping many distinct `dt`s.
const OP_CACHE_CAP: usize = 16;

/// Parameters of the thermal model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalParams {
    /// Ambient temperature in kelvin.
    pub ambient_k: f64,
    /// Whole-die junction-to-ambient thermal resistance (K/W).
    pub r_junction_ambient: f64,
    /// Lateral conductance scale: W/K contributed by a shared edge of
    /// length equal to the die width at unit center distance.
    pub lateral_scale: f64,
    /// Effective heat capacity per mm² of die (J/K/mm²). Sets the
    /// transient time constant; the default gives blocks ≈50 ms.
    pub capacity_per_mm2: f64,
}

impl ThermalParams {
    /// Paper-plausible defaults: 45 °C ambient, 0.45 K/W junction-to-
    /// ambient (≈45 K rise at a 100 W budget, putting peak core
    /// temperatures near the paper's observed 95 °C maximum).
    pub fn paper_default() -> Self {
        Self {
            ambient_k: 318.15,
            r_junction_ambient: 0.45,
            lateral_scale: 2.0,
            capacity_per_mm2: 3.0e-4,
        }
    }
}

/// Reusable buffer for [`ThermalModel::transient_step_into`].
///
/// Owned by the caller (one per `Machine`). [`ThermalScratch::for_model`]
/// pre-sizes it; a `Default` one is resized lazily on first use. Never
/// read before being fully overwritten, so a scratch can be shared
/// across models of the same size or recreated freely.
#[derive(Debug, Clone, Default)]
pub struct ThermalScratch {
    /// The step operator's mat-vec output.
    flow: Vec<f64>,
}

impl ThermalScratch {
    /// A scratch pre-sized for `model`, so the in-place step never
    /// touches buffer lengths on the hot path.
    pub fn for_model(model: &ThermalModel) -> Self {
        Self {
            flow: vec![0.0; model.n],
        }
    }
}

/// The forward-Euler sub-step loop for one tick length, collapsed into
/// a single dense affine map `T' = M·T + B·P + d`.
///
/// With `A = I − h·C⁻¹·G` the stability-bounded sub-step and `k` the
/// sub-step count for this `dt`, the composition over the tick is
/// `M = Aᵏ`, `B = (Σ_{j<k} Aʲ)·h·C⁻¹`, and `d` the ambient forcing
/// pushed through the same partial sum.
#[derive(Debug, Clone)]
struct StepOperator {
    /// The tick length this operator integrates, as raw bits (the
    /// cache key — ticks repeat exactly, so bit equality is the right
    /// notion).
    dt_bits: u64,
    /// Column-major `[Mᵀ ; Bᵀ]`, stride `n`: `M`'s column `j` lives in
    /// `cols[n·j .. n·(j+1)]` and `B`'s column `j` in
    /// `cols[n·(n+j) .. n·(n+j+1)]`. Column layout turns the apply
    /// into axpy passes (`out += x_j · col_j`) whose inner loop has no
    /// reduction dependency, so it vectorizes — and it accumulates
    /// each `out[i]` in the same `j` order as the row-major form, so
    /// the results are bit-identical to a scalar row·vector walk.
    cols: Vec<f64>,
    /// Constant term: the ambient forcing folded over the sub-steps.
    d: Vec<f64>,
}

/// Lumped thermal network over a floorplan's blocks.
#[derive(Debug, Clone)]
pub struct ThermalModel {
    params: ThermalParams,
    /// Vertical conductance to ambient per block (W/K).
    g_vertical: Vec<f64>,
    /// Heat capacity per block (J/K).
    capacity: Vec<f64>,
    /// Lateral conductances: (i, j, g) with i < j. Feeds the step-
    /// operator build and the test oracles.
    g_lateral: Vec<(usize, usize, f64)>,
    /// Total conductance per node (vertical + incident lateral), W/K.
    g_total: Vec<f64>,
    /// Smallest node time constant `C/G` (seconds); bounds the stable
    /// forward-Euler sub-step. Derived once here instead of per call.
    min_tau: f64,
    /// Number of blocks.
    n: usize,
    /// Step operators by tick length, built lazily on first use of a
    /// `dt` and reused for every later tick of the same length. Interior
    /// mutability keeps the hot stepping API `&self`; the model stops
    /// being `Sync`, which matches how it is owned (one per `Machine`,
    /// itself already non-`Sync` through its leakage memo).
    step_ops: RefCell<Vec<StepOperator>>,
    /// Scratch reused by the allocating convenience wrappers
    /// ([`transient_step`](Self::transient_step)), so they pay one
    /// output allocation instead of two. Borrowed only for the duration
    /// of one call, which runs no user callbacks.
    wrap_scratch: RefCell<ThermalScratch>,
}

impl ThermalModel {
    /// Builds the thermal network for `floorplan`.
    ///
    /// # Panics
    ///
    /// Panics if the floorplan has no blocks or parameters are
    /// non-physical (non-positive resistance, capacity, or ambient).
    pub fn new(floorplan: &Floorplan, params: ThermalParams) -> Self {
        let n = floorplan.blocks().len();
        assert!(n > 0, "floorplan has no blocks");
        assert!(
            params.r_junction_ambient > 0.0
                && params.capacity_per_mm2 > 0.0
                && params.ambient_k > 0.0,
            "thermal parameters must be positive"
        );

        let die_area = floorplan.die_area_mm2();
        let g_vertical: Vec<f64> = floorplan
            .blocks()
            .iter()
            .map(|b| {
                let area = floorplan.block_area_mm2(b);
                area / (params.r_junction_ambient * die_area)
            })
            .collect();
        let capacity: Vec<f64> = floorplan
            .blocks()
            .iter()
            .map(|b| params.capacity_per_mm2 * floorplan.block_area_mm2(b))
            .collect();

        let g_lateral: Vec<(usize, usize, f64)> = floorplan
            .adjacent_blocks()
            .into_iter()
            .map(|(i, j, edge)| {
                let dist = floorplan.blocks()[i]
                    .rect
                    .center_distance(&floorplan.blocks()[j].rect)
                    .max(1e-6);
                (i, j, params.lateral_scale * edge / dist)
            })
            .collect();

        // Per-node total conductance and the smallest time constant,
        // accumulated in exactly the order the per-call scan used to
        // (vertical first, then incident edges in g_lateral order).
        let mut g_total = g_vertical.clone();
        for &(i, j, gl) in &g_lateral {
            g_total[i] += gl;
            g_total[j] += gl;
        }
        let min_tau = (0..n)
            .map(|i| capacity[i] / g_total[i])
            .fold(f64::INFINITY, f64::min);

        Self {
            params,
            g_vertical,
            capacity,
            g_lateral,
            g_total,
            min_tau,
            n,
            step_ops: RefCell::new(Vec::new()),
            wrap_scratch: RefCell::new(ThermalScratch::default()),
        }
    }

    /// The model's parameters.
    pub fn params(&self) -> &ThermalParams {
        &self.params
    }

    /// Number of thermal nodes (floorplan blocks).
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// One transient step of length `dt_s` seconds:
    /// `C dT/dt = P − G·(T − T_amb)`.
    ///
    /// Returns the new temperatures. For stability, `dt_s` is
    /// subdivided so each forward-Euler sub-step is below half the
    /// smallest block time constant; the sub-steps are integrated
    /// through the precomputed affine operator for this `dt` (built on
    /// first use, cached thereafter), equivalent to the explicit
    /// sub-step loop to ≤ 1e-9 K (`step_operator_matches_reference`).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths mismatch or `dt_s` is not positive.
    pub fn transient_step(&self, temps: &[f64], powers: &[f64], dt_s: f64) -> Vec<f64> {
        let mut t = temps.to_vec();
        let mut scratch = self.wrap_scratch.borrow_mut();
        self.transient_step_into(&mut t, powers, dt_s, &mut scratch);
        t
    }

    /// Allocation-free [`transient_step`](Self::transient_step):
    /// advances `temps` in place, reusing `scratch`'s flow buffer as
    /// the mat-vec output. One `n × 2n` product against the cached
    /// `[M | B]` operator replaces the whole sub-step loop; bit-
    /// identical to the allocating API (both apply the same operator).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths mismatch or `dt_s` is not positive.
    pub fn transient_step_into(
        &self,
        temps: &mut [f64],
        powers: &[f64],
        dt_s: f64,
        scratch: &mut ThermalScratch,
    ) {
        assert_eq!(temps.len(), self.n, "temperature vector length mismatch");
        assert_eq!(powers.len(), self.n, "power vector length mismatch");
        assert!(dt_s > 0.0, "time step must be positive");

        if scratch.flow.len() != self.n {
            scratch.flow.resize(self.n, 0.0);
        }
        let bits = dt_s.to_bits();
        {
            let ops = self.step_ops.borrow();
            if let Some(op) = ops.iter().find(|o| o.dt_bits == bits) {
                Self::apply_operator(op, self.n, temps, powers, &mut scratch.flow);
                return;
            }
        }
        let op = self.build_step_operator(dt_s);
        let mut ops = self.step_ops.borrow_mut();
        if ops.len() >= OP_CACHE_CAP {
            ops.remove(0);
        }
        ops.push(op);
        let op = ops.last().expect("operator just pushed");
        Self::apply_operator(op, self.n, temps, powers, &mut scratch.flow);
    }

    /// `temps ← M·temps + B·powers + d`, staged through `out`.
    fn apply_operator(
        op: &StepOperator,
        n: usize,
        temps: &mut [f64],
        powers: &[f64],
        out: &mut [f64],
    ) {
        out.copy_from_slice(&op.d);
        Self::axpy_block(&op.cols[..n * n], temps, out);
        Self::axpy_block(&op.cols[n * n..], powers, out);
        temps.copy_from_slice(out);
    }

    /// `out += cols · x` for a column-major `n × x.len()` block,
    /// processed two columns per pass to halve the `out` traffic and
    /// loop overhead. Each `out[i]` still accumulates its terms in
    /// ascending-`j` order (two separate adds per pass), so the result
    /// is bit-identical to the scalar row·vector walk.
    fn axpy_block(cols: &[f64], x: &[f64], out: &mut [f64]) {
        let n = out.len();
        let mut col_pairs = cols.chunks_exact(2 * n);
        for (xp, cp) in x.chunks_exact(2).zip(&mut col_pairs) {
            let (x0, x1) = (xp[0], xp[1]);
            let (c0, c1) = cp.split_at(n);
            for ((o, &a), &b) in out.iter_mut().zip(c0).zip(c1) {
                *o += x0 * a;
                *o += x1 * b;
            }
        }
        if x.len() % 2 == 1 {
            let x0 = x[x.len() - 1];
            let c0 = &cols[(x.len() - 1) * n..];
            for (o, &a) in out.iter_mut().zip(c0) {
                *o += x0 * a;
            }
        }
    }

    /// Builds the affine operator that integrates one tick of length
    /// `dt_s`: with `A = I − h·C⁻¹·G` the stable Euler sub-step and
    /// `k` sub-steps, computes `M = Aᵏ` and `S = Σ_{j<k} Aʲ` by binary
    /// decomposition of `k` (`f(2m) = (M², S + M·S)`, `f(2m+1) =
    /// (A·M, I + A·S)`), so even second-scale ticks (thousands of
    /// sub-steps) cost only ~2·log₂k small matrix products.
    fn build_step_operator(&self, dt_s: f64) -> StepOperator {
        let n = self.n;
        let sub_steps = (dt_s / (0.5 * self.min_tau)).ceil().max(1.0) as usize;
        let h = dt_s / sub_steps as f64;

        // A = I − h·C⁻¹·G: diagonal loses the node's total conductance,
        // each lateral edge feeds its endpoint rows.
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[n * i + i] = 1.0 - h * self.g_total[i] / self.capacity[i];
        }
        for &(i, j, gl) in &self.g_lateral {
            a[n * i + j] += h * gl / self.capacity[i];
            a[n * j + i] += h * gl / self.capacity[j];
        }

        let identity = |buf: &mut [f64]| {
            buf.fill(0.0);
            for i in 0..n {
                buf[n * i + i] = 1.0;
            }
        };
        let mat_mul = |x: &[f64], y: &[f64], out: &mut [f64]| {
            out.fill(0.0);
            for i in 0..n {
                for l in 0..n {
                    let xil = x[n * i + l];
                    if xil == 0.0 {
                        continue;
                    }
                    let yrow = &y[n * l..n * (l + 1)];
                    let orow = &mut out[n * i..n * (i + 1)];
                    for j in 0..n {
                        orow[j] += xil * yrow[j];
                    }
                }
            }
        };

        // (m, s) = f(1); fold the remaining bits of k from the MSB down.
        let mut m = a.clone();
        let mut s = vec![0.0; n * n];
        identity(&mut s);
        let mut tmp = vec![0.0; n * n];
        let top_bit = usize::BITS - 1 - sub_steps.leading_zeros();
        for bit in (0..top_bit).rev() {
            // Double: f(2m) = (M², S + M·S).
            mat_mul(&m, &s, &mut tmp);
            for (si, ti) in s.iter_mut().zip(&tmp) {
                *si += ti;
            }
            mat_mul(&m, &m, &mut tmp);
            std::mem::swap(&mut m, &mut tmp);
            if (sub_steps >> bit) & 1 == 1 {
                // Increment: f(2m+1) = (A·M, I + A·S).
                mat_mul(&a, &s, &mut tmp);
                std::mem::swap(&mut s, &mut tmp);
                for i in 0..n {
                    s[n * i + i] += 1.0;
                }
                mat_mul(&a, &m, &mut tmp);
                std::mem::swap(&mut m, &mut tmp);
            }
        }

        // Pack `[Mᵀ ; Bᵀ]` column-major with B = S·h·C⁻¹, and the
        // constant d = S·c with c_j = (h/C_j)·Gv_j·T_amb.
        let mut cols = vec![0.0; 2 * n * n];
        let mut d = vec![0.0; n];
        for i in 0..n {
            let mut di = 0.0;
            for j in 0..n {
                cols[n * j + i] = m[n * i + j];
                let b = s[n * i + j] * h / self.capacity[j];
                cols[n * (n + j) + i] = b;
                di += b * self.g_vertical[j] * self.params.ambient_k;
            }
            d[i] = di;
        }
        StepOperator {
            dt_bits: dt_s.to_bits(),
            cols,
            d,
        }
    }
}

#[cfg(test)]
impl ThermalModel {
    /// The original edge-list `transient_step`, retained verbatim:
    /// per-call `min_tau` scan, edge-list flow accumulation, fresh
    /// allocations.
    fn transient_step_reference(&self, temps: &[f64], powers: &[f64], dt_s: f64) -> Vec<f64> {
        assert_eq!(temps.len(), self.n, "temperature vector length mismatch");
        assert_eq!(powers.len(), self.n, "power vector length mismatch");
        assert!(dt_s > 0.0, "time step must be positive");

        // Smallest time constant bounds the stable step.
        let min_tau = (0..self.n)
            .map(|i| {
                let mut g = self.g_vertical[i];
                for &(a, b, gl) in &self.g_lateral {
                    if a == i || b == i {
                        g += gl;
                    }
                }
                self.capacity[i] / g
            })
            .fold(f64::INFINITY, f64::min);
        let sub_steps = (dt_s / (0.5 * min_tau)).ceil().max(1.0) as usize;
        let h = dt_s / sub_steps as f64;

        let mut t = temps.to_vec();
        for _ in 0..sub_steps {
            let mut flow = vec![0.0; self.n];
            for i in 0..self.n {
                flow[i] = powers[i] - self.g_vertical[i] * (t[i] - self.params.ambient_k);
            }
            for &(i, j, gl) in &self.g_lateral {
                let q = gl * (t[i] - t[j]);
                flow[i] -= q;
                flow[j] += q;
            }
            for i in 0..self.n {
                t[i] += h * flow[i] / self.capacity[i];
            }
        }
        t
    }

    /// Steady-state block temperatures (kelvin) for per-block `powers`
    /// (watts), the physics oracle of the transient tests: solves
    /// `G·(T − T_amb) = P` (the lateral Laplacian cancels on the uniform
    /// ambient offset) with a Cholesky factor of the conductance matrix
    /// `diag(Gv)` + lateral graph Laplacian, built on demand.
    fn steady_state(&self, powers: &[f64]) -> Vec<f64> {
        use vastats::matrix::SymMatrix;
        assert_eq!(powers.len(), self.n, "power vector length mismatch");
        let mut g = SymMatrix::zeros(self.n);
        for (i, &gv) in self.g_vertical.iter().enumerate() {
            g.set(i, i, gv);
        }
        for &(i, j, gl) in &self.g_lateral {
            g.set(i, j, g.get(i, j) - gl);
            g.set(i, i, g.get(i, i) + gl);
            g.set(j, j, g.get(j, j) + gl);
        }
        let factor = g
            .cholesky()
            .expect("conductance matrix is positive definite by construction");
        let rise = factor.solve(powers);
        rise.iter().map(|r| self.params.ambient_k + r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use floorplan::paper_20_core;

    fn model() -> (floorplan::Floorplan, ThermalModel) {
        let fp = paper_20_core();
        let m = ThermalModel::new(&fp, ThermalParams::paper_default());
        (fp, m)
    }

    #[test]
    fn zero_power_is_ambient() {
        let (_, m) = model();
        let t = m.steady_state(&vec![0.0; m.node_count()]);
        for &ti in &t {
            assert!((ti - 318.15).abs() < 1e-9);
        }
    }

    #[test]
    fn uniform_power_totals_match_rja() {
        let (fp, m) = model();
        // Distribute 100 W proportionally to area: rise = P * Rja
        // exactly, because no lateral flow occurs.
        let total = 100.0;
        let die = fp.die_area_mm2();
        let powers: Vec<f64> = fp
            .blocks()
            .iter()
            .map(|b| total * fp.block_area_mm2(b) / die)
            .collect();
        let t = m.steady_state(&powers);
        for &ti in &t {
            let rise = ti - 318.15;
            assert!((rise - 45.0).abs() < 0.5, "rise {rise}");
        }
    }

    #[test]
    fn hot_block_heats_neighbors() {
        let (fp, m) = model();
        let mut powers = vec![0.0; m.node_count()];
        // Find block index of core 7 (middle of the array).
        let idx = fp
            .blocks()
            .iter()
            .position(|b| b.kind == floorplan::BlockKind::Core(7))
            .unwrap();
        powers[idx] = 20.0;
        let t = m.steady_state(&powers);
        assert!(t[idx] > 318.15 + 5.0);
        // Every other block is warmer than ambient but cooler than the
        // hot one.
        for (i, &ti) in t.iter().enumerate() {
            if i != idx {
                assert!(ti > 318.15 - 1e-9);
                assert!(ti < t[idx]);
            }
        }
    }

    #[test]
    fn adjacent_neighbor_warmer_than_distant_block() {
        let (fp, m) = model();
        let mut powers = vec![0.0; m.node_count()];
        let hot = fp
            .blocks()
            .iter()
            .position(|b| b.kind == floorplan::BlockKind::Core(0))
            .unwrap();
        let near = fp
            .blocks()
            .iter()
            .position(|b| b.kind == floorplan::BlockKind::Core(1))
            .unwrap();
        let far = fp
            .blocks()
            .iter()
            .position(|b| b.kind == floorplan::BlockKind::Core(19))
            .unwrap();
        powers[hot] = 20.0;
        let t = m.steady_state(&powers);
        assert!(t[near] > t[far], "near {} far {}", t[near], t[far]);
    }

    #[test]
    fn transient_approaches_steady_state() {
        let (_, m) = model();
        let powers: Vec<f64> = (0..m.node_count()).map(|i| (i % 5) as f64 + 1.0).collect();
        let steady = m.steady_state(&powers);
        let mut t = vec![318.15; m.node_count()];
        // Step 10 seconds in 100 ms chunks: far beyond the time constant.
        for _ in 0..100 {
            t = m.transient_step(&t, &powers, 0.1);
        }
        for (a, b) in t.iter().zip(&steady) {
            assert!((a - b).abs() < 0.5, "transient {a} vs steady {b}");
        }
    }

    #[test]
    fn transient_monotonic_heating_from_ambient() {
        let (_, m) = model();
        let powers = vec![3.0; m.node_count()];
        let t0 = vec![318.15; m.node_count()];
        let t1 = m.transient_step(&t0, &powers, 0.01);
        let t2 = m.transient_step(&t1, &powers, 0.01);
        for i in 0..m.node_count() {
            assert!(t1[i] > t0[i]);
            assert!(t2[i] > t1[i]);
        }
    }

    #[test]
    fn energy_conservation_at_steady_state() {
        let (_, m) = model();
        let powers: Vec<f64> = (0..m.node_count()).map(|i| i as f64 * 0.3).collect();
        let t = m.steady_state(&powers);
        // Total heat out through vertical paths equals total power in.
        let out: f64 = (0..m.node_count())
            .map(|i| m.g_vertical[i] * (t[i] - 318.15))
            .sum();
        let total: f64 = powers.iter().sum();
        assert!((out - total).abs() < 1e-6 * total.max(1.0));
    }

    #[test]
    #[should_panic(expected = "power vector length mismatch")]
    fn wrong_power_length_panics() {
        let (_, m) = model();
        m.transient_step(&vec![318.15; m.node_count()], &[1.0, 2.0], 1e-3);
    }

    /// The tolerance contract of the tentpole: the dense affine step
    /// operator must stay within 1e-9 K of the explicit sub-step
    /// reference over random-ish temps, powers, and tick lengths
    /// spanning one sub-step to thousands. Both the allocating wrapper
    /// and the in-place path are swept (they share the operator, so
    /// they must also agree bit for bit with each other).
    #[test]
    fn step_operator_matches_reference() {
        let (_, m) = model();
        let n = m.node_count();
        let mut scratch = ThermalScratch::for_model(&m);
        for seed in 0..8u64 {
            let powers: Vec<f64> = (0..n)
                .map(|i| 0.3 * ((i as u64 * 7 + seed * 13) % 29) as f64)
                .collect();
            let mut temps: Vec<f64> = (0..n)
                .map(|i| 318.15 + ((i as u64 * 11 + seed * 5) % 17) as f64)
                .collect();
            for &dt in &[1e-4, 2.7e-4, 1e-3, 0.0025, 0.01, 0.1, 3.0] {
                let reference = m.transient_step_reference(&temps, &powers, dt);
                let wrapper = m.transient_step(&temps, &powers, dt);
                m.transient_step_into(&mut temps, &powers, dt, &mut scratch);
                for i in 0..n {
                    let err = (temps[i] - reference[i]).abs();
                    assert!(
                        err <= 1e-9,
                        "in-place node {i} off by {err:.3e} K at dt={dt}"
                    );
                    assert_eq!(
                        wrapper[i].to_bits(),
                        temps[i].to_bits(),
                        "wrapper and in-place disagree at node {i}, dt={dt}"
                    );
                }
            }
        }
    }

    /// Filling the operator cache past its cap must evict, rebuild, and
    /// keep answering correctly (the rebuilt operator matches a fresh
    /// model's bit for bit — construction is deterministic).
    #[test]
    fn operator_cache_eviction_rebuilds_identically() {
        let (fp, m) = model();
        let fresh = ThermalModel::new(&fp, ThermalParams::paper_default());
        let n = m.node_count();
        let powers: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let temps: Vec<f64> = (0..n).map(|i| 320.0 + (i % 5) as f64).collect();
        let first = m.transient_step(&temps, &powers, 1e-3);
        // Sweep enough distinct tick lengths to evict the first entry.
        for k in 0..(OP_CACHE_CAP + 4) {
            let dt = 1e-4 * (k + 1) as f64 + 1.3e-5;
            let _ = m.transient_step(&temps, &powers, dt);
        }
        let again = m.transient_step(&temps, &powers, 1e-3);
        let independent = fresh.transient_step(&temps, &powers, 1e-3);
        for i in 0..n {
            assert_eq!(again[i].to_bits(), first[i].to_bits(), "node {i}");
            assert_eq!(independent[i].to_bits(), first[i].to_bits(), "node {i}");
        }
    }
}
