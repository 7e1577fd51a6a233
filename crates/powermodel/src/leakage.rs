//! Leakage (static) power: the HotLeakage substitute.
//!
//! Subthreshold leakage current follows the BSIM-style form
//!
//! ```text
//! I_sub ∝ (T/T_ref)² · exp( (η·V − Vth(T)) / (n·v_T) ),   v_T = kT/q
//! ```
//!
//! which captures the three couplings the paper leans on:
//!
//! 1. **exponential Vth sensitivity** — low-Vth cores leak far more
//!    than high-Vth cores save, producing the core-to-core static-power
//!    spread of Figure 4(a);
//! 2. **temperature feedback** — leakage grows super-linearly with
//!    temperature (coupled to the thermal model tick by tick);
//! 3. **DIBL** — leakage grows with supply voltage beyond the linear
//!    `V·I` term, so lowering V in DVFS saves static power too.
//!
//! Power density is evaluated per variation-map cell and integrated
//! over the block's area, so a core's static power reflects its own
//! patch of the Vth map.
//!
//! Two evaluation speeds share one set of numbers:
//!
//! * [`LeakagePower::block_static`] walks the cells with the
//!   range-reduced [`fast_exp`] (relative error ≤ 1e-6 against the
//!   exact per-cell path, pinned by a corpus test here) — `O(cells)`.
//! * [`LeakagePower::block_model`] folds a block's whole Vth
//!   distribution into a Chebyshev fit of its log-moment
//!   `ln E[exp(−β·Vth)]` once, after which [`BlockLeakage::static_power`]
//!   is `O(1)` per (V, T) query — the form the simulator keeps per
//!   core/L2 block and hits every tick.

use crate::fastexp::fast_exp;
use std::sync::OnceLock;
use varius::CoreCells;

/// Boltzmann constant over electron charge, volts per kelvin.
const KB_OVER_Q: f64 = 8.617e-5;

/// Parameters of the leakage model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageParams {
    /// Subthreshold swing factor `n` (1.2–2.0 across technologies).
    pub n_factor: f64,
    /// DIBL coefficient `η` (V of effective Vth reduction per V of VDD).
    pub dibl: f64,
    /// Vth temperature coefficient in V/K (Vth drops as T rises).
    pub vth_temp_coeff: f64,
    /// Temperature at which Vth maps are referenced, kelvin (60 °C).
    pub vth_ref_temp_k: f64,
    /// Calibration: power density (W/mm²) of a *nominal* cell
    /// (Vth = `vth_nominal`) at V = 1 V and `calib_temp_k`.
    pub density_at_calib: f64,
    /// Nominal Vth used for calibration (volts).
    pub vth_nominal: f64,
    /// Temperature of the calibration point, kelvin.
    pub calib_temp_k: f64,
}

impl LeakageParams {
    /// Paper-calibrated defaults for core logic at 32 nm.
    ///
    /// The density is set so a nominal 11 mm² core leaks ≈1.5 W at
    /// 1 V / 85 °C — static power is then roughly a third of a typical
    /// core's total at full load, consistent with 32 nm projections.
    pub fn core_default() -> Self {
        Self {
            n_factor: 1.4,
            dibl: 0.05,
            vth_temp_coeff: 0.5e-3,
            vth_ref_temp_k: 333.15,
            density_at_calib: 0.136, // W/mm^2
            vth_nominal: 0.250,
            calib_temp_k: 358.15, // 85C
        }
    }

    /// Defaults for L2 SRAM: high-Vth, low-leakage transistors.
    /// Density is an order of magnitude below core logic. The
    /// calibration point uses the *map's* nominal Vth — the SRAM's
    /// higher implant Vth is folded into the density constant — so the
    /// density applies at typical map cells rather than 2 σ above them.
    pub fn l2_default() -> Self {
        Self {
            density_at_calib: 0.016,
            ..Self::core_default()
        }
    }
}

/// The leakage power model.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakagePower {
    params: LeakageParams,
    /// Internal prefactor chosen so the calibration point is honored.
    prefactor: f64,
}

impl LeakagePower {
    /// Builds a calibrated model.
    ///
    /// # Panics
    ///
    /// Panics if parameters are non-physical (non-positive `n`,
    /// temperatures, or density).
    pub fn new(params: LeakageParams) -> Self {
        assert!(params.n_factor > 0.0, "n factor must be positive");
        assert!(
            params.calib_temp_k > 0.0 && params.vth_ref_temp_k > 0.0,
            "temperatures must be positive kelvin"
        );
        assert!(
            params.density_at_calib > 0.0,
            "calibration density must be positive"
        );
        let mut model = Self {
            params,
            prefactor: 1.0,
        };
        let raw = model.density_raw(params.vth_nominal, 1.0, params.calib_temp_k);
        model.prefactor = params.density_at_calib / raw;
        model
    }

    /// The model's parameters.
    pub fn params(&self) -> &LeakageParams {
        &self.params
    }

    /// Uncalibrated leakage power density for a cell with threshold
    /// `vth_ref` (referenced at 60 °C), supply `v`, temperature `temp_k`.
    fn density_raw(&self, vth_ref: f64, v: f64, temp_k: f64) -> f64 {
        let p = &self.params;
        let vth = vth_ref - p.vth_temp_coeff * (temp_k - p.vth_ref_temp_k);
        let v_t = KB_OVER_Q * temp_k; // kT/q in volts
        let exponent = (p.dibl * v - vth) / (p.n_factor * v_t);
        let t_scale = (temp_k / p.calib_temp_k).powi(2);
        v * t_scale * exponent.exp()
    }

    /// Calibrated leakage power density in W/mm².
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative or `temp_k` is not positive.
    pub fn density(&self, vth_ref: f64, v: f64, temp_k: f64) -> f64 {
        assert!(v >= 0.0, "supply voltage must be non-negative");
        assert!(temp_k > 0.0, "temperature must be positive kelvin");
        if v == 0.0 {
            return 0.0; // power-gated
        }
        self.prefactor * self.density_raw(vth_ref, v, temp_k)
    }

    /// Static power (watts) of a block of `area_mm2` whose variation
    /// cells are `cells`, at supply `v` and temperature `temp_k`.
    ///
    /// The block's leakage is the area times the *mean* cell density,
    /// so resolution changes do not change the expected power.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty or `area_mm2` is negative.
    pub fn block_static(&self, cells: &CoreCells, area_mm2: f64, v: f64, temp_k: f64) -> f64 {
        assert!(!cells.is_empty(), "block has no variation cells");
        assert!(area_mm2 >= 0.0, "area must be non-negative");
        assert!(v >= 0.0, "supply voltage must be non-negative");
        assert!(temp_k > 0.0, "temperature must be positive kelvin");
        if v == 0.0 {
            return 0.0; // power-gated: every cell density is exactly 0
        }
        // Everything cell-independent is hoisted; the loop is a single
        // fused multiply + fast_exp per cell over the SoA Vth slice, so
        // it unrolls and autovectorizes. Accuracy against the exact
        // per-cell `density` mapping is pinned at 1e-6 relative by the
        // corpus test below.
        let p = &self.params;
        let dvth = p.vth_temp_coeff * (temp_k - p.vth_ref_temp_k);
        let v_t = KB_OVER_Q * temp_k; // kT/q in volts
        let base = p.dibl * v + dvth;
        let inv_denom = 1.0 / (p.n_factor * v_t);
        let t_scale = (temp_k / p.calib_temp_k).powi(2);
        let mut sum = 0.0;
        for &vth_ref in &cells.vth {
            sum += fast_exp((base - vth_ref) * inv_denom);
        }
        let mean_density = self.prefactor * v * t_scale * sum / cells.vth.len() as f64;
        area_mm2 * mean_density
    }

    /// Precomputes a block's leakage model: the cell average
    /// `M(β) = E[exp(−β·Vth)]` (`β = 1/(n·kT/q)`) is the only place the
    /// per-cell map enters [`LeakagePower::block_static`], so fitting
    /// `ln M(β)` once by Chebyshev interpolation over the supported
    /// temperature range turns every later (V, T) query into `O(1)`
    /// work. Relative error against the exact per-cell path stays below
    /// 1e-6 (corpus-tested).
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty or `area_mm2` is negative.
    pub fn block_model(&self, cells: &CoreCells, area_mm2: f64) -> BlockLeakage {
        assert!(!cells.is_empty(), "block has no variation cells");
        assert!(area_mm2 >= 0.0, "area must be non-negative");
        let p = self.params;
        // β is largest at the cold end of the supported range.
        let beta_at = |temp_k: f64| 1.0 / (p.n_factor * KB_OVER_Q * temp_k);
        let beta_lo = beta_at(TEMP_FIT_HI_K);
        let beta_hi = beta_at(TEMP_FIT_LO_K);
        let beta_mid = 0.5 * (beta_hi + beta_lo);
        let beta_half = 0.5 * (beta_hi - beta_lo);

        // Exact ln M(β) at the Chebyshev nodes, evaluated in shifted
        // form so the log never sees underflow for extreme Vth maps.
        let vmin = cells.vth.iter().copied().fold(f64::INFINITY, f64::min);
        let inv_n = 1.0 / cells.vth.len() as f64;
        let ln_m_exact = |beta: f64| {
            let mean: f64 = cells
                .vth
                .iter()
                .map(|&vth| (-beta * (vth - vmin)).exp())
                .sum::<f64>()
                * inv_n;
            -beta * vmin + mean.ln()
        };
        let cosines = cheb_cosines();
        let mut node_vals = [0.0; CHEB_N];
        for (val, &t) in node_vals.iter_mut().zip(&cosines[1]) {
            *val = ln_m_exact(beta_mid + beta_half * t);
        }
        let mut cheb = [0.0; CHEB_N];
        for (coeff, cos_k) in cheb.iter_mut().zip(cosines) {
            let mut acc = 0.0;
            for (&val, &c) in node_vals.iter().zip(cos_k) {
                acc += val * c;
            }
            *coeff = 2.0 * acc / CHEB_N as f64;
        }
        cheb[0] *= 0.5;

        // Convert the Chebyshev series to the power basis in t once at
        // build time: the per-query evaluation is then a plain Horner
        // recurrence half the depth of Clenshaw's two-multiply chain.
        // At order 16 on |t| ≤ 1 the conversion loses < 1e-12.
        let mut ln_m_poly = [0.0; CHEB_N];
        let mut t_prev = [0.0; CHEB_N]; // T_{k-1} in the power basis
        let mut t_cur = [0.0; CHEB_N]; // T_k in the power basis
        t_prev[0] = 1.0;
        t_cur[1] = 1.0;
        ln_m_poly[0] = cheb[0];
        for &c in &cheb[1..] {
            for (acc, &basis) in ln_m_poly.iter_mut().zip(t_cur.iter()) {
                *acc += c * basis;
            }
            // T_{k+1} = 2t·T_k − T_{k-1}
            let mut t_next = [0.0; CHEB_N];
            for i in 0..CHEB_N - 1 {
                t_next[i + 1] = 2.0 * t_cur[i];
            }
            for i in 0..CHEB_N {
                t_next[i] -= t_prev[i];
            }
            t_prev = t_cur;
            t_cur = t_next;
        }
        BlockLeakage {
            params: p,
            prefactor: self.prefactor,
            area_mm2,
            beta_mid,
            beta_half,
            ln_m_poly,
        }
    }
}

/// Chebyshev interpolation order for the block log-moment fit. The
/// moment `ln M(β)` is analytic over the narrow β range, so 16 nodes
/// land far below the 1e-6 accuracy contract while keeping the
/// per-query Horner chain short.
const CHEB_N: usize = 16;

/// The block fit's `cos(πk(j + ½)/N)`, indexed `[k][j]`: the weights of
/// the Chebyshev transform, with the nodes in `t` as row 1 (`π·1` is
/// exactly `π`). The table depends on [`CHEB_N`] alone, so it is built
/// once, on first use, from the expression
/// [`LeakagePower::block_model`] used to evaluate for every block, and
/// every fit keeps its bits.
fn cheb_cosines() -> &'static [[f64; CHEB_N]; CHEB_N] {
    static TABLE: OnceLock<[[f64; CHEB_N]; CHEB_N]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [[0.0; CHEB_N]; CHEB_N];
        for (k, row) in table.iter_mut().enumerate() {
            for (j, c) in row.iter_mut().enumerate() {
                let angle = std::f64::consts::PI * k as f64 * (j as f64 + 0.5) / CHEB_N as f64;
                *c = angle.cos();
            }
        }
        table
    })
}

/// Temperature range (kelvin) the block model is fitted over:
/// −20 °C … 180 °C, a wide margin around anything the thermal model
/// produces. Queries outside it panic rather than extrapolate.
const TEMP_FIT_LO_K: f64 = 253.15;
const TEMP_FIT_HI_K: f64 = 453.15;

/// A block's precomputed leakage model: area, calibration, and the
/// Chebyshev fit of the block's log-moment `ln E[exp(−β·Vth)]`.
/// Produced by [`LeakagePower::block_model`]; queries are `O(1)` in the
/// number of variation cells.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockLeakage {
    params: LeakageParams,
    prefactor: f64,
    area_mm2: f64,
    beta_mid: f64,
    beta_half: f64,
    /// Power-basis coefficients (ascending) of the Chebyshev fit of
    /// `ln M(β)` in the scaled variable `t = (β − mid)/half`.
    ln_m_poly: [f64; CHEB_N],
}

impl BlockLeakage {
    /// The block area this model integrates over, mm².
    pub fn area_mm2(&self) -> f64 {
        self.area_mm2
    }

    /// Static power (watts) of the block at supply `v` and temperature
    /// `temp_k` — the `O(1)` equivalent of
    /// [`LeakagePower::block_static`] on the cells this model was built
    /// from (relative error ≤ 1e-6).
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative, or `temp_k` is outside the fitted
    /// −20 °C … 180 °C range.
    pub fn static_power(&self, v: f64, temp_k: f64) -> f64 {
        self.at_temperature(temp_k).static_power(v)
    }

    /// The block's leakage at temperature `temp_k`: the terms of
    /// [`BlockLeakage::static_power`] that depend on temperature alone
    /// (β, the fitted ln M(β), the Vth shift and the (T/T_cal)² scale),
    /// evaluated once for any number of supply voltages.
    ///
    /// # Panics
    ///
    /// Panics if `temp_k` is outside the fitted −20 °C … 180 °C range.
    pub fn at_temperature(&self, temp_k: f64) -> IsothermalLeakage {
        assert!(
            (TEMP_FIT_LO_K..=TEMP_FIT_HI_K).contains(&temp_k),
            "temperature {temp_k} K outside the fitted leakage range \
             [{TEMP_FIT_LO_K}, {TEMP_FIT_HI_K}]"
        );
        let p = &self.params;
        let beta = 1.0 / (p.n_factor * KB_OVER_Q * temp_k);
        // Estrin evaluation of the fitted ln M(β) in t = (β − mid)/half:
        // the 16 power-basis coefficients combine through a ~5-deep
        // tree of independent pairs instead of Horner's 15-long serial
        // fma chain — this sits on the per-tick leakage path, once per
        // block per step. Reassociation moves the result by ulps, far
        // inside the 1e-6 contract pinned against the per-cell
        // reference.
        let t = (beta - self.beta_mid) / self.beta_half;
        let c = &self.ln_m_poly;
        let t2 = t * t;
        let t4 = t2 * t2;
        let t8 = t4 * t4;
        let q0 = (c[0] + t * c[1]) + t2 * (c[2] + t * c[3]);
        let q1 = (c[4] + t * c[5]) + t2 * (c[6] + t * c[7]);
        let q2 = (c[8] + t * c[9]) + t2 * (c[10] + t * c[11]);
        let q3 = (c[12] + t * c[13]) + t2 * (c[14] + t * c[15]);
        IsothermalLeakage {
            scale: self.area_mm2 * self.prefactor,
            dibl: p.dibl,
            beta,
            ln_m: (q0 + t4 * q1) + t8 * (q2 + t4 * q3),
            dvth: p.vth_temp_coeff * (temp_k - p.vth_ref_temp_k),
            t_scale: (temp_k / p.calib_temp_k).powi(2),
        }
    }
}

/// A block's leakage at one temperature
/// ([`BlockLeakage::at_temperature`]): what is left of
/// [`BlockLeakage::static_power`] once the temperature is fixed — the
/// DIBL term, one `fast_exp` and the scaling per voltage. The hoisted
/// terms are the same expressions, combined with the per-voltage part
/// in the same order, so every reading keeps the bits of
/// `static_power(v, temp_k)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsothermalLeakage {
    /// Block area times the calibration prefactor.
    scale: f64,
    /// DIBL coefficient `η`.
    dibl: f64,
    /// `β = 1/(n·kT/q)`.
    beta: f64,
    /// The fitted `ln M(β)`.
    ln_m: f64,
    /// Vth temperature shift (volts).
    dvth: f64,
    /// `(T/T_cal)²`.
    t_scale: f64,
}

impl IsothermalLeakage {
    /// Static power (watts) of the block at supply `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative.
    pub fn static_power(&self, v: f64) -> f64 {
        assert!(v >= 0.0, "supply voltage must be non-negative");
        if v == 0.0 {
            return 0.0; // power-gated
        }
        let exponent = self.beta * (self.dibl * v + self.dvth) + self.ln_m;
        self.scale * v * self.t_scale * fast_exp(exponent)
    }
}

#[cfg(test)]
impl BlockLeakage {
    /// [`BlockLeakage::static_power`] as one expression, before its
    /// temperature terms moved into [`BlockLeakage::at_temperature`]:
    /// the oracle the split form is pinned against bit for bit.
    fn static_power_reference(&self, v: f64, temp_k: f64) -> f64 {
        assert!(v >= 0.0, "supply voltage must be non-negative");
        assert!(
            (TEMP_FIT_LO_K..=TEMP_FIT_HI_K).contains(&temp_k),
            "temperature {temp_k} K outside the fitted leakage range"
        );
        if v == 0.0 {
            return 0.0; // power-gated
        }
        let p = &self.params;
        let beta = 1.0 / (p.n_factor * KB_OVER_Q * temp_k);
        let t = (beta - self.beta_mid) / self.beta_half;
        let c = &self.ln_m_poly;
        let t2 = t * t;
        let t4 = t2 * t2;
        let t8 = t4 * t4;
        let q0 = (c[0] + t * c[1]) + t2 * (c[2] + t * c[3]);
        let q1 = (c[4] + t * c[5]) + t2 * (c[6] + t * c[7]);
        let q2 = (c[8] + t * c[9]) + t2 * (c[10] + t * c[11]);
        let q3 = (c[12] + t * c[13]) + t2 * (c[14] + t * c[15]);
        let ln_m = (q0 + t4 * q1) + t8 * (q2 + t4 * q3);

        let dvth = p.vth_temp_coeff * (temp_k - p.vth_ref_temp_k);
        let t_scale = (temp_k / p.calib_temp_k).powi(2);
        let exponent = beta * (p.dibl * v + dvth) + ln_m;
        self.area_mm2 * self.prefactor * v * t_scale * fast_exp(exponent)
    }
}

#[cfg(test)]
impl LeakagePower {
    /// The exact per-cell path, retained as the accuracy reference: one
    /// full `density` evaluation (asserts, gate, `density_raw` with
    /// libm `exp`) per cell. The fast paths are pinned against this at
    /// 1e-6 relative error by the corpus tests.
    fn block_static_reference(&self, cells: &CoreCells, area_mm2: f64, v: f64, temp_k: f64) -> f64 {
        assert!(!cells.is_empty(), "block has no variation cells");
        assert!(area_mm2 >= 0.0, "area must be non-negative");
        let mean_density = cells
            .vth
            .iter()
            .map(|&vth| self.density(vth, v, temp_k))
            .sum::<f64>()
            / cells.vth.len() as f64;
        area_mm2 * mean_density
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal_cells() -> CoreCells {
        CoreCells {
            vth: vec![0.250],
            leff: vec![1.0],
        }
    }

    #[test]
    fn calibration_point_honored() {
        let m = LeakagePower::new(LeakageParams::core_default());
        let d = m.density(0.250, 1.0, 358.15);
        assert!((d - 0.136).abs() < 1e-9, "density {d}");
    }

    #[test]
    fn nominal_core_leaks_about_one_and_a_half_watts() {
        let m = LeakagePower::new(LeakageParams::core_default());
        let p = m.block_static(&nominal_cells(), 11.0, 1.0, 358.15);
        assert!((p - 1.5).abs() < 0.1, "power {p}");
    }

    #[test]
    fn low_vth_leaks_exponentially_more() {
        let m = LeakagePower::new(LeakageParams::core_default());
        let lo = m.density(0.220, 1.0, 358.15);
        let nom = m.density(0.250, 1.0, 358.15);
        let hi = m.density(0.280, 1.0, 358.15);
        assert!(lo > nom && nom > hi);
        // Exponential asymmetry: a -30 mV cell gains more than a +30 mV
        // cell saves.
        assert!(lo - nom > nom - hi);
        // 30 mV at n*vT ~ 62 mV is about a 1.6x swing.
        assert!(lo / nom > 1.3 && lo / nom < 2.2, "ratio {}", lo / nom);
    }

    #[test]
    fn hotter_leaks_more() {
        let m = LeakagePower::new(LeakageParams::core_default());
        let cold = m.density(0.250, 1.0, 333.15);
        let hot = m.density(0.250, 1.0, 368.15);
        assert!(hot > cold * 1.3, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn lower_voltage_leaks_less_than_linearly() {
        let m = LeakagePower::new(LeakageParams::core_default());
        let p1 = m.density(0.250, 1.0, 358.15);
        let p06 = m.density(0.250, 0.6, 358.15);
        // DIBL makes the saving super-linear: at 0.6 V leakage should be
        // well below 60% of the 1 V value.
        assert!(p06 < 0.6 * p1, "p06 {p06} vs p1 {p1}");
    }

    #[test]
    fn power_gated_core_leaks_nothing() {
        let m = LeakagePower::new(LeakageParams::core_default());
        assert_eq!(m.density(0.250, 0.0, 358.15), 0.0);
    }

    #[test]
    fn block_static_averages_cells() {
        let m = LeakagePower::new(LeakageParams::core_default());
        let mixed = CoreCells {
            vth: vec![0.22, 0.28],
            leff: vec![1.0, 1.0],
        };
        let p_mixed = m.block_static(&mixed, 10.0, 1.0, 358.15);
        let p_lo = m.block_static(
            &CoreCells {
                vth: vec![0.22],
                leff: vec![1.0],
            },
            10.0,
            1.0,
            358.15,
        );
        let p_hi = m.block_static(
            &CoreCells {
                vth: vec![0.28],
                leff: vec![1.0],
            },
            10.0,
            1.0,
            358.15,
        );
        assert!((p_mixed - (p_lo + p_hi) / 2.0).abs() < 1e-9);
        // Jensen: the mixed block leaks more than a uniform nominal one.
        let p_nom = m.block_static(&nominal_cells(), 10.0, 1.0, 358.15);
        assert!(p_mixed > p_nom);
    }

    #[test]
    fn l2_leaks_much_less_per_area() {
        let core = LeakagePower::new(LeakageParams::core_default());
        let l2 = LeakagePower::new(LeakageParams::l2_default());
        let dc = core.density(0.250, 1.0, 358.15);
        let dl = l2.density(0.250, 1.0, 358.15);
        assert!(dl < dc / 5.0, "core {dc} l2 {dl}");
    }

    /// Accuracy corpus: both fast paths — the vectorized per-cell loop
    /// (`block_static`) and the O(1) Chebyshev block model
    /// (`BlockLeakage::static_power`) — must stay within 1e-6 relative
    /// error of the exact per-cell `density` mapping across Vth
    /// spreads, DVFS voltages (including the power-gate), and the whole
    /// fitted temperature range.
    #[test]
    fn fast_paths_within_1e6_of_reference() {
        let mut worst = 0.0_f64;
        for params in [LeakageParams::core_default(), LeakageParams::l2_default()] {
            let m = LeakagePower::new(params);
            for seed in 0..6u64 {
                let vth: Vec<f64> = (0..40)
                    .map(|i| 0.250 + 0.004 * (((i as u64 * 17 + seed * 7) % 21) as f64 - 10.0))
                    .collect();
                let leff = vec![1.0; vth.len()];
                let cells = CoreCells { vth, leff };
                let model = m.block_model(&cells, 11.0);
                for &v in &[0.0, 0.6, 0.7, 0.85, 1.0] {
                    let mut temp_k = 253.15;
                    while temp_k <= 453.15 {
                        let reference = m.block_static_reference(&cells, 11.0, v, temp_k);
                        for fast in [
                            m.block_static(&cells, 11.0, v, temp_k),
                            model.static_power(v, temp_k),
                        ] {
                            if reference == 0.0 {
                                assert_eq!(fast, 0.0, "gated block must be exactly 0");
                            } else {
                                let rel = ((fast - reference) / reference).abs();
                                worst = worst.max(rel);
                                assert!(
                                    rel <= 1e-6,
                                    "v={v} T={temp_k}: {fast} vs {reference} (rel {rel:.3e})"
                                );
                            }
                        }
                        temp_k += 2.5;
                    }
                }
            }
        }
        // The contract has real headroom, not a knife edge.
        assert!(worst < 1e-7, "worst rel err {worst:.3e}");
    }

    /// Row 1 of the shared cosine table holds the Chebyshev nodes bit
    /// for bit as `block_model` used to evaluate them for every block.
    #[test]
    fn cosine_table_row_one_is_the_chebyshev_nodes() {
        for (j, &t) in cheb_cosines()[1].iter().enumerate() {
            let node = (std::f64::consts::PI * (j as f64 + 0.5) / CHEB_N as f64).cos();
            assert_eq!(t.to_bits(), node.to_bits(), "node {j}");
        }
    }

    /// A sweep over voltages at one temperature keeps the bits of one
    /// `static_power` call per voltage, before and after the split.
    #[test]
    fn isothermal_sweep_keeps_the_bits_of_one_call_per_voltage() {
        for params in [LeakageParams::core_default(), LeakageParams::l2_default()] {
            let m = LeakagePower::new(params);
            for seed in 0..4u64 {
                let vth: Vec<f64> = (0..30)
                    .map(|i| 0.250 + 0.005 * (((i as u64 * 13 + seed * 5) % 17) as f64 - 8.0))
                    .collect();
                let leff = vec![1.0; vth.len()];
                let model = m.block_model(&CoreCells { vth, leff }, 9.0 + seed as f64);
                let mut temp_k = 253.15;
                while temp_k <= 453.15 {
                    let at = model.at_temperature(temp_k);
                    for v in [0.0, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0] {
                        let swept = at.static_power(v);
                        assert_eq!(
                            swept.to_bits(),
                            model.static_power_reference(v, temp_k).to_bits(),
                            "v={v} T={temp_k}"
                        );
                        assert_eq!(swept.to_bits(), model.static_power(v, temp_k).to_bits());
                    }
                    temp_k += 1.7;
                }
            }
        }
    }

    #[test]
    fn block_model_out_of_range_temperature_panics() {
        let m = LeakagePower::new(LeakageParams::core_default());
        let model = m.block_model(&nominal_cells(), 11.0);
        let r = std::panic::catch_unwind(|| model.static_power(1.0, 500.0));
        assert!(r.is_err(), "500 K must be rejected, not extrapolated");
    }

    #[test]
    fn area_scaling_linear() {
        let m = LeakagePower::new(LeakageParams::core_default());
        let c = nominal_cells();
        let p1 = m.block_static(&c, 5.0, 1.0, 358.15);
        let p2 = m.block_static(&c, 10.0, 1.0, 358.15);
        assert!((p2 - 2.0 * p1).abs() < 1e-12);
    }
}
