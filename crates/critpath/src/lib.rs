//! Critical-path timing model: from variation maps to per-core maximum
//! frequency.
//!
//! Follows the VARIUS timing model the paper uses (§6.3): gate delay
//! obeys the **alpha-power law** (Sakurai & Newton),
//!
//! ```text
//! d ∝ Leff · V / (V − Vth)^α
//! ```
//!
//! and a processor's cycle time is set by its slowest pipeline stage.
//! Stages come in two flavors with different variation sensitivity:
//!
//! * **logic stages** (a chain of gates, e.g. the multiplier
//!   characterized by Ernst et al.) whose delay averages several gates'
//!   Vth along the path, and
//! * **SRAM stages** (L1 access, register file, queues) whose delay is
//!   dominated by the *worst* cell in the array — modeled by a guard
//!   band over the local Vth (Mukhopadhyay et al.'s 6T-cell model, with
//!   the array-access extension of VARIUS).
//!
//! Both stage types are evaluated in every variation-map cell a core
//! covers; the core's maximum frequency at a supply voltage `V` is the
//! reciprocal of its worst cell-stage delay. Temperature enters through
//! carrier-mobility derating and the Vth temperature coefficient; the
//! paper rates frequencies at the hottest observed temperature (95 °C).
//! Both delays only grow with a cell's Vth and Leff, so
//! [`FreqModel::vf_table`] evaluates only the core's (Vth, Leff)
//! skyline, which gives the same table bit for bit.
//!
//! The model is calibrated so a *nominal* core (Vth = µ, Leff = 1) runs
//! at exactly the nominal frequency (4 GHz, Table 4) at `V` = 1 V and
//! 95 °C.
//!
//! # Example
//!
//! ```
//! use critpath::{FreqModel, TimingParams};
//! use varius::CoreCells;
//!
//! let model = FreqModel::new(TimingParams::paper_default());
//! let nominal = CoreCells { vth: vec![0.250], leff: vec![1.0] };
//! let f = model.fmax_hz(&nominal, 1.0);
//! assert!((f - 4.0e9).abs() / 4.0e9 < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use varius::CoreCells;

/// Parameters of the timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingParams {
    /// Alpha-power-law velocity-saturation exponent (≈1.3 at 32 nm).
    pub alpha: f64,
    /// Nominal threshold voltage in volts (for calibration).
    pub vth_nominal: f64,
    /// Nominal frequency in Hz at `v_nominal` and `rating_temp_k`.
    pub f_nominal_hz: f64,
    /// Supply voltage at which the nominal frequency is rated (volts).
    pub v_nominal: f64,
    /// Temperature at which frequencies are rated, in kelvin
    /// (paper: 95 °C — the hottest temperature any application reaches).
    pub rating_temp_k: f64,
    /// Vth temperature coefficient in V/K (Vth drops as T rises).
    pub vth_temp_coeff: f64,
    /// Mobility temperature exponent: delay scales as `(T/T_ref)^m`.
    pub mobility_exponent: f64,
    /// Reference temperature for the Vth maps, kelvin (paper: 60 °C).
    pub vth_ref_temp_k: f64,
    /// SRAM guard band: extra Vth (in multiples of the *cell-to-cell*
    /// Vth spread the array sees internally) added to SRAM stage delay
    /// evaluation. Expressed directly in volts for simplicity.
    pub sram_vth_guard: f64,
    /// Relative weight of the SRAM stage delay vs the logic stage at
    /// nominal conditions (1.0 = equally critical at nominal).
    pub sram_logic_balance: f64,
}

impl TimingParams {
    /// Paper defaults: α = 1.3, 4 GHz nominal at 1 V / 95 °C, Vth maps
    /// referenced at 60 °C, 30 mV SRAM guard band, SRAM and logic paths
    /// balanced at nominal conditions.
    pub fn paper_default() -> Self {
        Self {
            alpha: 1.3,
            vth_nominal: 0.250,
            f_nominal_hz: 4.0e9,
            v_nominal: 1.0,
            rating_temp_k: 368.15,
            vth_temp_coeff: 0.5e-3,
            mobility_exponent: 1.5,
            vth_ref_temp_k: 333.15,
            sram_vth_guard: 0.030,
            sram_logic_balance: 1.0,
        }
    }
}

/// Frequency model mapping a core's variation cells and a supply voltage
/// to the core's maximum frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct FreqModel {
    params: TimingParams,
    /// Calibration constant for logic stages: `f = k_logic / d_raw`.
    k_logic: f64,
    /// Calibration constant for SRAM stages.
    k_sram: f64,
}

impl FreqModel {
    /// Builds a calibrated model.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are degenerate (non-positive nominal
    /// voltage/frequency or `alpha`, or `v_nominal <= vth_nominal`).
    pub fn new(params: TimingParams) -> Self {
        assert!(params.alpha > 0.0, "alpha must be positive");
        assert!(
            params.f_nominal_hz > 0.0,
            "nominal frequency must be positive"
        );
        assert!(
            params.v_nominal > params.vth_nominal,
            "nominal voltage must exceed nominal Vth"
        );
        // Raw (uncalibrated) stage delays of a nominal core at rating
        // conditions; calibrate each stage type so that a nominal core is
        // exactly balanced and hits f_nominal. The Vth maps are referenced
        // at 60 C, so apply the same temperature shift fmax_hz_at applies
        // when evaluating at the rating temperature.
        let vth_at_rating = params.vth_nominal
            - params.vth_temp_coeff * (params.rating_temp_k - params.vth_ref_temp_k);
        let d_logic = raw_logic_delay(&params, vth_at_rating, 1.0, params.v_nominal);
        let d_sram = raw_sram_delay(&params, vth_at_rating, 1.0, params.v_nominal);
        let k_logic = params.f_nominal_hz * d_logic;
        let k_sram =
            params.f_nominal_hz * d_sram * params.sram_logic_balance.max(f64::MIN_POSITIVE);
        Self {
            params,
            k_logic,
            k_sram,
        }
    }

    /// The model's parameters.
    pub fn params(&self) -> &TimingParams {
        &self.params
    }

    /// Maximum frequency (Hz) of a core with variation cells `cells` at
    /// supply voltage `v` (volts), rated at the model's rating
    /// temperature.
    ///
    /// Returns 0 if the voltage is too low to operate any cell (V below
    /// the effective threshold of the slowest cell).
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty or `v` is not positive.
    pub fn fmax_hz(&self, cells: &CoreCells, v: f64) -> f64 {
        self.fmax_hz_at(cells, v, self.params.rating_temp_k)
    }

    /// Maximum frequency (Hz) at an explicit temperature (kelvin).
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty or `v` is not positive.
    pub fn fmax_hz_at(&self, cells: &CoreCells, v: f64, temp_k: f64) -> f64 {
        assert!(!cells.is_empty(), "core has no variation cells");
        assert!(v > 0.0, "supply voltage must be positive");
        let p = &self.params;

        // Vth at the evaluation temperature (maps are referenced at 60C).
        let dvth = p.vth_temp_coeff * (temp_k - p.vth_ref_temp_k);
        // Mobility derating relative to rating conditions.
        let mobility = (temp_k / p.rating_temp_k).powf(p.mobility_exponent);

        let mut worst_delay = 0.0f64;
        for (&vth_ref, &leff) in cells.vth.iter().zip(&cells.leff) {
            let vth = vth_ref - dvth;
            let d_logic = raw_logic_delay(p, vth, leff, v);
            let d_sram = raw_sram_delay(p, vth, leff, v);
            if !(d_logic.is_finite() && d_sram.is_finite()) {
                return 0.0; // some cell cannot switch at this voltage
            }
            let cell_delay =
                (d_logic * mobility / self.k_logic).max(d_sram * mobility / self.k_sram);
            worst_delay = worst_delay.max(cell_delay);
        }
        if worst_delay <= 0.0 {
            return 0.0;
        }
        1.0 / worst_delay
    }

    /// Builds the per-core (voltage, frequency) table the power
    /// managers consume (paper Table 3: "for each core: table of
    /// (voltage, frequency) pairs", supplied by the manufacturer).
    ///
    /// Frequencies are quantized *down* to multiples of `f_step_hz` so a
    /// core never runs above a frequency it can support. Entries are
    /// sorted by ascending voltage, and the frequency column is made
    /// monotonically non-decreasing (a higher voltage never yields a
    /// lower table frequency).
    ///
    /// Only the core's (Vth, Leff) skyline is evaluated: the cells that
    /// no other cell matches or beats in both Vth and Leff, the only
    /// ones that can set Fmax. The table equals one built from
    /// [`FreqModel::fmax_hz`] over all cells, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty, or if `voltages` is empty, unsorted,
    /// or `f_step_hz <= 0`.
    pub fn vf_table(&self, cells: &CoreCells, voltages: &[f64], f_step_hz: f64) -> VfTable {
        assert!(!voltages.is_empty(), "need at least one voltage level");
        assert!(
            voltages.windows(2).all(|w| w[0] < w[1]),
            "voltages must be strictly ascending"
        );
        assert!(f_step_hz > 0.0, "frequency step must be positive");
        self.table_over(&skyline(cells), voltages, f_step_hz)
    }

    /// The quantized, monotone (V, f) table of `cells`, every entry
    /// rated by [`FreqModel::fmax_hz`] over all of `cells`.
    fn table_over(&self, cells: &CoreCells, voltages: &[f64], f_step_hz: f64) -> VfTable {
        let mut entries: Vec<(f64, f64)> = Vec::with_capacity(voltages.len());
        let mut prev_f = 0.0f64;
        for &v in voltages {
            let raw = self.fmax_hz(cells, v);
            let quantized = (raw / f_step_hz).floor() * f_step_hz;
            let f = quantized.max(prev_f);
            entries.push((v, f));
            prev_f = f;
        }
        VfTable { entries }
    }
}

/// The cells of a core that can set its Fmax: its (Vth, Leff) skyline,
/// the cells that no other cell matches or beats in both Vth and Leff.
///
/// Both stage delays, `leff·v / (v − vth[+guard])^α`, only grow with
/// Vth and with a non-negative Leff. Every step that computes them is
/// monotone under round-to-nearest: the temperature shift, the
/// overdrive, `powf` in its base (glibc's `pow` errs by at most 0.52
/// ULP, so it keeps the order of exact results 0.04 ULP apart, and at
/// α = 1.3 a one-ULP step of the base moves `x^α` by at least 0.65
/// ULP), the product, the quotient and the calibration scaling. A dominated cell therefore never has the larger
/// delay, nor a non-finite delay its dominator lacks. Dropping it
/// leaves [`FreqModel::fmax_hz`]'s maximum and its 0 Hz early return
/// unchanged, and `f64::max` does not depend on order. Of duplicate
/// cells the first stays. A cell with a non-finite Vth or Leff, or a
/// negative Leff, falls outside the argument: it always stays and is
/// never compared.
///
/// Built by insertion into a short list, without sorting: on paper dies
/// a core's skyline holds about 5 of its ~120 cells.
fn skyline(cells: &CoreCells) -> CoreCells {
    let mut sky = CoreCells {
        vth: Vec::with_capacity(16),
        leff: Vec::with_capacity(16),
    };
    let mut unordered = Vec::new();
    'cells: for (&vth, &leff) in cells.vth.iter().zip(&cells.leff) {
        if !(vth.is_finite() && leff.is_finite() && leff >= 0.0) {
            unordered.push((vth, leff));
            continue;
        }
        // The list is an antichain, so a cell some member dominates
        // cannot itself dominate another member: one pass both tests
        // the cell and drops the members it dominates.
        let mut i = 0;
        while i < sky.vth.len() {
            let (sv, sl) = (sky.vth[i], sky.leff[i]);
            if sv >= vth && sl >= leff {
                continue 'cells;
            }
            if vth >= sv && leff >= sl {
                sky.vth.swap_remove(i);
                sky.leff.swap_remove(i);
            } else {
                i += 1;
            }
        }
        sky.vth.push(vth);
        sky.leff.push(leff);
    }
    for (vth, leff) in unordered {
        sky.vth.push(vth);
        sky.leff.push(leff);
    }
    sky
}

/// Raw (uncalibrated) logic-stage delay: averages the alpha-power gate
/// delay along a path of gates that all see the cell's parameters.
fn raw_logic_delay(p: &TimingParams, vth: f64, leff: f64, v: f64) -> f64 {
    let overdrive = v - vth;
    if overdrive <= 0.0 {
        return f64::INFINITY;
    }
    leff * v / overdrive.powf(p.alpha)
}

/// Raw (uncalibrated) SRAM-stage delay: like logic but against the
/// guard-banded worst cell of the array, making it more Vth-sensitive.
fn raw_sram_delay(p: &TimingParams, vth: f64, leff: f64, v: f64) -> f64 {
    let vth_worst = vth + p.sram_vth_guard;
    let overdrive = v - vth_worst;
    if overdrive <= 0.0 {
        return f64::INFINITY;
    }
    leff * v / overdrive.powf(p.alpha)
}

/// A core's manufacturer-provided (voltage, frequency) table.
///
/// # Example
///
/// ```
/// use critpath::{FreqModel, TimingParams};
/// use varius::CoreCells;
///
/// let model = FreqModel::new(TimingParams::paper_default());
/// let core = CoreCells { vth: vec![0.25, 0.26], leff: vec![1.0, 1.02] };
/// let table = model.vf_table(&core, &[0.6, 0.8, 1.0], 100.0e6);
/// assert_eq!(table.len(), 3);
/// assert!(table.freq_at(2) >= table.freq_at(0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VfTable {
    entries: Vec<(f64, f64)>,
}

impl VfTable {
    /// Creates a table directly from `(voltage, frequency)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if empty, voltages are not strictly ascending, or
    /// frequencies are not non-decreasing.
    pub fn from_entries(entries: Vec<(f64, f64)>) -> Self {
        assert!(!entries.is_empty(), "VF table cannot be empty");
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "voltages must be strictly ascending"
        );
        assert!(
            entries.windows(2).all(|w| w[0].1 <= w[1].1),
            "frequencies must be non-decreasing"
        );
        Self { entries }
    }

    /// Number of (V, f) levels.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Voltage of level `i` (levels are sorted ascending).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn voltage_at(&self, i: usize) -> f64 {
        self.entries[i].0
    }

    /// Frequency of level `i` in Hz.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn freq_at(&self, i: usize) -> f64 {
        self.entries[i].1
    }

    /// The highest level index.
    pub fn max_level(&self) -> usize {
        self.entries.len() - 1
    }

    /// Frequency at the maximum voltage (the core's rated frequency).
    pub fn max_freq(&self) -> f64 {
        self.entries[self.entries.len() - 1].1
    }

    /// All `(voltage, frequency)` entries, ascending by voltage.
    pub fn entries(&self) -> &[(f64, f64)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's DVFS levels and frequency step (cmpsim's
    /// `MachineConfig::paper_default`).
    const PAPER_F_STEP_HZ: f64 = 100.0e6;

    fn paper_voltages() -> Vec<f64> {
        (0..9).map(|i| 0.6 + 0.05 * i as f64).collect()
    }

    /// Asserts that the skyline path agrees with the all-cells oracle
    /// on `cells`, bit for bit: the raw Fmax at every paper voltage and
    /// the whole table. Returns the skyline's size.
    fn assert_matches_oracle(m: &FreqModel, cells: &CoreCells) -> usize {
        let volts = paper_voltages();
        let sky = skyline(cells);
        for &v in &volts {
            assert_eq!(
                m.fmax_hz(&sky, v).to_bits(),
                m.fmax_hz(cells, v).to_bits(),
                "Fmax at {v} V of {cells:?}"
            );
        }
        let bits = |t: &VfTable| -> Vec<(u64, u64)> {
            t.entries()
                .iter()
                .map(|&(v, f)| (v.to_bits(), f.to_bits()))
                .collect()
        };
        assert_eq!(
            bits(&m.vf_table(cells, &volts, PAPER_F_STEP_HZ)),
            bits(&m.table_over(cells, &volts, PAPER_F_STEP_HZ)),
            "table of {cells:?}"
        );
        sky.len()
    }

    fn core(vth: &[f64], leff: &[f64]) -> CoreCells {
        CoreCells {
            vth: vth.to_vec(),
            leff: leff.to_vec(),
        }
    }

    #[test]
    fn skyline_tables_match_the_all_cells_oracle_on_generated_dies() {
        use floorplan::paper_20_core;
        use varius::{DieGenerator, VariationConfig};
        use vastats::SimRng;

        // A one-ULP disagreement shows in a table only at a 100 MHz
        // step boundary, so the sweep needs thousands of dies; the raw
        // Fmax bits are compared as well.
        let m = FreqModel::new(TimingParams::paper_default());
        let fp = paper_20_core();
        let mut dies = 0;
        for (grid, seed) in [(20, 1), (30, 2), (60, 3)] {
            let gen = DieGenerator::new(VariationConfig {
                grid,
                ..VariationConfig::paper_default()
            })
            .expect("valid config");
            let mut rng = SimRng::seed_from(seed);
            for _ in 0..700 {
                let die = gen.generate(&mut rng);
                for c in 0..fp.core_count() {
                    assert_matches_oracle(&m, &die.core_cells(&fp, c));
                }
                dies += 1;
            }
        }
        assert!(dies >= 2_000);
    }

    #[test]
    fn skyline_matches_the_oracle_on_hand_built_cores() {
        let m = FreqModel::new(TimingParams::paper_default());
        // Tied Vth: only the longest gate can limit.
        let tied_vth = core(&[0.27, 0.27, 0.27], &[0.98, 1.04, 1.01]);
        assert_eq!(assert_matches_oracle(&m, &tied_vth), 1);
        // Tied Leff: only the highest Vth.
        let tied_leff = core(&[0.24, 0.29, 0.26], &[1.02, 1.02, 1.02]);
        assert_eq!(assert_matches_oracle(&m, &tied_leff), 1);
        // Duplicate cells: one copy stays.
        let duplicates = core(&[0.26, 0.25, 0.26, 0.26], &[1.01, 0.99, 1.01, 1.01]);
        assert_eq!(assert_matches_oracle(&m, &duplicates), 1);
        assert_eq!(assert_matches_oracle(&m, &nominal_core()), 1);
        // A chain keeps its top, whichever end comes first.
        let rising = core(&[0.24, 0.25, 0.26, 0.27], &[0.97, 0.98, 0.99, 1.0]);
        assert_eq!(assert_matches_oracle(&m, &rising), 1);
        let falling = core(&[0.27, 0.26, 0.25, 0.24], &[1.0, 0.99, 0.98, 0.97]);
        assert_eq!(assert_matches_oracle(&m, &falling), 1);
        // An antichain keeps every cell; so does a cell too slow to
        // switch at the lowest levels.
        let crossing = core(&[0.28, 0.24, 0.26, 0.58], &[0.97, 1.05, 1.0, 0.9]);
        assert_eq!(assert_matches_oracle(&m, &crossing), 4);

        // NaN or +∞ Vth, and a −∞ Leff, set every level to 0 Hz in the
        // all-cells loop; such cells stay in the skyline even where an
        // ordinary cell would dominate them.
        let volts = paper_voltages();
        for cells in [
            core(&[0.25, f64::NAN, 0.30], &[1.0, 0.9, 1.1]),
            core(&[f64::NAN, 0.25], &[1.0, 1.0]),
            core(&[0.25, f64::INFINITY, 0.30], &[1.0, 0.9, 1.1]),
            core(&[0.30, 0.25], &[1.1, f64::NEG_INFINITY]),
        ] {
            assert_matches_oracle(&m, &cells);
            let t = m.vf_table(&cells, &volts, PAPER_F_STEP_HZ);
            assert!(t.entries().iter().all(|&(_, f)| f == 0.0), "{cells:?}");
        }
        // −∞ Vth (a zero delay) and a negative Leff (a negative delay)
        // never limit the core, and never hide another cell.
        let below_zero = core(&[f64::NEG_INFINITY, 0.26, 0.31], &[1.0, 1.0, -1.0]);
        assert_eq!(assert_matches_oracle(&m, &below_zero), 3);
        assert!(m.fmax_hz(&below_zero, 1.0) > 0.0);
    }

    fn nominal_core() -> CoreCells {
        CoreCells {
            vth: vec![0.250],
            leff: vec![1.0],
        }
    }

    #[test]
    fn nominal_core_hits_nominal_frequency() {
        let m = FreqModel::new(TimingParams::paper_default());
        let f = m.fmax_hz(&nominal_core(), 1.0);
        assert!((f - 4.0e9).abs() / 4.0e9 < 1e-9, "f = {f}");
    }

    #[test]
    fn frequency_increases_with_voltage() {
        let m = FreqModel::new(TimingParams::paper_default());
        let core = nominal_core();
        let mut prev = 0.0;
        for &v in &[0.6, 0.7, 0.8, 0.9, 1.0] {
            let f = m.fmax_hz(&core, v);
            assert!(f > prev, "f({v}) = {f} should exceed {prev}");
            prev = f;
        }
    }

    #[test]
    fn slow_cell_limits_core() {
        let m = FreqModel::new(TimingParams::paper_default());
        let fast = CoreCells {
            vth: vec![0.23, 0.24],
            leff: vec![0.95, 0.97],
        };
        let with_slow_cell = CoreCells {
            vth: vec![0.23, 0.24, 0.31],
            leff: vec![0.95, 0.97, 1.1],
        };
        assert!(m.fmax_hz(&fast, 1.0) > m.fmax_hz(&with_slow_cell, 1.0));
    }

    #[test]
    fn high_vth_cores_are_slower() {
        let m = FreqModel::new(TimingParams::paper_default());
        let lo = CoreCells {
            vth: vec![0.22],
            leff: vec![1.0],
        };
        let hi = CoreCells {
            vth: vec![0.28],
            leff: vec![1.0],
        };
        assert!(m.fmax_hz(&lo, 1.0) > m.fmax_hz(&hi, 1.0));
    }

    #[test]
    fn longer_gates_are_slower() {
        let m = FreqModel::new(TimingParams::paper_default());
        let short = CoreCells {
            vth: vec![0.25],
            leff: vec![0.95],
        };
        let long = CoreCells {
            vth: vec![0.25],
            leff: vec![1.05],
        };
        assert!(m.fmax_hz(&short, 1.0) > m.fmax_hz(&long, 1.0));
    }

    #[test]
    fn hotter_is_slower_near_nominal() {
        let m = FreqModel::new(TimingParams::paper_default());
        let core = nominal_core();
        // At 1 V the mobility effect dominates the Vth drop.
        let cold = m.fmax_hz_at(&core, 1.0, 333.15);
        let hot = m.fmax_hz_at(&core, 1.0, 368.15);
        assert!(cold > hot, "cold {cold} vs hot {hot}");
    }

    #[test]
    fn unusable_voltage_gives_zero() {
        let m = FreqModel::new(TimingParams::paper_default());
        let core = CoreCells {
            vth: vec![0.45],
            leff: vec![1.0],
        };
        // 0.46 V minus the 30 mV SRAM guard leaves no overdrive.
        assert_eq!(m.fmax_hz(&core, 0.46), 0.0);
    }

    #[test]
    fn f_of_v_is_roughly_linear_over_dvfs_range() {
        // LinOpt's linearization assumes f(V) ~ linear on 0.6-1.0 V.
        let m = FreqModel::new(TimingParams::paper_default());
        let core = nominal_core();
        let f06 = m.fmax_hz(&core, 0.6);
        let f08 = m.fmax_hz(&core, 0.8);
        let f10 = m.fmax_hz(&core, 1.0);
        let interp = (f06 + f10) / 2.0;
        let rel_err = (f08 - interp).abs() / f08;
        assert!(rel_err < 0.06, "midpoint deviation {rel_err}");
    }

    #[test]
    fn vf_table_quantizes_down() {
        let m = FreqModel::new(TimingParams::paper_default());
        let core = nominal_core();
        let t = m.vf_table(&core, &[0.6, 0.8, 1.0], 100.0e6);
        for i in 0..t.len() {
            let raw = m.fmax_hz(&core, t.voltage_at(i));
            assert!(t.freq_at(i) <= raw + 1.0);
            assert!((t.freq_at(i) / 100.0e6).fract().abs() < 1e-9);
        }
    }

    #[test]
    fn vf_table_monotone() {
        let m = FreqModel::new(TimingParams::paper_default());
        let core = CoreCells {
            vth: vec![0.27, 0.25, 0.29],
            leff: vec![1.0, 1.03, 0.98],
        };
        let volts: Vec<f64> = (0..9).map(|i| 0.6 + 0.05 * i as f64).collect();
        let t = m.vf_table(&core, &volts, 100.0e6);
        for w in t.entries().windows(2) {
            assert!(w[0].1 <= w[1].1);
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn max_freq_is_the_top_entry() {
        let t = VfTable::from_entries(vec![(0.6, 2.0e9), (0.8, 3.0e9), (1.0, 4.0e9)]);
        assert_eq!(t.max_level(), 2);
        assert_eq!(t.max_freq(), 4.0e9);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_table_rejected() {
        VfTable::from_entries(vec![(0.8, 3.0e9), (0.6, 2.0e9)]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn non_monotone_freq_rejected() {
        VfTable::from_entries(vec![(0.6, 3.0e9), (0.8, 2.0e9)]);
    }

    #[test]
    fn paper_frequency_spread_plausible() {
        // A +/- 2 sigma Vth spread should give a double-digit percentage
        // frequency spread, consistent with the paper's ~33% average.
        let m = FreqModel::new(TimingParams::paper_default());
        let sigma = 0.25 * 0.12;
        let fast = CoreCells {
            vth: vec![0.25 - 1.5 * sigma],
            leff: vec![1.0 - 0.09],
        };
        let slow = CoreCells {
            vth: vec![0.25 + 1.5 * sigma],
            leff: vec![1.0 + 0.09],
        };
        let ratio = m.fmax_hz(&fast, 1.0) / m.fmax_hz(&slow, 1.0);
        assert!(ratio > 1.15 && ratio < 2.0, "ratio {ratio}");
    }
}
