//! Dynamic (switching) power: the Wattch substitute.
//!
//! Wattch decomposes a core into array/CAM/wire/clock structures and
//! charges each one an activity-dependent `C_eff · V² · f` per cycle.
//! We keep the same shape at block granularity: a core is a set of
//! [`Structure`]s, each with an effective capacitance calibrated in
//! watts at the reference point (1 V, 4 GHz, activity 1.0), and each
//! application is summarized by an [`ActivityVector`] giving per-
//! structure utilization. Scaling in voltage is quadratic and in
//! frequency linear, exactly the dependence LinOpt's linear power fit
//! approximates.

/// Microarchitectural structures charged for dynamic power.
///
/// The set follows Wattch's breakdown of an out-of-order core like the
/// Alpha 21264 the paper models (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Structure {
    /// Fetch unit: I-TLB, branch predictor, BTB.
    Fetch,
    /// Rename logic and register map.
    Rename,
    /// Issue window / scheduler (20 fp + 40 int entries).
    Window,
    /// Register file (80 entries).
    RegFile,
    /// Integer ALUs.
    IntAlu,
    /// Floating-point units.
    FpAlu,
    /// Load/store queue and D-TLB.
    Lsq,
    /// L1 instruction cache (16 KB).
    L1I,
    /// L1 data cache (16 KB).
    L1D,
    /// Clock tree and global wiring (always switching when active).
    Clock,
}

/// Number of structures in [`Structure`]'s enumeration.
pub const STRUCTURE_COUNT: usize = 10;

/// All structures in canonical order.
pub const ALL_STRUCTURES: [Structure; STRUCTURE_COUNT] = [
    Structure::Fetch,
    Structure::Rename,
    Structure::Window,
    Structure::RegFile,
    Structure::IntAlu,
    Structure::FpAlu,
    Structure::Lsq,
    Structure::L1I,
    Structure::L1D,
    Structure::Clock,
];

impl Structure {
    /// Canonical index of the structure.
    pub fn index(&self) -> usize {
        ALL_STRUCTURES
            .iter()
            .position(|s| s == self)
            .expect("structure is in canonical list")
    }
}

/// Per-structure activity factors in `[0, 1]`.
///
/// # Example
///
/// ```
/// use powermodel::{ActivityVector, Structure};
/// let mut a = ActivityVector::uniform(0.5);
/// a.set(Structure::FpAlu, 0.9);
/// assert_eq!(a.get(Structure::FpAlu), 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityVector {
    factors: [f64; STRUCTURE_COUNT],
}

impl ActivityVector {
    /// Creates an activity vector with every structure at `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is outside `[0, 1]`.
    pub fn uniform(a: f64) -> Self {
        assert!((0.0..=1.0).contains(&a), "activity must be in [0,1]");
        Self {
            factors: [a; STRUCTURE_COUNT],
        }
    }

    /// Creates an activity vector from factors in canonical
    /// [`ALL_STRUCTURES`] order.
    ///
    /// # Panics
    ///
    /// Panics if any factor is outside `[0, 1]`.
    pub fn from_factors(factors: [f64; STRUCTURE_COUNT]) -> Self {
        assert!(
            factors.iter().all(|a| (0.0..=1.0).contains(a)),
            "activity factors must be in [0,1]"
        );
        Self { factors }
    }

    /// Activity of one structure.
    pub fn get(&self, s: Structure) -> f64 {
        self.factors[s.index()]
    }

    /// Sets the activity of one structure.
    ///
    /// # Panics
    ///
    /// Panics if `a` is outside `[0, 1]`.
    pub fn set(&mut self, s: Structure, a: f64) {
        assert!((0.0..=1.0).contains(&a), "activity must be in [0,1]");
        self.factors[s.index()] = a;
    }

    /// Scales every factor by `k`, clamping into `[0, 1]`.
    pub fn scaled(&self, k: f64) -> Self {
        let mut out = *self;
        for f in &mut out.factors {
            *f = (*f * k).clamp(0.0, 1.0);
        }
        out
    }
}

/// The dynamic power model: per-structure effective capacitances
/// expressed as watts at the reference point (1 V, reference frequency,
/// activity 1).
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicPower {
    /// Power of each structure at V=1, f=f_ref, activity 1 (watts).
    watts_at_ref: [f64; STRUCTURE_COUNT],
    /// Reference frequency in Hz.
    f_ref_hz: f64,
    /// Reference voltage in volts.
    v_ref: f64,
}

impl DynamicPower {
    /// The paper's core at 32 nm: a 2-issue out-of-order Alpha-like core
    /// whose full-activity dynamic power is ≈8 W at 4 GHz / 1 V —
    /// chosen so the Table 5 applications (realistic activity well below
    /// full) land on their published 1.5–4.4 W range.
    pub fn paper_default() -> Self {
        // Budget split loosely following Wattch's published breakdowns.
        let watts = [
            0.70, // Fetch
            0.42, // Rename
            1.05, // Window
            0.63, // RegFile
            0.91, // IntAlu
            1.26, // FpAlu
            0.70, // Lsq
            0.42, // L1I
            0.84, // L1D
            1.12, // Clock
        ];
        Self {
            watts_at_ref: watts,
            f_ref_hz: 4.0e9,
            v_ref: 1.0,
        }
    }

    /// Creates a model from explicit per-structure reference powers.
    ///
    /// # Panics
    ///
    /// Panics if any power is negative or the reference point is
    /// non-positive.
    pub fn new(watts_at_ref: [f64; STRUCTURE_COUNT], f_ref_hz: f64, v_ref: f64) -> Self {
        assert!(
            watts_at_ref.iter().all(|&w| w >= 0.0),
            "structure powers must be non-negative"
        );
        assert!(
            f_ref_hz > 0.0 && v_ref > 0.0,
            "reference point must be positive"
        );
        Self {
            watts_at_ref,
            f_ref_hz,
            v_ref,
        }
    }

    /// Reference frequency (Hz).
    pub fn f_ref_hz(&self) -> f64 {
        self.f_ref_hz
    }

    /// Total dynamic power (watts) of a core running with activity
    /// vector `activity` at supply `v` volts and frequency `f_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `f_hz` is negative.
    pub fn power(&self, activity: &ActivityVector, v: f64, f_hz: f64) -> f64 {
        self.power_from_ref(self.power_at_ref(activity), v, f_hz)
    }

    /// Dynamic power at the reference point for a given activity — the
    /// "dynamic power at 4 GHz and 1 V" column of the paper's Table 5:
    /// the activity-weighted sum of the structure powers.
    pub fn power_at_ref(&self, activity: &ActivityVector) -> f64 {
        self.watts_at_ref
            .iter()
            .zip(&activity.factors)
            .map(|(w, a)| w * a)
            .sum::<f64>()
    }

    /// [`DynamicPower::power`] of an application whose reference-point
    /// power is `ref_w` ([`DynamicPower::power_at_ref`]), scaled to
    /// supply `v` volts and frequency `f_hz`. A sweep over one core's
    /// (V, f) levels computes `ref_w` once; every level keeps the bits
    /// of `power`, which is this function over the same sum.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `f_hz` is negative.
    pub fn power_from_ref(&self, ref_w: f64, v: f64, f_hz: f64) -> f64 {
        assert!(
            v >= 0.0 && f_hz >= 0.0,
            "operating point must be non-negative"
        );
        let v_scale = (v / self.v_ref).powi(2);
        let f_scale = f_hz / self.f_ref_hz;
        ref_w * v_scale * f_scale
    }

    /// Total power at full activity and the reference point (watts).
    pub fn max_power(&self) -> f64 {
        self.watts_at_ref.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_power_is_budget_sum() {
        let m = DynamicPower::paper_default();
        assert!((m.max_power() - 8.05).abs() < 1e-9);
    }

    #[test]
    fn quadratic_in_voltage() {
        let m = DynamicPower::paper_default();
        let a = ActivityVector::uniform(0.5);
        let p1 = m.power(&a, 1.0, 4.0e9);
        let p08 = m.power(&a, 0.8, 4.0e9);
        assert!((p08 / p1 - 0.64).abs() < 1e-9);
    }

    #[test]
    fn linear_in_frequency() {
        let m = DynamicPower::paper_default();
        let a = ActivityVector::uniform(0.5);
        let p4 = m.power(&a, 1.0, 4.0e9);
        let p2 = m.power(&a, 1.0, 2.0e9);
        assert!((p2 / p4 - 0.5).abs() < 1e-9);
    }

    /// `power` keeps the bits of its one-expression form (the
    /// structure sum times the voltage scale times the frequency
    /// scale) now that the sum is `power_at_ref` and the scaling
    /// `power_from_ref`.
    #[test]
    fn split_power_keeps_the_bits_of_the_one_expression_form() {
        let m = DynamicPower::paper_default();
        for k in 0..12 {
            let mut a = ActivityVector::uniform(0.05 + 0.07 * k as f64);
            a.set(Structure::FpAlu, (0.9 - 0.06 * k as f64).max(0.0));
            let ref_w = m.power_at_ref(&a);
            for level in 0..9 {
                let v = 0.6 + 0.05 * level as f64;
                let f_hz = (1.7 + 0.3 * level as f64 + 0.01 * k as f64) * 1e9;
                let one_expression = ALL_STRUCTURES
                    .iter()
                    .map(|s| m.watts_at_ref[s.index()] * a.get(*s))
                    .sum::<f64>()
                    * (v / m.v_ref).powi(2)
                    * (f_hz / m.f_ref_hz);
                assert_eq!(m.power(&a, v, f_hz).to_bits(), one_expression.to_bits());
                assert_eq!(
                    m.power_from_ref(ref_w, v, f_hz).to_bits(),
                    one_expression.to_bits()
                );
            }
            assert_eq!(
                ref_w.to_bits(),
                m.power(&a, m.v_ref, m.f_ref_hz).to_bits(),
                "the reference point scales by exactly one"
            );
        }
    }

    #[test]
    fn zero_activity_zero_power() {
        let m = DynamicPower::paper_default();
        let a = ActivityVector::uniform(0.0);
        assert_eq!(m.power(&a, 1.0, 4.0e9), 0.0);
    }

    #[test]
    fn structure_weights_respected() {
        let m = DynamicPower::paper_default();
        let mut a = ActivityVector::uniform(0.0);
        a.set(Structure::Clock, 1.0);
        assert!((m.power_at_ref(&a) - 1.12).abs() < 1e-9);
        a.set(Structure::FpAlu, 1.0);
        assert!((m.power_at_ref(&a) - 2.38).abs() < 1e-9);
    }

    #[test]
    fn activity_vector_accessors() {
        let mut a = ActivityVector::uniform(0.2);
        a.set(Structure::L1D, 0.7);
        assert_eq!(a.get(Structure::L1D), 0.7);
        assert_eq!(a.get(Structure::Fetch), 0.2);
        let scaled = a.scaled(2.0);
        assert_eq!(scaled.get(Structure::Fetch), 0.4);
        assert_eq!(scaled.get(Structure::L1D), 1.0); // clamped
    }

    #[test]
    fn table5_power_range_reachable() {
        // The paper's app dynamic powers span 1.5-4.4 W at 4 GHz / 1 V;
        // activities in [0.15, 0.6] should cover that range.
        let m = DynamicPower::paper_default();
        let lo = m.power_at_ref(&ActivityVector::uniform(0.15));
        let hi = m.power_at_ref(&ActivityVector::uniform(0.60));
        assert!(lo < 1.5, "lo {lo}");
        assert!(hi > 4.4, "hi {hi}");
    }

    #[test]
    #[should_panic(expected = "[0,1]")]
    fn invalid_activity_rejected() {
        ActivityVector::uniform(1.5);
    }

    #[test]
    fn canonical_indices_are_bijective() {
        for (i, s) in ALL_STRUCTURES.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
