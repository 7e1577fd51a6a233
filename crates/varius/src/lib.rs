//! VARIUS within-die process-variation model.
//!
//! Implements the variation model the paper takes from Sarangi et al.
//! (VARIUS, IEEE TSM 2008), driven by the parameters of the paper's
//! Table 4:
//!
//! * Threshold voltage `Vth`: µ = 250 mV @ 60 °C, total σ/µ ∈ 0.03–0.12
//!   (default 0.12), equal systematic/random variances, spherical spatial
//!   correlation with range φ = 0.5 of the chip width.
//! * Effective gate length `Leff` (kept in normalized units, µ = 1):
//!   σ/µ = half of Vth's, same correlation structure. The systematic
//!   component of `Vth` is driven by the same underlying field as
//!   `Leff`'s, reflecting that Vth's systematic variation "directly
//!   depends on the gate length's variation" (paper §6.1).
//!
//! A [`DieGenerator`] factorizes the grid covariance once and then stamps
//! out independent [`Die`] maps cheaply — the paper's experiments use
//! batches of 200 dies per configuration.
//!
//! # Example
//!
//! ```
//! use varius::{DieGenerator, VariationConfig};
//! use vastats::SimRng;
//! use floorplan::paper_20_core;
//!
//! // A coarse grid keeps the example fast; experiments use the default.
//! let cfg = VariationConfig { grid: 20, ..VariationConfig::paper_default() };
//! let gen = DieGenerator::new(cfg).expect("valid config");
//! let mut rng = SimRng::seed_from(1);
//! let die = gen.generate(&mut rng);
//! let fp = paper_20_core();
//! let core0 = die.core_cells(&fp, 0);
//! assert!(!core0.vth.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use floorplan::Floorplan;
use vastats::field::{FieldError, GaussianField, SphericalCorrelogram};
use vastats::normal;
use vastats::rng::SimRng;

/// Parameters of the variation model (paper Table 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationConfig {
    /// Mean threshold voltage in volts (at the 60 °C reference).
    pub vth_mu: f64,
    /// Total coefficient of variation of Vth (σ/µ over both components).
    pub vth_sigma_over_mu: f64,
    /// Ratio of Leff's σ/µ to Vth's σ/µ (paper: 0.5).
    pub leff_sigma_ratio: f64,
    /// Fraction of total *variance* that is systematic (paper: 0.5,
    /// i.e. equal systematic and random variances).
    pub systematic_fraction: f64,
    /// Spatial correlation range as a fraction of the chip width.
    pub phi: f64,
    /// Variation-map grid resolution (points across the die per axis).
    pub grid: usize,
    /// Die-to-die (D2D) σ/µ of Vth: a per-die offset shared by every
    /// transistor on the die. The paper focuses on within-die variation
    /// and sets this to 0; VARIUS supports both, so the knob is exposed
    /// for lot-level studies (see the `binning_analysis` example).
    pub d2d_sigma_over_mu: f64,
}

impl VariationConfig {
    /// The paper's default configuration: µ(Vth) = 250 mV, σ/µ = 0.12,
    /// equal variances, φ = 0.5, at a grid resolution that keeps 200-die
    /// batches fast while giving every core dozens of sample points.
    pub fn paper_default() -> Self {
        Self {
            vth_mu: 0.250,
            vth_sigma_over_mu: 0.12,
            leff_sigma_ratio: 0.5,
            systematic_fraction: 0.5,
            phi: 0.5,
            grid: 60,
            d2d_sigma_over_mu: 0.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`VariationConfigError`] naming the field that is out
    /// of range and the offending value.
    // Negated comparisons are deliberate: they reject NaN parameters too.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), VariationConfigError> {
        use VariationConfigError as E;
        if !(self.vth_mu > 0.0) {
            // Negated form deliberately rejects NaN as well.
            return Err(E::VthMuNotPositive { got: self.vth_mu });
        }
        if !(0.0..=1.0).contains(&self.vth_sigma_over_mu) {
            return Err(E::VthSigmaOverMuOutOfRange {
                got: self.vth_sigma_over_mu,
            });
        }
        if !(0.0..=1.0).contains(&self.systematic_fraction) {
            return Err(E::SystematicFractionOutOfRange {
                got: self.systematic_fraction,
            });
        }
        if !(self.leff_sigma_ratio >= 0.0) {
            return Err(E::LeffSigmaRatioNegative {
                got: self.leff_sigma_ratio,
            });
        }
        if !(self.phi > 0.0) {
            return Err(E::PhiNotPositive { got: self.phi });
        }
        if self.grid == 0 {
            return Err(E::GridZero);
        }
        if !(0.0..=1.0).contains(&self.d2d_sigma_over_mu) {
            return Err(E::D2dSigmaOverMuOutOfRange {
                got: self.d2d_sigma_over_mu,
            });
        }
        Ok(())
    }
}

/// A [`VariationConfig`] field rejected by
/// [`VariationConfig::validate`].
///
/// Each variant carries the offending value so callers can report it
/// without re-reading the config.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum VariationConfigError {
    /// `vth_mu` must be positive (NaN is rejected too).
    VthMuNotPositive {
        /// The rejected value.
        got: f64,
    },
    /// `vth_sigma_over_mu` must lie in `[0, 1]`.
    VthSigmaOverMuOutOfRange {
        /// The rejected value.
        got: f64,
    },
    /// `systematic_fraction` must lie in `[0, 1]`.
    SystematicFractionOutOfRange {
        /// The rejected value.
        got: f64,
    },
    /// `leff_sigma_ratio` must be non-negative.
    LeffSigmaRatioNegative {
        /// The rejected value.
        got: f64,
    },
    /// `phi` (the correlation range) must be positive.
    PhiNotPositive {
        /// The rejected value.
        got: f64,
    },
    /// `grid` must be a positive resolution.
    GridZero,
    /// `d2d_sigma_over_mu` must lie in `[0, 1]`.
    D2dSigmaOverMuOutOfRange {
        /// The rejected value.
        got: f64,
    },
}

impl std::fmt::Display for VariationConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use VariationConfigError as E;
        match self {
            E::VthMuNotPositive { got } => write!(f, "vth_mu must be positive, got {got}"),
            E::VthSigmaOverMuOutOfRange { got } => {
                write!(f, "vth_sigma_over_mu must be in [0,1], got {got}")
            }
            E::SystematicFractionOutOfRange { got } => {
                write!(f, "systematic_fraction must be in [0,1], got {got}")
            }
            E::LeffSigmaRatioNegative { .. } => write!(f, "leff_sigma_ratio must be non-negative"),
            E::PhiNotPositive { got } => write!(f, "phi must be positive, got {got}"),
            E::GridZero => write!(f, "grid resolution must be positive"),
            E::D2dSigmaOverMuOutOfRange { got } => {
                write!(f, "d2d_sigma_over_mu must be in [0,1], got {got}")
            }
        }
    }
}

impl std::error::Error for VariationConfigError {}

/// Error building a [`DieGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub enum VariusError {
    /// The configuration failed validation.
    BadConfig(VariationConfigError),
    /// The spatial-correlation field could not be constructed.
    Field(FieldError),
}

impl std::fmt::Display for VariusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VariusError::BadConfig(msg) => write!(f, "invalid variation config: {msg}"),
            VariusError::Field(e) => write!(f, "field construction failed: {e}"),
        }
    }
}

impl std::error::Error for VariusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VariusError::BadConfig(e) => Some(e),
            VariusError::Field(e) => Some(e),
        }
    }
}

impl From<FieldError> for VariusError {
    fn from(e: FieldError) -> Self {
        VariusError::Field(e)
    }
}

impl From<VariationConfigError> for VariusError {
    fn from(e: VariationConfigError) -> Self {
        VariusError::BadConfig(e)
    }
}

/// Generator that stamps out variation maps ([`Die`]s) sharing one
/// covariance factorization.
#[derive(Debug, Clone)]
pub struct DieGenerator {
    cfg: VariationConfig,
    field: GaussianField,
}

impl DieGenerator {
    /// Builds the generator (factorizes the grid covariance once).
    ///
    /// # Errors
    ///
    /// Returns [`VariusError`] if the configuration is invalid or the
    /// covariance matrix cannot be factorized.
    pub fn new(cfg: VariationConfig) -> Result<Self, VariusError> {
        cfg.validate().map_err(VariusError::BadConfig)?;
        let corr = SphericalCorrelogram::new(cfg.phi);
        let field = GaussianField::build(cfg.grid, cfg.grid, corr)?;
        Ok(Self { cfg, field })
    }

    /// The configuration this generator was built with.
    pub fn config(&self) -> &VariationConfig {
        &self.cfg
    }

    /// The spatial-correlation field behind this generator — exposes
    /// which sampler it uses and any covariance perturbation
    /// (diagonal jitter / clipped spectral mass) applied at build time.
    pub fn field(&self) -> &GaussianField {
        &self.field
    }

    /// Generates one die's Vth and Leff maps.
    ///
    /// The systematic component is a single correlated field shared by
    /// both parameters (scaled to each one's systematic σ); random
    /// components are drawn independently per point and per parameter.
    pub fn generate(&self, rng: &mut SimRng) -> Die {
        let sys = self.field.sample(rng);
        self.die_from_sys(&sys, rng)
    }

    /// Assembles one die from an already-drawn systematic field (as
    /// returned by this generator's [`GaussianField`]): die-to-die
    /// offsets, then per-point random components, in one fixed draw
    /// order shared by every generation path.
    ///
    /// This is the batching seam fleet construction uses: one
    /// sequential pass draws every chip's systematic field up front
    /// through [`GaussianField::sample_many`] (two fields per FFT on
    /// circulant grids), then each chip assembles its die from its own
    /// sub-stream, in parallel, without touching the shared field RNG.
    ///
    /// # Panics
    ///
    /// Panics if `sys.len()` does not match the generator's grid.
    pub fn die_from_field(&self, sys: &[f64], rng: &mut SimRng) -> Die {
        assert_eq!(
            sys.len(),
            self.field.nx() * self.field.ny(),
            "systematic field length mismatch"
        );
        self.die_from_sys(sys, rng)
    }

    /// Assembles one die from an already-drawn systematic field:
    /// die-to-die offsets, then per-point random components, in one
    /// fixed draw order shared by every generation path.
    fn die_from_sys(&self, sys: &[f64], rng: &mut SimRng) -> Die {
        let cfg = &self.cfg;

        let vth_sigma = cfg.vth_mu * cfg.vth_sigma_over_mu;
        let vth_sigma_sys = vth_sigma * cfg.systematic_fraction.sqrt();
        let vth_sigma_ran = vth_sigma * (1.0 - cfg.systematic_fraction).sqrt();

        // Leff is kept normalized (mean 1.0).
        let leff_mu = 1.0;
        let leff_sigma = leff_mu * cfg.vth_sigma_over_mu * cfg.leff_sigma_ratio;
        let leff_sigma_sys = leff_sigma * cfg.systematic_fraction.sqrt();
        let leff_sigma_ran = leff_sigma * (1.0 - cfg.systematic_fraction).sqrt();

        // Die-to-die offsets are fully correlated across the die and
        // scale Leff's offset by the same ratio as its WID sigma.
        let d2d_draw = if cfg.d2d_sigma_over_mu > 0.0 {
            normal::standard_sample(rng)
        } else {
            0.0
        };
        let vth_d2d = cfg.vth_mu * cfg.d2d_sigma_over_mu * d2d_draw;
        let leff_d2d = cfg.d2d_sigma_over_mu * cfg.leff_sigma_ratio * d2d_draw;

        let mut vth = Vec::with_capacity(sys.len());
        let mut leff = Vec::with_capacity(sys.len());
        for &s in sys {
            let vth_val = cfg.vth_mu
                + vth_d2d
                + vth_sigma_sys * s
                + vth_sigma_ran * normal::standard_sample(rng);
            let leff_val = leff_mu
                + leff_d2d
                + leff_sigma_sys * s
                + leff_sigma_ran * normal::standard_sample(rng);
            // Clamp to physically-meaningful values: Vth stays positive,
            // Leff stays within lithographic plausibility.
            vth.push(vth_val.max(0.05 * cfg.vth_mu));
            leff.push(leff_val.max(0.5));
        }

        Die {
            nx: self.field.nx(),
            ny: self.field.ny(),
            vth,
            leff,
            vth_mu: cfg.vth_mu,
        }
    }
}

/// One manufactured die: per-grid-point Vth (volts) and normalized Leff.
#[derive(Debug, Clone, PartialEq)]
pub struct Die {
    nx: usize,
    ny: usize,
    vth: Vec<f64>,
    leff: Vec<f64>,
    vth_mu: f64,
}

impl Die {
    /// Grid width in points.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in points.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Vth map (volts), row-major.
    pub fn vth(&self) -> &[f64] {
        &self.vth
    }

    /// Normalized Leff map, row-major.
    pub fn leff(&self) -> &[f64] {
        &self.leff
    }

    /// Nominal (mean) Vth this die was generated around, in volts.
    pub fn vth_nominal(&self) -> f64 {
        self.vth_mu
    }

    /// Extracts the Vth/Leff cells belonging to one core of `floorplan`.
    ///
    /// # Panics
    ///
    /// Panics if the core index does not exist or the core's rectangle
    /// contains no grid points at this die's resolution.
    pub fn core_cells(&self, floorplan: &Floorplan, core: usize) -> CoreCells {
        let rect = floorplan.core_rect(core);
        let pts = floorplan.grid_points_in(&rect, self.nx, self.ny);
        assert!(
            !pts.is_empty(),
            "core {core} contains no grid points at {}x{} resolution",
            self.nx,
            self.ny
        );
        CoreCells {
            vth: pts.iter().map(|&p| self.vth[p]).collect(),
            leff: pts.iter().map(|&p| self.leff[p]).collect(),
        }
    }
}

/// The variation-map cells covered by one core.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreCells {
    /// Vth of each cell (volts).
    pub vth: Vec<f64>,
    /// Normalized Leff of each cell.
    pub leff: Vec<f64>,
}

impl CoreCells {
    /// Mean Vth over the core (volts) — drives the core's leakage.
    pub fn vth_mean(&self) -> f64 {
        vastats::descriptive::mean(&self.vth)
    }

    /// Returns a copy with every cell's Vth shifted by `dv` volts —
    /// the effect of applying a body bias to the whole core (forward
    /// body bias lowers Vth: pass a negative `dv`).
    pub fn with_vth_shift(&self, dv: f64) -> CoreCells {
        CoreCells {
            vth: self.vth.iter().map(|v| v + dv).collect(),
            leff: self.leff.clone(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.vth.len()
    }

    /// Whether the core has no cells (never true for extracted cores).
    pub fn is_empty(&self) -> bool {
        self.vth.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use floorplan::paper_20_core;
    use vastats::Summary;

    fn quick_cfg() -> VariationConfig {
        VariationConfig {
            grid: 24,
            ..VariationConfig::paper_default()
        }
    }

    #[test]
    fn die_statistics_match_config() {
        let cfg = quick_cfg();
        let gen = DieGenerator::new(cfg).unwrap();
        let mut rng = SimRng::seed_from(2);
        // Pool many dies to beat sampling noise.
        let mut all = Vec::new();
        for _ in 0..40 {
            all.extend_from_slice(gen.generate(&mut rng).vth());
        }
        let s = Summary::of(&all);
        assert!((s.mean - 0.250).abs() < 0.005, "mean {}", s.mean);
        let cov = s.std_dev / s.mean;
        assert!((cov - 0.12).abs() < 0.015, "cov {cov}");
    }

    #[test]
    fn leff_sigma_is_half_of_vth() {
        let cfg = quick_cfg();
        let gen = DieGenerator::new(cfg).unwrap();
        let mut rng = SimRng::seed_from(3);
        let mut all = Vec::new();
        for _ in 0..40 {
            all.extend_from_slice(gen.generate(&mut rng).leff());
        }
        let s = Summary::of(&all);
        assert!((s.mean - 1.0).abs() < 0.01);
        let cov = s.std_dev / s.mean;
        assert!((cov - 0.06).abs() < 0.01, "cov {cov}");
    }

    #[test]
    fn zero_variation_produces_uniform_die() {
        let cfg = VariationConfig {
            vth_sigma_over_mu: 0.0,
            ..quick_cfg()
        };
        let gen = DieGenerator::new(cfg).unwrap();
        let die = gen.generate(&mut SimRng::seed_from(4));
        assert!(die.vth().iter().all(|&v| (v - 0.25).abs() < 1e-12));
        assert!(die.leff().iter().all(|&l| (l - 1.0).abs() < 1e-12));
    }

    #[test]
    fn cores_differ_within_die() {
        let gen = DieGenerator::new(quick_cfg()).unwrap();
        let die = gen.generate(&mut SimRng::seed_from(5));
        let fp = paper_20_core();
        let means: Vec<f64> = (0..20).map(|c| die.core_cells(&fp, c).vth_mean()).collect();
        let s = Summary::of(&means);
        assert!(
            s.max - s.min > 0.005,
            "core-to-core Vth spread too small: {s:?}"
        );
    }

    #[test]
    fn systematic_component_is_spatially_smooth() {
        // With purely systematic variation, neighboring cells should be
        // much closer in value than distant cells.
        let cfg = VariationConfig {
            systematic_fraction: 1.0,
            grid: 24,
            ..VariationConfig::paper_default()
        };
        let gen = DieGenerator::new(cfg).unwrap();
        let mut rng = SimRng::seed_from(6);
        let mut near_diff = 0.0;
        let mut far_diff = 0.0;
        let reps = 30;
        for _ in 0..reps {
            let die = gen.generate(&mut rng);
            let v = die.vth();
            near_diff += (v[0] - v[1]).abs();
            far_diff += (v[0] - v[24 * 24 - 1]).abs();
        }
        assert!(
            near_diff * 3.0 < far_diff,
            "near {near_diff} vs far {far_diff}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = DieGenerator::new(quick_cfg()).unwrap();
        let a = gen.generate(&mut SimRng::seed_from(9));
        let b = gen.generate(&mut SimRng::seed_from(9));
        assert_eq!(a, b);
    }

    #[test]
    fn batched_fields_make_deterministic_and_statistically_sound_dies() {
        // Paper-default grid (60) so the batch exercises the circulant
        // sampler's paired draws, through the path fleet construction
        // takes: every field first, then each die from its field.
        let gen = DieGenerator::new(VariationConfig::paper_default()).unwrap();
        let batch = |seed| {
            let mut rng = SimRng::seed_from(seed);
            let fields = gen.field().sample_many(5, &mut rng);
            fields
                .iter()
                .map(|sys| gen.die_from_field(sys, &mut rng))
                .collect::<Vec<Die>>()
        };
        let a = batch(11);
        let b = batch(11);
        assert_eq!(a, b);
        for i in 0..5 {
            for j in i + 1..5 {
                assert_ne!(a[i], a[j], "dies {i} and {j} identical");
            }
        }
        let mut all = Vec::new();
        for die in &a {
            all.extend_from_slice(die.vth());
        }
        let s = Summary::of(&all);
        assert!((s.mean - 0.250).abs() < 0.01, "mean {}", s.mean);
        let cov = s.std_dev / s.mean;
        assert!((cov - 0.12).abs() < 0.03, "cov {cov}");
    }

    #[test]
    fn core_cells_cover_expected_fraction() {
        let gen = DieGenerator::new(quick_cfg()).unwrap();
        let die = gen.generate(&mut SimRng::seed_from(10));
        let fp = paper_20_core();
        let total: usize = (0..20).map(|c| die.core_cells(&fp, c).len()).sum();
        // Core band is 65% of the die.
        let expected = (0.65 * (24 * 24) as f64) as usize;
        assert!(
            (total as isize - expected as isize).unsigned_abs() < 60,
            "total {total} vs expected {expected}"
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad = VariationConfig {
            vth_mu: -1.0,
            ..VariationConfig::paper_default()
        };
        assert!(matches!(
            DieGenerator::new(bad),
            Err(VariusError::BadConfig(_))
        ));
        let bad = VariationConfig {
            grid: 0,
            ..VariationConfig::paper_default()
        };
        assert!(DieGenerator::new(bad).is_err());
    }

    #[test]
    fn d2d_component_shifts_whole_dies() {
        let cfg = VariationConfig {
            grid: 16,
            vth_sigma_over_mu: 0.02, // small WID so D2D dominates
            d2d_sigma_over_mu: 0.10,
            ..VariationConfig::paper_default()
        };
        let gen = DieGenerator::new(cfg).unwrap();
        let mut rng = SimRng::seed_from(21);
        let die_means: Vec<f64> = (0..30)
            .map(|_| Summary::of(gen.generate(&mut rng).vth()).mean)
            .collect();
        let s = Summary::of(&die_means);
        // Die means should spread with sigma ~ 25 mV.
        assert!(s.std_dev > 0.012, "D2D spread too small: {}", s.std_dev);
        assert!((s.mean - 0.25).abs() < 0.02);
    }

    #[test]
    fn d2d_zero_keeps_die_means_tight() {
        let cfg = VariationConfig {
            grid: 16,
            vth_sigma_over_mu: 0.02,
            ..VariationConfig::paper_default()
        };
        let gen = DieGenerator::new(cfg).unwrap();
        let mut rng = SimRng::seed_from(22);
        let die_means: Vec<f64> = (0..30)
            .map(|_| Summary::of(gen.generate(&mut rng).vth()).mean)
            .collect();
        let s = Summary::of(&die_means);
        assert!(
            s.std_dev < 0.004,
            "WID-only die means spread: {}",
            s.std_dev
        );
    }

    #[test]
    fn invalid_d2d_rejected() {
        let bad = VariationConfig {
            d2d_sigma_over_mu: 1.5,
            ..VariationConfig::paper_default()
        };
        assert!(DieGenerator::new(bad).is_err());
    }

    #[test]
    fn vth_leff_systematically_correlated() {
        // With full systematic weight the two parameter maps share their
        // field, so they should correlate strongly.
        let cfg = VariationConfig {
            systematic_fraction: 1.0,
            grid: 24,
            ..VariationConfig::paper_default()
        };
        let gen = DieGenerator::new(cfg).unwrap();
        let die = gen.generate(&mut SimRng::seed_from(11));
        let r = vastats::descriptive::pearson(die.vth(), die.leff());
        assert!(r > 0.99, "correlation {r}");
    }
}
