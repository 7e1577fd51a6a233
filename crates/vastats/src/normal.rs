//! Normal distribution: sampling and special functions.
//!
//! VARIUS models both the systematic and the random component of every
//! process parameter as normal with mean 0, so this module is the
//! workhorse behind every variation map. Sampling uses the Marsaglia
//! polar method; `erf`/`cdf` use the Abramowitz & Stegun 7.1.26 rational
//! approximation (|error| < 1.5e-7), and the quantile function uses the
//! Acklam inverse-CDF approximation refined with one Halley step.

use crate::rng::SimRng;

/// A normal (Gaussian) distribution with mean `mu` and standard
/// deviation `sigma`.
///
/// # Example
///
/// ```
/// use vastats::{Normal, SimRng};
/// let n = Normal::new(250e-3, 30e-3); // Vth in volts
/// let mut rng = SimRng::seed_from(1);
/// let v = n.sample(&mut rng);
/// assert!(v > 0.0 && v < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Standard normal, `N(0, 1)`.
    pub fn standard() -> Self {
        Self {
            mu: 0.0,
            sigma: 1.0,
        }
    }

    /// Creates `N(mu, sigma²)`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite(),
            "parameters must be finite"
        );
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Self { mu, sigma }
    }

    /// Mean of the distribution.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Standard deviation of the distribution.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one sample using the Marsaglia polar method.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.mu + self.sigma * standard_sample(rng)
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        if self.sigma == 0.0 {
            return if x == self.mu { f64::INFINITY } else { 0.0 };
        }
        let z = (x - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sigma == 0.0 {
            return if x < self.mu { 0.0 } else { 1.0 };
        }
        let z = (x - self.mu) / (self.sigma * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }

    /// Quantile (inverse CDF) at probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile needs p in (0,1), got {p}");
        self.mu + self.sigma * standard_quantile(p)
    }
}

/// One draw from `N(0,1)` via the Marsaglia polar method.
pub fn standard_sample(rng: &mut SimRng) -> f64 {
    loop {
        let u = 2.0 * rng.next_f64() - 1.0;
        let v = 2.0 * rng.next_f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Two independent draws from `N(0,1)` from one polar acceptance.
///
/// Each accepted `(u, v)` point yields *two* independent normals;
/// [`standard_sample`] discards the second for a simpler single-value
/// API. Bulk consumers that need normals in pairs anyway (the
/// circulant sampler fills a complex noise vector) get both for one
/// `ln`/`sqrt` and half the uniform draws.
pub fn standard_pair(rng: &mut SimRng) -> (f64, f64) {
    loop {
        let u = 2.0 * rng.next_f64() - 1.0;
        let v = 2.0 * rng.next_f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            let f = (-2.0 * s.ln() / s).sqrt();
            return (u * f, v * f);
        }
    }
}

/// Error function, Abramowitz & Stegun approximation 7.1.26.
///
/// Maximum absolute error 1.5e-7 — ample for histogram binning and
/// model calibration.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard-normal quantile via Acklam's approximation plus one
/// Halley refinement step.
pub fn standard_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0);
    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement against the accurate CDF.
    let std = Normal::standard();
    let e = std.cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_moments_match() {
        let n = Normal::new(3.0, 2.0);
        let mut rng = SimRng::seed_from(5);
        let count = 50_000;
        let xs: Vec<f64> = (0..count).map(|_| n.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / count as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn standard_pair_components_are_standard_and_uncorrelated() {
        let mut rng = SimRng::seed_from(11);
        let count = 50_000;
        let (mut sa, mut sb, mut saa, mut sbb, mut sab) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for _ in 0..count {
            let (a, b) = standard_pair(&mut rng);
            sa += a;
            sb += b;
            saa += a * a;
            sbb += b * b;
            sab += a * b;
        }
        let n = count as f64;
        assert!((sa / n).abs() < 0.02, "mean a {}", sa / n);
        assert!((sb / n).abs() < 0.02, "mean b {}", sb / n);
        assert!((saa / n - 1.0).abs() < 0.05, "var a {}", saa / n);
        assert!((sbb / n - 1.0).abs() < 0.05, "var b {}", sbb / n);
        assert!((sab / n).abs() < 0.02, "cov ab {}", sab / n);
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
    }

    #[test]
    fn cdf_symmetry_and_known_points() {
        let n = Normal::standard();
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((n.cdf(1.96) - 0.9750021).abs() < 1e-5);
        assert!((n.cdf(-1.96) - 0.0249979).abs() < 1e-5);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let n = Normal::new(-1.0, 0.7);
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = n.quantile(p);
            assert!((n.cdf(x) - p).abs() < 1e-7, "p={p} x={x} cdf={}", n.cdf(x));
        }
    }

    #[test]
    fn pdf_integrates_to_one() {
        let n = Normal::new(0.0, 1.5);
        // Trapezoid rule over ±8 sigma.
        let (lo, hi, steps) = (-12.0, 12.0, 4000);
        let h = (hi - lo) / steps as f64;
        let mut area = 0.0;
        for i in 0..steps {
            let x0 = lo + i as f64 * h;
            area += 0.5 * (n.pdf(x0) + n.pdf(x0 + h)) * h;
        }
        assert!((area - 1.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_sigma_zero() {
        let n = Normal::new(2.0, 0.0);
        let mut rng = SimRng::seed_from(0);
        assert_eq!(n.sample(&mut rng), 2.0);
        assert_eq!(n.cdf(1.9), 0.0);
        assert_eq!(n.cdf(2.1), 1.0);
    }

    #[test]
    #[should_panic(expected = "sigma must be non-negative")]
    fn negative_sigma_panics() {
        Normal::new(0.0, -1.0);
    }

    #[test]
    fn standard_quantile_median() {
        assert!(standard_quantile(0.5).abs() < 1e-6);
    }
}
