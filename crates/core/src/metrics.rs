//! Evaluation metrics (paper §6.6).
//!
//! * **Throughput** — millions of instructions per second (MIPS),
//!   summed over all threads.
//! * **Weighted throughput** — each thread's throughput normalized to
//!   that application's throughput at reference conditions (4 GHz,
//!   nominal core), then summed. This gives equal weight to all
//!   applications regardless of intrinsic IPC (Snavely & Tullsen).
//! * **ED²** — energy × delay². For a fixed amount of work `W`
//!   executed at average power `P` and throughput `TP`:
//!   `delay = W/TP`, `energy = P·W/TP`, so
//!   `ED² = P·W³/TP³ ∝ P/TP³`. All of the paper's figures report ED²
//!   *relative to a baseline*, so the constant `W³` cancels and the
//!   index `P/TP³` is sufficient.

/// Relative ED² index: `avg_power / throughput³`.
///
/// Only ratios of this index between runs of the *same workload* are
/// meaningful (the fixed-work constant cancels).
///
/// # Panics
///
/// Panics if `mips` is not positive or `avg_power_w` is negative.
///
/// # Example
///
/// ```
/// use vasched::metrics::ed2_index;
/// // Same power, double throughput => 8x lower ED².
/// let slow = ed2_index(50.0, 1000.0);
/// let fast = ed2_index(50.0, 2000.0);
/// assert!((slow / fast - 8.0).abs() < 1e-9);
/// ```
pub fn ed2_index(avg_power_w: f64, mips: f64) -> f64 {
    assert!(mips > 0.0, "throughput must be positive");
    assert!(avg_power_w >= 0.0, "power must be non-negative");
    avg_power_w / (mips * mips * mips)
}

/// Weighted throughput: `Σᵢ tpᵢ / tp_refᵢ`.
///
/// `per_thread_mips[i]` is thread i's achieved throughput and
/// `reference_mips[i]` the same application's throughput at reference
/// conditions. The result is a dimensionless sum of normalized
/// throughputs (maximum = thread count when every thread runs at
/// reference speed).
///
/// # Panics
///
/// Panics if the slices differ in length, are empty, or any reference
/// is not positive.
pub fn weighted_mips(per_thread_mips: &[f64], reference_mips: &[f64]) -> f64 {
    assert_eq!(
        per_thread_mips.len(),
        reference_mips.len(),
        "thread/reference length mismatch"
    );
    assert!(!per_thread_mips.is_empty(), "no threads to weight");
    per_thread_mips
        .iter()
        .zip(reference_mips)
        .map(|(&tp, &r)| {
            assert!(r > 0.0, "reference throughput must be positive");
            tp / r
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ed2_rewards_throughput_cubically() {
        let a = ed2_index(100.0, 1000.0);
        let b = ed2_index(100.0, 2000.0);
        assert!((a / b - 8.0).abs() < 1e-9);
    }

    #[test]
    fn ed2_scales_linearly_with_power() {
        let a = ed2_index(50.0, 1000.0);
        let b = ed2_index(100.0, 1000.0);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_mips_equal_weighting() {
        // A slow app running at its full reference speed counts the same
        // as a fast app at its full reference speed.
        let w = weighted_mips(&[100.0, 4000.0], &[100.0, 4000.0]);
        assert!((w - 2.0).abs() < 1e-12);
        // Slowing the fast app to half costs 0.5; slowing the slow app
        // to half costs the same 0.5.
        let w1 = weighted_mips(&[50.0, 4000.0], &[100.0, 4000.0]);
        let w2 = weighted_mips(&[100.0, 2000.0], &[100.0, 4000.0]);
        assert!((w1 - w2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn ed2_rejects_zero_throughput() {
        ed2_index(10.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn ed2_rejects_negative_power() {
        ed2_index(-1.0, 1000.0);
    }

    #[test]
    fn ed2_accepts_zero_power() {
        assert_eq!(ed2_index(0.0, 1000.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "no threads")]
    fn weighted_mips_rejects_empty_slices() {
        weighted_mips(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weighted_mips_rejects_mismatched_lengths() {
        weighted_mips(&[100.0, 200.0], &[100.0]);
    }

    #[test]
    #[should_panic(expected = "reference throughput must be positive")]
    fn weighted_mips_rejects_zero_reference() {
        weighted_mips(&[100.0, 200.0], &[100.0, 0.0]);
    }

    #[test]
    fn weighted_mips_allows_a_stalled_thread() {
        // Zero *achieved* throughput is legal (a fully stalled thread);
        // only the reference must be positive.
        let w = weighted_mips(&[0.0, 4000.0], &[100.0, 4000.0]);
        assert!((w - 1.0).abs() < 1e-12);
    }
}
