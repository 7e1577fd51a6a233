//! Small statistics the benchmark reports with: order statistics, the
//! tail-percentile rule, and the output digest.

/// Percentiles the tail helper may report, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples a tail percentile must have beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `pct` percentile among `n > 0` samples.
/// The product is formed before dividing (and nudged down by far less
/// than one rank) so `99 % of 1000` is rank 990, not 991.
fn rank(n: usize, pct: f64) -> usize {
    (((pct * n as f64) / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`
/// samples.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, pct)
}

/// Nearest-rank percentile of an ascending-sorted sample.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct) - 1]
}

/// A tail statistic: which percentile, and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (one of [`TAIL_LADDER`]).
    pub pct: f64,
    /// Its value.
    pub value: f64,
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with its value; `None` when
/// the sample is too small for even the median to qualify.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let pct = TAIL_LADDER
        .into_iter()
        .find(|&p| samples_beyond(sorted.len(), p) >= TAIL_MIN_BEYOND)?;
    Some(Tail {
        pct,
        value: percentile(sorted, pct),
    })
}

/// The `pct` percentile of `sorted`, or `None` when fewer than
/// [`TAIL_MIN_BEYOND`] samples lie beyond it.
pub fn checked_percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    (samples_beyond(sorted.len(), pct) >= TAIL_MIN_BEYOND).then(|| percentile(sorted, pct))
}

/// Sorts a sample ascending (NaN last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of a non-empty sample (mean of the middle pair when even).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// 64-bit FNV-1a over the bit patterns of simulated outputs: two runs
/// digest equal exactly when every hashed value is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a float's bit pattern in.
    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Folds a count in.
    pub fn count(&mut self, n: usize) {
        self.word(n as u64);
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}
