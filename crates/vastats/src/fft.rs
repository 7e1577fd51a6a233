//! Dependency-free fast Fourier transforms (radix-2, power-of-two sizes).
//!
//! The circulant-embedding field sampler in [`crate::field`] needs exactly
//! one piece of spectral machinery: an in-place 2-D complex FFT over a
//! power-of-two torus. A plan ([`Fft2`]) precomputes the twiddle tables
//! for each axis once per embedding and is reused for every draw, which
//! is what makes per-die sampling `O(n log n)` instead of the `O(n²)`
//! triangular solve (and `O(n³)` setup) of the Cholesky path.
//!
//! Complex data is carried as two parallel `f64` slices (split
//! real/imaginary layout): the butterflies then compile to straight-line
//! array arithmetic the autovectorizer can chew on, and callers never
//! build an array-of-structs they would immediately tear apart.

/// Twiddle table for one transform length: `e^{-2πik/n}` for
/// `k < n/2`, shared by every stage of the decimation-in-time FFT.
#[derive(Debug, Clone)]
struct Twiddles {
    n: usize,
    /// `cos(-2πk/n)` for `k < n/2`.
    re: Vec<f64>,
    /// `sin(-2πk/n)` for `k < n/2`.
    im: Vec<f64>,
}

impl Twiddles {
    fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        let half = (n / 2).max(1);
        let step = -2.0 * std::f64::consts::PI / n as f64;
        let (mut re, mut im) = (Vec::with_capacity(half), Vec::with_capacity(half));
        for k in 0..half {
            let a = step * k as f64;
            re.push(a.cos());
            im.push(a.sin());
        }
        Self { n, re, im }
    }

    /// Calls `swap(i, j)` for every pair `i < j` the bit-reversal
    /// permutation exchanges.
    fn for_each_swap(&self, mut swap: impl FnMut(usize, usize)) {
        let n = self.n;
        if n < 2 {
            return;
        }
        let shift = usize::BITS - n.trailing_zeros();
        for i in 0..n {
            let j = i.reverse_bits() >> shift;
            if j > i {
                swap(i, j);
            }
        }
    }

    /// Calls `butterfly(i, j, wr, wi)` for every butterfly of the
    /// iterative decimation-in-time FFT, stage by stage. The twiddle
    /// for butterfly `k` at block length `len` is table entry
    /// `k * (n / len)` — every stage strides the one shared table.
    fn for_each_butterfly(&self, mut butterfly: impl FnMut(usize, usize, f64, f64)) {
        let n = self.n;
        let mut len = 2;
        while len <= n {
            let stride = n / len;
            let half = len / 2;
            let mut start = 0;
            while start < n {
                for k in 0..half {
                    let (wr, wi) = (self.re[k * stride], self.im[k * stride]);
                    butterfly(start + k, start + k + half, wr, wi);
                }
                start += len;
            }
            len <<= 1;
        }
    }

    /// In-place forward FFT of `re`/`im` (length `self.n`).
    fn forward(&self, re: &mut [f64], im: &mut [f64]) {
        debug_assert_eq!(re.len(), self.n);
        debug_assert_eq!(im.len(), self.n);
        self.for_each_swap(|i, j| {
            re.swap(i, j);
            im.swap(i, j);
        });
        self.for_each_butterfly(|i, j, wr, wi| {
            let tr = re[j] * wr - im[j] * wi;
            let ti = re[j] * wi + im[j] * wr;
            re[j] = re[i] - tr;
            im[j] = im[i] - ti;
            re[i] += tr;
            im[i] += ti;
        });
    }

    /// In-place forward FFT along the slow axis of a row-major grid of
    /// `self.n` rows, each `width` wide: [`Twiddles::forward`]'s swaps
    /// and butterflies in the same order, each applied to a whole pair
    /// of rows. Every element sees the operations of a 1-D transform of
    /// its column, in the same order, so the result is bit for bit the
    /// column-by-column one (Rust never fuses them into FMAs).
    fn forward_rows(&self, re: &mut [f64], im: &mut [f64], width: usize) {
        debug_assert_eq!(re.len(), self.n * width);
        debug_assert_eq!(im.len(), self.n * width);
        self.for_each_swap(|i, j| {
            let (a, b) = row_pair(re, i, j, width);
            a.swap_with_slice(b);
            let (a, b) = row_pair(im, i, j, width);
            a.swap_with_slice(b);
        });
        self.for_each_butterfly(|i, j, wr, wi| {
            let (re_i, re_j) = row_pair(re, i, j, width);
            let (im_i, im_j) = row_pair(im, i, j, width);
            let rows = re_i.iter_mut().zip(im_i.iter_mut());
            for ((ri, ii), (rj, ij)) in rows.zip(re_j.iter_mut().zip(im_j.iter_mut())) {
                let tr = *rj * wr - *ij * wi;
                let ti = *rj * wi + *ij * wr;
                *rj = *ri - tr;
                *ij = *ii - ti;
                *ri += tr;
                *ii += ti;
            }
        });
    }
}

/// Rows `i < j` of a row-major grid `width` wide, borrowed together.
fn row_pair(buf: &mut [f64], i: usize, j: usize, width: usize) -> (&mut [f64], &mut [f64]) {
    let (lo, hi) = buf.split_at_mut(j * width);
    (&mut lo[i * width..(i + 1) * width], &mut hi[..width])
}

/// A 2-D FFT plan over an `nx × ny` grid (both powers of two), stored
/// row-major with `x` fastest. Rows are transformed one at a time in
/// place; the column pass runs its butterflies over whole pairs of
/// rows, so it too streams contiguous memory and never copies a column
/// out.
#[derive(Debug, Clone)]
pub struct Fft2 {
    nx: usize,
    ny: usize,
    tw_x: Twiddles,
    tw_y: Twiddles,
}

impl Fft2 {
    /// Builds a plan for an `nx × ny` transform.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or not a power of two.
    pub fn new(nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "FFT dimensions must be positive");
        Self {
            nx,
            ny,
            tw_x: Twiddles::new(nx),
            tw_y: Twiddles::new(ny),
        }
    }

    /// Grid width (fast axis).
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height (slow axis).
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// True when the plan covers no points (never after construction;
    /// present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// In-place forward 2-D FFT of row-major `re`/`im`.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not `nx * ny` long.
    pub fn forward(&self, re: &mut [f64], im: &mut [f64]) {
        let (nx, ny) = (self.nx, self.ny);
        assert_eq!(re.len(), nx * ny, "buffer length mismatch");
        assert_eq!(im.len(), nx * ny, "buffer length mismatch");
        for row in 0..ny {
            let s = row * nx;
            self.tw_x.forward(&mut re[s..s + nx], &mut im[s..s + nx]);
        }
        self.tw_y.forward_rows(re, im, nx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(n²) DFT for cross-checking.
    fn dft(re: &[f64], im: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = re.len();
        let mut out_re = vec![0.0; n];
        let mut out_im = vec![0.0; n];
        for (k, (or, oi)) in out_re.iter_mut().zip(out_im.iter_mut()).enumerate() {
            for j in 0..n {
                let a = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                let (c, s) = (a.cos(), a.sin());
                *or += re[j] * c - im[j] * s;
                *oi += re[j] * s + im[j] * c;
            }
        }
        (out_re, out_im)
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let re: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 0.3).collect();
            let im: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos() - 0.1).collect();
            let (want_re, want_im) = dft(&re, &im);
            let (mut got_re, mut got_im) = (re, im);
            Twiddles::new(n).forward(&mut got_re, &mut got_im);
            for i in 0..n {
                assert!(
                    (got_re[i] - want_re[i]).abs() < 1e-9 && (got_im[i] - want_im[i]).abs() < 1e-9,
                    "n={n} bin {i}: ({}, {}) vs ({}, {})",
                    got_re[i],
                    got_im[i],
                    want_re[i],
                    want_im[i]
                );
            }
        }
    }

    #[test]
    fn two_dimensional_matches_row_column_dft() {
        let (nx, ny) = (8usize, 4usize);
        let re: Vec<f64> = (0..nx * ny).map(|i| ((i * 37 % 11) as f64) - 5.0).collect();
        let im = vec![0.0; nx * ny];

        // Reference: DFT every row, then every column.
        let mut want_re = re.clone();
        let mut want_im = im.clone();
        for row in 0..ny {
            let s = row * nx;
            let (r, i) = dft(&want_re[s..s + nx], &want_im[s..s + nx]);
            want_re[s..s + nx].copy_from_slice(&r);
            want_im[s..s + nx].copy_from_slice(&i);
        }
        for col in 0..nx {
            let cr: Vec<f64> = (0..ny).map(|r| want_re[r * nx + col]).collect();
            let ci: Vec<f64> = (0..ny).map(|r| want_im[r * nx + col]).collect();
            let (r, i) = dft(&cr, &ci);
            for row in 0..ny {
                want_re[row * nx + col] = r[row];
                want_im[row * nx + col] = i[row];
            }
        }

        let plan = Fft2::new(nx, ny);
        let (mut got_re, mut got_im) = (re, im);
        plan.forward(&mut got_re, &mut got_im);
        for i in 0..nx * ny {
            assert!(
                (got_re[i] - want_re[i]).abs() < 1e-9 && (got_im[i] - want_im[i]).abs() < 1e-9,
                "bin {i}"
            );
        }
    }

    /// The column pass as it was before the row-wise one: gather each
    /// column into scratch, run the contiguous 1-D kernel, scatter it
    /// back. The oracle for [`Fft2::forward`].
    fn forward_gather_scatter(plan: &Fft2, re: &mut [f64], im: &mut [f64]) {
        let (nx, ny) = (plan.nx, plan.ny);
        for row in 0..ny {
            let s = row * nx;
            plan.tw_x.forward(&mut re[s..s + nx], &mut im[s..s + nx]);
        }
        let mut col_re = vec![0.0; ny];
        let mut col_im = vec![0.0; ny];
        for col in 0..nx {
            for row in 0..ny {
                col_re[row] = re[row * nx + col];
                col_im[row] = im[row * nx + col];
            }
            plan.tw_y.forward(&mut col_re, &mut col_im);
            for row in 0..ny {
                re[row * nx + col] = col_re[row];
                im[row * nx + col] = col_im[row];
            }
        }
    }

    #[test]
    fn row_wise_column_pass_matches_gather_scatter_bit_for_bit() {
        let mut rng = crate::SimRng::seed_from(17);
        for (nx, ny) in [
            (1, 8),
            (8, 1),
            (2, 2),
            (8, 4),
            (4, 8),
            (64, 128),
            (128, 128),
        ] {
            // Normals with signed zeros mixed in: a zero's sign survives
            // some butterflies, so it must come out the same way too.
            let mut draw = |_| match rng.index(8) {
                0 => 0.0,
                1 => -0.0,
                _ => crate::normal::standard_sample(&mut rng),
            };
            let re: Vec<f64> = (0..nx * ny).map(&mut draw).collect();
            let im: Vec<f64> = (0..nx * ny).map(&mut draw).collect();
            let plan = Fft2::new(nx, ny);
            let (mut got_re, mut got_im) = (re.clone(), im.clone());
            plan.forward(&mut got_re, &mut got_im);
            let (mut want_re, mut want_im) = (re, im);
            forward_gather_scatter(&plan, &mut want_re, &mut want_im);
            for i in 0..nx * ny {
                assert_eq!(
                    (got_re[i].to_bits(), got_im[i].to_bits()),
                    (want_re[i].to_bits(), want_im[i].to_bits()),
                    "{nx}x{ny} bin {i}"
                );
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 32usize;
        let re: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let im: Vec<f64> = (0..n).map(|i| ((i * 5 % 3) as f64) * 0.5).collect();
        let time: f64 = re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum();
        let (mut fr, mut fi) = (re, im);
        Twiddles::new(n).forward(&mut fr, &mut fi);
        let freq: f64 = fr.iter().zip(&fi).map(|(r, i)| r * r + i * i).sum();
        assert!(
            (freq / n as f64 - time).abs() < 1e-9 * time.abs().max(1.0),
            "Parseval: {} vs {}",
            freq / n as f64,
            time
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Fft2::new(12, 8);
    }
}
