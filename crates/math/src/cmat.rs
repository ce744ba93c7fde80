//! Dense row-major complex matrices.

use crate::complex::C64;
use crate::cvec::CVec;

/// A dense, row-major complex matrix.
///
/// Sized for the workloads in this workspace: LNN weight matrices
/// (`classes × input_len`, e.g. 10 × 784) and stacked-metasurface
/// propagation kernels (≤ 1024 × 1024). Every operation but
/// [`matvec`](Self::matvec) is a straightforward loop nest. `matvec` is
/// the training forward pass, run once per sample per epoch, so it sweeps
/// rows in register blocks with the same bits as the plain per-row
/// fold.
#[derive(Clone, Debug, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMat {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        CMat { rows, cols, data }
    }

    /// Builds a matrix from row-major data. Panics when sizes disagree.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<C64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_rows: size mismatch");
        CMat { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the row-major buffer.
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutable view of the row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Immutable view of one row.
    pub fn row(&self, r: usize) -> &[C64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of one row.
    pub fn row_mut(&mut self, r: usize) -> &mut [C64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies one row into a [`CVec`].
    pub fn row_vec(&self, r: usize) -> CVec {
        CVec::from_vec(self.row(r).to_vec())
    }

    /// Matrix–vector product `A·x`.
    ///
    /// Row `r` is the left fold `acc.mul_add(a, x_c)` from zero in column
    /// order, bit for bit, whichever row block and ISA path computes it.
    pub fn matvec(&self, x: &CVec) -> CVec {
        let mut out = CVec::zeros(self.rows);
        self.matvec_into(x, &mut out);
        out
    }

    /// [`matvec`](Self::matvec) into `out` (resized to the row count),
    /// reusing its capacity.
    pub fn matvec_into(&self, x: &CVec, out: &mut CVec) {
        assert_eq!(self.cols, x.len(), "matvec: dimension mismatch");
        out.resize(self.rows);
        matvec_isa::run(&self.data, self.cols, x.as_slice(), out.as_mut_slice());
    }

    /// Matrix–matrix product `A·B`.
    pub fn matmul(&self, rhs: &CMat) -> CMat {
        assert_eq!(self.cols, rhs.rows, "matmul: dimension mismatch");
        let mut out = CMat::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == C64::ZERO {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(r);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o = o.mul_add(a, b);
                }
            }
        }
        out
    }

    /// Conjugate transpose `Aᴴ`.
    pub fn hermitian(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Plain transpose `Aᵀ` (no conjugation).
    pub fn transpose(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sq()).sum::<f64>().sqrt()
    }

    /// Largest element magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Scales every element by a real factor in place.
    pub fn scale_mut(&mut self, k: f64) {
        for z in &mut self.data {
            *z = z.scale(k);
        }
    }

    /// Solves the square linear system `A·x = b` by Gaussian elimination
    /// with partial pivoting. Returns `None` when the matrix is singular
    /// to working precision. Intended for the small (≤ tens of unknowns)
    /// systems that arise in subcarrier weight synthesis.
    pub fn solve(&self, b: &CVec) -> Option<CVec> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "right-hand side length mismatch");
        let n = self.rows;
        let mut a = self.clone();
        let mut x = b.clone();
        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            for r in (col + 1)..n {
                if a[(r, col)].abs() > a[(pivot, col)].abs() {
                    pivot = r;
                }
            }
            if a[(pivot, col)].abs() < 1e-14 {
                return None;
            }
            if pivot != col {
                for c in 0..n {
                    let tmp = a[(col, c)];
                    a[(col, c)] = a[(pivot, c)];
                    a[(pivot, c)] = tmp;
                }
                let tmp = x[col];
                x[col] = x[pivot];
                x[pivot] = tmp;
            }
            // Eliminate below.
            let inv = a[(col, col)].recip();
            for r in (col + 1)..n {
                let factor = a[(r, col)] * inv;
                if factor == C64::ZERO {
                    continue;
                }
                for c in col..n {
                    let v = a[(col, c)];
                    a[(r, c)] -= factor * v;
                }
                let xc = x[col];
                x[r] -= factor * xc;
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut v = x[col];
            for c in (col + 1)..n {
                v -= a[(col, c)] * x[c];
            }
            x[col] = v * a[(col, col)].recip();
        }
        Some(x)
    }

    /// `self + k·other`, in place. Used for gradient steps.
    pub fn axpy(&mut self, k: f64, other: &CMat) {
        assert_eq!(self.rows, other.rows, "axpy: shape mismatch");
        assert_eq!(self.cols, other.cols, "axpy: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * k;
        }
    }
}

/// One block of `N` rows of `A·x`: `N` independent complex dot products
/// swept column by column, accumulators held in registers.
///
/// A single row's fold is one dependent chain of two `f64` adds per
/// column, so a row-at-a-time sweep waits on add latency. A block runs
/// `N` such chains side by side. Each row still keeps its own
/// accumulator, starts from zero and folds its columns left to right with
/// [`C64::mul_add`]; no sum is reassociated, so blocking is bitwise
/// invisible.
#[inline(always)]
fn matvec_block<const N: usize>(block: &[C64], cols: usize, x: &[C64]) -> [C64; N] {
    let rows: [&[C64]; N] = std::array::from_fn(|k| &block[k * cols..(k + 1) * cols]);
    let mut acc = [C64::ZERO; N];
    for (c, &b) in x.iter().enumerate() {
        for k in 0..N {
            acc[k] = acc[k].mul_add(rows[k][c], b);
        }
    }
    acc
}

/// `out = A·x` for the row-major `data` of `out.len()` rows by `cols`
/// columns: blocks of 8 rows, then one block each of 4, 2 and 1 for the
/// remainder.
#[inline(always)]
fn matvec_rows(data: &[C64], cols: usize, x: &[C64], out: &mut [C64]) {
    let x = &x[..cols];
    let mut r = 0;
    let rows = out.len();
    while rows - r >= 8 {
        out[r..r + 8].copy_from_slice(&matvec_block::<8>(&data[r * cols..], cols, x));
        r += 8;
    }
    if rows - r >= 4 {
        out[r..r + 4].copy_from_slice(&matvec_block::<4>(&data[r * cols..], cols, x));
        r += 4;
    }
    if rows - r >= 2 {
        out[r..r + 2].copy_from_slice(&matvec_block::<2>(&data[r * cols..], cols, x));
        r += 2;
    }
    if rows - r == 1 {
        out[r] = matvec_block::<1>(&data[r * cols..], cols, x)[0];
    }
}

/// [`matvec_rows`] at the widest ISA this host runs.
///
/// As `metaai::engine` dispatches its row sweeps, the AVX2 path is the
/// *same* safe body recompiled with 256-bit vectors available
/// (`#[target_feature(enable = "avx2")]`, no intrinsics, FMA off), picked
/// by a runtime check. rustc never contracts a `mul` and an `add` into an
/// FMA on its own, so every path computes the identical `f64` sequence.
mod matvec_isa {
    use super::{matvec_rows, C64};

    pub(super) fn run(data: &[C64], cols: usize, x: &[C64], out: &mut [C64]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime feature check above.
            return unsafe { run_avx2(data, cols, x, out) };
        }
        matvec_rows(data, cols, x, out)
    }

    /// [`matvec_rows`] compiled with AVX2 enabled.
    ///
    /// # Safety
    ///
    /// The CPU running it must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_avx2(data: &[C64], cols: usize, x: &[C64], out: &mut [C64]) {
        matvec_rows(data, cols, x, out)
    }
}

impl std::ops::Index<(usize, usize)> for CMat {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn approx(a: C64, b: C64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn identity_matvec_is_noop() {
        let i3 = CMat::identity(3);
        let x = CVec::from_fn(3, |k| C64::new(k as f64, -(k as f64)));
        let y = i3.matvec(&x);
        for k in 0..3 {
            assert!(approx(y[k], x[k]));
        }
    }

    #[test]
    fn matmul_associates_with_matvec() {
        let a = CMat::from_fn(2, 3, |r, c| C64::new((r + c) as f64, r as f64 - c as f64));
        let b = CMat::from_fn(3, 2, |r, c| C64::new(r as f64, c as f64 + 1.0));
        let x = CVec::from_fn(2, |k| C64::new(1.0, k as f64));
        let lhs = a.matmul(&b).matvec(&x);
        let rhs = a.matvec(&b.matvec(&x));
        for k in 0..2 {
            assert!(approx(lhs[k], rhs[k]));
        }
    }

    #[test]
    fn hermitian_involution() {
        let a = CMat::from_fn(3, 2, |r, c| C64::new(r as f64 + 0.5, c as f64 - 0.25));
        let back = a.hermitian().hermitian();
        assert_eq!(a, back);
    }

    #[test]
    fn transpose_swaps_indices() {
        let a = CMat::from_fn(2, 3, |r, c| C64::new(r as f64, c as f64));
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(2, 1)], a[(1, 2)]);
    }

    #[test]
    fn fro_norm_of_identity() {
        assert!((CMat::identity(4).fro_norm() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_adds_scaled() {
        let mut a = CMat::zeros(2, 2);
        let b = CMat::identity(2);
        a.axpy(3.0, &b);
        assert!(approx(a[(0, 0)], C64::real(3.0)));
        assert!(approx(a[(0, 1)], C64::ZERO));
    }

    #[test]
    fn row_vec_extracts_row() {
        let a = CMat::from_fn(2, 3, |r, c| C64::real((r * 10 + c) as f64));
        let row1 = a.row_vec(1);
        assert_eq!(row1.len(), 3);
        assert_eq!(row1[2].re, 12.0);
    }

    /// Every row's left fold from zero in column order: what `matvec`
    /// computed before it swept rows in blocks.
    fn reference_matvec(a: &CMat, x: &CVec) -> Vec<C64> {
        (0..a.rows())
            .map(|r| {
                a.row(r)
                    .iter()
                    .zip(x.iter())
                    .fold(C64::ZERO, |acc, (&p, &q)| acc.mul_add(p, q))
            })
            .collect()
    }

    /// Bits of every part; NaN parts compare as NaN only, since IEEE 754
    /// leaves the payload and sign of a NaN result to the hardware.
    fn words(v: &[C64]) -> Vec<Option<u64>> {
        v.iter()
            .flat_map(|z| [z.re, z.im])
            .map(|p| (!p.is_nan()).then(|| p.to_bits()))
            .collect()
    }

    /// A part drawn from `rng`: mostly Gaussian, and with `specials`, one
    /// time in four a signed zero, a subnormal, an infinity or a NaN.
    fn part(rng: &mut SimRng, specials: bool) -> f64 {
        const SPECIAL: [f64; 8] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -1.5e-310,
        ];
        if specials && rng.below(4) == 0 {
            SPECIAL[rng.below(SPECIAL.len())]
        } else {
            rng.normal(0.0, 1.0)
        }
    }

    /// `(matrix, input)` pairs covering every 8/4/2/1 row remainder and
    /// column counts 0, 1, 3 and 784, with and without special values.
    fn matvec_cases() -> Vec<(CMat, CVec)> {
        let mut rng = SimRng::seed_from_u64(0x6d76);
        let mut cases = Vec::new();
        for specials in [false, true] {
            for rows in 0..=17 {
                for cols in [0, 1, 3, 784] {
                    let mut z = || C64::new(part(&mut rng, specials), part(&mut rng, specials));
                    let a = CMat::from_fn(rows, cols, |_, _| z());
                    let x = CVec::from_fn(cols, |_| z());
                    cases.push((a, x));
                }
            }
        }
        cases
    }

    #[test]
    fn blocked_matvec_matches_the_per_row_fold_bitwise() {
        for (a, x) in matvec_cases() {
            let want = reference_matvec(&a, &x);
            assert_eq!(
                words(a.matvec(&x).as_slice()),
                words(&want),
                "{} × {}",
                a.rows(),
                a.cols()
            );
        }
        // Signed zeros survive: an all-(−0) product row sums to +0 from
        // the +0 seed, exactly as the fold does.
        let a = CMat::from_fn(9, 3, |_, _| C64::new(-0.0, 0.0));
        let x = CVec::from_fn(3, |_| C64::new(0.0, -0.0));
        assert_eq!(
            words(a.matvec(&x).as_slice()),
            words(&reference_matvec(&a, &x))
        );
    }

    /// CI's x86 hosts run only the AVX2 sweep, so drive the portable body
    /// (what non-x86 builds ship) against it directly.
    #[test]
    fn matvec_isa_paths_agree_bitwise() {
        #[cfg(target_arch = "x86_64")]
        {
            if !std::arch::is_x86_feature_detected!("avx2") {
                println!("note: no AVX2 on this host; ISA parity not checked");
                return;
            }
            for (a, x) in matvec_cases() {
                let mut portable = vec![C64::ZERO; a.rows()];
                let mut avx2 = vec![C64::ONE; a.rows()];
                matvec_rows(a.as_slice(), a.cols(), x.as_slice(), &mut portable);
                // SAFETY: AVX2 presence checked above.
                unsafe { matvec_isa::run_avx2(a.as_slice(), a.cols(), x.as_slice(), &mut avx2) };
                assert_eq!(
                    words(&portable),
                    words(&avx2),
                    "{} × {}",
                    a.rows(),
                    a.cols()
                );
                assert_eq!(words(&portable), words(&reference_matvec(&a, &x)));
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        println!("note: not an x86-64 host; only the portable sweep exists");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_rejects_bad_shapes() {
        let _ = CMat::zeros(2, 3).matvec(&CVec::zeros(4));
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = CMat::from_fn(4, 4, |r, c| {
            C64::new((r * 3 + c) as f64 % 5.0 + 1.0, (r as f64 - c as f64) * 0.5)
        });
        let x_true = CVec::from_fn(4, |i| C64::new(i as f64 + 0.5, -(i as f64)));
        let b = a.matvec(&x_true);
        let x = a.solve(&b).expect("non-singular");
        for i in 0..4 {
            assert!(
                approx(x[i], x_true[i]),
                "x[{i}] = {} vs {}",
                x[i],
                x_true[i]
            );
        }
    }

    #[test]
    fn solve_identity_is_passthrough() {
        let b = CVec::from_fn(3, |i| C64::new(i as f64, 1.0));
        let x = CMat::identity(3).solve(&b).expect("identity");
        for i in 0..3 {
            assert!(approx(x[i], b[i]));
        }
    }

    #[test]
    fn solve_detects_singularity() {
        let mut a = CMat::zeros(2, 2);
        a[(0, 0)] = C64::ONE;
        a[(1, 0)] = C64::ONE; // rank 1
        assert!(a.solve(&CVec::zeros(2)).is_none());
    }
}
