//! The normal equations of ARIMA's lagged-value regressions, accumulated
//! straight from the series and solved in place.
//!
//! Every regression the crate runs has one design: row `t` is
//! `[1, w[t-1], …, w[t-p], e[t-1], …, e[t-q]]` with target `w[t]`, for a
//! differenced series `w` and, in Hannan–Rissanen's second stage, the
//! long-AR residuals `e` (the long AR itself is the `q = 0` case). The
//! systems are small — a dozen unknowns at most — but `auto_arima`
//! solves seventeen of them per call, once per invocation of an
//! out-of-bounds app, so no design matrix is built. Each design column
//! is a slice of the series; `Ols::fit` sums each entry of `XᵀX` and
//! `Xᵀy` as a dot product of two slices, four entries at a time, in
//! ascending `t` from the dense product's start value and with its zero
//! skip (`crate::reference`), so the sums are that product's bit for
//! bit. Elimination works on a copy in buffers `Ols` keeps between
//! calls: a solve allocates nothing once they fit the largest system.

/// The buffers of one least-squares solve, reused across solves.
#[derive(Debug, Default)]
pub(crate) struct Ols {
    /// `XᵀX`, row-major, `k × k` for `k = 1 + p + q`.
    gram: Vec<f64>,
    /// `Xᵀy`.
    rhs: Vec<f64>,
    /// The design's intercept column.
    ones: Vec<f64>,
    /// The copy of `gram` elimination overwrites.
    lu: Vec<f64>,
    /// The coefficients `[c, φ₁ … φ_p, θ₁ … θ_q]` after a successful
    /// [`Ols::fit`].
    pub(crate) beta: Vec<f64>,
}

impl Ols {
    /// Least squares of `w[t]` on `[1, w[t-1..=t-p], e[t-1..=t-q]]` over
    /// `t` in `start..w.len()`, into [`Ols::beta`]; false when even the
    /// ridged system is singular. `start` is at least `p` and `q`.
    // sitw-lint: hot-path
    pub(crate) fn fit(&mut self, w: &[f64], e: &[f64], p: usize, q: usize, start: usize) -> bool {
        let (k, n) = (1 + p + q, w.len());
        self.ones.resize(n - start, 1.0);
        let ones = &self.ones[..n - start];
        // Column `c` of the design over its rows, as a slice of the series.
        let col = |c: usize| match c {
            0 => ones,
            c if c <= p => &w[start - c..n - c],
            c => &e[start - (c - p)..n - (c - p)],
        };
        // Entry (r, c) of the dense `XᵀX` skipped the terms whose x[t][r]
        // is 0. While every factor is finite such a term is ±0, which
        // leaves a sum started at +0 (never −0) unchanged: then there is
        // nothing to skip, and the upper triangle's mirror is exact.
        let finite = w.iter().chain(e).all(|v| v.is_finite());
        // Columns c..c+4, the last repeated past the end.
        let four = |c: usize| [0, 1, 2, 3].map(|i| col((c + i).min(k - 1)));
        self.gram.resize(k * k, 0.0);
        for r in 0..k {
            for c in (if finite { r } else { 0 }..k).step_by(4) {
                let out = &mut self.gram[r * k + c..(r + 1) * k];
                dot4([col(r); 4], four(c), 0.0, !finite, out);
            }
        }
        if finite {
            for r in 1..k {
                for c in 0..r {
                    self.gram[r * k + c] = self.gram[c * k + r];
                }
            }
        }
        // `Xᵀy` as `Sum for f64` formed it: from −0, no term skipped.
        self.rhs.resize(k, 0.0);
        for r in (0..k).step_by(4) {
            dot4(four(r), [&w[start..]; 4], -0.0, false, &mut self.rhs[r..]);
        }
        if self.solve_ridged(0.0) {
            return true;
        }
        // Ridge fallback: XᵀX + εI, ε scaled to the matrix magnitude.
        let trace: f64 = (0..k).map(|i| self.gram[i * k + i]).sum();
        self.solve_ridged((trace / k as f64).max(1.0) * 1e-8)
    }

    /// Solves `(XᵀX + eps·I) · beta = Xᵀy` on a fresh copy of `XᵀX`. A
    /// zero `eps` changes no bit: a diagonal sum of squares is never −0.
    // sitw-lint: hot-path
    fn solve_ridged(&mut self, eps: f64) -> bool {
        let k = self.rhs.len();
        self.gram[..].clone_into(&mut self.lu);
        self.rhs[..].clone_into(&mut self.beta);
        for i in 0..k {
            self.lu[i * k + i] += eps;
        }
        solve(&mut self.lu, &mut self.beta)
    }
}

/// Four sums `Σ_t a_i[t] · b_i[t]`, each from `init` in ascending `t`,
/// leaving out a term whose `a_i[t]` is 0 when `skip_zero`, into as many
/// of `out`'s first four places as it has: four independent chains of
/// adds, held in registers.
// sitw-lint: hot-path
fn dot4(a: [&[f64]; 4], b: [&[f64]; 4], init: f64, skip_zero: bool, out: &mut [f64]) {
    let n = a[0].len();
    let (a, b) = (a.map(|s| &s[..n]), b.map(|s| &s[..n]));
    let mut acc = [init; 4];
    for t in 0..n {
        for i in 0..4 {
            if !(skip_zero && a[i][t] == 0.0) {
                acc[i] += a[i][t] * b[i][t];
            }
        }
    }
    out.iter_mut().zip(acc).for_each(|(o, s)| *o = s);
}

/// Solves the square system `a · x = b` in place by Gaussian elimination
/// with partial pivoting: `a` is the `n × n` matrix, row-major, and is
/// left eliminated; `x` holds `b` on entry and the solution on a `true`
/// return. `false` when the matrix is (numerically) singular.
// sitw-lint: hot-path
pub fn solve(a: &mut [f64], x: &mut [f64]) -> bool {
    let n = x.len();
    for col in 0..n {
        // Partial pivot: largest |value| in this column at or below row.
        let mut pivot_row = col;
        let mut pivot_val = a[col * n + col].abs();
        for r in col + 1..n {
            let v = a[r * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-12 {
            return false;
        }
        if pivot_row != col {
            for c in 0..n {
                a.swap(col * n + c, pivot_row * n + c);
            }
            x.swap(col, pivot_row);
        }
        let pivot = a[col * n + col];
        for r in col + 1..n {
            let factor = a[r * n + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                a[r * n + c] -= factor * a[col * n + c];
            }
            x[r] -= factor * x[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = x[col];
        for c in col + 1..n {
            acc -= a[col * n + c] * x[c];
        }
        x[col] = acc / a[col * n + col];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, Matrix};

    fn solved(mut a: Vec<f64>, b: &[f64]) -> Option<Vec<f64>> {
        let mut x = b.to_vec();
        solve(&mut a, &mut x).then_some(x)
    }

    #[test]
    fn identity_solve() {
        let a = vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let x = solved(a, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3.
        let x = solved(vec![2.0, 1.0, 1.0, 3.0], &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let x = solved(vec![0.0, 1.0, 1.0, 0.0], &[2.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_detects_singular() {
        assert!(solved(vec![1.0, 2.0, 2.0, 4.0], &[1.0, 2.0]).is_none());
    }

    /// The dense product the kernel's sums replaced, still the
    /// reference's: `matmul` and `transpose`.
    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = a.transpose();
        assert_eq!(b.rows(), 3);
        let p = a.matmul(&b);
        // First row of A dot itself = 1+4+9 = 14.
        assert_eq!(p.get(0, 0), 14.0);
        assert_eq!(p.get(0, 1), 32.0);
        assert_eq!(p.get(1, 1), 77.0);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    #[test]
    fn matvec_works() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn least_squares_exact_line() {
        // w = 2 + 3t regressed on [1, w[t-1]]: w[t] = 3 + 1·w[t-1].
        let w: Vec<f64> = (0..10).map(|t| 2.0 + 3.0 * t as f64).collect();
        let mut ols = Ols::default();
        assert!(ols.fit(&w, &[], 1, 0, 1));
        assert!((ols.beta[0] - 3.0).abs() < 1e-9);
        assert!((ols.beta[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn least_squares_collinear_falls_back_to_ridge() {
        // A constant series: the lag column is twice the intercept's, the
        // normal equations are singular, the ridge resolves them.
        let w = [2.0; 5];
        let mut ols = Ols::default();
        assert!(ols.fit(&w, &[], 1, 0, 1));
        // The ridge splits the coefficient; the fit must reproduce y.
        assert!((ols.beta[0] + 2.0 * ols.beta[1] - 2.0).abs() < 1e-6);
    }

    /// `XᵀX` and `Xᵀy` are the dense product's to the bit, NaN for NaN:
    /// on a row holding 0 beside ∞, where the two triangles of the dense
    /// `XᵀX` differ, and on a target of −0s, where only `Sum`'s −0 start
    /// keeps `Xᵀy` at −0.
    #[test]
    fn normal_equations_equal_the_dense_product() {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan();
        for (w, p) in [
            (vec![1.0, 0.0, f64::INFINITY, 2.0, 3.0, 1.0], 2),
            (vec![-0.0; 6], 1),
            (vec![3.0, -1.5, 0.25, 7.0, -2.0, 0.5, 4.0], 3),
        ] {
            let mut ols = Ols::default();
            ols.fit(&w, &[], p, 0, p);
            let k = p + 1;
            let mut design = Vec::new();
            for t in p..w.len() {
                design.push(1.0);
                design.extend((1..=p).map(|i| w[t - i]));
            }
            let x = Matrix::from_rows(w.len() - p, k, design);
            let (xtx, xty) = (x.transpose().matmul(&x), x.transpose().matvec(&w[p..]));
            for (r, &want) in xty.iter().enumerate() {
                assert!(same(ols.rhs[r], want), "Xᵀy[{r}] of {w:?}");
                for c in 0..k {
                    let got = ols.gram[r * k + c];
                    assert!(same(got, xtx.get(r, c)), "XᵀX[{r}][{c}] of {w:?}: {got}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn solve_rejects_rectangular() {
        // The dense reference checked its shape; the kernel's systems
        // are square by construction.
        let a = Matrix::zeros(2, 3);
        let _ = reference::solve(&a, &[0.0, 0.0]);
    }
}
