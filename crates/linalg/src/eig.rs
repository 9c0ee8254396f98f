//! Symmetric eigendecomposition by Householder tridiagonalization and
//! implicit-shift QL (the EISPACK `tred2`/`tql2` pair).
//!
//! PCA and the Gram-matrix SVD route both reduce to the eigendecomposition
//! of a small symmetric `d × d` (or `n × n`) Gram matrix. Tridiagonal QL
//! solves it in `O(d³)` — a lower-order term beside the `O(nd²)` Gram
//! product that forms it, which is the cost the paper charges FSS and
//! disPCA at the data source.
//!
//! The orthogonal factor is held transposed throughout (`W = Vᵀ`, one
//! eigenvector per row), so every Householder update and every QL
//! rotation walks contiguous rows of the row-major [`Matrix`].

use crate::{LinalgError, Matrix, Result};

/// Eigendecomposition of a symmetric matrix: `A = V · diag(λ) · Vᵀ`.
///
/// Eigenvalues are sorted in descending order; `vectors.col(i)` is the unit
/// eigenvector for `values[i]`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as the *columns* of this matrix.
    pub vectors: Matrix,
}

/// Maximum number of implicit QL steps spent on any one eigenvalue before
/// declaring failure (the EISPACK budget; symmetric input needs 1–3).
const MAX_QL_ITERATIONS: usize = 30;

/// Computes the eigendecomposition of a symmetric matrix by Householder
/// tridiagonalization followed by implicit-shift QL, `O(n³)` in total.
///
/// The input is symmetrized as `(A + Aᵀ)/2` first, so tiny asymmetries from
/// accumulated floating-point error in Gram products are harmless.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `a` is not square.
/// * [`LinalgError::EmptyMatrix`] if `a` is empty.
/// * [`LinalgError::NonFinite`] if `a` holds a NaN or an infinity (or its
///   symmetrization overflows).
/// * [`LinalgError::ConvergenceFailure`] if one eigenvalue takes more than
///   30 QL steps (does not happen for finite symmetric input).
///
/// # Example
///
/// ```
/// use ekm_linalg::{Matrix, eig};
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
/// let e = eig::symmetric_eigen(&a).unwrap();
/// assert!((e.values[0] - 3.0).abs() < 1e-10);
/// assert!((e.values[1] - 1.0).abs() < 1e-10);
/// ```
pub fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen> {
    if a.is_empty() {
        return Err(LinalgError::EmptyMatrix {
            op: "symmetric_eigen",
        });
    }
    if a.rows() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "symmetric_eigen",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    let n = a.rows();
    // Symmetrize defensively. `W` starts as A and, by symmetry, equals its
    // own transpose, so it is already in the transposed layout.
    let mut w = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    if !w.as_slice().iter().all(|v| v.is_finite()) {
        return Err(LinalgError::NonFinite {
            op: "symmetric_eigen",
        });
    }
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tridiagonalize(&mut w, &mut d, &mut e);
    tridiagonal_ql(&mut d, &mut e, &mut w)?;

    // Sort eigenpairs descending. Row `old` of `W` is the eigenvector
    // for `d[old]`.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_row) in order.iter().enumerate() {
        for (i, &x) in w.row(old_row).iter().enumerate() {
            vectors[(i, new_col)] = x;
        }
    }
    Ok(SymmetricEigen { values, vectors })
}

/// Householder reduction of the symmetric matrix held in `w` to
/// tridiagonal form (EISPACK `tred2`).
///
/// On return `d` holds the diagonal, `e[1..]` the subdiagonal (`e[0] = 0`),
/// and `w` the transposed orthogonal factor `Qᵀ` with `A = Q·T·Qᵀ`. The
/// routine reads only the upper triangle of `w`, which for a symmetric
/// input is the lower triangle of `A` that `tred2` works on.
fn tridiagonalize(w: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    let ws = w.as_mut_slice();
    // Row `j` of `W` is column `j` of EISPACK's `V`: `V[k][j] = ws[j*n + k]`.
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = ws[j * n + n - 1];
    }
    for i in (1..n).rev() {
        let scale: f64 = d[..i].iter().map(|v| v.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = ws[j * n + i - 1];
                ws[j * n + i] = 0.0;
                ws[i * n + j] = 0.0;
            }
        } else {
            // Generate the Householder vector, scaled against under/overflow.
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // Apply the similarity transformation to the remaining columns.
            for j in 0..i {
                let f = d[j];
                ws[i * n + j] = f;
                let row = &ws[j * n..j * n + i];
                let mut g = e[j] + row[j] * f;
                for k in j + 1..i {
                    g += row[k] * d[k];
                    e[k] += row[k] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej /= h;
                f += *ej * dj;
            }
            let hh = f / (h + h);
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej -= hh * dj;
            }
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = &mut ws[j * n..j * n + i];
                for k in j..i {
                    row[k] -= f * e[k] + g * d[k];
                }
                d[j] = row[i - 1];
                ws[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the transformations.
    for i in 0..n.saturating_sub(1) {
        ws[i * n + n - 1] = ws[i * n + i];
        ws[i * n + i] = 1.0;
        let h = d[i + 1];
        let (head, tail) = ws.split_at_mut((i + 1) * n);
        let pivot = &mut tail[..i + 1];
        if h != 0.0 {
            for (dk, &p) in d[..=i].iter_mut().zip(pivot.iter()) {
                *dk = p / h;
            }
            for j in 0..=i {
                let row = &mut head[j * n..j * n + i + 1];
                let g: f64 = pivot.iter().zip(row.iter()).map(|(p, r)| p * r).sum();
                for (r, &dk) in row.iter_mut().zip(&d[..=i]) {
                    *r -= g * dk;
                }
            }
        }
        pivot.fill(0.0);
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = ws[j * n + n - 1];
        ws[j * n + n - 1] = 0.0;
    }
    ws[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal `(d, e)` from [`tridiagonalize`]
/// (EISPACK `tql2`), accumulating every rotation into two contiguous rows
/// of `w`.
///
/// On success `d` holds the (unsorted) eigenvalues and row `i` of `w` the
/// eigenvector for `d[i]`. A NaN off-diagonal never counts as negligible,
/// so it exhausts the iteration budget instead of looping forever.
fn tridiagonal_ql(d: &mut [f64], e: &mut [f64], w: &mut Matrix) -> Result<()> {
    let n = d.len();
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut f = 0.0;
    let mut tst1 = 0.0f64;
    let eps = f64::EPSILON;
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        // Find the first negligible subdiagonal element at or after l
        // (e[n-1] = 0 always is).
        let mut m = l;
        while m + 1 < n && !negligible(e[m], eps * tst1) {
            m += 1;
        }
        if m > l {
            let mut iterations = 0;
            loop {
                // Compute the implicit shift.
                let mut g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for di in &mut d[l + 2..] {
                    *di -= h;
                }
                f += h;
                // Implicit QL transformation.
                p = d[m];
                let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0, 0.0);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    // Rotate eigenvector rows i and i+1.
                    let (head, tail) = w.as_mut_slice().split_at_mut((i + 1) * n);
                    for (x, y) in head[i * n..].iter_mut().zip(&mut tail[..n]) {
                        let yv = *y;
                        *y = s * *x + c * yv;
                        *x = c * *x - s * yv;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if negligible(e[l], eps * tst1) {
                    break;
                }
                iterations += 1;
                if iterations == MAX_QL_ITERATIONS {
                    return Err(LinalgError::ConvergenceFailure {
                        op: "symmetric_eigen (tridiagonal QL)",
                        iterations,
                    });
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

/// Whether a subdiagonal element is negligible against `tol`; NaN never is.
fn negligible(x: f64, tol: f64) -> bool {
    x.abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::random::gaussian_matrix;

    #[test]
    fn diagonal_matrix_eigen() {
        let a = Matrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, -1.0, 0.0],
            vec![0.0, 0.0, 7.0],
        ]);
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] - 7.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        assert!((e.values[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_from_random_symmetric() {
        let g = gaussian_matrix(31, 8, 8, 1.0);
        let a = ops::gram(&g); // symmetric PSD
        let e = symmetric_eigen(&a).unwrap();
        // A ≈ V diag(λ) Vᵀ
        let mut lam = Matrix::zeros(8, 8);
        for i in 0..8 {
            lam[(i, i)] = e.values[i];
        }
        let vl = ops::matmul(&e.vectors, &lam).unwrap();
        let back = ops::matmul_transb(&vl, &e.vectors).unwrap();
        assert!(back.approx_eq(&a, 1e-8), "reconstruction failed");
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let g = gaussian_matrix(5, 10, 10, 1.0);
        let a = ops::gram(&g);
        let e = symmetric_eigen(&a).unwrap();
        let vtv = ops::gram(&e.vectors);
        assert!(vtv.approx_eq(&Matrix::identity(10), 1e-9));
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let g = gaussian_matrix(77, 12, 12, 1.0);
        let a = ops::gram(&g);
        let e = symmetric_eigen(&a).unwrap();
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn psd_gram_has_nonnegative_eigenvalues() {
        let g = gaussian_matrix(13, 20, 6, 1.0);
        let a = ops::gram(&g);
        let e = symmetric_eigen(&a).unwrap();
        for &l in &e.values {
            assert!(l > -1e-9, "PSD eigenvalue {l} negative");
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let g = gaussian_matrix(99, 9, 9, 1.0);
        let a = ops::gram(&g);
        let e = symmetric_eigen(&a).unwrap();
        let trace: f64 = (0..9).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-8 * trace.abs().max(1.0));
    }

    #[test]
    fn known_2x2() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        // Top eigenvector ∝ (1, 1)/√2.
        let v0 = e.vectors.col(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v0[0] - v0[1]).abs() < 1e-10);
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(symmetric_eigen(&Matrix::zeros(2, 3)).is_err());
        assert!(symmetric_eigen(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[vec![5.0]]);
        let e = symmetric_eigen(&a).unwrap();
        assert_eq!(e.values, vec![5.0]);
        assert_eq!(e.vectors[(0, 0)].abs(), 1.0);
    }

    #[test]
    fn handles_repeated_eigenvalues() {
        // 2·I has eigenvalue 2 with multiplicity 3.
        let a = Matrix::identity(3).scaled(2.0);
        let e = symmetric_eigen(&a).unwrap();
        for &l in &e.values {
            assert!((l - 2.0).abs() < 1e-12);
        }
        let vtv = ops::gram(&e.vectors);
        assert!(vtv.approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn rejects_nan_and_infinite_input() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = Matrix::identity(4);
            a[(1, 2)] = bad;
            a[(2, 1)] = bad;
            assert_eq!(
                symmetric_eigen(&a).unwrap_err(),
                LinalgError::NonFinite {
                    op: "symmetric_eigen"
                },
                "{bad}"
            );
            let mut diag = Matrix::identity(3);
            diag[(2, 2)] = bad;
            assert!(matches!(
                symmetric_eigen(&diag),
                Err(LinalgError::NonFinite { .. })
            ));
        }
    }

    #[test]
    fn rejects_symmetrization_overflow() {
        // Each entry is finite but (A + Aᵀ) overflows.
        let a = Matrix::from_rows(&[vec![0.0, f64::MAX], vec![f64::MAX, 0.0]]);
        assert!(matches!(
            symmetric_eigen(&a),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn ql_iteration_cap_ends_in_convergence_failure() {
        // A NaN off-diagonal handed straight to the QL stage (bypassing the
        // input check) must exhaust the budget, not loop forever.
        let n = 4;
        let mut d = vec![1.0, 2.0, 3.0, 4.0];
        let mut e = vec![0.0, f64::NAN, 0.5, 0.5];
        let mut w = Matrix::identity(n);
        assert_eq!(
            tridiagonal_ql(&mut d, &mut e, &mut w).unwrap_err(),
            LinalgError::ConvergenceFailure {
                op: "symmetric_eigen (tridiagonal QL)",
                iterations: MAX_QL_ITERATIONS,
            }
        );
    }

    #[test]
    fn tridiagonal_input_is_solved_by_ql_alone() {
        // The 1-2-1 stencil has eigenvalues 2 − 2cos(kπ/(n+1)).
        let n = 6;
        let a = Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
            0 => 2.0,
            1 => -1.0,
            _ => 0.0,
        });
        let e = symmetric_eigen(&a).unwrap();
        for (idx, &l) in e.values.iter().enumerate() {
            let k = (n - idx) as f64;
            let exact = 2.0 - 2.0 * (k * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((l - exact).abs() < 1e-13, "λ_{idx} = {l}, want {exact}");
        }
    }
}
