//! Thin and randomized truncated singular value decompositions.
//!
//! FSS and disPCA need the top-`t` right singular vectors of a dataset
//! matrix `A ∈ R^{n×d}` (rows are points). Three routes are provided:
//!
//! * [`thin_svd`] — exact via the eigendecomposition of the smaller Gram
//!   matrix (`AᵀA` or `AAᵀ`): the `O(nd·min(n,d))` Gram product, exactly
//!   the complexity the paper charges FSS/BKLW with (Theorems 4.3 / 5.3),
//!   plus an `O(min(n,d)³)` tridiagonal-QL eigensolve ([`eig`]);
//! * [`right_svd`] — the same exact `(σ, V)` without `U`, for the PCA and
//!   disPCA callers that never read it: on tall input it skips the
//!   `O(nd²)` product `A·V` that `U` would cost;
//! * [`truncated_svd`] — randomized subspace iteration computing only the
//!   top-`t` triple, used where speed matters more than the last digits.

use crate::random::gaussian_matrix;
use crate::{eig, ops, qr, LinalgError, Matrix, Result};

/// A (possibly truncated) singular value decomposition `A ≈ U · diag(σ) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors as columns (`n × t`).
    pub u: Matrix,
    /// Singular values, descending (`t` of them).
    pub singular_values: Vec<f64>,
    /// Right singular vectors as columns (`d × t`).
    pub v: Matrix,
}

impl Svd {
    /// Number of singular triples retained.
    pub fn rank(&self) -> usize {
        self.singular_values.len()
    }

    /// Reconstructs `U · diag(σ) · Vᵀ`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying products.
    pub fn reconstruct(&self) -> Result<Matrix> {
        let us = scale_cols(&self.u, &self.singular_values);
        ops::matmul_transb(&us, &self.v)
    }

    /// Returns the truncation keeping only the first `t` triples.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RankOutOfRange`] if `t > self.rank()`.
    pub fn truncate(&self, t: usize) -> Result<Svd> {
        if t > self.rank() {
            return Err(LinalgError::RankOutOfRange {
                requested: t,
                available: self.rank(),
            });
        }
        Ok(Svd {
            u: self.u.first_cols(t)?,
            singular_values: self.singular_values[..t].to_vec(),
            v: self.v.first_cols(t)?,
        })
    }
}

/// Multiplies column `j` of `m` by `s[j]`.
fn scale_cols(m: &Matrix, s: &[f64]) -> Matrix {
    let mut out = m.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        for (v, &sj) in row.iter_mut().zip(s) {
            *v *= sj;
        }
    }
    out
}

/// Relative threshold under which a singular value is treated as zero.
const SV_RELATIVE_TOL: f64 = 1e-12;

/// Computes the thin SVD of `a` via the eigendecomposition of the smaller
/// Gram matrix.
///
/// Returns `min(n, d)` triples (numerically zero singular values keep their
/// slots with zeroed `U`/`V` columns replaced by an orthonormal completion
/// where possible).
///
/// # Errors
///
/// * [`LinalgError::EmptyMatrix`] for an empty input.
/// * Propagates eigensolver failures ([`LinalgError::NonFinite`] input,
///   QL convergence failure).
pub fn thin_svd(a: &Matrix) -> Result<Svd> {
    if a.is_empty() {
        return Err(LinalgError::EmptyMatrix { op: "thin_svd" });
    }
    let (n, d) = a.shape();
    if d <= n {
        // Eigen of AᵀA (d×d): A = U Σ Vᵀ with AᵀA = V Σ² Vᵀ.
        let (sigmas, v) = gram_eigen(&ops::gram(a))?; // V is d × d
        let u = left_vectors_from_right(a, &v, &sigmas)?;
        Ok(Svd {
            u,
            singular_values: sigmas,
            v,
        })
    } else {
        // Eigen of AAᵀ (n×n): U from eigenvectors, V = Aᵀ U Σ⁻¹.
        let (sigmas, u) = gram_eigen(&ops::outer_gram(a))?; // U is n × n
        let v = left_vectors_from_right(&a.transpose(), &u, &sigmas)?;
        Ok(Svd {
            u,
            singular_values: sigmas,
            v,
        })
    }
}

/// Computes the top-`t` singular values and right singular vectors
/// `(σ, V)` of `a` (`V` is `d × t`), with `t` clamped to `min(n, d)`.
///
/// Bit-identical to `thin_svd(a)?.truncate(t)` restricted to `(σ, V)`,
/// but on tall input (`d ≤ n`) it never forms `U = A·V·Σ⁻¹`: the
/// `O(nd²)` product and the `n × d` allocation that PCA and disPCA would
/// only discard. Wide input needs `U` to reach `V`, and lifts only the
/// `t` kept columns of it.
///
/// # Errors
///
/// Same as [`thin_svd`].
///
/// # Example
///
/// ```
/// use ekm_linalg::{Matrix, svd};
/// let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0], vec![0.0, 0.0]]);
/// let (sigmas, v) = svd::right_svd(&a, 1).unwrap();
/// assert!((sigmas[0] - 4.0).abs() < 1e-12);
/// assert_eq!(v.shape(), (2, 1));
/// ```
pub fn right_svd(a: &Matrix, t: usize) -> Result<(Vec<f64>, Matrix)> {
    if a.is_empty() {
        return Err(LinalgError::EmptyMatrix { op: "right_svd" });
    }
    let (n, d) = a.shape();
    let t = t.min(n).min(d);
    if d <= n {
        let (sigmas, v) = gram_eigen(&ops::gram(a))?;
        Ok((sigmas[..t].to_vec(), v.first_cols(t)?))
    } else {
        // Each column of `Aᵀ·U·Σ⁻¹` depends only on its own column of
        // `U`, so lifting just the kept `t` matches `thin_svd` bit for bit.
        let (mut sigmas, u) = gram_eigen(&ops::outer_gram(a))?;
        let v = left_vectors_from_right(&a.transpose(), &u.first_cols(t)?, &sigmas)?;
        sigmas.truncate(t);
        Ok((sigmas, v))
    }
}

/// Singular values `√max(λ, 0)` and eigenvectors of a Gram matrix.
fn gram_eigen(gram: &Matrix) -> Result<(Vec<f64>, Matrix)> {
    let e = eig::symmetric_eigen(gram)?;
    let sigmas = e.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
    Ok((sigmas, e.vectors))
}

/// Given `A` (n×d), right singular vectors `V` (d×t) and singular values,
/// computes `U = A·V·Σ⁻¹`, zeroing columns whose σ is numerically zero.
fn left_vectors_from_right(a: &Matrix, v: &Matrix, sigmas: &[f64]) -> Result<Matrix> {
    let av = ops::matmul(a, v)?;
    let smax = sigmas.first().copied().unwrap_or(0.0);
    let tol = smax * SV_RELATIVE_TOL;
    let inv: Vec<f64> = sigmas
        .iter()
        .map(|&s| if s > tol { 1.0 / s } else { 0.0 })
        .collect();
    Ok(scale_cols(&av, &inv))
}

/// Options for [`truncated_svd`].
#[derive(Debug, Clone)]
pub struct TruncatedSvdOptions {
    /// Oversampling columns added to the sketch (default 8).
    pub oversample: usize,
    /// Power/subspace iterations (default 2); more improves accuracy when
    /// the spectrum decays slowly.
    pub power_iterations: usize,
    /// Seed for the random test matrix.
    pub seed: u64,
}

impl Default for TruncatedSvdOptions {
    fn default() -> Self {
        TruncatedSvdOptions {
            oversample: 8,
            power_iterations: 2,
            seed: 0x5eed_5eed,
        }
    }
}

/// Computes an approximate top-`t` SVD of `a` by randomized subspace
/// iteration (Halko–Martinsson–Tropp style).
///
/// # Errors
///
/// * [`LinalgError::EmptyMatrix`] for an empty input.
/// * [`LinalgError::RankOutOfRange`] if `t == 0` or `t > min(n, d)`.
///
/// # Example
///
/// ```
/// use ekm_linalg::{Matrix, svd};
/// let a = Matrix::from_fn(40, 10, |i, j| ((i + 1) * (j + 1)) as f64); // rank 1
/// let s = svd::truncated_svd(&a, 1, &svd::TruncatedSvdOptions::default()).unwrap();
/// let back = s.reconstruct().unwrap();
/// assert!(back.approx_eq(&a, 1e-6 * a.frobenius_norm()));
/// ```
pub fn truncated_svd(a: &Matrix, t: usize, opts: &TruncatedSvdOptions) -> Result<Svd> {
    if a.is_empty() {
        return Err(LinalgError::EmptyMatrix {
            op: "truncated_svd",
        });
    }
    let (n, d) = a.shape();
    let max_rank = n.min(d);
    if t == 0 || t > max_rank {
        return Err(LinalgError::RankOutOfRange {
            requested: t,
            available: max_rank,
        });
    }
    let sketch = (t + opts.oversample).min(max_rank);

    // Range finder: Y = A·G, orthonormalize, then power iterations.
    let g = gaussian_matrix(opts.seed, d, sketch, 1.0);
    let mut q = qr::orthonormalize(&ops::matmul(a, &g)?)?;
    for _ in 0..opts.power_iterations {
        let z = qr::orthonormalize(&ops::matmul_transa(a, &q)?)?; // d × s
        q = qr::orthonormalize(&ops::matmul(a, &z)?)?; // n × s
    }

    // Project: B = Qᵀ A  (s × d) and take its thin SVD.
    let b = ops::matmul_transa(&q, a)?;
    let sb = thin_svd(&b)?;
    let u = ops::matmul(&q, &sb.u)?;
    let full = Svd {
        u,
        singular_values: sb.singular_values,
        v: sb.v,
    };
    full.truncate(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::gaussian_matrix;

    fn low_rank(seed: u64, n: usize, d: usize, r: usize) -> Matrix {
        let u = gaussian_matrix(seed, n, r, 1.0);
        let v = gaussian_matrix(seed + 1, r, d, 1.0);
        ops::matmul(&u, &v).unwrap()
    }

    #[test]
    fn thin_svd_reconstructs_tall() {
        let a = gaussian_matrix(41, 12, 5, 1.0);
        let s = thin_svd(&a).unwrap();
        assert_eq!(s.rank(), 5);
        assert!(s.reconstruct().unwrap().approx_eq(&a, 1e-8));
    }

    #[test]
    fn thin_svd_reconstructs_wide() {
        let a = gaussian_matrix(42, 5, 12, 1.0);
        let s = thin_svd(&a).unwrap();
        assert_eq!(s.rank(), 5);
        assert!(s.reconstruct().unwrap().approx_eq(&a, 1e-8));
    }

    #[test]
    fn singular_values_descending_nonnegative() {
        let a = gaussian_matrix(43, 15, 8, 1.0);
        let s = thin_svd(&a).unwrap();
        for w in s.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(s.singular_values.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn frobenius_identity() {
        // ‖A‖_F² = Σ σ_i².
        let a = gaussian_matrix(44, 10, 7, 1.0);
        let s = thin_svd(&a).unwrap();
        let sum_sq: f64 = s.singular_values.iter().map(|v| v * v).sum();
        assert!((sum_sq - a.frobenius_norm_sq()).abs() < 1e-8 * a.frobenius_norm_sq());
    }

    #[test]
    fn diag_matrix_known_svd() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0], vec![0.0, 0.0]]);
        let s = thin_svd(&a).unwrap();
        assert!((s.singular_values[0] - 4.0).abs() < 1e-10);
        assert!((s.singular_values[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn u_and_v_orthonormal_on_full_rank() {
        let a = gaussian_matrix(45, 20, 6, 1.0);
        let s = thin_svd(&a).unwrap();
        assert!(ops::gram(&s.u).approx_eq(&Matrix::identity(6), 1e-8));
        assert!(ops::gram(&s.v).approx_eq(&Matrix::identity(6), 1e-8));
    }

    #[test]
    fn rank_deficient_svd() {
        let a = low_rank(46, 20, 10, 3);
        let s = thin_svd(&a).unwrap();
        for &sv in &s.singular_values[3..] {
            assert!(sv < 1e-6 * s.singular_values[0], "trailing σ = {sv}");
        }
        assert!(s
            .reconstruct()
            .unwrap()
            .approx_eq(&a, 1e-7 * a.frobenius_norm()));
    }

    #[test]
    fn truncate_keeps_top() {
        let a = gaussian_matrix(47, 9, 9, 1.0);
        let s = thin_svd(&a).unwrap();
        let t = s.truncate(3).unwrap();
        assert_eq!(t.rank(), 3);
        assert_eq!(t.singular_values, s.singular_values[..3].to_vec());
        assert!(s.truncate(10).is_err());
    }

    #[test]
    fn truncated_svd_matches_thin_on_low_rank() {
        let a = low_rank(48, 50, 30, 4);
        let tr = truncated_svd(&a, 4, &TruncatedSvdOptions::default()).unwrap();
        let back = tr.reconstruct().unwrap();
        assert!(
            back.approx_eq(&a, 1e-6 * a.frobenius_norm().max(1.0)),
            "randomized reconstruction off"
        );
    }

    #[test]
    fn truncated_svd_top_value_close() {
        let a = gaussian_matrix(49, 60, 40, 1.0);
        let exact = thin_svd(&a).unwrap();
        let approx = truncated_svd(&a, 5, &TruncatedSvdOptions::default()).unwrap();
        for i in 0..5 {
            let rel = (approx.singular_values[i] - exact.singular_values[i]).abs()
                / exact.singular_values[i];
            assert!(rel < 0.05, "σ_{i} rel err {rel}");
        }
    }

    #[test]
    fn truncated_svd_bad_rank_errors() {
        let a = gaussian_matrix(50, 5, 5, 1.0);
        assert!(truncated_svd(&a, 0, &TruncatedSvdOptions::default()).is_err());
        assert!(truncated_svd(&a, 6, &TruncatedSvdOptions::default()).is_err());
    }

    #[test]
    fn empty_inputs_error() {
        assert!(thin_svd(&Matrix::zeros(0, 3)).is_err());
        assert!(truncated_svd(&Matrix::zeros(0, 3), 1, &TruncatedSvdOptions::default()).is_err());
    }

    #[test]
    fn svd_of_zero_matrix() {
        let a = Matrix::zeros(4, 3);
        let s = thin_svd(&a).unwrap();
        assert!(s.singular_values.iter().all(|&v| v == 0.0));
        assert!(s.reconstruct().unwrap().approx_eq(&a, 1e-12));
    }

    #[test]
    fn right_svd_bitwise_matches_thin_svd() {
        // Tall, square and wide; rank-deficient so some σ are zero.
        let shapes = [(40, 7, 0), (9, 9, 0), (6, 23, 0), (30, 12, 3), (5, 18, 2)];
        for (n, d, rank) in shapes {
            let a = if rank == 0 {
                gaussian_matrix(52 + n as u64, n, d, 1.0)
            } else {
                low_rank(53 + d as u64, n, d, rank)
            };
            let full = thin_svd(&a).unwrap();
            for t in [0, 1, n.min(d) / 2, n.min(d), n.min(d) + 5] {
                let (sigmas, v) = right_svd(&a, t).unwrap();
                let want = full.truncate(t.min(n.min(d))).unwrap();
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&sigmas), bits(&want.singular_values), "{n}x{d} t={t}");
                assert_eq!(v.shape(), want.v.shape(), "{n}x{d} t={t}");
                assert_eq!(bits(v.as_slice()), bits(want.v.as_slice()), "{n}x{d} t={t}");
            }
        }
        assert!(right_svd(&Matrix::zeros(0, 3), 1).is_err());
    }

    #[test]
    fn svd_propagates_non_finite_input_as_typed_error() {
        let mut a = gaussian_matrix(54, 8, 3, 1.0);
        a[(2, 1)] = f64::NAN;
        assert!(matches!(thin_svd(&a), Err(LinalgError::NonFinite { .. })));
        assert!(matches!(
            right_svd(&a, 2),
            Err(LinalgError::NonFinite { .. })
        ));
        a[(2, 1)] = f64::INFINITY;
        assert!(matches!(
            right_svd(&a.transpose(), 2),
            Err(LinalgError::NonFinite { .. })
        ));
    }
}
