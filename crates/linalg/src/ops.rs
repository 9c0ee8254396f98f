//! Matrix products and related kernels.
//!
//! [`matmul`] and [`matmul_transb`] share one packed-panel,
//! register-blocked GEMM kernel whose results are bitwise those of the
//! plain `i-k-j` loop; the `Aᵀ·B` products ([`matmul_transa`], [`gram`])
//! accumulate rank-1 row updates through a fixed-chunk fold. Every kernel
//! switches to scoped-thread parallelism above a size threshold (see
//! [`crate::parallel`]) and is bitwise invariant across worker counts.

use crate::parallel;
use crate::{LinalgError, Matrix, Result};

/// Minimum number of multiply-adds before a kernel bothers spawning threads.
const PAR_FLOPS_THRESHOLD: usize = 1 << 22;

/// Fixed row-chunk granularity of the [`matmul_transa`] accumulation
/// fold. A constant (rather than `n / workers`) keeps the fold graph —
/// and therefore the floating-point rounding — independent of the
/// worker count, the same discipline as the sharded Lloyd update.
const ACCUM_CHUNK: usize = 1024;

/// Rows of `A` per register block of the [`gemm`] microkernel.
const MR: usize = 4;

/// Columns of `B` per packed panel, and per register block: an
/// `MR × NR` block of running sums fills the vector registers.
const NR: usize = 16;

/// Depth of one `k`-block: a `KC × NR` panel slice (32 KiB) stays in L1
/// while a run of register blocks streams past it.
const KC: usize = 256;

/// Rows of `A` per row block: their `KC`-wide slice (256 KiB) stays in
/// L2 while every panel of `B` streams past it (without it, each panel
/// rereads `A` from memory).
const MC: usize = 128;

/// Computes the product `A · B`.
///
/// Runs the packed-panel [`gemm`] kernel with `B` packed as stored.
/// Each output element accumulates `a[i][kk]·b[kk][j]` from `+0.0` in
/// ascending `kk`, one multiply and one add per term, so the result is
/// bitwise that of the plain `i-k-j` triple loop that skips zero `a`
/// entries, and bitwise invariant across worker counts.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] unless `A.cols() == B.rows()`.
///
/// # Example
///
/// ```
/// use ekm_linalg::{Matrix, ops};
/// let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
/// let b = Matrix::from_rows(&[vec![3.0], vec![4.0]]);
/// assert_eq!(ops::matmul(&a, &b).unwrap()[(0, 0)], 11.0);
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, bs) = (b.cols(), b.as_slice());
    Ok(gemm(a, m, |kk, j| bs[kk * m + j]))
}

/// Computes `A · Bᵀ` without materializing the transpose.
///
/// Runs the same [`gemm`] kernel as [`matmul`]; only the packing differs
/// (the panels are cut from the rows of `B`). The result is therefore
/// **bitwise equal** to `matmul(a, &b.transpose())`, and bitwise
/// invariant across worker counts. This is the product behind every
/// center lift (`X = X'·Vᵀ`, the `lift_out_of_basis` re-expansions, the
/// pseudo-inverse lifts).
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] unless `A.cols() == B.cols()`.
pub fn matmul_transb(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_transb",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (k, bs) = (b.cols(), b.as_slice());
    Ok(gemm(a, b.rows(), |kk, j| bs[j * k + kk]))
}

/// The one GEMM kernel: `C = A · B` for the `a.cols() × m` matrix `B`
/// whose element `(kk, j)` is `b_at(kk, j)`.
///
/// `B` is packed once into `NR`-column panels (each `k × NR`,
/// contiguous, the last one zero-padded). Rows of `C` are split across
/// threads; each computes `MR × NR` register blocks one `KC`-deep
/// `k`-block at a time, storing the running sums back to `C` between
/// `k`-blocks. Padding rows and columns are computed and thrown away.
///
/// Every element therefore sums its products from `+0.0` in ascending
/// `kk`. Such a sum never becomes `−0.0`, so adding the `±0` product of
/// a zero `a` entry and a finite `b` entry leaves it unchanged: skipping
/// zero `a` entries only matters when `B` holds `±∞` or NaN (`0·∞` is
/// NaN). The packed `B` is scanned once, and the skipping instantiation
/// of the microkernel runs only when it is not finite — exact semantics
/// for every input.
fn gemm(a: &Matrix, m: usize, b_at: impl Fn(usize, usize) -> f64) -> Matrix {
    let (n, k) = a.shape();
    let mut c = Matrix::zeros(n, m);
    if k == 0 {
        return c; // empty sums
    }
    let mut panels = vec![0.0f64; m.div_ceil(NR) * k * NR];
    for (p, panel) in panels.chunks_exact_mut(k * NR).enumerate() {
        let width = NR.min(m - p * NR);
        for (kk, prow) in panel.chunks_exact_mut(NR).enumerate() {
            for (jj, pv) in prow[..width].iter_mut().enumerate() {
                *pv = b_at(kk, p * NR + jj);
            }
        }
    }
    let skip_zeros = !panels.iter().all(|v| v.is_finite());
    parallel::for_each_row_chunk(
        c.as_mut_slice(),
        m,
        n * k * m >= PAR_FLOPS_THRESHOLD,
        |row_start, rows_chunk| {
            if skip_zeros {
                gemm_rows::<true>(a, &panels, m, row_start, rows_chunk);
            } else {
                gemm_rows::<false>(a, &panels, m, row_start, rows_chunk);
            }
        },
    );
    c
}

/// Computes the rows `row_start..` of `C` held in `out` (width `m`)
/// against the packed `panels` of `B`; see [`gemm`]. A register block
/// that runs past the last row of `A` reads that row again.
fn gemm_rows<const SKIP_ZEROS: bool>(
    a: &Matrix,
    panels: &[f64],
    m: usize,
    row_start: usize,
    out: &mut [f64],
) {
    let (n, k) = a.shape();
    let rows = out.len() / m;
    for ic in (0..rows).step_by(MC) {
        let ic_end = (ic + MC).min(rows);
        for kb in (0..k).step_by(KC) {
            let kc = KC.min(k - kb);
            for (p, panel) in panels.chunks_exact(k * NR).enumerate() {
                let bslice = &panel[kb * NR..(kb + kc) * NR];
                let (j0, width) = (p * NR, NR.min(m - p * NR));
                for i0 in (ic..ic_end).step_by(MR) {
                    let live = MR.min(ic_end - i0);
                    let arows: [&[f64]; MR] = std::array::from_fn(|r| {
                        &a.row((row_start + i0 + r).min(n - 1))[kb..kb + kc]
                    });
                    let mut acc = [[0.0f64; NR]; MR];
                    for (r, accr) in acc[..live].iter_mut().enumerate() {
                        accr[..width].copy_from_slice(&out[(i0 + r) * m + j0..][..width]);
                    }
                    let acc = microkernel::<SKIP_ZEROS>(arows, bslice, acc);
                    for (r, accr) in acc[..live].iter().enumerate() {
                        out[(i0 + r) * m + j0..][..width].copy_from_slice(&accr[..width]);
                    }
                }
            }
        }
    }
}

/// Adds `Σ_kk arows[r][kk] · bslice[kk][j]` to `acc[r][j]`, in
/// ascending `kk`, one multiply and one add per term; `SKIP_ZEROS` leaves
/// out the terms whose `a` entry is zero.
///
/// The `MR` rows are spelled out rather than looped over, so only the
/// `NR`-wide row updates need unrolling; the SLP vectorizer (run by
/// rustc at `opt-level = 3`) then keeps the whole block in vector
/// registers.
#[inline(always)]
fn microkernel<const SKIP_ZEROS: bool>(
    arows: [&[f64]; MR],
    bslice: &[f64],
    mut acc: [[f64; NR]; MR],
) -> [[f64; NR]; MR] {
    let [c0, c1, c2, c3] = &mut acc;
    let [r0, r1, r2, r3] = arows;
    // One known length for every row lets the compiler drop the
    // per-`kk` bounds checks.
    let kc = bslice.len() / NR;
    let (r0, r1, r2, r3) = (&r0[..kc], &r1[..kc], &r2[..kc], &r3[..kc]);
    for (kk, brow) in bslice.chunks_exact(NR).enumerate() {
        let bv: [f64; NR] = brow.try_into().expect("NR-wide row");
        axpy::<SKIP_ZEROS>(c0, r0[kk], &bv);
        axpy::<SKIP_ZEROS>(c1, r1[kk], &bv);
        axpy::<SKIP_ZEROS>(c2, r2[kk], &bv);
        axpy::<SKIP_ZEROS>(c3, r3[kk], &bv);
    }
    acc
}

/// `c[j] += av · bv[j]` for one row of the register block.
#[inline(always)]
fn axpy<const SKIP_ZEROS: bool>(c: &mut [f64; NR], av: f64, bv: &[f64; NR]) {
    if SKIP_ZEROS && av == 0.0 {
        return;
    }
    for j in 0..NR {
        c[j] += av * bv[j];
    }
}

/// Computes `Aᵀ · B`.
///
/// The rank-1 accumulation over rows runs through the fixed-chunk fold of
/// [`accumulate_rows`], so the result is **bitwise invariant across
/// worker counts**.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] unless `A.rows() == B.rows()`.
pub fn matmul_transa(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "matmul_transa",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (da, db) = (a.cols(), b.cols());
    let c = accumulate_rows(a.rows(), da, db, |i, p| {
        let brow = b.row(i);
        for (j, &aij) in a.row(i).iter().enumerate() {
            if aij == 0.0 {
                continue;
            }
            let prow = &mut p[j * db..(j + 1) * db];
            for (pv, &bv) in prow.iter_mut().zip(brow) {
                *pv += aij * bv;
            }
        }
    });
    Ok(Matrix::from_vec(da, db, c))
}

/// Sums the rank-1 contributions `row(i, partial)` of rows `0..n` into a
/// `da × db` buffer.
///
/// Rows are accumulated in order within fixed [`ACCUM_CHUNK`]-row chunks,
/// whose partials are computed on up to [`parallel::worker_count`] scoped
/// workers and folded in chunk order — chunk boundaries and fold order
/// depend only on `n`, so the result is **bitwise invariant across worker
/// counts**.
fn accumulate_rows<F>(n: usize, da: usize, db: usize, row: F) -> Vec<f64>
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let n_chunks = n.div_ceil(ACCUM_CHUNK).max(1);
    let workers = if n * da * db >= PAR_FLOPS_THRESHOLD {
        parallel::worker_count().min(n_chunks)
    } else {
        1
    };
    let partials = parallel::par_map_indices_in(n_chunks, workers, |chunk| {
        let start = chunk * ACCUM_CHUNK;
        let mut p = vec![0.0f64; da * db];
        for i in start..(start + ACCUM_CHUNK).min(n) {
            row(i, &mut p);
        }
        p
    });
    let mut c = vec![0.0f64; da * db];
    for p in partials {
        for (cv, pv) in c.iter_mut().zip(&p) {
            *cv += pv;
        }
    }
    c
}

/// Computes the Gram matrix `Aᵀ · A` (symmetric `d × d`).
///
/// Only the upper triangle is accumulated, through the same fixed-chunk
/// fold as [`matmul_transa`], and then mirrored: half the multiply-adds,
/// and for finite input **bitwise equal** to `matmul_transa(a, a)` (each
/// element sums the same products in the same order, and IEEE
/// multiplication commutes). Bitwise invariant across worker counts.
pub fn gram(a: &Matrix) -> Matrix {
    let d = a.cols();
    let mut c = accumulate_rows(a.rows(), d, d, |i, p| {
        let arow = a.row(i);
        for (j, &aij) in arow.iter().enumerate() {
            if aij == 0.0 {
                continue;
            }
            let prow = &mut p[j * d + j..(j + 1) * d];
            for (pv, &bv) in prow.iter_mut().zip(&arow[j..]) {
                *pv += aij * bv;
            }
        }
    });
    for j in 0..d {
        for k in 0..j {
            c[j * d + k] = c[k * d + j];
        }
    }
    Matrix::from_vec(d, d, c)
}

/// Computes the outer Gram matrix `A · Aᵀ` (symmetric `n × n`).
pub fn outer_gram(a: &Matrix) -> Matrix {
    matmul_transb(a, a).expect("outer_gram: self shapes agree")
}

/// Computes the matrix-vector product `A · x`.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] unless `A.cols() == x.len()`.
pub fn matvec(a: &Matrix, x: &[f64]) -> Result<Vec<f64>> {
    if a.cols() != x.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "matvec",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    Ok(a.iter_rows().map(|r| dot(r, x)).collect())
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics in debug builds if the lengths differ (release builds truncate to
/// the shorter operand, which callers must not rely on).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    // 4-way unrolled accumulation; the compiler vectorizes this reliably.
    let mut acc0 = 0.0;
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    let mut acc3 = 0.0;
    let chunks = a.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc0 += a[i] * b[i];
        acc1 += a[i + 1] * b[i + 1];
        acc2 += a[i + 2] * b[i + 2];
        acc3 += a[i + 3] * b[i + 3];
    }
    let mut acc = acc0 + acc1 + acc2 + acc3;
    for i in chunks * 4..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_dist: length mismatch");
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// ℓ2 norm of a slice.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    #[test]
    fn matmul_small_known() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = mat(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b).unwrap();
        assert!(c.approx_eq(&mat(&[&[19.0, 22.0], &[43.0, 50.0]]), 1e-12));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let c = matmul(&a, &Matrix::identity(4)).unwrap();
        assert!(c.approx_eq(&a, 0.0));
    }

    #[test]
    fn matmul_dim_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 5, |i, j| ((i + 1) * (j + 2)) as f64);
        let b = Matrix::from_fn(4, 5, |i, j| (i as f64 - j as f64) * 0.5);
        let c1 = matmul_transb(&a, &b).unwrap();
        let c2 = matmul(&a, &b.transpose()).unwrap();
        assert!(c1.approx_eq(&c2, 1e-12));
    }

    #[test]
    fn matmul_transa_matches_explicit_transpose() {
        let a = Matrix::from_fn(6, 3, |i, j| (i * 3 + j) as f64 * 0.25);
        let b = Matrix::from_fn(6, 2, |i, j| (i + j) as f64);
        let c1 = matmul_transa(&a, &b).unwrap();
        let c2 = matmul(&a.transpose(), &b).unwrap();
        assert!(c1.approx_eq(&c2, 1e-12));
    }

    #[test]
    fn gram_is_symmetric_psd_diagonal() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let g = gram(&a);
        assert_eq!(g.shape(), (3, 3));
        for i in 0..3 {
            assert!(g[(i, i)] >= 0.0);
            for j in 0..3 {
                assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-12);
            }
        }
        // trace(AᵀA) == ‖A‖_F².
        let trace: f64 = (0..3).map(|i| g[(i, i)]).sum();
        assert!((trace - a.frobenius_norm_sq()).abs() < 1e-9);
    }

    #[test]
    fn outer_gram_shape() {
        let a = Matrix::from_fn(4, 2, |i, j| (i + j) as f64);
        let g = outer_gram(&a);
        assert_eq!(g.shape(), (4, 4));
        assert!((g[(1, 2)] - dot(a.row(1), a.row(2))).abs() < 1e-12);
    }

    #[test]
    fn matvec_known() {
        let a = mat(&[&[1.0, 0.0], &[0.0, 2.0], &[1.0, 1.0]]);
        assert_eq!(matvec(&a, &[3.0, 4.0]).unwrap(), vec![3.0, 8.0, 7.0]);
        assert!(matvec(&a, &[1.0]).is_err());
    }

    #[test]
    fn dot_and_sq_dist() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(dot(&a, &b), 35.0);
        assert_eq!(sq_dist(&a, &a), 0.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn matmul_large_triggers_parallel_path() {
        // Big enough to exceed PAR_FLOPS_THRESHOLD: 256*256*256 = 2^24.
        let n = 256;
        let a = Matrix::from_fn(n, n, |i, j| ((i + j) % 7) as f64);
        let b = Matrix::identity(n);
        let c = matmul(&a, &b).unwrap();
        assert!(c.approx_eq(&a, 1e-12));
    }

    #[test]
    fn matmul_transb_bitwise_invariant_across_worker_counts() {
        // Several panels wide and past the parallel threshold:
        // 2000 · 40 · 96 ≈ 7.7M ≥ 2^22, 96 columns = 6 panels.
        let a = Matrix::from_fn(2000, 40, |i, j| {
            (((i * 17 + j * 5) % 101) as f64 - 50.0) * 0.03
        });
        let b = Matrix::from_fn(96, 40, |i, j| {
            (((i * 7 + j * 13) % 83) as f64 - 41.0) * 0.04
        });
        parallel::set_worker_count(1);
        let reference = matmul_transb(&a, &b).unwrap();
        for workers in [2, 4, 8] {
            parallel::set_worker_count(workers);
            assert_eq!(
                bits(&matmul_transb(&a, &b).unwrap()),
                bits(&reference),
                "{workers} workers"
            );
        }
        parallel::set_worker_count(0);
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matmul_transb_bitwise_equals_matmul_of_transpose() {
        // Widths around the panel width NR (ragged last panel), depths
        // around the k-block KC, row counts around the register block MR.
        for m in [1, NR - 1, NR, NR + 1, 3 * NR + 5] {
            for k in [1, KC - 1, KC, KC + 1] {
                for n in [1, MR + 1, MC + 3] {
                    let a = Matrix::from_fn(n, k, |i, j| {
                        if (i + j) % 6 == 0 {
                            0.0
                        } else {
                            (i as f64 - j as f64) * 0.37 + 0.1
                        }
                    });
                    let b = Matrix::from_fn(m, k, |i, j| ((i + 2 * j) % 11) as f64 * 0.29 - 1.3);
                    let got = matmul_transb(&a, &b).unwrap();
                    let expected = matmul(&a, &b.transpose()).unwrap();
                    assert_eq!(bits(&got), bits(&expected), "n={n}, k={k}, m={m}");
                }
            }
        }
    }

    #[test]
    fn empty_dimensions_give_empty_or_zero_products() {
        let c = matmul(&Matrix::zeros(3, 0), &Matrix::zeros(0, 4)).unwrap();
        assert!(c == Matrix::zeros(3, 4));
        assert_eq!(
            matmul(&Matrix::zeros(0, 3), &Matrix::zeros(3, 4))
                .unwrap()
                .shape(),
            (0, 4)
        );
        assert_eq!(
            matmul_transb(&Matrix::zeros(3, 2), &Matrix::zeros(0, 2))
                .unwrap()
                .shape(),
            (3, 0)
        );
    }

    #[test]
    fn zero_a_entries_are_skipped_only_where_it_matters() {
        // 0·∞ would make the first entry NaN; the i-k-j semantics skip
        // the zero term, so it is 2. A finite B takes the non-skipping
        // instantiation with the same result.
        let a = mat(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let b = mat(&[&[f64::INFINITY, 3.0], &[2.0, f64::NAN]]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c[(0, 0)], 2.0);
        assert!(c[(0, 1)].is_nan());
        assert_eq!(c[(1, 0)], f64::INFINITY);
        assert_eq!(c[(1, 1)], 3.0);
        let finite = mat(&[&[-1.0, 3.0], &[2.0, 0.5]]);
        let c = matmul(&a, &finite).unwrap();
        assert_eq!(bits(&c), bits(&mat(&[&[2.0, 0.5], &[-1.0, 3.0]])));
    }

    #[test]
    fn matmul_transa_bitwise_invariant_across_worker_counts() {
        // Big enough for several ACCUM_CHUNK chunks *and* the parallel
        // threshold: 5000 · 30 · 30 = 4.5M ≥ 2^22.
        let a = Matrix::from_fn(5000, 30, |i, j| {
            (((i * 13 + j * 7) % 97) as f64 - 48.0) * 0.07
        });
        let b = Matrix::from_fn(5000, 30, |i, j| {
            (((i * 5 + j * 11) % 89) as f64 - 44.0) * 0.05
        });
        parallel::set_worker_count(1);
        let reference = matmul_transa(&a, &b).unwrap();
        let gram_ref = gram(&a);
        for workers in [2, 4, 8] {
            parallel::set_worker_count(workers);
            assert!(
                matmul_transa(&a, &b).unwrap() == reference,
                "{workers} workers"
            );
            assert!(gram(&a) == gram_ref, "{workers} workers");
        }
        parallel::set_worker_count(0);
    }

    #[test]
    fn gram_bitwise_equals_matmul_transa_at_every_worker_count() {
        // Row counts on, just past and well past ACCUM_CHUNK boundaries
        // (ragged last chunk), with sparse zeros so the skip branch and
        // the mirrored lower triangle both see them; 3073 · 37² ≥ 2^22
        // takes the parallel path.
        for n in [1usize, 1023, 1024, 1025, 3073] {
            let a = Matrix::from_fn(n, 37, |i, j| {
                let v = ((i * 31 + j * 17) % 113) as f64 - 56.0;
                if (i + 3 * j) % 7 == 0 {
                    0.0
                } else {
                    v * 0.013 + 1e-9 * (i as f64)
                }
            });
            for workers in [1, 2, 4, 8] {
                parallel::set_worker_count(workers);
                let g = gram(&a);
                let reference = matmul_transa(&a, &a).unwrap();
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&g), bits(&reference), "n={n}, {workers} workers");
            }
        }
        parallel::set_worker_count(0);
    }

    #[test]
    fn matmul_associativity_numeric() {
        let a = Matrix::from_fn(3, 4, |i, j| (i as f64) - (j as f64) * 0.5);
        let b = Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f64 * 0.1);
        let c = Matrix::from_fn(2, 3, |i, j| 1.0 / ((i + j + 1) as f64));
        let left = matmul(&matmul(&a, &b).unwrap(), &c).unwrap();
        let right = matmul(&a, &matmul(&b, &c).unwrap()).unwrap();
        assert!(left.approx_eq(&right, 1e-10));
    }
}
