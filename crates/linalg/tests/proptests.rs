//! Property-based tests for the linear-algebra substrate.

use ekm_linalg::{cholesky::Cholesky, distance, eig, ops, parallel, pinv, qr, svd, Matrix};
use proptest::prelude::*;

/// Strategy: a matrix with dimensions in [1, max_dim] and entries in [-10, 10].
fn matrix_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// The plain `i-k-j` product that skips zero `a` entries: every output
/// element sums `a[i][kk]·b[kk][j]` from `+0.0` in ascending `kk`.
/// `ops::matmul` must reproduce it bit for bit.
fn naive_ikj(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for (kk, &aik) in a.row(i).iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                c[(i, j)] += aik * b[(kk, j)];
            }
        }
    }
    c
}

/// Bit patterns of `m`'s entries, every NaN mapped to one pattern (Rust
/// leaves the payload of a NaN result unspecified).
fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice()
        .iter()
        .map(|x| {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// A Gaussian `rows × cols` matrix with about one entry in five set to
/// `±0.0`, so the zero-skip rule is exercised.
fn sparse_gaussian(seed: u64, rows: usize, cols: usize) -> Matrix {
    let g = ekm_linalg::random::gaussian_matrix(seed, rows, cols, 1.0);
    Matrix::from_fn(rows, cols, |i, j| match (i * 7 + j * 3) % 10 {
        0 => 0.0,
        5 => -0.0,
        _ => g[(i, j)],
    })
}

/// Checks `matmul(a, b)` against [`naive_ikj`] and `matmul_transb(a, bᵀ)`
/// against `matmul(a, b)`, bit for bit, at worker counts {1, 2, 4, 8}.
fn check_matmul_bitwise(a: &Matrix, b: &Matrix) -> Result<(), String> {
    let reference = bits(&naive_ikj(a, b));
    let bt = b.transpose();
    let shape = (a.rows(), a.cols(), b.cols());
    let outcome = [1, 2, 4, 8].into_iter().try_for_each(|workers| {
        parallel::set_worker_count(workers);
        if bits(&ops::matmul(a, b).unwrap()) != reference {
            return Err(format!("matmul {shape:?}, {workers} workers"));
        }
        if bits(&ops::matmul_transb(a, &bt).unwrap()) != reference {
            return Err(format!("matmul_transb {shape:?}, {workers} workers"));
        }
        Ok(())
    });
    parallel::set_worker_count(0);
    outcome
}

/// The GEMM kernel on shapes that straddle its blocking: rows not a
/// multiple of the 4-row register block (133 also spans two 128-row
/// blocks), columns around the 16-wide panel plus the disPCA (115) and
/// JL (392) widths, depths around the 256-deep `k`-block plus the JL
/// input dimension (784). The largest shapes take the threaded path.
#[test]
fn matmul_bitwise_matches_naive_on_ragged_shapes() {
    let mut seed = 0;
    for n in [1usize, 5, 133] {
        for m in [1usize, 15, 16, 17, 115, 392] {
            for k in [1usize, 255, 256, 257, 784] {
                seed += 2;
                let a = sparse_gaussian(seed, n, k);
                let b = ekm_linalg::random::gaussian_matrix(seed + 1, k, m, 1.0);
                check_matmul_bitwise(&a, &b).unwrap();
            }
        }
    }
}

/// With `±∞` or NaN in `B`, skipping a zero `a` entry decides the
/// result (`0·∞` is NaN): the kernel must still match [`naive_ikj`]
/// exactly, including which entries are NaN and which are infinite.
#[test]
fn matmul_with_non_finite_b_matches_naive() {
    for (n, k, m) in [(5usize, 3usize, 17usize), (9, 257, 33), (133, 300, 40)] {
        let a = sparse_gaussian(41, n, k);
        let b = Matrix::from_fn(k, m, |kk, j| match (kk * 5 + j * 11) % 13 {
            0 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            8 => f64::NAN,
            _ => (kk as f64 - j as f64) * 0.25,
        });
        check_matmul_bitwise(&a, &b).unwrap();
    }
}

/// Checks `symmetric_eigen(a)` against the contract, with tolerances
/// relative to `n` and `‖A‖_F`:
/// `‖AV − VΛ‖_F ≤ 1e-12·n·‖A‖_F`, `‖VᵀV − I‖_F ≤ 1e-12·n`, eigenvalues
/// descending, and `Σλ = trace(A)` to the residual tolerance.
fn check_symmetric_eigen(a: &Matrix) -> Result<(), String> {
    let n = a.rows();
    let e = eig::symmetric_eigen(a).map_err(|err| err.to_string())?;
    let v = &e.vectors;
    let tol = 1e-12 * n as f64 * a.frobenius_norm();
    let av = ops::matmul(a, v).unwrap();
    let residual = Matrix::from_fn(n, n, |i, j| av[(i, j)] - v[(i, j)] * e.values[j]);
    if residual.frobenius_norm() > tol {
        return Err(format!(
            "‖AV − VΛ‖_F = {:e} > {tol:e}",
            residual.frobenius_norm()
        ));
    }
    let orth = ops::gram(v)
        .sub(&Matrix::identity(n))
        .unwrap()
        .frobenius_norm();
    if orth > 1e-12 * n as f64 {
        return Err(format!("‖VᵀV − I‖_F = {orth:e}"));
    }
    if let Some(w) = e.values.windows(2).find(|w| w[0] < w[1]) {
        return Err(format!("eigenvalues not descending: {} < {}", w[0], w[1]));
    }
    let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
    let sum: f64 = e.values.iter().sum();
    if (trace - sum).abs() > tol {
        return Err(format!("Σλ = {sum:e}, trace = {trace:e}"));
    }
    Ok(())
}

/// Fixed adversarial inputs for the eigensolver: degenerate spectra,
/// indefinite and rank-deficient matrices, and extreme entry scales.
#[test]
fn symmetric_eigen_adversarial_cases() {
    let random_symmetric = |seed: u64, n: usize, scale: f64| {
        let g = ekm_linalg::random::gaussian_matrix(seed, n, n, 1.0);
        Matrix::from_fn(n, n, |i, j| scale * 0.5 * (g[(i, j)] + g[(j, i)]))
    };
    let u = ekm_linalg::random::gaussian_matrix(7, 24, 1, 1.0);
    let mut cases = vec![
        ("zero", Matrix::zeros(17, 17)),
        ("identity", Matrix::identity(33)),
        ("rank-1", ops::matmul_transb(&u, &u).unwrap()),
        (
            "indefinite diagonal",
            Matrix::from_fn(12, 12, |i, j| {
                if i == j {
                    (i as f64 - 5.5) * if i % 2 == 0 { 1.0 } else { -3.0 }
                } else {
                    0.0
                }
            }),
        ),
        (
            // Wilkinson W21+: eigenvalue pairs agreeing to ~1e-14.
            "wilkinson",
            Matrix::from_fn(21, 21, |i, j| match i.abs_diff(j) {
                0 => (i as f64 - 10.0).abs(),
                1 => 1.0,
                _ => 0.0,
            }),
        ),
    ];
    // A fully repeated eigenvalue hidden by a random rotation: Q·diag·Qᵀ.
    let q = ekm_linalg::qr::orthonormalize(&ekm_linalg::random::gaussian_matrix(8, 20, 20, 1.0))
        .unwrap();
    let diag = Matrix::from_fn(20, 20, |i, j| if i == j { [2.0, -1.0][i % 2] } else { 0.0 });
    let clustered = ops::matmul_transb(&ops::matmul(&q, &diag).unwrap(), &q).unwrap();
    cases.push(("rotated repeated", clustered));
    for scale in [1e100, 1e-100] {
        for n in [1, 2, 15, 64] {
            cases.push(("scaled", random_symmetric(9 + n as u64, n, scale)));
        }
    }
    for (name, a) in &cases {
        if let Err(msg) = check_symmetric_eigen(a) {
            panic!("{name} ({}×{}): {msg}", a.rows(), a.cols());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_involution(m in matrix_strategy(12, 12)) {
        prop_assert!(m.transpose().transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn matmul_identity_left_right(m in matrix_strategy(10, 10)) {
        let il = Matrix::identity(m.rows());
        let ir = Matrix::identity(m.cols());
        prop_assert!(ops::matmul(&il, &m).unwrap().approx_eq(&m, 1e-12));
        prop_assert!(ops::matmul(&m, &ir).unwrap().approx_eq(&m, 1e-12));
    }

    #[test]
    fn matmul_distributes_over_add(
        a in matrix_strategy(6, 6),
        seed in 0u64..1000,
    ) {
        let b = ekm_linalg::random::gaussian_matrix(seed, a.cols(), 4, 1.0);
        let c = ekm_linalg::random::gaussian_matrix(seed + 1, a.cols(), 4, 1.0);
        let left = ops::matmul(&a, &b.add(&c).unwrap()).unwrap();
        let right = ops::matmul(&a, &b).unwrap().add(&ops::matmul(&a, &c).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    /// Random small shapes: the kernel is bitwise the naive `i-k-j`
    /// product, and `matmul_transb` bitwise `matmul` of the transpose.
    #[test]
    fn matmul_bitwise_matches_naive(
        (n, k, m) in (1usize..40, 1usize..300, 1usize..40),
        seed in 0u64..100_000,
    ) {
        let a = sparse_gaussian(seed, n, k);
        let b = ekm_linalg::random::gaussian_matrix(seed ^ 1, k, m, 3.0);
        check_matmul_bitwise(&a, &b).unwrap();
    }

    #[test]
    fn transpose_of_product((r, k, c) in (1usize..6, 1usize..6, 1usize..6), seed in 0u64..500) {
        let a = ekm_linalg::random::gaussian_matrix(seed, r, k, 1.0);
        let b = ekm_linalg::random::gaussian_matrix(seed + 7, k, c, 1.0);
        // (AB)ᵀ = BᵀAᵀ
        let lhs = ops::matmul(&a, &b).unwrap().transpose();
        let rhs = ops::matmul(&b.transpose(), &a.transpose()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-10));
    }

    #[test]
    fn qr_reconstruction_property(m in matrix_strategy(10, 6)) {
        let f = qr::qr(&m).unwrap();
        let back = ops::matmul(&f.q, &f.r).unwrap();
        prop_assert!(back.approx_eq(&m, 1e-8 * (1.0 + m.frobenius_norm())));
        // Orthonormal columns.
        let g = ops::gram(&f.q);
        prop_assert!(g.approx_eq(&Matrix::identity(g.rows()), 1e-8));
    }

    #[test]
    fn svd_reconstruction_property(m in matrix_strategy(8, 8)) {
        let s = svd::thin_svd(&m).unwrap();
        let back = s.reconstruct().unwrap();
        prop_assert!(back.approx_eq(&m, 1e-7 * (1.0 + m.frobenius_norm())));
    }

    #[test]
    fn svd_operator_norm_bound(m in matrix_strategy(8, 8)) {
        // σ_max ≤ ‖A‖_F and Σσ² = ‖A‖_F².
        let s = svd::thin_svd(&m).unwrap();
        let fro_sq = m.frobenius_norm_sq();
        let sum_sq: f64 = s.singular_values.iter().map(|v| v * v).sum();
        prop_assert!((sum_sq - fro_sq).abs() <= 1e-6 * (1.0 + fro_sq));
        if let Some(&smax) = s.singular_values.first() {
            prop_assert!(smax * smax <= fro_sq + 1e-6 * (1.0 + fro_sq));
        }
    }

    #[test]
    fn pinv_penrose_1(m in matrix_strategy(7, 7)) {
        let p = pinv::pinv(&m).unwrap();
        let apa = ops::matmul(&ops::matmul(&m, &p).unwrap(), &m).unwrap();
        prop_assert!(apa.approx_eq(&m, 1e-6 * (1.0 + m.frobenius_norm())));
    }

    #[test]
    fn cholesky_solve_property(seed in 0u64..1000, n in 1usize..8) {
        let g = ekm_linalg::random::gaussian_matrix(seed, n + 3, n, 1.0);
        let mut a = ops::gram(&g);
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        let ch = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
        let x = ch.solve_vec(&b).unwrap();
        let ax = ops::matvec(&a, &x).unwrap();
        for (l, r) in ax.iter().zip(&b) {
            prop_assert!((l - r).abs() < 1e-7);
        }
    }

    /// The eigensolver's correctness reference: residual, orthonormality,
    /// ordering and trace on random symmetric matrices up to 64 × 64.
    #[test]
    fn symmetric_eigen_property(n in 1usize..=64, seed in 0u64..100_000) {
        let g = ekm_linalg::random::gaussian_matrix(seed, n, n, 1.0);
        let a = Matrix::from_fn(n, n, |i, j| 0.5 * (g[(i, j)] + g[(j, i)]));
        if let Err(msg) = check_symmetric_eigen(&a) {
            prop_assert!(false, "n={} seed={}: {}", n, seed, msg);
        }
    }

    #[test]
    fn row_norms_consistent_with_frobenius(m in matrix_strategy(10, 10)) {
        let total: f64 = m.row_norms_sq().iter().sum();
        prop_assert!((total - m.frobenius_norm_sq()).abs() < 1e-9 * (1.0 + total));
    }

    /// The blocked norm-expansion distances agree with the naive
    /// subtract-square loop to tight relative precision.
    #[test]
    fn sq_dists_block_matches_naive(
        p in matrix_strategy(40, 12),
        seed in 0u64..1000,
        k in 1usize..70,
    ) {
        let c = ekm_linalg::random::gaussian_matrix(seed, k, p.cols(), 5.0);
        let blocked = distance::sq_dists_block(&p, &c).unwrap();
        for i in 0..p.rows() {
            let x2 = ops::dot(p.row(i), p.row(i));
            for j in 0..k {
                let naive = ops::sq_dist(p.row(i), c.row(j));
                let c2 = ops::dot(c.row(j), c.row(j));
                let tol = 1e-12 * (1.0 + x2 + c2);
                prop_assert!(
                    (blocked[(i, j)] - naive).abs() <= tol,
                    "({}, {}): {} vs {}", i, j, blocked[(i, j)], naive
                );
            }
        }
    }

    /// Distance and fused-assignment kernels are bit-identical at every
    /// worker count (the same invariance contract as the sharded Lloyd
    /// fold), and the fused argmin agrees with the full matrix.
    #[test]
    fn distance_kernels_bit_identical_across_workers(
        p in matrix_strategy(600, 10),
        seed in 0u64..1000,
        k in 1usize..50,
    ) {
        let c = ekm_linalg::random::gaussian_matrix(seed, k, p.cols(), 5.0);
        let full = distance::sq_dists_block_in(&p, &c, 1).unwrap();
        let (labels, dists) = distance::assign_blocked_in(&p, &c, 1).unwrap();
        for workers in [2usize, 4, 8] {
            let m = distance::sq_dists_block_in(&p, &c, workers).unwrap();
            prop_assert!(m == full, "{} workers", workers);
            let (l, d) = distance::assign_blocked_in(&p, &c, workers).unwrap();
            prop_assert!(l == labels, "{} workers", workers);
            prop_assert!(d == dists, "{} workers", workers);
        }
        for i in 0..p.rows() {
            let row = full.row(i);
            prop_assert!(row[labels[i]].to_bits() == dists[i].to_bits());
            for &v in row {
                prop_assert!(dists[i] <= v);
            }
        }
    }

    /// The lane-accumulator kernel is bit-identical, at worker counts
    /// {1,2,4,8}, to the pre-lane blocked kernel's arithmetic: the
    /// norm-expansion form with one serial left-to-right dot product
    /// per term, argmin with strict `<` in increasing center order.
    #[test]
    fn lane_kernel_bitwise_matches_serial_expansion(
        p in matrix_strategy(90, 11),
        seed in 0u64..1000,
        k in 1usize..40,
    ) {
        let serial = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
        };
        let c = ekm_linalg::random::gaussian_matrix(seed, k, p.cols(), 5.0);
        let reference = Matrix::from_fn(p.rows(), k, |i, j| {
            let (x, cj) = (p.row(i), c.row(j));
            (serial(x, x) + serial(cj, cj) - 2.0 * serial(x, cj)).max(0.0)
        });
        let mut ref_best = vec![f64::INFINITY; p.rows()];
        for (i, b) in ref_best.iter_mut().enumerate() {
            for &v in reference.row(i) {
                if v < *b {
                    *b = v;
                }
            }
        }
        for workers in [1usize, 2, 4, 8] {
            let m = distance::sq_dists_block_in(&p, &c, workers).unwrap();
            prop_assert!(m == reference, "{} workers", workers);
            let norms = distance::row_norms_sq(&p);
            let mut best = vec![f64::INFINITY; p.rows()];
            distance::min_sq_dists_update_in(&p, &norms, &c, &mut best, workers).unwrap();
            prop_assert!(best == ref_best, "{} workers", workers);
        }
    }

    /// The f32 compute path is deterministic and worker-invariant at its
    /// own precision, and its distances stay within single-precision
    /// relative tolerance of the f64 reference.
    #[test]
    fn f32_engine_deterministic_and_close(
        p in matrix_strategy(120, 7),
        seed in 0u64..1000,
        k in 1usize..30,
    ) {
        let c = ekm_linalg::random::gaussian_matrix(seed, k, p.cols(), 2.0);
        let engine = distance::DistanceEngine::new(&p, distance::Compute::F32);
        let (labels, dists) = engine.assign_in(&c, 1).unwrap();
        for workers in [2usize, 4, 8] {
            let (l, d) = engine.assign_in(&c, workers).unwrap();
            prop_assert!(l == labels, "{} workers", workers);
            prop_assert!(d == dists, "{} workers", workers);
        }
        let (_, dists64) = distance::assign_blocked_in(&p, &c, 1).unwrap();
        for (i, (&a, &b)) in dists.iter().zip(&dists64).enumerate() {
            // Relative f32 tolerance on the expansion operands.
            let scale = 1.0 + ops::dot(p.row(i), p.row(i)).abs() + b.abs();
            prop_assert!((a - b).abs() <= 1e-5 * scale, "row {}: {} vs {}", i, a, b);
        }
    }

    #[test]
    fn dot_cauchy_schwarz(
        v in proptest::collection::vec(-5.0f64..5.0, 1..32),
        w_seed in 0u64..100,
    ) {
        let w: Vec<f64> = {
            use rand::Rng;
            let mut rng = ekm_linalg::random::rng_from_seed(w_seed);
            (0..v.len()).map(|_| rng.gen_range(-5.0..5.0)).collect()
        };
        let d = ops::dot(&v, &w).abs();
        let bound = ops::norm(&v) * ops::norm(&w);
        prop_assert!(d <= bound + 1e-9);
    }
}
