//! Eigendecomposition of complex Hermitian matrices via the cyclic Jacobi
//! method.
//!
//! The main consumer is GRAPE's spectral (Daleckii–Krein) gradient: every
//! objective evaluation diagonalizes one slice Hamiltonian per time slice,
//! and the eigenpairs double as the slice propagators. Two entry points
//! serve it:
//!
//! - [`eigh_into`] — the cold solve. Jacobi starts from the identity
//!   basis and sweeps until the off-diagonal mass falls below
//!   `1e-14·scale`.
//! - [`eigh_seeded_into`] — the warm solve. It takes the eigenvectors
//!   already held in the output as a starting basis `B`, diagonalizes the
//!   nearly diagonal `B†·A·B` with the same sweeps and tolerance, and
//!   returns `B·V_jacobi`. Between consecutive optimizer evaluations a
//!   slice Hamiltonian moves only slightly, so one or two sweeps replace
//!   a cold run. A seed of the wrong shape, or a seeded run that fails to
//!   converge, falls back to the cold solve.
//!
//! The seeded basis differs from the cold one only by rounding and by the
//! gauge (column phases and the basis inside degenerate eigenspaces),
//! which the spectral gradient does not depend on.
//!
//! Smaller consumers: spectral matrix functions
//! ([`crate::sqrtm::sqrtm_psd`], [`funm_hermitian`]), the
//! Uhlmann-fidelity similarity metric (`d₄` in the paper), and
//! cross-checks of the Padé [`crate::expm`] on Hermitian input. Matrices
//! are ≤ 32×32, where Jacobi is simple, robust, and plenty fast.

use crate::complex::{C64, ZERO};
use crate::mat::Mat;
use crate::LinalgError;

/// Result of a Hermitian eigendecomposition `A = V · diag(λ) · V†`.
#[derive(Debug, Clone)]
pub struct EigH {
    /// Real eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Unitary matrix whose columns are the corresponding eigenvectors.
    pub vectors: Mat,
}

/// Maximum number of Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 60;

/// Reusable scratch for [`eigh_into`] and [`eigh_seeded_into`]: the
/// Jacobi working copy, the accumulated rotations, the sort permutation,
/// and the sweep count of the last solve.
///
/// One workspace serves problems of any dimension; reuse only skips
/// allocations, never changes a result. The GRAPE spectral-gradient path
/// performs one eigensolve per slice per objective evaluation, so this
/// is what keeps the steady-state solver allocation-free.
#[derive(Debug)]
pub struct EighWorkspace {
    /// Jacobi working copy of the input.
    m: Mat,
    /// Accumulated eigenvector rotations.
    v: Mat,
    /// Product scratch (seeded solves only).
    scratch: Mat,
    /// Eigenvalue sort permutation.
    idx: Vec<usize>,
    /// Unsorted diagonal eigenvalues.
    vals: Vec<f64>,
    /// Jacobi sweeps performed by the last solve.
    sweeps: usize,
}

impl EighWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self {
            m: Mat::zeros(0, 0),
            v: Mat::zeros(0, 0),
            scratch: Mat::zeros(0, 0),
            idx: Vec::new(),
            vals: Vec::new(),
            sweeps: 0,
        }
    }

    /// Jacobi sweeps performed by the last successful solve through this
    /// workspace, counting the sweeps of a cold fallback after a seeded
    /// attempt that did not converge.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }
}

impl Default for EighWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// Computes the eigendecomposition of a Hermitian matrix.
///
/// # Errors
///
/// - [`LinalgError::NotSquare`] / [`LinalgError::NonFinite`] on bad input.
/// - [`LinalgError::NotHermitian`] if `A` deviates from `A†` by more than
///   `1e-9` (relative to its largest entry).
/// - [`LinalgError::NoConvergence`] if Jacobi sweeps fail to reduce the
///   off-diagonal mass (does not occur for Hermitian input in practice).
///
/// # Examples
///
/// ```
/// use accqoc_linalg::{eigh, Mat};
///
/// let x = Mat::from_reals(&[0.0, 1.0, 1.0, 0.0]);
/// let eig = eigh(&x)?;
/// assert!((eig.values[0] + 1.0).abs() < 1e-12);
/// assert!((eig.values[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), accqoc_linalg::LinalgError>(())
/// ```
pub fn eigh(a: &Mat) -> Result<EigH, LinalgError> {
    let mut out = EigH {
        values: Vec::new(),
        vectors: Mat::zeros(0, 0),
    };
    eigh_into(a, &mut out, &mut EighWorkspace::new())?;
    Ok(out)
}

/// [`eigh`] written into a caller-owned [`EigH`] through a reusable
/// [`EighWorkspace`] — no allocation once both are warm, and
/// bit-identical results (the wrapper [`eigh`] is this function with
/// throwaway buffers).
///
/// On error `out` is left untouched.
///
/// # Errors
///
/// Same as [`eigh`].
pub fn eigh_into(a: &Mat, out: &mut EigH, ws: &mut EighWorkspace) -> Result<(), LinalgError> {
    let scale = validate(a)?;
    let n = a.rows();
    ws.m.copy_from(a);
    ws.v.set_identity(n);

    // Absolute convergence threshold tied to the matrix scale.
    let tol = 1e-14 * scale.max(ws.m.frobenius_norm());
    jacobi(ws, tol, MAX_SWEEPS)?;
    sorted_into(ws, out);
    Ok(())
}

/// [`eigh_into`] warm-started from the eigenbasis already held in
/// `out.vectors`.
///
/// With `B = out.vectors`, Jacobi diagonalizes `B†·A·B` (one fused
/// [`Mat::rotate_into`]) to the same `1e-14·scale` tolerance as the cold
/// solve, and `out` receives the eigenvalues in ascending order and the
/// eigenvectors `B·V_jacobi`. When `B` already nearly diagonalizes `A` —
/// the eigenbasis of a slightly different matrix — this takes one or two
/// sweeps instead of a cold run. The result is an eigendecomposition of
/// `A` to the same tolerance, but not bit-identical to [`eigh_into`]:
/// rounding differs, and so may the column phases and the basis chosen
/// inside degenerate eigenspaces.
///
/// Falls back to the cold [`eigh_into`] when `out.vectors` is not a
/// square matrix of `A`'s dimension (a fresh `EigH`, or one left from a
/// problem of another size), and when the seeded sweeps fail to
/// converge. `B` must be unitary; a debug assertion checks it. No
/// allocation once `out` and `ws` are warm.
///
/// On error `out` is left untouched.
///
/// # Errors
///
/// Same as [`eigh`].
pub fn eigh_seeded_into(
    a: &Mat,
    out: &mut EigH,
    ws: &mut EighWorkspace,
) -> Result<(), LinalgError> {
    seeded_with_budget(a, out, ws, MAX_SWEEPS)
}

/// [`eigh_seeded_into`] with an explicit sweep budget for the seeded
/// attempt (tests force the non-convergence fallback through it).
fn seeded_with_budget(
    a: &Mat,
    out: &mut EigH,
    ws: &mut EighWorkspace,
    max_sweeps: usize,
) -> Result<(), LinalgError> {
    let scale = validate(a)?;
    let n = a.rows();
    if out.vectors.rows() != n || out.vectors.cols() != n {
        return eigh_into(a, out, ws);
    }
    debug_assert!(
        unitarity_deviation(&out.vectors, &mut ws.scratch) <= 1e-8,
        "eigh_seeded_into: seed basis is not unitary"
    );
    out.vectors.rotate_into(a, &mut ws.scratch, &mut ws.m);
    ws.v.set_identity(n);

    let tol = 1e-14 * scale.max(a.frobenius_norm());
    if jacobi(ws, tol, max_sweeps).is_err() {
        return eigh_into(a, out, ws);
    }
    // Eigenvectors of A are the seed basis times the Jacobi rotations.
    out.vectors.matmul_into(&ws.v, &mut ws.scratch);
    std::mem::swap(&mut ws.v, &mut ws.scratch);
    sorted_into(ws, out);
    Ok(())
}

/// The input checks shared by both entry points; returns the matrix
/// scale `max(max|A_ij|, 1)`.
fn validate(a: &Mat) -> Result<f64, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if !a.is_finite() {
        return Err(LinalgError::NonFinite);
    }
    let scale = a.max_abs().max(1.0);
    if hermitian_deviation(a) > 1e-9 * scale {
        return Err(LinalgError::NotHermitian);
    }
    Ok(scale)
}

/// Cyclic Jacobi sweeps over `ws.m`, accumulating into `ws.v`, until the
/// off-diagonal norm falls to `tol`. Records the sweep count in `ws`.
fn jacobi(ws: &mut EighWorkspace, tol: f64, max_sweeps: usize) -> Result<(), LinalgError> {
    let n = ws.m.rows();
    for sweep in 0..max_sweeps {
        let off = off_diagonal_norm(&ws.m);
        if off <= tol {
            ws.sweeps = sweep;
            return Ok(());
        }
        for p in 0..n {
            for q in (p + 1)..n {
                rotate(&mut ws.m, &mut ws.v, p, q);
            }
        }
    }
    let off = off_diagonal_norm(&ws.m);
    if off <= tol * 100.0 {
        ws.sweeps = max_sweeps;
        return Ok(());
    }
    Err(LinalgError::NoConvergence {
        what: "jacobi eigh",
        iters: max_sweeps,
    })
}

/// `max |(B†·B − I)_ij|`, through a caller-owned product buffer so the
/// debug check allocates nothing either.
fn unitarity_deviation(b: &Mat, scratch: &mut Mat) -> f64 {
    b.dagger_matmul_into(b, scratch);
    let n = b.cols();
    let mut dev = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            let target = if i == j { 1.0 } else { 0.0 };
            dev = dev.max((scratch[(i, j)] - C64::real(target)).abs());
        }
    }
    dev
}

/// `max |A[i,j] − conj(A[j,i])|` — the same deviation
/// [`Mat::is_hermitian`] measures, computed without materializing the
/// dagger (that method allocates; the hot eigensolve path must not).
fn hermitian_deviation(a: &Mat) -> f64 {
    let n = a.rows();
    let mut dev = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            dev = dev.max((a[(i, j)] - a[(j, i)].conj()).abs());
        }
    }
    dev
}

fn off_diagonal_norm(m: &Mat) -> f64 {
    let n = m.rows();
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s += m[(i, j)].norm_sqr();
            }
        }
    }
    s.sqrt()
}

/// One complex Jacobi rotation zeroing `m[(p, q)]`, accumulating into `v`.
fn rotate(m: &mut Mat, v: &mut Mat, p: usize, q: usize) {
    let apq = m[(p, q)];
    let r = apq.abs();
    if r < 1e-300 {
        return;
    }
    let phase = apq.scale(1.0 / r); // e^{iφ}
    let alpha = m[(p, p)].re;
    let gamma = m[(q, q)].re;
    let tau = (gamma - alpha) / (2.0 * r);
    let t = if tau >= 0.0 {
        1.0 / (tau + (1.0 + tau * tau).sqrt())
    } else {
        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = t * c;

    let n = m.rows();
    // Column update: A ← A·U with U[p,p]=c, U[p,q]=s·e^{iφ}, U[q,p]=−s·e^{−iφ}, U[q,q]=c.
    for i in 0..n {
        let aip = m[(i, p)];
        let aiq = m[(i, q)];
        m[(i, p)] = aip.scale(c) - aiq * phase.conj().scale(s);
        m[(i, q)] = aip * phase.scale(s) + aiq.scale(c);
    }
    // Row update: A ← U†·A.
    for j in 0..n {
        let apj = m[(p, j)];
        let aqj = m[(q, j)];
        m[(p, j)] = apj.scale(c) - aqj * phase.scale(s);
        m[(q, j)] = apj * phase.conj().scale(s) + aqj.scale(c);
    }
    // Numerically pin the eliminated element and hermiticity of the pair.
    m[(p, q)] = ZERO;
    m[(q, p)] = ZERO;
    m[(p, p)] = C64::real(m[(p, p)].re);
    m[(q, q)] = C64::real(m[(q, q)].re);

    // Eigenvector accumulation: V ← V·U.
    for i in 0..v.rows() {
        let vip = v[(i, p)];
        let viq = v[(i, q)];
        v[(i, p)] = vip.scale(c) - viq * phase.conj().scale(s);
        v[(i, q)] = vip * phase.scale(s) + viq.scale(c);
    }
}

/// Sorts eigenpairs ascending by eigenvalue into `out`, reusing the
/// workspace permutation buffers.
///
/// The sort must be **stable**: degenerate spectra are routine (identity
/// slices, symmetric Hamiltonians), and the tie order picks which
/// eigenvector lands in which column — an unstable sort would permute
/// them and move pulse bytes pinned by the CI gates. A hand-rolled
/// insertion sort keeps the allocation-free guarantee (`slice::sort_by`
/// buys scratch for larger inputs) and produces the identical
/// permutation, because stable sorts under a total order agree.
fn sorted_into(ws: &mut EighWorkspace, out: &mut EigH) {
    let n = ws.m.rows();
    ws.vals.clear();
    for i in 0..n {
        ws.vals.push(ws.m[(i, i)].re);
    }
    ws.idx.clear();
    ws.idx.extend(0..n);
    for i in 1..n {
        let key = ws.idx[i];
        let kv = ws.vals[key];
        let mut j = i;
        while j > 0 && ws.vals[ws.idx[j - 1]].total_cmp(&kv) == std::cmp::Ordering::Greater {
            ws.idx[j] = ws.idx[j - 1];
            j -= 1;
        }
        ws.idx[j] = key;
    }
    out.values.clear();
    for &i in &ws.idx {
        out.values.push(ws.vals[i]);
    }
    out.vectors.reshape_zeros(n, n);
    for j in 0..n {
        let src = ws.idx[j];
        for i in 0..n {
            out.vectors[(i, j)] = ws.v[(i, src)];
        }
    }
}

/// Applies a real scalar function to a Hermitian matrix through its
/// spectral decomposition: `f(A) = V · diag(f(λ)) · V†`.
///
/// # Errors
///
/// Propagates [`eigh`] errors.
///
/// # Examples
///
/// ```
/// use accqoc_linalg::{funm_hermitian, Mat};
///
/// let z = Mat::from_reals(&[1.0, 0.0, 0.0, -1.0]);
/// let abs_z = funm_hermitian(&z, |x| x.abs())?;
/// assert!(abs_z.approx_eq(&Mat::identity(2), 1e-12));
/// # Ok::<(), accqoc_linalg::LinalgError>(())
/// ```
pub fn funm_hermitian(a: &Mat, f: impl Fn(f64) -> f64) -> Result<Mat, LinalgError> {
    let eig = eigh(a)?;
    let n = a.rows();
    let fvals: Vec<f64> = eig.values.iter().map(|&l| f(l)).collect();
    // V · diag(f) · V†
    let mut scaled = eig.vectors.clone();
    for j in 0..n {
        for i in 0..n {
            scaled[(i, j)] = scaled[(i, j)].scale(fvals[j]);
        }
    }
    Ok(scaled.matmul(&eig.vectors.dagger()))
}

/// Computes `exp(−i·t·H)` for Hermitian `H` exactly through the spectral
/// decomposition. Slower than the Padé route for repeated small steps but
/// exact up to the eigensolve; used as a cross-check and for long
/// evolutions.
///
/// # Errors
///
/// Propagates [`eigh`] errors.
pub fn expm_i_hermitian(h: &Mat, t: f64) -> Result<Mat, LinalgError> {
    let eig = eigh(h)?;
    let n = h.rows();
    let phases: Vec<C64> = eig.values.iter().map(|&l| C64::cis(-t * l)).collect();
    let mut scaled = eig.vectors.clone();
    for j in 0..n {
        for i in 0..n {
            scaled[(i, j)] *= phases[j];
        }
    }
    Ok(scaled.matmul(&eig.vectors.dagger()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::I;
    use crate::expm::expm_i;

    fn reconstruct(eig: &EigH) -> Mat {
        let n = eig.values.len();
        let mut scaled = eig.vectors.clone();
        for j in 0..n {
            for i in 0..n {
                scaled[(i, j)] = scaled[(i, j)].scale(eig.values[j]);
            }
        }
        scaled.matmul(&eig.vectors.dagger())
    }

    #[test]
    fn pauli_matrices_spectra() {
        let x = Mat::from_reals(&[0.0, 1.0, 1.0, 0.0]);
        let y = Mat::from_flat(&[ZERO, -I, I, ZERO]);
        let z = Mat::from_reals(&[1.0, 0.0, 0.0, -1.0]);
        for p in [&x, &y, &z] {
            let e = eigh(p).unwrap();
            assert!((e.values[0] + 1.0).abs() < 1e-12);
            assert!((e.values[1] - 1.0).abs() < 1e-12);
            assert!(e.vectors.is_unitary(1e-11));
            assert!(reconstruct(&e).approx_eq(p, 1e-11));
        }
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let d = Mat::diag(&[C64::real(3.0), C64::real(-1.0), C64::real(0.5)]);
        let e = eigh(&d).unwrap();
        assert_eq!(e.values.len(), 3);
        assert!((e.values[0] + 1.0).abs() < 1e-13);
        assert!((e.values[1] - 0.5).abs() < 1e-13);
        assert!((e.values[2] - 3.0).abs() < 1e-13);
    }

    #[test]
    fn random_hermitian_reconstruction() {
        // Deterministic pseudo-random Hermitian 8×8.
        let g = Mat::from_fn(8, 8, |i, j| {
            C64::new(
                ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.5,
                ((i * 7 + j * 29) % 11) as f64 / 11.0 - 0.5,
            )
        });
        let h = &g + &g.dagger();
        let e = eigh(&h).unwrap();
        assert!(e.vectors.is_unitary(1e-10));
        assert!(reconstruct(&e).approx_eq(&h, 1e-10));
        // Eigenvalues ascending.
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // Trace preserved.
        let tr: f64 = e.values.iter().sum();
        assert!((tr - h.trace().re).abs() < 1e-9);
    }

    #[test]
    fn degenerate_spectrum() {
        let h = Mat::identity(4).scale_re(2.0);
        let e = eigh(&h).unwrap();
        for v in &e.values {
            assert!((v - 2.0).abs() < 1e-13);
        }
        assert!(e.vectors.is_unitary(1e-12));
    }

    #[test]
    fn eigh_into_reuse_is_bit_identical_to_eigh() {
        let g = Mat::from_fn(6, 6, |i, j| {
            C64::new(
                ((i * 13 + j * 5) % 17) as f64 / 17.0 - 0.4,
                ((i * 3 + j * 11) % 7) as f64 / 7.0 - 0.5,
            )
        });
        let h1 = &g + &g.dagger();
        let h2 = h1.scale_re(0.37);
        let mut ws = EighWorkspace::new();
        let mut out = EigH {
            values: Vec::new(),
            vectors: Mat::zeros(0, 0),
        };
        // Warm the workspace on a different matrix first, then re-solve:
        // reuse must not leak state between solves.
        eigh_into(&h2, &mut out, &mut ws).unwrap();
        eigh_into(&h1, &mut out, &mut ws).unwrap();
        let fresh = eigh(&h1).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out.values), bits(&fresh.values));
        assert_eq!(out.vectors, fresh.vectors);
        for (a, b) in out.vectors.as_slice().iter().zip(fresh.vectors.as_slice()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn degenerate_tie_order_is_stable_across_entry_points() {
        // Ties must keep Jacobi column order — the pinned-pulse gates
        // depend on it. Identity-like spectra exercise the tie path.
        let h = Mat::identity(5).scale_re(0.25);
        let a = eigh(&h).unwrap();
        let mut ws = EighWorkspace::new();
        let mut b = EigH {
            values: Vec::new(),
            vectors: Mat::zeros(0, 0),
        };
        eigh_into(&h, &mut b, &mut ws).unwrap();
        assert_eq!(a.vectors, b.vectors);
        assert_eq!(a.values, b.values);
    }

    /// A dense Hermitian test matrix, deterministic in `(n, salt)`.
    fn hermitian(n: usize, salt: usize) -> Mat {
        let g = Mat::from_fn(n, n, |i, j| {
            C64::new(
                ((i * 31 + j * 17 + salt) % 13) as f64 / 13.0 - 0.5,
                ((i * 7 + j * 29 + 3 * salt) % 11) as f64 / 11.0 - 0.5,
            )
        });
        &g + &g.dagger()
    }

    fn empty() -> EigH {
        EigH {
            values: Vec::new(),
            vectors: Mat::zeros(0, 0),
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn max_value_diff(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn seeded_solve_from_a_nearby_basis_matches_cold_in_fewer_sweeps() {
        for n in [2, 4, 8, 16] {
            let h0 = hermitian(n, 1);
            // A GRAPE-step-sized move of the matrix.
            let h1 = &h0 + &hermitian(n, 5).scale_re(1e-3);
            let mut ws = EighWorkspace::new();
            let mut cold = empty();
            eigh_into(&h1, &mut cold, &mut ws).unwrap();
            let cold_sweeps = ws.sweeps();

            let mut warm = eigh(&h0).unwrap();
            eigh_seeded_into(&h1, &mut warm, &mut ws).unwrap();
            // One rotation diagonalizes a 2×2 exactly, cold or seeded.
            assert!(
                ws.sweeps() < cold_sweeps || (n == 2 && ws.sweeps() == 1),
                "dim {n}: seeded {} vs cold {cold_sweeps} sweeps",
                ws.sweeps()
            );
            assert!(max_value_diff(&warm.values, &cold.values) < 1e-12);
            assert!(warm.vectors.is_unitary(1e-12));
            assert!(reconstruct(&warm).approx_eq(&h1, 1e-12));
        }
    }

    #[test]
    fn wrong_shape_seed_falls_back_to_the_cold_solve() {
        let h = hermitian(4, 2);
        let cold = eigh(&h).unwrap();
        // A fresh output and one left from a smaller problem.
        let mut stale = EigH {
            values: vec![0.0; 3],
            vectors: Mat::identity(3),
        };
        let mut rect = EigH {
            values: Vec::new(),
            vectors: Mat::zeros(4, 2),
        };
        for out in [&mut empty(), &mut stale, &mut rect] {
            eigh_seeded_into(&h, out, &mut EighWorkspace::new()).unwrap();
            assert!(max_value_diff(&out.values, &cold.values) < 1e-12);
            assert_eq!(bits(&out.values), bits(&cold.values));
            assert_eq!(out.vectors, cold.vectors);
        }
    }

    #[test]
    fn non_converging_seeded_solve_falls_back_to_the_cold_solve() {
        let h = hermitian(6, 3);
        let cold = eigh(&h).unwrap();
        let mut ws = EighWorkspace::new();
        // The identity seed leaves all of `h`'s off-diagonal mass, so a
        // zero-sweep budget cannot converge.
        let mut out = EigH {
            values: vec![0.0; 6],
            vectors: Mat::identity(6),
        };
        seeded_with_budget(&h, &mut out, &mut ws, 0).unwrap();
        assert!(max_value_diff(&out.values, &cold.values) < 1e-12);
        assert_eq!(bits(&out.values), bits(&cold.values));
        assert_eq!(out.vectors, cold.vectors);
        assert!(ws.sweeps() > 0, "sweep count is the cold fallback's");
    }

    #[test]
    fn seeded_solve_validates_input_like_the_cold_solve() {
        let seed = || EigH {
            values: vec![0.0; 2],
            vectors: Mat::identity(2),
        };
        let mut ws = EighWorkspace::new();
        let mut out = seed();
        let upper = Mat::from_reals(&[0.0, 1.0, 0.0, 0.0]);
        assert!(matches!(
            eigh_seeded_into(&upper, &mut out, &mut ws),
            Err(LinalgError::NotHermitian)
        ));
        let nan = Mat::from_reals(&[f64::NAN, 0.0, 0.0, 1.0]);
        assert!(matches!(
            eigh_seeded_into(&nan, &mut out, &mut ws),
            Err(LinalgError::NonFinite)
        ));
        assert!(matches!(
            eigh_seeded_into(&Mat::zeros(2, 3), &mut out, &mut ws),
            Err(LinalgError::NotSquare { rows: 2, cols: 3 })
        ));
        // Errors leave the output untouched.
        assert_eq!(out.vectors, seed().vectors);
        assert_eq!(out.values, seed().values);
    }

    #[test]
    fn seeded_solve_of_a_degenerate_spectrum_needs_no_sweep() {
        // Every unitary diagonalizes a multiple of the identity, so any
        // seed is already converged (the columns may still be reordered
        // by rounding-level differences on the diagonal).
        let h = Mat::identity(4).scale_re(2.0);
        let mut out = eigh(&hermitian(4, 7)).unwrap();
        let mut ws = EighWorkspace::new();
        eigh_seeded_into(&h, &mut out, &mut ws).unwrap();
        assert_eq!(ws.sweeps(), 0);
        for v in &out.values {
            assert!((v - 2.0).abs() < 1e-13);
        }
        assert!(out.vectors.is_unitary(1e-12));
        assert!(reconstruct(&out).approx_eq(&h, 1e-12));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "seed basis is not unitary")]
    fn non_unitary_seed_trips_the_debug_assertion() {
        let mut out = EigH {
            values: vec![0.0; 2],
            vectors: Mat::identity(2).scale_re(2.0),
        };
        let _ = eigh_seeded_into(&hermitian(2, 1), &mut out, &mut EighWorkspace::new());
    }

    #[test]
    fn rejects_non_hermitian() {
        let a = Mat::from_reals(&[0.0, 1.0, 0.0, 0.0]);
        assert!(matches!(eigh(&a), Err(LinalgError::NotHermitian)));
    }

    #[test]
    fn funm_square_matches_matmul() {
        let g = Mat::from_fn(4, 4, |i, j| {
            C64::new((i + j) as f64 * 0.1, (i as f64 - j as f64) * 0.2)
        });
        let h = &g + &g.dagger();
        let sq = funm_hermitian(&h, |x| x * x).unwrap();
        assert!(sq.approx_eq(&h.matmul(&h), 1e-10));
    }

    #[test]
    fn spectral_expm_matches_pade() {
        let g = Mat::from_fn(4, 4, |i, j| {
            C64::new((3 * i + j) as f64 * 0.13, (i as f64 - j as f64) * 0.21)
        });
        let h = &g + &g.dagger();
        for &t in &[0.1, 1.0, 5.0] {
            let a = expm_i_hermitian(&h, t).unwrap();
            let b = expm_i(&h, t).unwrap();
            assert!(a.approx_eq(&b, 1e-9), "t={t}: diff {}", a.max_abs_diff(&b));
        }
    }
}
