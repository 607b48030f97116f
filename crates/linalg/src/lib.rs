//! Dense complex linear algebra for quantum optimal control.
//!
//! This crate is the numerical substrate of the AccQOC reproduction
//! (Cheng, Deng, Qian — ISCA 2020). Quantum gate groups are small unitary
//! matrices (`2×2` to `32×32`), and GRAPE pulse optimization spends nearly
//! all of its time exponentiating Hamiltonians, so the crate provides
//! exactly the dense kernels that workload needs and nothing else:
//!
//! - [`C64`] — complex scalars; [`Mat`] — dense row-major complex matrices.
//! - [`expm`] / [`expm_i`] — Padé-13 scaling-and-squaring matrix
//!   exponential (Higham 2005) and the Hamiltonian propagator
//!   `exp(−i·t·H)`; [`expm_frechet`] — exact directional derivatives.
//! - [`Lu`] / [`solve`] / [`inverse`] — LU with partial pivoting.
//! - [`eigh`] — complex Hermitian Jacobi eigensolver, with a seeded
//!   warm-start entry [`eigh_seeded_into`]; [`funm_hermitian`],
//!   [`expm_i_hermitian`] spectral matrix functions.
//! - [`sqrtm_psd`] / [`sqrtm_db`] — matrix square roots (spectral and
//!   Denman–Beavers), used by the paper's Uhlmann-fidelity similarity.
//! - [`qr`] / [`random_unitary`] — Householder QR and Haar sampling.
//! - [`global_phase_canonical`] / [`quantized_bytes`] — canonical forms for
//!   group de-duplication and pulse-cache keys.
//! - [`trace_moments_abs`] / [`diag_abs_profile`] / [`row_peak_profile`] —
//!   cheap phase-invariant fingerprint features backing the pulse
//!   library's sublinear nearest-neighbor index.
//!
//! # Example
//!
//! ```
//! use accqoc_linalg::{expm_i, Mat, phase_invariant_infidelity};
//! use std::f64::consts::FRAC_PI_2;
//!
//! // Evolving under the Pauli-X Hamiltonian for t = π/2 implements an
//! // X gate up to global phase.
//! let x = Mat::from_reals(&[0.0, 1.0, 1.0, 0.0]);
//! let u = expm_i(&x, FRAC_PI_2)?;
//! assert!(phase_invariant_infidelity(&u, &x) < 1e-12);
//! # Ok::<(), accqoc_linalg::LinalgError>(())
//! ```

#![warn(missing_docs)]

mod canon;
mod complex;
mod eig;
mod error;
mod expm;
mod fingerprint;
pub mod kernels;
mod lu;
mod mat;
mod qr;
mod sqrtm;

pub use canon::{
    approx_eq_up_to_phase, global_phase_canonical, phase_invariant_fidelity,
    phase_invariant_infidelity, quantized_bytes,
};
pub use complex::{C64, I, ONE, ZERO};
pub use eig::{
    eigh, eigh_into, eigh_seeded_into, expm_i_hermitian, funm_hermitian, EigH, EighWorkspace,
};
pub use error::LinalgError;
pub use expm::{expm, expm_frechet, expm_i};
pub use fingerprint::{diag_abs_profile, row_peak_profile, trace_moments_abs};
pub use lu::{det, inverse, solve, Lu};
pub use mat::Mat;
pub use qr::{qr, random_unitary, Qr};
pub use sqrtm::{sqrtm_db, sqrtm_psd};
