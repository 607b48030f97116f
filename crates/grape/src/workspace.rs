//! Reusable GRAPE scratch buffers.
//!
//! Every objective evaluation propagates `N` slice unitaries forward and
//! backward; done naively that allocates a few dozen small matrices per
//! iteration, and a full latency binary search performs thousands of
//! iterations. A [`Workspace`] owns those buffers once, so repeated
//! solves — in particular the per-thread compile loops of the parallel
//! pre-compilation engine — run allocation-free on the steady state.
//!
//! Workspaces are plain owned data: create one per thread (they are
//! `Send` but deliberately not shared) and pass it to
//! [`solve_with`](crate::solve_with) or
//! [`find_minimal_latency_with`](crate::find_minimal_latency_with).
//! The convenience wrappers [`solve`](crate::solve) and
//! [`find_minimal_latency`](crate::find_minimal_latency) create a
//! throwaway workspace internally and produce bit-identical results.
//!
//! The workspace also carries state *within* a solve: the per-slice
//! eigenbases of the previous objective evaluation, which seed the next
//! evaluation's eigensolves, and the cost phase's propagators, forward
//! states and overlap φ, which a following gradient phase at the same
//! point differentiates. That state never outlives the solve (see
//! [`Workspace`]).

use accqoc_linalg::{EigH, EighWorkspace, Mat, C64, ZERO};

use crate::GradientMethod;

/// Per-thread scratch space for GRAPE objective evaluations.
///
/// All buffers are resized on demand, so one workspace serves problems of
/// any dimension and slice count; reuse across solves only skips the
/// allocations, never changes a result.
///
/// **Eigenbasis scope.** Inside one [`solve_with`](crate::solve_with),
/// each spectral objective evaluation seeds slice `k`'s eigensolve from
/// the eigenbasis that slice had at the previous evaluation (held in the
/// per-slice eigendecomposition buffers), which cuts the Jacobi sweeps
/// roughly in half. A flag marks those bases valid. Every solve opens a
/// fresh [`SolveScope`](crate::SolveScope), which clears the flag, so the
/// first evaluation of every solve is a cold eigensolve. A solve's output
/// therefore depends only on its inputs: neither an earlier solve on the
/// same workspace nor the thread that runs it can change a result. The
/// public [`cost_and_gradient_into`](crate::cost_and_gradient_into)
/// never reads or sets the flag; it always solves cold.
///
/// # Examples
///
/// ```
/// use accqoc_grape::{solve_with, GrapeOptions, GrapeProblem, Workspace};
/// use accqoc_hw::ControlModel;
/// use accqoc_linalg::Mat;
///
/// let model = ControlModel::spin_chain(1);
/// let x = Mat::from_reals(&[0.0, 1.0, 1.0, 0.0]);
/// let mut ws = Workspace::new();
/// let out = solve_with(
///     &GrapeProblem { model: &model, target: &x, n_steps: 12, options: GrapeOptions::default() },
///     &mut ws,
/// );
/// assert!(out.converged);
/// ```
#[derive(Debug)]
pub struct Workspace {
    /// Parameters of the last cost phase: the point a gradient phase
    /// differentiates.
    pub(crate) params: Vec<f64>,
    /// Slice count and gradient method of the last cost phase; `None`
    /// until one has run.
    pub(crate) costed: Option<(usize, GradientMethod)>,
    /// Overlap `φ = Tr(U_T†·X_N)/d` of the last cost phase.
    pub(crate) phi: C64,
    /// Step propagators `U_1 … U_N`.
    pub(crate) step_us: Vec<Mat>,
    /// Forward states `X_0 … X_N`.
    pub(crate) fwd: Vec<Mat>,
    /// Backward states `B_0 … B_N`.
    pub(crate) bwd: Vec<Mat>,
    /// Per-slice eigendecompositions (spectral gradients), reused by
    /// index across objective evaluations.
    pub(crate) eigs: Vec<EigH>,
    /// Eigensolver scratch (Jacobi working copy + sort permutation).
    pub(crate) eig_ws: EighWorkspace,
    /// Whether `eigs[..n_steps]` hold this solve's previous evaluation,
    /// so the next evaluation may seed its eigensolves from them.
    /// Cleared whenever a `SolveScope` opens.
    pub(crate) eigs_seedable: bool,
    /// Slice phases `e^{−iΔtλ_a}`, `dim` per slice (slice-major), shared
    /// by the propagator and the Daleckii–Krein weights.
    pub(crate) phases: Vec<C64>,
    /// Per-slice control amplitudes.
    pub(crate) amps: Vec<f64>,
    /// Slice Hamiltonian.
    pub(crate) h: Mat,
    /// `X_{k−1}·B_k` product.
    pub(crate) m: Mat,
    /// `V†·M·V` (the product rotated into the slice eigenbasis).
    pub(crate) mt: Mat,
    /// General matmul scratch.
    pub(crate) tmp: Mat,
    /// `V†·H_j·V` control Hamiltonian in the slice eigenbasis.
    pub(crate) hj_tilde: Mat,
    /// Daleckii–Krein divided-difference weights.
    pub(crate) w: Mat,
}

impl Workspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self {
            params: Vec::new(),
            costed: None,
            phi: ZERO,
            step_us: Vec::new(),
            fwd: Vec::new(),
            bwd: Vec::new(),
            eigs: Vec::new(),
            eig_ws: EighWorkspace::new(),
            eigs_seedable: false,
            phases: Vec::new(),
            amps: Vec::new(),
            h: Mat::zeros(0, 0),
            m: Mat::zeros(0, 0),
            mt: Mat::zeros(0, 0),
            tmp: Mat::zeros(0, 0),
            hj_tilde: Mat::zeros(0, 0),
            w: Mat::zeros(0, 0),
        }
    }

    /// Grows the per-slice buffer vectors to cover `n_steps` slices of a
    /// `dim`-dimensional problem with `n_ctrl` control channels. Matrix
    /// shapes are corrected lazily by the `*_into` kernels.
    pub(crate) fn ensure(&mut self, dim: usize, n_ctrl: usize, n_steps: usize) {
        self.amps.resize(n_ctrl, 0.0);
        if self.step_us.len() < n_steps {
            self.step_us.resize_with(n_steps, || Mat::zeros(dim, dim));
        }
        if self.fwd.len() < n_steps + 1 {
            self.fwd.resize_with(n_steps + 1, || Mat::zeros(dim, dim));
        }
        if self.bwd.len() < n_steps + 1 {
            self.bwd.resize_with(n_steps + 1, || Mat::zeros(dim, dim));
        }
        if self.phases.len() < n_steps * dim {
            self.phases.resize(n_steps * dim, ZERO);
        }
        if self.eigs.len() < n_steps {
            self.eigs.resize_with(n_steps, || EigH {
                values: Vec::new(),
                vectors: Mat::zeros(0, 0),
            });
        }
    }

    /// Copies slice `k`'s amplitudes out of the flat channel-major
    /// `params` into the `amps` scratch.
    pub(crate) fn load_amps(&mut self, n_steps: usize, k: usize) {
        for (j, a) in self.amps.iter_mut().enumerate() {
            *a = self.params[j * n_steps + k];
        }
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}
