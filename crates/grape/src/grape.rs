//! The GRAPE solver: pulse optimization toward a target unitary.
//!
//! Cost is the phase-invariant gate infidelity
//! `1 − |Tr(U_target†·X_N)|²/d²`; the paper sets the convergence target to
//! `1e-4` (§IV-D). Gradients come in two flavors:
//!
//! - [`GradientMethod::FirstOrder`] — the standard GRAPE approximation
//!   `∂U_k/∂u ≈ −iΔt·H_j·U_k`, accurate to `O(Δt²)` and used by every
//!   practical implementation;
//! - [`GradientMethod::Exact`] — Fréchet-derivative gradients through the
//!   augmented-block matrix exponential, used for verification and for
//!   coarse time grids.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use accqoc_hw::ControlModel;
use accqoc_linalg::{eigh_into, eigh_seeded_into, expm_frechet, expm_i, EigH, Mat, C64, ZERO};

use crate::optimizer::{Objective, OptimizerKind, StopCriteria};
use crate::propagate::{backward_states_into, forward_states_into};
use crate::pulse::Pulse;
use crate::workspace::Workspace;

/// How to compute GRAPE gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GradientMethod {
    /// Exact gradients through the spectral (Daleckii–Krein) form of the
    /// propagator derivative: one Hermitian eigendecomposition per slice.
    /// Exact for any `Δt`, and the default — coarse 1 ns slices would
    /// otherwise starve the quasi-Newton line search of descent.
    #[default]
    Spectral,
    /// First-order commutator-free approximation
    /// `∂U_k/∂u ≈ −iΔt·H_j·U_k` — the textbook GRAPE gradient, accurate
    /// only for `‖H‖Δt ≪ 1`.
    FirstOrder,
    /// Exact Fréchet derivatives through the augmented-block matrix
    /// exponential (slowest; retained for cross-verification).
    Exact,
}

/// Initial pulse guess.
#[derive(Debug, Clone, PartialEq)]
pub enum InitStrategy {
    /// All-zero controls.
    Zero,
    /// Deterministic uniform noise in `±scale·max_amp`, seeded.
    Random {
        /// Fraction of the amplitude bound.
        scale: f64,
        /// RNG seed — identical seeds give identical runs.
        seed: u64,
    },
    /// Warm start from an existing pulse (resampled to the step count) —
    /// the mechanism behind the paper's MST-ordered compilation (§V).
    Warm(Pulse),
}

impl Default for InitStrategy {
    fn default() -> Self {
        // Small random break of symmetry; deterministic by default.
        InitStrategy::Random {
            scale: 0.1,
            seed: 0xACC0,
        }
    }
}

/// GRAPE configuration.
#[derive(Debug, Clone, Default)]
pub struct GrapeOptions {
    /// Optimizer selection (paper: BFGS → our L-BFGS default).
    pub optimizer: OptimizerKind,
    /// Stopping criteria; `target_cost` is the fidelity target.
    pub stop: StopCriteria,
    /// Gradient computation method.
    pub gradient: GradientMethod,
    /// Initial guess.
    pub init: InitStrategy,
    /// Weight of the pulse-smoothness penalty `λ·Σ(Δu)²` added to the
    /// cost (0 disables). Small values (≈1e-3) trade a few extra slices
    /// for hardware-friendlier envelopes — the "simpler shape" property
    /// the paper attributes to QOC pulses (§II-E).
    pub smoothness_weight: f64,
}

impl GrapeOptions {
    /// Returns a copy with a different initial guess.
    pub fn with_init(mut self, init: InitStrategy) -> Self {
        self.init = init;
        self
    }

    /// Returns a copy with the given smoothness penalty weight.
    pub fn with_smoothness(mut self, weight: f64) -> Self {
        self.smoothness_weight = weight;
        self
    }

    /// Returns a copy with a different iteration cap.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.stop.max_iters = max_iters;
        self
    }
}

/// A pulse-synthesis problem: realize `target` on `model` in `n_steps`
/// slices.
///
/// The target is borrowed, not owned: the latency binary search probes
/// the same target a dozen-plus times per compile, and the serving tier
/// runs thousands of such searches — cloning a `2^q × 2^q` matrix per
/// probe was pure allocator traffic.
#[derive(Debug, Clone)]
pub struct GrapeProblem<'a> {
    /// Device model (drift, controls, dt).
    pub model: &'a ControlModel,
    /// Target unitary (must match the model dimension).
    pub target: &'a Mat,
    /// Number of time slices; latency = `n_steps · dt`.
    pub n_steps: usize,
    /// Solver configuration.
    pub options: GrapeOptions,
}

/// Result of one GRAPE run.
#[derive(Debug, Clone)]
pub struct GrapeOutcome {
    /// The optimized pulse.
    pub pulse: Pulse,
    /// Final infidelity `1 − |Tr(U_T†X_N)|²/d²`.
    pub infidelity: f64,
    /// Optimizer iterations (the paper's compile-cost metric, §VI-G).
    pub iterations: usize,
    /// Objective evaluations (cost phases), including line-search probes.
    pub fn_evals: usize,
    /// Gradient phases run: the evaluations whose gradient the optimizer
    /// read. A line-search trial rejected on its cost skips its gradient,
    /// so with L-BFGS this is well below `fn_evals`.
    pub grad_evals: usize,
    /// Whether the fidelity target was met.
    pub converged: bool,
    /// Cost after each iteration.
    pub history: Vec<f64>,
}

/// Phase-invariant infidelity between the realized and target unitaries.
pub fn infidelity(target: &Mat, realized: &Mat) -> f64 {
    let d = target.rows() as f64;
    let phi = target.hs_inner(realized) / C64::real(d);
    (1.0 - phi.norm_sqr()).max(0.0)
}

/// Runs GRAPE on a problem with a throwaway [`Workspace`].
///
/// Repeated solves (latency searches, pre-compilation loops) should hold
/// one workspace per thread and call [`solve_with`] instead; the results
/// are identical, only the allocations differ.
///
/// # Panics
///
/// Panics if the target dimension disagrees with the model.
pub fn solve(problem: &GrapeProblem<'_>) -> GrapeOutcome {
    solve_with(problem, &mut Workspace::new())
}

/// Runs GRAPE on a problem, reusing the caller's scratch buffers.
///
/// On the spectral gradient path every objective evaluation after the
/// first seeds its per-slice eigensolves from the previous evaluation's
/// eigenbases (see [`Workspace`]). Each evaluation is a cost phase, and
/// the gradient phase runs only where the optimizer reads the gradient
/// (see [`SolveScope`]). The seeds are scoped to this call, so
/// the outcome depends only on `problem`, never on what `ws` was used
/// for before.
///
/// # Panics
///
/// Panics if the target dimension disagrees with the model.
pub fn solve_with(problem: &GrapeProblem<'_>, ws: &mut Workspace) -> GrapeOutcome {
    let model = problem.model;
    let dim = model.dim();
    assert_eq!(problem.target.rows(), dim, "target dimension vs model");
    assert!(problem.target.is_square());
    let n_ctrl = model.n_controls();
    let n_steps = problem.n_steps;
    let dt = model.dt_ns();

    // Degenerate case: zero-length pulse realizes the identity.
    if n_steps == 0 {
        let empty = Pulse::zeros(n_ctrl, 0, dt);
        let inf = infidelity(problem.target, &Mat::identity(dim));
        return GrapeOutcome {
            pulse: empty,
            infidelity: inf,
            iterations: 0,
            fn_evals: 1,
            grad_evals: 0,
            converged: inf <= problem.options.stop.target_cost,
            history: vec![],
        };
    }

    let x0 = initial_params(problem, n_ctrl, n_steps, dt);
    let mut objective = GrapeObjective {
        problem,
        scope: SolveScope::new(ws),
        fn_evals: 0,
        grad_evals: 0,
    };

    let bounds: Vec<f64> = model.channels().iter().map(|c| c.max_amp).collect();
    let project = move |params: &mut [f64]| {
        for (i, p) in params.iter_mut().enumerate() {
            let b = bounds[i / n_steps];
            *p = p.clamp(-b, b);
        }
    };

    let optimizer = problem.options.optimizer.build();
    let result = optimizer.minimize(&mut objective, Some(&project), x0, &problem.options.stop);

    let smoothness = problem.options.smoothness_weight;
    let pulse = Pulse::from_params(&result.x, n_ctrl, n_steps, dt);
    // With a penalty active, the optimizer's cost is regularized; report
    // the raw gate infidelity (and judge convergence on it).
    let (raw_infidelity, converged) = if smoothness > 0.0 {
        let realized = crate::propagate::total_unitary(model, &pulse);
        let inf = infidelity(problem.target, &realized);
        (inf, inf <= problem.options.stop.target_cost)
    } else {
        (result.cost, result.converged)
    };
    GrapeOutcome {
        pulse,
        infidelity: raw_infidelity,
        iterations: result.iterations,
        fn_evals: objective.fn_evals,
        grad_evals: objective.grad_evals,
        converged,
        history: result.history,
    }
}

/// The GRAPE objective one solve hands its optimizer: the cost phase
/// for every evaluated point, the gradient phase only when the optimizer
/// asks for it, both through the solve's [`SolveScope`]. The smoothness
/// penalty, when enabled, is added to each phase.
struct GrapeObjective<'p, 'w> {
    problem: &'p GrapeProblem<'p>,
    scope: SolveScope<'w>,
    fn_evals: usize,
    grad_evals: usize,
}

impl GrapeObjective<'_, '_> {
    fn smoothness_penalty(&self, params: &[f64]) -> Option<(f64, Vec<f64>)> {
        let weight = self.problem.options.smoothness_weight;
        (weight > 0.0).then(|| {
            let n_ctrl = self.problem.model.n_controls();
            crate::analysis::smoothness_penalty(params, n_ctrl, self.problem.n_steps, weight)
        })
    }
}

impl Objective for GrapeObjective<'_, '_> {
    fn cost(&mut self, x: &[f64]) -> f64 {
        self.fn_evals += 1;
        let p = self.problem;
        let cost = self
            .scope
            .cost(p.model, p.target, x, p.n_steps, p.options.gradient);
        match self.smoothness_penalty(x) {
            Some((penalty, _)) => cost + penalty,
            None => cost,
        }
    }

    fn gradient(&mut self) -> Vec<f64> {
        self.grad_evals += 1;
        // One vector per gradient: the optimizer's line-search state owns
        // its gradients, so this allocation is part of its API.
        let mut grad = Vec::with_capacity(self.scope.ws.params.len());
        self.scope.gradient_into(self.problem.model, &mut grad);
        if let Some((_, penalty)) = self.smoothness_penalty(&self.scope.ws.params) {
            for (g, p) in grad.iter_mut().zip(&penalty) {
                *g += p;
            }
        }
        grad
    }
}

fn initial_params(problem: &GrapeProblem<'_>, n_ctrl: usize, n_steps: usize, dt: f64) -> Vec<f64> {
    match &problem.options.init {
        InitStrategy::Zero => vec![0.0; n_ctrl * n_steps],
        InitStrategy::Random { scale, seed } => {
            let mut rng = StdRng::seed_from_u64(*seed);
            let bounds: Vec<f64> = problem.model.channels().iter().map(|c| c.max_amp).collect();
            (0..n_ctrl * n_steps)
                .map(|i| rng.gen_range(-1.0..1.0) * scale * bounds[i / n_steps])
                .collect()
        }
        InitStrategy::Warm(pulse) => {
            assert_eq!(
                pulse.n_controls(),
                n_ctrl,
                "warm-start pulse channel count vs model"
            );
            let resampled = pulse.resampled(n_steps);
            Pulse::from_params(&resampled.to_params(), n_ctrl, n_steps, dt).to_params()
        }
    }
}

/// Computes `(cost, gradient)` for the flat parameter vector with a
/// throwaway workspace (test/verification entry point; the solver calls
/// [`cost_and_gradient_into`] with a long-lived workspace).
#[cfg(test)]
fn cost_and_gradient(
    model: &ControlModel,
    target: &Mat,
    params: &[f64],
    n_steps: usize,
    method: GradientMethod,
) -> (f64, Vec<f64>) {
    let mut grad = Vec::new();
    let cost = cost_and_gradient_into(
        model,
        target,
        params,
        n_steps,
        method,
        &mut Workspace::new(),
        &mut grad,
    );
    (cost, grad)
}

/// Computes the GRAPE cost for the flat parameter vector, writing the
/// gradient into `grad` and reusing the workspace buffers: a cold cost
/// phase followed by the gradient phase (see [`SolveScope`]).
///
/// On the default spectral path this performs **zero heap allocations**
/// once `ws` and `grad` have warmed to the problem size (asserted by a
/// counting-allocator test). The dense products dispatch to the
/// register-blocked kernel layer of `accqoc-linalg`; the `grape_kernels`
/// bench harness tracks its per-call cost in `BENCH_grape.json`.
///
/// `grad` is cleared and resized to `n_controls × n_steps` (channel-major
/// like [`Pulse::to_params`]). Returns the phase-invariant infidelity
/// `1 − |Tr(U_T†·X_N)|²/d²`.
///
/// This entry point is stateless: every eigensolve is cold, so the result
/// depends only on the arguments, bit for bit. Only the evaluations
/// inside [`solve_with`] seed their eigensolves from the previous
/// evaluation, and that basis lives only as long as the solve (see
/// [`Workspace`]).
///
/// # Panics
///
/// Panics if `target` disagrees with the model dimension or `params` is
/// shorter than `n_controls × n_steps`.
#[allow(clippy::too_many_arguments)]
pub fn cost_and_gradient_into(
    model: &ControlModel,
    target: &Mat,
    params: &[f64],
    n_steps: usize,
    method: GradientMethod,
    ws: &mut Workspace,
    grad: &mut Vec<f64>,
) -> f64 {
    let cost = cost_phase(model, target, params, n_steps, method, false, ws);
    gradient_phase(model, ws, grad);
    cost
}

/// The objective evaluations of one solve: a borrow of a [`Workspace`]
/// whose spectral eigensolves seed from the previous evaluation made
/// through the same scope.
///
/// An evaluation has two phases. [`cost`](SolveScope::cost) runs the
/// per-slice eigensolves, the slice propagators, the forward chain and
/// the overlap φ, and returns the cost; the workspace keeps that state.
/// [`gradient_into`](SolveScope::gradient_into) then runs the backward
/// chain and the gradient loop at the same point. [`solve_with`] runs
/// the gradient phase only for the points its optimizer reads a gradient
/// at, which for L-BFGS skips it on most line-search trials. Every cost
/// phase runs the same seeded eigensolves whether or not its gradient
/// phase follows, so skipping one changes no later result.
///
/// [`solve_with`] runs its whole optimizer loop in one scope. Opening a
/// scope discards any eigenbasis an earlier scope left in the workspace,
/// so the first evaluation is cold and a scope's results depend only on
/// the sequence of arguments it is given, never on the workspace's
/// history. Seeded and cold evaluations agree to rounding (the
/// eigenbasis enters the spectral gradient only up to gauge), but not
/// bit for bit.
///
/// # Examples
///
/// ```
/// use accqoc_grape::{cost_and_gradient_into, GradientMethod, SolveScope, Workspace};
/// use accqoc_hw::ControlModel;
/// use accqoc_linalg::Mat;
///
/// let model = ControlModel::spin_chain(1);
/// let x = Mat::from_reals(&[0.0, 1.0, 1.0, 0.0]);
/// let mut params = vec![0.3; 2 * 6];
/// let (mut ws, mut cold_ws) = (Workspace::new(), Workspace::new());
/// let mut scope = SolveScope::new(&mut ws);
/// let (mut g, mut g_cold) = (Vec::new(), Vec::new());
/// for step in 0..3 {
///     params[0] += 1e-3 * step as f64;
///     let warm = scope.cost(&model, &x, &params, 6, GradientMethod::Spectral);
///     scope.gradient_into(&model, &mut g);
///     let cold = cost_and_gradient_into(&model, &x, &params, 6, GradientMethod::Spectral, &mut cold_ws, &mut g_cold);
///     assert!((warm - cold).abs() < 1e-12);
/// }
/// ```
#[derive(Debug)]
pub struct SolveScope<'a> {
    pub(crate) ws: &'a mut Workspace,
}

impl<'a> SolveScope<'a> {
    /// Opens a scope on `ws`, invalidating any eigenbasis it holds.
    pub fn new(ws: &'a mut Workspace) -> Self {
        ws.eigs_seedable = false;
        Self { ws }
    }

    /// The cost phase: returns the infidelity at `params`, with the
    /// spectral eigensolves seeded from this scope's previous spectral
    /// evaluation when there is one, and makes `params` the point a
    /// following [`gradient_into`](SolveScope::gradient_into)
    /// differentiates. No allocation once the workspace is warm.
    ///
    /// # Panics
    ///
    /// Same as [`cost_and_gradient_into`].
    pub fn cost(
        &mut self,
        model: &ControlModel,
        target: &Mat,
        params: &[f64],
        n_steps: usize,
        method: GradientMethod,
    ) -> f64 {
        cost_phase(model, target, params, n_steps, method, true, self.ws)
    }

    /// The gradient phase: writes the gradient at the point of the last
    /// [`cost`](SolveScope::cost) into `grad` (cleared and resized like
    /// [`cost_and_gradient_into`]'s). `model` must be the one that cost
    /// phase saw. No allocation once the workspace and `grad` are warm.
    ///
    /// # Panics
    ///
    /// Panics if no cost phase has run on the workspace.
    pub fn gradient_into(&mut self, model: &ControlModel, grad: &mut Vec<f64>) {
        gradient_phase(model, self.ws, grad);
    }

    /// [`cost`](SolveScope::cost) followed by
    /// [`gradient_into`](SolveScope::gradient_into).
    ///
    /// # Panics
    ///
    /// Same as [`cost_and_gradient_into`].
    pub fn cost_and_gradient_into(
        &mut self,
        model: &ControlModel,
        target: &Mat,
        params: &[f64],
        n_steps: usize,
        method: GradientMethod,
        grad: &mut Vec<f64>,
    ) -> f64 {
        let cost = self.cost(model, target, params, n_steps, method);
        self.gradient_into(model, grad);
        cost
    }
}

/// The cost phase behind every evaluation: per-slice propagators (for
/// the spectral method, from the per-slice eigensolves), the forward
/// chain, `B_N = U_T†` and φ, kept in `ws` for [`gradient_phase`]. With
/// `warm` set, the spectral eigensolves are seeded from `ws.eigs` when
/// `ws.eigs_seedable` says they hold the enclosing scope's previous
/// evaluation, and the flag is raised afterwards.
fn cost_phase(
    model: &ControlModel,
    target: &Mat,
    params: &[f64],
    n_steps: usize,
    method: GradientMethod,
    warm: bool,
    ws: &mut Workspace,
) -> f64 {
    let dim = model.dim();
    let d = dim as f64;
    let dt = model.dt_ns();
    ws.ensure(dim, model.n_controls(), n_steps);
    ws.params.clear();
    ws.params.extend_from_slice(params);
    ws.costed = Some((n_steps, method));

    // Step propagators. For the spectral method the eigendecompositions
    // double as the propagators; the other methods exponentiate directly.
    let seeded = warm && ws.eigs_seedable;
    for k in 0..n_steps {
        ws.load_amps(n_steps, k);
        model.hamiltonian_into(&ws.amps, &mut ws.h);
        if method == GradientMethod::Spectral {
            let eig = &mut ws.eigs[k];
            if seeded {
                eigh_seeded_into(&ws.h, eig, &mut ws.eig_ws)
            } else {
                eigh_into(&ws.h, eig, &mut ws.eig_ws)
            }
            .expect("control hamiltonians are hermitian");
            let phases = &mut ws.phases[k * dim..(k + 1) * dim];
            slice_phases_into(&eig.values, dt, phases);
            spectral_propagator_into(eig, phases, &mut ws.tmp, &mut ws.step_us[k]);
        } else {
            ws.step_us[k] = expm_i(&ws.h, dt).expect("hermitian hamiltonian exponentiates");
        }
    }
    if warm && method == GradientMethod::Spectral {
        ws.eigs_seedable = true;
    }
    forward_states_into(ws, dim, n_steps);
    target.dagger_into(&mut ws.bwd[n_steps]);

    // φ = Tr(U_T† X_N)/d; cost = 1 − |φ|².
    ws.phi = ws.bwd[n_steps].matmul_trace(&ws.fwd[n_steps]) / C64::real(d);
    (1.0 - ws.phi.norm_sqr()).max(0.0)
}

/// The gradient phase: the backward chain and the gradient loop at the
/// point of the last [`cost_phase`] on `ws`, written into `grad`.
fn gradient_phase(model: &ControlModel, ws: &mut Workspace, grad: &mut Vec<f64>) {
    let (n_steps, method) = ws
        .costed
        .expect("a gradient phase follows a cost phase on the same workspace");
    let dim = model.dim();
    let d = dim as f64;
    let n_ctrl = model.n_controls();
    let dt = model.dt_ns();
    let phi = ws.phi;
    backward_states_into(ws, n_steps);

    grad.clear();
    grad.resize(n_ctrl * n_steps, 0.0);
    match method {
        GradientMethod::Spectral => {
            for k in 0..n_steps {
                let eig = &ws.eigs[k];
                // M = X_{k−1} · B_k once per step; then, with
                // dU = V·(W ∘ Ĥ_j)·V† and Ĥ_j = V†·H_j·V,
                // ∂φ/∂u = Tr(dU·M)/d = Σ_{a,b} W[a,b]·Ĥ_j[a,b]·M̃[b,a]/d
                // where M̃ = V†·M·V — no per-channel products needed.
                // Both rotations go through the fused kernel; V_k depends
                // on this slice's parameters, so Ĥ_j cannot be hoisted
                // out of the evaluation — only its storage is (ws-owned).
                ws.fwd[k].matmul_into(&ws.bwd[k + 1], &mut ws.m);
                eig.vectors.rotate_into(&ws.m, &mut ws.tmp, &mut ws.mt);
                let phases = &ws.phases[k * dim..(k + 1) * dim];
                krein_weights_into(&eig.values, phases, dt, &mut ws.w);
                for (j, ch) in model.channels().iter().enumerate() {
                    eig.vectors
                        .rotate_into(&ch.hamiltonian, &mut ws.tmp, &mut ws.hj_tilde);
                    let mut dphi = ZERO;
                    for a in 0..dim {
                        for b in 0..dim {
                            dphi += ws.w[(a, b)] * ws.hj_tilde[(a, b)] * ws.mt[(b, a)];
                        }
                    }
                    let dphi = dphi / C64::real(d);
                    grad[j * n_steps + k] = -2.0 * (phi.conj() * dphi).re;
                }
            }
        }
        GradientMethod::FirstOrder => {
            // ∂φ/∂u_{j,k} ≈ (−iΔt/d)·Tr(B_k·H_j·X_k).
            for k in 0..n_steps {
                // M = X_k · B_k so Tr(B_k H_j X_k) = Σ_{a,b} H_j[a,b]·M[b,a].
                ws.fwd[k + 1].matmul_into(&ws.bwd[k + 1], &mut ws.m);
                for (j, ch) in model.channels().iter().enumerate() {
                    let tr = ch.hamiltonian.matmul_trace(&ws.m);
                    let dphi = C64::imag(-dt / d) * tr;
                    // d(1−|φ|²)/du = −2·Re(φ̄·∂φ/∂u).
                    grad[j * n_steps + k] = -2.0 * (phi.conj() * dphi).re;
                }
            }
        }
        GradientMethod::Exact => {
            for k in 0..n_steps {
                ws.load_amps(n_steps, k);
                model.hamiltonian_into(&ws.amps, &mut ws.h);
                let a = ws.h.scale(C64::imag(-dt));
                for (j, ch) in model.channels().iter().enumerate() {
                    let e = ch.hamiltonian.scale(C64::imag(-dt));
                    let (_, l) = expm_frechet(&a, &e).expect("finite hamiltonians");
                    // ∂φ/∂u = Tr(B_k · L · X_{k−1})/d. One workspace
                    // product plus a fused trace — the historical
                    // `.matmul(..).matmul(..).trace()` chain allocated
                    // two fresh matrices per control per slice.
                    ws.bwd[k + 1].matmul_into(&l, &mut ws.m);
                    let tr = ws.m.matmul_trace(&ws.fwd[k]);
                    let dphi = tr / C64::real(d);
                    grad[j * n_steps + k] = -2.0 * (phi.conj() * dphi).re;
                }
            }
        }
    }
}

/// Slice phases `e^{−iΔtλ_a}`, computed once per slice and shared by
/// [`spectral_propagator_into`] and [`krein_weights_into`].
fn slice_phases_into(values: &[f64], dt: f64, out: &mut [C64]) {
    for (p, &l) in out.iter_mut().zip(values) {
        *p = C64::cis(-dt * l);
    }
}

/// Allocating [`slice_phases_into`].
fn slice_phases(values: &[f64], dt: f64) -> Vec<C64> {
    let mut out = vec![ZERO; values.len()];
    slice_phases_into(values, dt, &mut out);
    out
}

/// Propagator `V·diag(e^{−iλΔt})·V†` from an eigendecomposition.
pub(crate) fn spectral_propagator(eig: &EigH, dt: f64) -> Mat {
    let mut scratch = Mat::zeros(0, 0);
    let mut out = Mat::zeros(0, 0);
    let phases = slice_phases(&eig.values, dt);
    spectral_propagator_into(eig, &phases, &mut scratch, &mut out);
    out
}

/// [`spectral_propagator`] from precomputed slice phases, written into
/// `out` via a caller-owned scratch (no allocation once the buffers are
/// warm).
fn spectral_propagator_into(eig: &EigH, phases: &[C64], scratch: &mut Mat, out: &mut Mat) {
    let dim = eig.values.len();
    scratch.copy_from(&eig.vectors);
    for (j, &phase) in phases.iter().enumerate() {
        for i in 0..dim {
            scratch[(i, j)] *= phase;
        }
    }
    scratch.matmul_dagger_into(&eig.vectors, out);
}

/// Daleckii–Krein divided-difference weights for the derivative of
/// `exp(−iΔt·H)` in the eigenbasis of `H`:
/// `W[a,b] = (e^{−iΔtλ_a} − e^{−iΔtλ_b})/(λ_a − λ_b)`, with the confluent
/// limit `−iΔt·e^{−iΔtλ_a}` on (near-)degenerate pairs.
pub(crate) fn krein_weights(values: &[f64], dt: f64) -> Mat {
    let mut out = Mat::zeros(0, 0);
    krein_weights_into(values, &slice_phases(values, dt), dt, &mut out);
    out
}

/// [`krein_weights`] from precomputed slice phases, written into `out`,
/// reusing its storage.
fn krein_weights_into(values: &[f64], phases: &[C64], dt: f64, out: &mut Mat) {
    let dim = values.len();
    out.reshape_zeros(dim, dim);
    for a in 0..dim {
        for b in 0..dim {
            let (la, lb) = (values[a], values[b]);
            out[(a, b)] = if (la - lb).abs() < 1e-9 {
                C64::imag(-dt) * phases[a]
            } else {
                (phases[a] - phases[b]) / C64::real(la - lb)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::total_unitary;
    use accqoc_circuit::{circuit_unitary, Circuit, Gate};

    fn x_target() -> Mat {
        Mat::from_reals(&[0.0, 1.0, 1.0, 0.0])
    }

    #[test]
    fn gradient_matches_finite_difference_first_order_regime() {
        // On a fine grid the first-order gradient is accurate.
        let model = ControlModel::spin_chain(1).with_dt(0.1);
        let target = x_target();
        let n_steps = 12;
        let params: Vec<f64> = (0..2 * n_steps)
            .map(|i| ((i * 37 % 19) as f64 / 19.0 - 0.5) * 0.8)
            .collect();
        let (c0, g) = cost_and_gradient(
            &model,
            &target,
            &params,
            n_steps,
            GradientMethod::FirstOrder,
        );
        let h = 1e-6;
        for i in [0, 5, n_steps, 2 * n_steps - 1] {
            let mut p = params.clone();
            p[i] += h;
            let (c1, _) =
                cost_and_gradient(&model, &target, &p, n_steps, GradientMethod::FirstOrder);
            let fd = (c1 - c0) / h;
            assert!(
                (fd - g[i]).abs() < 1e-3 * (1.0 + fd.abs()),
                "param {i}: fd {fd} vs analytic {}",
                g[i]
            );
        }
    }

    #[test]
    fn spectral_gradient_matches_finite_difference_on_coarse_grid() {
        // Spectral gradients are exact for any dt, including coarse slices.
        let model = ControlModel::spin_chain(2).with_dt(1.5);
        let target = circuit_unitary(&Circuit::from_gates(2, [Gate::Cx(0, 1)]));
        let n_steps = 5;
        let n_params = model.n_controls() * n_steps;
        let params: Vec<f64> = (0..n_params)
            .map(|i| ((i * 29 % 17) as f64 / 17.0 - 0.5) * 0.9)
            .collect();
        let (c0, g) =
            cost_and_gradient(&model, &target, &params, n_steps, GradientMethod::Spectral);
        let h = 1e-6;
        for i in (0..n_params).step_by(3) {
            let mut p = params.clone();
            p[i] += h;
            let (c1, _) = cost_and_gradient(&model, &target, &p, n_steps, GradientMethod::Spectral);
            let fd = (c1 - c0) / h;
            assert!(
                (fd - g[i]).abs() < 1e-5 * (1.0 + fd.abs()),
                "param {i}: fd {fd} vs spectral {}",
                g[i]
            );
        }
    }

    #[test]
    fn spectral_and_frechet_gradients_agree() {
        let model = ControlModel::spin_chain(1).with_dt(2.0);
        let target = x_target();
        let n_steps = 4;
        let params: Vec<f64> = (0..8).map(|i| (i as f64 / 8.0 - 0.4) * 0.9).collect();
        let (c1, g1) =
            cost_and_gradient(&model, &target, &params, n_steps, GradientMethod::Spectral);
        let (c2, g2) = cost_and_gradient(&model, &target, &params, n_steps, GradientMethod::Exact);
        assert!((c1 - c2).abs() < 1e-10);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn exact_gradient_matches_finite_difference_on_coarse_grid() {
        let model = ControlModel::spin_chain(1).with_dt(2.0); // coarse slices
        let target = x_target();
        let n_steps = 4;
        let params: Vec<f64> = (0..8).map(|i| (i as f64 / 8.0 - 0.4) * 0.9).collect();
        let (c0, g) = cost_and_gradient(&model, &target, &params, n_steps, GradientMethod::Exact);
        let h = 1e-7;
        for i in 0..8 {
            let mut p = params.clone();
            p[i] += h;
            let (c1, _) = cost_and_gradient(&model, &target, &p, n_steps, GradientMethod::Exact);
            let fd = (c1 - c0) / h;
            assert!(
                (fd - g[i]).abs() < 1e-4 * (1.0 + fd.abs()),
                "param {i}: fd {fd} vs exact {}",
                g[i]
            );
        }
    }

    #[test]
    fn solves_x_gate_single_qubit() {
        let model = ControlModel::spin_chain(1);
        let target = x_target();
        let problem = GrapeProblem {
            model: &model,
            target: &target,
            n_steps: 12,
            options: GrapeOptions::default(),
        };
        let out = solve(&problem);
        assert!(out.converged, "infidelity {}", out.infidelity);
        assert!(out.infidelity <= 1e-4);
        // Realized unitary matches the pulse the solver reports.
        let u = total_unitary(&model, &out.pulse);
        assert!(infidelity(problem.target, &u) <= 1.1e-4);
        assert!(out.pulse.max_abs_amp() <= 1.0 + 1e-12, "bounds respected");
    }

    #[test]
    fn solves_hadamard() {
        let model = ControlModel::spin_chain(1);
        let target = circuit_unitary(&Circuit::from_gates(1, [Gate::H(0)]));
        let problem = GrapeProblem {
            model: &model,
            target: &target,
            n_steps: 12,
            options: GrapeOptions::default(),
        };
        let out = solve(&problem);
        assert!(out.converged, "infidelity {}", out.infidelity);
    }

    #[test]
    fn solves_cnot_two_qubits() {
        let model = ControlModel::spin_chain(2);
        let target = circuit_unitary(&Circuit::from_gates(2, [Gate::Cx(0, 1)]));
        let problem = GrapeProblem {
            model: &model,
            target: &target,
            n_steps: 40,
            options: GrapeOptions::default().with_max_iters(800),
        };
        let out = solve(&problem);
        assert!(
            out.converged,
            "CNOT infidelity {} after {} iters",
            out.infidelity, out.iterations
        );
    }

    #[test]
    fn identity_with_zero_steps_converges_immediately() {
        let model = ControlModel::spin_chain(2);
        let target = Mat::identity(4);
        let problem = GrapeProblem {
            model: &model,
            target: &target,
            n_steps: 0,
            options: GrapeOptions::default(),
        };
        let out = solve(&problem);
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.pulse.n_steps(), 0);
    }

    #[test]
    fn too_few_steps_fails_to_converge() {
        // An X gate needs ≥ 10 ns at our amplitude bound; 4 steps of 1 ns
        // cannot reach it.
        let model = ControlModel::spin_chain(1);
        let target = x_target();
        let problem = GrapeProblem {
            model: &model,
            target: &target,
            n_steps: 4,
            options: GrapeOptions::default(),
        };
        let out = solve(&problem);
        assert!(
            !out.converged,
            "should be infeasible, got infidelity {}",
            out.infidelity
        );
        assert!(out.infidelity > 1e-3);
        // Pinned trial count: skipping the gradients of rejected
        // line-search trials must not move the trial sequence.
        assert_eq!((out.iterations, out.fn_evals), (3, 31));
        assert!(
            out.grad_evals < out.fn_evals,
            "{} gradient phases for {} evaluations",
            out.grad_evals,
            out.fn_evals
        );
    }

    #[test]
    fn warm_start_from_solution_converges_in_few_iterations() {
        let model = ControlModel::spin_chain(1);
        let target = x_target();
        let base = GrapeProblem {
            model: &model,
            target: &target,
            n_steps: 12,
            options: GrapeOptions::default(),
        };
        let cold = solve(&base);
        assert!(cold.converged);
        // Re-solve warm-started from the solution: near-instant.
        let warm_problem = GrapeProblem {
            options: GrapeOptions::default().with_init(InitStrategy::Warm(cold.pulse.clone())),
            ..base
        };
        let warm = solve(&warm_problem);
        assert!(warm.converged);
        assert!(
            warm.iterations <= cold.iterations / 2,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let model = ControlModel::spin_chain(1);
        let target = x_target();
        let make = || {
            solve(&GrapeProblem {
                model: &model,
                target: &target,
                n_steps: 12,
                options: GrapeOptions::default(),
            })
        };
        let a = make();
        let b = make();
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.pulse, b.pulse);
    }
}
