//! State-to-state transfer GRAPE.
//!
//! Quantum optimal control "could directly compile quantum state transfer
//! or a functional unitary matrix" (paper §I). The unitary form drives
//! AccQOC; this module provides the state-transfer objective
//! `1 − |⟨ψ_target|X_N|ψ_0⟩|²` with exact spectral gradients, sharing the
//! propagation and optimizer machinery.

use accqoc_hw::ControlModel;
use accqoc_linalg::{eigh, Mat, C64};

use crate::grape::{krein_weights, spectral_propagator, GrapeOptions, InitStrategy};
use crate::optimizer::Eager;
use crate::propagate::step_unitaries;
use crate::pulse::Pulse;

/// A state-transfer problem: steer `initial` to `target` (both unit-norm
/// column vectors of the model dimension) in `n_steps` slices.
#[derive(Debug, Clone)]
pub struct StateTransferProblem<'a> {
    /// Device model.
    pub model: &'a ControlModel,
    /// Initial state (column, `dim × 1`).
    pub initial: Mat,
    /// Target state (column, `dim × 1`).
    pub target: Mat,
    /// Number of time slices.
    pub n_steps: usize,
    /// Solver configuration (shared with the unitary solver).
    pub options: GrapeOptions,
}

/// Outcome of a state-transfer optimization.
#[derive(Debug, Clone)]
pub struct StateTransferOutcome {
    /// The optimized pulse.
    pub pulse: Pulse,
    /// Final infidelity `1 − |⟨ψ_t|X_N|ψ_0⟩|²`.
    pub infidelity: f64,
    /// Optimizer iterations.
    pub iterations: usize,
    /// Whether the fidelity target was met.
    pub converged: bool,
}

/// State-transfer infidelity of a pulse on a model.
pub fn state_infidelity(model: &ControlModel, pulse: &Pulse, initial: &Mat, target: &Mat) -> f64 {
    let us = step_unitaries(model, pulse);
    let mut x = initial.clone();
    for u in &us {
        x = u.matmul(&x);
    }
    let overlap = target.hs_inner(&x);
    (1.0 - overlap.norm_sqr()).max(0.0)
}

/// Runs GRAPE on a state-transfer problem.
///
/// # Panics
///
/// Panics if the state vectors are not unit-norm columns of the model
/// dimension.
///
/// # Examples
///
/// ```
/// use accqoc_grape::{solve_state_transfer, GrapeOptions, StateTransferProblem};
/// use accqoc_hw::ControlModel;
/// use accqoc_linalg::{C64, Mat};
///
/// // Flip |0⟩ to |1⟩ on a single qubit.
/// let model = ControlModel::spin_chain(1);
/// let zero = Mat::from_fn(2, 1, |i, _| if i == 0 { C64::real(1.0) } else { C64::real(0.0) });
/// let one = Mat::from_fn(2, 1, |i, _| if i == 1 { C64::real(1.0) } else { C64::real(0.0) });
/// let out = solve_state_transfer(&StateTransferProblem {
///     model: &model,
///     initial: zero,
///     target: one,
///     n_steps: 12,
///     options: GrapeOptions::default(),
/// });
/// assert!(out.converged);
/// ```
pub fn solve_state_transfer(problem: &StateTransferProblem<'_>) -> StateTransferOutcome {
    let model = problem.model;
    let dim = model.dim();
    for (name, v) in [("initial", &problem.initial), ("target", &problem.target)] {
        assert_eq!(v.rows(), dim, "{name} state dimension");
        assert_eq!(v.cols(), 1, "{name} state must be a column vector");
        assert!(
            (v.frobenius_norm() - 1.0).abs() < 1e-9,
            "{name} state must be unit norm"
        );
    }
    let n_ctrl = model.n_controls();
    let n_steps = problem.n_steps;
    let dt = model.dt_ns();

    if n_steps == 0 {
        let inf = {
            let overlap = problem.target.hs_inner(&problem.initial);
            (1.0 - overlap.norm_sqr()).max(0.0)
        };
        return StateTransferOutcome {
            pulse: Pulse::zeros(n_ctrl, 0, dt),
            infidelity: inf,
            iterations: 0,
            converged: inf <= problem.options.stop.target_cost,
        };
    }

    let x0 = match &problem.options.init {
        InitStrategy::Zero => vec![0.0; n_ctrl * n_steps],
        InitStrategy::Random { scale, seed } => {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(*seed);
            let bounds: Vec<f64> = model.channels().iter().map(|c| c.max_amp).collect();
            (0..n_ctrl * n_steps)
                .map(|i| rng.gen_range(-1.0..1.0) * scale * bounds[i / n_steps])
                .collect()
        }
        InitStrategy::Warm(p) => p.resampled(n_steps).to_params(),
    };

    let objective = |params: &[f64]| -> (f64, Vec<f64>) {
        state_cost_and_gradient(model, &problem.initial, &problem.target, params, n_steps)
    };
    let bounds: Vec<f64> = model.channels().iter().map(|c| c.max_amp).collect();
    let project = move |params: &mut [f64]| {
        for (i, p) in params.iter_mut().enumerate() {
            let b = bounds[i / n_steps];
            *p = p.clamp(-b, b);
        }
    };
    let optimizer = problem.options.optimizer.build();
    let result = optimizer.minimize(
        &mut Eager::new(objective),
        Some(&project),
        x0,
        &problem.options.stop,
    );

    StateTransferOutcome {
        pulse: Pulse::from_params(&result.x, n_ctrl, n_steps, dt),
        infidelity: result.cost,
        iterations: result.iterations,
        converged: result.converged,
    }
}

fn state_cost_and_gradient(
    model: &ControlModel,
    initial: &Mat,
    target: &Mat,
    params: &[f64],
    n_steps: usize,
) -> (f64, Vec<f64>) {
    let dim = model.dim();
    let n_ctrl = model.n_controls();
    let dt = model.dt_ns();
    let pulse = Pulse::from_params(params, n_ctrl, n_steps, dt);

    // Spectral propagators and forward state vectors x_k = X_k|ψ0⟩.
    let mut eigs = Vec::with_capacity(n_steps);
    let mut fwd: Vec<Mat> = Vec::with_capacity(n_steps + 1);
    fwd.push(initial.clone());
    for k in 0..n_steps {
        let h = model.hamiltonian(&pulse.step_amps(k));
        let eig = eigh(&h).expect("hermitian hamiltonian");
        let u = spectral_propagator(&eig, dt);
        let next = u.matmul(fwd.last().expect("non-empty"));
        fwd.push(next);
        eigs.push((eig, u));
    }
    // Backward vectors w_k with ⟨w_k| = ⟨ψ_t|U_N ⋯ U_{k+1}: w_N = ψ_t,
    // w_k = U_{k+1}†·w_{k+1}.
    let mut bwd = vec![target.clone(); n_steps + 1];
    for k in (0..n_steps).rev() {
        bwd[k] = eigs[k].1.dagger_matmul(&bwd[k + 1]);
    }

    let phi = target.hs_inner(&fwd[n_steps]); // ⟨ψ_t|X_N|ψ0⟩
    let cost = (1.0 - phi.norm_sqr()).max(0.0);

    let mut grad = vec![0.0; n_ctrl * n_steps];
    for k in 0..n_steps {
        let (eig, _) = &eigs[k];
        let v = &eig.vectors;
        let w = krein_weights(&eig.values, dt);
        // Work in the eigenbasis: dφ = ⟨w_{k+1}| dU |x_k⟩ with
        // dU = V (W ∘ Ĥ_j) V†.
        let x_tilde = v.dagger_matmul(&fwd[k]); // V†|x_k⟩
        let w_tilde = v.dagger_matmul(&bwd[k + 1]); // V†|w_{k+1}⟩
        for (j, ch) in model.channels().iter().enumerate() {
            let hj_tilde = v.dagger_matmul(&ch.hamiltonian).matmul(v);
            // dφ = Σ_{a,b} conj(w̃_a) · W_{ab}·Ĥ_{ab} · x̃_b
            let mut dphi = C64::real(0.0);
            for a in 0..dim {
                for b in 0..dim {
                    dphi += w_tilde[(a, 0)].conj() * w[(a, b)] * hj_tilde[(a, b)] * x_tilde[(b, 0)];
                }
            }
            grad[j * n_steps + k] = -2.0 * (phi.conj() * dphi).re;
        }
    }
    (cost, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accqoc_linalg::ZERO;

    fn basis_state(dim: usize, idx: usize) -> Mat {
        Mat::from_fn(dim, 1, |i, _| if i == idx { C64::real(1.0) } else { ZERO })
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let model = ControlModel::spin_chain(1);
        let zero = basis_state(2, 0);
        let one = basis_state(2, 1);
        let n_steps = 6;
        let params: Vec<f64> = (0..12)
            .map(|i| ((i * 13 % 7) as f64 / 7.0 - 0.5) * 0.8)
            .collect();
        let (c0, g) = state_cost_and_gradient(&model, &zero, &one, &params, n_steps);
        let h = 1e-6;
        for i in 0..params.len() {
            let mut p = params.clone();
            p[i] += h;
            let (c1, _) = state_cost_and_gradient(&model, &zero, &one, &p, n_steps);
            let fd = (c1 - c0) / h;
            assert!(
                (fd - g[i]).abs() < 1e-4 * (1.0 + fd.abs()),
                "param {i}: {fd} vs {}",
                g[i]
            );
        }
    }

    #[test]
    fn spin_flip_converges_at_ten_ns() {
        let model = ControlModel::spin_chain(1);
        let out = solve_state_transfer(&StateTransferProblem {
            model: &model,
            initial: basis_state(2, 0),
            target: basis_state(2, 1),
            n_steps: 10,
            options: GrapeOptions::default(),
        });
        assert!(out.converged, "infidelity {}", out.infidelity);
        // Replay check.
        let inf = state_infidelity(&model, &out.pulse, &basis_state(2, 0), &basis_state(2, 1));
        assert!(inf <= 1.2e-4);
    }

    #[test]
    fn spin_flip_infeasible_below_minimum_time() {
        let model = ControlModel::spin_chain(1);
        let out = solve_state_transfer(&StateTransferProblem {
            model: &model,
            initial: basis_state(2, 0),
            target: basis_state(2, 1),
            n_steps: 5,
            options: GrapeOptions::default(),
        });
        assert!(!out.converged, "5 ns cannot complete a π rotation");
    }

    #[test]
    fn bell_state_preparation() {
        // |00⟩ → (|00⟩ + |11⟩)/√2 on the coupled 2-qubit model.
        let model = ControlModel::spin_chain(2);
        let r = std::f64::consts::FRAC_1_SQRT_2;
        let bell = Mat::from_fn(4, 1, |i, _| match i {
            0 | 3 => C64::real(r),
            _ => ZERO,
        });
        let out = solve_state_transfer(&StateTransferProblem {
            model: &model,
            initial: basis_state(4, 0),
            target: bell,
            n_steps: 30,
            options: GrapeOptions::default().with_max_iters(600),
        });
        assert!(out.converged, "bell prep infidelity {}", out.infidelity);
    }

    #[test]
    fn zero_steps_identity_transfer() {
        let model = ControlModel::spin_chain(1);
        let out = solve_state_transfer(&StateTransferProblem {
            model: &model,
            initial: basis_state(2, 0),
            target: basis_state(2, 0),
            n_steps: 0,
            options: GrapeOptions::default(),
        });
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    #[should_panic(expected = "unit norm")]
    fn non_normalized_state_rejected() {
        let model = ControlModel::spin_chain(1);
        let bad = Mat::from_fn(2, 1, |_, _| C64::real(1.0));
        let _ = solve_state_transfer(&StateTransferProblem {
            model: &model,
            initial: bad.clone(),
            target: bad,
            n_steps: 4,
            options: GrapeOptions::default(),
        });
    }

    #[test]
    fn state_transfer_needs_fewer_steps_than_full_unitary() {
        // Steering one state is weaker than realizing a full gate: the
        // Hadamard *state* |0⟩→|+⟩ is a π/2 rotation (≈5 ns), while the
        // full H gate needs a π rotation's worth of time.
        let model = ControlModel::spin_chain(1);
        let r = std::f64::consts::FRAC_1_SQRT_2;
        let plus = Mat::from_fn(2, 1, |_, _| C64::real(r));
        let out = solve_state_transfer(&StateTransferProblem {
            model: &model,
            initial: basis_state(2, 0),
            target: plus,
            n_steps: 6,
            options: GrapeOptions::default(),
        });
        assert!(
            out.converged,
            "π/2-worth of steering fits in 6 ns: {}",
            out.infidelity
        );
    }
}
