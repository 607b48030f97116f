//! Seeded eigensolves inside one solve: accuracy against the cold
//! evaluator, determinism under workspace reuse, and the allocation-free
//! steady state.
//!
//! Inside a [`SolveScope`] (the evaluation loop of every `solve_with`)
//! each spectral evaluation seeds its per-slice Jacobi eigensolves from
//! the previous evaluation's eigenbases. The results must agree with the
//! stateless cold [`cost_and_gradient_into`] to rounding, and the seeds
//! must never leak from one solve into the next.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use accqoc_grape::{
    cost_and_gradient_into, solve_with, GradientMethod, GrapeOptions, GrapeOutcome, GrapeProblem,
    SolveScope, Workspace,
};
use accqoc_hw::ControlModel;
use accqoc_linalg::{eigh, eigh_seeded_into, EighWorkspace, Mat, C64};

/// Counts allocations per thread, so the tests of this binary may run in
/// parallel without polluting each other's measured windows.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deterministic uniform noise in `[-1, 1)`.
fn noise(len: usize, salt: u64) -> Vec<f64> {
    let mut state = salt.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

/// A fixed non-trivial target: an off-diagonal phase pattern.
fn target(dim: usize) -> Mat {
    Mat::from_fn(dim, dim, |i, j| {
        C64::new(
            if (i + j) % dim == 1 { 1.0 } else { 0.0 },
            if i == j { 0.25 } else { 0.0 },
        )
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Slice whose amplitudes are all zero: on the driftless one-qubit
/// chain its Hamiltonian is the zero matrix (fully degenerate spectrum),
/// on wider chains the degenerate `XX + YY` coupling.
const ZERO_SLICE: usize = 2;

/// Parameter vectors along an optimizer-like path: a random start, then
/// steps of GRAPE-step size, with [`ZERO_SLICE`] held at zero amplitude.
fn perturbed_path(model: &ControlModel, n_steps: usize, len: usize) -> Vec<Vec<f64>> {
    let n = model.n_controls() * n_steps;
    let mut params: Vec<f64> = noise(n, 7).iter().map(|x| 0.6 * x).collect();
    let mut path = Vec::with_capacity(len);
    for step in 0..len {
        for (p, d) in params.iter_mut().zip(noise(n, 100 + step as u64)) {
            *p += 1e-3 * d;
        }
        for j in 0..model.n_controls() {
            params[j * n_steps + ZERO_SLICE] = 0.0;
        }
        path.push(params.clone());
    }
    path
}

#[test]
fn seeded_and_cold_evaluations_agree_along_a_perturbed_path() {
    let n_steps = 6;
    for qubits in 1..=4 {
        let model = ControlModel::spin_chain(qubits);
        let dim = model.dim();
        let target = target(dim);
        let (mut ws, mut cold_ws) = (Workspace::new(), Workspace::new());
        let mut scope = SolveScope::new(&mut ws);
        let (mut grad, mut cold_grad) = (Vec::new(), Vec::new());
        let mut any_bits_moved = false;
        for params in perturbed_path(&model, n_steps, 12) {
            let warm = scope.cost_and_gradient_into(
                &model,
                &target,
                &params,
                n_steps,
                GradientMethod::Spectral,
                &mut grad,
            );
            let cold = cost_and_gradient_into(
                &model,
                &target,
                &params,
                n_steps,
                GradientMethod::Spectral,
                &mut cold_ws,
                &mut cold_grad,
            );
            assert!(
                (warm - cold).abs() < 1e-12,
                "dim {dim}: cost {warm} seeded vs {cold} cold"
            );
            assert_eq!(grad.len(), cold_grad.len());
            for (i, (g, c)) in grad.iter().zip(&cold_grad).enumerate() {
                assert!(
                    (g - c).abs() < 1e-12,
                    "dim {dim}: gradient[{i}] {g} seeded vs {c} cold"
                );
            }
            any_bits_moved |= warm.to_bits() != cold.to_bits() || bits(&grad) != bits(&cold_grad);
        }
        // A scope that silently solved cold would match bit for bit; the
        // rotated Jacobi start must show up at rounding level somewhere.
        if dim >= 4 {
            assert!(any_bits_moved, "dim {dim}: the scope never seeded");
        }
    }
}

#[test]
fn a_new_scope_forgets_the_previous_eigenbases() {
    let model = ControlModel::spin_chain(2);
    let n_steps = 5;
    let path = perturbed_path(&model, n_steps, 3);
    let target = target(model.dim());
    let run = |ws: &mut Workspace| {
        let mut scope = SolveScope::new(ws);
        let mut grad = Vec::new();
        let cost = scope.cost_and_gradient_into(
            &model,
            &target,
            &path[2],
            n_steps,
            GradientMethod::Spectral,
            &mut grad,
        );
        (cost.to_bits(), bits(&grad))
    };
    let mut used = Workspace::new();
    {
        // Leave seedable bases of the same shape behind.
        let mut scope = SolveScope::new(&mut used);
        let mut grad = Vec::new();
        for params in &path[..2] {
            scope.cost_and_gradient_into(
                &model,
                &target,
                params,
                n_steps,
                GradientMethod::Spectral,
                &mut grad,
            );
        }
    }
    assert_eq!(run(&mut used), run(&mut Workspace::new()));
}

fn outcome_bits(o: &GrapeOutcome) -> (Vec<u64>, u64, usize, usize, Vec<u64>) {
    (
        bits(&o.pulse.to_params()),
        o.infidelity.to_bits(),
        o.iterations,
        o.fn_evals,
        bits(&o.history),
    )
}

#[test]
fn solve_after_another_solve_is_bit_identical_to_a_fresh_workspace() {
    let model = ControlModel::spin_chain(2);
    let dim = model.dim();
    let options = GrapeOptions::default().with_max_iters(40);
    let target_a = target(dim);
    // Same dimension and slice count, so stale bases from A would be
    // shape-valid seeds for B if they leaked.
    let target_b = Mat::from_fn(dim, dim, |i, j| {
        C64::real(if i == dim - 1 - j { 1.0 } else { 0.0 })
    });
    let problem = |target| GrapeProblem {
        model: &model,
        target,
        n_steps: 16,
        options: options.clone(),
    };

    let mut shared = Workspace::new();
    solve_with(&problem(&target_a), &mut shared);
    let b_after_a = solve_with(&problem(&target_b), &mut shared);
    let b_fresh = solve_with(&problem(&target_b), &mut Workspace::new());
    assert_eq!(outcome_bits(&b_after_a), outcome_bits(&b_fresh));
}

#[test]
fn seeded_evaluation_allocates_nothing_once_warm() {
    // The bare seeded eigensolve.
    let h0 = {
        let g = Mat::from_fn(8, 8, |i, j| {
            let n = noise(2, (i * 8 + j) as u64);
            C64::new(n[0], n[1])
        });
        &g + &g.dagger()
    };
    let h1 = &h0 + &Mat::identity(8).scale_re(1e-3);
    let mut out = eigh(&h0).expect("hermitian");
    let mut eig_ws = EighWorkspace::new();
    eigh_seeded_into(&h1, &mut out, &mut eig_ws).expect("hermitian");
    eigh_seeded_into(&h0, &mut out, &mut eig_ws).expect("hermitian");
    let before = allocs();
    eigh_seeded_into(&h1, &mut out, &mut eig_ws).expect("hermitian");
    assert_eq!(allocs() - before, 0, "seeded eigensolve hit the allocator");

    // A whole seeded cost-and-gradient evaluation.
    let model = ControlModel::spin_chain(2).with_dt(1.5);
    let n_steps = 5;
    let path = perturbed_path(&model, n_steps, 4);
    let target = target(model.dim());
    let mut ws = Workspace::new();
    let mut scope = SolveScope::new(&mut ws);
    let mut grad = Vec::new();
    // First evaluation is cold and grows every buffer; the second is the
    // first seeded one.
    for params in &path[..3] {
        scope.cost_and_gradient_into(
            &model,
            &target,
            params,
            n_steps,
            GradientMethod::Spectral,
            &mut grad,
        );
    }
    let before = allocs();
    scope.cost_and_gradient_into(
        &model,
        &target,
        &path[3],
        n_steps,
        GradientMethod::Spectral,
        &mut grad,
    );
    assert_eq!(allocs() - before, 0, "seeded evaluation hit the allocator");
}
