//! Counting-allocator proof of the workspace-reuse endgame: once the
//! workspace and gradient buffers have warmed to the problem size, the
//! default spectral `cost_and_gradient_into` performs **zero** heap
//! allocations, and so does a warm cost-only evaluation inside a
//! `SolveScope` — the path of every line-search trial rejected on its
//! cost, which is most of them.
//!
//! This lives in its own test binary because it installs a process-wide
//! `#[global_allocator]`, and it holds exactly one test so no sibling
//! test thread can allocate inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use accqoc_grape::{cost_and_gradient_into, GradientMethod, SolveScope, Workspace};
use accqoc_hw::ControlModel;
use accqoc_linalg::{Mat, C64};

/// Counts every allocation and reallocation; frees are not interesting
/// here (a warm path that frees must have allocated first).
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_spectral_cost_and_gradient_allocates_nothing() {
    let model = ControlModel::spin_chain(2).with_dt(1.5);
    let dim = model.dim();
    let target = Mat::from_fn(dim, dim, |i, j| {
        C64::new(if (i + j) % dim == 1 { 1.0 } else { 0.0 }, 0.0)
    });
    let n_steps = 5;
    let n_params = model.n_controls() * n_steps;
    let params: Vec<f64> = (0..n_params)
        .map(|i| ((i * 29 % 17) as f64 / 17.0 - 0.5) * 0.9)
        .collect();

    let mut ws = Workspace::new();
    let mut grad = Vec::new();
    // Two warm-up evaluations: the first grows every buffer, the second
    // confirms the sizes reached a fixed point before the measured call.
    let mut warm_cost = 0.0;
    for _ in 0..2 {
        warm_cost = cost_and_gradient_into(
            &model,
            &target,
            &params,
            n_steps,
            GradientMethod::Spectral,
            &mut ws,
            &mut grad,
        );
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    let cost = cost_and_gradient_into(
        &model,
        &target,
        &params,
        n_steps,
        GradientMethod::Spectral,
        &mut ws,
        &mut grad,
    );
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;

    assert_eq!(cost.to_bits(), warm_cost.to_bits(), "reuse moved bits");
    assert_eq!(allocs, 0, "warm spectral evaluation hit the allocator");

    // The solver's two phases: seeded cost phases along a short path,
    // the last one measured, with no gradient phase between trials.
    let mut scope = SolveScope::new(&mut ws);
    let mut trial = params.clone();
    for step in 0..3 {
        trial[step] += 1e-3;
        scope.cost(&model, &target, &trial, n_steps, GradientMethod::Spectral);
    }
    trial[3] += 1e-3;
    let before = ALLOCS.load(Ordering::SeqCst);
    let cost_only = scope.cost(&model, &target, &trial, n_steps, GradientMethod::Spectral);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(allocs, 0, "warm cost-only evaluation hit the allocator");

    // Nor does the gradient phase that may follow it.
    let before = ALLOCS.load(Ordering::SeqCst);
    scope.gradient_into(&model, &mut grad);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(allocs, 0, "warm gradient phase hit the allocator");
    assert!(cost_only.is_finite() && grad.iter().all(|g| g.is_finite()));
}
