//! GRAPE kernel microbenchmarks: the raw-speed tier under the serving
//! experiments.
//!
//! Times the register-blocked complex kernels of `accqoc-linalg` against
//! the verbatim pre-blocking loops (kept as `kernels::reference`), plus
//! the compound operations the serving stack spends its time in —
//! `expm_i_hermitian`, the Jacobi eigensolve cold (`eigh`) and seeded
//! from a nearby eigenbasis (`eigh_seeded`, the GRAPE inner-loop case,
//! with Jacobi sweeps per solve beside the time), and a full spectral
//! `cost_and_gradient_into` pass — across dimensions 2/4/8/16. Both
//! sides of each pair run under the same median-of-K sampler, so the
//! reported speedups compare like with like.
//!
//! Modes:
//!
//! - default: measure everything, print the table, write per-kernel rows
//!   to `results/grape_kernels.csv` and the summary to
//!   `BENCH_grape.json`. Honors `ACCQOC_FAST=1` (fewer samples).
//! - `--check`: first prove bit-identity — every blocked kernel against
//!   its reference over all dimensions 1–17 (covering every
//!   non-multiple-of-tile remainder), exact on all bytes — and the
//!   seeded eigensolve's accuracy over the same dimensions: it must
//!   reconstruct `H` within [`SEEDED_TOL`] and match the cold solve's
//!   eigenvalues within [`SEEDED_TOL`]. Then gate on raw speed: the
//!   blocked dim-8 matmul must beat the naive loop by at least
//!   [`CHECK_MIN_SPEEDUP`]× on median time. Exits non-zero on any
//!   failure. The CI `grape-bench` gate.

use accqoc::json::JsonValue;
use accqoc_bench::{fast_mode, print_table, write_csv};
use accqoc_grape::{cost_and_gradient_into, GradientMethod, Workspace};
use accqoc_hw::ControlModel;
use accqoc_linalg::{
    eigh, eigh_into, eigh_seeded_into, expm_i_hermitian, kernels, EigH, EighWorkspace, Mat, C64,
};
use criterion::{black_box, Sampler};

/// Pinned CI threshold: blocked dim-8 matmul speedup over the naive
/// reference loop, median-of-K under one shared harness. The 2×4 tiling
/// measures well above this; a regression to memory accumulators or a
/// lost slice hoist drops it hard.
const CHECK_MIN_SPEEDUP: f64 = 1.2;

/// Matrix dimensions swept by the measurement mode: 1–4 qubits.
const DIMS: [usize; 4] = [2, 4, 8, 16];

/// Dimensions the `--check` bit-identity sweep covers: every remainder
/// class of the 2×4 tile, including the degenerate 1×1.
const CHECK_DIMS: std::ops::RangeInclusive<usize> = 1..=17;

/// GRAPE slices of the cost-and-gradient pass.
const COST_STEPS: usize = 8;

/// Size of the Hamiltonian move between the seed basis and the solved
/// matrix in the `eigh_seeded` rows: one GRAPE step moves a slice
/// Hamiltonian by about this fraction of a control term.
const SEED_PERTURBATION: f64 = 1e-3;

/// `--check` tolerance of the seeded eigensolve: reconstruction of `H`
/// and agreement with the cold eigenvalues, max-abs.
const SEEDED_TOL: f64 = 1e-12;

const HEADER: [&str; 6] = [
    "kernel",
    "dim",
    "blocked_ns",
    "naive_ns",
    "speedup",
    "sweeps",
];

/// One (kernel, dim) measurement. `naive_ns` is `None` for compound
/// operations that have no preserved naive twin (`expm_i`, `eigh`,
/// `cost_and_gradient`); `sweeps` is the Jacobi sweep count per solve of
/// the eigensolver rows.
struct Row {
    kernel: &'static str,
    dim: usize,
    blocked_ns: f64,
    naive_ns: Option<f64>,
    sweeps: Option<usize>,
}

impl Row {
    fn speedup(&self) -> Option<f64> {
        self.naive_ns.map(|n| n / self.blocked_ns)
    }

    fn cells(&self) -> Vec<String> {
        vec![
            self.kernel.to_string(),
            self.dim.to_string(),
            format!("{:.1}", self.blocked_ns),
            self.naive_ns
                .map_or_else(|| "-".into(), |n| format!("{n:.1}")),
            self.speedup()
                .map_or_else(|| "-".into(), |s| format!("{s:.2}")),
            self.sweeps.map_or_else(|| "-".into(), |s| s.to_string()),
        ]
    }

    fn json(&self) -> JsonValue {
        let mut fields = vec![
            ("kernel".into(), JsonValue::String(self.kernel.into())),
            ("dim".into(), JsonValue::Number(self.dim as f64)),
            ("blocked_ns".into(), JsonValue::Number(self.blocked_ns)),
        ];
        if let Some(naive) = self.naive_ns {
            fields.push(("naive_ns".into(), JsonValue::Number(naive)));
        }
        if let Some(s) = self.speedup() {
            fields.push(("speedup".into(), JsonValue::Number(s)));
        }
        if let Some(s) = self.sweeps {
            fields.push(("sweeps_per_solve".into(), JsonValue::Number(s as f64)));
        }
        JsonValue::Object(fields)
    }
}

/// Deterministic non-trivial complex test data (the same LCG the kernel
/// unit tests use): no zeros, no symmetry for the kernels to exploit.
fn fill(len: usize, salt: u64) -> Vec<C64> {
    let mut state = salt.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    (0..len).map(|_| C64::new(next(), next())).collect()
}

/// A deterministic dense Hermitian matrix for the eigensolver-backed
/// benchmarks.
fn hermitian(n: usize, salt: u64) -> Mat {
    let data = fill(n * n, salt);
    let mut h = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let a = data[i * n + j];
            let b = data[j * n + i].conj();
            h[(i, j)] = C64::new(0.5 * (a.re + b.re), 0.5 * (a.im + b.im));
        }
    }
    h
}

fn sampler() -> Sampler {
    if fast_mode() {
        Sampler::calibrated(5)
    } else {
        Sampler::calibrated(15)
    }
}

/// Times one blocked/naive kernel pair at dimension `n` under the shared
/// sampler; `run` receives (a, b, scratch, out) slices of length `n²`.
fn time_pair(
    n: usize,
    blocked: impl Fn(&[C64], &[C64], &mut [C64], &mut [C64]),
    naive: impl Fn(&[C64], &[C64], &mut [C64], &mut [C64]),
) -> (f64, f64) {
    let a = fill(n * n, 17 + n as u64);
    let b = fill(n * n, 29 + n as u64);
    let mut scratch = vec![accqoc_linalg::ZERO; n * n];
    let mut out = vec![accqoc_linalg::ZERO; n * n];
    let s = sampler();
    let blocked_ns = s
        .measure(|| {
            blocked(&a, &b, &mut scratch, &mut out);
            black_box(out[0])
        })
        .median_ns;
    let naive_ns = s
        .measure(|| {
            naive(&a, &b, &mut scratch, &mut out);
            black_box(out[0])
        })
        .median_ns;
    (blocked_ns, naive_ns)
}

fn measure_dim(n: usize) -> Vec<Row> {
    let mut rows = Vec::new();

    let (blocked, naive) = time_pair(
        n,
        |a, b, _, out| kernels::matmul(a, b, out, n, n, n),
        |a, b, _, out| kernels::reference::matmul(a, b, out, n, n, n),
    );
    rows.push(Row {
        kernel: "matmul",
        dim: n,
        blocked_ns: blocked,
        naive_ns: Some(naive),
        sweeps: None,
    });

    let (blocked, naive) = time_pair(
        n,
        |a, b, _, out| kernels::dagger_matmul(a, b, out, n, n, n),
        |a, b, _, out| kernels::reference::dagger_matmul(a, b, out, n, n, n),
    );
    rows.push(Row {
        kernel: "dagger_matmul",
        dim: n,
        blocked_ns: blocked,
        naive_ns: Some(naive),
        sweeps: None,
    });

    let (blocked, naive) = time_pair(
        n,
        |a, b, _, out| kernels::matmul_dagger(a, b, out, n, n, n),
        |a, b, _, out| kernels::reference::matmul_dagger(a, b, out, n, n, n),
    );
    rows.push(Row {
        kernel: "matmul_dagger",
        dim: n,
        blocked_ns: blocked,
        naive_ns: Some(naive),
        sweeps: None,
    });

    let (blocked, naive) = time_pair(
        n,
        |v, m, scratch, out| kernels::rotate(v, m, scratch, out, n),
        |v, m, scratch, out| kernels::reference::rotate(v, m, scratch, out, n),
    );
    rows.push(Row {
        kernel: "rotate",
        dim: n,
        blocked_ns: blocked,
        naive_ns: Some(naive),
        sweeps: None,
    });

    let h = hermitian(n, 43 + n as u64);
    let expm_ns = sampler()
        .measure(|| black_box(expm_i_hermitian(&h, 0.25).expect("hermitian input")))
        .median_ns;
    rows.push(Row {
        kernel: "expm_i",
        dim: n,
        blocked_ns: expm_ns,
        naive_ns: None,
        sweeps: None,
    });

    rows.extend(measure_eigh(n));
    rows
}

/// A Hermitian matrix and the eigenbasis of a nearby one: the seed a
/// GRAPE evaluation hands its slice eigensolve.
fn seeded_case(n: usize) -> (Mat, Mat) {
    let h = hermitian(n, 43 + n as u64);
    let nearby = &h + &hermitian(n, 61 + n as u64).scale_re(SEED_PERTURBATION);
    let seed = eigh(&nearby).expect("hermitian input").vectors;
    (h, seed)
}

/// Cold and seeded eigensolves of the same matrix on warm buffers. The
/// seeded timing includes restoring the seed basis (an `n²` copy) before
/// every solve.
fn measure_eigh(n: usize) -> [Row; 2] {
    let (h, seed) = seeded_case(n);
    let mut ws = EighWorkspace::new();
    let mut out = EigH {
        values: Vec::new(),
        vectors: Mat::zeros(0, 0),
    };

    eigh_into(&h, &mut out, &mut ws).expect("hermitian input");
    let cold_sweeps = ws.sweeps();
    let cold_ns = sampler()
        .measure(|| {
            eigh_into(&h, &mut out, &mut ws).expect("hermitian input");
            black_box(out.values[0])
        })
        .median_ns;

    out.vectors.copy_from(&seed);
    eigh_seeded_into(&h, &mut out, &mut ws).expect("hermitian input");
    let seeded_sweeps = ws.sweeps();
    let seeded_ns = sampler()
        .measure(|| {
            out.vectors.copy_from(&seed);
            eigh_seeded_into(&h, &mut out, &mut ws).expect("hermitian input");
            black_box(out.values[0])
        })
        .median_ns;

    [
        Row {
            kernel: "eigh",
            dim: n,
            blocked_ns: cold_ns,
            naive_ns: None,
            sweeps: Some(cold_sweeps),
        },
        Row {
            kernel: "eigh_seeded",
            dim: n,
            blocked_ns: seeded_ns,
            naive_ns: None,
            sweeps: Some(seeded_sweeps),
        },
    ]
}

/// A full spectral cost-and-gradient pass on the spin chain whose
/// Hilbert dimension is `2^qubits`, on a warmed workspace (steady-state
/// serving conditions: zero heap allocations per call).
fn measure_cost_grad(qubits: usize) -> Row {
    let model = ControlModel::spin_chain(qubits);
    let dim = model.dim();
    let target = Mat::identity(dim);
    let n_ctrl = model.n_controls();
    let params: Vec<f64> = (0..n_ctrl * COST_STEPS)
        .map(|i| 0.05 * ((i % 7) as f64 - 3.0))
        .collect();
    let mut ws = Workspace::new();
    let mut grad = Vec::new();
    // Warm the workspace so the timed region is the steady state.
    cost_and_gradient_into(
        &model,
        &target,
        &params,
        COST_STEPS,
        GradientMethod::Spectral,
        &mut ws,
        &mut grad,
    );
    let ns = sampler()
        .measure(|| {
            black_box(cost_and_gradient_into(
                &model,
                &target,
                &params,
                COST_STEPS,
                GradientMethod::Spectral,
                &mut ws,
                &mut grad,
            ))
        })
        .median_ns;
    Row {
        kernel: "cost_and_gradient",
        dim,
        blocked_ns: ns,
        naive_ns: None,
        sweeps: None,
    }
}

fn measure_all() -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in &DIMS {
        rows.extend(measure_dim(n));
    }
    for qubits in 1..=DIMS.len() {
        rows.push(measure_cost_grad(qubits));
    }
    rows
}

fn write_outputs(rows: &[Row]) {
    let cells: Vec<Vec<String>> = rows.iter().map(Row::cells).collect();
    print_table(&HEADER, &cells);
    write_csv("grape_kernels.csv", &HEADER, &cells).ok();
    let json = JsonValue::Object(vec![
        (
            "workload".into(),
            JsonValue::String("grape kernel microbenchmarks".into()),
        ),
        (
            "kernels".into(),
            JsonValue::Array(rows.iter().map(Row::json).collect()),
        ),
    ]);
    std::fs::write("BENCH_grape.json", json.to_pretty() + "\n").ok();
}

/// Exact byte comparison of two complex buffers.
fn identical(a: &[C64], b: &[C64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Bit-identity sweep: every blocked kernel against its reference, all
/// dims 1–17, rectangular shapes included for the three matmul forms.
fn check_bit_identity() -> usize {
    let mut failures = 0usize;
    for n in CHECK_DIMS {
        // Rectangular shapes exercise remainder handling in every
        // direction: (m, k, n) with distinct values.
        let (m, k) = (n.max(2) - 1, n + 2);
        for &(rm, rk, rn) in &[(n, n, n), (m, k, n)] {
            let a = fill(rm * rk, 3 + rm as u64);
            let b = fill(rk * rn, 5 + rn as u64);
            let mut got = vec![accqoc_linalg::ZERO; rm * rn];
            let mut want = vec![accqoc_linalg::ZERO; rm * rn];
            kernels::matmul(&a, &b, &mut got, rm, rk, rn);
            kernels::reference::matmul(&a, &b, &mut want, rm, rk, rn);
            if !identical(&got, &want) {
                eprintln!("FAIL: matmul {rm}x{rk}x{rn} not bit-identical to reference");
                failures += 1;
            }

            let a = fill(rk * rm, 7 + rm as u64);
            let b = fill(rk * rn, 11 + rn as u64);
            kernels::dagger_matmul(&a, &b, &mut got, rk, rm, rn);
            kernels::reference::dagger_matmul(&a, &b, &mut want, rk, rm, rn);
            if !identical(&got, &want) {
                eprintln!("FAIL: dagger_matmul {rk}x{rm}x{rn} not bit-identical to reference");
                failures += 1;
            }

            let a = fill(rm * rk, 13 + rm as u64);
            let b = fill(rn * rk, 19 + rn as u64);
            kernels::matmul_dagger(&a, &b, &mut got, rm, rk, rn);
            kernels::reference::matmul_dagger(&a, &b, &mut want, rm, rk, rn);
            if !identical(&got, &want) {
                eprintln!("FAIL: matmul_dagger {rm}x{rk}x{rn} not bit-identical to reference");
                failures += 1;
            }
        }

        let v = fill(n * n, 23 + n as u64);
        let m_in = fill(n * n, 31 + n as u64);
        let mut scratch = vec![accqoc_linalg::ZERO; n * n];
        let mut got = vec![accqoc_linalg::ZERO; n * n];
        let mut want = vec![accqoc_linalg::ZERO; n * n];
        kernels::rotate(&v, &m_in, &mut scratch, &mut got, n);
        scratch.fill(accqoc_linalg::ZERO);
        kernels::reference::rotate(&v, &m_in, &mut scratch, &mut want, n);
        if !identical(&got, &want) {
            eprintln!("FAIL: rotate {n}x{n} not bit-identical to reference");
            failures += 1;
        }
    }
    failures
}

/// Accuracy of the seeded eigensolve over all check dimensions: `H`
/// reconstructed from the seeded eigenpairs, and the eigenvalues against
/// the cold solve's.
fn check_seeded_eigh() -> usize {
    let mut failures = 0usize;
    for n in CHECK_DIMS {
        let (h, seed) = seeded_case(n);
        let mut ws = EighWorkspace::new();
        let cold = eigh(&h).expect("hermitian input");
        let mut out = EigH {
            values: Vec::new(),
            vectors: seed,
        };
        eigh_seeded_into(&h, &mut out, &mut ws).expect("hermitian input");
        let mut scaled = out.vectors.clone();
        for j in 0..n {
            for i in 0..n {
                scaled[(i, j)] = scaled[(i, j)].scale(out.values[j]);
            }
        }
        let recon = scaled.matmul(&out.vectors.dagger()).max_abs_diff(&h);
        let values = out
            .values
            .iter()
            .zip(&cold.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        if !(recon <= SEEDED_TOL && values <= SEEDED_TOL) {
            eprintln!(
                "FAIL: seeded eigh dim {n}: reconstruction {recon:.2e}, eigenvalues {values:.2e} (tolerance {SEEDED_TOL:.0e})"
            );
            failures += 1;
        }
    }
    failures
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    println!("GRAPE kernel microbenchmarks — blocked vs naive reference\n");

    if check {
        let mut failures = check_bit_identity();
        if failures == 0 {
            println!(
                "bit-identity: all kernels match their reference over dims {}-{}",
                CHECK_DIMS.start(),
                CHECK_DIMS.end()
            );
        }
        let seeded_failures = check_seeded_eigh();
        if seeded_failures == 0 {
            println!(
                "seeded eigh: reconstruction and cold eigenvalues within {SEEDED_TOL:.0e} over dims {}-{}",
                CHECK_DIMS.start(),
                CHECK_DIMS.end()
            );
        }
        failures += seeded_failures;

        let rows = measure_all();
        write_outputs(&rows);
        let dim8 = rows
            .iter()
            .find(|r| r.kernel == "matmul" && r.dim == 8)
            .expect("dim-8 matmul row");
        let speedup = dim8.speedup().expect("matmul has a naive twin");
        println!(
            "\ndim-8 matmul: blocked {:.1} ns vs naive {:.1} ns ({speedup:.2}x, gate {CHECK_MIN_SPEEDUP}x)",
            dim8.blocked_ns,
            dim8.naive_ns.unwrap_or(f64::NAN),
        );
        let mut failed = failures > 0;
        if speedup < CHECK_MIN_SPEEDUP {
            eprintln!(
                "FAIL: dim-8 matmul speedup {speedup:.2}x below pinned threshold {CHECK_MIN_SPEEDUP}x"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "\nOK: bit-identical and seeded eigh accurate over dims {}-{}, dim-8 matmul {speedup:.2}x >= {CHECK_MIN_SPEEDUP}x",
            CHECK_DIMS.start(),
            CHECK_DIMS.end()
        );
    } else {
        let rows = measure_all();
        write_outputs(&rows);
        println!("\nwrote results/grape_kernels.csv and BENCH_grape.json");
    }
}
