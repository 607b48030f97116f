//! `precompile_golden`: static pre-compilation (§IV, §V-C/D) of the five
//! golden-suite programs in a seed-shuffled order, through
//! `Session::precompile_parallel` on a cold 5-qubit session, then each
//! program served from the precompiled library (front end + all-hit
//! serve) the way a compile request after pre-compilation resolves.

use std::time::{Duration, Instant};

use accqoc::{ParallelStats, ServeOptions, ServeReport, Session};
use accqoc_bench::golden::{golden_dir, golden_session, GoldenCorpus, GOLDEN_FILE};
use accqoc_circuit::Circuit;
use accqoc_workloads::golden_suite;

use crate::check::{self, GoldenObservation};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats::{geomean, mean, median};
use crate::trace::{Tracer, UNIT};

/// Worker threads of the parallel executor.
const WORKERS: usize = 2;
/// Times each program is served from the precompiled library per unit
/// (5 programs × 40 rounds = 200 requests, well under 0.1 s).
const SERVE_ROUNDS: usize = 40;
/// Set-ups timed for `setup_s` (each unit uses one; the rest are extra).
const SETUPS: usize = 3;

/// What one timed unit measured.
struct Unit {
    session: Session,
    wall: f64,
    stats: ParallelStats,
    front_end_us: Vec<f64>,
    unique_groups: Vec<f64>,
    serve_us: Vec<f64>,
    first_reports: Vec<ServeReport>,
}

/// A cold session ready to serve: built, with the gate-based baseline's
/// pulse table calibrated (GRAPE on each basis gate — the work a session
/// otherwise does on its first served program). Returns its time too.
fn set_up() -> (Session, f64) {
    let t = Instant::now();
    let session = golden_session();
    std::hint::black_box(session.gate_durations());
    (session, t.elapsed().as_secs_f64())
}

fn unit(session: Session, circuits: &[Circuit], tracer: &Tracer) -> Result<Unit, String> {
    let unit_span = tracer.span(UNIT, None);
    let start = Instant::now();
    let stats = {
        let _s = tracer.span("parallel", None);
        let (_, stats) = session
            .precompile_parallel(circuits, WORKERS)
            .map_err(|e| e.to_string())?;
        // The workers' parallel section is GRAPE (plan build excluded).
        tracer.record("grape", None, Instant::now() - stats.wall, stats.wall);
        stats
    };
    let mut u = Unit {
        session,
        wall: 0.0,
        stats,
        front_end_us: Vec::new(),
        unique_groups: Vec::new(),
        serve_us: Vec::new(),
        first_reports: Vec::new(),
    };
    for round in 0..SERVE_ROUNDS {
        for (i, circuit) in circuits.iter().enumerate() {
            let request = Some((round * circuits.len() + i) as u64);
            let arrived = Instant::now();
            let grouped = {
                let _s = tracer.span("front_end", request);
                u.session.front_end(circuit)
            };
            let served = Instant::now();
            let report = {
                let _s = tracer.span("serve", request);
                u.session
                    .serve_grouped(&grouped, &ServeOptions::default())
                    .map_err(|e| e.to_string())?
            };
            let done = Instant::now();
            u.front_end_us.push((served - arrived).as_secs_f64() * 1e6);
            u.serve_us.push((done - served).as_secs_f64() * 1e6);
            u.unique_groups.push(grouped.n_unique() as f64);
            if round == 0 {
                u.first_reports.push(report);
            }
        }
    }
    u.wall = start.elapsed().as_secs_f64();
    drop(unit_span);
    eprintln!(
        "perfbench: precompile unit {:.3} s, {} GRAPE iterations, makespan {}",
        u.wall, u.stats.total_iterations, u.stats.makespan_iterations
    );
    Ok(u)
}

/// Coverage and exact fidelity of every program against the corpus.
fn check_outputs(
    out: &mut Outcome,
    names: &[String],
    circuits: &[Circuit],
    u: &Unit,
    corpus: &GoldenCorpus,
) {
    for ((name, circuit), report) in names.iter().zip(circuits).zip(&u.first_reports) {
        let exact_fidelity = match u.session.verify_program(circuit) {
            Ok(v) => v.exact_fidelity.unwrap_or(f64::NAN),
            Err(e) => {
                out.check(Some(format!("{name}: verification failed: {e}")));
                continue;
            }
        };
        out.check(check::golden(
            corpus,
            &GoldenObservation {
                name: name.clone(),
                coverage: report.coverage.rate(),
                exact_fidelity,
            },
        ));
    }
}

/// Runs the workload: set-up timings, then timed units within
/// `seconds` (a traced run times one untraced and one traced unit).
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut programs = golden_suite();
    Rng::new(seed, "precompile_golden.order").shuffle(&mut programs);
    let names: Vec<String> = programs.iter().map(|p| p.name.clone()).collect();
    let circuits: Vec<Circuit> = programs.into_iter().map(|p| p.circuit).collect();
    let corpus = match GoldenCorpus::load(golden_dir().join(GOLDEN_FILE)) {
        Ok(c) => c,
        Err(e) => {
            out.check(Some(format!("golden corpus unreadable: {e}")));
            return out;
        }
    };

    let mut setups = Vec::new();
    let units = match crate::time_units(
        seconds,
        tracer,
        &mut out,
        |_, tracer| {
            let (session, secs) = set_up();
            setups.push(secs);
            unit(session, &circuits, tracer)
        },
        |u| u.wall,
    ) {
        Ok(units) => units,
        Err(e) => {
            out.check(Some(format!("precompile failed: {e}")));
            return out;
        }
    };
    check_outputs(&mut out, &names, &circuits, &units[0], &corpus);
    let first = &units[0].stats;
    for u in &units[1..] {
        out.check(
            (u.stats.total_iterations != first.total_iterations).then(|| {
                format!(
                    "precompiles diverged: {} vs {} GRAPE iterations",
                    u.stats.total_iterations, first.total_iterations
                )
            }),
        );
    }

    while setups.len() < SETUPS {
        setups.push(set_up().1);
    }
    let walls: Vec<f64> = units.iter().map(|u| u.wall).collect();
    eprintln!(
        "perfbench: samples: wall_s {} units, setup_s {} set-ups",
        walls.len(),
        setups.len()
    );
    out.metrics.set("setup_s", median(&setups));
    out.metrics.set("wall_s", median(&walls));
    let reductions: Vec<f64> = units[0]
        .first_reports
        .iter()
        .map(ServeReport::latency_reduction)
        .collect();
    out.metrics.set("latency_reduction", geomean(&reductions));

    // Per-layer counts from the last unit (the traced one in a traced run).
    let u = units.last().expect("at least one unit ran");
    let s = &u.stats;
    let m = &mut out.metrics;
    m.set("front_end.us_p50", median(&u.front_end_us));
    m.set("front_end.calls", u.front_end_us.len() as f64);
    m.set("front_end.unique_groups_mean", mean(&u.unique_groups));
    m.set("serve.hit_call_us_p50", median(&u.serve_us));
    let lib = u.session.library().stats();
    m.set("library.hit_rate", lib.hit_rate());
    m.set("library.warm_share", lib.warm_share());
    m.set("library.evictions", lib.evictions as f64);
    m.set("library.entries", u.session.cache_len() as f64);
    m.set("grape.iterations", s.total_iterations as f64);
    let busy: Duration = s.worker_timings.iter().map(|t| t.wall).sum();
    m.set(
        "grape.ms_per_iteration",
        busy.as_secs_f64() * 1e3 / s.total_iterations.max(1) as f64,
    );
    m.set("parallel.makespan_iterations", s.makespan_iterations as f64);
    m.set("parallel.total_iterations", s.total_iterations as f64);
    m.set(
        "parallel.worker_busy_share",
        busy.as_secs_f64() / (WORKERS as f64 * s.wall.as_secs_f64()),
    );
    out
}
