//! `serve_uccsd_zipf`: a cold durable session (fresh persistence dir)
//! serving a zipf(s = 1.1) arrival stream over the UCCSD θ-grid. Nearly
//! every compile warm-starts from a fingerprint neighbour; hits sit
//! beside library writes (indexed insert + WAL append per compile), and
//! the unit ends with a checkpoint, as a clean shutdown would.

use std::collections::BTreeSet;
use std::time::Instant;

use accqoc::{PersistOptions, ServeOptions, Session};
use accqoc_circuit::Circuit;
use accqoc_hw::Topology;
use accqoc_workloads::{theta_grid, uccsd_family};

use crate::report::Outcome;
use crate::rng::{zipf_stream, Rng};
use crate::stats::{geomean, median};
use crate::trace::{Tracer, UNIT};

/// Register width of the family (fits the 5-qubit device).
const QUBITS: usize = 4;
/// Excitation slices per program.
const SLICES: usize = 1;
/// θ-grid points: the program pool.
const GRID: usize = 13;
/// Arrivals per stream. Enough that nearly every grid point arrives
/// under any seed, so the compile work is about the same per seed.
const ARRIVALS: usize = 200;
/// Zipf exponent of the arrival stream.
const ZIPF_S: f64 = 1.1;
/// GRAPE iteration cap, as in the serving `--check` gates.
const MAX_ITERS: usize = 300;
/// Set-ups timed for `setup_s` (each unit uses one; the rest are extra).
const SETUPS: usize = 3;

fn session(dir: &std::path::Path) -> Result<Session, accqoc::Error> {
    let mut grape = accqoc_grape::GrapeOptions::default();
    grape.stop.max_iters = MAX_ITERS;
    Session::builder()
        .topology(Topology::linear(5))
        .grape(grape)
        .persistence_with(PersistOptions::new(dir))
        .build()
}

/// One stream served on a cold durable session.
struct Unit {
    session: Session,
    wall: f64,
    front_end_us: Vec<f64>,
    unique_groups: Vec<f64>,
    hit_call_us: Vec<f64>,
    compile_s: f64,
    compiled_groups: usize,
    iterations: usize,
    checkpoint_ms: f64,
    reductions: Vec<(usize, f64)>,
}

/// A cold durable session on the fresh dir `name`, ready to serve: built
/// (recovering the empty dir), with the gate-based baseline's pulse
/// table calibrated (GRAPE on each basis gate — the work a session
/// otherwise does on its first arrival). Returns its time too.
fn set_up(name: &str) -> Result<(Session, f64), String> {
    let dir = crate::fresh_dir(name);
    let t = Instant::now();
    let session = session(&dir).map_err(|e| e.to_string())?;
    std::hint::black_box(session.gate_durations());
    Ok((session, t.elapsed().as_secs_f64()))
}

fn unit(
    session: Session,
    family: &[Circuit],
    arrivals: &[usize],
    tracer: &Tracer,
) -> Result<Unit, String> {
    let mut u = Unit {
        session,
        wall: 0.0,
        front_end_us: Vec::new(),
        unique_groups: Vec::new(),
        hit_call_us: Vec::new(),
        compile_s: 0.0,
        compiled_groups: 0,
        iterations: 0,
        checkpoint_ms: 0.0,
        reductions: Vec::new(),
    };
    let unit_span = tracer.span(UNIT, None);
    let start = Instant::now();
    for (k, &program) in arrivals.iter().enumerate() {
        let request = Some(k as u64);
        let arrived = Instant::now();
        let grouped = {
            let _s = tracer.span("front_end", request);
            u.session.front_end(&family[program])
        };
        let served = Instant::now();
        let report = {
            let _s = tracer.span("serve", request);
            let report = u
                .session
                .serve_grouped(&grouped, &ServeOptions::default())
                .map_err(|e| e.to_string())?;
            if report.n_compiled > 0 {
                // A compiling call is GRAPE time (latency search and
                // warm-started optimisation) bar a hit path of ~0.1 ms.
                tracer.record("grape", request, served, served.elapsed());
            }
            report
        };
        let call = served.elapsed();
        u.front_end_us.push((served - arrived).as_secs_f64() * 1e6);
        u.unique_groups.push(grouped.n_unique() as f64);
        if report.n_compiled > 0 {
            u.compile_s += call.as_secs_f64();
            u.compiled_groups += report.n_compiled;
            u.iterations += report.dynamic_iterations;
        } else {
            u.hit_call_us.push(call.as_secs_f64() * 1e6);
        }
        u.reductions.push((program, report.latency_reduction()));
    }
    {
        let _s = tracer.span("store", None);
        let t = Instant::now();
        u.session.checkpoint().map_err(|e| e.to_string())?;
        u.checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    }
    u.wall = start.elapsed().as_secs_f64();
    drop(unit_span);
    eprintln!(
        "perfbench: serve unit {:.3} s, {} groups compiled, {} GRAPE iterations",
        u.wall, u.compiled_groups, u.iterations
    );
    Ok(u)
}

/// Runs the workload: timed cold streams within `seconds` (a traced
/// run times one untraced and one traced stream), then the checks.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let family: Vec<Circuit> = uccsd_family(QUBITS, SLICES, &theta_grid(GRID))
        .into_iter()
        .map(|p| p.circuit)
        .collect();
    let arrivals = zipf_stream(
        &mut Rng::new(seed, "serve_uccsd_zipf.arrivals"),
        GRID,
        ARRIVALS,
        ZIPF_S,
    );

    let mut setups = Vec::new();
    let mut units = match crate::time_units(
        seconds,
        tracer,
        &mut out,
        |index, tracer| {
            let (session, secs) = set_up(&format!("serve/unit{index}"))?;
            setups.push(secs);
            unit(session, &family, &arrivals, tracer)
        },
        |u| u.wall,
    ) {
        Ok(units) => units,
        Err(e) => {
            out.check(Some(format!("serving failed: {e}")));
            return out;
        }
    };

    // The verification oracle on each distinct program served, and the
    // same stream's latencies from every unit (a cold stream is
    // deterministic).
    let first = &units[0];
    let distinct: BTreeSet<usize> = arrivals.iter().copied().collect();
    for &program in &distinct {
        out.check(match first.session.verify_program(&family[program]) {
            Ok(v) if v.passed => None,
            Ok(v) => Some(format!(
                "uccsd program {program}: verification failed (min group fidelity {})",
                v.min_group_fidelity
            )),
            Err(e) => Some(format!("uccsd program {program}: {e}")),
        });
    }
    for u in &units[1..] {
        out.check(
            (u.iterations != first.iterations || u.reductions != first.reductions).then(|| {
                format!(
                    "cold streams diverged: {} vs {} GRAPE iterations",
                    u.iterations, first.iterations
                )
            }),
        );
    }
    // Durability: reopening the data dir recovers the served library.
    let u = units.pop().expect("at least one unit ran");
    let entries = u.session.cache_len();
    let lib = u.session.library().stats();
    drop(u.session);
    let dir = crate::work_dir().join(format!("serve/unit{}", units.len()));
    let t = Instant::now();
    let recovered = session(&dir);
    let recovery = t.elapsed();
    let m = &mut out.metrics;
    match recovered.as_ref().map(|s| s.recovery_report().cloned()) {
        Ok(Some(r)) => {
            m.set("store.recovery_ms", recovery.as_secs_f64() * 1e3);
            m.set("store.recovered_entries", r.entries as f64);
            m.set("store.wal_records", r.wal_records as f64);
            out.check((r.entries != entries).then(|| {
                format!(
                    "recovered {} entries, served library held {entries}",
                    r.entries
                )
            }));
        }
        Ok(None) => out.check(Some("durable session has no recovery report".into())),
        Err(e) => out.check(Some(format!("reopening the data dir failed: {e}"))),
    }

    while setups.len() < SETUPS {
        match set_up(&format!("serve/setup{}", setups.len())) {
            Ok((_, secs)) => setups.push(secs),
            Err(e) => {
                out.check(Some(format!("durable session set-up failed: {e}")));
                break;
            }
        }
    }
    let mut walls: Vec<f64> = units.iter().map(|u| u.wall).collect();
    walls.push(u.wall);
    eprintln!(
        "perfbench: samples: wall_s {} units, setup_s {} set-ups",
        walls.len(),
        setups.len()
    );
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    m.set("wall_s", median(&walls));
    let reductions: Vec<f64> = distinct
        .iter()
        .map(|&p| {
            u.reductions
                .iter()
                .find(|(q, _)| *q == p)
                .map_or(f64::NAN, |r| r.1)
        })
        .collect();
    m.set("latency_reduction", geomean(&reductions));

    m.set("front_end.us_p50", median(&u.front_end_us));
    m.set("front_end.calls", u.front_end_us.len() as f64);
    m.set(
        "front_end.unique_groups_mean",
        crate::stats::mean(&u.unique_groups),
    );
    m.set("serve.hit_call_us_p50", median(&u.hit_call_us));
    m.set(
        "serve.compile_s_per_group",
        u.compile_s / u.compiled_groups.max(1) as f64,
    );
    m.set("library.hit_rate", lib.hit_rate());
    m.set("library.warm_share", lib.warm_share());
    m.set("library.evictions", lib.evictions as f64);
    m.set("library.entries", entries as f64);
    m.set("grape.iterations", u.iterations as f64);
    m.set(
        "grape.ms_per_iteration",
        u.compile_s * 1e3 / u.iterations.max(1) as f64,
    );
    m.set("grape.warm_iterations_mean", lib.mean_warm_iterations());
    m.set(
        "grape.scratch_iterations_mean",
        lib.mean_scratch_iterations(),
    );
    m.set("store.checkpoint_ms", u.checkpoint_ms);
    out
}
