//! `daemon_hits_zipf`: an in-process `Server` (default config) restored
//! through the recovery path from a warm golden-suite data dir, driven
//! by the open-loop generator with zipf(s = 1.1) golden programs and
//! `return_pulses = true`. Every group is a hit, so GRAPE does nothing:
//! the wire codec, event loop, queue, front end and library lock carry
//! the whole latency.
//!
//! The warm data dir is built once per benchmark build (keyed by a hash
//! of this executable) under `.perfbench/cache/`; every set-up restores
//! a fresh copy of it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use accqoc::{PersistOptions, PulseCache, ServeOptions, ServeReport, Session};
use accqoc_circuit::{to_qasm, Circuit};
use accqoc_hw::Topology;
use accqoc_server::{Call, Client, Payload, Request, Response, Server, ServerConfig};
use accqoc_workloads::golden_suite;

use crate::check;
use crate::loadgen::{self, Planned, Programs};
use crate::report::Outcome;
use crate::rng::{poisson_offsets, zipf_stream, Rng};
use crate::stats::{geomean, median, percentile};
use crate::trace::{Tracer, UNIT};

/// GRAPE iteration cap of the warm library (the golden corpus config).
const MAX_ITERS: usize = 200;
/// Zipf exponent over the golden programs (suite order is rank order).
const ZIPF_S: f64 = 1.1;
/// Generator connections (≤ the cores of the smallest supported box).
const CONNECTIONS: usize = 2;
/// Recoveries timed for `setup_s`.
const SETUPS: usize = 31;
/// Requests of each round's closed burst, whose wall time is `wall_s`.
const BURST_REQUESTS: usize = 400;
/// Requests in flight during the burst.
const BURST_WINDOW: usize = 8;
/// Offered rates of the ladder, requests/s. The first rung is the light
/// load, [`HEAVY_RUNG`] the heavy one.
const LADDER_RPS: [f64; 6] = [50.0, 100.0, 150.0, 200.0, 300.0, 400.0];
/// Index of the heavy rung in [`LADDER_RPS`].
const HEAVY_RUNG: usize = 3;
/// Requests per rung and round. Rungs pool across at least
/// [`MIN_ROUNDS`] rounds, so a p95 has the 200 samples it needs (ten
/// beyond it).
const RUNG_REQUESTS: usize = 110;
/// Rounds (burst + ladder) always run, whatever the time budget.
const MIN_ROUNDS: usize = 2;
/// How long after its last request falls due a phase waits for answers.
const TIMEOUT: Duration = Duration::from_secs(10);
/// A rung passes when its p95 stays within this (ms) and its queue
/// drains within it after the last request falls due.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// Closed-loop round trips of the traced per-request split.
const SEQUENTIAL_REQUESTS: usize = 120;
/// Replica timings per program for the per-layer split.
const REPLICA_REPS: usize = 15;

fn builder(dir: &Path) -> accqoc::SessionBuilder {
    let mut grape = accqoc_grape::GrapeOptions::default();
    grape.stop.max_iters = MAX_ITERS;
    Session::builder()
        .topology(Topology::linear(5))
        .grape(grape)
        .persistence_with(PersistOptions::new(dir))
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The warm golden data dir of this build: a snapshot of the first
/// three programs' precompiled groups plus WAL records for the rest, so
/// recovery exercises both halves of the store.
fn warm_library(circuits: &[Circuit]) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let build = fnv64(&std::fs::read(&exe).map_err(|e| e.to_string())?);
    let cache = crate::work_dir().join("cache");
    let dir = cache.join(format!("golden-{build:016x}"));
    if dir.join("complete").exists() {
        return Ok(dir);
    }
    if cache.exists() {
        std::fs::remove_dir_all(&cache).map_err(|e| e.to_string())?;
    }
    let building = crate::fresh_dir("cache/building");
    eprintln!("perfbench: building the warm golden library for this build");
    {
        let session = builder(&building).build().map_err(|e| e.to_string())?;
        session
            .precompile_parallel(&circuits[..3], 2)
            .map_err(|e| e.to_string())?;
        session.checkpoint().map_err(|e| e.to_string())?;
        session
            .precompile_parallel(&circuits[3..], 2)
            .map_err(|e| e.to_string())?;
    }
    std::fs::write(building.join("complete"), b"").map_err(|e| e.to_string())?;
    std::fs::rename(&building, &dir).map_err(|e| e.to_string())?;
    Ok(dir)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Copies the warm dir, then times recovery plus bind.
fn restore(warm: &Path, name: &str) -> Result<(Arc<Session>, Server, f64), String> {
    let dir = crate::work_dir().join("daemon").join(name);
    copy_dir(warm, &dir).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let session = Arc::new(builder(&dir).build().map_err(|e| e.to_string())?);
    let server = Server::bind(Arc::clone(&session), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| e.to_string())?;
    Ok((session, server, t.elapsed().as_secs_f64()))
}

/// The frame the daemon answers a `serve_program` request with when
/// `return_pulses` is set: `report` plus the pulses of its groups, as
/// the line protocol encodes them (id 0).
fn response_frame(session: &Session, report: ServeReport) -> Result<String, String> {
    let mut pulses = PulseCache::new();
    for group in &report.groups {
        let entry = session
            .cached(&group.key)
            .ok_or("a served group is missing from the library")?;
        pulses.insert(group.key.clone(), entry);
    }
    Ok(Response {
        id: 0,
        body: Ok(Payload::Serve {
            report,
            pulses: Some(pulses),
            missing: Vec::new(),
        }),
    }
    .encode())
}

/// Per-program wire frames and in-process replica timings.
struct Replica {
    names: Vec<String>,
    request_after_id: Vec<String>,
    expected_after_id: Vec<String>,
    unique_groups: Vec<f64>,
    front_end_us: Vec<f64>,
    serve_us: Vec<f64>,
    encode_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    reductions: Vec<f64>,
}

fn replica(session: &Session, names: Vec<String>, circuits: &[Circuit]) -> Result<Replica, String> {
    let mut r = Replica {
        names,
        request_after_id: Vec::new(),
        expected_after_id: Vec::new(),
        unique_groups: Vec::new(),
        front_end_us: Vec::new(),
        serve_us: Vec::new(),
        encode_ms: Vec::new(),
        decode_ms: Vec::new(),
        reductions: Vec::new(),
    };
    for circuit in circuits {
        let request = Request {
            id: 0,
            call: Call::ServeProgram {
                qasm: to_qasm(circuit),
                return_pulses: true,
                only_qubits: None,
            },
        }
        .encode();
        let tail = check::after_id(&request).ok_or("request frame does not lead with its id")?;
        r.request_after_id.push(tail.to_string());
        let (mut fe, mut sv, mut enc, mut dec) = (vec![], vec![], vec![], vec![]);
        let mut frame = String::new();
        let mut reduction = f64::NAN;
        let mut unique_groups = 0.0;
        for _ in 0..REPLICA_REPS {
            let t0 = Instant::now();
            let grouped = session.front_end(circuit);
            let t1 = Instant::now();
            unique_groups = grouped.n_unique() as f64;
            let report = session
                .serve_grouped(&grouped, &ServeOptions::default())
                .map_err(|e| e.to_string())?;
            if report.n_compiled > 0 {
                return Err("the restored library missed a golden group".into());
            }
            reduction = report.latency_reduction();
            let t2 = Instant::now();
            frame = response_frame(session, report)?;
            let t3 = Instant::now();
            std::hint::black_box(Response::decode(&frame)?);
            let t4 = Instant::now();
            fe.push((t1 - t0).as_secs_f64() * 1e6);
            sv.push((t2 - t1).as_secs_f64() * 1e6);
            enc.push((t3 - t2).as_secs_f64() * 1e3);
            dec.push((t4 - t3).as_secs_f64() * 1e3);
        }
        r.reductions.push(reduction);
        r.unique_groups.push(unique_groups);
        r.expected_after_id.push(
            check::after_id(&frame)
                .ok_or("response frame does not lead with its id")?
                .to_string(),
        );
        r.front_end_us.push(median(&fe));
        r.serve_us.push(median(&sv));
        r.encode_ms.push(median(&enc));
        r.decode_ms.push(median(&dec));
    }
    Ok(r)
}

fn zipf_plan(seed: u64, purpose: &str, n: usize, rate: Option<f64>, pool: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed, purpose);
    let programs = zipf_stream(&mut rng, pool, n, ZIPF_S);
    let offsets = rate.map_or_else(|| vec![0.0; n], |r| poisson_offsets(&mut rng, r, n));
    programs
        .into_iter()
        .zip(offsets)
        .map(|(program, offset)| Planned { offset, program })
        .collect()
}

/// Closed-loop round trips, one at a time, split into generator work,
/// replica-attributed front end / serve / codec time, and the server
/// residual (event loop, queue, socket hand-offs). Returns the phase
/// wall time and each request's residual, ms.
fn sequential(
    addr: SocketAddr,
    r: &Replica,
    plan: &[Planned],
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(f64, Vec<f64>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut residual_ms = Vec::with_capacity(plan.len());
    let mut line = String::new();
    let unit_span = tracer.span(UNIT, None);
    let start = Instant::now();
    for (k, p) in plan.iter().enumerate() {
        let request = Some(k as u64);
        let id = k as u64 + 1;
        let sent = {
            let _s = tracer.span("generator", request);
            let frame = format!("{{\"id\": {id}{}\n", r.request_after_id[p.program]);
            writer
                .write_all(frame.as_bytes())
                .map_err(|e| e.to_string())?;
            Instant::now()
        };
        let answered = {
            let _s = tracer.span("server", request);
            line.clear();
            reader.read_line(&mut line).map_err(|e| e.to_string())?;
            let answered = Instant::now();
            // The server-side layers, attributed from the in-process
            // replica of this program and laid end to end in the span.
            let mut at = sent;
            for (layer, secs) in [
                ("front_end", r.front_end_us[p.program] * 1e-6),
                ("serve", r.serve_us[p.program] * 1e-6),
                ("codec", r.encode_ms[p.program] * 1e-3),
            ] {
                let d = Duration::from_secs_f64(secs);
                tracer.record(layer, request, at, d);
                at += d;
            }
            answered
        };
        {
            let _s = tracer.span("generator", request);
            let frame = line.trim_end();
            let problem = match check::frame_id(frame) {
                Some(got) if got == id => {
                    check::frame(&r.names[p.program], frame, &r.expected_after_id[p.program])
                }
                _ => Some(format!("response id mismatch for request {id}")),
            };
            out.check(problem);
        }
        let replica_ms = r.front_end_us[p.program] * 1e-3
            + r.serve_us[p.program] * 1e-3
            + r.encode_ms[p.program];
        residual_ms.push((answered - sent).as_secs_f64() * 1e3 - replica_ms);
    }
    let wall = start.elapsed().as_secs_f64();
    drop(unit_span);
    Ok((wall, residual_ms))
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_into(seed, seconds, tracer, &mut out) {
        out.check(Some(e));
    }
    out
}

fn run_into(seed: u64, seconds: f64, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let suite = golden_suite();
    let names: Vec<String> = suite.iter().map(|p| p.name.clone()).collect();
    let circuits: Vec<Circuit> = suite.into_iter().map(|p| p.circuit).collect();
    let warm = warm_library(&circuits)?;

    // Set-up: recovery plus bind, several times; the last one serves.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut restored = None;
    for i in 0..SETUPS {
        let (session, server, secs) = restore(&warm, &format!("setup{}", i % 2))?;
        setups.push(secs);
        restored = Some((session, server));
    }
    let (session, server) = restored.expect("SETUPS > 0");
    out.metrics.set("setup_s", median(&setups));
    if let Some(report) = session.recovery_report() {
        out.metrics.set("store.recovery_ms", median(&setups) * 1e3);
        out.metrics
            .set("store.recovered_entries", report.entries as f64);
        out.metrics
            .set("store.wal_records", report.wal_records as f64);
    }

    // The in-process replica: expected frames and per-layer timings.
    let (replica_session, _, _) = restore(&warm, "replica")?;
    let r = replica(&replica_session, names, &circuits)?;
    drop(replica_session);

    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    let result = drive(seed, seconds, tracer, out, addr, &r);
    // Always stop the daemon, even after a failed phase.
    let stopped = Client::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
    let counters = thread
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    stopped?;
    result?;
    let m = &mut out.metrics;
    m.set(
        "server.busy_rejections",
        counters.requests_rejected_busy as f64,
    );
    m.set("server.coalesced_waits", counters.coalesced_waits as f64);
    m.set("server.protocol_errors", counters.protocol_errors as f64);
    let lib = session.library().stats();
    m.set("library.hit_rate", lib.hit_rate());
    m.set("library.warm_share", lib.warm_share());
    m.set("library.evictions", lib.evictions as f64);
    m.set("library.entries", session.cache_len() as f64);
    out.check((lib.misses > 0).then(|| format!("{} groups missed the warm library", lib.misses)));
    Ok(())
}

fn drive(
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    out: &mut Outcome,
    addr: SocketAddr,
    r: &Replica,
) -> Result<(), String> {
    let pool = r.names.len();
    let programs = Programs {
        names: &r.names,
        request_after_id: &r.request_after_id,
        expected_after_id: &r.expected_after_id,
    };
    let m = &mut out.metrics;
    m.set("latency_reduction", geomean(&r.reductions));
    m.set("front_end.us_p50", median(&r.front_end_us));
    m.set("front_end.calls", (REPLICA_REPS * pool) as f64);
    m.set(
        "front_end.unique_groups_mean",
        crate::stats::mean(&r.unique_groups),
    );
    m.set("serve.hit_call_us_p50", median(&r.serve_us));
    m.set("codec.encode_ms_p50", median(&r.encode_ms));
    m.set("codec.decode_ms_p50", median(&r.decode_ms));

    // Warm up before timing: the daemon session's first request also
    // calibrates the gate-based baseline (GRAPE on each basis gate).
    let plan = zipf_plan(seed, "daemon_hits_zipf.warmup", 20, None, pool);
    sequential(addr, r, &plan, &Tracer::new(false), out)?;
    if tracer.enabled() {
        let plan = zipf_plan(
            seed,
            "daemon_hits_zipf.sequential",
            SEQUENTIAL_REQUESTS,
            None,
            pool,
        );
        let (untraced, _) = sequential(addr, r, &plan, &Tracer::new(false), out)?;
        let (traced, residual) = sequential(addr, r, &plan, tracer, out)?;
        out.metrics
            .set("trace.overhead_share", traced / untraced - 1.0);
        out.metrics.set("server.residual_ms_p50", median(&residual));
    }

    // Rounds of a closed burst (a fixed batch, bounded window) and the
    // open-loop ladder; rung samples pool across rounds.
    let mut bursts = Vec::new();
    let mut burst_total = loadgen::Phase::default();
    let mut rungs: Vec<loadgen::Phase> = LADDER_RPS
        .iter()
        .map(|_| loadgen::Phase::default())
        .collect();
    let mut failure = None;
    crate::repeat_within(seconds, MIN_ROUNDS, |round| {
        let started = Instant::now();
        let result = (|| -> Result<(), String> {
            let plan = zipf_plan(
                seed,
                &format!("daemon_hits_zipf.burst{round}"),
                BURST_REQUESTS,
                None,
                pool,
            );
            let burst = loadgen::run(addr, &programs, &plan, CONNECTIONS, BURST_WINDOW, TIMEOUT)
                .map_err(|e| format!("burst: {e}"))?;
            out.attempted += burst.sent as u64;
            out.failed += burst.failed as u64;
            out.mismatches
                .extend(burst.mismatches.iter().take(5).cloned());
            bursts.push(burst.wall);
            // Burst requests are due at once and wait for the window by
            // design: their lateness is not generator lag.
            absorb(
                &mut burst_total,
                loadgen::Phase {
                    lag_ms: Vec::new(),
                    ..burst
                },
            );
            for (i, &rate) in LADDER_RPS.iter().enumerate() {
                let purpose = format!("daemon_hits_zipf.round{round}.rung{i}");
                let plan = zipf_plan(seed, &purpose, RUNG_REQUESTS, Some(rate), pool);
                let phase = loadgen::run(addr, &programs, &plan, CONNECTIONS, usize::MAX, TIMEOUT)
                    .map_err(|e| format!("rung {rate} rps: {e}"))?;
                out.attempted += phase.sent as u64;
                out.failed += phase.failed as u64;
                out.mismatches
                    .extend(phase.mismatches.iter().take(5).cloned());
                absorb(&mut rungs[i], phase);
            }
            Ok(())
        })();
        if let Err(e) = result {
            failure = Some(e);
            return f64::INFINITY;
        }
        started.elapsed().as_secs_f64()
    });
    if let Some(e) = failure {
        return Err(e);
    }

    let mut max_rate = 0.0;
    let mut climbing = true;
    for (rung, rate) in rungs.iter().zip(LADDER_RPS) {
        let p50 = percentile(&rung.latency_ms, 0.5).unwrap_or(f64::NAN);
        let p95 = percentile(&rung.latency_ms, 0.95).unwrap_or(f64::INFINITY);
        let passed =
            rung.failed == 0 && p95 <= LATENCY_LIMIT_MS && rung.drain * 1e3 <= LATENCY_LIMIT_MS;
        climbing &= passed;
        if climbing {
            max_rate = rung.succeeded as f64 / rung.wall;
        }
        eprintln!(
            "perfbench: {rate:>5} rps x {}: p50 {p50:.2} ms, p95 {p95:.2} ms, worst drain {:.1} ms{}",
            rung.sent,
            rung.drain * 1e3,
            if passed { "" } else { " (misses the limit)" }
        );
    }
    let lag: Vec<f64> = rungs
        .iter()
        .flat_map(|r| r.lag_ms.iter().copied())
        .collect();
    let phases = || rungs.iter().chain(std::iter::once(&burst_total));
    let sent: usize = phases().map(|p| p.sent).sum();
    let succeeded: usize = phases().map(|p| p.succeeded).sum();
    let bytes: u64 = phases().map(|p| p.response_bytes).sum();
    eprintln!(
        "perfbench: samples: wall_s {} bursts, light rung {} requests, setup_s {SETUPS} recoveries",
        bursts.len(),
        rungs[0].latency_ms.len()
    );
    let m = &mut out.metrics;
    m.set("wall_s", median(&bursts));
    m.set(
        "load.request_p50_ms.light",
        percentile(&rungs[0].latency_ms, 0.5).unwrap_or(f64::NAN),
    );
    m.set(
        "load.request_p95_ms.light",
        percentile(&rungs[0].latency_ms, 0.95).unwrap_or(f64::NAN),
    );
    m.set(
        "load.request_p50_ms.heavy",
        percentile(&rungs[HEAVY_RUNG].latency_ms, 0.5).unwrap_or(f64::NAN),
    );
    m.set(
        "load.request_p95_ms.heavy",
        percentile(&rungs[HEAVY_RUNG].latency_ms, 0.95).unwrap_or(f64::NAN),
    );
    m.set("load.max_rate_rps", max_rate);
    m.set(
        "generator.lag_ms_p99",
        percentile(&lag, 0.99).unwrap_or(f64::NAN),
    );
    m.set("generator.sent", sent as f64);
    m.set("generator.succeeded", succeeded as f64);
    m.set("generator.failed", (sent - succeeded) as f64);
    m.set(
        "codec.response_bytes_mean",
        bytes as f64 / succeeded.max(1) as f64,
    );
    Ok(())
}

/// Pools one rung's samples into the running totals of that rung: the
/// rung's wall sums, its drain is the worst seen.
fn absorb(total: &mut loadgen::Phase, phase: loadgen::Phase) {
    total.latency_ms.extend(phase.latency_ms);
    total.lag_ms.extend(phase.lag_ms);
    total.sent += phase.sent;
    total.succeeded += phase.succeeded;
    total.failed += phase.failed;
    total.response_bytes += phase.response_bytes;
    total.wall += phase.wall;
    total.drain = total.drain.max(phase.drain);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_a_function_of_the_seed() {
        let rung = |seed| zipf_plan(seed, "daemon_hits_zipf.round0.rung0", 60, Some(100.0), 5);
        assert_eq!(rung(1), rung(1));
        assert_ne!(rung(1), rung(2));
        assert!(rung(1).windows(2).all(|w| w[0].offset < w[1].offset));
        let burst = zipf_plan(1, "daemon_hits_zipf.burst0", 60, None, 5);
        assert!(burst.iter().all(|p| p.offset == 0.0 && p.program < 5));
    }
}
