//! Parameterized-workload serving experiment: replay the UCCSD θ-grid
//! family as zipf-weighted arrival traffic and measure how much of the
//! GRAPE cost the pulse library amortizes across the sweep.
//!
//! This is the regime the paper's similarity machinery was built for:
//! adjacent grid points are *nearly identical* unitaries, so nearly
//! every compile should be rescued by a fingerprint warm start — far
//! above the fixed golden suite's intrinsic similarity budget.
//!
//! Modes:
//!
//! - default: sweep θ-grid densities (coarse → fine, plus a
//!   capacity-bounded run that forces evictions) and record warm share,
//!   exact-hit share, mean warm-vs-scratch iterations, and eviction
//!   counts per density. Honors `ACCQOC_FAST=1`.
//! - `--check`: the default-density stream served three ways — in
//!   process, through the daemon with 1 client, and through the daemon
//!   with 2 concurrent clients (in-flight coalescing makes the replay
//!   deterministic). Exits non-zero unless the warm share clears the
//!   pinned 0.80 gate, warm compiles are cheaper than scratch on mean
//!   GRAPE iterations, and every daemon serving is byte-identical to
//!   the in-process baseline across both client counts. The CI
//!   `uccsd-smoke` gate.
//!
//! Both modes write per-serving rows to `results/uccsd_serve.csv`. The
//! sweep writes its density summary to `BENCH_uccsd.json` at the
//! working-directory root, the committed trajectory; `--check` writes its
//! single-density summary (plus the daemon byte-identity flags) to
//! `results/uccsd_check.json` and leaves `BENCH_uccsd.json` to the sweep.

use std::sync::Arc;

use accqoc::json::JsonValue;
use accqoc::{LibraryStats, PulseCache, ServeReport, Session, SessionBuilder};
use accqoc_bench::{fast_mode, print_table, write_csv};
use accqoc_circuit::Circuit;
use accqoc_hw::Topology;
use accqoc_server::{Client, Server, ServerConfig};
use accqoc_workloads::{theta_grid, uccsd_family, zipf_arrivals, DEFAULT_GRID_POINTS};

/// Pinned CI threshold: warm-start share of compiles on the default
/// θ-grid stream. The family is engineered so every grid point past the
/// first warm-starts from its neighbor, which measures well above this;
/// the golden suite's fixed circuits manage only 0.550. A broken
/// fingerprint index, warm-start gate, or θ-grid spacing drops it hard.
const CHECK_WARM_SHARE: f64 = 0.80;

/// Register width of the benchmark family (fits the 5-qubit golden
/// device and the exact verification oracle).
const UCCSD_QUBITS: usize = 4;

/// Ansatz depth: slices per program.
const UCCSD_SLICES: usize = 3;

/// Zipf exponent of the arrival stream — slightly hotter than the
/// rank-weighted default, so re-arrivals (exact hits) show up alongside
/// the warm misses.
const ZIPF_EXPONENT: f64 = 1.1;

/// Arrival-stream seed.
const STREAM_SEED: u64 = 0x0CC5;

/// Daemon replays checked under `--check`: the same stream from 1
/// client, then from 2 concurrent clients.
const CLIENT_COUNTS: [usize; 2] = [1, 2];

/// Library bound of the "capped" density row (default mode): small
/// enough that the θ-sweep's working set rotates and evictions are
/// nonzero.
const CAPPED_CAPACITY: usize = 4;

const HEADER: [&str; 8] = [
    "phase",
    "client",
    "arrival",
    "program",
    "compiled",
    "warm",
    "iterations",
    "identical",
];

struct Row {
    phase: String,
    client: usize,
    arrival: usize,
    program: String,
    report: ServeReport,
    /// `None` when there is no byte-identity reference (default mode).
    identical: Option<bool>,
}

impl Row {
    fn cells(&self) -> Vec<String> {
        vec![
            self.phase.clone(),
            self.client.to_string(),
            self.arrival.to_string(),
            self.program.clone(),
            self.report.n_compiled.to_string(),
            self.report.n_warm_started.to_string(),
            self.report.dynamic_iterations.to_string(),
            self.identical.map_or_else(|| "-".into(), |b| b.to_string()),
        ]
    }
}

/// One density's cumulative counters for the summary table / JSON.
struct DensityStats {
    density: String,
    grid_points: usize,
    servings: usize,
    stats: LibraryStats,
}

impl DensityStats {
    fn json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("density".into(), JsonValue::String(self.density.clone())),
            (
                "grid_points".into(),
                JsonValue::Number(self.grid_points as f64),
            ),
            ("servings".into(), JsonValue::Number(self.servings as f64)),
            (
                "compiles".into(),
                JsonValue::Number(self.stats.misses as f64),
            ),
            (
                "warm_share".into(),
                JsonValue::Number(self.stats.warm_share()),
            ),
            (
                "exact_hit_share".into(),
                JsonValue::Number(self.stats.hit_rate()),
            ),
            (
                "mean_warm_iterations".into(),
                JsonValue::Number(self.stats.mean_warm_iterations()),
            ),
            (
                "mean_scratch_iterations".into(),
                JsonValue::Number(self.stats.mean_scratch_iterations()),
            ),
            (
                "evictions".into(),
                JsonValue::Number(self.stats.evictions as f64),
            ),
        ])
    }

    fn summary_cells(&self) -> Vec<String> {
        vec![
            self.density.clone(),
            self.grid_points.to_string(),
            self.servings.to_string(),
            self.stats.misses.to_string(),
            format!("{:.3}", self.stats.warm_share()),
            format!("{:.3}", self.stats.hit_rate()),
            format!("{:.1}", self.stats.mean_warm_iterations()),
            format!("{:.1}", self.stats.mean_scratch_iterations()),
            self.stats.evictions.to_string(),
        ]
    }
}

const SUMMARY_HEADER: [&str; 9] = [
    "density",
    "grid_points",
    "servings",
    "compiles",
    "warm_share",
    "exact_hit_share",
    "warm_iters",
    "scratch_iters",
    "evictions",
];

/// Mirrors the other serving checks: 5-qubit linear device,
/// 300-iteration GRAPE cap, stock similarity/warm-start config.
fn golden_builder() -> SessionBuilder {
    let mut grape = accqoc_grape::GrapeOptions::default();
    grape.stop.max_iters = 300;
    Session::builder()
        .topology(Topology::linear(5))
        .grape(grape)
}

/// The zipf arrival stream over a `points`-point θ-grid family: two
/// arrivals per grid point on average, so re-arrivals exercise exact
/// hits while fresh grid points exercise warm misses.
fn stream_for(points: usize) -> Vec<(String, Circuit)> {
    let family = uccsd_family(UCCSD_QUBITS, UCCSD_SLICES, &theta_grid(points));
    zipf_arrivals(family.len(), family.len() * 2, ZIPF_EXPONENT, STREAM_SEED)
        .into_iter()
        .map(|i| (family[i].name.clone(), family[i].circuit.clone()))
        .collect()
}

/// The per-serving artifact: the served groups' entries, serialized
/// deterministically (the byte-identity unit of comparison). A
/// capacity-bounded library can evict a group served earlier in the
/// same program before we read it back (the capped sweep phase); the
/// artifact then holds the surviving entries. The byte-identity check
/// phases run unbounded, where every served group is still cached.
fn serving_artifact(session: &Session, report: &ServeReport) -> String {
    let mut cache = PulseCache::new();
    for group in &report.groups {
        if let Some(entry) = session.cached(&group.key) {
            cache.insert(group.key.clone(), entry);
        }
    }
    cache.to_json()
}

/// Serves a stream in-process, returning rows plus the byte-identity
/// reference (per-serving artifact + report) for daemon comparison.
fn serve_in_process(
    session: &Session,
    stream: &[(String, Circuit)],
    phase: &str,
) -> (Vec<Row>, Vec<(ServeReport, String)>) {
    let mut rows = Vec::with_capacity(stream.len());
    let mut reference = Vec::with_capacity(stream.len());
    for (arrival, (name, circuit)) in stream.iter().enumerate() {
        let report = session.serve_program(circuit).expect("stream serves");
        let artifact = serving_artifact(session, &report);
        rows.push(Row {
            phase: phase.to_string(),
            client: 0,
            arrival,
            program: name.clone(),
            report: report.clone(),
            identical: None,
        });
        reference.push((report, artifact));
    }
    (rows, reference)
}

/// Replays the stream through a fresh daemon from `n_clients` concurrent
/// connections (each sending the full stream in order) and scores every
/// response byte-for-byte against the in-process reference. Returns the
/// rows, the mismatch count, and the daemon's final state for
/// library-level comparison.
fn daemon_replay(
    stream: &[(String, Circuit)],
    reference: &[(ServeReport, String)],
    n_clients: usize,
) -> (Vec<Row>, usize, Arc<Session>, LibraryStats) {
    let session = Arc::new(golden_builder().build().expect("daemon session"));
    let server = Server::bind(Arc::clone(&session), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());
    let phase = format!("daemon{n_clients}");

    let results: Vec<Vec<Row>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_clients)
            .map(|client_idx| {
                let phase = &phase;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    stream
                        .iter()
                        .zip(reference)
                        .enumerate()
                        .map(
                            |(arrival, ((name, circuit), (expected, expected_artifact)))| {
                                let (report, pulses) =
                                    client.serve_program(circuit, true).expect("daemon serves");
                                let identical = pulses
                                    .as_ref()
                                    .map(|p| p.to_json() == *expected_artifact)
                                    .unwrap_or(false)
                                    && report.overall_latency_ns == expected.overall_latency_ns;
                                Row {
                                    phase: phase.clone(),
                                    client: client_idx,
                                    arrival,
                                    program: name.clone(),
                                    report,
                                    identical: Some(identical),
                                }
                            },
                        )
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    let mut shutdown = Client::connect(addr).expect("shutdown client");
    let stats = shutdown.stats().expect("stats");
    shutdown.shutdown().expect("shutdown");
    server_thread
        .join()
        .expect("server thread")
        .expect("server ran cleanly");

    let rows: Vec<Row> = results.into_iter().flatten().collect();
    let mismatches = rows.iter().filter(|r| r.identical == Some(false)).count();
    (rows, mismatches, session, stats.library)
}

/// Writes the density summary to `path`.
fn write_summary_json(path: &str, densities: &[DensityStats], daemon: Option<JsonValue>) {
    let mut fields = vec![
        (
            "workload".into(),
            JsonValue::String(format!(
                "uccsd_{UCCSD_QUBITS}_{UCCSD_SLICES} zipf(s={ZIPF_EXPONENT})"
            )),
        ),
        (
            "densities".into(),
            JsonValue::Array(densities.iter().map(DensityStats::json).collect()),
        ),
    ];
    if let Some(daemon) = daemon {
        fields.push(("daemon".into(), daemon));
    }
    let text = JsonValue::Object(fields).to_pretty() + "\n";
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(path, text).ok();
}

fn write_table(rows: &[Row]) {
    let cells: Vec<Vec<String>> = rows.iter().map(Row::cells).collect();
    print_table(&HEADER, &cells);
    write_csv("uccsd_serve.csv", &HEADER, &cells).ok();
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    if check {
        run_check();
    } else {
        run_sweep();
    }
}

fn run_sweep() {
    println!("UCCSD θ-grid family — serving sweep over grid densities\n");
    let densities: &[(&str, usize)] = if fast_mode() {
        &[("coarse", 3), ("default", 5)]
    } else {
        &[
            ("coarse", 5),
            ("default", DEFAULT_GRID_POINTS),
            ("fine", 13),
        ]
    };
    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    for &(density, points) in densities {
        let stream = stream_for(points);
        let session = golden_builder().build().expect("sweep session");
        let (density_rows, _) = serve_in_process(&session, &stream, density);
        rows.extend(density_rows);
        summaries.push(DensityStats {
            density: density.to_string(),
            grid_points: points,
            servings: stream.len(),
            stats: session.library().stats(),
        });
    }
    // A capacity-bounded run at the default density: the θ-sweep working
    // set no longer fits, so the LRU rotates and evictions are nonzero.
    let capped_points = densities.last().map_or(DEFAULT_GRID_POINTS, |d| d.1);
    let stream = stream_for(capped_points);
    let session = golden_builder()
        .library_capacity(CAPPED_CAPACITY)
        .build()
        .expect("capped session");
    let (capped_rows, _) = serve_in_process(&session, &stream, "capped");
    rows.extend(capped_rows);
    summaries.push(DensityStats {
        density: format!("capped({CAPPED_CAPACITY})"),
        grid_points: capped_points,
        servings: stream.len(),
        stats: session.library().stats(),
    });

    write_table(&rows);
    println!();
    let cells: Vec<Vec<String>> = summaries.iter().map(DensityStats::summary_cells).collect();
    print_table(&SUMMARY_HEADER, &cells);
    write_summary_json("BENCH_uccsd.json", &summaries, None);
    println!("\nwrote results/uccsd_serve.csv and BENCH_uccsd.json");
}

fn run_check() {
    println!(
        "UCCSD θ-grid family — serving check ({}-point grid, zipf s={ZIPF_EXPONENT})\n",
        DEFAULT_GRID_POINTS
    );
    let stream = stream_for(DEFAULT_GRID_POINTS);

    // In-process baseline: the byte-identity reference and the gated
    // warm-share measurement.
    let baseline_session = golden_builder().build().expect("baseline session");
    let (mut rows, reference) = serve_in_process(&baseline_session, &stream, "baseline");
    let stats = baseline_session.library().stats();

    // Daemon replays: same stream, 1 client then 2 concurrent clients.
    // Coalescing compiles each group exactly once against the sequential
    // prefix state, so both must be byte-identical to the baseline.
    let mut total_mismatches = 0usize;
    let mut daemon_fields = Vec::new();
    let mut daemon_snapshots = Vec::new();
    let mut coalescing_ok = true;
    for &n_clients in &CLIENT_COUNTS {
        let (daemon_rows, mismatches, session, daemon_stats) =
            daemon_replay(&stream, &reference, n_clients);
        println!(
            "daemon x{n_clients}: {} responses, {} mismatched, {} compiles (baseline {})",
            daemon_rows.len(),
            mismatches,
            daemon_stats.misses,
            stats.misses,
        );
        if daemon_stats.misses != stats.misses {
            coalescing_ok = false;
        }
        total_mismatches += mismatches;
        daemon_fields.push((
            format!("clients_{n_clients}_byte_identical"),
            JsonValue::Bool(mismatches == 0),
        ));
        daemon_snapshots.push(session.cache_snapshot().to_json());
        rows.extend(daemon_rows);
    }
    write_table(&rows);

    let warm_share = stats.warm_share();
    let warm_cheaper = stats.mean_warm_iterations() < stats.mean_scratch_iterations();
    let baseline_snapshot = baseline_session.cache_snapshot().to_json();
    let snapshots_identical = daemon_snapshots.iter().all(|s| *s == baseline_snapshot);

    println!();
    println!(
        "compiles: {} ({} warm / {} scratch), exact hits: {} ({} servings)",
        stats.misses,
        stats.warm_compiles,
        stats.scratch_compiles,
        stats.hits,
        stream.len(),
    );
    println!(
        "warm share {warm_share:.3} (gate {CHECK_WARM_SHARE}), mean iterations warm {:.1} vs scratch {:.1}",
        stats.mean_warm_iterations(),
        stats.mean_scratch_iterations(),
    );

    write_summary_json(
        "results/uccsd_check.json",
        &[DensityStats {
            density: "default".into(),
            grid_points: DEFAULT_GRID_POINTS,
            servings: stream.len(),
            stats,
        }],
        Some(JsonValue::Object(daemon_fields)),
    );

    let mut failed = false;
    if stats.misses == 0 {
        eprintln!("FAIL: the stream compiled nothing");
        failed = true;
    }
    if warm_share < CHECK_WARM_SHARE {
        eprintln!(
            "FAIL: warm-start share {warm_share:.3} below pinned threshold {CHECK_WARM_SHARE}"
        );
        failed = true;
    }
    if !warm_cheaper {
        eprintln!(
            "FAIL: warm compiles not cheaper than scratch ({:.1} vs {:.1} mean iterations)",
            stats.mean_warm_iterations(),
            stats.mean_scratch_iterations()
        );
        failed = true;
    }
    if total_mismatches > 0 {
        eprintln!(
            "FAIL: {total_mismatches} daemon responses were not byte-identical to in-process serving"
        );
        failed = true;
    }
    if !snapshots_identical {
        eprintln!("FAIL: a daemon library snapshot diverged from the in-process artifact");
        failed = true;
    }
    if !coalescing_ok {
        eprintln!("FAIL: a daemon replay compiled a different group count than the baseline");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "\nOK: warm share {warm_share:.3} >= {CHECK_WARM_SHARE}, warm cheaper than scratch, \
         daemon byte-identical across client counts {CLIENT_COUNTS:?}"
    );
    println!("wrote results/uccsd_serve.csv and results/uccsd_check.json");
}
