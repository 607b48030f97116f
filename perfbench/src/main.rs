//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Three workloads, each stressing
//! different layers (see `BENCHMARK.json` for why each was chosen):
//!
//! - `precompile_golden` — static pre-compilation of the golden suite
//!   through `Session::precompile_parallel`, then serving each program
//!   from the precompiled library;
//! - `serve_uccsd_zipf` — a cold durable session serving a zipf arrival
//!   stream over the UCCSD θ-grid (warm-started GRAPE, WAL writes);
//! - `daemon_hits_zipf` — an in-process daemon restored from a warm
//!   golden library, driven by an open-loop generator (all hits).
//!
//! With `--trace 0` the run measures with tracing off and prints the
//! end-to-end metrics; with `--trace 1` it records spans around every
//! call into a layer, writes them to `.perfbench/trace/`, and prints the
//! per-layer metrics. The last line of standard output is the JSON
//! result; the exit code is non-zero when any output check failed.

mod check;
mod daemon;
mod loadgen;
mod precompile;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Outcome, END_TO_END, PER_LAYER};

/// Where runs keep their data directories, traces and the cached warm
/// library (relative to the repository root the benchmark runs from).
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// A fresh, empty directory under [`work_dir`].
pub fn fresh_dir(name: &str) -> PathBuf {
    let dir = work_dir().join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("remove a stale run directory");
    }
    std::fs::create_dir_all(&dir).expect("create a run directory");
    dir
}

/// Runs timed units until the budget is spent: a unit starts only while
/// the time used so far plus the longest unit yet still fits in
/// `seconds`, and at least `min_units` always run.
pub fn repeat_within(seconds: f64, min_units: usize, mut unit: impl FnMut(usize) -> f64) {
    let start = std::time::Instant::now();
    let mut longest = 0.0f64;
    let mut k = 0;
    while k < min_units || start.elapsed().as_secs_f64() + longest <= seconds {
        longest = longest.max(unit(k));
        k += 1;
    }
}

/// Times a workload's units: in a traced run one untraced and one
/// traced unit (their ratio is the tracing overhead), otherwise as many
/// as fit in `seconds`. The first failing unit ends the run.
pub fn time_units<T>(
    seconds: f64,
    tracer: &trace::Tracer,
    out: &mut Outcome,
    mut unit: impl FnMut(usize, &trace::Tracer) -> Result<T, String>,
    wall: impl Fn(&T) -> f64,
) -> Result<Vec<T>, String> {
    let quiet = trace::Tracer::new(false);
    let mut units = Vec::new();
    let mut failure = None;
    let mut run = |tracer: &trace::Tracer, units: &mut Vec<T>| match unit(units.len(), tracer) {
        Ok(u) => {
            let secs = wall(&u);
            units.push(u);
            secs
        }
        Err(e) => {
            failure = Some(e);
            f64::INFINITY
        }
    };
    if tracer.enabled() {
        let untraced = run(&quiet, &mut units);
        let traced = run(tracer, &mut units);
        out.metrics
            .set("trace.overhead_share", traced / untraced - 1.0);
    } else {
        repeat_within(seconds, 1, |_| run(&quiet, &mut units));
    }
    failure.map_or(Ok(units), Err)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <precompile_golden|serve_uccsd_zipf|daemon_hits_zipf> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let tracer = trace::Tracer::new(args.trace);
    let mut outcome: Outcome = match args.workload.as_str() {
        "precompile_golden" => precompile::run(args.seed, args.seconds, &tracer),
        "serve_uccsd_zipf" => serve::run(args.seed, args.seconds, &tracer),
        "daemon_hits_zipf" => daemon::run(args.seed, args.seconds, &tracer),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let spans = tracer.spans();
        let dir = work_dir().join("trace");
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(&path, trace::to_json(&args.workload, args.seed, &spans))
        });
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        summarize_trace(&spans, &mut outcome);
        eprintln!("perfbench: spans written to {}", path.display());
    } else {
        outcome.metrics.set("peak_rss_mb", report::peak_rss_mb());
    }
    for line in &outcome.mismatches {
        eprintln!("perfbench: check failed: {line}");
    }
    let (vocabulary, strict) = if args.trace {
        (PER_LAYER, false)
    } else {
        (END_TO_END, true)
    };
    match report::result_line(&outcome, vocabulary, strict) {
        Ok(line) if outcome.failed == 0 => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(line) => {
            println!("{line}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Per-layer self-time shares of the traced unit, the residual, and a
/// stderr table of where the time went.
fn summarize_trace(spans: &[trace::Span], outcome: &mut Outcome) {
    let wall = trace::unit_wall(spans);
    let selfs = trace::self_times(spans);
    let counts = trace::counts(spans);
    outcome.metrics.set("trace.wall_s", wall);
    eprintln!("perfbench: traced wall {wall:.4} s");
    for (layer, secs) in &selfs {
        let share = secs / wall;
        if *layer == trace::UNIT {
            outcome.metrics.set("trace.residual_share", share);
            eprintln!(
                "  {:<12} {secs:>10.4} s {:>6.1}%  (residual)",
                "residual",
                share * 100.0
            );
        } else {
            outcome.metrics.set(&format!("{layer}.self_share"), share);
            eprintln!(
                "  {layer:<12} {secs:>10.4} s {:>6.1}%  {} spans",
                share * 100.0,
                counts[layer]
            );
        }
    }
}
