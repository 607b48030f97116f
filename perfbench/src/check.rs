//! Output checks. Each returns `None` when the output is right and a
//! one-line description of the difference otherwise; the workloads count
//! every check as an attempted operation and every difference as failed.

use accqoc_bench::golden::{GoldenCorpus, FIDELITY_TOL};

/// A golden program after precompilation: its serving coverage and the
/// exact fidelity the verification oracle measured.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenObservation {
    /// Program name.
    pub name: String,
    /// Instance coverage when first served after precompile.
    pub coverage: f64,
    /// Exact dense-composition fidelity from `Session::verify_program`.
    pub exact_fidelity: f64,
}

/// Coverage 1.0 and exact fidelity within [`FIDELITY_TOL`] of the
/// checked-in corpus row of the same name.
pub fn golden(expected: &GoldenCorpus, observed: &GoldenObservation) -> Option<String> {
    let name = &observed.name;
    let Some(row) = expected.rows.iter().find(|r| &r.name == name) else {
        return Some(format!("{name}: no golden corpus row"));
    };
    if observed.coverage != 1.0 {
        return Some(format!(
            "{name}: coverage {} after precompile, expected 1",
            observed.coverage
        ));
    }
    let drift = (observed.exact_fidelity - row.exact_fidelity).abs();
    (drift.is_nan() || drift > FIDELITY_TOL).then(|| {
        format!(
            "{name}: exact fidelity {} vs corpus {} (tolerance {FIDELITY_TOL})",
            observed.exact_fidelity, row.exact_fidelity
        )
    })
}

/// The part of a response frame after its id: `{"id": N, …}` → `, …}`.
/// Frames of the same answer to different request ids share it.
pub fn after_id(frame: &str) -> Option<&str> {
    let rest = frame.strip_prefix("{\"id\": ")?;
    let comma = rest.find(',')?;
    rest[..comma]
        .bytes()
        .all(|b| b.is_ascii_digit())
        .then(|| &rest[comma..])
}

/// The id of a response frame.
pub fn frame_id(frame: &str) -> Option<u64> {
    let rest = frame.strip_prefix("{\"id\": ")?;
    rest[..rest.find(',')?].parse().ok()
}

/// A daemon response frame byte-identical, past its id, to the frame
/// the in-process replica of the restored library encodes.
pub fn frame(program: &str, received: &str, expected_after_id: &str) -> Option<String> {
    match after_id(received) {
        Some(tail) if tail == expected_after_id => None,
        Some(tail) => Some(format!(
            "{program}: response differs from the in-process artifact ({} vs {} bytes): {:.160}",
            tail.len(),
            expected_after_id.len(),
            tail
        )),
        None => Some(format!("{program}: unreadable response frame")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accqoc_bench::golden::GoldenRow;

    fn corpus(exact_fidelity: f64) -> GoldenCorpus {
        GoldenCorpus {
            rows: vec![GoldenRow {
                name: "qft_3".into(),
                n_qubits: 3,
                instances: 9,
                unique_groups: 9,
                coverage_rate: 1.0,
                overall_latency_ns: 169.0,
                gate_based_latency_ns: 415.0,
                min_group_fidelity: 0.9999,
                program_fidelity_bound: 0.999,
                exact_fidelity,
                state_fidelity: 0.9995,
            }],
        }
    }

    fn seen(coverage: f64, exact_fidelity: f64) -> GoldenObservation {
        GoldenObservation {
            name: "qft_3".into(),
            coverage,
            exact_fidelity,
        }
    }

    #[test]
    fn golden_check_passes_the_corpus_and_fails_a_corrupted_one() {
        assert_eq!(golden(&corpus(0.9993), &seen(1.0, 0.9993)), None);
        assert_eq!(golden(&corpus(0.9993), &seen(1.0, 0.9993 - 5e-4)), None);
        // A corrupted expected fidelity makes the same output fail.
        assert!(golden(&corpus(0.9893), &seen(1.0, 0.9993)).is_some());
        assert!(golden(&corpus(0.9993), &seen(0.9, 0.9993)).is_some());
        assert!(golden(&corpus(0.9993), &seen(1.0, f64::NAN)).is_some());
        let mut other = seen(1.0, 0.9993);
        other.name = "qft_9".into();
        assert!(golden(&corpus(0.9993), &other).is_some());
    }

    #[test]
    fn frames_compare_past_the_id() {
        let expected = ", \"ok\": true, \"result\": {\"pulses\": [1, 2]}}";
        let received = format!("{{\"id\": 41{expected}");
        assert_eq!(frame_id(&received), Some(41));
        assert_eq!(frame("qft_3", &received, expected), None);
        // One corrupted byte of the expected artifact fails the check.
        let corrupted = expected.replace('2', "3");
        assert!(frame("qft_3", &received, &corrupted).is_some());
        assert!(frame("qft_3", "{\"id\": x, \"ok\": true}", expected).is_some());
        assert!(frame("qft_3", "garbage", expected).is_some());
    }
}
