//! The open-loop load generator: one thread, non-blocking sockets, at
//! most a few connections, pipelined line-protocol requests.
//!
//! Requests are sent when they fall due, whether or not earlier ones
//! were answered, so a stalled daemon builds a queue instead of slowing
//! the offered load. Each request is timed from the moment it was due,
//! which charges a stall to every request it delays; how late the
//! generator itself sent is reported as lag. An optional window caps
//! requests in flight, which turns the loop into a closed burst.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::check;

/// One request of a phase: when it falls due and which program it sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    /// Seconds after the phase start.
    pub offset: f64,
    /// Index into the program tables.
    pub program: usize,
}

/// The programs a phase may send.
pub struct Programs<'a> {
    /// Names, for mismatch reports.
    pub names: &'a [String],
    /// Request frame of each program, from its first comma after the id.
    pub request_after_id: &'a [String],
    /// Expected response frame of each program, past its id.
    pub expected_after_id: &'a [String],
}

/// What a phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency from due time to the full response, ms, of each request
    /// answered correctly.
    pub latency_ms: Vec<f64>,
    /// How late each request was sent, ms.
    pub lag_ms: Vec<f64>,
    /// Requests sent.
    pub sent: usize,
    /// Requests answered with the expected bytes.
    pub succeeded: usize,
    /// Requests refused, failed, unanswered, or answered wrongly.
    pub failed: usize,
    /// One line per wrong or failed answer.
    pub mismatches: Vec<String>,
    /// Response bytes received.
    pub response_bytes: u64,
    /// Phase start to last response, s.
    pub wall: f64,
    /// Last due time to last response, s (how far the queue ran past
    /// the offered load).
    pub drain: f64,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    scanned: usize,
}

/// Runs `plan` against the daemon at `addr` over `connections`
/// connections (requests round-robin), with at most `window` in flight,
/// giving up on unanswered requests `timeout` after the last one fell
/// due.
///
/// # Errors
///
/// Socket failures (connect, a closed connection).
pub fn run(
    addr: SocketAddr,
    programs: &Programs<'_>,
    plan: &[Planned],
    connections: usize,
    window: usize,
    timeout: Duration,
) -> std::io::Result<Phase> {
    let mut conns = Vec::with_capacity(connections);
    for _ in 0..connections.max(1) {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        conns.push(Conn {
            stream,
            out: Vec::new(),
            written: 0,
            inbuf: Vec::new(),
            scanned: 0,
        });
    }
    let mut phase = Phase::default();
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut buf = vec![0u8; 1 << 16];
    let start = Instant::now();
    let due_at = |p: &Planned| start + Duration::from_secs_f64(p.offset);
    let last_due = plan.last().map_or(start, due_at);
    let mut next = 0;
    let mut last_answer = start;
    loop {
        let mut progressed = false;
        let now = Instant::now();
        while next < plan.len() && in_flight.len() < window && due_at(&plan[next]) <= now {
            let p = plan[next];
            let id = next as u64 + 1;
            let n_conns = conns.len();
            let conn = &mut conns[next % n_conns];
            conn.out.extend_from_slice(b"{\"id\": ");
            conn.out.extend_from_slice(id.to_string().as_bytes());
            conn.out
                .extend_from_slice(programs.request_after_id[p.program].as_bytes());
            conn.out.push(b'\n');
            // Sent on this pass: the lag is how far past due it is now.
            let due = due_at(&p);
            phase
                .lag_ms
                .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
            in_flight.insert(id, (p.program, due));
            phase.sent += 1;
            next += 1;
            progressed = true;
        }
        for conn in &mut conns {
            while conn.written < conn.out.len() {
                match conn.stream.write(&conn.out[conn.written..]) {
                    Ok(0) => return Err(ErrorKind::WriteZero.into()),
                    Ok(n) => {
                        conn.written += n;
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            if conn.written == conn.out.len() {
                conn.out.clear();
                conn.written = 0;
            }
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        return Err(std::io::Error::new(
                            ErrorKind::UnexpectedEof,
                            "daemon closed the connection",
                        ))
                    }
                    Ok(n) => {
                        conn.inbuf.extend_from_slice(&buf[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let mut consumed = 0;
            while let Some(pos) = conn.inbuf[conn.scanned..].iter().position(|&b| b == b'\n') {
                let end = conn.scanned + pos;
                let answered = Instant::now();
                let line = String::from_utf8_lossy(&conn.inbuf[consumed..end]);
                phase.response_bytes += (end - consumed + 1) as u64;
                match check::frame_id(&line).and_then(|id| in_flight.remove(&id)) {
                    Some((program, due)) => {
                        match check::frame(
                            &programs.names[program],
                            &line,
                            &programs.expected_after_id[program],
                        ) {
                            None => {
                                phase.succeeded += 1;
                                phase.latency_ms.push((answered - due).as_secs_f64() * 1e3);
                            }
                            Some(problem) => {
                                phase.failed += 1;
                                phase.mismatches.push(problem);
                            }
                        }
                    }
                    None => {
                        phase.failed += 1;
                        phase
                            .mismatches
                            .push(format!("unmatched response: {:.120}", line));
                    }
                }
                last_answer = answered;
                consumed = end + 1;
                conn.scanned = consumed;
            }
            if consumed > 0 {
                conn.inbuf.drain(..consumed);
                conn.scanned = 0;
            } else {
                conn.scanned = conn.inbuf.len();
            }
        }
        if next == plan.len() && in_flight.is_empty() {
            break;
        }
        let now = Instant::now();
        if now > last_due + timeout {
            phase.failed += in_flight.len();
            phase.mismatches.push(format!(
                "{} requests unanswered after {timeout:?}",
                in_flight.len()
            ));
            break;
        }
        if !progressed {
            // Sleep until the next request falls due, but keep polling
            // for responses at a fine grain.
            let poll = Duration::from_micros(200);
            let wait = plan
                .get(next)
                .filter(|_| in_flight.len() < window)
                .map_or(poll, |p| due_at(p).saturating_duration_since(now).min(poll));
            std::thread::sleep(wait);
        }
    }
    phase.wall = (last_answer - start).as_secs_f64();
    phase.drain = last_answer
        .saturating_duration_since(last_due)
        .as_secs_f64();
    Ok(phase)
}
