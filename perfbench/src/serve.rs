//! The HTTP leg of the `solve` workload's traced run: one climb of an
//! open-loop ladder of arrival rates against an in-process `lcl-serve`
//! with two HTTP workers, so the wire, JSON, tenant plan cache and
//! generator layers get their rows in the per-layer table.
//!
//! Each rung sends a seeded shuffle of whole [`DECK`]s: DSL prepares,
//! classifies, single solves and solve-batches with duplicate jobs.
//! Requests are scheduled up front (seeded arrival jitter) and split
//! round-robin over one load thread per core; each is timed from its
//! *scheduled* send time, so a late generator shows up as latency, not
//! as a lighter load. Every response must carry the expected status and
//! parse as JSON; solves must come back validated, classifies with the
//! expected class, batches with every job solved.
//!
//! (Open-loop latency through the server is not an end-to-end metric:
//! on a shared two-core host its median and tail drift by a third or
//! more between runs of the same code.)

use crate::layers::{self, Table};
use crate::util::{median, tail, Rng};
use lcl_grids::ProblemSpec;
use lcl_serve::{Json, ServeConfig, Server};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Arrival rates of the ladder, requests per second (multiples of 16,
/// so a rung of 1.25 s holds whole decks). The top rung keeps the two
/// cores under half busy.
const LADDER: [f64; 4] = [16.0, 32.0, 48.0, 64.0];
/// HTTP workers of the server under test.
const WORKERS: usize = 2;

const DSL_SOURCES: [&str; 2] = [
    "problem bench-3-colouring { alphabet { c0, c1, c2 } edges differ }",
    "problem bench-5-colouring { alphabet { a, b, c, d, e } edges differ }",
];

/// One request template of the mix.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Prepare,
    Classify,
    /// A single solve on a small torus (a few hundred µs of engine work).
    SolveSmall,
    /// A single solve answered by the synthesised tiles at side 32.
    Solve,
    /// The same at side 64 (several ms of engine work on one thread).
    SolveLarge,
    Batch,
}

/// The request mix: every deck is sent whole, so each rung has exactly
/// these shares: 10% prepare, 10% classify, 10% small solves, 55%
/// solves, 10% large solves, 5% batches.
const DECK: [Kind; 20] = {
    let mut deck = [Kind::Solve; 20];
    deck[0] = Kind::Prepare;
    deck[1] = Kind::Prepare;
    deck[2] = Kind::Classify;
    deck[3] = Kind::Classify;
    deck[4] = Kind::SolveSmall;
    deck[5] = Kind::SolveSmall;
    deck[6] = Kind::SolveLarge;
    deck[7] = Kind::SolveLarge;
    deck[8] = Kind::Batch;
    deck
};

/// Jobs per solve-batch body: a third of them duplicates.
const BATCH_JOBS: usize = 6;

/// What a well-formed answer to a request must contain.
enum Expect {
    Prepared,
    Class(&'static str),
    Solved,
    Batch(usize),
}

struct Request {
    /// Offset of the scheduled send from the rung start.
    at: Duration,
    path: &'static str,
    body: String,
    expect: Expect,
    /// DSL source compiled by this request (prepares only).
    source: Option<&'static str>,
}

/// One answered (or failed) request.
struct Sample {
    /// Scheduled send → response read, ms.
    latency_ms: f64,
    /// Scheduled → actual send, ms.
    late_ms: f64,
    /// Actual send → response read, µs.
    service_us: f64,
    ok: bool,
    trace_id: u64,
    /// Position in the schedule.
    seq: usize,
}

fn torus(side: usize, seed: u64) -> String {
    format!(r#"{{"topology":"torus2","side":{side},"ids":{{"kind":"shuffled","seed":{seed}}}}}"#)
}

fn make_request(kind: Kind, slot: usize, rng: &mut Rng) -> Request {
    let (path, body, expect, source) = match kind {
        Kind::Prepare => {
            let src = DSL_SOURCES[slot % 2];
            let body = format!(r#"{{"problem":{{"type":"dsl","source":"{src}"}}}}"#);
            ("/prepare", body, Expect::Prepared, Some(src))
        }
        Kind::Classify => {
            let (problem, class) = if slot.is_multiple_of(2) {
                (r#"{"type":"independent-set"}"#, "constant")
            } else {
                (r#"{"type":"orientation","degrees":[1,3,4]}"#, "log-star")
            };
            let body = format!(r#"{{"problem":{problem}}}"#);
            ("/classify", body, Expect::Class(class), None)
        }
        Kind::SolveSmall | Kind::Solve | Kind::SolveLarge => {
            let (problem, side) = match (kind, slot % 2) {
                (Kind::SolveSmall, 0) => (r#"{"type":"independent-set"}"#, 8),
                (Kind::SolveSmall, _) => (r#"{"type":"vertex-colouring","k":4}"#, 16),
                (Kind::Solve, 0) => (r#"{"type":"vertex-colouring","k":5}"#, 32),
                (Kind::Solve, _) => (r#"{"type":"orientation","degrees":[1,3,4]}"#, 32),
                (_, 0) => (r#"{"type":"vertex-colouring","k":5}"#, 64),
                _ => (r#"{"type":"orientation","degrees":[1,3,4]}"#, 64),
            };
            let body = format!(
                r#"{{"problem":{problem},"instance":{},"return_labels":false}}"#,
                torus(side, rng.next_u64() >> 32)
            );
            ("/solve", body, Expect::Solved, None)
        }
        Kind::Batch => {
            // Ids seeds stay below 2^53: the wire's integer-exactness bound.
            let seeds: Vec<u64> = (0..BATCH_JOBS * 2 / 3)
                .map(|_| rng.next_u64() >> 32)
                .collect();
            let mut jobs: Vec<String> = seeds
                .iter()
                .chain(&seeds[..BATCH_JOBS / 3])
                .map(|&s| {
                    format!(
                        r#"{{"problem":{{"type":"orientation","degrees":[1,3,4]}},"instance":{}}}"#,
                        torus(12, s)
                    )
                })
                .collect();
            rng.shuffle(&mut jobs);
            let body = format!(r#"{{"jobs":[{}]}}"#, jobs.join(","));
            ("/solve-batch", body, Expect::Batch(BATCH_JOBS), None)
        }
    };
    Request {
        at: Duration::ZERO,
        path,
        body,
        expect,
        source,
    }
}

/// A rung: `seconds` of whole decks at `rate`, with seeded jitter of up
/// to ±25% of the mean gap on every arrival.
fn rung(rate: f64, seconds: f64, rng: &mut Rng) -> Vec<Request> {
    let decks = ((rate * seconds) / DECK.len() as f64).round().max(1.0) as usize;
    let count = decks * DECK.len();
    let gap = seconds / count as f64;
    let mut requests = Vec::with_capacity(count);
    for _ in 0..decks {
        let mut deck = DECK;
        rng.shuffle(&mut deck);
        for (slot, kind) in deck.into_iter().enumerate() {
            requests.push(make_request(kind, slot, rng));
        }
    }
    for (i, request) in requests.iter_mut().enumerate() {
        let jitter = (rng.unit() - 0.5) * 0.5 * gap;
        request.at = Duration::from_secs_f64((i as f64 * gap + jitter).max(0.0));
    }
    requests.sort_by_key(|r| r.at);
    requests
}

/// One HTTP/1.1 exchange (the server answers one request per
/// connection): returns (status, body).
fn exchange(addr: SocketAddr, request: &Request, trace_id: u64) -> std::io::Result<(u16, String)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut head = format!(
        "POST {} HTTP/1.1\r\ncontent-length: {}\r\n",
        request.path,
        request.body.len()
    );
    if trace_id != 0 {
        head.push_str(&format!("x-trace-id: {trace_id:x}\r\n"));
    }
    head.push_str("\r\n");
    conn.write_all(head.as_bytes())?;
    conn.write_all(request.body.as_bytes())?;
    let mut response = String::new();
    conn.read_to_string(&mut response)?;
    let status = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok((status, body))
}

/// Checks one response against what its request expects.
fn verify(expect: &Expect, status: u16, body: &str) -> bool {
    let Ok(doc) = Json::parse(body) else {
        return false;
    };
    let solved_row = |row: &Json| {
        row.get("ok").and_then(Json::as_bool) == Some(true)
            && row.get("validated").and_then(Json::as_bool) == Some(true)
    };
    status == 200
        && match expect {
            Expect::Prepared => doc.get("plan_key").and_then(Json::as_str).is_some(),
            Expect::Class(class) => doc.get("class").and_then(Json::as_str) == Some(*class),
            Expect::Solved => solved_row(&doc),
            Expect::Batch(jobs) => {
                let rows = doc.get("results").and_then(Json::as_arr).unwrap_or(&[]);
                rows.len() == *jobs
                    && doc.get("solved").and_then(Json::as_usize) == Some(*jobs)
                    && rows.iter().all(solved_row)
            }
        }
}

/// Plays `requests` against `addr` from `threads` load threads, request
/// `i` on thread `i % threads`. `trace_base` ≠ 0 tags request `i` with
/// trace id `trace_base + i`. Samples come back in schedule order.
fn play(
    addr: SocketAddr,
    requests: &[Request],
    threads: usize,
    trace_base: u64,
) -> Result<Vec<Sample>, String> {
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|lane| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    for (i, request) in requests.iter().enumerate().skip(lane).step_by(threads) {
                        let scheduled = start + request.at;
                        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let trace_id = if trace_base == 0 {
                            0
                        } else {
                            trace_base + i as u64
                        };
                        let ok = exchange(addr, request, trace_id)
                            .is_ok_and(|(status, body)| verify(&request.expect, status, &body));
                        let done = Instant::now();
                        samples.push(Sample {
                            latency_ms: (done - scheduled).as_secs_f64() * 1e3,
                            late_ms: (sent - scheduled).as_secs_f64() * 1e3,
                            service_us: (done - sent).as_secs_f64() * 1e6,
                            ok,
                            trace_id,
                            seq: i,
                        });
                    }
                    samples
                })
            })
            .collect();
        let mut samples = Vec::with_capacity(requests.len());
        for handle in handles {
            samples.extend(handle.join().map_err(|_| "a load thread panicked")?);
        }
        samples.sort_by_key(|s| s.seq);
        Ok(samples)
    })
}

/// Starts a server and warms it with one request of every template, so
/// plans are prepared and the synthesis memo is filled.
fn set_up(threads: usize) -> Result<Server, String> {
    let server = Server::start(ServeConfig {
        workers: WORKERS,
        engine_threads: threads,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start lcl-serve: {e}"))?;
    let mut rng = Rng::new(0);
    for (slot, kind) in DECK.iter().enumerate() {
        let request = make_request(*kind, slot, &mut rng);
        let (status, body) =
            exchange(server.addr(), &request, 0).map_err(|e| format!("warm-up: {e}"))?;
        if !verify(&request.expect, status, &body) {
            return Err(format!("warm-up {} failed: {status} {body}", request.path));
        }
    }
    Ok(server)
}

fn stop(server: Server) {
    server.shutdown();
    server.wait();
}

/// One climb's requests: a [`rung`] per ladder rate.
fn ladder(rung_seconds: f64, rng: &mut Rng) -> Vec<Vec<Request>> {
    LADDER
        .iter()
        .map(|&rate| rung(rate, rung_seconds, rng))
        .collect()
}

/// Plays one climb, rung after rung; returns each rung's samples and
/// wall seconds. `trace_base` ≠ 0 tags rung `r`'s requests with trace
/// ids from `trace_base + (r + 1) << 20`, unique across the climb.
fn climb(
    addr: SocketAddr,
    rungs: &[Vec<Request>],
    threads: usize,
    trace_base: u64,
) -> Result<Vec<(Vec<Sample>, f64)>, String> {
    rungs
        .iter()
        .enumerate()
        .map(|(r, requests)| {
            let base = if trace_base == 0 {
                0
            } else {
                trace_base + ((r as u64 + 1) << 20)
            };
            let t = Instant::now();
            let samples = play(addr, requests, threads, base)?;
            Ok((samples, t.elapsed().as_secs_f64()))
        })
        .collect()
}

/// Runs the HTTP leg with the global trace collector on (the caller
/// enables it and sizes the ring) and fills the `serve.*`, `gen.*` and
/// `lang.*` rows of `table` from the spans it records. Returns the
/// requests attempted and failed.
pub fn wire_layers(
    threads: usize,
    seed: u64,
    smoke: bool,
    table: &mut Table,
    notes: &mut Vec<String>,
) -> Result<(u64, u64), String> {
    let server = set_up(threads)?;
    let addr = server.addr();
    let mut rng = Rng::new(seed);
    let requests = ladder(if smoke { 0.5 } else { 1.25 }, &mut rng);
    let from_ns = lcl_trace::now_ns();
    let played = climb(addr, &requests, threads, 0x00be_0000_0000);
    stop(server);
    let samples: Vec<Sample> = played?.into_iter().flat_map(|(s, _)| s).collect();

    // The server compiles every DSL body; time the same compiles.
    for source in requests.iter().flatten().filter_map(|r| r.source) {
        let t = Instant::now();
        ProblemSpec::compile(source).map_err(|e| e.to_string())?;
        table.add("lang.compile.us", t.elapsed().as_secs_f64() * 1e6);
        table.add("lang.compile.calls", 1.0);
    }
    let events: Vec<lcl_trace::Event> = lcl_trace::snapshot()
        .events
        .into_iter()
        .filter(|e| e.start_ns >= from_ns)
        .collect();
    // Only the serve rows are kept: the engine rows belong to the solve
    // passes traced before this leg.
    let mut leg = Table::default();
    let attributed = layers::attribute(&events, &mut leg);
    let wire_us = leg.get("serve.wire_us");
    table.set("serve.wire_us", wire_us);
    table.set("serve.engine_us", attributed - wire_us);
    let request_us: HashMap<u64, f64> = events
        .iter()
        .filter(|e| e.kind == lcl_trace::SpanKind::Request)
        .map(|e| (e.trace_id, e.duration_ns() as f64 / 1e3))
        .collect();
    let queue_wait: f64 = samples
        .iter()
        .filter_map(|s| {
            request_us
                .get(&s.trace_id)
                .map(|r| (s.service_us - r).max(0.0))
        })
        .sum();
    table.set("serve.queue_wait_us", queue_wait);
    let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
    table.set(
        "gen.late_ms",
        late.iter().sum::<f64>() / late.len().max(1) as f64,
    );
    let latency: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let (tail_ms, pct, n) = tail(&latency);
    notes.push(format!(
        "serve leg: one climb of {LADDER:?} req/s, {n} requests, p50 {:.3} ms, p{pct} {tail_ms:.3} ms, {} stream dedup hits, {} events",
        median(&latency),
        leg.get("engine.stream.dedup_hits"),
        events.len()
    ));
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    Ok((samples.len() as u64, failed))
}
