//! `solve`: seeded mixed-problem `Engine::solve_jobs` batches over
//! already-prepared plans.
//!
//! Every batch holds one job per (problem, side) of [`mix`] — so every
//! batch covers the same tiers and costs about the same — plus a second
//! copy of the four [`DUPLICATED`] jobs. The seed drives the instance
//! ids and the job order, and so where the duplicates fall.
//! Set-up builds the engine, prepares every problem and classifies it,
//! which runs every synthesis the tiers need, so the measured batches
//! only hit the synthesis memo. Every labelling is checked with
//! `ProblemSpec::check_instance`.

use crate::layers::{self, Table};
use crate::util::{median, tail, Phase, Rng};
use crate::{serve, Args, Outcome};
use lcl_grids::core::problems::XSet;
use lcl_grids::engine::JobOutcome;
use lcl_grids::local::IdAssignment;
use lcl_grids::{Engine, Instance, Job, PreparedProblem, ProblemSpec};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Torus dimension, problem and the two sides each batch solves it at.
/// The tier named in the comment is the one that answers.
fn mix() -> Vec<(usize, ProblemSpec, [usize; 2])> {
    vec![
        // ball-carving-4-colouring (§8): rounds grow with the side.
        (2, ProblemSpec::vertex_colouring(4), [32, 64]),
        // cut-and-colour-5-edge-colouring (§10).
        (2, ProblemSpec::edge_colouring(5), [40, 64]),
        // synthesised-tiles.
        (2, ProblemSpec::vertex_colouring(5), [32, 64]),
        (
            2,
            ProblemSpec::orientation(XSet::from_degrees(&[1, 3, 4])),
            [32, 64],
        ),
        // constant.
        (2, ProblemSpec::independent_set(), [32, 64]),
        // ddim-parity-edge-colouring on 3-d tori (even sides).
        (3, ProblemSpec::edge_colouring(6), [6, 8]),
        // sat-existence: 3-colouring is global, so only SAT solves it.
        (2, ProblemSpec::vertex_colouring(3), [6, 8]),
    ]
}

/// The (problem index in [`mix`], side) pairs every batch holds twice:
/// one instance each of ball-carving, cut-and-colour, synthesised tiles
/// and the constant tier.
const DUPLICATED: [(usize, usize); 4] = [(0, 32), (1, 40), (2, 64), (4, 64)];
/// Batches in the job set the measured loop cycles over.
const BATCHES: usize = 8;
/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 3;
/// Synthesis budget of the engine (part of every plan key).
const MAX_K: usize = 2;
/// Trace ring size (events) for the traced set-up, batch and stream
/// passes and the HTTP leg.
const TRACE_RING: usize = 1 << 16;

fn build_engine(threads: usize) -> Engine {
    Engine::builder()
        .threads(threads)
        .max_synthesis_k(MAX_K)
        .dedup(true)
        .stream_dedup_window(64)
        // Cross-checks each solve's round ledger against a message-
        // passing run, which puts the LOCAL simulator on the path.
        .debug_validation(true)
        .build()
}

/// Set-up: engine build, prepare every problem, classify it (warming
/// the synthesis memo). Returns the engine and plans in [`mix`] order.
fn set_up(threads: usize) -> Result<(Engine, Vec<Arc<PreparedProblem>>), String> {
    let engine = build_engine(threads);
    let mut plans = Vec::new();
    for (_, spec, _) in mix() {
        let prepared = engine.prepare(&spec).map_err(|e| e.to_string())?;
        prepared.classify().map_err(|e| e.to_string())?;
        plans.push(prepared);
    }
    Ok((engine, plans))
}

/// One job of the job set, with what the report needs to know about it.
#[derive(Clone)]
struct Planned {
    problem: usize,
    side: usize,
    instance: Instance,
}

/// The seeded job set: [`BATCHES`] batches of the full mix plus
/// duplicates, in seeded order.
fn job_set(rng: &mut Rng, smoke: bool) -> Vec<Vec<Planned>> {
    let mix = mix();
    (0..BATCHES)
        .map(|_| {
            let mut batch = Vec::new();
            for (problem, (d, _, sides)) in mix.iter().enumerate() {
                let sides = if smoke { &sides[..1] } else { &sides[..] };
                for &side in sides {
                    let ids = IdAssignment::Shuffled {
                        seed: rng.next_u64(),
                    };
                    let instance = match d {
                        2 => Instance::square(side, &ids),
                        _ => Instance::torus_d(*d, side, &ids),
                    };
                    batch.push(Planned {
                        problem,
                        side,
                        instance,
                    });
                }
            }
            // The duplicated (problem, side) pairs are fixed, so every
            // seed does the same work; the seed places them.
            let duplicates: Vec<Planned> = batch
                .iter()
                .filter(|p| DUPLICATED.contains(&(p.problem, p.side)))
                .cloned()
                .collect();
            batch.extend(duplicates);
            rng.shuffle(&mut batch);
            batch
        })
        .collect()
}

fn jobs_of(batch: &[Planned], plans: &[Arc<PreparedProblem>]) -> Vec<Job> {
    batch
        .iter()
        .map(|p| Job::new(Arc::clone(&plans[p.problem]), p.instance.clone()))
        .collect()
}

/// Checks every result of a batch; returns the number that failed.
fn check(
    batch: &[Planned],
    plans: &[Arc<PreparedProblem>],
    results: &[Result<lcl_grids::Labelling, lcl_grids::SolveError>],
) -> u64 {
    let mut failed = 0;
    for (planned, result) in batch.iter().zip(results) {
        let ok = match result {
            Ok(l) => plans[planned.problem]
                .spec()
                .check_instance(&planned.instance, &l.labels)
                .is_ok(),
            Err(_) => false,
        };
        failed += u64::from(!ok);
    }
    failed + batch.len().abs_diff(results.len()) as u64
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome {
        gate: "every labelling passes ProblemSpec::check_instance".to_string(),
        load_threads: 1,
        ..Outcome::default()
    };
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let built = set_up(args.threads)?;
        setups.push(started.elapsed().as_secs_f64());
        ready = Some(built);
    }
    let (engine, plans) = ready.ok_or("no set-up ran")?;
    let mut rng = Rng::new(args.seed);
    let batches = job_set(&mut rng, args.smoke);
    let jobs: Vec<Vec<Job>> = batches.iter().map(|b| jobs_of(b, &plans)).collect();

    // Measure: cycle over the job set until the time is up (at least
    // one full pass, so every instance is solved and checked).
    let mut walls = Vec::new();
    let mut first_pass = [0.0; BATCHES];
    let (mut solved, mut rounds_per_pass) = (0u64, 0u64);
    // (tier, side) → LOCAL rounds of the labelling, from the first pass.
    let mut curve: BTreeMap<(String, usize), u64> = BTreeMap::new();
    let phase = Phase::start();
    let started = Instant::now();
    for i in 0.. {
        let b = i % BATCHES;
        let t = Instant::now();
        let report = engine.solve_jobs(&jobs[b]);
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        out.attempted += jobs[b].len() as u64;
        out.failed += check(&batches[b], &plans, report.results());
        solved += report.solved() as u64;
        if i < BATCHES {
            first_pass[b] = wall;
            rounds_per_pass += report.total_rounds();
            for (planned, result) in batches[b].iter().zip(report.results()) {
                if let Ok(l) = result {
                    curve.insert(
                        (l.report.solver.clone(), planned.side),
                        l.report.rounds.total(),
                    );
                }
            }
        }
        if i + 1 >= BATCHES && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let (busy_wall, busy_cpu) = phase.stop();
    let total_wall: f64 = walls.iter().sum();
    let latencies: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let (tail_ms, tail_pct, tail_n) = tail(&latencies);
    out.e2e.insert("setup_s", median(&setups));
    out.e2e
        .insert("throughput_per_s", solved as f64 / total_wall);
    out.e2e.insert("latency_p50_ms", median(&latencies));
    out.e2e.insert("latency_tail_ms", tail_ms);
    out.e2e
        .insert("max_rate_rps", walls.len() as f64 / total_wall);
    out.e2e.insert("local_rounds", rounds_per_pass as f64);
    out.notes.push(format!(
        "solve: {} batches of {} jobs ({} duplicates each), {solved} instances solved in {total_wall:.3} s; latency_tail_ms is p{tail_pct} of {tail_n} batches",
        walls.len(),
        jobs[0].len(),
        DUPLICATED.len(),
    ));
    let rows: Vec<String> = curve
        .iter()
        .map(|((tier, side), r)| format!("{{\"tier\":\"{tier}\",\"side\":{side},\"rounds\":{r}}}"))
        .collect();
    out.notes.push(format!("rounds: [{}]", rows.join(",")));
    let bc = |side| {
        curve
            .get(&("ball-carving-4-colouring".to_string(), side))
            .copied()
    };
    let growth = match (bc(32), bc(64)) {
        (Some(n), Some(two_n)) if n > 0 => two_n as f64 / n as f64,
        _ => 0.0,
    };

    if args.trace {
        let mut table = Table::default();
        table.set("process.cpu_util", busy_cpu / busy_wall);
        table.set("tier.ball-carving-4-colouring.rounds_growth", growth);
        lcl_trace::enable(TRACE_RING);
        let phase = Phase::start();
        // A traced set-up, so synthesis and classify show in the table.
        let (engine, plans) = set_up(args.threads)?;
        let traced_jobs: Vec<Vec<Job>> = batches.iter().map(|b| jobs_of(b, &plans)).collect();
        let mut traced_wall = 0.0;
        for (b, batch) in traced_jobs.iter().enumerate() {
            let t = Instant::now();
            let report = engine.solve_jobs(batch);
            traced_wall += t.elapsed().as_secs_f64();
            out.attempted += batch.len() as u64;
            out.failed += check(&batches[b], &plans, report.results());
            table.add("engine.batch.jobs", batch.len() as f64);
            table.add("engine.batch.dedup_hits", report.dedup_hits() as f64);
            for result in report.results().iter().flatten() {
                table.add(
                    &format!("tier.{}.rounds", result.report.solver),
                    result.report.rounds.total() as f64,
                );
            }
        }
        // One pass of the same jobs through the stream executor.
        let all: Vec<(Planned, Job)> = batches
            .iter()
            .zip(&traced_jobs)
            .flat_map(|(b, j)| b.iter().cloned().zip(j.iter().cloned()))
            .collect();
        let (stream_failed, wait_us, hits) = stream_pass(&engine, &plans, &all);
        out.attempted += all.len() as u64;
        out.failed += stream_failed;
        let (_, cpu) = phase.stop();
        let solve_end_ns = lcl_trace::now_ns();
        let (attempted, failed) = serve::wire_layers(
            args.threads,
            args.seed,
            args.smoke,
            &mut table,
            &mut out.notes,
        )?;
        out.attempted += attempted;
        out.failed += failed;
        out.gate.push_str(
            "; every lcl-serve response has status 200, parses as JSON and carries the expected answer",
        );
        lcl_trace::disable();
        table.set("engine.stream.jobs", all.len() as f64);
        table.set("engine.stream.wait_us", wait_us);
        let trace = lcl_trace::snapshot();
        let events: Vec<lcl_trace::Event> = trace
            .events
            .into_iter()
            .filter(|e| e.start_ns < solve_end_ns)
            .collect();
        let attributed = layers::attribute(&events, &mut table);
        // The stream's dedup count comes from the engine, not the spans.
        table.set("engine.stream.dedup_hits", hits as f64);
        layers::attribution_check(&mut table, attributed, cpu * 1e6);
        table.set(
            "trace.overhead_share",
            traced_wall / first_pass.iter().sum::<f64>() - 1.0,
        );
        out.notes.push(format!(
            "solve traced passes: {} events, {} dropped",
            events.len(),
            trace.dropped
        ));
        out.layers = table;
    }
    Ok(out)
}

/// Runs `jobs` through `Engine::solve_stream`, timing each job from the
/// moment a worker pulls it to the moment its outcome arrives. Returns
/// (failed jobs, Σ wait µs, dedup hits), where a job's wait is that
/// latency minus the solve walk's own `cost.total_us`.
fn stream_pass(
    engine: &Engine,
    plans: &[Arc<PreparedProblem>],
    jobs: &[(Planned, Job)],
) -> (u64, f64, u64) {
    let pulled: Arc<Mutex<Vec<Option<Instant>>>> = Arc::new(Mutex::new(vec![None; jobs.len()]));
    let source = {
        let pulled = Arc::clone(&pulled);
        let queue: Vec<Job> = jobs.iter().map(|(_, j)| j.clone()).collect();
        queue.into_iter().enumerate().map(move |(i, job)| {
            pulled.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(Instant::now());
            job
        })
    };
    let (mut failed, mut wait_us, mut hits, mut seen) = (0u64, 0.0, 0u64, 0usize);
    for JobOutcome {
        index,
        result,
        deduped,
        ..
    } in engine.solve_stream(source)
    {
        let arrived = Instant::now();
        let i = index as usize;
        seen += 1;
        let Some((planned, _)) = jobs.get(i) else {
            failed += 1;
            continue;
        };
        let started = pulled.lock().unwrap_or_else(PoisonError::into_inner)[i];
        let latency_us = started.map_or(0.0, |s| (arrived - s).as_secs_f64() * 1e6);
        hits += u64::from(deduped);
        match result {
            Ok(l) => {
                let solve_us = if deduped {
                    0.0
                } else {
                    l.report.cost.total_us as f64
                };
                wait_us += (latency_us - solve_us).max(0.0);
                let valid = plans[planned.problem]
                    .spec()
                    .check_instance(&planned.instance, &l.labels)
                    .is_ok();
                failed += u64::from(!valid);
            }
            Err(_) => failed += 1,
        }
    }
    (failed + jobs.len().abs_diff(seen) as u64, wait_us, hits)
}
