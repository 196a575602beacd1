//! `census`: the alphabet-2 census through `lcl_atlas::run_census`.
//!
//! 65 538 candidate tables collapse to 5 056 canonical problems, each
//! classified once, so the synthesis/SAT memo always misses: this is
//! the classify-bound workload. The frontier fixes the input, so the
//! seed does not apply here. Every pass is checked byte for byte
//! against the checked-in artifact `fixtures/atlas/census-a2.jsonl`,
//! rendered in memory (the fixture is only read).

use crate::layers::{self, Table};
use crate::util::{median, tail, Phase};
use crate::{Args, Outcome};
use lcl_atlas::{enumerate, run_census, Atlas, CensusOptions, Frontier};
use lcl_grids::core::synthesis::{enumerate_tiles, synthesize, SynthesisConfig, TileShape};
use lcl_grids::{Engine, ProblemSpec};
use std::sync::Arc;
use std::time::Instant;

const FIXTURE: &str = "fixtures/atlas/census-a2.jsonl";

/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 9;

/// Trace ring size for one traced census pass (events; sized so the
/// ring never wraps).
const TRACE_RING: usize = 1 << 20;

fn engine(threads: usize) -> Arc<Engine> {
    // The census header pins synthesis at k = 1.
    Arc::new(
        Engine::builder()
            .threads(threads)
            .max_synthesis_k(1)
            .build(),
    )
}

/// The artifact bytes `Atlas::write` would produce, rendered in memory.
fn render(atlas: &Atlas) -> String {
    let mut records: Vec<_> = atlas.records().iter().collect();
    records.sort_by(|a, b| a.key.cmp(&b.key));
    let mut out = atlas.header().to_line();
    out.push('\n');
    for record in records {
        out.push_str(&record.to_line());
        out.push('\n');
    }
    out
}

/// Lines of `rendered` that differ from the reference (missing and
/// extra lines count too); 0 iff the bytes are identical.
fn mismatches(rendered: &str, reference: &str) -> u64 {
    if rendered == reference {
        return 0;
    }
    let (a, b): (Vec<&str>, Vec<&str>) = (rendered.lines().collect(), reference.lines().collect());
    let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
    (differing + a.len().abs_diff(b.len())).max(1) as u64
}

/// One census pass: wall time, the census, and its LOCAL rounds.
struct Pass {
    wall_s: f64,
    atlas: Atlas,
    problems: u64,
    rounds: u64,
}

fn pass(engine: &Arc<Engine>, frontier: &Frontier) -> Result<Pass, String> {
    let started = Instant::now();
    let outcome =
        run_census(engine, frontier, &CensusOptions::default()).map_err(|e| e.to_string())?;
    let wall_s = started.elapsed().as_secs_f64();
    if !outcome.stats.complete {
        return Err("census did not complete".to_string());
    }
    let rounds = outcome
        .atlas
        .records()
        .iter()
        .filter_map(|r| r.rounds)
        .sum();
    Ok(Pass {
        wall_s,
        problems: outcome.stats.fresh,
        rounds,
        atlas: outcome.atlas,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let reference =
        std::fs::read_to_string(FIXTURE).map_err(|e| format!("cannot read {FIXTURE}: {e}"))?;
    let frontier = Frontier::alphabet(2);
    let mut out = Outcome {
        gate: format!("census artifact byte-identical to {FIXTURE}"),
        load_threads: 1,
        ..Outcome::default()
    };

    // Set-up: build the engine and walk the frontier once (the dry walk
    // that sizes the census), several times for a steady median.
    let mut setups = Vec::new();
    let mut walk_us = Vec::new();
    let (mut candidates, mut problems) = (0, 0);
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let _engine = engine(args.threads);
        let walk_started = Instant::now();
        let mut walk = enumerate(&frontier).map_err(|e| e.to_string())?;
        problems = walk.by_ref().count() as u64;
        candidates = walk.candidates_seen();
        walk_us.push(walk_started.elapsed().as_secs_f64() * 1e6);
        setups.push(started.elapsed().as_secs_f64());
    }

    // Measure: whole census passes, each on a fresh engine, until the
    // time is up (at least one pass).
    let mut walls = Vec::new();
    let mut classified = 0u64;
    let mut rounds;
    let phase = Phase::start();
    let started = Instant::now();
    loop {
        let engine = engine(args.threads);
        let p = pass(&engine, &frontier)?;
        out.attempted += p.atlas.len() as u64;
        out.failed += mismatches(&render(&p.atlas), &reference);
        walls.push(p.wall_s);
        classified += p.problems;
        rounds = p.rounds;
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let (busy_wall, busy_cpu) = phase.stop();
    let total_wall: f64 = walls.iter().sum();
    let latencies: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let (tail_ms, tail_pct, tail_n) = tail(&latencies);
    out.e2e.insert("setup_s", median(&setups));
    out.e2e
        .insert("throughput_per_s", classified as f64 / total_wall);
    out.e2e.insert("latency_p50_ms", median(&latencies));
    out.e2e.insert("latency_tail_ms", tail_ms);
    out.e2e
        .insert("max_rate_rps", walls.len() as f64 / total_wall);
    out.e2e.insert("local_rounds", rounds as f64);
    out.notes.push(format!(
        "census: {} passes, {classified} problems classified in {total_wall:.3} s; latency_tail_ms is p{tail_pct} of {tail_n} passes",
        walls.len()
    ));

    if args.trace {
        let mut table = Table::default();
        table.set("atlas.enumerate.us", median(&walk_us));
        table.set("atlas.enumerate.candidates", candidates as f64);
        table.set("atlas.enumerate.problems", problems as f64);
        table.set("process.cpu_util", busy_cpu / busy_wall);
        // Every census job rides `solve_stream`.
        table.set("engine.stream.jobs", problems as f64);

        let engine = engine(args.threads);
        lcl_trace::enable(TRACE_RING);
        let phase = Phase::start();
        let traced = pass(&engine, &frontier)?;
        let (wall, cpu) = phase.stop();
        lcl_trace::disable();
        out.attempted += traced.atlas.len() as u64;
        out.failed += mismatches(&render(&traced.atlas), &reference);
        for record in traced.atlas.records() {
            if let (Some(tier), Some(r)) = (record.solve.strip_prefix("solved:"), record.rounds) {
                table.add(&format!("tier.{tier}.rounds"), r as f64);
            }
        }
        let trace = lcl_trace::snapshot();
        let attributed = layers::attribute(&trace.events, &mut table);
        layers::attribution_check(&mut table, attributed, cpu * 1e6);
        table.set("trace.overhead_share", wall / median(&walls) - 1.0);
        out.notes.push(format!(
            "census traced pass: wall {wall:.3} s, cpu {cpu:.3} s, {} events, {} dropped",
            trace.events.len(),
            trace.dropped
        ));
        out.notes.push(classify_probe());
        out.layers = table;
    }
    Ok(out)
}

/// Times the two steps a census classify repeats per problem, to set
/// beside the traced synthesis and SAT self times: the k = 1 tile
/// tables (both window shapes synthesis tries) and one whole k = 1
/// synthesis attempt (vertex 3-colouring, which fails, as most census
/// problems do). Medians of five.
fn classify_probe() -> String {
    let time_us = |f: &dyn Fn() -> usize| {
        let mut runs = Vec::new();
        let mut size = 0;
        for _ in 0..5 {
            let started = Instant::now();
            size = f();
            runs.push(started.elapsed().as_secs_f64() * 1e6);
        }
        (median(&runs), size)
    };
    let shapes = [TileShape::new(3, 2), TileShape::new(3, 3)];
    let tiles: Vec<String> = shapes
        .iter()
        .map(|&shape| {
            let (us, n) = time_us(&|| enumerate_tiles(1, shape).len());
            format!("{}x{} {n} tiles in {us:.1} us", shape.rows, shape.cols)
        })
        .collect();
    let spec = ProblemSpec::vertex_colouring(3);
    let attempt = spec.grid_problem().map_or(0.0, |problem| {
        let config = SynthesisConfig {
            k: 1,
            shape: shapes[1],
        };
        time_us(&|| usize::from(synthesize(problem, &config).is_some())).0
    });
    format!(
        "classify probe: enumerate_tiles k=1 {}; one k=1 3x3 synthesize attempt {attempt:.1} us",
        tiles.join(", ")
    )
}
