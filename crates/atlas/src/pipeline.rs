//! The mass-classification pipeline: enumerator → streaming engine →
//! journal → artifact.
//!
//! A census run streams one unit of work per canonical problem through
//! [`Engine::stream_map`] on the shared multi-thread engine. The whole
//! unit runs on an engine worker: prepare, the even-side solve, the
//! classification (`classify_with`) and the odd-side solvability probe,
//! ending in a [`Record`]. The consumer thread only journals, reports
//! progress and collects. The solve and the classification each get a
//! **fresh** step budget, so a pathological SAT instance burns only its
//! own quota and surfaces as a typed `timeout` verdict — never a hang,
//! never a skipped record, and never a budget smeared across unrelated
//! problems. Classification runs the synthesis itself: the solve never
//! synthesises at the default `even_side` 4, because the
//! `synthesised-tiles` tier needs a side of at least 5 even at k = 1 (a
//! 3×2 window plus its `S_k` frame). What the workers share is the
//! process-wide tile-table memo (`lcl_core::synthesis`), built once per
//! `(k, shape)`.
//!
//! Records stay deterministic under any thread count: a record is a
//! function of (problem, census config) only, each unit starts from
//! fresh budgets, `solve_with` drains the worker's thread-local SAT
//! ledger before it walks (so a previous unit's classify never bills
//! this record's `sat`), and records are re-sorted by input index.
//!
//! # Checkpoint journal
//!
//! With [`CensusOptions::journal`] set, every finished record is
//! appended to a JSON-lines journal (same line format as the artifact)
//! and the run starts by replaying it: journaled keys are skipped, their
//! records reused verbatim. Records are deterministic functions of
//! (problem, census config) — step budgets, not wall-clock — so a
//! killed-and-resumed census produces the same sorted artifact, byte
//! for byte, as an uninterrupted one. A partial trailing line (the
//! killed process died mid-write) is detected and truncated away; a
//! journal whose header disagrees with the requested census is refused.

use crate::artifact::{Atlas, Header, Record, Verdict};
use crate::enumerate::{count_problems, enumerate, Frontier};
use crate::AtlasError;
use lcl_grids::engine::{Budget, StreamPanic};
use lcl_grids::local::IdAssignment;
use lcl_grids::{Engine, Instance, ProblemSpec, SolveError};
use lcl_trace::SolverCost;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Knobs for one census run.
#[derive(Clone, Debug)]
pub struct CensusOptions {
    /// Per-problem step quota for the even-side solve and again for
    /// classification; 0 disables budgeting. Steps, never wall-clock,
    /// so budget trips are deterministic and the artifact reproducible.
    pub step_budget: u64,
    /// Even torus side solved per problem (must be even, ≥ 2).
    pub even_side: usize,
    /// Odd torus side probed for solvability (must be odd, ≥ 3).
    pub odd_side: usize,
    /// Append-only checkpoint journal; `None` disables checkpointing.
    pub journal: Option<PathBuf>,
    /// Classify at most this many *new* problems this run (resume picks
    /// up the rest). `None` runs the frontier to completion.
    pub max_records: Option<u64>,
    /// Print progress + ETA to stderr every `n` fresh records.
    pub progress_every: Option<u64>,
}

impl Default for CensusOptions {
    fn default() -> CensusOptions {
        CensusOptions {
            step_budget: 2_000_000,
            even_side: 4,
            odd_side: 3,
            journal: None,
            max_records: None,
            progress_every: None,
        }
    }
}

impl CensusOptions {
    fn validate(&self) -> Result<(), AtlasError> {
        if self.even_side < 2 || !self.even_side.is_multiple_of(2) {
            return Err(AtlasError::Frontier(format!(
                "even_side must be an even side ≥ 2, got {}",
                self.even_side
            )));
        }
        if self.odd_side < 3 || self.odd_side % 2 != 1 {
            return Err(AtlasError::Frontier(format!(
                "odd_side must be an odd side ≥ 3, got {}",
                self.odd_side
            )));
        }
        Ok(())
    }
}

/// Run accounting for one census invocation (wall-clock and work live
/// here, never in the artifact).
#[derive(Clone, Debug)]
pub struct CensusStats {
    /// Canonical problems in the frontier.
    pub total: u64,
    /// Records classified by this run.
    pub fresh: u64,
    /// Records replayed from the journal.
    pub resumed: u64,
    /// True iff every frontier problem has a record.
    pub complete: bool,
    /// Aggregate SAT work of this run's fresh solves.
    pub sat: SolverCost,
    /// Summed solve-walk wall time of fresh solves, µs (from the
    /// engine's per-solve cost ledgers).
    pub solve_us: u64,
    /// Wall time of the whole run.
    pub elapsed: std::time::Duration,
    /// Engine worker threads that ran the census (the engine's
    /// `threads` setting, resolved).
    pub threads: usize,
}

/// A finished census: the atlas (header + records) plus run stats.
pub struct CensusOutcome {
    /// The census content; `atlas.write(path)` emits the artifact.
    pub atlas: Atlas,
    /// Run accounting.
    pub stats: CensusStats,
}

/// One unit of census work flowing from the enumerator into the stream.
struct SpecJob {
    key: String,
    spec: ProblemSpec,
    alphabet: u16,
    blocks: u32,
    table: Option<String>,
    orbit: Option<u64>,
}

/// Classifies every problem of `frontier` that the journal has not
/// already settled, and returns the full census (resumed ∪ fresh).
pub fn run_census(
    engine: &Arc<Engine>,
    frontier: &Frontier,
    options: &CensusOptions,
) -> Result<CensusOutcome, AtlasError> {
    frontier.validate()?;
    options.validate()?;
    let start = Instant::now();
    let header = Header {
        max_alphabet: frontier.max_alphabet,
        max_blocks: frontier.max_blocks,
        max_synthesis_k: engine.max_synthesis_k() as u64,
        step_budget: options.step_budget,
        even_side: options.even_side as u64,
        odd_side: options.odd_side as u64,
        candidates: frontier.candidate_count(),
    };
    let total = count_problems(frontier)?;

    // Replay the journal, then (re)open it for appending.
    let mut resumed: HashMap<String, Record> = HashMap::new();
    let mut journal = None;
    if let Some(path) = &options.journal {
        resumed = load_journal(path, &header)?;
        let fresh_file = resumed.is_empty() && !path.exists();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        if fresh_file {
            writeln!(out, "{}", header.to_line())?;
            out.flush()?;
        }
        journal = Some(out);
    }
    let resumed_count = resumed.len() as u64;

    // The lazy job source: enumerate → skip journaled → prepare → one
    // budgeted job per problem. Runs on the stream's worker threads.
    let skip: HashSet<String> = resumed.keys().cloned().collect();
    let jobs = enumerate(frontier)?
        .filter(move |p| !skip.contains(&p.key))
        .map(|p| SpecJob {
            spec: p.spec(),
            table: Some(format!("{:x}", p.bits)),
            orbit: Some(p.orbit),
            key: p.key,
            alphabet: p.alphabet,
            blocks: p.blocks,
        });
    let jobs: Box<dyn Iterator<Item = SpecJob> + Send> = match options.max_records {
        Some(n) => Box::new(jobs.take(n as usize)),
        None => Box::new(jobs),
    };

    let mut agg = RunAgg::default();
    let mut fresh = 0u64;
    let progress_every = options.progress_every;
    let fresh_total = total - resumed_count.min(total);
    let records = run_jobs(engine, jobs, options, &mut agg, |record| {
        if let Some(out) = journal.as_mut() {
            writeln!(out, "{}", record.to_line())?;
            out.flush()?;
        }
        fresh += 1;
        if let Some(every) = progress_every {
            if every > 0 && fresh.is_multiple_of(every) {
                let elapsed = start.elapsed();
                let rate = fresh as f64 / elapsed.as_secs_f64().max(1e-9);
                let remaining = fresh_total.saturating_sub(fresh);
                eprintln!(
                    "[atlas] {}/{} fresh ({} resumed), {:.1} problems/s, eta {:.0}s",
                    fresh,
                    fresh_total,
                    resumed_count,
                    rate,
                    remaining as f64 / rate.max(1e-9),
                );
            }
        }
        Ok(())
    })?;

    let complete = resumed_count + fresh == total;
    let all = resumed.into_values().chain(records);
    let atlas = Atlas::from_records(header, all)?;

    // The engine-level dedup audit: canonical problems must map to
    // pairwise distinct content-addressed plan keys.
    let mut plan_keys = HashSet::new();
    for record in atlas.records() {
        if !plan_keys.insert(record.plan_key.as_str()) {
            return Err(AtlasError::Invariant(format!(
                "two canonical problems share plan key {}",
                record.plan_key
            )));
        }
    }

    Ok(CensusOutcome {
        atlas,
        stats: CensusStats {
            total,
            fresh,
            resumed: resumed_count,
            complete,
            sat: agg.sat,
            solve_us: agg.solve_us,
            elapsed: start.elapsed(),
            threads: agg.threads,
        },
    })
}

#[derive(Default)]
struct RunAgg {
    sat: SolverCost,
    solve_us: u64,
    threads: usize,
}

/// Streams `jobs` through the engine, building one record per job on
/// the workers. `on_record` sees every record as soon as it is finished
/// (journal append, progress) before it is collected.
fn run_jobs(
    engine: &Arc<Engine>,
    jobs: impl Iterator<Item = SpecJob> + Send + 'static,
    options: &CensusOptions,
    agg: &mut RunAgg,
    mut on_record: impl FnMut(&Record) -> Result<(), AtlasError>,
) -> Result<Vec<Record>, AtlasError> {
    let work = {
        let engine = Arc::clone(engine);
        let (step_budget, even_side, odd_side) =
            (options.step_budget, options.even_side, options.odd_side);
        move |job| build_record(&engine, job, step_budget, even_side, odd_side)
    };
    let stream = engine.stream_map(jobs, work);
    agg.threads = stream.threads();
    let mut records = Vec::new();
    for mapped in stream {
        let (record, solve_us) = match mapped.result {
            Ok(built) => built?,
            Err(StreamPanic::Work(detail) | StreamPanic::Source(detail)) => {
                return Err(AtlasError::Solve(SolveError::Panicked { detail }));
            }
        };
        agg.solve_us += solve_us;
        agg.sat.absorb(&record.sat);
        on_record(&record)?;
        records.push((mapped.index, record));
    }
    // Completion order is nondeterministic across threads; hand records
    // back in input order.
    records.sort_by_key(|&(index, _)| index);
    Ok(records.into_iter().map(|(_, record)| record).collect())
}

/// Classifies an ad-hoc list of problem specs through the census
/// machinery — the same budgeted stream, verdict rules, and record
/// shape the frontier census uses, for callers (examples, notebooks)
/// that bring their own problems instead of a frontier. Records come
/// back in input order, keyed by spec name; the census-only `table` and
/// `orbit` fields stay empty. The journal option is ignored (ad-hoc
/// runs have no canonical resume key space).
pub fn classify_specs(
    engine: &Arc<Engine>,
    specs: Vec<ProblemSpec>,
    options: &CensusOptions,
) -> Result<Vec<Record>, AtlasError> {
    options.validate()?;
    let jobs = specs.into_iter().map(|spec| {
        let (alphabet, blocks) = spec
            .to_block_lcl()
            .map_or((0, 0), |lcl| (lcl.alphabet(), lcl.allowed_count() as u32));
        SpecJob {
            key: spec.name().to_string(),
            spec,
            alphabet,
            blocks,
            table: None,
            orbit: None,
        }
    });
    let mut agg = RunAgg::default();
    run_jobs(
        engine,
        jobs.collect::<Vec<_>>().into_iter(),
        options,
        &mut agg,
        |_| Ok(()),
    )
}

/// One problem's whole census unit: prepare, the budgeted even-side
/// solve, classification under a fresh budget, and the odd-side probe.
/// Returns the record and the solve's wall time in µs. Only budget trips
/// and typed unsolvability become verdicts; any other engine error
/// aborts the census loudly.
fn build_record(
    engine: &Engine,
    job: SpecJob,
    step_budget: u64,
    even_side: usize,
    odd_side: usize,
) -> Result<(Record, u64), AtlasError> {
    let budget = || {
        if step_budget > 0 {
            Budget::steps(step_budget)
        } else {
            Budget::unlimited()
        }
    };
    let prepared = engine.prepare(&job.spec).map_err(AtlasError::Solve)?;
    let even = Instance::square(even_side, &IdAssignment::Sequential);
    let mut solve_us = 0;
    let (solve, rounds, solvable_even, sat) = match prepared.solve_with(&even, &budget()) {
        Ok(labelling) => {
            let report = labelling.report;
            solve_us = report.cost.total_us;
            (
                format!("solved:{}", report.solver),
                Some(report.rounds.total()),
                Some(true),
                report.cost.solver_total(),
            )
        }
        Err(SolveError::Unsolvable { .. }) => (
            "unsolvable".to_string(),
            None,
            Some(false),
            SolverCost::default(),
        ),
        Err(SolveError::DeadlineExceeded { tier, .. }) => {
            (format!("timeout:{tier}"), None, None, SolverCost::default())
        }
        Err(e) => return Err(AtlasError::Solve(e)),
    };

    let class = match prepared.classify_with(&budget()) {
        Ok(class) => Some(class),
        Err(SolveError::DeadlineExceeded { .. } | SolveError::Cancelled) => None,
        Err(e) => return Err(AtlasError::Solve(e)),
    };

    // The odd-side probe is an existence check on a ≤ odd_side² grid —
    // small enough to stay unbudgeted even for frontier stragglers.
    let odd = Instance::square(odd_side, &IdAssignment::Sequential);
    let solvable_odd = match prepared.solvable(&odd) {
        Ok(solvable) => Some(solvable),
        Err(SolveError::DeadlineExceeded { .. } | SolveError::Cancelled) => None,
        Err(e) => return Err(AtlasError::Solve(e)),
    };

    let analysis_unsolvable = prepared
        .analysis()
        .is_some_and(|a| a.unsolvable().is_some());
    let (verdict, class) = if analysis_unsolvable {
        // Classification of an everywhere-unsolvable problem is vacuous;
        // the verdict carries the information instead.
        (Verdict::Unsolvable, None)
    } else if let Some(class) = class {
        (Verdict::Classified, Some(class))
    } else {
        (Verdict::Timeout, None)
    };

    let record = Record {
        key: job.key,
        alphabet: job.alphabet,
        blocks: job.blocks,
        table: job.table,
        orbit: job.orbit,
        plan_key: prepared.cache_key().to_string(),
        verdict,
        class,
        solve,
        rounds,
        solvable_even,
        solvable_odd,
        sat,
    };
    Ok((record, solve_us))
}

/// Replays a journal: header must match the requested census; records
/// parse line by line. A malformed **final** line is a torn write from a
/// killed run — it is dropped and truncated off the file so appending
/// can continue; a malformed middle line is corruption and refuses.
fn load_journal(path: &Path, expected: &Header) -> Result<HashMap<String, Record>, AtlasError> {
    if !path.exists() {
        return Ok(HashMap::new());
    }
    let text = std::fs::read_to_string(path)?;
    if text.is_empty() {
        return Ok(HashMap::new());
    }
    let lines: Vec<&str> = text.lines().collect();
    let header = Header::parse(lines[0])
        .map_err(|e| AtlasError::Journal(format!("{}:1: {e}", path.display())))?;
    if &header != expected {
        return Err(AtlasError::Journal(format!(
            "{}: journal belongs to a different census (journal header {}, requested {})",
            path.display(),
            header.to_line(),
            expected.to_line(),
        )));
    }
    let mut records = HashMap::new();
    let mut keep = String::with_capacity(text.len());
    keep.push_str(lines[0]);
    keep.push('\n');
    let mut torn = false;
    for (i, line) in lines[1..].iter().enumerate() {
        if line.is_empty() {
            continue;
        }
        match Record::parse(line) {
            Ok(record) => {
                if records.insert(record.key.clone(), record).is_some() {
                    return Err(AtlasError::Journal(format!(
                        "{}:{}: duplicate census key",
                        path.display(),
                        i + 2
                    )));
                }
                keep.push_str(line);
                keep.push('\n');
            }
            Err(_) if i == lines.len() - 2 => {
                // Last line of the file: torn write, drop it.
                torn = true;
            }
            Err(e) => {
                return Err(AtlasError::Journal(format!(
                    "{}:{}: {e}",
                    path.display(),
                    i + 2
                )));
            }
        }
    }
    if torn {
        // Rewrite without the torn tail so the next append starts clean.
        std::fs::write(path, keep)?;
    }
    Ok(records)
}
