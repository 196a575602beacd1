//! The census CLI: enumerate a frontier, classify every problem, emit
//! the artifact.
//!
//! ```text
//! atlas [--max-alphabet N] [--max-blocks N] [--threads N] [--max-k N]
//!       [--step-budget N] [--journal PATH] [--out PATH] [--summary PATH]
//!       [--bench-out PATH] [--max-records N] [--progress N]
//! ```
//!
//! The artifact and summary are only written when the census is
//! *complete* (every frontier problem has a record); a `--max-records`-
//! bounded run journals its partial progress and reports how much is
//! left, so `atlas --journal j.jsonl …` can be re-run (or killed and
//! re-run) until done — the final artifact is byte-identical to an
//! uninterrupted run's. `--bench-out` additionally writes a
//! `BENCH_atlas.json` throughput report (wall-clock lives there, never
//! in the artifact).

use lcl_atlas::{run_census, CensusOptions, Frontier};
use lcl_grids::Engine;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

struct Config {
    frontier: Frontier,
    options: CensusOptions,
    threads: usize,
    max_k: usize,
    out: Option<PathBuf>,
    summary: Option<PathBuf>,
    bench_out: Option<PathBuf>,
}

fn fail(msg: &str) -> ! {
    eprintln!("atlas: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut cfg = Config {
        frontier: Frontier::alphabet(2),
        options: CensusOptions {
            progress_every: Some(256),
            ..CensusOptions::default()
        },
        threads: 0,
        max_k: 1,
        out: None,
        summary: None,
        bench_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} requires a value")))
        };
        let parse_u64 = |name: &str, v: String| {
            v.parse::<u64>()
                .unwrap_or_else(|_| fail(&format!("{name}: not a number: {v}")))
        };
        match arg.as_str() {
            "--max-alphabet" => {
                cfg.frontier.max_alphabet =
                    parse_u64("--max-alphabet", value("--max-alphabet")) as u16;
            }
            "--max-blocks" => {
                cfg.frontier.max_blocks =
                    Some(parse_u64("--max-blocks", value("--max-blocks")) as u32);
            }
            "--threads" => cfg.threads = parse_u64("--threads", value("--threads")) as usize,
            "--max-k" => cfg.max_k = parse_u64("--max-k", value("--max-k")) as usize,
            "--step-budget" => {
                cfg.options.step_budget = parse_u64("--step-budget", value("--step-budget"));
            }
            "--journal" => cfg.options.journal = Some(PathBuf::from(value("--journal"))),
            "--out" => cfg.out = Some(PathBuf::from(value("--out"))),
            "--summary" => cfg.summary = Some(PathBuf::from(value("--summary"))),
            "--bench-out" => cfg.bench_out = Some(PathBuf::from(value("--bench-out"))),
            "--max-records" => {
                cfg.options.max_records = Some(parse_u64("--max-records", value("--max-records")));
            }
            "--progress" => {
                let every = parse_u64("--progress", value("--progress"));
                cfg.options.progress_every = (every > 0).then_some(every);
            }
            other => fail(&format!("unknown argument {other}")),
        }
    }
    cfg
}

fn write_all(path: &PathBuf, content: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, content)
}

fn main() -> ExitCode {
    let cfg = parse_args();
    let engine = Arc::new(
        Engine::builder()
            .threads(cfg.threads)
            .max_synthesis_k(cfg.max_k)
            .build(),
    );
    let outcome = match run_census(&engine, &cfg.frontier, &cfg.options) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("atlas: census failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = &outcome.stats;
    let summary = outcome.atlas.summary();
    println!(
        "census: {}/{} problems ({} fresh, {} resumed) over {} candidates, dedup ratio {}, {:.2?}",
        outcome.atlas.len(),
        stats.total,
        stats.fresh,
        stats.resumed,
        summary.candidates,
        summary.dedup_ratio(),
        stats.elapsed,
    );

    if !stats.complete {
        println!(
            "partial census: {} problems still unclassified; re-run with the same --journal to continue",
            stats.total - stats.fresh - stats.resumed,
        );
        if cfg.out.is_some() || cfg.summary.is_some() {
            println!("artifact not written (census incomplete)");
        }
        return ExitCode::SUCCESS;
    }

    if let Some(out) = &cfg.out {
        if let Some(parent) = out.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("atlas: cannot create {}: {e}", parent.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Err(e) = outcome.atlas.write(out) {
            eprintln!("atlas: cannot write artifact {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        println!("artifact: {}", out.display());
    }
    if let Some(path) = &cfg.summary {
        if let Err(e) = write_all(path, &summary.to_json()) {
            eprintln!("atlas: cannot write summary {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("summary: {}", path.display());
    }
    if let Some(path) = &cfg.bench_out {
        let elapsed_s = stats.elapsed.as_secs_f64();
        let rate = stats.fresh as f64 / elapsed_s.max(1e-9);
        let tier_mix: Vec<String> = summary
            .solvers
            .iter()
            .map(|(solver, n)| format!("    \"{solver}\": {n}"))
            .collect();
        let bench = format!(
            "{{\n  \"bench\": \"atlas\",\n  \"threads\": {},\n  \"cores\": {},\n  \"max_alphabet\": {},\n  \"problems\": {},\n  \"fresh\": {},\n  \"candidates\": {},\n  \"dedup_ratio\": \"{}\",\n  \"elapsed_s\": {elapsed_s:.3},\n  \"problems_per_s\": {rate:.1},\n  \"solve_us\": {},\n  \"sat_decisions\": {},\n  \"sat_propagations\": {},\n  \"sat_conflicts\": {},\n  \"tier_mix\": {{\n{}\n  }}\n}}\n",
            stats.threads,
            std::thread::available_parallelism().map_or(1, usize::from),
            cfg.frontier.max_alphabet,
            outcome.atlas.len(),
            stats.fresh,
            summary.candidates,
            summary.dedup_ratio(),
            stats.solve_us,
            stats.sat.decisions,
            stats.sat.propagations,
            stats.sat.conflicts,
            tier_mix.join(",\n"),
        );
        if let Err(e) = write_all(path, &bench) {
            eprintln!("atlas: cannot write bench report {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("bench: {}", path.display());
    }
    ExitCode::SUCCESS
}
