//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload census|solve --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Each workload drives the engine only through its public surface and
//! times those calls from outside (see `README.md` beside this crate
//! for the workloads, metric definitions and layer attribution). The
//! first stdout line is the run header; the last is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer table with `--trace 1`.
//! The exit code is 0 only when every output passed the correctness
//! gate.

mod census;
mod layers;
mod serve;
mod solve;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Command-line options shared by every workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every workload to a quick functional check.
    pub smoke: bool,
    /// Engine worker threads: one per core.
    pub threads: usize,
}

/// What a workload hands back to the reporter.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics (name → value); units come from [`E2E`].
    pub e2e: BTreeMap<&'static str, f64>,
    /// The per-layer table (filled by traced runs only).
    pub layers: layers::Table,
    /// Operations checked by the correctness gate.
    pub attempted: u64,
    /// Operations that failed: typed errors, drops, timeouts, invalid
    /// labellings, wrong verdicts, mismatched artifact lines.
    pub failed: u64,
    /// Which correctness gate ran (empty if none did).
    pub gate: String,
    /// Load threads / connections the workload drove the engine with.
    pub load_threads: usize,
    /// Extra report lines printed before the result line.
    pub notes: Vec<String>,
}

/// The end-to-end metrics every workload reports, with their units.
pub const E2E: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("max_rate_rps", "1/s"),
    ("local_rounds", "count"),
    ("peak_rss_mb", "MB"),
];

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload census|solve --seed N --seconds S --trace 0|1 [--smoke]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["census", "solve"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// The commit being measured: read from `.git` when the checkout has
/// one, else `unknown` (benchmark checkouts are plain file trees).
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.to_string()
    }
}

/// JSON string literal (the strings here are ASCII identifiers and
/// messages; quotes, backslashes and control bytes are escaped).
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits (non-finite values become 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => return usage(&msg),
    };
    let result = match args.workload.as_str() {
        "census" => census::run(&args),
        _ => solve::run(&args),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("perfbench: {} workload failed: {msg}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    outcome.e2e.insert("peak_rss_mb", util::peak_rss_mb());
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.layers.set("failed_share", failed_share);

    println!(
        "{{\"header\":{{\"git_rev\":{},\"profile\":{},\"nproc\":{},\"engine_threads\":{},\"load_threads\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"tracing\":{},\"smoke\":{}}}}}",
        quote(&git_rev()),
        quote(if cfg!(debug_assertions) { "debug" } else { "release" }),
        std::thread::available_parallelism().map_or(1, usize::from),
        args.threads,
        outcome.load_threads,
        quote(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "gate: {} ({} attempted, {} failed, failed_share {})",
        if outcome.gate.is_empty() {
            "none"
        } else {
            &outcome.gate
        },
        outcome.attempted,
        outcome.failed,
        number(failed_share),
    );

    let row = |name: &str, value: f64, unit: &str| {
        format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            quote(name),
            number(value),
            quote(unit)
        )
    };
    let metrics: Vec<String> = if args.trace {
        let share = outcome.layers.get("attributed_share");
        if share < 0.95 {
            println!(
                "attribution: FLAG {} workload attributes {share:.3} of its busy time to spans (< 0.95)",
                args.workload
            );
        }
        layers::catalogue()
            .into_iter()
            .map(|(name, unit)| row(&name, outcome.layers.get(&name), unit))
            .collect()
    } else {
        E2E.iter()
            .map(|&(name, unit)| row(name, outcome.e2e.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    };
    let correct = outcome.failed == 0 && !outcome.gate.is_empty() && outcome.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
