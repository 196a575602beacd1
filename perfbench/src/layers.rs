//! The per-layer table: every metric a traced run reports, and the
//! self-time attribution of `lcl_trace` spans to engine layers.
//!
//! A span's *self time* is its duration minus the durations of its
//! direct children (parent links are thread-local, so children always
//! ran on the span's own thread). Self times telescope: their sum over
//! all spans equals the summed duration of the root spans, so no
//! nanosecond is billed to two layers.

use lcl_trace::{Event, SpanKind};
use std::collections::{BTreeMap, HashMap};

/// Every solver tier the registry can dispatch, in registry order.
pub const TIERS: [&str; 10] = [
    "constant",
    "ball-carving-4-colouring",
    "cut-and-colour-5-edge-colouring",
    "synthesised-tiles",
    "ddim-parity-edge-colouring",
    "sat-existence",
    "ddim-pairwise-sat",
    "power-mis-log-star",
    "ddim-greedy-mis",
    "boundary-paths",
];

/// The per-layer metrics other than the per-tier rows, with units.
const FIXED: [(&str, &str); 43] = [
    ("atlas.enumerate.us", "us"),
    ("atlas.enumerate.candidates", "count"),
    ("atlas.enumerate.problems", "count"),
    ("engine.prepare.us", "us"),
    ("engine.prepare.calls", "count"),
    ("engine.prepare.hit_ratio", "ratio"),
    ("analyze.us", "us"),
    ("analyze.l002_skips", "count"),
    ("engine.classify.us", "us"),
    ("engine.classify.calls", "count"),
    ("synthesis.us", "us"),
    ("synthesis.calls", "count"),
    ("sat.us", "us"),
    ("sat.calls", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.conflicts", "count"),
    ("sat.sat_share", "ratio"),
    ("engine.solve.us", "us"),
    ("engine.solve.calls", "count"),
    ("engine.solve.first_tier_share", "ratio"),
    ("tier.ball-carving-4-colouring.rounds_growth", "ratio"),
    ("local.simulator.us", "us"),
    ("local.simulator.calls", "count"),
    ("engine.validate.us", "us"),
    ("engine.batch.dedup_hits", "count"),
    ("engine.batch.jobs", "count"),
    ("engine.stream.dedup_hits", "count"),
    ("engine.stream.jobs", "count"),
    ("engine.stream.wait_us", "us"),
    ("process.cpu_util", "ratio"),
    ("lang.compile.us", "us"),
    ("lang.compile.calls", "count"),
    ("serve.wire_us", "us"),
    ("serve.engine_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("gen.late_ms", "ms"),
    ("attributed_share", "ratio"),
    ("unattributed_us", "us"),
    ("trace.overhead_share", "ratio"),
    ("trace.dropped", "count"),
    ("trace.events", "count"),
    ("failed_share", "ratio"),
];

/// Per-tier metric suffixes and their units.
const TIER_FIELDS: [(&str, &str); 4] = [
    ("us", "us"),
    ("attempts", "count"),
    ("wins", "count"),
    ("rounds", "count"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn catalogue() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = FIXED
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for tier in TIERS {
        for (field, unit) in TIER_FIELDS {
            all.push((format!("tier.{tier}.{field}"), unit));
        }
    }
    all
}

/// A per-layer table under construction: metric name → value.
#[derive(Default)]
pub struct Table(pub BTreeMap<String, f64>);

impl Table {
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// TierOutcome trace codes that answered the solve (solved, unsolvable).
const WIN_CODES: [u64; 2] = [0, 1];

/// Attributes the self time of `events` to layers in `table` and
/// returns the total self time in µs (the attributed time).
pub fn attribute(events: &[Event], table: &mut Table) -> f64 {
    let by_id: HashMap<u64, &Event> = events.iter().map(|e| (e.span_id, e)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for e in events {
        if e.parent_id != 0 {
            *child_ns.entry(e.parent_id).or_insert(0) += e.duration_ns();
        }
    }
    let self_us = |e: &Event| {
        e.duration_ns()
            .saturating_sub(child_ns.get(&e.span_id).copied().unwrap_or(0)) as f64
            / 1e3
    };
    let parent_kind = |e: &Event| by_id.get(&e.parent_id).map(|p| p.kind);
    let (mut total, mut prepares, mut prepare_hits, mut solves, mut first_tier) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for e in events {
        // Instant marks (breaker skips, synthesis-cache answers) carry
        // no time.
        if e.kind == SpanKind::Mark || e.name == "synthesis-cache" {
            continue;
        }
        let us = self_us(e);
        total += us;
        match e.kind {
            SpanKind::Prepare => {
                table.add("engine.prepare.us", us);
                prepares += 1.0;
                prepare_hits += e.counters[0] as f64;
            }
            SpanKind::Resolve => table.add("engine.prepare.us", us),
            SpanKind::Analysis => table.add("analyze.us", us),
            SpanKind::Solve => {
                table.add("engine.solve.us", us);
                solves += 1.0;
                match e.counters[0] {
                    // No tier ledger row: the L002 short-circuit answered.
                    0 => table.add("analyze.l002_skips", 1.0),
                    1 => first_tier += 1.0,
                    _ => {}
                }
            }
            SpanKind::Tier => {
                table.add(&format!("tier.{}.us", e.name), us);
                table.add(&format!("tier.{}.attempts", e.name), 1.0);
                if WIN_CODES.contains(&e.counters[0]) {
                    table.add(&format!("tier.{}.wins", e.name), 1.0);
                }
            }
            SpanKind::Synthesis => {
                table.add("synthesis.us", us);
                table.add("synthesis.calls", 1.0);
                // Synthesis outside a tier walk is classification work.
                if parent_kind(e) != Some(SpanKind::Tier) {
                    table.add("engine.classify.us", e.duration_ns() as f64 / 1e3);
                    table.add("engine.classify.calls", 1.0);
                }
            }
            SpanKind::Sat => {
                table.add("sat.us", us);
                table.add("sat.calls", 1.0);
                table.add("sat.decisions", e.counters[0] as f64);
                table.add("sat.propagations", e.counters[1] as f64);
                table.add("sat.conflicts", e.counters[2] as f64);
            }
            SpanKind::Simulator => {
                table.add("local.simulator.us", us);
                table.add("local.simulator.calls", 1.0);
            }
            SpanKind::Validation => table.add("engine.validate.us", us),
            SpanKind::Dedup => table.add("engine.stream.dedup_hits", e.counters[0] as f64),
            SpanKind::Request => table.add("serve.wire_us", us),
            _ => {}
        }
    }
    table.set("engine.prepare.calls", prepares);
    table.set(
        "engine.prepare.hit_ratio",
        if prepares > 0.0 {
            prepare_hits / prepares
        } else {
            0.0
        },
    );
    table.set("engine.solve.calls", solves);
    table.set(
        "engine.solve.first_tier_share",
        if solves > 0.0 {
            first_tier / solves
        } else {
            0.0
        },
    );
    table.set(
        "sat.sat_share",
        if total > 0.0 {
            table.get("sat.us") / total
        } else {
            0.0
        },
    );
    table.set("trace.events", events.len() as f64);
    total
}

/// Fills the attribution check from a traced pass: `attributed_us` of
/// span self time against the pass's busy time. The busy time is the
/// pass's CPU time: with one busy thread that is its wall time, and
/// with `k` busy threads every wall second is counted `k` times, as
/// their span self times are.
pub fn attribution_check(table: &mut Table, attributed_us: f64, busy_us: f64) {
    table.set(
        "attributed_share",
        if busy_us > 0.0 {
            attributed_us / busy_us
        } else {
            0.0
        },
    );
    table.set("unattributed_us", busy_us - attributed_us);
    table.set("trace.dropped", lcl_trace::dropped() as f64);
}
