//! Service metrics: lock-cheap counters, log-bucketed latency
//! histograms with p50/p99 estimation, and the `/metrics` JSON document
//! that stitches them together with the engine's own counters
//! (prepare/synthesis stats, plan counts, stream dedup hits) and
//! per-problem solve rows.

use crate::json::Json;
use lcl_grids::analyze::{Analysis, Code};
use lcl_grids::engine::Engine;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Histogram bucket upper bounds, in microseconds: half-decade log scale
/// from 100 µs to 100 s, plus a catch-all. Coarse on purpose — the
/// service promises percentile *estimates* (bucket upper bounds), not
/// exact order statistics, in O(1) memory per endpoint.
const BUCKET_BOUNDS_US: [u64; 13] = [
    100,
    300,
    1_000,
    3_000,
    10_000,
    30_000,
    100_000,
    300_000,
    1_000_000,
    3_000_000,
    10_000_000,
    30_000_000,
    100_000_000,
];

/// A fixed-bucket latency histogram; `record` is wait-free.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    /// Records one latency observation.
    pub fn record(&self, micros: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(micros, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (`0 < q ≤ 1`) as the upper bound of the
    /// bucket holding the q-th observation; `None` when empty. The
    /// catch-all bucket reports the largest finite bound.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(
                    BUCKET_BOUNDS_US
                        .get(idx)
                        .copied()
                        .unwrap_or(BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]),
                );
            }
        }
        None
    }

    /// The histogram's bucket upper bounds in microseconds; the final
    /// implicit bucket is `+Inf`.
    pub fn bounds() -> &'static [u64] {
        &BUCKET_BOUNDS_US
    }

    /// Per-bucket observation counts (*not* cumulative), one entry per
    /// bound plus the trailing `+Inf` catch-all.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Sum of every recorded observation, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds; `None` when empty.
    pub fn mean_us(&self) -> Option<f64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        Some(self.sum_us.load(Ordering::Relaxed) as f64 / count as f64)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::count(self.count())),
            (
                "p50_us",
                self.quantile_us(0.50).map_or(Json::Null, Json::count),
            ),
            (
                "p99_us",
                self.quantile_us(0.99).map_or(Json::Null, Json::count),
            ),
            ("mean_us", self.mean_us().map_or(Json::Null, Json::num)),
        ])
    }
}

/// Per-endpoint accounting: request count by outcome class plus the
/// end-to-end (read-to-write) latency histogram.
#[derive(Default)]
pub struct EndpointMetrics {
    /// 2xx responses.
    pub ok: AtomicU64,
    /// 4xx responses (including 429 admission rejections).
    pub client_error: AtomicU64,
    /// 5xx responses.
    pub server_error: AtomicU64,
    /// End-to-end request latency.
    pub latency: Histogram,
}

impl EndpointMetrics {
    /// Records one finished request.
    pub fn record(&self, status: u16, micros: u64) {
        let counter = match status {
            200..=299 => &self.ok,
            400..=499 => &self.client_error,
            _ => &self.server_error,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.latency.record(micros);
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("ok", Json::count(self.ok.load(Ordering::Relaxed))),
            (
                "client_error",
                Json::count(self.client_error.load(Ordering::Relaxed)),
            ),
            (
                "server_error",
                Json::count(self.server_error.load(Ordering::Relaxed)),
            ),
            ("latency", self.latency.to_json()),
        ])
    }
}

/// One per-problem solve row, keyed by problem name in `/metrics`.
#[derive(Clone, Debug, Default)]
struct ProblemRow {
    jobs: u64,
    solved: u64,
    failed: u64,
    dedup_hits: u64,
}

/// Most distinct per-problem rows kept. Problem names are client-chosen
/// (the `dsl` problem type mints one per definition), so the map must
/// not grow with the number of names ever seen: beyond the cap, new
/// names fold into the [`OVERFLOW_PROBLEM_ROW`] row.
const MAX_PROBLEM_ROWS: usize = 256;

/// The catch-all row absorbing solves beyond [`MAX_PROBLEM_ROWS`].
const OVERFLOW_PROBLEM_ROW: &str = "(other)";

/// Minimum 5xx responses before the fault-rate signal can fire: below
/// this, a couple of early failures on an idle server would flap
/// `/healthz` to `degraded`.
const FAULT_RATE_MIN_SAMPLES: u64 = 8;

/// Everything the service counts, shared by acceptor, workers, and the
/// `/metrics` endpoint.
pub struct Metrics {
    /// `POST /prepare`.
    pub prepare: EndpointMetrics,
    /// `POST /solve`.
    pub solve: EndpointMetrics,
    /// `POST /solve-batch`.
    pub solve_batch: EndpointMetrics,
    /// `POST /classify`.
    pub classify: EndpointMetrics,
    /// `POST /analyze`.
    pub analyze: EndpointMetrics,
    /// Everything else (`/metrics`, `/healthz`, `/shutdown`, 404s).
    pub other: EndpointMetrics,
    /// Per-code lint counters (`L001`…), indexed by [`Code::ALL`]
    /// position: every diagnostic surfaced through `/analyze` or
    /// `/prepare` increments its code's counter.
    diagnostics: [AtomicU64; Code::ALL.len()],
    /// Analyses whose reports have been folded into `diagnostics`.
    pub analysis_reports: AtomicU64,
    /// Connections turned away at the admission queue (429s).
    pub busy_rejections: AtomicU64,
    /// Connections currently queued or being served (the admission
    /// gauge the acceptor checks against the queue bound).
    pub queue_depth: AtomicUsize,
    /// Requests that failed HTTP parsing (before reaching an endpoint).
    pub malformed_requests: AtomicU64,
    /// Whole tenant namespaces evicted to keep the tenant map under its
    /// `max_tenants` bound.
    pub tenant_evictions: AtomicU64,
    /// Per-problem solve accounting, keyed by problem display name.
    per_problem: Mutex<HashMap<String, ProblemRow>>,
    /// When this metrics registry (i.e. the server) came up; `/metrics`
    /// reports it as `uptime_secs`.
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            prepare: EndpointMetrics::default(),
            solve: EndpointMetrics::default(),
            solve_batch: EndpointMetrics::default(),
            classify: EndpointMetrics::default(),
            analyze: EndpointMetrics::default(),
            other: EndpointMetrics::default(),
            diagnostics: Default::default(),
            analysis_reports: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            malformed_requests: AtomicU64::new(0),
            tenant_evictions: AtomicU64::new(0),
            per_problem: Mutex::new(HashMap::new()),
            started: Instant::now(),
        }
    }
}

impl Metrics {
    /// The endpoint bucket for a request target.
    pub fn endpoint(&self, target: &str) -> &EndpointMetrics {
        match target {
            "/prepare" => &self.prepare,
            "/solve" => &self.solve,
            "/solve-batch" => &self.solve_batch,
            "/classify" => &self.classify,
            "/analyze" => &self.analyze,
            _ => &self.other,
        }
    }

    /// Folds one analysis report into the per-code lint counters.
    pub fn record_analysis(&self, analysis: &Analysis) {
        self.analysis_reports.fetch_add(1, Ordering::Relaxed);
        for (idx, code) in Code::ALL.iter().enumerate() {
            let n = analysis.count(*code) as u64;
            if n > 0 {
                self.diagnostics[idx].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Folds one solve outcome into the named problem's row — or into
    /// the `(other)` overflow row once `MAX_PROBLEM_ROWS` distinct
    /// names exist, so client-minted problem names (DSL sources) cannot
    /// grow this map or the `/metrics` document without bound.
    pub fn record_solve(&self, problem: &str, solved: bool, deduped: bool) {
        let mut rows = self
            .per_problem
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let key = if rows.contains_key(problem) || rows.len() < MAX_PROBLEM_ROWS {
            problem
        } else {
            OVERFLOW_PROBLEM_ROW
        };
        let row = rows.entry(key.to_string()).or_default();
        row.jobs += 1;
        if solved {
            row.solved += 1;
        } else {
            row.failed += 1;
        }
        if deduped {
            row.dedup_hits += 1;
        }
    }

    /// True while server-side failures dominate traffic: at least
    /// `FAULT_RATE_MIN_SAMPLES` 5xx responses so far *and* more 5xx
    /// than 2xx across every endpoint: the signal `/healthz` degrades on.
    pub fn fault_rate_exceeded(&self) -> bool {
        let endpoints = [
            &self.prepare,
            &self.solve,
            &self.solve_batch,
            &self.classify,
            &self.analyze,
            &self.other,
        ];
        let server_errors: u64 = endpoints
            .iter()
            .map(|e| e.server_error.load(Ordering::Relaxed))
            .sum();
        let ok: u64 = endpoints.iter().map(|e| e.ok.load(Ordering::Relaxed)).sum();
        server_errors >= FAULT_RATE_MIN_SAMPLES && server_errors > ok
    }

    /// Renders the full `/metrics` document, joining the service-side
    /// counters with the engine's.
    pub fn to_json(&self, engine: &Engine, queue_cap: usize, tenants: Json) -> Json {
        let prepare_stats = engine.prepare_stats();
        let synth_stats = engine.registry().synth_stats();
        let rows = {
            let rows = self
                .per_problem
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let mut rows: Vec<(String, ProblemRow)> =
                rows.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            rows
        };
        let health = engine.health();
        let health_json = Json::obj(vec![
            (
                "tiers",
                Json::Obj(
                    health
                        .tier_counters()
                        .into_iter()
                        .map(|(tier, c)| {
                            (
                                tier,
                                Json::obj(vec![
                                    ("timeouts", Json::count(c.timeouts)),
                                    ("fallbacks", Json::count(c.fallbacks)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "dedup_poison_recoveries",
                Json::count(health.dedup_poison_recoveries()),
            ),
        ]);
        let chaos_json = match engine.chaos() {
            Some(chaos) => Json::obj(vec![
                ("seed", Json::count(chaos.config().seed)),
                (
                    "injected",
                    Json::Obj(
                        chaos
                            .injected_counts()
                            .into_iter()
                            .map(|(point, n)| (point.to_string(), Json::count(n)))
                            .collect(),
                    ),
                ),
                ("injected_total", Json::count(chaos.injected_total())),
            ]),
            None => Json::Null,
        };
        Json::obj(vec![
            ("uptime_secs", Json::count(self.started.elapsed().as_secs())),
            (
                "endpoints",
                Json::obj(vec![
                    ("prepare", self.prepare.to_json()),
                    ("solve", self.solve.to_json()),
                    ("solve_batch", self.solve_batch.to_json()),
                    ("classify", self.classify.to_json()),
                    ("analyze", self.analyze.to_json()),
                    ("other", self.other.to_json()),
                ]),
            ),
            (
                "analysis",
                Json::obj(
                    std::iter::once((
                        "reports",
                        Json::count(self.analysis_reports.load(Ordering::Relaxed)),
                    ))
                    .chain(Code::ALL.iter().enumerate().map(|(idx, code)| {
                        (
                            code.as_str(),
                            Json::count(self.diagnostics[idx].load(Ordering::Relaxed)),
                        )
                    }))
                    .collect(),
                ),
            ),
            (
                "admission",
                Json::obj(vec![
                    (
                        "queue_depth",
                        Json::size(self.queue_depth.load(Ordering::Relaxed)),
                    ),
                    ("queue_cap", Json::size(queue_cap)),
                    (
                        "busy_rejections",
                        Json::count(self.busy_rejections.load(Ordering::Relaxed)),
                    ),
                    (
                        "malformed_requests",
                        Json::count(self.malformed_requests.load(Ordering::Relaxed)),
                    ),
                    (
                        "tenant_evictions",
                        Json::count(self.tenant_evictions.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "engine",
                Json::obj(vec![
                    (
                        "prepare_stats",
                        Json::obj(vec![
                            ("hits", Json::count(prepare_stats.hits)),
                            ("resolved", Json::count(prepare_stats.resolved)),
                            ("evicted", Json::count(prepare_stats.evicted)),
                        ]),
                    ),
                    (
                        "synth_stats",
                        Json::obj(vec![
                            ("memory_hits", Json::count(synth_stats.memory_hits)),
                            ("disk_hits", Json::count(synth_stats.disk_hits)),
                            ("synthesised", Json::count(synth_stats.synthesised)),
                        ]),
                    ),
                    ("prepared_plans", Json::size(engine.prepared_plans())),
                    ("stream_dedup_hits", Json::count(engine.stream_dedup_hits())),
                ]),
            ),
            (
                "problems",
                Json::Obj(
                    rows.into_iter()
                        .map(|(name, row)| {
                            (
                                name,
                                Json::obj(vec![
                                    ("jobs", Json::count(row.jobs)),
                                    ("solved", Json::count(row.solved)),
                                    ("failed", Json::count(row.failed)),
                                    ("dedup_hits", Json::count(row.dedup_hits)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("health", health_json),
            ("chaos", chaos_json),
            ("tenants", tenants),
        ])
    }

    /// Renders the Prometheus text exposition (version 0.0.4) of the
    /// same counters `/metrics` serves as JSON: per-endpoint request
    /// counters by outcome class, the latency histograms in the
    /// cumulative `_bucket`/`_sum`/`_count` form, admission and engine
    /// counters, and an `lcl_build_info` info-gauge carrying the crate
    /// version. Served at `GET /metrics?format=prometheus` (or via
    /// `Accept: text/plain`).
    pub fn to_prometheus(&self, engine: &Engine, queue_cap: usize, version: &str) -> String {
        let mut out = String::with_capacity(4096);
        let endpoints: [(&str, &EndpointMetrics); 6] = [
            ("prepare", &self.prepare),
            ("solve", &self.solve),
            ("solve_batch", &self.solve_batch),
            ("classify", &self.classify),
            ("analyze", &self.analyze),
            ("other", &self.other),
        ];

        out.push_str("# HELP lcl_requests_total Finished requests by endpoint and outcome class.\n# TYPE lcl_requests_total counter\n");
        for (name, ep) in &endpoints {
            for (class, counter) in [
                ("ok", &ep.ok),
                ("client_error", &ep.client_error),
                ("server_error", &ep.server_error),
            ] {
                let n = counter.load(Ordering::Relaxed);
                out.push_str(&format!(
                    "lcl_requests_total{{endpoint=\"{name}\",class=\"{class}\"}} {n}\n"
                ));
            }
        }

        out.push_str("# HELP lcl_request_latency_us End-to-end request latency in microseconds.\n# TYPE lcl_request_latency_us histogram\n");
        for (name, ep) in &endpoints {
            let mut cumulative = 0u64;
            for (bound, count) in Histogram::bounds()
                .iter()
                .map(|b| Some(*b))
                .chain(std::iter::once(None))
                .zip(ep.latency.bucket_counts())
            {
                cumulative += count;
                let le = bound.map_or("+Inf".to_string(), |b| b.to_string());
                out.push_str(&format!(
                    "lcl_request_latency_us_bucket{{endpoint=\"{name}\",le=\"{le}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!(
                "lcl_request_latency_us_sum{{endpoint=\"{name}\"}} {}\n",
                ep.latency.sum_us()
            ));
            out.push_str(&format!(
                "lcl_request_latency_us_count{{endpoint=\"{name}\"}} {}\n",
                ep.latency.count()
            ));
        }

        let gauge = |out: &mut String, name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        };
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        gauge(
            &mut out,
            "lcl_queue_depth",
            "Connections queued or being served.",
            self.queue_depth.load(Ordering::Relaxed) as u64,
        );
        gauge(
            &mut out,
            "lcl_queue_cap",
            "Admission queue bound.",
            queue_cap as u64,
        );
        counter(
            &mut out,
            "lcl_busy_rejections_total",
            "Connections answered 429 at the admission queue.",
            self.busy_rejections.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "lcl_malformed_requests_total",
            "Requests that failed HTTP parsing.",
            self.malformed_requests.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "lcl_tenant_evictions_total",
            "Tenant namespaces evicted to stay under max_tenants.",
            self.tenant_evictions.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "lcl_analysis_reports_total",
            "Analyses folded into the lint counters.",
            self.analysis_reports.load(Ordering::Relaxed),
        );
        out.push_str("# HELP lcl_diagnostics_total Lint diagnostics surfaced, by code.\n# TYPE lcl_diagnostics_total counter\n");
        for (idx, code) in Code::ALL.iter().enumerate() {
            out.push_str(&format!(
                "lcl_diagnostics_total{{code=\"{}\"}} {}\n",
                code.as_str(),
                self.diagnostics[idx].load(Ordering::Relaxed)
            ));
        }

        let prepare_stats = engine.prepare_stats();
        let synth_stats = engine.registry().synth_stats();
        counter(
            &mut out,
            "lcl_engine_prepare_hits_total",
            "Prepared-plan memo hits.",
            prepare_stats.hits,
        );
        counter(
            &mut out,
            "lcl_engine_prepare_resolved_total",
            "Plans resolved (memo misses).",
            prepare_stats.resolved,
        );
        counter(
            &mut out,
            "lcl_engine_synth_memory_hits_total",
            "Synthesis memory-cache hits.",
            synth_stats.memory_hits,
        );
        counter(
            &mut out,
            "lcl_engine_synth_disk_hits_total",
            "Synthesis disk-cache hits.",
            synth_stats.disk_hits,
        );
        counter(
            &mut out,
            "lcl_engine_synthesised_total",
            "Normal forms synthesised from scratch.",
            synth_stats.synthesised,
        );
        gauge(
            &mut out,
            "lcl_engine_prepared_plans",
            "Prepared plans currently memoised.",
            engine.prepared_plans() as u64,
        );
        counter(
            &mut out,
            "lcl_engine_stream_dedup_hits_total",
            "Batch-stream dedup window hits.",
            engine.stream_dedup_hits(),
        );
        gauge(
            &mut out,
            "lcl_uptime_seconds",
            "Seconds since the metrics registry came up.",
            self.started.elapsed().as_secs(),
        );
        out.push_str(&format!(
            "# HELP lcl_build_info Build metadata as labels; value is always 1.\n# TYPE lcl_build_info gauge\nlcl_build_info{{version=\"{}\"}} 1\n",
            version.replace(['"', '\\', '\n'], "_")
        ));
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_buckets() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(50); // first bucket, bound 100
        }
        h.record(2_000_000); // 3s bucket
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.50), Some(100));
        assert_eq!(h.quantile_us(0.99), Some(100));
        assert_eq!(h.quantile_us(1.0), Some(3_000_000));
        assert!(h.mean_us().unwrap() > 50.0);
        assert_eq!(Histogram::default().quantile_us(0.5), None);
    }

    #[test]
    fn per_problem_rows_fold_overflow_into_other() {
        let m = Metrics::default();
        for i in 0..(MAX_PROBLEM_ROWS + 50) {
            m.record_solve(&format!("minted-{i}"), true, false);
        }
        let rows = m.per_problem.lock().unwrap();
        assert!(rows.len() <= MAX_PROBLEM_ROWS + 1, "rows: {}", rows.len());
        assert_eq!(rows.get(OVERFLOW_PROBLEM_ROW).unwrap().jobs, 50);
        drop(rows);
        // Known names keep accumulating on their own row past the cap.
        m.record_solve("minted-0", false, false);
        let rows = m.per_problem.lock().unwrap();
        assert_eq!(rows.get("minted-0").unwrap().failed, 1);
    }

    #[test]
    fn prometheus_exposition_is_parseable_and_consistent() {
        let m = Metrics::default();
        m.endpoint("/solve").record(200, 150);
        m.endpoint("/solve").record(500, 2_000_000);
        let engine = lcl_grids::engine::Engine::builder()
            .max_synthesis_k(1)
            .build();
        let text = m.to_prometheus(&engine, 64, "1.2.3");
        // Every line is a comment or `name{labels} integer`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(
                name.starts_with("lcl_") && value.parse::<u64>().is_ok(),
                "unparseable exposition line: {line:?}"
            );
        }
        assert!(text.contains("lcl_requests_total{endpoint=\"solve\",class=\"ok\"} 1\n"));
        assert!(text.contains("lcl_requests_total{endpoint=\"solve\",class=\"server_error\"} 1\n"));
        // The cumulative +Inf bucket equals _count, and _sum is exact.
        assert!(text.contains("lcl_request_latency_us_bucket{endpoint=\"solve\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("lcl_request_latency_us_count{endpoint=\"solve\"} 2\n"));
        assert!(text.contains("lcl_request_latency_us_sum{endpoint=\"solve\"} 2000150\n"));
        // Buckets are cumulative: the 300µs bucket already counts the
        // 150µs observation.
        assert!(text.contains("lcl_request_latency_us_bucket{endpoint=\"solve\",le=\"300\"} 1\n"));
        assert!(text.contains("lcl_build_info{version=\"1.2.3\"} 1\n"));
    }

    #[test]
    fn endpoint_counters_classify_status() {
        let m = Metrics::default();
        m.endpoint("/solve").record(200, 10);
        m.endpoint("/solve").record(429, 10);
        m.endpoint("/solve").record(500, 10);
        m.endpoint("/nope").record(404, 10);
        assert_eq!(m.solve.ok.load(Ordering::Relaxed), 1);
        assert_eq!(m.solve.client_error.load(Ordering::Relaxed), 1);
        assert_eq!(m.solve.server_error.load(Ordering::Relaxed), 1);
        assert_eq!(m.other.client_error.load(Ordering::Relaxed), 1);
    }
}
