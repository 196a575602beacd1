//! The streaming paths: million-item workloads in `O(threads)` memory.
//!
//! [`Engine::stream_map`] is the one streaming executor; its invariants
//! are stated on it and pinned by `tests/stream.rs`.
//! [`Engine::solve_stream`] is an adapter over it: the items are
//! mixed-problem [`Job`]s, the work is one solve, and the results are
//! [`JobOutcome`]s.
//!
//! Streaming trades the batch path's *unbounded* in-batch dedup for the
//! memory bound — remembering every previously seen job is exactly what
//! an unbounded workload cannot afford. The opt-in compromise is the
//! *bounded* dedup window
//! ([`EngineBuilder::stream_dedup_window`](crate::engine::EngineBuilder::stream_dedup_window)):
//! an LRU over the last `n` distinct plan-key × instance-key groups, so
//! repeat-heavy service traffic recovers most of the slice path's dedup
//! savings in `O(window × nodes)` extra memory. Window answers are
//! flagged per outcome ([`JobOutcome::deduped`]) and counted per stream
//! ([`SolveStream::dedup_hits`]) and per engine
//! ([`Engine::stream_dedup_hits`](crate::engine::Engine::stream_dedup_hits)).
//! The shared caches still amortise across the stream either way:
//! synthesis tables and prepared plans are resolved once per problem, not
//! per job. Results arrive in *completion* order, tagged with the job's
//! input index; a consumer that needs input order should use the slice
//! entry points, which preserve it for free.

use super::batch::{self, panic_detail, Job};
use super::chaos::{ChaosState, FaultPoint};
use super::health::Health;
use super::registry::fnv1a64;
use super::{Engine, Instance, Labelling, PreparedProblem, SolveError};
use lcl_sat::Budget;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// One finished stream job: the input position it came from, the problem
/// it belongs to, and the solve result.
#[derive(Debug)]
pub struct JobOutcome {
    /// Zero-based position of the job in the input iterator.
    pub index: u64,
    /// The prepared problem's display name.
    pub problem: String,
    /// The solve result.
    pub result: Result<Labelling, SolveError>,
    /// True iff the result was answered from the bounded stream dedup
    /// window (see
    /// [`EngineBuilder::stream_dedup_window`](crate::engine::EngineBuilder::stream_dedup_window))
    /// instead of a fresh solve. Solving is deterministic, so a deduped
    /// result is byte-identical to the fresh one.
    pub deduped: bool,
}

/// The shared pull-end of a stream: the item iterator plus the running
/// input index, taken by one worker at a time. `items` becomes `None`
/// once the iterator is exhausted — or once it panicked, so that every
/// worker (not just the observing one) stops pulling from it.
struct Source<I> {
    items: Option<I>,
    next_index: u64,
}

/// One finished item of an [`Engine::stream_map`]: its input position
/// and what the work returned for it.
#[derive(Debug)]
pub struct Mapped<T> {
    /// Zero-based position of the item in the input iterator.
    pub index: u64,
    /// The work's value, or the panic caught in its place.
    pub result: Result<T, StreamPanic>,
}

/// A panic [`Engine::stream_map`] caught instead of losing a worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamPanic {
    /// The work panicked on this item. Only this item is lost; the
    /// other items still arrive.
    Work(String),
    /// The input iterator panicked producing the item at this index.
    /// No worker pulls again; only items already in flight still arrive.
    Source(String),
}

/// A running [`Engine::stream_map`]: iterate it to drain results (in
/// completion order). Dropping it early is safe — workers observe the
/// disconnected channel and wind down; the drop joins them.
pub struct MapStream<T> {
    rx: Option<mpsc::Receiver<Mapped<T>>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T> MapStream<T> {
    /// Worker threads running this stream.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The guaranteed bound on items pulled from the input but not yet
    /// yielded to the consumer: one in-flight item per worker plus one
    /// buffered result slot per worker (`2 × threads`). This is what
    /// keeps an arbitrarily long input in `O(threads)` memory.
    pub fn buffer_bound(&self) -> usize {
        2 * self.threads()
    }
}

impl<T> Iterator for MapStream<T> {
    type Item = Mapped<T>;

    fn next(&mut self) -> Option<Mapped<T>> {
        self.rx.as_ref()?.recv().ok()
    }
}

impl<T> Drop for MapStream<T> {
    fn drop(&mut self) {
        // Disconnect first so blocked workers fail their sends instead of
        // deadlocking against a join, then reap them.
        self.rx = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One remembered job group in the bounded stream dedup window.
struct WindowEntry {
    fingerprint: u64,
    prepared: Arc<PreparedProblem>,
    instance: Instance,
    result: Result<Labelling, SolveError>,
    /// FNV checksum of the labels at insertion time. Every lookup
    /// re-verifies it, so a corrupted entry — bit rot, a buggy in-place
    /// mutation, or an injected [`FaultPoint::DedupPoison`] — is detected
    /// and transparently re-solved instead of served.
    checksum: u64,
    last_used: u64,
}

/// The integrity checksum of a cached result (errors carry no labels and
/// checksum to the empty hash).
fn labels_checksum(result: &Result<Labelling, SolveError>) -> u64 {
    match result {
        Ok(labelling) => fnv1a64(labelling.labels.iter().flat_map(|l| l.to_le_bytes())),
        Err(_) => fnv1a64(std::iter::empty::<u8>()),
    }
}

/// The bounded LRU over plan-key × instance-key groups behind
/// [`EngineBuilder::stream_dedup_window`](crate::engine::EngineBuilder::stream_dedup_window).
/// At most `cap` entries; a linear scan per lookup is fine at window
/// sizes (the fingerprint comparison rejects non-matches in one branch,
/// and candidates are verified against the actual job like the batch
/// path, so a fingerprint collision costs a comparison, never a wrong
/// share).
struct DedupWindow {
    cap: usize,
    clock: u64,
    entries: Vec<WindowEntry>,
}

impl DedupWindow {
    fn new(cap: usize) -> DedupWindow {
        DedupWindow {
            cap,
            clock: 0,
            entries: Vec::with_capacity(cap.min(1024)),
        }
    }

    /// The window answer for a job, bumping its LRU stamp on a hit.
    /// Matching follows the batch dedup identity exactly: same prepared
    /// *handle* (pointer identity — differently-configured engines'
    /// key-equal handles never alias) and interchangeable instance.
    ///
    /// Every hit is integrity-checked against the entry's insertion-time
    /// checksum: a poisoned entry is evicted, counted in
    /// [`Health::dedup_poison_recoveries`], and reported as a miss, so
    /// the job is transparently re-solved — corruption costs time, never
    /// a wrong answer.
    fn lookup(
        &mut self,
        fingerprint: u64,
        prepared: &Arc<PreparedProblem>,
        inst: &Instance,
        health: &Health,
    ) -> Option<Result<Labelling, SolveError>> {
        self.clock += 1;
        let clock = self.clock;
        let pos = self.entries.iter().position(|e| {
            e.fingerprint == fingerprint
                && Arc::ptr_eq(&e.prepared, prepared)
                && e.instance.same_input(inst)
        })?;
        if labels_checksum(&self.entries[pos].result) != self.entries[pos].checksum {
            self.entries.swap_remove(pos);
            health.record_dedup_poison_recovery();
            return None;
        }
        let e = &mut self.entries[pos];
        e.last_used = clock;
        Some(e.result.clone())
    }

    /// Remembers a freshly solved job, evicting the least-recently-used
    /// entry when the window is full. A concurrent worker may have
    /// inserted the same group while this one was solving; the duplicate
    /// is harmless (identical deterministic results) and ages out.
    ///
    /// With chaos armed, [`FaultPoint::DedupPoison`] may corrupt the
    /// entry *after* its checksum is taken — the injected fault the
    /// lookup-time integrity check must catch.
    fn insert(&mut self, mut entry: WindowEntry, chaos: Option<&ChaosState>) {
        if self.cap == 0 {
            return;
        }
        entry.checksum = labels_checksum(&entry.result);
        if let Some(chaos) = chaos {
            if chaos.should(FaultPoint::DedupPoison) {
                if let Ok(labelling) = &mut entry.result {
                    if let Some(first) = labelling.labels.first_mut() {
                        *first ^= 1;
                    }
                }
            }
        }
        if self.entries.len() >= self.cap {
            if let Some(oldest) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(oldest);
            }
        }
        self.clock += 1;
        let clock = self.clock;
        self.entries.push(WindowEntry {
            last_used: clock,
            ..entry
        });
    }
}

/// The `problem` tag of the outcome reporting a panicking jobs iterator
/// (there is no prepared problem to name — the input itself failed).
pub const JOBS_ITERATOR_PANICKED: &str = "<jobs-iterator>";

/// The `problem` tag of a job whose stream work panicked outside the
/// solve (the dedup window), after the job was consumed.
const WORK_PANICKED: &str = "<stream-work>";

/// A running streamed solve: iterate it to drain results (in completion
/// order). Dropping the stream early is safe — workers observe the
/// disconnected channel and wind down; the drop joins them.
pub struct SolveStream {
    inner: MapStream<JobOutcome>,
    dedup_hits: Arc<AtomicU64>,
}

impl SolveStream {
    /// Worker threads solving this stream.
    pub fn threads(&self) -> usize {
        self.inner.threads()
    }

    /// The guaranteed bound on jobs pulled from the input but not yet
    /// yielded to the consumer (see [`MapStream::buffer_bound`]), plus
    /// the opt-in dedup window's `O(window × nodes)`, when configured.
    pub fn buffer_bound(&self) -> usize {
        self.inner.buffer_bound()
    }

    /// Jobs of *this* stream answered from the bounded dedup window so
    /// far (0 unless
    /// [`EngineBuilder::stream_dedup_window`](crate::engine::EngineBuilder::stream_dedup_window)
    /// is configured). Iterate the stream via `&mut` to read the counter
    /// mid-drain or after exhaustion.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits.load(Ordering::Relaxed)
    }
}

impl Iterator for SolveStream {
    type Item = JobOutcome;

    fn next(&mut self) -> Option<JobOutcome> {
        let Mapped { index, result } = self.inner.next()?;
        let (problem, detail) = match result {
            Ok(outcome) => return Some(JobOutcome { index, ..outcome }),
            // Solver panics are caught inside the work, under the job's
            // problem name; a work panic here came from outside a solve.
            Err(StreamPanic::Work(detail)) => (WORK_PANICKED, detail),
            Err(StreamPanic::Source(detail)) => (JOBS_ITERATOR_PANICKED, detail),
        };
        Some(JobOutcome {
            index,
            problem: problem.to_string(),
            result: Err(SolveError::Panicked { detail }),
            deduped: false,
        })
    }
}

impl Engine {
    /// Streams a (possibly unbounded, possibly mixed-problem) sequence of
    /// [`Job`]s through the worker pool, yielding [`JobOutcome`]s in
    /// completion order through a bounded channel with backpressure.
    ///
    /// An adapter over [`Engine::stream_map`], which states the pulling,
    /// bound, panic and drop invariants: the jobs are never collected. A
    /// panicking solver terminates only the affected job (typed as
    /// [`SolveError::Panicked`]); a panicking jobs *iterator* is reported
    /// as a [`JobOutcome`] whose `problem` is
    /// [`JOBS_ITERATOR_PANICKED`] and whose result is the typed panic.
    ///
    /// ```
    /// use lcl_grids::engine::{Engine, Instance, Job, ProblemSpec};
    /// use lcl_grids::local::IdAssignment;
    ///
    /// let engine = Engine::builder().threads(2).build();
    /// let ind = engine.prepare(&ProblemSpec::independent_set()).unwrap();
    /// let jobs = (0..100u64).map(move |seed| {
    ///     Job::new(
    ///         ind.clone(),
    ///         Instance::square(4, &IdAssignment::Shuffled { seed }),
    ///     )
    /// });
    /// let mut seen = 0;
    /// for outcome in engine.solve_stream(jobs) {
    ///     assert!(outcome.result.is_ok());
    ///     seen += 1;
    /// }
    /// assert_eq!(seen, 100);
    /// ```
    pub fn solve_stream<I>(&self, jobs: I) -> SolveStream
    where
        I: IntoIterator<Item = Job>,
        I::IntoIter: Send + 'static,
    {
        self.solve_stream_with(jobs, &Budget::unlimited())
    }

    /// [`Engine::solve_stream`] under a joint cooperative [`Budget`]: the
    /// workers share the budget's clock and step counter, so a stream
    /// deadline bounds the whole drain — jobs dispatched after the trip
    /// fail fast with the typed error while the stream itself stays live
    /// and yields every outcome. A job carrying its own
    /// [`Job::with_budget`] override is governed by that budget instead
    /// — the per-job-timeout shape of mass pipelines.
    pub fn solve_stream_with<I>(&self, jobs: I, budget: &Budget) -> SolveStream
    where
        I: IntoIterator<Item = Job>,
        I::IntoIter: Send + 'static,
    {
        let budget = budget.clone();
        let health = Arc::clone(&self.health);
        let chaos = self.chaos.clone();
        let window = match self.stream_dedup_window() {
            0 => None,
            cap => Some(Mutex::new(DedupWindow::new(cap))),
        };
        let dedup_hits = Arc::new(AtomicU64::new(0));
        let stream_hits = Arc::clone(&dedup_hits);
        let engine_hits = self.stream_dedup_hits_counter();
        let inner = self.stream_map(jobs, move |job: Job| {
            let (result, deduped) =
                solve_windowed(&job, window.as_ref(), &health, chaos.as_deref(), &budget);
            if deduped {
                stream_hits.fetch_add(1, Ordering::Relaxed);
                engine_hits.fetch_add(1, Ordering::Relaxed);
            }
            JobOutcome {
                index: 0, // the executor's tag, filled in by `SolveStream::next`
                problem: job.prepared.spec().name().to_string(),
                result,
                deduped,
            }
        });
        SolveStream { inner, dedup_hits }
    }

    /// The engine's one streaming executor: runs `work` on every item of
    /// a (possibly unbounded) iterator across the engine's worker
    /// threads, yielding [`Mapped`] results tagged with their input index
    /// in completion order. [`Engine::solve_stream`] is this executor
    /// with a solve as the work; the `lcl-atlas` census passes its whole
    /// per-problem unit (prepare, solve, classify, probe) instead.
    ///
    /// The invariants every stream shares:
    ///
    /// * Items are pulled lazily, one per idle worker, from a source
    ///   behind a mutex; results flow back through a bounded channel of
    ///   capacity `threads`, so at most [`MapStream::buffer_bound`]
    ///   (`2 × threads`) items are pulled but not yet yielded. A
    ///   consumer that stops draining stops the pulling.
    /// * A panicking `work` loses only its item, which comes back as
    ///   [`StreamPanic::Work`].
    /// * A panicking iterator ends the stream for every worker (no item
    ///   is pulled after it) and is reported once — never swallowed — as
    ///   [`StreamPanic::Source`], so a consumer can always tell
    ///   truncation from completion.
    /// * Dropping the stream disconnects the channel and joins the
    ///   workers.
    ///
    /// The engine's `threads` setting sizes the pool exactly as it sizes
    /// solves.
    pub fn stream_map<I, T, F>(&self, items: I, work: F) -> MapStream<T>
    where
        I: IntoIterator,
        I::IntoIter: Send + 'static,
        T: Send + 'static,
        F: Fn(I::Item) -> T + Send + Sync + 'static,
    {
        let threads = self.worker_threads();
        let source = Arc::new(Mutex::new(Source {
            items: Some(items.into_iter()),
            next_index: 0,
        }));
        let work = Arc::new(work);
        // Capacity `threads`: with one in-flight item per worker this caps
        // pulled-but-unyielded items at 2 × threads, the documented bound.
        let (tx, rx) = mpsc::sync_channel::<Mapped<T>>(threads);
        let workers = (0..threads)
            .map(|_| {
                let source = Arc::clone(&source);
                let work = Arc::clone(&work);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    while let Some((index, item)) = pull(&source, &tx) {
                        let result = catch_unwind(AssertUnwindSafe(|| work(item)))
                            .map_err(|payload| StreamPanic::Work(panic_detail(payload)));
                        // A dropped consumer disconnects the channel: stop
                        // pulling and wind down.
                        if tx.send(Mapped { index, result }).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        MapStream {
            rx: Some(rx),
            workers,
        }
    }
}

/// Takes the next item and its index from the shared source, or `None`
/// once the source is exhausted. A panicking iterator is retired for
/// every worker and reported on `tx`.
fn pull<I: Iterator, T>(
    source: &Mutex<Source<I>>,
    tx: &mpsc::SyncSender<Mapped<T>>,
) -> Option<(u64, I::Item)> {
    let mut source = source.lock().unwrap_or_else(PoisonError::into_inner);
    let items = source.items.as_mut()?;
    match catch_unwind(AssertUnwindSafe(|| items.next())) {
        Ok(Some(item)) => {
            let index = source.next_index;
            source.next_index += 1;
            Some((index, item))
        }
        Ok(None) => {
            source.items = None;
            None
        }
        Err(payload) => {
            source.items = None;
            let index = source.next_index;
            drop(source);
            let _ = tx.send(Mapped {
                index,
                result: Err(StreamPanic::Source(panic_detail(payload))),
            });
            None
        }
    }
}

/// Solves one stream job through the dedup window (when one is
/// configured): window hit → shared result, miss (including a poisoned
/// entry recovered by the checksum) → fresh solve that is then
/// remembered. Returns the result and whether it was a window hit.
fn solve_windowed(
    job: &Job,
    window: Option<&Mutex<DedupWindow>>,
    health: &Health,
    chaos: Option<&ChaosState>,
    budget: &Budget,
) -> (Result<Labelling, SolveError>, bool) {
    // A per-job budget replaces the stream budget for this job and opts
    // it out of the dedup window in both directions (no lookup, no
    // insert): budgets are consumable state, so budgeted jobs are never
    // interchangeable — see `Job::with_budget`.
    let budget = job.budget().unwrap_or(budget);
    let window = match window {
        Some(window) if job.budget().is_none() => window,
        _ => {
            return (
                batch::solve_caught(&job.prepared, &job.instance, budget),
                false,
            );
        }
    };
    let fingerprint = batch::job_fingerprint(&job.prepared, &job.instance);
    let hit = {
        let mut span = lcl_trace::span(lcl_trace::SpanKind::Dedup, "dedup-lookup");
        let hit = window
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .lookup(fingerprint, &job.prepared, &job.instance, health);
        span.count(0, u64::from(hit.is_some()));
        hit
    };
    if let Some(hit) = hit {
        return (hit, true);
    }
    let result = batch::solve_caught(&job.prepared, &job.instance, budget);
    window
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(
            WindowEntry {
                fingerprint,
                prepared: Arc::clone(&job.prepared),
                instance: job.instance.clone(),
                result: result.clone(),
                checksum: 0,  // stamped by insert
                last_used: 0, // stamped by insert
            },
            chaos,
        );
    (result, false)
}
