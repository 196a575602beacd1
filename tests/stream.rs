//! Integration tests for the generic streaming executor,
//! [`Engine::stream_map`]: the `2 × threads` pulled-but-unyielded bound,
//! panics as typed outcomes, and a panicking source ending the stream.
//! `solve_stream` is an adapter over it; its own tests live in
//! `tests/prepare.rs`.

use lcl_grids::engine::{Engine, StreamPanic};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counts how many items the executor has pulled from the input.
struct Counting<I> {
    inner: I,
    pulled: Arc<AtomicUsize>,
}

impl<I: Iterator> Iterator for Counting<I> {
    type Item = I::Item;
    fn next(&mut self) -> Option<I::Item> {
        let next = self.inner.next();
        if next.is_some() {
            self.pulled.fetch_add(1, Ordering::SeqCst);
        }
        next
    }
}

/// A slow consumer never lets the workers run more than
/// `buffer_bound()` (`2 × threads`) items ahead of it, and every item
/// arrives exactly once, tagged with its input index.
#[test]
fn pulled_but_unyielded_items_stay_within_two_per_thread() {
    const ITEMS: usize = 2_000;
    for threads in [1, 2, 3] {
        let engine = Engine::builder().threads(threads).build();
        let pulled = Arc::new(AtomicUsize::new(0));
        let items = Counting {
            inner: 0..ITEMS as u64,
            pulled: Arc::clone(&pulled),
        };
        let stream = engine.stream_map(items, |i| i * i);
        assert_eq!(stream.threads(), threads);
        let bound = stream.buffer_bound();
        assert_eq!(bound, 2 * threads);
        let mut seen = vec![false; ITEMS];
        let mut consumed = 0usize;
        for mapped in stream {
            // Stall now and then so the workers fill the channel.
            if consumed.is_multiple_of(200) {
                std::thread::sleep(Duration::from_millis(5));
            }
            consumed += 1;
            let ahead = pulled.load(Ordering::SeqCst).saturating_sub(consumed);
            assert!(
                ahead <= bound,
                "{threads} threads: pulled {ahead} items ahead of the consumer (bound {bound})"
            );
            let index = usize::try_from(mapped.index).unwrap();
            assert!(!seen[index], "item {index} yielded twice");
            seen[index] = true;
            assert_eq!(mapped.result, Ok(mapped.index * mapped.index));
        }
        assert_eq!(consumed, ITEMS);
        assert_eq!(pulled.load(Ordering::SeqCst), ITEMS);
    }
}

/// A panicking work item comes back as `StreamPanic::Work` with the
/// panic message; the worker survives and every other item arrives.
#[test]
fn panicking_work_is_a_typed_outcome_and_the_rest_still_arrive() {
    let engine = Engine::builder().threads(2).build();
    let stream = engine.stream_map(0..50u64, |i| {
        if i % 10 == 3 {
            panic!("bad item {i}");
        }
        i + 1
    });
    let mut outcomes: Vec<_> = stream.collect();
    outcomes.sort_by_key(|m| m.index);
    assert_eq!(outcomes.len(), 50);
    for (i, mapped) in outcomes.iter().enumerate() {
        let i = i as u64;
        assert_eq!(mapped.index, i);
        if i % 10 == 3 {
            assert_eq!(
                mapped.result,
                Err(StreamPanic::Work(format!("bad item {i}")))
            );
        } else {
            assert_eq!(mapped.result, Ok(i + 1));
        }
    }
}

/// A panicking source iterator ends the stream for every worker and is
/// reported once, at the index it failed to produce — never swallowed,
/// so truncation is distinguishable from completion.
#[test]
fn panicking_source_ends_the_stream_and_is_reported() {
    let engine = Engine::builder().threads(3).build();
    let items = (0..1_000u64).inspect(|&i| {
        if i == 25 {
            panic!("source broke at {i}");
        }
    });
    let outcomes: Vec<_> = engine.stream_map(items, |i| i).collect();
    assert_eq!(outcomes.len(), 26, "25 items, then the report");
    let reports: Vec<_> = outcomes
        .iter()
        .filter(|m| matches!(m.result, Err(StreamPanic::Source(_))))
        .collect();
    assert_eq!(reports.len(), 1, "one truncation report");
    assert_eq!(reports[0].index, 25);
    assert_eq!(
        reports[0].result,
        Err(StreamPanic::Source("source broke at 25".to_string()))
    );
    // Nothing was pulled after the panic.
    assert!(outcomes.iter().all(|m| m.index <= 25));
    let mut done: Vec<u64> = outcomes
        .iter()
        .filter_map(|m| m.result.clone().ok())
        .collect();
    done.sort_unstable();
    assert_eq!(done, (0..25).collect::<Vec<_>>());
}

/// Dropping the stream mid-drain joins the workers without pulling the
/// rest of the input.
#[test]
fn dropping_the_stream_stops_pulling() {
    let engine = Engine::builder().threads(2).build();
    let pulled = Arc::new(AtomicUsize::new(0));
    let items = Counting {
        inner: 0..1_000_000u64,
        pulled: Arc::clone(&pulled),
    };
    let mut stream = engine.stream_map(items, |i| i);
    let bound = stream.buffer_bound();
    for _ in 0..3 {
        assert!(stream.next().unwrap().result.is_ok());
    }
    drop(stream); // joins the workers
    let after_drop = pulled.load(Ordering::SeqCst);
    assert!(
        after_drop <= 3 + bound + 2,
        "pulled {after_drop} items for 3 consumed"
    );
}
