//! Pins the disabled-collector guarantee: tracing compiled into a hot
//! path must cost *nothing* on the allocator when the collector is
//! disabled — `span`/`mark` are one relaxed atomic load, and the
//! solver-cost ledger is a `Cell` of a `Copy` struct.
//!
//! Reuses the counting-allocator idiom from
//! `crates/local/src/simulator.rs`: a `GlobalAlloc` shim that defers
//! to the system allocator and counts allocations per thread. This is
//! the one test file in the crate allowed `unsafe` (the
//! `GlobalAlloc` impl), mirrored in CI's unsafe-audit allowlist.

#![deny(unsafe_code)]

#[allow(unsafe_code)] // the GlobalAlloc shim is unavoidably unsafe
mod alloc_counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    struct CountingAllocator;

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.with(|c| c.set(c.get() + 1));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.with(|c| c.set(c.get() + 1));
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static COUNTING: CountingAllocator = CountingAllocator;

    /// Allocations performed by the current thread while running `f`.
    pub fn allocations_during<R>(f: impl FnOnce() -> R) -> u64 {
        let before = ALLOCATIONS.with(|c| c.get());
        let result = f();
        let after = ALLOCATIONS.with(|c| c.get());
        drop(result);
        after - before
    }
}

use alloc_counting::allocations_during;
use lcl_trace::{SolverCost, SpanKind};

/// With the collector disabled (it is never enabled in this test
/// binary), the full tracing surface the engine hot path touches —
/// span open/close, nested spans, counter updates, instant marks, and
/// the solver-cost ledger — performs zero allocations.
#[test]
fn disabled_tracing_allocates_nothing_on_the_hot_path() {
    assert!(!lcl_trace::is_enabled());
    // Warm up thread-locals outside the measured window (first touch
    // of a const-initialised Cell does not allocate, but keep the
    // measurement about the steady state, like the simulator test).
    lcl_trace::charge_solver(SolverCost::default());
    let _ = lcl_trace::take_solver_cost();
    {
        let _warm = lcl_trace::span(SpanKind::Solve, "warmup");
    }

    let allocations = allocations_during(|| {
        for i in 0..10_000u64 {
            let mut solve = lcl_trace::span(SpanKind::Solve, "solve");
            solve.count(0, i);
            {
                let mut tier = lcl_trace::span(SpanKind::Tier, "tier");
                tier.counters([i, 1, 2, 3]);
                lcl_trace::mark(SpanKind::Mark, "tier-timeout", [i, 0, 0, 0]);
            }
            lcl_trace::charge_solver(SolverCost {
                decisions: i,
                propagations: i,
                conflicts: 0,
                learned: 0,
            });
            let cost = lcl_trace::take_solver_cost();
            assert!(!solve.is_active());
            assert_eq!(cost.decisions, i);
        }
    });
    assert_eq!(
        allocations, 0,
        "disabled tracing must not allocate on the solve hot path"
    );

    // Nothing was recorded either: the collector was never enabled.
    assert_eq!(lcl_trace::recorded(), 0);
    assert_eq!(lcl_trace::dropped(), 0);
    assert!(lcl_trace::snapshot().is_empty());
}
