//! Experiment harness crate: `src/bin/reproduce.rs` is the table
//! generator that regenerates every experiment family of DESIGN.md §6
//! through the unified `Engine` API.

#![forbid(unsafe_code)]
