//! lcl-atlas — census-scale enumeration and mass classification of
//! small LCL problems.
//!
//! The paper's classification theorem is *decidable* per problem; this
//! crate turns the engine into an instrument that applies it to **every**
//! radius-1 block normal-form problem up to a frontier and checks in the
//! result as a reproducible artifact:
//!
//! - [`enumerate()`] — a lazy, deterministic walk over all block tables up
//!   to [`Frontier`] limits, quotiented by label permutations, the
//!   dihedral symmetries of the 2×2 window, and dead labels, so each
//!   equivalence class is visited exactly once
//!   ([`lcl_core::canonical`]).
//! - [`pipeline`] — mass classification on the engine's stream workers
//!   ([`Engine::stream_map`](lcl_grids::Engine::stream_map)), each
//!   problem classified whole on one worker with fresh step budgets
//!   (pathological SAT instances become a typed `timeout` verdict,
//!   never a hang), plus an
//!   append-only JSON-lines checkpoint journal: kill the process, rerun
//!   with the same journal, and the finished artifact is byte-identical.
//! - [`artifact`] — the on-disk census format (`fixtures/atlas/`): a
//!   header line, then one record per canonical problem sorted by key,
//!   plus a deterministic summary (class histogram, orbit-size
//!   histogram, dedup ratio). The same file feeds
//!   `EngineBuilder::atlas` (classification seeding) and `lcl-serve`'s
//!   read-only `GET /atlas/<key>` / `GET /atlas/summary` endpoints.
//!
//! Determinism contract: budgets are step quotas (never wall-clock),
//! records carry no timing fields, and records are sorted by
//! content-addressed key — so two census runs of the same frontier on
//! any machine produce byte-identical artifacts, and CI diffs the
//! checked-in fixture against a fresh run.

#![forbid(unsafe_code)]

pub mod artifact;
pub mod enumerate;
pub mod pipeline;

pub use artifact::{Atlas, Header, Record, Summary, Verdict};
pub use enumerate::{count_problems, enumerate, CensusProblem, Enumerate, Frontier};
pub use pipeline::{classify_specs, run_census, CensusOptions, CensusOutcome, CensusStats};

use lcl_grids::SolveError;

/// Typed failure of a census run.
#[derive(Debug)]
pub enum AtlasError {
    /// The frontier is not walkable as configured.
    Frontier(String),
    /// Reading or writing the journal / artifact failed.
    Io(std::io::Error),
    /// The journal is malformed or belongs to a different census
    /// configuration.
    Journal(String),
    /// The engine failed in a way the census cannot turn into a typed
    /// verdict (configuration error, poisoned pool, …).
    Solve(SolveError),
    /// An internal invariant broke (e.g. two canonical problems mapped
    /// to one engine plan key).
    Invariant(String),
}

impl std::fmt::Display for AtlasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AtlasError::Frontier(msg) => write!(f, "invalid frontier: {msg}"),
            AtlasError::Io(e) => write!(f, "atlas io error: {e}"),
            AtlasError::Journal(msg) => write!(f, "journal error: {msg}"),
            AtlasError::Solve(e) => write!(f, "engine error: {e}"),
            AtlasError::Invariant(msg) => write!(f, "census invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for AtlasError {}

impl From<std::io::Error> for AtlasError {
    fn from(e: std::io::Error) -> AtlasError {
        AtlasError::Io(e)
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests;
