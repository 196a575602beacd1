//! Typed cost ledgers: where a solve's work actually went.
//!
//! Spans answer "where did the *time* go"; the ledgers here answer
//! "where did the *work* go" in solver-native units — SAT decisions,
//! propagations, conflicts, learned clauses — attributed to the
//! registry tier that caused them. `lcl-sat` cannot see tiers and the
//! engine cannot see the solver's internals, so the hand-off is a
//! thread-local accumulator: the solver [`charge_solver`]s its deltas
//! at the end of every `solve_budgeted`, and the engine's tier walk
//! [`take_solver_cost`]s the pending total around each tier attempt.
//! Both operations are a `Cell` of a `Copy` struct — no allocation, no
//! locks — and work whether or not span tracing is enabled, so every
//! `SolveReport` carries a [`Cost`] ledger for free.

use std::cell::Cell;
use std::fmt;

/// SAT-solver work counters for one or more solves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverCost {
    /// Branching decisions made.
    pub decisions: u64,
    /// Unit propagations performed.
    pub propagations: u64,
    /// Conflicts hit (and analysed).
    pub conflicts: u64,
    /// Clauses learned from conflict analysis.
    pub learned: u64,
}

impl SolverCost {
    /// True iff no solver work was recorded.
    pub fn is_zero(&self) -> bool {
        *self == SolverCost::default()
    }

    /// Adds `other`'s counters into `self`.
    pub fn absorb(&mut self, other: &SolverCost) {
        self.decisions = self.decisions.saturating_add(other.decisions);
        self.propagations = self.propagations.saturating_add(other.propagations);
        self.conflicts = self.conflicts.saturating_add(other.conflicts);
        self.learned = self.learned.saturating_add(other.learned);
    }

    /// The counters in span-slot order
    /// (matches [`SpanKind::Sat`](crate::SpanKind)'s counter names).
    pub fn counters(&self) -> [u64; 4] {
        [
            self.decisions,
            self.propagations,
            self.conflicts,
            self.learned,
        ]
    }
}

thread_local! {
    /// Solver work performed on this thread since the last
    /// [`take_solver_cost`].
    static PENDING_SOLVER: Cell<SolverCost> = const {
        Cell::new(SolverCost {
            decisions: 0,
            propagations: 0,
            conflicts: 0,
            learned: 0,
        })
    };
}

/// Adds solver work to this thread's pending ledger. Called by
/// `lcl-sat` at the end of every `solve_budgeted`; allocation-free.
pub fn charge_solver(cost: SolverCost) {
    PENDING_SOLVER.with(|c| {
        let mut pending = c.get();
        pending.absorb(&cost);
        c.set(pending);
    });
}

/// Drains and returns this thread's pending solver ledger. The
/// engine's tier walk calls this after each tier attempt, attributing
/// all solver work since the previous drain to that tier.
pub fn take_solver_cost() -> SolverCost {
    PENDING_SOLVER.with(|c| c.replace(SolverCost::default()))
}

/// How one tier attempt in the solve walk ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TierOutcome {
    /// The tier produced a validated labelling.
    Solved,
    /// The tier proved the instance unsolvable (an exact answer).
    Unsolvable,
    /// Skipped: capability/instance-shape mismatch before running, or
    /// a policy discard after (instance too small for the tier, result
    /// over the engine's round budget).
    Skipped,
    /// The tier ran out of budget; the walk fell through to the next.
    Timeout,
    /// The caller cancelled mid-attempt.
    Cancelled,
    /// The tier failed (solver error or panic); the walk fell through.
    Failed,
}

impl TierOutcome {
    /// Stable kebab-case label (used in JSON and trace counters).
    pub fn as_str(self) -> &'static str {
        match self {
            TierOutcome::Solved => "solved",
            TierOutcome::Unsolvable => "unsolvable",
            TierOutcome::Skipped => "skipped",
            TierOutcome::Timeout => "timeout",
            TierOutcome::Cancelled => "cancelled",
            TierOutcome::Failed => "failed",
        }
    }

    /// Numeric code for the tier span's `outcome` counter slot. The codes
    /// are fixed wire values; 3 is retired and never reused.
    pub fn code(self) -> u64 {
        match self {
            TierOutcome::Solved => 0,
            TierOutcome::Unsolvable => 1,
            TierOutcome::Skipped => 2,
            TierOutcome::Timeout => 4,
            TierOutcome::Cancelled => 5,
            TierOutcome::Failed => 6,
        }
    }
}

impl fmt::Display for TierOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One tier attempt in a solve walk: which tier, how it ended, how
/// long it ran, and the solver work it caused.
#[derive(Clone, Debug)]
pub struct TierAttempt {
    /// The registry tier's solver name.
    pub tier: String,
    /// How the attempt ended.
    pub outcome: TierOutcome,
    /// Wall time spent in (or deciding to skip) this tier, µs.
    pub wall_us: u64,
    /// SAT work attributed to this attempt.
    pub solver: SolverCost,
}

/// The per-solve cost ledger attached to every `SolveReport`: the tier
/// attempts in walk order plus the walk's total wall time.
#[derive(Clone, Debug, Default)]
pub struct Cost {
    /// Tier attempts in the order the walk made them.
    pub tiers: Vec<TierAttempt>,
    /// Total wall time of the solve walk, µs.
    pub total_us: u64,
}

impl Cost {
    /// True iff no tier attempt was recorded.
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// Sum of the per-tier wall times, µs (≤ `total_us` up to clock
    /// granularity — the walk's own bookkeeping is not inside any
    /// tier).
    pub fn tier_us_sum(&self) -> u64 {
        self.tiers.iter().map(|t| t.wall_us).sum()
    }

    /// Aggregate solver work across every tier attempt.
    pub fn solver_total(&self) -> SolverCost {
        let mut total = SolverCost::default();
        for tier in &self.tiers {
            total.absorb(&tier.solver);
        }
        total
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;

    #[test]
    fn charge_and_take_round_trip() {
        // Drain anything a sibling test on this thread left behind.
        let _ = take_solver_cost();
        charge_solver(SolverCost {
            decisions: 3,
            propagations: 10,
            conflicts: 1,
            learned: 1,
        });
        charge_solver(SolverCost {
            decisions: 2,
            propagations: 5,
            conflicts: 0,
            learned: 0,
        });
        let total = take_solver_cost();
        assert_eq!(total.decisions, 5);
        assert_eq!(total.propagations, 15);
        assert_eq!(total.conflicts, 1);
        assert_eq!(total.learned, 1);
        // Drained: the next take sees nothing.
        assert!(take_solver_cost().is_zero());
    }

    #[test]
    fn cost_ledger_aggregates_tiers() {
        let cost = Cost {
            tiers: vec![
                TierAttempt {
                    tier: "fast".into(),
                    outcome: TierOutcome::Timeout,
                    wall_us: 40,
                    solver: SolverCost::default(),
                },
                TierAttempt {
                    tier: "sat-existence".into(),
                    outcome: TierOutcome::Solved,
                    wall_us: 60,
                    solver: SolverCost {
                        decisions: 8,
                        propagations: 100,
                        conflicts: 2,
                        learned: 2,
                    },
                },
            ],
            total_us: 110,
        };
        assert_eq!(cost.tier_us_sum(), 100);
        assert!(cost.tier_us_sum() <= cost.total_us);
        assert_eq!(cost.solver_total().propagations, 100);
        assert_eq!(cost.tiers[0].outcome.to_string(), "timeout");
    }
}
