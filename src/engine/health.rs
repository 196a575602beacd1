//! Engine health: robustness counters.
//!
//! The [`Health`] ledger counts, per solver tier, the budget trips and
//! the solves a later tier answered after such a trip, plus the
//! dedup-poison recovery counter. It only counts: no counter feeds back
//! into dispatch, so an answer never depends on what earlier solves did.
//! One `Arc<Health>` per engine, shared with every
//! [`super::PreparedProblem`] it prepares and exported by `lcl-serve`'s
//! `/metrics`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Per-tier robustness counters, as exported by [`Health::tier_counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Budget trips (deadline or step quota) in this tier.
    pub timeouts: u64,
    /// Solves answered by a *later* tier after this tier timed out.
    pub fallbacks: u64,
}

/// The engine's health ledger. All methods take `&self`; the lock guards
/// only brief map accesses and recovers from poisoning.
#[derive(Default)]
pub struct Health {
    tiers: Mutex<HashMap<String, TierCounters>>,
    dedup_poison_recoveries: AtomicU64,
}

impl Health {
    /// A fresh ledger: every counter zero.
    pub fn new() -> Health {
        Health::default()
    }

    fn lock_tiers(&self) -> std::sync::MutexGuard<'_, HashMap<String, TierCounters>> {
        self.tiers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts a budget trip in `tier` (and drops an instant mark on the
    /// current trace, so timeline views show *where* the walk lost its
    /// budget).
    pub fn record_timeout(&self, tier: &str) {
        lcl_trace::mark(lcl_trace::SpanKind::Mark, "tier-timeout", [0; 4]);
        self.lock_tiers()
            .entry(tier.to_string())
            .or_default()
            .timeouts += 1;
    }

    /// Counts a solve answered by a later tier after `tier` timed out.
    pub fn record_fallback(&self, tier: &str) {
        lcl_trace::mark(lcl_trace::SpanKind::Mark, "tier-fallback", [0; 4]);
        self.lock_tiers()
            .entry(tier.to_string())
            .or_default()
            .fallbacks += 1;
    }

    /// Every tier's counters, sorted by tier name.
    pub fn tier_counters(&self) -> Vec<(String, TierCounters)> {
        let mut rows: Vec<(String, TierCounters)> = self
            .lock_tiers()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Counts a poisoned stream-dedup entry that was detected (checksum
    /// mismatch) and transparently re-solved.
    pub fn record_dedup_poison_recovery(&self) {
        self.dedup_poison_recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Poisoned dedup entries detected and recovered so far.
    pub fn dedup_poison_recoveries(&self) -> u64 {
        self.dedup_poison_recoveries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_counters_accumulate() {
        let h = Health::new();
        h.record_timeout("sat-existence");
        h.record_timeout("sat-existence");
        h.record_fallback("sat-existence");
        h.record_timeout("synthesised-tiles");
        let rows = h.tier_counters();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            (
                "sat-existence".to_string(),
                TierCounters {
                    timeouts: 2,
                    fallbacks: 1,
                }
            )
        );
        assert_eq!(rows[1].1.timeouts, 1);
    }
}
