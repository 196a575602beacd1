//! Deterministic, seed-driven fault injection.
//!
//! The robustness claims elsewhere in this crate — "a corrupt cache file
//! silently falls back to resynthesis", "a panicking solver neither takes
//! down the process nor poisons the shared caches" — are only claims
//! until a fault actually fires. This module makes faults first-class:
//! a [`ChaosState`] is compiled into every engine but is inert unless
//! armed (via [`crate::engine::EngineBuilder::chaos_seed`] or an explicit
//! [`ChaosConfig`]), and when armed it injects faults on a schedule that
//! is a pure function of `(seed, fault point, per-point counter)` — two
//! runs with the same seed and the same call sequence inject the *same*
//! faults at the *same* points, so chaos tests are reproducible and every
//! injected fault can be reconciled against an observed typed error or a
//! recovery counter.
//!
//! Fault points:
//!
//! * [`FaultPoint::PersistRead`] — a synthesis-cache disk read "fails"
//!   (the load is skipped, exactly as an I/O error degrades: cache miss,
//!   resynthesis).
//! * [`FaultPoint::PersistWrite`] — a synthesis-cache disk write "fails"
//!   (the save is skipped; future processes pay time, not correctness).
//! * [`FaultPoint::SolvePanic`] — the solver dispatch panics, exercising
//!   the batch/stream/serve `catch_unwind` containment paths.
//! * [`FaultPoint::SolveLatency`] — artificial per-tier latency, for
//!   deadline testing.
//! * [`FaultPoint::DedupPoison`] — a stream dedup-window entry is
//!   corrupted after insertion, exercising the checksum-recovery path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The instrumented fault points, in counter-array order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPoint {
    /// Synthesis-cache disk read.
    PersistRead,
    /// Synthesis-cache disk write.
    PersistWrite,
    /// Solver dispatch panic.
    SolvePanic,
    /// Artificial solver latency.
    SolveLatency,
    /// Stream dedup-window entry corruption.
    DedupPoison,
}

/// Number of distinct fault points.
const POINTS: usize = 5;

impl FaultPoint {
    const ALL: [FaultPoint; POINTS] = [
        FaultPoint::PersistRead,
        FaultPoint::PersistWrite,
        FaultPoint::SolvePanic,
        FaultPoint::SolveLatency,
        FaultPoint::DedupPoison,
    ];

    fn index(self) -> usize {
        match self {
            FaultPoint::PersistRead => 0,
            FaultPoint::PersistWrite => 1,
            FaultPoint::SolvePanic => 2,
            FaultPoint::SolveLatency => 3,
            FaultPoint::DedupPoison => 4,
        }
    }

    /// Stable counter name, used in `/metrics` and test assertions.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::PersistRead => "persist_read",
            FaultPoint::PersistWrite => "persist_write",
            FaultPoint::SolvePanic => "solve_panic",
            FaultPoint::SolveLatency => "solve_latency",
            FaultPoint::DedupPoison => "dedup_poison",
        }
    }

    /// Per-point salt mixed into the schedule so the points fire
    /// independently of each other.
    fn salt(self) -> u64 {
        // FNV-1a over the point name: stable across builds.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in self.name().bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        h
    }
}

/// What to inject and how often. `None`/`0` disables a point. A period of
/// `p` fires *pseudo-randomly* at rate `1/p` on a schedule fully
/// determined by the seed; `panic_at` instead fires *exactly once*, at
/// the given 1-based dispatch ordinal (the "panic at the Nth solve"
/// knob).
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Fire `PersistRead` at rate `1/p`.
    pub persist_read_period: Option<u64>,
    /// Fire `PersistWrite` at rate `1/p`.
    pub persist_write_period: Option<u64>,
    /// Fire `SolvePanic` at rate `1/p`.
    pub solve_panic_period: Option<u64>,
    /// Fire `SolvePanic` exactly once, at this 1-based solver dispatch.
    pub panic_at: Option<u64>,
    /// Fire `SolveLatency` at rate `1/p`.
    pub solve_latency_period: Option<u64>,
    /// The injected latency when `SolveLatency` fires.
    pub solve_latency: Duration,
    /// Fire `DedupPoison` at rate `1/p`.
    pub dedup_poison_period: Option<u64>,
}

impl ChaosConfig {
    /// A config with every point disabled (but the state still armed and
    /// counting) — the base for targeted single-fault tests.
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            persist_read_period: None,
            persist_write_period: None,
            solve_panic_period: None,
            panic_at: None,
            solve_latency_period: None,
            solve_latency: Duration::from_millis(1),
            dedup_poison_period: None,
        }
    }

    /// The default battery armed by `--chaos-seed` and
    /// [`crate::engine::EngineBuilder::chaos_seed`]: every point enabled
    /// at a cadence a soak test meets within seconds, mild enough that a
    /// healthy server stays live throughout.
    pub fn from_seed(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            persist_read_period: Some(3),
            persist_write_period: Some(3),
            solve_panic_period: Some(7),
            panic_at: None,
            solve_latency_period: Some(5),
            solve_latency: Duration::from_millis(2),
            dedup_poison_period: Some(3),
        }
    }
}

/// SplitMix64: the mixing function behind the schedule. Full-period,
/// statistically solid, two multiplies — cheap enough for hot paths.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The armed fault injector: per-point dispatch counters plus per-point
/// injected-fault counters (the ledger tests reconcile against observed
/// typed errors). `Send + Sync`; one per engine, shared with the
/// registry's synthesis cache and the stream dedup window.
pub struct ChaosState {
    config: ChaosConfig,
    /// How many times each point has been consulted.
    counters: [AtomicU64; POINTS],
    /// How many times each point actually fired.
    injected: [AtomicU64; POINTS],
}

impl ChaosState {
    /// Arms a fault injector with an explicit config.
    pub fn new(config: ChaosConfig) -> ChaosState {
        ChaosState {
            config,
            counters: Default::default(),
            injected: Default::default(),
        }
    }

    /// Arms the default battery for a seed (see [`ChaosConfig::from_seed`]).
    pub fn from_seed(seed: u64) -> ChaosState {
        ChaosState::new(ChaosConfig::from_seed(seed))
    }

    /// The config this state was armed with.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    fn period(&self, point: FaultPoint) -> Option<u64> {
        match point {
            FaultPoint::PersistRead => self.config.persist_read_period,
            FaultPoint::PersistWrite => self.config.persist_write_period,
            FaultPoint::SolvePanic => self.config.solve_panic_period,
            FaultPoint::SolveLatency => self.config.solve_latency_period,
            FaultPoint::DedupPoison => self.config.dedup_poison_period,
        }
    }

    /// Consults the schedule at a fault point: advances the point's
    /// counter and reports whether the fault fires at this ordinal. The
    /// decision is a pure function of `(seed, point, ordinal)` — calling
    /// sequences that consult the same points in the same order get the
    /// same schedule, whatever threads they run on.
    pub fn should(&self, point: FaultPoint) -> bool {
        let i = point.index();
        let ordinal = self.counters[i].fetch_add(1, Ordering::Relaxed) + 1;
        let fires = if point == FaultPoint::SolvePanic && self.config.panic_at.is_some() {
            self.config.panic_at == Some(ordinal)
        } else {
            match self.period(point) {
                Some(p) if p > 0 => {
                    splitmix64(self.config.seed ^ point.salt() ^ ordinal).is_multiple_of(p)
                }
                _ => false,
            }
        };
        if fires {
            self.injected[i].fetch_add(1, Ordering::Relaxed);
        }
        fires
    }

    /// The latency to inject if `SolveLatency` fires at this ordinal.
    pub fn latency(&self) -> Option<Duration> {
        self.should(FaultPoint::SolveLatency)
            .then_some(self.config.solve_latency)
    }

    /// Panics (deterministically, per the schedule) at the solver
    /// dispatch point — the injected fault the `catch_unwind` containment
    /// paths must absorb. The payload names the point so observed panics
    /// can be attributed to the injector.
    pub fn maybe_panic(&self, tier: &str) {
        if self.should(FaultPoint::SolvePanic) {
            let n = self.injected(FaultPoint::SolvePanic);
            panic!("chaos: injected panic #{n} in solver {tier}");
        }
    }

    /// How many times a point has fired.
    pub fn injected(&self, point: FaultPoint) -> u64 {
        self.injected[point.index()].load(Ordering::Relaxed)
    }

    /// How many times a point has been consulted (fired or not).
    pub fn consulted(&self, point: FaultPoint) -> u64 {
        self.counters[point.index()].load(Ordering::Relaxed)
    }

    /// Every point's injected-fault count, in stable name order — the
    /// rows `/metrics` exports and the soak test reconciles.
    pub fn injected_counts(&self) -> Vec<(&'static str, u64)> {
        FaultPoint::ALL
            .iter()
            .map(|&p| (p.name(), self.injected(p)))
            .collect()
    }

    /// Total injected faults across every point.
    pub fn injected_total(&self) -> u64 {
        FaultPoint::ALL.iter().map(|&p| self.injected(p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = ChaosState::from_seed(42);
        let b = ChaosState::from_seed(42);
        let fire_a: Vec<bool> = (0..200)
            .map(|_| a.should(FaultPoint::PersistRead))
            .collect();
        let fire_b: Vec<bool> = (0..200)
            .map(|_| b.should(FaultPoint::PersistRead))
            .collect();
        assert_eq!(fire_a, fire_b);
        assert_eq!(
            a.injected(FaultPoint::PersistRead),
            b.injected(FaultPoint::PersistRead)
        );
        // The cadence is real: rate 1/3 over 200 consultations fires
        // dozens of times, not zero and not always.
        let fired = a.injected(FaultPoint::PersistRead);
        assert!(fired > 20 && fired < 180, "fired {fired}/200");
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChaosState::from_seed(1);
        let b = ChaosState::from_seed(2);
        let fire_a: Vec<bool> = (0..200).map(|_| a.should(FaultPoint::SolvePanic)).collect();
        let fire_b: Vec<bool> = (0..200).map(|_| b.should(FaultPoint::SolvePanic)).collect();
        assert_ne!(fire_a, fire_b);
    }

    #[test]
    fn points_fire_independently() {
        let s = ChaosState::from_seed(7);
        let reads: Vec<bool> = (0..64).map(|_| s.should(FaultPoint::PersistRead)).collect();
        let writes: Vec<bool> = (0..64)
            .map(|_| s.should(FaultPoint::PersistWrite))
            .collect();
        // Same period, same seed, same ordinals — but different salts.
        assert_ne!(reads, writes);
    }

    #[test]
    fn panic_at_exact_ordinal() {
        let mut config = ChaosConfig::quiet(9);
        config.panic_at = Some(3);
        let s = ChaosState::new(config);
        assert!(!s.should(FaultPoint::SolvePanic));
        assert!(!s.should(FaultPoint::SolvePanic));
        assert!(s.should(FaultPoint::SolvePanic));
        assert!(!s.should(FaultPoint::SolvePanic));
        assert_eq!(s.injected(FaultPoint::SolvePanic), 1);
    }

    #[test]
    fn quiet_config_never_fires() {
        let s = ChaosState::new(ChaosConfig::quiet(5));
        for _ in 0..100 {
            assert!(!s.should(FaultPoint::DedupPoison));
            s.maybe_panic("tier");
        }
        assert_eq!(s.injected_total(), 0);
        assert_eq!(s.consulted(FaultPoint::SolvePanic), 100);
    }
}
