//! Cole–Vishkin 3-colouring of directed cycles (Cole & Vishkin 1986).
//!
//! The classic `O(log* n)` symmetry-breaking routine on consistently
//! oriented cycles: starting from unique identifiers, each round a node
//! compares its colour bit-string with its successor's, and replaces its
//! colour by (index of the lowest differing bit, value of that bit). This
//! shrinks `b`-bit colours to `⌈log₂ b⌉ + 1` bits; iterating reaches 6
//! colours in `O(log* n)` rounds, and three final shift-and-recolour
//! rounds reach 3 colours. Linial's lower bound (§2) shows this is
//! asymptotically optimal.

use lcl_grid::{CycleGraph, Graph};
use lcl_local::Rounds;

/// A proper colouring of a cycle plus the rounds that produced it.
#[derive(Clone, Debug)]
pub struct CycleColouring {
    /// One colour in `{0, 1, 2}` per node.
    pub colours: Vec<u8>,
    /// Round ledger.
    pub rounds: Rounds,
}

/// Runs Cole–Vishkin on a directed cycle with the given unique
/// identifiers, producing a proper 3-colouring in `O(log* n)` rounds.
///
/// # Panics
///
/// Panics if `ids.len() != cycle.len()` or identifiers are not unique
/// between cycle neighbours.
///
/// # Example
///
/// ```
/// use lcl_grid::CycleGraph;
/// use lcl_symmetry::cv3_cycle;
/// let cycle = CycleGraph::new(100);
/// let ids: Vec<u64> = (0..100).map(|i| (i * 7919 + 13) % 100_000).collect();
/// let col = cv3_cycle(&cycle, &ids);
/// for v in 0..100 {
///     assert_ne!(col.colours[v], col.colours[cycle.succ(v)]);
/// }
/// ```
pub fn cv3_cycle(cycle: &CycleGraph, ids: &[u64]) -> CycleColouring {
    let n = cycle.len();
    assert_eq!(ids.len(), n);
    let mut rounds = Rounds::new();

    // Phase 1: iterated bit reduction until every colour is < 6.
    let mut colours: Vec<u64> = ids.to_vec();
    let mut cv_rounds = 0u64;
    while colours.iter().any(|&c| c >= 6) {
        let mut next = vec![0u64; n];
        for v in 0..n {
            let mine = colours[v];
            let theirs = colours[cycle.succ(v)];
            assert_ne!(mine, theirs, "colours must stay proper along the cycle");
            let diff = mine ^ theirs;
            let i = diff.trailing_zeros() as u64;
            let bit = (mine >> i) & 1;
            next[v] = (i << 1) | bit;
        }
        colours = next;
        cv_rounds += 1;
        debug_assert!(cv_rounds < 64, "CV must converge");
    }
    rounds.charge("cole-vishkin", cv_rounds);

    // Phase 2: reduce 6 → 3 colours. One round per removed colour: all
    // nodes of the top colour simultaneously pick the smallest colour free
    // among their two neighbours (they form an independent set, so the
    // simultaneous choice is safe).
    for top in (3..6u64).rev() {
        let snapshot = colours.clone();
        for v in 0..n {
            if snapshot[v] == top {
                let a = snapshot[cycle.pred(v)];
                let b = snapshot[cycle.succ(v)];
                let free = (0..3u64).find(|c| *c != a && *c != b).expect("3 colours");
                colours[v] = free;
            }
        }
        rounds.charge("colour-shedding", 1);
    }

    CycleColouring {
        colours: colours.into_iter().map(|c| c as u8).collect(),
        rounds,
    }
}

/// The `k`-th power of a cycle: nodes adjacent iff their cycle distance is
/// `1..=k`. Used for anchor placement in the 1-dimensional synthesis (§4).
#[derive(Clone, Copy, Debug)]
pub struct CyclePower {
    cycle: CycleGraph,
    k: usize,
}

impl CyclePower {
    /// Creates the `k`-th power of `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(cycle: CycleGraph, k: usize) -> CyclePower {
        assert!(k > 0);
        CyclePower { cycle, k }
    }

    /// The underlying cycle.
    pub fn cycle(&self) -> CycleGraph {
        self.cycle
    }

    /// The power exponent.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Largest step taken in both directions without meeting itself.
    fn reach(&self) -> usize {
        self.k.min((self.cycle.len() - 1) / 2)
    }

    /// If `2k+1 > n` the ball wraps; on even cycles the antipodal node is
    /// then a neighbour that the two-sided steps do not cover.
    fn has_antipode(&self) -> bool {
        let n = self.cycle.len();
        n.is_multiple_of(2) && self.k >= n / 2
    }
}

impl Graph for CyclePower {
    fn node_count(&self) -> usize {
        self.cycle.len()
    }

    fn for_each_neighbour(&self, v: usize, f: &mut dyn FnMut(usize)) {
        for step in 1..=self.reach() as i64 {
            f(self.cycle.offset(v, step));
            f(self.cycle.offset(v, -step));
        }
        if self.has_antipode() {
            f(self.cycle.offset(v, (self.cycle.len() / 2) as i64));
        }
    }

    /// `2·reach`, plus the antipode: the cycle is vertex-transitive, so
    /// every node has this degree.
    fn degree(&self, _v: usize) -> usize {
        2 * self.reach() + usize::from(self.has_antipode())
    }

    fn max_degree(&self) -> usize {
        self.degree(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_local::IdAssignment;

    fn assert_proper_cycle(cycle: &CycleGraph, colours: &[u8]) {
        for v in 0..cycle.len() {
            assert_ne!(colours[v], colours[cycle.succ(v)]);
        }
    }

    #[test]
    fn three_colours_small_cycle() {
        let c = CycleGraph::new(5);
        let ids = vec![10, 3, 77, 41, 8];
        let col = cv3_cycle(&c, &ids);
        assert_proper_cycle(&c, &col.colours);
        assert!(col.colours.iter().all(|&c| c < 3));
    }

    #[test]
    fn three_colours_large_cycle() {
        let c = CycleGraph::new(100_000);
        let ids = IdAssignment::Shuffled { seed: 11 }.materialise(100_000);
        let col = cv3_cycle(&c, &ids);
        assert_proper_cycle(&c, &col.colours);
        assert!(col.colours.iter().all(|&c| c < 3));
    }

    #[test]
    fn round_count_is_log_star_like() {
        let count = |n: usize| {
            let c = CycleGraph::new(n);
            let ids = IdAssignment::Shuffled { seed: 1 }.materialise(n);
            cv3_cycle(&c, &ids).rounds.total()
        };
        let small = count(64);
        let large = count(262_144);
        assert!(
            large <= small + 2,
            "rounds grew too fast: {small} -> {large}"
        );
        assert!(large <= 12, "absolute round count too large: {large}");
    }

    #[test]
    fn cycle_power_adjacency() {
        let p = CyclePower::new(CycleGraph::new(10), 3);
        let nbrs = p.neighbours_vec(0);
        let expect: Vec<usize> = vec![1, 9, 2, 8, 3, 7];
        assert_eq!(nbrs, expect);
    }

    #[test]
    fn cycle_power_degree_is_closed_form() {
        for n in 3..=12 {
            for k in 1..=n {
                let p = CyclePower::new(CycleGraph::new(n), k);
                let mut scanned_max = 0;
                for v in 0..n {
                    let mut count = 0;
                    p.for_each_neighbour(v, &mut |_| count += 1);
                    assert_eq!(p.degree(v), count, "n={n} k={k}");
                    scanned_max = scanned_max.max(count);
                }
                assert_eq!(p.max_degree(), scanned_max);
            }
        }
    }

    #[test]
    fn cycle_power_no_duplicates_when_k_large() {
        let p = CyclePower::new(CycleGraph::new(6), 5);
        for v in 0..6 {
            let mut nbrs = p.neighbours_vec(v);
            nbrs.sort();
            let mut dedup = nbrs.clone();
            dedup.dedup();
            assert_eq!(nbrs, dedup, "duplicate neighbours at {v}");
            assert_eq!(nbrs.len(), 5, "power ≥ diameter must give a clique");
        }
    }
}
