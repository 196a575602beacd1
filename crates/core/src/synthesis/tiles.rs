//! Tile enumeration (Appendix A.1).
//!
//! A *tile* is the restriction of a maximal independent set of the grid
//! power `G^(k)` to a `rows × cols` window. The synthesis CSP is posed
//! over the finite set of tiles, so the enumeration must be *exact*: every
//! pattern that occurs in some MIS, and nothing else.
//!
//! Exact realizability criterion (DESIGN.md §3.2): a candidate pattern `T`
//! occurs in an MIS of a sufficiently large torus iff there is an anchor
//! assignment to the width-`k` frame around `T` such that (i) all anchors
//! in `T ∪ frame` are pairwise at L1 distance `> k`, and (ii) every cell
//! of `T` is within distance `k` of some anchor. The frame CSP is decided
//! with the CDCL solver.
//!
//! §7 calibration: for `k = 1` there are exactly **16** tiles of shape
//! 3×2 (the paper lists them), and for `k = 3` there are exactly **2079**
//! tiles of shape 7×5.
//!
//! The tile set and the super-tile index lists built from it depend only
//! on `k` and the window shape, never on the problem: `tile_tables`
//! builds them once per process and hands out shared `TileTables`
//! (DESIGN.md §3.2, "Shared tile tables").

use lcl_sat::{Lit, SolveOutcome, Solver};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The shape of a tile window: `rows × cols` (rows run south → north).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TileShape {
    /// Number of rows (`r1` in §7).
    pub rows: usize,
    /// Number of columns (`r2` in §7).
    pub cols: usize,
}

impl TileShape {
    /// Creates a shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> TileShape {
        assert!(rows > 0 && cols > 0);
        TileShape { rows, cols }
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

impl fmt::Display for TileShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{}", self.rows, self.cols)
    }
}

/// An anchor pattern on a `rows × cols` window. Bit `(r, c)` is true iff
/// the cell in row `r` (south-based), column `c` holds an anchor.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tile {
    rows: usize,
    cols: usize,
    bits: Vec<bool>,
}

impl Tile {
    /// Creates an empty (all-zero) tile.
    pub fn empty(shape: TileShape) -> Tile {
        Tile {
            rows: shape.rows,
            cols: shape.cols,
            bits: vec![false; shape.cells()],
        }
    }

    /// Creates a tile from rows given **north first** (the way tiles are
    /// drawn in the paper), each row a string of `0`/`1`.
    ///
    /// # Panics
    ///
    /// Panics on ragged rows or characters other than `0`/`1`.
    pub fn parse(drawing: &[&str]) -> Tile {
        let rows = drawing.len();
        assert!(rows > 0);
        let cols = drawing[0].len();
        let mut tile = Tile::empty(TileShape::new(rows, cols));
        for (i, line) in drawing.iter().enumerate() {
            assert_eq!(line.len(), cols, "ragged tile drawing");
            let r = rows - 1 - i; // north-first drawing → south-based rows
            for (c, ch) in line.chars().enumerate() {
                match ch {
                    '0' => {}
                    '1' => tile.set(r, c, true),
                    _ => panic!("tile drawings use only 0/1"),
                }
            }
        }
        tile
    }

    /// The tile's shape.
    pub fn shape(&self) -> TileShape {
        TileShape::new(self.rows, self.cols)
    }

    /// The bit at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.bits[row * self.cols + col]
    }

    /// Sets the bit at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        self.bits[row * self.cols + col] = value;
    }

    /// The positions of all anchors.
    pub fn ones(&self) -> Vec<(usize, usize)> {
        (0..self.rows)
            .flat_map(|r| (0..self.cols).map(move |c| (r, c)))
            .filter(|&(r, c)| self.get(r, c))
            .collect()
    }

    /// The `rows × cols` sub-tile whose south-west corner is at
    /// `(row0, col0)`.
    ///
    /// # Panics
    ///
    /// Panics if the sub-window exceeds the tile.
    pub fn subtile(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Tile {
        assert!(row0 + rows <= self.rows && col0 + cols <= self.cols);
        let mut t = Tile::empty(TileShape::new(rows, cols));
        for r in 0..rows {
            for c in 0..cols {
                t.set(r, c, self.get(row0 + r, col0 + c));
            }
        }
        t
    }
}

impl fmt::Display for Tile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in (0..self.rows).rev() {
            for c in 0..self.cols {
                write!(f, "{}", if self.get(r, c) { '1' } else { '0' })?;
            }
            if r > 0 {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// Enumerates all realizable tiles of the given shape for anchor spacing
/// `k` (MIS of `G^(k)`, L1 metric), in a deterministic canonical order.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn enumerate_tiles(k: usize, shape: TileShape) -> Vec<Tile> {
    assert!(k > 0);
    let mut out = Vec::new();
    let mut tile = Tile::empty(shape);
    let mut ones: Vec<(usize, usize)> = Vec::new();
    backtrack(k, shape, &mut tile, 0, &mut ones, &mut out);
    out.sort();
    out
}

/// The shared tables for anchor spacing `k` and window `shape`: one
/// process-wide memo entry per `(k, shape)`.
///
/// Single-flight: the map lock is held only to find or insert the entry,
/// never across an enumeration; each part of the entry is a `OnceLock`,
/// so concurrent first requests block while exactly one of them builds
/// it.
///
/// # Panics
///
/// Panics if `k == 0`.
pub(crate) fn tile_tables(k: usize, shape: TileShape) -> Arc<TileTables> {
    assert!(k > 0);
    static MEMO: Mutex<BTreeMap<(usize, usize, usize), Arc<TileTables>>> =
        Mutex::new(BTreeMap::new());
    // A panicking build leaves its part unset (and retried), never a
    // half-built one, so a poisoned lock holds nothing to distrust.
    let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(
        memo.entry((k, shape.rows, shape.cols))
            .or_insert_with(|| Arc::new(TileTables::new(k, shape))),
    )
}

/// Lookups of [`TileTables`] parts: a miss is a lookup that built the
/// part, a hit one that found it built (or waited while another thread
/// built it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TableUse {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

/// The problem-independent tables the §7 synthesis CSP is posed over,
/// for one `(k, shape)`; see [`tile_tables`]. Each part is built on first
/// use. Index tuples point into [`TileTables::tiles`] and follow the
/// sorted enumeration order of their super-tiles.
#[derive(Debug)]
pub(crate) struct TileTables {
    k: usize,
    shape: TileShape,
    tiles: OnceLock<Arc<[Tile]>>,
    corners: OnceLock<Vec<[u32; 4]>>,
    east_pairs: OnceLock<Vec<[u32; 2]>>,
    north_pairs: OnceLock<Vec<[u32; 2]>>,
}

impl TileTables {
    fn new(k: usize, shape: TileShape) -> TileTables {
        TileTables {
            k,
            shape,
            tiles: OnceLock::new(),
            corners: OnceLock::new(),
            east_pairs: OnceLock::new(),
            north_pairs: OnceLock::new(),
        }
    }

    /// The realizable tiles, sorted: `enumerate_tiles(k, shape)`.
    pub(crate) fn tiles(&self, usage: &mut TableUse) -> &Arc<[Tile]> {
        lookup(&self.tiles, usage, || self.build_tiles())
    }

    /// `[sw, se, nw, ne]` corner sub-tiles of every realizable
    /// `(rows+1) × (cols+1)` super-tile.
    pub(crate) fn corners(&self, usage: &mut TableUse) -> &[[u32; 4]] {
        lookup(&self.corners, usage, || {
            self.sub_indices((1, 1), [(0, 0), (0, 1), (1, 0), (1, 1)])
        })
        .as_slice()
    }

    /// `[left, right]` halves of every realizable `rows × (cols+1)`
    /// super-tile: horizontally adjacent windows.
    pub(crate) fn east_pairs(&self, usage: &mut TableUse) -> &[[u32; 2]] {
        lookup(&self.east_pairs, usage, || {
            self.sub_indices((0, 1), [(0, 0), (0, 1)])
        })
        .as_slice()
    }

    /// `[bottom, top]` halves of every realizable `(rows+1) × cols`
    /// super-tile: vertically adjacent windows.
    pub(crate) fn north_pairs(&self, usage: &mut TableUse) -> &[[u32; 2]] {
        lookup(&self.north_pairs, usage, || {
            self.sub_indices((1, 0), [(0, 0), (1, 0)])
        })
        .as_slice()
    }

    fn build_tiles(&self) -> Arc<[Tile]> {
        enumerate_tiles(self.k, self.shape).into()
    }

    /// For every realizable super-tile `grow` rows and columns larger
    /// than the window, the indices of its window-sized sub-tiles at the
    /// given south-west offsets.
    fn sub_indices<const N: usize>(
        &self,
        grow: (usize, usize),
        offsets: [(usize, usize); N],
    ) -> Vec<[u32; N]> {
        let tiles = self.tiles.get_or_init(|| self.build_tiles());
        let TileShape { rows, cols } = self.shape;
        let index = |sub: Tile| {
            tiles
                .binary_search(&sub)
                .expect("sub-tile of a realizable tile is realizable (hereditary)")
                as u32
        };
        enumerate_tiles(self.k, TileShape::new(rows + grow.0, cols + grow.1))
            .iter()
            .map(|sup| offsets.map(|(r0, c0)| index(sup.subtile(r0, c0, rows, cols))))
            .collect()
    }
}

/// Reads `cell`, building it with `build` if this is the first lookup,
/// and records the hit or miss.
fn lookup<'a, T>(cell: &'a OnceLock<T>, usage: &mut TableUse, build: impl FnOnce() -> T) -> &'a T {
    let mut built = false;
    let value = cell.get_or_init(|| {
        built = true;
        build()
    });
    if built {
        usage.misses += 1;
    } else {
        usage.hits += 1;
    }
    value
}

/// Recursive candidate generation with independence pruning; candidates
/// are checked for realizability before being emitted.
fn backtrack(
    k: usize,
    shape: TileShape,
    tile: &mut Tile,
    cell: usize,
    ones: &mut Vec<(usize, usize)>,
    out: &mut Vec<Tile>,
) {
    if cell == shape.cells() {
        if realizable(k, tile) {
            out.push(tile.clone());
        }
        return;
    }
    let (r, c) = (cell / shape.cols, cell % shape.cols);
    // Option 1: leave the cell empty.
    backtrack(k, shape, tile, cell + 1, ones, out);
    // Option 2: place an anchor, if independent from previous anchors.
    let independent = ones
        .iter()
        .all(|&(pr, pc)| pr.abs_diff(r) + pc.abs_diff(c) > k);
    if independent {
        tile.set(r, c, true);
        ones.push((r, c));
        backtrack(k, shape, tile, cell + 1, ones, out);
        ones.pop();
        tile.set(r, c, false);
    }
}

/// Decides whether `tile` occurs as a window of some MIS of `G^(k)`, via
/// the frame CSP (see module docs). Exposed for tests and diagnostics.
pub fn realizable(k: usize, tile: &Tile) -> bool {
    let rows = tile.rows as i64;
    let cols = tile.cols as i64;
    let ki = k as i64;
    let ones: Vec<(i64, i64)> = tile
        .ones()
        .into_iter()
        .map(|(r, c)| (r as i64, c as i64))
        .collect();
    let dist = |a: (i64, i64), b: (i64, i64)| ((a.0 - b.0).abs() + (a.1 - b.1).abs()) as usize;

    // In-tile independence (the enumerator prunes this before calling,
    // but arbitrary callers may not).
    for (i, &a) in ones.iter().enumerate() {
        for &b in &ones[i + 1..] {
            if dist(a, b) <= k {
                return false;
            }
        }
    }

    // Free frame cells: in the width-k frame, not blocked by a tile anchor.
    let mut free: Vec<(i64, i64)> = Vec::new();
    for r in -ki..rows + ki {
        for c in -ki..cols + ki {
            let in_tile = r >= 0 && r < rows && c >= 0 && c < cols;
            if in_tile {
                continue;
            }
            if ones.iter().all(|&o| dist(o, (r, c)) > k) {
                free.push((r, c));
            }
        }
    }

    let mut solver = Solver::new();
    let vars = solver.new_vars(free.len());
    // Pairwise independence among free frame cells.
    for i in 0..free.len() {
        for j in i + 1..free.len() {
            if dist(free[i], free[j]) <= k {
                solver.add_clause([Lit::neg(vars[i]), Lit::neg(vars[j])]);
            }
        }
    }
    // Domination of every tile cell.
    for r in 0..rows {
        for c in 0..cols {
            if ones.iter().any(|&o| dist(o, (r, c)) <= k) {
                continue; // dominated inside the tile
            }
            let witnesses: Vec<Lit> = free
                .iter()
                .enumerate()
                .filter(|&(_, &f)| dist(f, (r, c)) <= k)
                .map(|(i, _)| Lit::pos(vars[i]))
                .collect();
            if witnesses.is_empty() {
                return false; // undominatable cell
            }
            solver.add_clause(witnesses);
        }
    }
    matches!(solver.solve(), SolveOutcome::Sat(_))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §7 calibration: the paper lists exactly these sixteen 3×2 tiles for
    /// k = 1.
    #[test]
    fn paper_16_tiles_for_k1() {
        let tiles = enumerate_tiles(1, TileShape::new(3, 2));
        assert_eq!(tiles.len(), 16, "§7 lists 16 tiles for k=1, 3×2");
        // Spot-check: the all-zero tile is NOT realizable (its centre
        // column cannot be dominated consistently), and the first listed
        // tile is.
        let zero = Tile::empty(TileShape::new(3, 2));
        assert!(!tiles.contains(&zero));
        let listed = Tile::parse(&["00", "00", "10"]);
        assert!(tiles.contains(&listed));
    }

    /// Every one of the sixteen tiles drawn in §7 is found, and nothing
    /// else.
    #[test]
    fn paper_16_tiles_exact_set() {
        let drawings: [[&str; 3]; 16] = [
            ["00", "00", "10"],
            ["00", "00", "01"],
            ["00", "10", "00"],
            ["00", "10", "01"],
            ["00", "01", "00"],
            ["00", "01", "10"],
            ["10", "00", "00"],
            ["10", "00", "10"],
            ["10", "00", "01"],
            ["10", "01", "00"],
            ["10", "01", "10"],
            ["01", "00", "00"],
            ["01", "00", "10"],
            ["01", "00", "01"],
            ["01", "10", "00"],
            ["01", "10", "01"],
        ];
        let mut expected: Vec<Tile> = drawings.iter().map(|d| Tile::parse(d)).collect();
        expected.sort();
        expected.dedup();
        assert_eq!(expected.len(), 16, "the paper's list has 16 distinct tiles");
        let got = enumerate_tiles(1, TileShape::new(3, 2));
        assert_eq!(got, expected);
    }

    #[test]
    fn three_by_three_tile_from_paper_is_realizable() {
        // §7 shows the 3×3 tile 000/010/100 inducing a horizontal edge.
        let t = Tile::parse(&["000", "010", "100"]);
        assert!(realizable(1, &t));
    }

    #[test]
    fn independence_violations_are_never_emitted() {
        for k in 1..=2 {
            for t in enumerate_tiles(k, TileShape::new(3, 3)) {
                let ones = t.ones();
                for (i, &a) in ones.iter().enumerate() {
                    for &b in &ones[i + 1..] {
                        assert!(a.0.abs_diff(b.0) + a.1.abs_diff(b.1) > k);
                    }
                }
            }
        }
    }

    #[test]
    fn hereditary_property() {
        // Every sub-tile of a realizable tile is realizable (A.1).
        let tiles = enumerate_tiles(2, TileShape::new(4, 3));
        let smaller = enumerate_tiles(2, TileShape::new(3, 3));
        for t in &tiles {
            for r0 in 0..=1 {
                let sub = t.subtile(r0, 0, 3, 3);
                assert!(
                    smaller.contains(&sub),
                    "sub-tile of a realizable tile must be realizable"
                );
            }
        }
    }

    #[test]
    fn single_cell_tiles() {
        // 1×1 windows: both "anchor" and "no anchor" occur in MIS.
        let tiles = enumerate_tiles(1, TileShape::new(1, 1));
        assert_eq!(tiles.len(), 2);
    }

    #[test]
    fn parse_display_roundtrip() {
        let t = Tile::parse(&["010", "000", "100"]);
        assert_eq!(t.to_string(), "010\n000\n100");
        assert!(t.get(0, 0)); // south-west corner
        assert!(t.get(2, 1)); // north row, middle column
    }

    #[test]
    fn subtile_extracts_correct_window() {
        let t = Tile::parse(&["0001", "0100", "1000"]);
        let sub = t.subtile(1, 1, 2, 3);
        // Rows 1..3, cols 1..4 of t: north row "001", south row "100".
        assert_eq!(sub, Tile::parse(&["001", "100"]));
    }

    /// The memo hands out exactly what the builder computes, for every
    /// `(k, shape)` `synthesize_auto` reaches up to k = 2: the tile list
    /// is `enumerate_tiles`, and every index tuple names the sub-tiles of
    /// the matching super-tile, in super-tile enumeration order.
    #[test]
    fn memo_tables_match_the_builder() {
        fn check<const N: usize>(
            tiles: &[Tile],
            k: usize,
            shape: TileShape,
            grow: (usize, usize),
            offsets: [(usize, usize); N],
            stored: &[[u32; N]],
        ) {
            let supers =
                enumerate_tiles(k, TileShape::new(shape.rows + grow.0, shape.cols + grow.1));
            assert_eq!(
                stored.len(),
                supers.len(),
                "k={k} {shape} grown by {grow:?}"
            );
            for (sup, tuple) in supers.iter().zip(stored) {
                for (&(r0, c0), &i) in offsets.iter().zip(tuple) {
                    let sub = sup.subtile(r0, c0, shape.rows, shape.cols);
                    assert_eq!(tiles.binary_search(&sub), Ok(i as usize));
                }
            }
        }
        let usage = &mut TableUse::default();
        for (k, rows, cols) in [(1, 3, 2), (1, 3, 3), (2, 5, 3), (2, 5, 5)] {
            let shape = TileShape::new(rows, cols);
            let tables = tile_tables(k, shape);
            let tiles = tables.tiles(usage);
            assert_eq!(**tiles, *enumerate_tiles(k, shape));
            let corners = tables.corners(usage);
            check(
                tiles,
                k,
                shape,
                (1, 1),
                [(0, 0), (0, 1), (1, 0), (1, 1)],
                corners,
            );
            check(
                tiles,
                k,
                shape,
                (0, 1),
                [(0, 0), (0, 1)],
                tables.east_pairs(usage),
            );
            check(
                tiles,
                k,
                shape,
                (1, 0),
                [(0, 0), (1, 0)],
                tables.north_pairs(usage),
            );
            assert!(Arc::ptr_eq(tiles, tile_tables(k, shape).tiles(usage)));
        }
    }

    /// Single-flight: four threads asking for one cold key at once share
    /// one build. (No other test touches k = 2, 4×4.)
    #[test]
    fn concurrent_cold_requests_share_one_build() {
        let barrier = std::sync::Barrier::new(4);
        let results: Vec<(Arc<[Tile]>, TableUse)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let mut usage = TableUse::default();
                        let tables = tile_tables(2, TileShape::new(4, 4));
                        (Arc::clone(tables.tiles(&mut usage)), usage)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (tiles, _) in &results {
            assert!(Arc::ptr_eq(tiles, &results[0].0));
        }
        let misses: u64 = results.iter().map(|(_, u)| u.misses).sum();
        let hits: u64 = results.iter().map(|(_, u)| u.hits).sum();
        assert_eq!((misses, hits), (1, 3));
    }
}
