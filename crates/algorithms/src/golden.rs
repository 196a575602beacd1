//! Golden outputs of the §8 and §10 solvers.
//!
//! The symmetry-breaking core `S_k` (Linial + Kuhn–Wattenhofer + greedy
//! MIS on grid powers) is heavily optimised; these tests pin the exact
//! labellings, spacings and round ledgers it feeds, so any change to the
//! core that alters an output, however slightly, fails here. Label
//! digests are FNV-1a-64 over the labels as little-endian `u16` bytes.

use crate::edge_colouring::EdgeColouring;
use crate::four_colouring::FourColouring;
use crate::Profile;
use lcl_local::{GridInstance, IdAssignment};

/// FNV-1a-64 of `labels`, each encoded as two little-endian bytes.
fn fnv1a64(labels: &[u16]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &l in labels {
        for b in l.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn instance(n: usize, seed: u64) -> GridInstance {
    GridInstance::new(n, &IdAssignment::Shuffled { seed })
}

#[test]
fn four_colouring_outputs_are_pinned() {
    let algo = FourColouring::new(Profile::Practical);
    for (n, seed, ell, rounds, digest) in [
        (32, 1, 12, 30_352, 0x557e_6cae_521e_234d),
        (32, 2, 12, 30_352, 0xd346_6dea_a602_8fcc),
        (32, 3, 12, 30_352, 0xa278_c5d5_7829_208d),
        (64, 1, 24, 230_944, 0x4cdc_a314_a972_515c),
    ] {
        let run = algo.solve(&instance(n, seed));
        let got = (run.ell, run.rounds.total(), fnv1a64(&run.labels));
        assert_eq!(got, (ell, rounds, digest), "n = {n}, seed = {seed}");
    }
}

#[test]
fn edge_colouring_outputs_are_pinned() {
    let algo = EdgeColouring::new(Profile::Practical);
    for (n, seed, spacing, rounds, digest) in [
        (40, 1, 36, 32_060, 0x5572_0007_94fa_6f8d),
        (64, 1, 36, 45_452, 0x578c_8a31_81fc_616b),
    ] {
        let run = algo.solve(&instance(n, seed));
        let got = (run.spacing, run.rounds.total(), fnv1a64(&run.labels));
        assert_eq!(got, (spacing, rounds, digest), "n = {n}, seed = {seed}");
    }
}
