//! Concrete distributed algorithms from the paper's upper-bound sections.
//!
//! * [`four_colouring`] — §8: vertex 4-colouring in `O(log* n)` by ball
//!   carving (anchors → conflict-coloured radii → parity decomposition).
//! * [`edge_colouring`] — §10: edge `(2d+1)`-colouring in `O(log* n)` via
//!   `j,k`-independent sets and one cut colour per grid.
//! * [`orientations`] — §11: the full `X`-orientation classification
//!   (Theorem 22) with synthesised `Θ(log* n)` algorithms where they
//!   exist.
//! * [`corner`] — Appendix A.3: the corner coordination problem with
//!   complexity `Θ(√n)` on general graphs.
//!
//! ## Parameter profiles
//!
//! The §8 and §10 constructions are parameterised by their spacing
//! constants. [`Profile::Paper`] uses the proof constants (`ℓ = 1 +
//! 12d·16^d`, spacings `Θ((4k+1)^d)`), which guarantee success but need
//! tori with ≳10⁸ nodes before two anchors even fit; [`Profile::Practical`]
//! uses small constants, verifies the construction post hoc, and escalates
//! on failure (DESIGN.md §3.4). Every run is validated by the independent
//! LCL checkers in `lcl-core`.

#![forbid(unsafe_code)]
pub mod corner;
pub mod ddim;
pub mod edge_colouring;
pub mod four_colouring;
#[cfg(test)]
mod golden;
pub mod orientations;

use std::fmt;

/// Parameter profile for the §8/§10 constructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// The constants from the paper's proofs (guaranteed, astronomically
    /// large).
    Paper,
    /// Small constants with post-hoc verification and escalation.
    Practical,
}

/// Typed failure of a hand-built algorithm run.
///
/// The `try_solve` entry points return these instead of panicking, so that
/// the engine layer in the umbrella crate can fall back to another solver
/// (DESIGN.md §3.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AlgoError {
    /// The instance is smaller than the construction's minimum side.
    TorusTooSmall {
        /// Which algorithm rejected the instance.
        algorithm: &'static str,
        /// The smallest supported square-torus side.
        min_side: usize,
        /// The instance's actual side.
        side: usize,
    },
    /// Every escalation of the profile parameters failed before reaching
    /// the instance size.
    EscalationExhausted {
        /// Which algorithm gave up.
        algorithm: &'static str,
        /// Human-readable description of the last parameterisation tried.
        detail: String,
    },
}

impl fmt::Display for AlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoError::TorusTooSmall {
                algorithm,
                min_side,
                side,
            } => write!(
                f,
                "{algorithm}: torus side {side} is below the minimum {min_side}"
            ),
            AlgoError::EscalationExhausted { algorithm, detail } => {
                write!(f, "{algorithm}: escalation exhausted ({detail})")
            }
        }
    }
}

impl std::error::Error for AlgoError {}
