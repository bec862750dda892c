//! SEMILET — the sequential test generator for static fault models, built
//! around the FOGBUSTER algorithm (paper §4).
//!
//! Within the combined system of the paper, SEMILET contributes three
//! services around TDgen's local two-pattern test:
//!
//! * **Propagation** ([`propagate`]): *forward time processing* that drives
//!   a fault effect latched in the state (a `D`/`D̄` at one flip-flop) to a
//!   primary output through fault-free, slow-clock time frames.
//! * **Initialization** ([`justify`]): *reverse time processing* that
//!   computes a synchronizing input sequence from the unknown power-up
//!   state to the state TDgen requires before the two-pattern test.
//! * **Standalone static ATPG** ([`stuckat`]): sequential single-stuck-at
//!   test generation over the same machinery, exercising SEMILET as the
//!   independent tool it is in the paper.
//!
//! All three are built on the per-frame 5-valued engine in [`frame`]:
//! set-based forward/backward implication over `{0, 1, D, D̄}` with a
//! complete per-frame branch-and-bound and the paper's backtrack-limit
//! abort.
//!
//! One deliberate design difference from the paper is documented under
//! "Reproduction fidelity" in the repository README: propagation here
//! never *assumes* unjustified side values at pseudo primary inputs
//! (forward frames use only what the state actually provides), so the
//! paper's separate "propagation justification" pass reduces to the
//! fast-frame re-entry implemented in the driver crate.

pub mod frame;
pub mod justify;
pub mod propagate;
pub mod stuckat;

pub use frame::{FrameEngine, FrameGoal, FrameResult, FrameSolution, PpiConstraint};
pub use justify::{synchronize, SyncOutcome};
pub use propagate::{propagate_to_po, PropagateOutcome, Propagation};
pub use stuckat::{StuckAtAtpg, StuckAtOutcome};
