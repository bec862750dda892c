//! TDgen — the combinational robust gate-delay-fault test generator
//! (paper §3).
//!
//! TDgen works on the combinational block of a sequential circuit over the
//! *two coupled time frames* of a two-pattern test, using the 8-valued
//! algebra of [`gdf_algebra::delay`]. One copy of the netlist suffices:
//! every 8-valued value already contains the frame-1 and frame-2
//! components, and the state registers add the coupling constraint
//! `final(PPI) = initial(PPO)` (the paper's extra "truth table for the
//! state register").
//!
//! The search is a complete branch-and-bound over primary-input values
//! (4-valued: `0`, `1`, `R`, `F`) and pseudo-primary-input *initial* bits
//! (the frame-2 PPI value is implied through the register coupling).
//! After every decision a forward/backward implication pass narrows the
//! per-net value sets; the fault site converts a provoking transition into
//! its fault-carrying form (`R → Rc` for slow-to-rise); the goal is a
//! guaranteed fault-carrying value at a primary output, or a
//! known-polarity fault effect at a pseudo primary output (which the
//! sequential propagation phase of SEMILET then drives to a real output).
//!
//! Classification follows the paper: a fault is *untestable* only when the
//! complete search space is exhausted; hitting the backtrack limit
//! (default 100) *aborts* the fault instead.
//!
//! # Example
//!
//! ```
//! use gdf_netlist::{suite, FaultUniverse};
//! use gdf_tdgen::{TdGen, TdGenOutcome};
//!
//! let c = suite::s27();
//! let faults = FaultUniverse::default().delay_faults(&c);
//! let mut any_test = false;
//! for f in &faults {
//!     if let TdGenOutcome::Test(t) = TdGen::new(&c).generate(*f) {
//!         any_test = true;
//!         assert_eq!(t.v1.len(), c.num_inputs());
//!     }
//! }
//! assert!(any_test, "s27 has locally testable delay faults");
//! ```

pub mod network;
pub mod podem;
pub mod result;

pub use network::{DelayAlgebra, Sensitization};
pub use podem::{TdGen, TdGenConfig, TdGenOutcome};
pub use result::{LocalObservation, LocalTest, PpoValue};
