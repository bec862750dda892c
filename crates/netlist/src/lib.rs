//! Gate-level netlist substrate for the gate-delay-fault ATPG system.
//!
//! This crate provides everything the test generators need to know about a
//! synchronous sequential circuit:
//!
//! * [`Circuit`] — an arena-based gate-level netlist with primary inputs
//!   (PIs), primary outputs (POs) and D flip-flops whose outputs act as
//!   *pseudo primary inputs* (PPIs) and whose data inputs act as *pseudo
//!   primary outputs* (PPOs), exactly as in the finite-state-machine model of
//!   Figure 1 of the paper.
//! * [`parser`] / [`writer`] — a reader and writer for the ISCAS'89
//!   `.bench` netlist format (no mature netlist-parsing crates exist, so this
//!   is written from scratch).
//! * [`fault`] — the fault universe: a slow-to-rise and a slow-to-fall
//!   delay fault on *every gate output and every fanout branch* (Section 3
//!   of the paper), classic single stuck-at faults for the SEMILET
//!   substrate, and transition (gross-delay) faults.
//! * [`model`] — the pluggable [`model::FaultModel`] trait behind those
//!   universes: lazy deterministic enumeration ([`model::FaultSet`]),
//!   equivalence collapsing and signal-name description, one
//!   implementation per model.
//! * [`scoap`] — SCOAP-style controllability/observability measures used to
//!   guide backtracing in both test generators.
//! * [`implication`] — the per-circuit wiring the test generators' set
//!   implication network reads (wake lists, levels, flip-flop indices).
//! * [`generator`] and [`suite`] — the benchmark suite: the exact `s27`
//!   netlist plus a deterministic synthetic family matching the published
//!   profiles of the remaining ISCAS'89 circuits used in Table 3.
//!
//! # Example
//!
//! ```
//! use gdf_netlist::suite;
//!
//! let c = suite::s27();
//! assert_eq!(c.num_inputs(), 4);
//! assert_eq!(c.num_dffs(), 3);
//! assert_eq!(c.num_outputs(), 1);
//! ```

pub mod circuit;
pub mod collapse;
pub mod fault;
pub mod gate;
pub mod generator;
pub mod implication;
pub mod model;
pub mod parser;
pub mod scoap;
pub mod suite;
pub mod writer;

pub use circuit::{BuildError, Circuit, CircuitBuilder, CircuitStats, Node, NodeId};
pub use collapse::{
    collapse_delay_faults, collapse_faults, Classes, CollapsedFaults, FaultClasses,
};
pub use fault::{
    DelayFault, DelayFaultKind, Fault, FaultSite, FaultUniverse, StuckAtKind, StuckFault,
    TransitionFault,
};
pub use gate::GateKind;
pub use implication::ImplicationTable;
pub use model::{DelayModel, FaultModel, FaultSet, ModelKind, StuckModel, TransitionModel};
pub use parser::{parse_bench, ParseBenchError};
pub use writer::to_bench;
