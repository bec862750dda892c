//! Multi-valued algebras for delay-fault and static-fault test generation.
//!
//! Two algebras back the two test generators of the paper:
//!
//! * [`delay`] — the **8-valued robust gate-delay-fault algebra** of TDgen
//!   (Section 3, Tables 1 and 2): `{0, 1, R, F, 0h, 1h, Rc, Fc}`. One value
//!   describes a signal across *both* time frames of a two-pattern test —
//!   its initial-frame value, its final-frame value, whether a hazard is
//!   possible in between, and whether it carries the fault effect (the `c`
//!   in `Rc`/`Fc` plays the role D/D̄ play in static ATPG).
//! * [`static5`] — the **5-valued D-algebra** `{0, 1, D, D̄}` + X of SEMILET,
//!   encoded as (good-machine bit, faulty-machine bit) pairs; `X` is the
//!   full value set.
//!
//! Both algebras are exposed in the *set* form the paper works with
//! ("during test pattern generation for each gate a set of values is
//! maintained that are possible for that gate"): a signal's state is a
//! bitmask of still-possible values, and [`delay::eval_gate_sets`] /
//! [`delay::narrow_inputs`] (and their `static5` twins) perform forward and
//! backward implications over those sets. The scalar gate functions
//! ([`delay::eval_gate`], [`static5::eval_gate`]) are the only definition of
//! each algebra; the set operations are word operations on tables built
//! once from them (per AND/OR/XOR core op and set, one `u64` holding each
//! value's image against the set in its own byte lane), so an implication
//! costs a handful of word operations per input and no allocation.
//!
//! [`logic3`] holds the plain 3-valued Kleene logic used by the good-machine
//! simulator and the synchronizing-sequence search.
//!
//! [`search`] is the machinery both test generators run on, generic over
//! the set algebra: the per-net implication network and the
//! backtrack-limited branch-and-bound with its backtrace.
//!
//! [`packed`] is the bit-parallel face of the delay algebra: 64 values per
//! [`packed::PackedWave`] as four u64 bit-planes, with word-level gate
//! evaluation lane-identical to the scalar tables — the substrate of the
//! word-parallel fault simulator.
//!
//! # Example
//!
//! ```
//! use gdf_algebra::delay::{DelayValue, eval2};
//! use gdf_netlist::GateKind;
//!
//! // The paper's robustness rule: a fault-carrying falling transition
//! // propagates through an AND gate only past a steady, hazard-free 1.
//! assert_eq!(eval2(GateKind::And, DelayValue::Fc, DelayValue::S1), DelayValue::Fc);
//! assert_eq!(eval2(GateKind::And, DelayValue::Fc, DelayValue::H1), DelayValue::F);
//! ```

pub mod delay;
mod kernel;
pub mod logic3;
pub mod packed;
pub mod search;
pub mod static5;
pub mod tables;

pub use delay::{DelaySet, DelayValue};
pub use logic3::Logic3;
pub use packed::PackedWave;
pub use static5::{StaticSet, StaticValue};
