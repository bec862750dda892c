//! The 8-valued robust gate-delay-fault algebra of TDgen (paper §3).
//!
//! A [`DelayValue`] describes one signal across the two time frames of a
//! two-pattern delay test:
//!
//! | value | frame 1 | frame 2 | hazard possible | carries fault effect |
//! |-------|---------|---------|-----------------|----------------------|
//! | `0`   | 0       | 0       | no              | no |
//! | `1`   | 1       | 1       | no              | no |
//! | `R`   | 0       | 1       | —               | no |
//! | `F`   | 1       | 0       | —               | no |
//! | `0h`  | 0       | 0       | yes             | no |
//! | `1h`  | 1       | 1       | yes             | no |
//! | `Rc`  | 0       | 1       | —               | **yes** |
//! | `Fc`  | 1       | 0       | —               | **yes** |
//!
//! `Rc`/`Fc` play the role `D`/`D̄` play in static ATPG: they mark
//! transitions that still carry the (potential) delay-fault effect. The
//! tables implemented here encode the paper's robustness criterion — most
//! visibly, through an AND gate `Rc` propagates past any off-path input
//! whose *final* value is 1, while `Fc` propagates only past a *steady,
//! hazard-free* 1 (or another `Fc`).
//!
//! Only the AND and inverter tables are primitive (the paper's Tables 1 and
//! 2); OR/NAND/NOR/XOR/XNOR are derived by De Morgan's rules, exactly as the
//! paper prescribes.
//!
//! The scalar functions ([`and_n`], [`or_n`], [`xor_n`]) are the only
//! definition of the algebra. The set operations the implication engine
//! runs ([`eval_gate_sets`], [`narrow_inputs`]) are word operations on
//! tables built once from them: for each core op (AND, OR, XOR) and set
//! `B`, one `u64` whose byte `a` is the image of value `a` against every
//! value of `B` — 3 × 256 words. A set-by-set image masks the word to the
//! first set's bytes and ORs them; a narrowing keeps the values whose byte
//! meets the target. [`DelaySet::not`] swaps the bit pairs Table 2 maps
//! onto each other.
//!
//! The non-robust model has one scalar definition too,
//! [`eval_gate_nonrobust`]. Its set functions ([`eval_gate_sets_nonrobust`],
//! [`narrow_inputs_nonrobust`]) fold 16 states per gate — the robust core
//! value times the faulty machine's final bit — through the same words,
//! and map the folded states to output values through a 3 KiB table built
//! once from [`eval_gate_nonrobust`].

use crate::kernel::{self, core_op, Core, Fold, Tables, CORE_OPS};
use gdf_netlist::GateKind;
use std::fmt;
use std::sync::OnceLock;

/// One value of the 8-valued robust delay algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum DelayValue {
    /// Steady 0 in both frames, hazard-free.
    S0 = 0,
    /// Steady 1 in both frames, hazard-free.
    S1 = 1,
    /// Rising: 0 in the first frame, 1 in the second.
    R = 2,
    /// Falling: 1 in the first frame, 0 in the second.
    F = 3,
    /// Steady 0 with a possible hazard (may glitch to 1 and back).
    H0 = 4,
    /// Steady 1 with a possible hazard (may glitch to 0 and back).
    H1 = 5,
    /// Rising transition carrying the fault effect (slow-to-rise provoked).
    Rc = 6,
    /// Falling transition carrying the fault effect (slow-to-fall provoked).
    Fc = 7,
}

impl DelayValue {
    /// All eight values, in table order `0, 1, R, F, 0h, 1h, Rc, Fc`.
    pub const ALL: [DelayValue; 8] = [
        DelayValue::S0,
        DelayValue::S1,
        DelayValue::R,
        DelayValue::F,
        DelayValue::H0,
        DelayValue::H1,
        DelayValue::Rc,
        DelayValue::Fc,
    ];

    /// Constructs from the `repr` index (0..8).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    pub fn from_index(i: u8) -> DelayValue {
        Self::ALL[i as usize]
    }

    /// Index of this value (its `repr`).
    pub fn index(self) -> u8 {
        self as u8
    }

    /// The signal's logic value in the first (initial) time frame.
    pub fn initial(self) -> bool {
        matches!(
            self,
            DelayValue::S1 | DelayValue::F | DelayValue::H1 | DelayValue::Fc
        )
    }

    /// The signal's logic value in the second (test) time frame — in the
    /// *good* machine.
    pub fn final_value(self) -> bool {
        matches!(
            self,
            DelayValue::S1 | DelayValue::R | DelayValue::H1 | DelayValue::Rc
        )
    }

    /// Whether this value marks a possible hazard on a steady signal.
    pub fn has_hazard(self) -> bool {
        matches!(self, DelayValue::H0 | DelayValue::H1)
    }

    /// Whether this value carries the fault effect (`Rc` or `Fc`).
    pub fn carries_fault(self) -> bool {
        matches!(self, DelayValue::Rc | DelayValue::Fc)
    }

    /// Whether this is a transition (`R`, `F`, `Rc` or `Fc`).
    pub fn is_transition(self) -> bool {
        self.initial() != self.final_value()
    }

    /// Whether this is a steady, hazard-free value (`0` or `1`).
    pub fn is_steady_clean(self) -> bool {
        matches!(self, DelayValue::S0 | DelayValue::S1)
    }

    /// The clean (non-fault-carrying, hazard-free) value with the given
    /// frame values.
    pub fn from_frames(initial: bool, final_value: bool) -> DelayValue {
        match (initial, final_value) {
            (false, false) => DelayValue::S0,
            (true, true) => DelayValue::S1,
            (false, true) => DelayValue::R,
            (true, false) => DelayValue::F,
        }
    }

    /// Strips the fault-effect mark: `Rc → R`, `Fc → F`, others unchanged.
    pub fn without_fault_mark(self) -> DelayValue {
        match self {
            DelayValue::Rc => DelayValue::R,
            DelayValue::Fc => DelayValue::F,
            v => v,
        }
    }

    /// Adds the fault-effect mark to a transition: `R → Rc`, `F → Fc`.
    /// Returns `None` for non-transitions (steady values cannot provoke a
    /// delay fault).
    pub fn with_fault_mark(self) -> Option<DelayValue> {
        match self {
            DelayValue::R | DelayValue::Rc => Some(DelayValue::Rc),
            DelayValue::F | DelayValue::Fc => Some(DelayValue::Fc),
            _ => None,
        }
    }

    /// Boolean inversion of the value (the paper's Table 2).
    #[allow(clippy::should_implement_trait)] // method-call syntax without importing std::ops::Not
    pub fn not(self) -> DelayValue {
        match self {
            DelayValue::S0 => DelayValue::S1,
            DelayValue::S1 => DelayValue::S0,
            DelayValue::R => DelayValue::F,
            DelayValue::F => DelayValue::R,
            DelayValue::H0 => DelayValue::H1,
            DelayValue::H1 => DelayValue::H0,
            DelayValue::Rc => DelayValue::Fc,
            DelayValue::Fc => DelayValue::Rc,
        }
    }

    /// The paper's notation for the value.
    pub fn symbol(self) -> &'static str {
        match self {
            DelayValue::S0 => "0",
            DelayValue::S1 => "1",
            DelayValue::R => "R",
            DelayValue::F => "F",
            DelayValue::H0 => "0h",
            DelayValue::H1 => "1h",
            DelayValue::Rc => "Rc",
            DelayValue::Fc => "Fc",
        }
    }
}

impl fmt::Display for DelayValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// N-ary AND over the algebra — the paper's Table 1 generalized to any
/// arity (the 2-input specialization reproduces the printed table exactly;
/// see the tests and [`crate::tables`]).
///
/// Derivation from the value semantics:
/// * frame values combine as Boolean AND per frame;
/// * a steady-0 output is hazard-free only if some input is a steady,
///   hazard-free 0 (otherwise all inputs may be 1 simultaneously at some
///   interior moment);
/// * a steady-1 output has a hazard iff any input has one;
/// * a *rising* output carries the fault effect if any input does (every
///   off-path input necessarily has final value 1);
/// * a *falling* output carries the fault effect only if every off-path
///   input is a steady, hazard-free 1 — the paper's strict robustness rule.
pub fn and_n(vals: &[DelayValue]) -> DelayValue {
    debug_assert!(!vals.is_empty());
    and_of(vals.iter().copied())
}

/// The body of [`and_n`] over any re-iterable sequence of values, so
/// [`or_n`] can feed it inverted inputs without collecting them.
fn and_of<I: Iterator<Item = DelayValue> + Clone>(vals: I) -> DelayValue {
    let init = vals.clone().all(|v| v.initial());
    let fin = vals.clone().all(|v| v.final_value());
    if init != fin {
        let carries = vals.clone().any(|v| v.carries_fault());
        let robust = if fin {
            // Rising output: off-path inputs all have final value 1 here by
            // construction, which is exactly the paper's condition.
            true
        } else {
            // Falling output: every non-carrying input must be a steady 1.
            vals.clone()
                .all(|v| v.carries_fault() || v == DelayValue::S1)
        };
        match (fin, carries && robust) {
            (true, true) => DelayValue::Rc,
            (true, false) => DelayValue::R,
            (false, true) => DelayValue::Fc,
            (false, false) => DelayValue::F,
        }
    } else if fin {
        if vals.clone().any(|v| v == DelayValue::H1) {
            DelayValue::H1
        } else {
            DelayValue::S1
        }
    } else if vals.clone().any(|v| v == DelayValue::S0) {
        DelayValue::S0
    } else {
        DelayValue::H0
    }
}

/// N-ary OR, derived by De Morgan: `OR(a,…) = NOT(AND(NOT a,…))`.
pub fn or_n(vals: &[DelayValue]) -> DelayValue {
    debug_assert!(!vals.is_empty());
    and_of(vals.iter().map(|v| v.not())).not()
}

/// N-ary XOR. A transition propagates the fault effect through a parity
/// gate only if every off-path input is steady and hazard-free (any side
/// activity flips the output and destroys robustness).
pub fn xor_n(vals: &[DelayValue]) -> DelayValue {
    debug_assert!(!vals.is_empty());
    let init = vals.iter().fold(false, |acc, v| acc ^ v.initial());
    let fin = vals.iter().fold(false, |acc, v| acc ^ v.final_value());
    if init != fin {
        // Through a parity gate the fault effect survives only when it is
        // the *sole* transition: any other non-steady input (even a second
        // fault-carrying one) can flip the output and mask the late edge.
        let carriers = vals.iter().filter(|v| v.carries_fault()).count();
        let robust = carriers == 1
            && vals
                .iter()
                .all(|v| v.carries_fault() || v.is_steady_clean());
        match (fin, carriers > 0 && robust) {
            (true, true) => DelayValue::Rc,
            (true, false) => DelayValue::R,
            (false, true) => DelayValue::Fc,
            (false, false) => DelayValue::F,
        }
    } else {
        let clean = vals.iter().all(|v| v.is_steady_clean());
        match (fin, clean) {
            (false, true) => DelayValue::S0,
            (true, true) => DelayValue::S1,
            (false, false) => DelayValue::H0,
            (true, false) => DelayValue::H1,
        }
    }
}

/// Evaluates any combinational gate kind over the algebra.
///
/// # Panics
///
/// Panics if `kind` is `Input`/`Dff` or `vals` is empty.
pub fn eval_gate(kind: GateKind, vals: &[DelayValue]) -> DelayValue {
    match kind {
        GateKind::Buf => vals[0],
        GateKind::Not => vals[0].not(),
        GateKind::And => and_n(vals),
        GateKind::Nand => and_n(vals).not(),
        GateKind::Or => or_n(vals),
        GateKind::Nor => or_n(vals).not(),
        GateKind::Xor => xor_n(vals),
        GateKind::Xnor => xor_n(vals).not(),
        GateKind::Input | GateKind::Dff => {
            panic!("eval_gate called on non-combinational kind {kind:?}")
        }
    }
}

/// Two-input convenience wrapper around [`eval_gate`].
pub fn eval2(kind: GateKind, a: DelayValue, b: DelayValue) -> DelayValue {
    eval_gate(kind, &[a, b])
}

// ---------------------------------------------------------------------------
// Value sets
// ---------------------------------------------------------------------------

/// A set of still-possible [`DelayValue`]s, stored as a bitmask.
///
/// This is the state the paper's implication engine maintains per gate.
///
/// # Example
///
/// ```
/// use gdf_algebra::delay::{DelaySet, DelayValue};
///
/// let s = DelaySet::HAZARD_FREE; // what a PI or flip-flop output may take
/// assert!(s.contains(DelayValue::R));
/// assert!(!s.contains(DelayValue::H0));
/// assert_eq!(s.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DelaySet(u8);

impl DelaySet {
    /// The empty set (a conflict).
    pub const EMPTY: DelaySet = DelaySet(0);
    /// All eight values.
    pub const ALL: DelaySet = DelaySet(0xFF);
    /// All values except the fault-carrying ones — the domain of every
    /// signal outside the fault's output cone.
    pub const CLEAN: DelaySet = DelaySet(0b0011_1111);
    /// `{0, 1, R, F}` — hazard-free, non-carrying. The domain of primary
    /// inputs and flip-flop outputs (both change at most once per frame
    /// pair).
    pub const HAZARD_FREE: DelaySet = DelaySet(0b0000_1111);
    /// `{0, 1}` — steady hazard-free values.
    pub const STEADY_CLEAN: DelaySet = DelaySet(0b0000_0011);
    /// `{Rc, Fc}` — the fault-carrying values.
    pub const CARRYING: DelaySet = DelaySet(0b1100_0000);
    /// `{R, F}` — clean transitions.
    pub const TRANSITIONS: DelaySet = DelaySet(0b0000_1100);

    /// The singleton set `{v}`.
    pub fn singleton(v: DelayValue) -> DelaySet {
        DelaySet(1 << v.index())
    }

    /// Builds a set from an iterator of values.
    pub fn from_values<I: IntoIterator<Item = DelayValue>>(values: I) -> DelaySet {
        let mut s = DelaySet::EMPTY;
        for v in values {
            s.insert(v);
        }
        s
    }

    /// The raw bitmask.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Reconstructs a set from a raw bitmask.
    pub fn from_bits(bits: u8) -> DelaySet {
        DelaySet(bits)
    }

    /// Whether `v` is still possible.
    pub fn contains(self, v: DelayValue) -> bool {
        self.0 & (1 << v.index()) != 0
    }

    /// Adds `v`.
    pub fn insert(&mut self, v: DelayValue) {
        self.0 |= 1 << v.index();
    }

    /// Removes `v`.
    pub fn remove(&mut self, v: DelayValue) {
        self.0 &= !(1 << v.index());
    }

    /// Set union.
    pub fn union(self, other: DelaySet) -> DelaySet {
        DelaySet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: DelaySet) -> DelaySet {
        DelaySet(self.0 & other.0)
    }

    /// Complement within the 8-value universe.
    pub fn complement(self) -> DelaySet {
        DelaySet(!self.0)
    }

    /// Whether the set is empty (an implication conflict).
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of values in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// `Some(v)` if the set is the singleton `{v}`.
    pub fn as_singleton(self) -> Option<DelayValue> {
        if self.0.count_ones() == 1 {
            Some(DelayValue::from_index(self.0.trailing_zeros() as u8))
        } else {
            None
        }
    }

    /// Whether any value in the set carries the fault effect.
    pub fn may_carry_fault(self) -> bool {
        !self.intersect(DelaySet::CARRYING).is_empty()
    }

    /// Whether *every* value in the (non-empty) set carries the fault
    /// effect — i.e. the fault effect is guaranteed here.
    pub fn must_carry_fault(self) -> bool {
        !self.is_empty() && self.intersect(DelaySet::CARRYING) == self
    }

    /// Iterates over the values in the set, in table order.
    pub fn iter(self) -> impl Iterator<Item = DelayValue> {
        DelayValue::ALL
            .into_iter()
            .filter(move |v| self.contains(*v))
    }

    /// Applies the inverter table to every value in the set.
    ///
    /// Table 2 pairs every value with its inverse in adjacent bits (`0↔1`,
    /// `R↔F`, `0h↔1h`, `Rc↔Fc`), so inverting a set swaps bit pairs.
    #[allow(clippy::should_implement_trait)] // method-call syntax without importing std::ops::Not
    pub fn not(self) -> DelaySet {
        DelaySet(kernel::not_bits(self.0))
    }

    /// The values whose first-frame value is `b`.
    pub fn with_initial(self, b: bool) -> DelaySet {
        // Initial 1: `1`, `F`, `1h`, `Fc` — the odd bits.
        DelaySet(self.0 & if b { 0xAA } else { 0x55 })
    }

    /// The values whose second-frame (good-machine) value is `b`.
    pub fn with_final(self, b: bool) -> DelaySet {
        // Final 1: `1`, `R`, `1h`, `Rc`.
        DelaySet(self.0 & if b { 0x66 } else { 0x99 })
    }
}

impl fmt::Display for DelaySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for v in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<DelayValue> for DelaySet {
    fn from_iter<I: IntoIterator<Item = DelayValue>>(iter: I) -> Self {
        DelaySet::from_values(iter)
    }
}

/// The word tables of the three core ops (AND, OR, XOR), 6 KiB in all,
/// built once from the scalar [`eval2`] — which stays the only definition
/// of the algebra — and read as the core of `kind`.
fn core(kind: GateKind) -> Core {
    static TABLES: OnceLock<Tables<256>> = OnceLock::new();
    TABLES
        .get_or_init(|| {
            Tables::build(|kind, a, b| {
                eval2(kind, DelayValue::from_index(a), DelayValue::from_index(b)).index()
            })
        })
        .core(kind)
}

/// Forward implication: the set of output values reachable from the given
/// input sets. Exact (not an over-approximation): the two-input table is
/// associative, so the pairwise fold enumerates precisely the n-ary results
/// (property-tested in this module). Each step is a word of the table
/// masked to the accumulated set's bytes and OR-folded.
///
/// # Panics
///
/// Panics if `kind` is `Input`/`Dff` or `ins` is empty.
pub fn eval_gate_sets(kind: GateKind, ins: &[DelaySet]) -> DelaySet {
    kernel::image(core(kind), ins)
}

/// Backward implication: narrows every input set to the values that can
/// still produce an output inside `out_allowed` against some values of
/// the other inputs, and narrows `out_allowed` itself to what the inputs
/// can still produce. Each input is narrowed in a few word operations
/// against the fold of the others, taken from prefix and suffix folds, so
/// a gate costs O(arity).
///
/// Returns `true` if any set changed. An emptied set signals a conflict the
/// caller must detect via [`DelaySet::is_empty`].
///
/// # Panics
///
/// Panics if `kind` is `Input`/`Dff` or `ins` is empty.
pub fn narrow_inputs(kind: GateKind, out_allowed: &mut DelaySet, ins: &mut [DelaySet]) -> bool {
    kernel::narrow(core(kind), out_allowed, ins)
}

// ---------------------------------------------------------------------------
// Non-robust sensitization
// ---------------------------------------------------------------------------

/// Non-robust value-level gate evaluation: the robust value of
/// [`eval_gate`], whose transitions carry the fault mark exactly when
/// flipping the carrying inputs' *final* values flips the gate's final
/// value. Hazards may invalidate such a test; differences that leave the
/// good-machine output steady are not representable in the algebra and
/// are dropped.
///
/// This is the only definition of the non-robust model:
/// [`eval_gate_sets_nonrobust`] and [`narrow_inputs_nonrobust`] are built
/// from it.
///
/// # Panics
///
/// Panics if `kind` is `Input`/`Dff` or `vals` is empty.
pub fn eval_gate_nonrobust(kind: GateKind, vals: &[DelayValue]) -> DelayValue {
    let robust = eval_gate(kind, vals);
    if !robust.is_transition() {
        return robust;
    }
    let good_fin = kind.eval_bools(vals.iter().map(|v| v.final_value()));
    let faulty_fin = kind.eval_bools(vals.iter().map(|v| faulty_final(*v)));
    if good_fin != faulty_fin {
        robust.with_fault_mark().expect("transition")
    } else {
        robust.without_fault_mark()
    }
}

/// The value's final bit in the faulty machine: a fault-carrying
/// transition arrives late, so its faulty final value is its initial one.
fn faulty_final(v: DelayValue) -> bool {
    v.final_value() != v.carries_fault()
}

/// The values whose faulty-machine final bit is 1: `1`, `R`, `1h`, `Fc`.
const FAULTY_FINAL_ONE: u8 = 0b1010_0110;

/// The six multi-input gate kinds, in [`nr_tables`] order.
const MULTI_INPUT_KINDS: [GateKind; 6] = [
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
];

/// The non-robust fold of one multi-input kind. Its state is, per
/// faulty-machine final bit of the core op (index 0 or 1), the robust
/// core values reachable with it. A gate's non-robust value is a function
/// of its robust core value and that bit, and both fold associatively, so
/// these 16 states replace the Cartesian product of the input sets.
#[derive(Debug, Clone, Copy)]
struct NrFold {
    /// The robust core op.
    core: Core,
    /// The kind's tables.
    kind: &'static NrKind,
}

/// What [`nr_tables`] holds per multi-input kind.
#[derive(Debug)]
struct NrKind {
    /// `[faulty bit][core set]`: the non-robust output values of the
    /// states `(v, bit)` for `v` in the core set, as a raw bitmask.
    output: [[u8; 256]; 2],
    /// The faulty final bit of the core op over two faulty bits.
    bit: [[usize; 2]; 2],
}

impl Fold for NrFold {
    type State = [u8; 2];

    fn state(self, set: u8) -> [u8; 2] {
        [set & !FAULTY_FINAL_ONE, set & FAULTY_FINAL_ONE]
    }

    fn join(self, a: [u8; 2], b: [u8; 2]) -> [u8; 2] {
        let mut out = [0; 2];
        for (fa, &a) in a.iter().enumerate() {
            for (fb, &b) in b.iter().enumerate() {
                out[self.kind.bit[fa][fb]] |= self.core.join(a, b);
            }
        }
        out
    }

    fn unit(self) -> [u8; 2] {
        self.state(self.core.unit())
    }

    fn output(self, state: [u8; 2]) -> u8 {
        self.kind.output[0][state[0] as usize] | self.kind.output[1][state[1] as usize]
    }
}

/// The non-robust fold of a multi-input kind; `None` for BUF and NOT,
/// whose non-robust values are their robust ones.
fn nr_fold(kind: GateKind) -> Option<NrFold> {
    let k = MULTI_INPUT_KINDS.iter().position(|&m| m == kind)?;
    Some(NrFold {
        core: core(CORE_OPS[core_op(kind).0]),
        kind: &nr_tables()[k],
    })
}

/// The non-robust tables of the six multi-input kinds, 3 KiB in all,
/// built once. Each state the core fold can reach gets a shortest input
/// tuple that reaches it, and its output is [`eval_gate_nonrobust`] of
/// that tuple — which stays the only definition of the model. A state no
/// tuple reaches never arises in a fold and maps to no value.
fn nr_tables() -> &'static [NrKind; 6] {
    static TABLES: OnceLock<[NrKind; 6]> = OnceLock::new();
    TABLES.get_or_init(|| {
        MULTI_INPUT_KINDS.map(|kind| {
            let op = CORE_OPS[core_op(kind).0];
            let bit = |a: bool, b: bool| usize::from(op.eval_bools([a, b]));
            // Breadth-first over states `(bit, core value)`, from the
            // single values, extending a reached state's tuple by a value.
            let mut tuple: [[Option<Vec<DelayValue>>; 8]; 2] = Default::default();
            let mut queue = std::collections::VecDeque::new();
            for v in DelayValue::ALL {
                let (f, c) = (usize::from(faulty_final(v)), v.index() as usize);
                if tuple[f][c].is_none() {
                    tuple[f][c] = Some(vec![v]);
                    queue.push_back((f, c));
                }
            }
            while let Some((f, c)) = queue.pop_front() {
                for v in DelayValue::ALL {
                    let nf = bit(f == 1, faulty_final(v));
                    let nc = eval2(op, DelayValue::from_index(c as u8), v).index() as usize;
                    if tuple[nf][nc].is_none() {
                        let mut longer = tuple[f][c].clone().expect("reached state");
                        longer.push(v);
                        tuple[nf][nc] = Some(longer);
                        queue.push_back((nf, nc));
                    }
                }
            }
            let mut output = [[0u8; 256]; 2];
            for (row, tuples) in output.iter_mut().zip(&tuple) {
                let value: [u8; 8] = std::array::from_fn(|c| {
                    tuples[c]
                        .as_deref()
                        .map_or(0, |t| 1 << eval_gate_nonrobust(kind, t).index())
                });
                for set in 1..256usize {
                    row[set] = row[set & (set - 1)] | value[set.trailing_zeros() as usize];
                }
            }
            NrKind {
                output,
                bit: [
                    [bit(false, false), bit(false, true)],
                    [bit(true, false), bit(true, true)],
                ],
            }
        })
    })
}

/// Set-level forward implication under the non-robust model: exactly the
/// values [`eval_gate_nonrobust`] takes over the Cartesian product of the
/// input sets, computed as a fold over 16 states (the non-robust carry
/// rule alone is not associative for parity gates; paired with the
/// faulty final bit it is).
///
/// # Panics
///
/// Panics if `kind` is `Input`/`Dff` or `ins` is empty.
pub fn eval_gate_sets_nonrobust(kind: GateKind, ins: &[DelaySet]) -> DelaySet {
    match nr_fold(kind) {
        Some(fold) => kernel::image(fold, ins),
        None => eval_gate_sets(kind, ins),
    }
}

/// Backward implication under the non-robust model, with the contract of
/// [`narrow_inputs`]: input `i` keeps `v` iff some completion of the
/// other inputs maps into `out_allowed`, and `out_allowed` shrinks to
/// what the inputs produce. Returns `true` if any set changed.
///
/// # Panics
///
/// Panics if `kind` is `Input`/`Dff` or `ins` is empty.
pub fn narrow_inputs_nonrobust(
    kind: GateKind,
    out_allowed: &mut DelaySet,
    ins: &mut [DelaySet],
) -> bool {
    match nr_fold(kind) {
        Some(fold) => kernel::narrow(fold, out_allowed, ins),
        None => narrow_inputs(kind, out_allowed, ins),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DelayValue::*;

    #[test]
    fn value_semantics() {
        assert!(!S0.initial() && !S0.final_value());
        assert!(R.is_transition() && !R.carries_fault());
        assert!(Rc.is_transition() && Rc.carries_fault());
        assert!(H1.has_hazard() && H1.initial() && H1.final_value());
        assert_eq!(DelayValue::from_frames(false, true), R);
        assert_eq!(F.with_fault_mark(), Some(Fc));
        assert_eq!(S0.with_fault_mark(), None);
        assert_eq!(Fc.without_fault_mark(), F);
    }

    #[test]
    fn inverter_is_paper_table_2() {
        // 0↔1, R↔F, 0h↔1h, Rc↔Fc — an involution.
        for v in DelayValue::ALL {
            assert_eq!(v.not().not(), v);
            assert_eq!(v.not().initial(), !v.initial());
            assert_eq!(v.not().final_value(), !v.final_value());
            assert_eq!(v.not().carries_fault(), v.carries_fault());
        }
        assert_eq!(S0.not(), S1);
        assert_eq!(R.not(), F);
        assert_eq!(H0.not(), H1);
        assert_eq!(Rc.not(), Fc);
    }

    /// The paper's Table 1 — the full 8×8 AND table. Row = first operand,
    /// column order `0, 1, R, F, 0h, 1h, Rc, Fc`. The `Rc` and `Fc` rows
    /// are printed verbatim in the paper; the clean rows follow from the
    /// value semantics stated in §3.
    const PAPER_TABLE_1: [[DelayValue; 8]; 8] = [
        // a = 0
        [S0, S0, S0, S0, S0, S0, S0, S0],
        // a = 1
        [S0, S1, R, F, H0, H1, Rc, Fc],
        // a = R
        [S0, R, R, H0, H0, R, Rc, H0],
        // a = F
        [S0, F, H0, F, H0, F, H0, F],
        // a = 0h
        [S0, H0, H0, H0, H0, H0, H0, H0],
        // a = 1h
        [S0, H1, R, F, H0, H1, Rc, F],
        // a = Rc  (printed in the paper: 0 Rc Rc 0h 0h Rc Rc 0h)
        [S0, Rc, Rc, H0, H0, Rc, Rc, H0],
        // a = Fc  (printed in the paper: 0 Fc 0h F 0h F 0h Fc)
        [S0, Fc, H0, F, H0, F, H0, Fc],
    ];

    #[test]
    fn and_matches_paper_table_1() {
        for (i, &a) in DelayValue::ALL.iter().enumerate() {
            for (j, &b) in DelayValue::ALL.iter().enumerate() {
                assert_eq!(
                    eval2(GateKind::And, a, b),
                    PAPER_TABLE_1[i][j],
                    "AND({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn and_is_commutative_and_associative() {
        for a in DelayValue::ALL {
            for b in DelayValue::ALL {
                assert_eq!(eval2(GateKind::And, a, b), eval2(GateKind::And, b, a));
                for c in DelayValue::ALL {
                    let ab_c = eval2(GateKind::And, eval2(GateKind::And, a, b), c);
                    let a_bc = eval2(GateKind::And, a, eval2(GateKind::And, b, c));
                    assert_eq!(ab_c, a_bc, "({a}∧{b})∧{c}");
                    assert_eq!(ab_c, and_n(&[a, b, c]), "fold vs n-ary {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn or_xor_associativity_and_nary_agreement() {
        for a in DelayValue::ALL {
            for b in DelayValue::ALL {
                for c in DelayValue::ALL {
                    for (kind, f) in [
                        (GateKind::Or, or_n as fn(&[DelayValue]) -> DelayValue),
                        (GateKind::Xor, xor_n as fn(&[DelayValue]) -> DelayValue),
                    ] {
                        let fold = eval2(kind, eval2(kind, a, b), c);
                        assert_eq!(fold, f(&[a, b, c]), "{kind} {a},{b},{c}");
                    }
                }
            }
        }
    }

    #[test]
    fn four_input_fold_matches_nary() {
        // The set tables fold pairwise; that is exact only while the fold
        // agrees with the n-ary definition at every arity in use.
        type Nary = fn(&[DelayValue]) -> DelayValue;
        let ops: [(GateKind, Nary); 3] = [
            (GateKind::And, and_n),
            (GateKind::Or, or_n),
            (GateKind::Xor, xor_n),
        ];
        for a in DelayValue::ALL {
            for b in DelayValue::ALL {
                for c in DelayValue::ALL {
                    for d in DelayValue::ALL {
                        for (kind, f) in ops {
                            let fold = eval2(kind, eval2(kind, eval2(kind, a, b), c), d);
                            assert_eq!(fold, f(&[a, b, c, d]), "{kind} {a},{b},{c},{d}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn de_morgan_duality() {
        for a in DelayValue::ALL {
            for b in DelayValue::ALL {
                assert_eq!(
                    eval2(GateKind::Or, a, b),
                    eval2(GateKind::And, a.not(), b.not()).not()
                );
                assert_eq!(
                    eval2(GateKind::Nand, a, b),
                    eval2(GateKind::And, a, b).not()
                );
                assert_eq!(eval2(GateKind::Nor, a, b), eval2(GateKind::Or, a, b).not());
                assert_eq!(
                    eval2(GateKind::Xnor, a, b),
                    eval2(GateKind::Xor, a, b).not()
                );
            }
        }
    }

    #[test]
    fn fault_effect_never_created_from_clean_inputs() {
        // "an Rc or Fc value never emerges at an output of a gate if there
        // wasn't already one or more of these values at the input."
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for a in DelayValue::ALL {
                for b in DelayValue::ALL {
                    if !a.carries_fault() && !b.carries_fault() {
                        assert!(
                            !eval2(kind, a, b).carries_fault(),
                            "{kind}({a},{b}) fabricated a fault effect"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn frame_values_always_respected() {
        for kind in [GateKind::And, GateKind::Or, GateKind::Xor] {
            for a in DelayValue::ALL {
                for b in DelayValue::ALL {
                    let out = eval2(kind, a, b);
                    let init = kind.eval_bool(&[a.initial(), b.initial()]);
                    let fin = kind.eval_bool(&[a.final_value(), b.final_value()]);
                    assert_eq!(out.initial(), init, "{kind}({a},{b}) frame 1");
                    assert_eq!(out.final_value(), fin, "{kind}({a},{b}) frame 2");
                }
            }
        }
    }

    #[test]
    fn robustness_rules_quoted_in_the_paper() {
        // "Rc propagates from the on path input to the output of the gate
        //  with any value on the off path input that is 1 in its final
        //  value"
        for side in [S1, H1, R, Rc] {
            assert_eq!(eval2(GateKind::And, Rc, side), Rc, "side {side}");
        }
        // "but Fc propagates only with a steady one or Fc on the off path
        //  input."
        assert_eq!(eval2(GateKind::And, Fc, S1), Fc);
        assert_eq!(eval2(GateKind::And, Fc, Fc), Fc);
        for side in [H1, R, F] {
            assert_ne!(eval2(GateKind::And, Fc, side), Fc, "side {side}");
        }
    }

    #[test]
    fn set_basics() {
        let mut s = DelaySet::EMPTY;
        assert!(s.is_empty());
        s.insert(R);
        s.insert(Fc);
        assert_eq!(s.len(), 2);
        assert!(s.contains(R) && s.contains(Fc));
        assert!(s.may_carry_fault());
        assert!(!s.must_carry_fault());
        s.remove(R);
        assert_eq!(s.as_singleton(), Some(Fc));
        assert!(s.must_carry_fault());
        assert_eq!(DelaySet::ALL.len(), 8);
        assert_eq!(DelaySet::CLEAN.len(), 6);
        assert_eq!(DelaySet::HAZARD_FREE.len(), 4);
        assert_eq!(format!("{}", DelaySet::STEADY_CLEAN), "{0,1}");
    }

    #[test]
    fn set_eval_enumerates_exactly() {
        // Exactness of the set-level evaluation for 2 inputs: the result is
        // precisely the image of the Cartesian product.
        let a = DelaySet::from_values([S1, R]);
        let b = DelaySet::from_values([F, Fc]);
        let got = eval_gate_sets(GateKind::And, &[a, b]);
        let mut expect = DelaySet::EMPTY;
        for va in a.iter() {
            for vb in b.iter() {
                expect.insert(eval2(GateKind::And, va, vb));
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn set_eval_nary_exact_via_associativity() {
        // For three inputs, the fold equals direct triple enumeration.
        let sets = [
            DelaySet::from_values([S0, R, Fc]),
            DelaySet::from_values([S1, H1]),
            DelaySet::from_values([F, Rc, H0]),
        ];
        for kind in [GateKind::And, GateKind::Nor, GateKind::Xor] {
            let got = eval_gate_sets(kind, &sets);
            let mut expect = DelaySet::EMPTY;
            for a in sets[0].iter() {
                for b in sets[1].iter() {
                    for c in sets[2].iter() {
                        expect.insert(eval_gate(kind, &[a, b, c]));
                    }
                }
            }
            assert_eq!(got, expect, "{kind}");
        }
    }

    #[test]
    fn narrow_inputs_basic_and() {
        // Output must be 1 (steady) => both AND inputs must be steady-1-ish.
        let mut out = DelaySet::singleton(S1);
        let mut ins = [DelaySet::ALL, DelaySet::ALL];
        narrow_inputs(GateKind::And, &mut out, &mut ins);
        for (i, input) in ins.iter().enumerate() {
            assert!(input.contains(S1));
            assert!(!input.contains(S0), "input {i}: {input}");
            assert!(!input.contains(R));
            assert!(!input.contains(F));
            assert!(!input.contains(H1), "H1∧H1=H1 ≠ S1 so H1 must go");
        }
    }

    #[test]
    fn narrow_inputs_propagation_requirement() {
        // To get Fc out of an AND whose first input is {Fc}, the second
        // input must become {S1, Fc}.
        let mut out = DelaySet::singleton(Fc);
        let mut ins = [DelaySet::singleton(Fc), DelaySet::ALL];
        narrow_inputs(GateKind::And, &mut out, &mut ins);
        assert_eq!(ins[1], DelaySet::from_values([S1, Fc]));
    }

    #[test]
    fn narrow_inputs_detects_conflicts() {
        // Output S1 from an AND with one input pinned to S0 → empty sets.
        let mut out = DelaySet::singleton(S1);
        let mut ins = [DelaySet::singleton(S0), DelaySet::ALL];
        narrow_inputs(GateKind::And, &mut out, &mut ins);
        assert!(out.is_empty());
    }

    #[test]
    fn narrow_inputs_not_gate() {
        let mut out = DelaySet::singleton(Rc);
        let mut ins = [DelaySet::ALL];
        narrow_inputs(GateKind::Not, &mut out, &mut ins);
        assert_eq!(ins[0], DelaySet::singleton(Fc));
    }

    #[test]
    fn narrow_output_to_producible() {
        // Inputs {0} and anything → AND output can only be 0.
        let mut out = DelaySet::ALL;
        let mut ins = [DelaySet::singleton(S0), DelaySet::ALL];
        narrow_inputs(GateKind::And, &mut out, &mut ins);
        assert_eq!(out, DelaySet::singleton(S0));
    }

    #[test]
    fn narrow_never_removes_feasible_values() {
        // Soundness: brute-force all 2-input AND cases with random-ish sets.
        let sample_sets = [
            DelaySet::ALL,
            DelaySet::CLEAN,
            DelaySet::HAZARD_FREE,
            DelaySet::from_values([R, Fc]),
            DelaySet::from_values([S0, H1, Rc]),
        ];
        for &a0 in &sample_sets {
            for &b0 in &sample_sets {
                for &o0 in &sample_sets {
                    let mut out = o0;
                    let mut ins = [a0, b0];
                    narrow_inputs(GateKind::Nand, &mut out, &mut ins);
                    for va in a0.iter() {
                        for vb in b0.iter() {
                            let r = eval2(GateKind::Nand, va, vb);
                            if o0.contains(r) {
                                assert!(ins[0].contains(va), "lost {va}");
                                assert!(ins[1].contains(vb), "lost {vb}");
                                assert!(out.contains(r), "lost out {r}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn display_symbols() {
        assert_eq!(Rc.to_string(), "Rc");
        assert_eq!(H0.to_string(), "0h");
    }
}
