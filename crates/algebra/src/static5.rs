//! The 5-valued static D-algebra `{0, 1, D, D̄}` (+ `X` as the full set)
//! used by SEMILET.
//!
//! A [`StaticValue`] is a pair (good-machine bit, faulty-machine bit):
//! `D` = good 1 / faulty 0, `D̄` = good 0 / faulty 1. Gate evaluation is
//! component-wise Boolean evaluation; the classical D-calculus tables fall
//! out automatically. As in [`crate::delay`], the ATPG works with *sets*
//! of still-possible values ([`StaticSet`]), and `X` is simply the full
//! set.
//!
//! [`eval_gate`] is the only definition of the algebra. The set operations
//! ([`eval_gate_sets`], [`narrow_inputs`]) run the word kernel of
//! [`crate::delay`] on tables built once from it: for each core op (AND,
//! OR, XOR) and set `B`, one `u64` whose byte `a` is the image of value
//! `a` against every value of `B` — 3 × 16 words, four byte lanes each.

use crate::kernel::{self, Core, Tables};
use gdf_netlist::GateKind;
use std::fmt;
use std::sync::OnceLock;

/// One value of the static D-algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum StaticValue {
    /// 0 in both machines.
    S0 = 0,
    /// 1 in both machines.
    S1 = 1,
    /// Good 1, faulty 0.
    D = 2,
    /// Good 0, faulty 1.
    Db = 3,
}

impl StaticValue {
    /// All four values in table order `0, 1, D, D̄`.
    pub const ALL: [StaticValue; 4] = [
        StaticValue::S0,
        StaticValue::S1,
        StaticValue::D,
        StaticValue::Db,
    ];

    /// Constructs from the `repr` index (0..4).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    pub fn from_index(i: u8) -> StaticValue {
        Self::ALL[i as usize]
    }

    /// Index of this value (its `repr`).
    pub fn index(self) -> u8 {
        self as u8
    }

    /// Builds the value from its (good, faulty) bits.
    pub fn from_pair(good: bool, faulty: bool) -> StaticValue {
        match (good, faulty) {
            (false, false) => StaticValue::S0,
            (true, true) => StaticValue::S1,
            (true, false) => StaticValue::D,
            (false, true) => StaticValue::Db,
        }
    }

    /// The good-machine bit.
    pub fn good(self) -> bool {
        matches!(self, StaticValue::S1 | StaticValue::D)
    }

    /// The faulty-machine bit.
    pub fn faulty(self) -> bool {
        matches!(self, StaticValue::S1 | StaticValue::Db)
    }

    /// Whether the machines disagree (`D` or `D̄`).
    pub fn is_fault_effect(self) -> bool {
        matches!(self, StaticValue::D | StaticValue::Db)
    }

    /// Negation in both machines.
    #[allow(clippy::should_implement_trait)] // method-call syntax without importing std::ops::Not
    pub fn not(self) -> StaticValue {
        StaticValue::from_pair(!self.good(), !self.faulty())
    }

    /// The classical notation for the value.
    pub fn symbol(self) -> &'static str {
        match self {
            StaticValue::S0 => "0",
            StaticValue::S1 => "1",
            StaticValue::D => "D",
            StaticValue::Db => "D'",
        }
    }
}

impl fmt::Display for StaticValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Evaluates any combinational gate over the D-algebra (component-wise on
/// the good and faulty machines).
///
/// # Panics
///
/// Panics if `kind` is `Input`/`Dff` or `vals` is empty.
pub fn eval_gate(kind: GateKind, vals: &[StaticValue]) -> StaticValue {
    debug_assert!(!vals.is_empty());
    StaticValue::from_pair(
        kind.eval_bools(vals.iter().map(|v| v.good())),
        kind.eval_bools(vals.iter().map(|v| v.faulty())),
    )
}

/// Two-input convenience wrapper around [`eval_gate`].
pub fn eval2(kind: GateKind, a: StaticValue, b: StaticValue) -> StaticValue {
    eval_gate(kind, &[a, b])
}

/// A set of still-possible [`StaticValue`]s; `X` is [`StaticSet::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StaticSet(u8);

impl StaticSet {
    /// The empty set (conflict).
    pub const EMPTY: StaticSet = StaticSet(0);
    /// All four values — the unknown `X`.
    pub const ALL: StaticSet = StaticSet(0b1111);
    /// `{0, 1}` — no fault effect (signals outside the faulty cone, or any
    /// signal in a fault-free time frame).
    pub const GOOD: StaticSet = StaticSet(0b0011);
    /// `{D, D̄}` — a guaranteed fault effect.
    pub const FAULT_EFFECT: StaticSet = StaticSet(0b1100);

    /// The singleton set `{v}`.
    pub fn singleton(v: StaticValue) -> StaticSet {
        StaticSet(1 << v.index())
    }

    /// Builds a set from an iterator of values.
    pub fn from_values<I: IntoIterator<Item = StaticValue>>(values: I) -> StaticSet {
        let mut s = StaticSet::EMPTY;
        for v in values {
            s.insert(v);
        }
        s
    }

    /// The raw bitmask.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Reconstructs a set from a raw bitmask (low 4 bits).
    pub fn from_bits(bits: u8) -> StaticSet {
        StaticSet(bits & 0b1111)
    }

    /// Whether `v` is still possible.
    pub fn contains(self, v: StaticValue) -> bool {
        self.0 & (1 << v.index()) != 0
    }

    /// Adds `v`.
    pub fn insert(&mut self, v: StaticValue) {
        self.0 |= 1 << v.index();
    }

    /// Removes `v`.
    pub fn remove(&mut self, v: StaticValue) {
        self.0 &= !(1 << v.index());
    }

    /// Set union.
    pub fn union(self, other: StaticSet) -> StaticSet {
        StaticSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: StaticSet) -> StaticSet {
        StaticSet(self.0 & other.0)
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of values in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// `Some(v)` if the set is the singleton `{v}`.
    pub fn as_singleton(self) -> Option<StaticValue> {
        if self.0.count_ones() == 1 {
            Some(StaticValue::from_index(self.0.trailing_zeros() as u8))
        } else {
            None
        }
    }

    /// Whether a fault effect is still possible here.
    pub fn may_be_fault_effect(self) -> bool {
        !self.intersect(StaticSet::FAULT_EFFECT).is_empty()
    }

    /// Whether every remaining value is a fault effect.
    pub fn must_be_fault_effect(self) -> bool {
        !self.is_empty() && self.intersect(StaticSet::FAULT_EFFECT) == self
    }

    /// Iterates over the values in the set.
    pub fn iter(self) -> impl Iterator<Item = StaticValue> {
        StaticValue::ALL
            .into_iter()
            .filter(move |v| self.contains(*v))
    }

    /// Applies negation to every value in the set.
    ///
    /// Negation pairs the values in adjacent bits (`0↔1`, `D↔D̄`), so
    /// negating a set swaps bit pairs.
    #[allow(clippy::should_implement_trait)] // method-call syntax without importing std::ops::Not
    pub fn not(self) -> StaticSet {
        StaticSet(kernel::not_bits(self.0))
    }

    /// Restriction to the good-machine bit `b` (e.g. for slow-clock frames
    /// where the faulty machine equals the good machine the set is further
    /// intersected with [`StaticSet::GOOD`] by the caller).
    pub fn with_good(self, b: bool) -> StaticSet {
        // Good 1: `1` and `D`.
        StaticSet(self.0 & if b { 0b0110 } else { 0b1001 })
    }
}

impl fmt::Display for StaticSet {
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

impl FromIterator<StaticValue> for StaticSet {
    fn from_iter<I: IntoIterator<Item = StaticValue>>(iter: I) -> Self {
        StaticSet::from_values(iter)
    }
}

/// The word tables of the three core ops (AND, OR, XOR), built once from
/// the scalar [`eval2`] — the component-wise [`eval_gate`] stays the only
/// definition of the algebra — and read as the core of `kind`. A set has
/// four values, so each word fills four byte lanes.
fn core(kind: GateKind) -> Core {
    static TABLES: OnceLock<Tables<16>> = OnceLock::new();
    TABLES
        .get_or_init(|| {
            Tables::build(|kind, a, b| {
                eval2(kind, StaticValue::from_index(a), StaticValue::from_index(b)).index()
            })
        })
        .core(kind)
}

/// Forward implication over sets; exact because the component-wise algebra
/// is associative. Runs the word kernel of [`crate::delay::eval_gate_sets`]
/// on four lanes.
///
/// # Panics
///
/// Panics if `kind` is `Input`/`Dff` or `ins` is empty.
pub fn eval_gate_sets(kind: GateKind, ins: &[StaticSet]) -> StaticSet {
    kernel::image(core(kind), ins)
}

/// Backward implication: narrows input sets and the output set; returns
/// `true` if anything changed. See [`crate::delay::narrow_inputs`] for the
/// contract and the word kernel, here on four lanes.
///
/// # Panics
///
/// Panics if `kind` is `Input`/`Dff` or `ins` is empty.
pub fn narrow_inputs(kind: GateKind, out_allowed: &mut StaticSet, ins: &mut [StaticSet]) -> bool {
    kernel::narrow(core(kind), out_allowed, ins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use StaticValue::{Db, D, S0, S1};

    #[test]
    fn classical_d_calculus() {
        // D & 1 = D; D & 0 = 0; D & D' = 0; D | D' = 1; !D = D'.
        assert_eq!(eval2(GateKind::And, D, S1), D);
        assert_eq!(eval2(GateKind::And, D, S0), S0);
        assert_eq!(eval2(GateKind::And, D, Db), S0);
        assert_eq!(eval2(GateKind::Or, D, Db), S1);
        assert_eq!(D.not(), Db);
        assert_eq!(eval2(GateKind::Xor, D, D), S0);
        assert_eq!(eval2(GateKind::Xor, D, S1), Db);
    }

    #[test]
    fn pair_round_trip() {
        for v in StaticValue::ALL {
            assert_eq!(StaticValue::from_pair(v.good(), v.faulty()), v);
        }
    }

    #[test]
    fn set_eval_and_narrow() {
        // AND output must be D with first input {D}: second must allow
        // good=1, faulty=1-or-fault → {1, D}.
        let mut out = StaticSet::singleton(D);
        let mut ins = [StaticSet::singleton(D), StaticSet::ALL];
        narrow_inputs(GateKind::And, &mut out, &mut ins);
        assert_eq!(ins[1], StaticSet::from_values([S1, D]));
    }

    #[test]
    fn narrow_conflict_detected() {
        let mut out = StaticSet::singleton(S1);
        let mut ins = [StaticSet::singleton(S0), StaticSet::ALL];
        narrow_inputs(GateKind::Or, &mut out, &mut ins);
        // OR with a 0 input can still be 1 through the other input.
        assert!(!out.is_empty());
        let mut out2 = StaticSet::singleton(S1);
        let mut ins2 = [StaticSet::singleton(S0), StaticSet::singleton(S0)];
        narrow_inputs(GateKind::Or, &mut out2, &mut ins2);
        assert!(out2.is_empty());
    }

    #[test]
    fn set_eval_exact() {
        let a = StaticSet::from_values([S0, D]);
        let b = StaticSet::from_values([S1, Db]);
        let got = eval_gate_sets(GateKind::Nand, &[a, b]);
        let mut expect = StaticSet::EMPTY;
        for va in a.iter() {
            for vb in b.iter() {
                expect.insert(eval2(GateKind::Nand, va, vb));
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn narrow_sound_for_all_small_cases() {
        let sample = [
            StaticSet::ALL,
            StaticSet::GOOD,
            StaticSet::FAULT_EFFECT,
            StaticSet::from_values([S0, Db]),
        ];
        for &a0 in &sample {
            for &b0 in &sample {
                for &o0 in &sample {
                    for kind in [GateKind::And, GateKind::Nor, GateKind::Xor] {
                        let mut out = o0;
                        let mut ins = [a0, b0];
                        narrow_inputs(kind, &mut out, &mut ins);
                        for va in a0.iter() {
                            for vb in b0.iter() {
                                let r = eval2(kind, va, vb);
                                if o0.contains(r) {
                                    assert!(ins[0].contains(va));
                                    assert!(ins[1].contains(vb));
                                    assert!(out.contains(r));
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn display_and_helpers() {
        assert_eq!(Db.to_string(), "D'");
        assert_eq!(format!("{}", StaticSet::FAULT_EFFECT), "{D,D'}");
        assert!(StaticSet::FAULT_EFFECT.must_be_fault_effect());
        assert!(StaticSet::ALL.may_be_fault_effect());
        assert!(!StaticSet::GOOD.may_be_fault_effect());
        assert_eq!(
            StaticSet::ALL.with_good(true),
            StaticSet::from_values([S1, D])
        );
    }
}
