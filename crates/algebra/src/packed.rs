//! Bit-parallel (64-lane) representation of the 8-valued delay algebra.
//!
//! A [`PackedWave`] holds **64 independent [`DelayValue`]s** — one per bit
//! lane — encoded in four u64 bit-planes that mirror the value semantics of
//! [`crate::delay`]:
//!
//! * `init` — the frame-1 logic value ([`DelayValue::initial`]);
//! * `fin` — the frame-2 logic value ([`DelayValue::final_value`]);
//! * `haz` — the hazard mark of steady values ([`DelayValue::has_hazard`]);
//! * `car` — the fault-effect mark of transitions
//!   ([`DelayValue::carries_fault`]).
//!
//! Two invariants keep the encoding canonical: `haz` may only be set on
//! lanes where `init == fin` (hazards exist on steady signals only) and
//! `car` only on lanes where `init != fin` (only transitions can carry the
//! fault effect). Every constructor and gate operation maintains them.
//!
//! The word-level gate operations are derived from the same semantics the
//! scalar tables encode (frame values combine Booleanly per frame; the
//! paper's robustness rules gate the `car` plane), and are proven identical
//! to [`crate::delay::eval_gate`] by exhaustive 8×8(×8) tests below. All
//! n-ary gates fold the two-input operation, which is exact because the
//! two-input tables are associative (property-tested in `delay`).
//!
//! This is the substrate of the word-parallel fault simulator: one packed
//! sweep over the netlist traces up to 64 faulty machines at once.

use crate::delay::DelayValue;
use gdf_netlist::GateKind;

/// 64 delay-algebra values, one per bit lane, as four bit-planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackedWave {
    /// Frame-1 value per lane.
    pub init: u64,
    /// Frame-2 value per lane.
    pub fin: u64,
    /// Hazard mark per lane (steady lanes only).
    pub haz: u64,
    /// Fault-effect mark per lane (transition lanes only).
    pub car: u64,
}

impl PackedWave {
    /// All 64 lanes holding the same value.
    pub fn splat(v: DelayValue) -> PackedWave {
        let all = |b: bool| if b { !0u64 } else { 0 };
        PackedWave {
            init: all(v.initial()),
            fin: all(v.final_value()),
            haz: all(v.has_hazard()),
            car: all(v.carries_fault()),
        }
    }

    /// The clean value of each lane from its two frame values — the
    /// packed [`DelayValue::from_frames`]: lane `k` holds `0`, `1`, `R` or
    /// `F` as bit `k` of `init` and `fin` say.
    pub fn from_frames(init: u64, fin: u64) -> PackedWave {
        PackedWave {
            init,
            fin,
            haz: 0,
            car: 0,
        }
    }

    /// Packs up to 64 values; lane `k` takes `lanes[k]`, the rest
    /// [`DelayValue::S0`].
    ///
    /// # Panics
    ///
    /// Panics if `lanes.len() > 64`.
    pub fn from_lanes(lanes: &[DelayValue]) -> PackedWave {
        assert!(lanes.len() <= 64, "at most 64 lanes per word");
        let mut w = PackedWave::default();
        for (k, &v) in lanes.iter().enumerate() {
            w.set_lane(k, v);
        }
        w
    }

    /// The value in lane `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 64`.
    pub fn lane(self, k: usize) -> DelayValue {
        assert!(k < 64);
        let bit = |plane: u64| plane >> k & 1 == 1;
        let (i, f) = (bit(self.init), bit(self.fin));
        if i != f {
            match (f, bit(self.car)) {
                (true, true) => DelayValue::Rc,
                (true, false) => DelayValue::R,
                (false, true) => DelayValue::Fc,
                (false, false) => DelayValue::F,
            }
        } else {
            match (f, bit(self.haz)) {
                (true, true) => DelayValue::H1,
                (true, false) => DelayValue::S1,
                (false, true) => DelayValue::H0,
                (false, false) => DelayValue::S0,
            }
        }
    }

    /// Overwrites lane `k` with `v`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 64`.
    pub fn set_lane(&mut self, k: usize, v: DelayValue) {
        assert!(k < 64);
        let mask = 1u64 << k;
        let put = |plane: &mut u64, b: bool| {
            if b {
                *plane |= mask;
            } else {
                *plane &= !mask;
            }
        };
        put(&mut self.init, v.initial());
        put(&mut self.fin, v.final_value());
        put(&mut self.haz, v.has_hazard());
        put(&mut self.car, v.carries_fault());
    }

    /// Replaces the lanes selected by `mask` with the corresponding lanes
    /// of `other` (a per-lane select).
    pub fn select(self, mask: u64, other: PackedWave) -> PackedWave {
        let blend = |a: u64, b: u64| (a & !mask) | (b & mask);
        PackedWave {
            init: blend(self.init, other.init),
            fin: blend(self.fin, other.fin),
            haz: blend(self.haz, other.haz),
            car: blend(self.car, other.car),
        }
    }

    /// Lanes whose value is a transition (`R`, `F`, `Rc`, `Fc`).
    pub fn transitions(self) -> u64 {
        self.init ^ self.fin
    }

    /// Lanes whose value is steady (`0`, `1`, `0h`, `1h`).
    pub fn steady(self) -> u64 {
        !self.transitions()
    }

    /// Lanes carrying the fault effect (`Rc`, `Fc`).
    pub fn carries(self) -> u64 {
        self.car
    }

    /// Lanes with a hazard mark (`0h`, `1h`).
    pub fn hazards(self) -> u64 {
        self.haz
    }

    /// Lanes that are steady and hazard-free (`0`, `1`).
    pub fn steady_clean(self) -> u64 {
        self.steady() & !self.haz
    }

    /// Lanes holding a steady, hazard-free 1.
    pub fn steady_one(self) -> u64 {
        self.steady_clean() & self.fin
    }

    /// Lanes holding a steady, hazard-free 0.
    pub fn steady_zero(self) -> u64 {
        self.steady_clean() & !self.fin
    }

    /// Lanes rising in the good machine (`R`, `Rc`).
    pub fn rising(self) -> u64 {
        self.transitions() & self.fin
    }

    /// Lanes falling in the good machine (`F`, `Fc`).
    pub fn falling(self) -> u64 {
        self.transitions() & !self.fin
    }

    /// Per-lane inverter — the paper's Table 2 on all 64 lanes.
    #[allow(clippy::should_implement_trait)] // mirror DelayValue::not's name
    pub fn not(self) -> PackedWave {
        PackedWave {
            init: !self.init,
            fin: !self.fin,
            haz: self.haz,
            car: self.car,
        }
    }

    /// Per-lane two-input AND — the paper's Table 1 on all 64 lanes.
    pub fn and2(self, other: PackedWave) -> PackedWave {
        let init = self.init & other.init;
        let fin = self.fin & other.fin;
        let t = init ^ fin;
        // Rising output: the fault effect propagates past any off-path
        // input with final value 1 (all inputs have final value 1 here by
        // construction). Falling output: every non-carrying input must be
        // a steady, hazard-free 1 — the paper's strict robustness rule.
        let robust_fall = (self.car | self.steady_one()) & (other.car | other.steady_one());
        let car = t & (self.car | other.car) & (fin | robust_fall);
        // Steady-1 output: hazard iff any (necessarily steady-1) input has
        // one. Steady-0 output: hazard-free only if some input is a
        // steady, hazard-free 0.
        let haz = !t
            & (fin & (self.haz | other.haz) | !fin & !(self.steady_zero() | other.steady_zero()));
        PackedWave {
            init,
            fin,
            haz,
            car,
        }
    }

    /// Per-lane two-input OR, by De Morgan over [`PackedWave::and2`].
    pub fn or2(self, other: PackedWave) -> PackedWave {
        self.not().and2(other.not()).not()
    }

    /// Per-lane two-input XOR. A transition propagates the fault effect
    /// through a parity gate only as the *sole* non-steady input.
    pub fn xor2(self, other: PackedWave) -> PackedWave {
        let init = self.init ^ other.init;
        let fin = self.fin ^ other.fin;
        let t = init ^ fin;
        let car = t & (self.car & other.steady_clean() | other.car & self.steady_clean());
        let haz = !t & !(self.steady_clean() & other.steady_clean());
        PackedWave {
            init,
            fin,
            haz,
            car,
        }
    }
}

/// Evaluates any combinational gate kind over packed operands, lane-wise
/// identical to [`crate::delay::eval_gate`].
///
/// # Panics
///
/// Panics if `kind` is `Input`/`Dff` or `ins` is empty.
pub fn eval_gate_packed(kind: GateKind, ins: &[PackedWave]) -> PackedWave {
    debug_assert!(!ins.is_empty());
    match kind {
        GateKind::Buf => ins[0],
        GateKind::Not => ins[0].not(),
        GateKind::And => ins[1..].iter().fold(ins[0], |a, &b| a.and2(b)),
        GateKind::Nand => ins[1..].iter().fold(ins[0], |a, &b| a.and2(b)).not(),
        GateKind::Or => ins[1..].iter().fold(ins[0], |a, &b| a.or2(b)),
        GateKind::Nor => ins[1..].iter().fold(ins[0], |a, &b| a.or2(b)).not(),
        GateKind::Xor => ins[1..].iter().fold(ins[0], |a, &b| a.xor2(b)),
        GateKind::Xnor => ins[1..].iter().fold(ins[0], |a, &b| a.xor2(b)).not(),
        GateKind::Input | GateKind::Dff => {
            panic!("eval_gate_packed called on non-combinational kind {kind:?}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{eval2, eval_gate};

    #[test]
    fn splat_and_lane_round_trip() {
        for v in DelayValue::ALL {
            let w = PackedWave::splat(v);
            for k in [0, 1, 31, 63] {
                assert_eq!(w.lane(k), v, "{v} lane {k}");
            }
        }
    }

    #[test]
    fn from_lanes_round_trip() {
        let lanes: Vec<DelayValue> = (0..64).map(|k| DelayValue::from_index(k % 8)).collect();
        let w = PackedWave::from_lanes(&lanes);
        for (k, &v) in lanes.iter().enumerate() {
            assert_eq!(w.lane(k), v, "lane {k}");
        }
    }

    #[test]
    fn from_frames_matches_scalar_per_lane() {
        let (init, fin) = (0b0011u64, 0b0101u64);
        let w = PackedWave::from_frames(init, fin);
        for k in 0..4 {
            let scalar = DelayValue::from_frames(init >> k & 1 == 1, fin >> k & 1 == 1);
            assert_eq!(w.lane(k), scalar, "lane {k}");
        }
    }

    #[test]
    fn set_lane_preserves_other_lanes() {
        let mut w = PackedWave::splat(DelayValue::H1);
        w.set_lane(5, DelayValue::Fc);
        assert_eq!(w.lane(5), DelayValue::Fc);
        assert_eq!(w.lane(4), DelayValue::H1);
        assert_eq!(w.lane(6), DelayValue::H1);
    }

    #[test]
    fn select_blends_per_lane() {
        let a = PackedWave::splat(DelayValue::S0);
        let b = PackedWave::splat(DelayValue::Rc);
        let out = a.select(0b1010, b);
        assert_eq!(out.lane(0), DelayValue::S0);
        assert_eq!(out.lane(1), DelayValue::Rc);
        assert_eq!(out.lane(2), DelayValue::S0);
        assert_eq!(out.lane(3), DelayValue::Rc);
    }

    #[test]
    fn predicates_match_scalar_semantics() {
        for v in DelayValue::ALL {
            let w = PackedWave::splat(v);
            let all = |b: bool| if b { !0u64 } else { 0 };
            assert_eq!(w.transitions(), all(v.is_transition()), "{v}");
            assert_eq!(w.carries(), all(v.carries_fault()), "{v}");
            assert_eq!(w.hazards(), all(v.has_hazard()), "{v}");
            assert_eq!(w.steady_clean(), all(v.is_steady_clean()), "{v}");
            assert_eq!(w.steady_one(), all(v == DelayValue::S1), "{v}");
            assert_eq!(w.steady_zero(), all(v == DelayValue::S0), "{v}");
            assert_eq!(
                w.rising(),
                all(matches!(v, DelayValue::R | DelayValue::Rc)),
                "{v}"
            );
            assert_eq!(
                w.falling(),
                all(matches!(v, DelayValue::F | DelayValue::Fc)),
                "{v}"
            );
        }
    }

    /// Encoding invariants: haz only on steady lanes, car only on
    /// transitions — for every op output over the full 8×8 input space.
    fn assert_canonical(w: PackedWave) {
        assert_eq!(w.haz & w.transitions(), 0, "hazard on a transition lane");
        assert_eq!(w.car & w.steady(), 0, "carry on a steady lane");
    }

    #[test]
    fn two_input_ops_match_scalar_tables_exhaustively() {
        // Pack one (a, b) pair per lane: all 64 combinations in one word.
        let a = PackedWave::from_lanes(
            &(0..64u8)
                .map(|k| DelayValue::from_index(k / 8))
                .collect::<Vec<_>>(),
        );
        let b = PackedWave::from_lanes(
            &(0..64u8)
                .map(|k| DelayValue::from_index(k % 8))
                .collect::<Vec<_>>(),
        );
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            let packed = eval_gate_packed(kind, &[a, b]);
            assert_canonical(packed);
            for k in 0..64 {
                let (va, vb) = (a.lane(k), b.lane(k));
                assert_eq!(packed.lane(k), eval2(kind, va, vb), "{kind}({va}, {vb})");
            }
        }
        assert_canonical(a.not());
        for k in 0..64 {
            assert_eq!(a.not().lane(k), a.lane(k).not());
        }
    }

    #[test]
    fn three_input_folds_match_scalar_nary() {
        // 8^3 = 512 triples, two words of 256 lanes each... exhaustive by
        // looping the first operand scalar and packing the (b, c) pairs.
        for va in DelayValue::ALL {
            let a = PackedWave::splat(va);
            let b = PackedWave::from_lanes(
                &(0..64u8)
                    .map(|k| DelayValue::from_index(k / 8))
                    .collect::<Vec<_>>(),
            );
            let c = PackedWave::from_lanes(
                &(0..64u8)
                    .map(|k| DelayValue::from_index(k % 8))
                    .collect::<Vec<_>>(),
            );
            for kind in [
                GateKind::And,
                GateKind::Nand,
                GateKind::Or,
                GateKind::Nor,
                GateKind::Xor,
                GateKind::Xnor,
            ] {
                let packed = eval_gate_packed(kind, &[a, b, c]);
                assert_canonical(packed);
                for k in 0..64 {
                    let expect = eval_gate(kind, &[va, b.lane(k), c.lane(k)]);
                    assert_eq!(
                        packed.lane(k),
                        expect,
                        "{kind}({va}, {}, {})",
                        b.lane(k),
                        c.lane(k)
                    );
                }
            }
        }
    }

    #[test]
    fn buf_passes_through() {
        let a = PackedWave::splat(DelayValue::Rc);
        assert_eq!(eval_gate_packed(GateKind::Buf, &[a]), a);
    }
}
