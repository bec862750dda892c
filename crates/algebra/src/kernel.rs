//! The set implication kernel both algebras run: a gate's forward image
//! and backward narrowing as word operations on its value sets' bitmasks.
//!
//! For each core op (AND, OR, XOR) an algebra keeps one `u64` per set
//! `B`, built once from its scalar two-value gate function: byte `v` is
//! the image of value `v` against every value of `B`. The delay algebra
//! fills all eight byte lanes, the static one the low four. Then
//!
//! * the image of `A × B` is the word of `B` masked to `A`'s bytes and
//!   OR-folded to one byte;
//! * the values of an input that reach a target against the fold of the
//!   other inputs are the bytes of that fold's word that meet the target
//!   (broadcast to every byte), gathered into one bit each.
//!
//! [`narrow`] folds each input's others from prefix and suffix folds, so
//! a gate costs O(arity) images. The non-robust delay model folds richer
//! states through the same images ([`Fold`]).

use crate::search::ValueSet;
use gdf_netlist::GateKind;

/// The associative, commutative core ops the gate kinds reduce to, as
/// the kinds that compute them.
pub(crate) const CORE_OPS: [GateKind; 3] = [GateKind::And, GateKind::Or, GateKind::Xor];

/// The core op of a gate kind (its index in [`CORE_OPS`]) and whether the
/// gate inverts it. BUF and NOT are one-input AND and NAND.
///
/// # Panics
///
/// Panics if `kind` is `Input` or `Dff`.
pub(crate) fn core_op(kind: GateKind) -> (usize, bool) {
    match kind {
        GateKind::Buf | GateKind::And => (0, false),
        GateKind::Not | GateKind::Nand => (0, true),
        GateKind::Or => (1, false),
        GateKind::Nor => (1, true),
        GateKind::Xor => (2, false),
        GateKind::Xnor => (2, true),
        GateKind::Input | GateKind::Dff => {
            panic!("set implication of non-combinational kind {kind:?}")
        }
    }
}

/// The set inverter of both algebras: each value's inverse sits in the
/// other bit of its pair (`0↔1`, `R↔F`, `0h↔1h`, `Rc↔Fc`; `D↔D̄`).
pub(crate) fn not_bits(s: u8) -> u8 {
    (s & 0x55) << 1 | (s >> 1) & 0x55
}

/// Byte `v` of `BYTE_MASK[A]` is `0xFF` iff value `v` is in `A`.
static BYTE_MASK: [u64; 256] = {
    let mut masks = [0u64; 256];
    let mut set = 0;
    while set < 256 {
        let mut v = 0;
        while v < 8 {
            if set >> v & 1 == 1 {
                masks[set] |= 0xFF << (8 * v);
            }
            v += 1;
        }
        set += 1;
    }
    masks
};

/// A byte in every lane.
const LANES: u64 = 0x0101_0101_0101_0101;

/// The low seven bits of every byte.
const LOW7: u64 = 0x7F * LANES;

/// Bit `v` set iff byte `v` of `w` is non-zero. The `w |` term keeps a
/// byte that holds only its top bit (value 7, `Fc`); the multiply moves
/// the top bit of byte `v` to bit `56 + v`, and no two of its terms meet.
fn nonzero_bytes(w: u64) -> u8 {
    let top = (w | ((w & LOW7) + LOW7)) & !LOW7;
    (top.wrapping_mul(0x0002_0408_1020_4081) >> 56) as u8
}

/// The word tables of an algebra whose sets have `N` bitmasks (`N` is
/// `1 << values`).
#[derive(Debug)]
pub(crate) struct Tables<const N: usize> {
    /// Per core op, byte `v` of `words[op][B]` is the image of value `v`
    /// against set `B`.
    words: [[u64; N]; 3],
    /// Per core op, its identity value as a set.
    units: [u8; 3],
}

impl<const N: usize> Tables<N> {
    /// Builds the tables from the algebra's scalar two-input gate on
    /// value indices, which stays the only definition of the algebra.
    ///
    /// # Panics
    ///
    /// Panics if a core op has no identity value.
    pub(crate) fn build(eval2: impl Fn(GateKind, u8, u8) -> u8) -> Self {
        let values = N.trailing_zeros() as u8;
        let mut words = [[0u64; N]; 3];
        let mut units = [0u8; 3];
        for (kind, (words, unit)) in CORE_OPS.into_iter().zip(words.iter_mut().zip(&mut units)) {
            // A set's word is the word of the set without its lowest
            // value, plus that value's column.
            for set in 1..N {
                let low = set.trailing_zeros() as u8;
                let column = (0..values).fold(0u64, |w, v| w | 1 << (8 * v + eval2(kind, v, low)));
                words[set] = words[set & (set - 1)] | column;
            }
            let identity = (0..values)
                .find(|&e| (0..values).all(|v| eval2(kind, v, e) == v))
                .expect("every core op has an identity value");
            *unit = 1 << identity;
        }
        Tables { words, units }
    }

    /// The core of a gate kind ([`core_op`]).
    pub(crate) fn core(&'static self, kind: GateKind) -> Core {
        let (op, inverted) = core_op(kind);
        Core {
            words: &self.words[op],
            unit: self.units[op],
            inverted,
        }
    }
}

/// What [`image`] and [`narrow`] fold over a gate's inputs: the value
/// sets of one core op ([`Core`]), or the non-robust delay model's
/// richer states.
pub(crate) trait Fold: Copy {
    /// The fold of a group of inputs.
    type State: Copy;
    /// The state of one input set.
    fn state(self, set: u8) -> Self::State;
    /// The state of two disjoint groups of inputs together.
    fn join(self, a: Self::State, b: Self::State) -> Self::State;
    /// The state of no input, which every join leaves unchanged.
    fn unit(self) -> Self::State;
    /// The gate's output values over a state.
    fn output(self, state: Self::State) -> u8;

    /// The values of `own` that give an output in `target` against some
    /// values of the other inputs, whose fold is `others`.
    fn survivors(self, others: Self::State, own: u8, target: u8) -> u8 {
        (0..8)
            .filter(|&v| own >> v & 1 == 1)
            .filter(|&v| self.output(self.join(self.state(1 << v), others)) & target != 0)
            .fold(0, |keep, v| keep | 1 << v)
    }
}

/// One core op of an algebra, as the gate kind reading it sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Core {
    /// Byte `v` of `words[B]` is the image of value `v` against set `B`.
    words: &'static [u64],
    /// The op's identity value as a set.
    unit: u8,
    /// Whether the gate inverts the op's output.
    inverted: bool,
}

impl Fold for Core {
    type State = u8;

    #[inline]
    fn state(self, set: u8) -> u8 {
        set
    }

    /// The image `{op(a, b) : a ∈ A, b ∈ B}`: the word of `B` masked to
    /// `A`'s bytes, OR-folded.
    #[inline]
    fn join(self, a: u8, b: u8) -> u8 {
        let w = self.words[b as usize] & BYTE_MASK[a as usize];
        let w = w | w >> 32;
        let w = w | w >> 16;
        (w | w >> 8) as u8
    }

    #[inline]
    fn unit(self) -> u8 {
        self.unit
    }

    #[inline]
    fn output(self, state: u8) -> u8 {
        if self.inverted {
            not_bits(state)
        } else {
            state
        }
    }

    #[inline]
    fn survivors(self, others: u8, own: u8, target: u8) -> u8 {
        let target = self.output(target);
        nonzero_bytes(self.words[others as usize] & (u64::from(target) * LANES)) & own
    }
}

/// The forward image of a gate over its input sets.
pub(crate) fn image<F: Fold, S: ValueSet>(f: F, ins: &[S]) -> S {
    let first = f.state(ins[0].bits());
    let fold = ins[1..]
        .iter()
        .fold(first, |acc, s| f.join(acc, f.state(s.bits())));
    S::from_bits(f.output(fold))
}

/// Backward implication: cuts each input to the values that give an
/// output in `out` against some values of the other inputs (as given),
/// and `out` to what the inputs give. Returns whether any set changed.
pub(crate) fn narrow<F: Fold, S: ValueSet>(f: F, out: &mut S, ins: &mut [S]) -> bool {
    debug_assert!(!ins.is_empty());
    let target = out.bits();
    let mut changed = false;
    let produced = if let [a, b] = ins {
        let (sa, sb) = (f.state(a.bits()), f.state(b.bits()));
        changed |= cut(a, f.survivors(sb, a.bits(), target));
        changed |= cut(b, f.survivors(sa, b.bits(), target));
        f.join(sa, sb)
    } else {
        // Each input meets the fold of the inputs before it and the fold
        // of those after it. The latter are folded a chunk at a time on
        // the stack, so a gate of any width allocates nothing.
        const CHUNK: usize = 8;
        let mut after = [f.unit(); CHUNK];
        let mut before = f.unit();
        for lo in (0..ins.len()).step_by(CHUNK) {
            let hi = ins.len().min(lo + CHUNK);
            let mut suffix = ins[hi..]
                .iter()
                .fold(f.unit(), |acc, s| f.join(acc, f.state(s.bits())));
            for j in (lo..hi).rev() {
                after[j - lo] = suffix;
                suffix = f.join(f.state(ins[j].bits()), suffix);
            }
            for j in lo..hi {
                let own = ins[j].bits();
                let keep = f.survivors(f.join(before, after[j - lo]), own, target);
                before = f.join(before, f.state(own));
                changed |= cut(&mut ins[j], keep);
            }
        }
        before
    };
    changed | cut(out, target & f.output(produced))
}

/// Sets `set` to `keep`; returns whether that changed it.
#[inline]
fn cut<S: ValueSet>(set: &mut S, keep: u8) -> bool {
    let changed = keep != set.bits();
    *set = S::from_bits(keep);
    changed
}
