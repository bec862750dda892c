//! Exhaustive oracle for the set-level gate algebra.
//!
//! `eval_gate_sets`, `narrow_inputs` and the set inverter of both algebras
//! are checked against brute-force enumeration through the scalar
//! `eval_gate` (Tables 1/2 for the delay algebra, the component-wise
//! D-calculus for the static one), which stays the single definition of
//! each algebra; so are the non-robust set functions of the delay
//! algebra, against the scalar `eval_gate_nonrobust`:
//!
//! * every pair of 2-input sets, all six multi-input gate kinds;
//! * every singleton against every set on either pin of a 2-input gate,
//!   against every target, all six kinds: the narrowing keeps or drops
//!   each value on its own, so this checks every value's support in
//!   every context;
//! * every 1-input set for BUF and NOT;
//! * seeded 1-, 3- and 4-input cases with arbitrary targets (1 to 5
//!   inputs for the non-robust functions), and seeded 2- to 9-input and
//!   17-input cases over small sets, past the kernel's 2-input path and
//!   across its chunks of suffix folds;
//! * every set under `not()`.
//!
//! The brute force never folds or reuses a set image: it enumerates the
//! Cartesian product of the input sets value by value.

use gdf_algebra::delay::{self, DelaySet, DelayValue};
use gdf_algebra::static5::{self, StaticSet, StaticValue};
use gdf_netlist::GateKind;

const MULTI_INPUT: [GateKind; 6] = [
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
];

/// Largest arity the oracle drives (fixed-size conversion buffers).
const MAX_ARITY: usize = 17;

/// One algebra seen through raw bitmasks: value `i` is bit `i` of a set.
struct Algebra {
    name: &'static str,
    /// Number of values (8 for the delay algebra, 4 for the static one).
    values: u8,
    /// Scalar evaluation over value indices — the reference.
    scalar: fn(GateKind, &[u8]) -> u8,
    /// Set-level forward image under test.
    image: fn(GateKind, &[u8]) -> u8,
    /// Set-level backward narrowing under test.
    narrow: fn(GateKind, &mut u8, &mut [u8]) -> bool,
    /// Set inverter under test.
    not_set: fn(u8) -> u8,
    /// Scalar inverter over value indices — the reference.
    not_value: fn(u8) -> u8,
    /// Output targets the exhaustive 2-input narrowing is checked against.
    targets: Vec<u8>,
}

impl Algebra {
    fn full(&self) -> u8 {
        ((1u16 << self.values) - 1) as u8
    }
}

fn delay_algebra() -> Algebra {
    let mut targets: Vec<u8> = (0..8).map(|i| 1u8 << i).collect();
    targets.extend(
        [
            DelaySet::ALL,
            DelaySet::CLEAN,
            DelaySet::CARRYING,
            DelaySet::HAZARD_FREE,
        ]
        .map(DelaySet::bits),
    );
    Algebra {
        name: "delay",
        values: 8,
        scalar: |kind, vals| {
            let mut v = [DelayValue::S0; MAX_ARITY];
            for (slot, &i) in v.iter_mut().zip(vals) {
                *slot = DelayValue::from_index(i);
            }
            delay::eval_gate(kind, &v[..vals.len()]).index()
        },
        image: |kind, ins| {
            let mut s = [DelaySet::EMPTY; MAX_ARITY];
            for (slot, &b) in s.iter_mut().zip(ins) {
                *slot = DelaySet::from_bits(b);
            }
            delay::eval_gate_sets(kind, &s[..ins.len()]).bits()
        },
        narrow: |kind, out, ins| {
            let mut s = [DelaySet::EMPTY; MAX_ARITY];
            for (slot, &b) in s.iter_mut().zip(ins.iter()) {
                *slot = DelaySet::from_bits(b);
            }
            let mut o = DelaySet::from_bits(*out);
            let changed = delay::narrow_inputs(kind, &mut o, &mut s[..ins.len()]);
            *out = o.bits();
            for (b, slot) in ins.iter_mut().zip(s) {
                *b = slot.bits();
            }
            changed
        },
        not_set: |b| DelaySet::from_bits(b).not().bits(),
        not_value: |i| DelayValue::from_index(i).not().index(),
        targets,
    }
}

/// The delay algebra under the non-robust model: the same values, sets
/// and inverter, with `eval_gate_nonrobust` as the scalar reference. Its
/// exhaustive narrowing runs against the targets where the two models
/// differ (the fault-carrying values) plus the clean and full sets.
fn nonrobust_algebra() -> Algebra {
    let targets = [
        DelaySet::singleton(DelayValue::Rc),
        DelaySet::singleton(DelayValue::Fc),
    ]
    .into_iter()
    .chain([DelaySet::CARRYING, DelaySet::CLEAN, DelaySet::ALL])
    .map(DelaySet::bits)
    .collect();
    Algebra {
        name: "delay non-robust",
        targets,
        scalar: |kind, vals| {
            let mut v = [DelayValue::S0; MAX_ARITY];
            for (slot, &i) in v.iter_mut().zip(vals) {
                *slot = DelayValue::from_index(i);
            }
            delay::eval_gate_nonrobust(kind, &v[..vals.len()]).index()
        },
        image: |kind, ins| {
            let mut s = [DelaySet::EMPTY; MAX_ARITY];
            for (slot, &b) in s.iter_mut().zip(ins) {
                *slot = DelaySet::from_bits(b);
            }
            delay::eval_gate_sets_nonrobust(kind, &s[..ins.len()]).bits()
        },
        narrow: |kind, out, ins| {
            let mut s = [DelaySet::EMPTY; MAX_ARITY];
            for (slot, &b) in s.iter_mut().zip(ins.iter()) {
                *slot = DelaySet::from_bits(b);
            }
            let mut o = DelaySet::from_bits(*out);
            let changed = delay::narrow_inputs_nonrobust(kind, &mut o, &mut s[..ins.len()]);
            *out = o.bits();
            for (b, slot) in ins.iter_mut().zip(s) {
                *b = slot.bits();
            }
            changed
        },
        ..delay_algebra()
    }
}

fn static_algebra() -> Algebra {
    let mut targets: Vec<u8> = (0..4).map(|i| 1u8 << i).collect();
    targets.extend([StaticSet::ALL, StaticSet::GOOD, StaticSet::FAULT_EFFECT].map(StaticSet::bits));
    Algebra {
        name: "static5",
        values: 4,
        scalar: |kind, vals| {
            let mut v = [StaticValue::S0; MAX_ARITY];
            for (slot, &i) in v.iter_mut().zip(vals) {
                *slot = StaticValue::from_index(i);
            }
            static5::eval_gate(kind, &v[..vals.len()]).index()
        },
        image: |kind, ins| {
            let mut s = [StaticSet::EMPTY; MAX_ARITY];
            for (slot, &b) in s.iter_mut().zip(ins) {
                *slot = StaticSet::from_bits(b);
            }
            static5::eval_gate_sets(kind, &s[..ins.len()]).bits()
        },
        narrow: |kind, out, ins| {
            let mut s = [StaticSet::EMPTY; MAX_ARITY];
            for (slot, &b) in s.iter_mut().zip(ins.iter()) {
                *slot = StaticSet::from_bits(b);
            }
            let mut o = StaticSet::from_bits(*out);
            let changed = static5::narrow_inputs(kind, &mut o, &mut s[..ins.len()]);
            *out = o.bits();
            for (b, slot) in ins.iter_mut().zip(s) {
                *b = slot.bits();
            }
            changed
        },
        not_set: |b| StaticSet::from_bits(b).not().bits(),
        not_value: |i| StaticValue::from_index(i).not().index(),
        targets,
    }
}

/// Brute force over the Cartesian product of `ins`: the image, and per
/// input the values some completion maps into `target`.
fn enumerate(alg: &Algebra, kind: GateKind, ins: &[u8], target: u8) -> (u8, [u8; MAX_ARITY]) {
    let n = ins.len();
    let mut image = 0u8;
    let mut keep = [0u8; MAX_ARITY];
    if ins.contains(&0) {
        return (image, keep);
    }
    // Odometer over the value indices of each input set.
    let members: Vec<Vec<u8>> = ins
        .iter()
        .map(|&s| (0..alg.values).filter(|&v| s >> v & 1 == 1).collect())
        .collect();
    let mut pos = vec![0usize; n];
    let mut combo = vec![0u8; n];
    loop {
        for i in 0..n {
            combo[i] = members[i][pos[i]];
        }
        let out = (alg.scalar)(kind, &combo);
        image |= 1 << out;
        if target >> out & 1 == 1 {
            for i in 0..n {
                keep[i] |= 1 << combo[i];
            }
        }
        let mut i = 0;
        loop {
            if i == n {
                return (image, keep);
            }
            pos[i] += 1;
            if pos[i] < members[i].len() {
                break;
            }
            pos[i] = 0;
            i += 1;
        }
    }
}

/// Runs `narrow` on copies and checks it against the brute force.
fn check_narrow(alg: &Algebra, kind: GateKind, ins: &[u8], target: u8) {
    let (image, keep) = enumerate(alg, kind, ins, target);
    check_narrow_against(alg, kind, ins, target, image, &keep[..ins.len()]);
}

fn check_narrow_against(
    alg: &Algebra,
    kind: GateKind,
    ins: &[u8],
    target: u8,
    image: u8,
    keep: &[u8],
) {
    let mut got = [0u8; MAX_ARITY];
    got[..ins.len()].copy_from_slice(ins);
    let mut out = target;
    let changed = (alg.narrow)(kind, &mut out, &mut got[..ins.len()]);
    let want_out = target & image;
    assert_eq!(
        &got[..ins.len()],
        keep,
        "{} {kind} narrow ins {ins:02x?} target {target:02x}",
        alg.name
    );
    assert_eq!(
        out, want_out,
        "{} {kind} narrow out, ins {ins:02x?} target {target:02x}",
        alg.name
    );
    let want_changed = keep != ins || want_out != target;
    assert_eq!(
        changed, want_changed,
        "{} {kind} changed flag, ins {ins:02x?} target {target:02x}",
        alg.name
    );
}

/// Every 2-input set pair, every multi-input kind: the forward image and
/// the narrowing against every target of the algebra's list.
fn exhaustive_pairs(alg: &Algebra) {
    let full = alg.full() as usize;
    let v = alg.values as usize;
    for kind in MULTI_INPUT {
        // The scalar table, read once per kind.
        let mut table = [[0u8; 8]; 8];
        for (a, row) in table.iter_mut().enumerate().take(v) {
            for (b, cell) in row.iter_mut().enumerate().take(v) {
                *cell = (alg.scalar)(kind, &[a as u8, b as u8]);
            }
        }
        for sa in 0..=full {
            for sb in 0..=full {
                // Per value of each input: the outputs it can reach against
                // the whole other set. Computed once per pair, then reused
                // for every target.
                let mut reach_a = [0u8; 8];
                let mut reach_b = [0u8; 8];
                for a in (0..v).filter(|&a| sa >> a & 1 == 1) {
                    for b in (0..v).filter(|&b| sb >> b & 1 == 1) {
                        let out = 1u8 << table[a][b];
                        reach_a[a] |= out;
                        reach_b[b] |= out;
                    }
                }
                let image = reach_a.iter().fold(0, |acc, &r| acc | r);
                let ins = [sa as u8, sb as u8];
                assert_eq!(
                    (alg.image)(kind, &ins),
                    image,
                    "{} {kind} image of {ins:02x?}",
                    alg.name
                );
                for &target in &alg.targets {
                    let keep_of = |reach: &[u8; 8]| {
                        (0..v)
                            .filter(|&x| reach[x] & target != 0)
                            .fold(0u8, |acc, x| acc | 1 << x)
                    };
                    let keep = [keep_of(&reach_a), keep_of(&reach_b)];
                    check_narrow_against(alg, kind, &ins, target, image, &keep);
                }
            }
        }
    }
}

/// BUF and NOT over every 1-input set and every target.
fn exhaustive_single_input(alg: &Algebra) {
    for kind in [GateKind::Buf, GateKind::Not] {
        for s in 0..=alg.full() {
            let (image, _) = enumerate(alg, kind, &[s], 0);
            assert_eq!(
                (alg.image)(kind, &[s]),
                image,
                "{} {kind} {s:02x}",
                alg.name
            );
            for &target in &alg.targets {
                check_narrow(alg, kind, &[s], target);
            }
        }
    }
}

/// SplitMix64: a fixed, dependency-free stream for the seeded cases.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Every singleton `{a}` against every set `B`, on pin 0 and on pin 1 of
/// every multi-input kind, narrowed against every target.
fn exhaustive_singletons(alg: &Algebra) {
    let full = alg.full();
    let v = alg.values;
    for kind in MULTI_INPUT {
        for a in 0..v {
            // `row[b]`: the output of `a` against value `b`.
            let row: Vec<u8> = (0..v).map(|b| (alg.scalar)(kind, &[a, b])).collect();
            for set in 0..=full {
                let image = (0..v)
                    .filter(|&b| set >> b & 1 == 1)
                    .fold(0u8, |acc, b| acc | 1 << row[b as usize]);
                for target in 0..=full {
                    let set_keep = (0..v)
                        .filter(|&b| set >> b & 1 == 1 && target >> row[b as usize] & 1 == 1)
                        .fold(0u8, |acc, b| acc | 1 << b);
                    let own_keep = if set_keep == 0 { 0 } else { 1 << a };
                    let single = 1u8 << a;
                    let (ins, keep) = ([single, set], [own_keep, set_keep]);
                    check_narrow_against(alg, kind, &ins, target, image, &keep);
                    let (ins, keep) = ([set, single], [set_keep, own_keep]);
                    check_narrow_against(alg, kind, &ins, target, image, &keep);
                }
            }
        }
    }
}

/// Seeded cases of the given arities (including arity-1 core gates)
/// against full enumeration, with arbitrary targets. Each input set is
/// arbitrary, or with `small` a union of two random values, so that wide
/// gates keep their Cartesian product small; an empty one now and then.
fn seeded_wide(alg: &Algebra, seed: u64, cases: usize, arities: &[usize], small: bool) {
    let mut rng = SplitMix(seed);
    let full = alg.full();
    for _ in 0..cases {
        let r = rng.next();
        let kind = MULTI_INPUT[(r % 6) as usize];
        let n = arities[((r >> 8) % arities.len() as u64) as usize];
        let mut ins = [0u8; MAX_ARITY];
        for s in ins.iter_mut().take(n) {
            let bits = rng.next();
            *s = if bits.is_multiple_of(16) {
                0
            } else if small {
                let values = u64::from(alg.values);
                1 << ((bits >> 8) % values) | 1 << ((bits >> 16) % values)
            } else {
                (bits >> 8) as u8 & full
            };
        }
        let target = rng.next() as u8 & full;
        let ins = &ins[..n];
        let (image, keep) = enumerate(alg, kind, ins, target);
        assert_eq!(
            (alg.image)(kind, ins),
            image,
            "{} {kind} image of {ins:02x?}",
            alg.name
        );
        check_narrow_against(alg, kind, ins, target, image, &keep[..n]);
    }
}

/// The set inverter equals the scalar inverter applied value by value.
fn inverter_on_every_set(alg: &Algebra) {
    for s in 0..=alg.full() {
        let want = (0..alg.values)
            .filter(|&v| s >> v & 1 == 1)
            .fold(0u8, |acc, v| acc | 1 << (alg.not_value)(v));
        assert_eq!((alg.not_set)(s), want, "{} not({s:02x})", alg.name);
    }
}

#[test]
fn delay_pairs_match_enumeration() {
    exhaustive_pairs(&delay_algebra());
}

#[test]
fn static_pairs_match_enumeration() {
    exhaustive_pairs(&static_algebra());
}

#[test]
fn single_input_kinds_match_enumeration() {
    exhaustive_single_input(&delay_algebra());
    exhaustive_single_input(&static_algebra());
}

#[test]
fn singletons_against_every_set_and_target() {
    exhaustive_singletons(&delay_algebra());
    exhaustive_singletons(&static_algebra());
}

#[test]
fn delay_wide_gates_match_enumeration() {
    seeded_wide(&delay_algebra(), 1995, 3000, &[1, 3, 4], false);
    seeded_wide(
        &delay_algebra(),
        27,
        3000,
        &[2, 3, 4, 5, 6, 7, 8, 9, 17],
        true,
    );
}

#[test]
fn static_wide_gates_match_enumeration() {
    seeded_wide(&static_algebra(), 1995, 3000, &[1, 3, 4], false);
    seeded_wide(
        &static_algebra(),
        27,
        3000,
        &[2, 3, 4, 5, 6, 7, 8, 9, 17],
        true,
    );
}

#[test]
fn nonrobust_pairs_match_enumeration() {
    exhaustive_pairs(&nonrobust_algebra());
    exhaustive_single_input(&nonrobust_algebra());
}

#[test]
fn nonrobust_wide_gates_match_enumeration() {
    seeded_wide(&nonrobust_algebra(), 1995, 2000, &[1, 2, 3, 4, 5], false);
    seeded_wide(
        &nonrobust_algebra(),
        27,
        2000,
        &[2, 3, 4, 5, 6, 7, 8, 9, 17],
        true,
    );
}

#[test]
fn set_inverter_matches_value_inverter() {
    inverter_on_every_set(&delay_algebra());
    inverter_on_every_set(&static_algebra());
}
