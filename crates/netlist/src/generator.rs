//! Deterministic synthetic sequential-circuit generator.
//!
//! The original ISCAS'89 netlists were distributed on tape at ISCAS 1989 and
//! are not reproducible from the paper itself (only `s27` is printed in full
//! in the literature; see [`crate::suite::s27`]). To exercise the ATPG on
//! circuits of the same scale, this module generates *profile-matched*
//! synthetic circuits: the PI/PO/FF/gate counts follow the published
//! statistics of each benchmark, the gate-type mix follows the typical
//! ISCAS'89 distribution (inverter-heavy, NAND/NOR dominated, no XOR), and
//! fanin selection is recency-biased so that realistic logic depth and
//! reconvergent fanout emerge. Generation is fully deterministic in the
//! profile seed.
//!
//! Also provided are small *structured* generators (shift register, modulo
//! counter) used by the examples and tests, where a known structure makes
//! expected ATPG behaviour easy to reason about.

use crate::circuit::{Circuit, CircuitBuilder, NodeId};
use crate::fault::FaultSite;
use crate::gate::GateKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Target shape of a synthetic circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitProfile {
    /// Circuit name (the generated circuit is named `<name>`).
    pub name: String,
    /// Number of primary inputs.
    pub num_pi: usize,
    /// Number of primary outputs.
    pub num_po: usize,
    /// Number of D flip-flops.
    pub num_dff: usize,
    /// Number of combinational gates.
    pub num_gates: usize,
    /// RNG seed; two generations with the same profile are identical.
    pub seed: u64,
}

impl CircuitProfile {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        num_pi: usize,
        num_po: usize,
        num_dff: usize,
        num_gates: usize,
        seed: u64,
    ) -> Self {
        CircuitProfile {
            name: name.into(),
            num_pi,
            num_po,
            num_dff,
            num_gates,
            seed,
        }
    }
}

/// Weighted ISCAS'89-like gate mix (kept for documentation/reference; the
/// generator now balances kinds by signal probability instead).
#[allow(dead_code)]
const GATE_MIX: &[(GateKind, u32)] = &[
    (GateKind::Not, 22),
    (GateKind::Buf, 4),
    (GateKind::Nand, 26),
    (GateKind::And, 18),
    (GateKind::Nor, 16),
    (GateKind::Or, 14),
];

/// Fraction of flip-flops that get an explicit load/hold update structure
/// (`d = (load ∧ data) ∨ (¬load ∧ q)`), as real sequential benchmarks do —
/// this is what makes their state controllable and their latched fault
/// effects propagatable.
const HOLD_FRACTION: f64 = 0.8;

/// Generates a synthetic sequential circuit matching `profile`.
///
/// Guarantees:
/// * exactly `num_pi` PIs, `num_dff` DFFs and `num_gates` gates;
/// * at least `num_po` POs (a handful of extra POs may be added to keep
///   every gate observable — dangling logic would distort fault statistics);
/// * the combinational block is acyclic (sequential feedback only through
///   flip-flops);
/// * deterministic in `profile.seed`.
///
/// # Panics
///
/// Panics if the profile has no inputs or no gates.
///
/// # Example
///
/// ```
/// use gdf_netlist::generator::{generate, CircuitProfile};
///
/// let p = CircuitProfile::new("demo", 4, 2, 3, 30, 42);
/// let c = generate(&p);
/// assert_eq!(c.num_inputs(), 4);
/// assert_eq!(c.num_dffs(), 3);
/// assert_eq!(c.num_gates(), 30);
/// assert!(c.num_outputs() >= 2);
/// ```
pub fn generate(profile: &CircuitProfile) -> Circuit {
    assert!(profile.num_pi > 0, "profile needs at least one PI");
    assert!(profile.num_gates > 0, "profile needs at least one gate");
    let mut rng = StdRng::seed_from_u64(profile.seed);

    let n_src = profile.num_pi + profile.num_dff;
    let n_sig = n_src + profile.num_gates;
    // Reserve gates for load/hold state-update structures: one shared
    // inverter plus three gates per held flip-flop, budget permitting.
    let mut held: Vec<usize> = Vec::new();
    let want_held = ((profile.num_dff as f64) * HOLD_FRACTION).round() as usize;
    let hold_budget = if profile.num_gates > 8 && profile.num_dff > 0 {
        let affordable = (profile.num_gates.saturating_sub(4)) / 6; // keep ≥ half random
        want_held.min(affordable)
    } else {
        0
    };
    for i in 0..hold_budget {
        held.push(i * profile.num_dff / hold_budget.max(1));
    }
    held.dedup();
    let hold_gates = if held.is_empty() {
        0
    } else {
        1 + 3 * held.len()
    };
    // A synchronous reset (one AND per flip-flop plus a shared inverter),
    // budget permitting: like most real controllers, and without it almost
    // nothing is synchronizable from the unknown power-up state.
    let reset_gates = if profile.num_dff > 0
        && profile.num_gates > hold_gates + profile.num_dff + 1 + profile.num_dff
    {
        profile.num_dff + 1
    } else {
        0
    };
    let random_gates = profile.num_gates - hold_gates - reset_gates;

    // Plan: per gate, kind and fanin signal indices (all < its own index).
    let mut kinds: Vec<GateKind> = Vec::with_capacity(profile.num_gates);
    let mut fanins: Vec<Vec<usize>> = Vec::with_capacity(profile.num_gates);

    // Per-signal estimated probability of being 1 (independence
    // approximation). Picking the gate kind that keeps this near 0.5
    // prevents deep random logic from saturating to constants — real
    // benchmark logic stays active, and an ATPG run over half-constant
    // nets would measure nothing but redundancies.
    let mut prob: Vec<f64> = vec![0.5; n_src];
    for g in 0..random_gates {
        let sig_index = n_src + g;
        // Real ISCAS'89 circuits are dominated by 1–2 input gates.
        let r: f64 = rng.gen();
        let arity = if r < 0.24 {
            1
        } else if r < 0.82 {
            2
        } else if r < 0.95 {
            3
        } else {
            4
        };
        let mut fi: Vec<usize> = Vec::with_capacity(arity);
        let mut guard = 0;
        while fi.len() < arity && guard < 1000 {
            guard += 1;
            let cand = pick_source(&mut rng, sig_index);
            if !fi.contains(&cand) {
                fi.push(cand);
            }
        }
        if fi.is_empty() {
            fi.push(rng.gen_range(0..sig_index.max(1)));
        }
        let kind = if fi.len() == 1 {
            if rng.gen_bool(0.85) {
                GateKind::Not
            } else {
                GateKind::Buf
            }
        } else {
            // Choose among AND/NAND/OR/NOR, weighted toward keeping the
            // output probability near one half.
            let p_and: f64 = fi.iter().map(|&s| prob[s]).product();
            let p_or: f64 = 1.0 - fi.iter().map(|&s| 1.0 - prob[s]).product::<f64>();
            let cands = [
                (GateKind::And, p_and),
                (GateKind::Nand, 1.0 - p_and),
                (GateKind::Or, p_or),
                (GateKind::Nor, 1.0 - p_or),
            ];
            let weights: Vec<f64> = cands
                .iter()
                .map(|&(_, p)| (-((p - 0.5) * (p - 0.5)) / 0.08).exp() + 1e-3)
                .collect();
            let total: f64 = weights.iter().sum();
            let mut pick = rng.gen::<f64>() * total;
            let mut chosen = cands[0];
            for (c, w) in cands.iter().zip(&weights) {
                if pick < *w {
                    chosen = *c;
                    break;
                }
                pick -= *w;
            }
            chosen.0
        };
        let p_out = match kind {
            GateKind::Not => 1.0 - prob[fi[0]],
            GateKind::Buf => prob[fi[0]],
            GateKind::And => fi.iter().map(|&s| prob[s]).product(),
            GateKind::Nand => 1.0 - fi.iter().map(|&s| prob[s]).product::<f64>(),
            GateKind::Or => 1.0 - fi.iter().map(|&s| 1.0 - prob[s]).product::<f64>(),
            GateKind::Nor => fi.iter().map(|&s| 1.0 - prob[s]).product(),
            _ => 0.5,
        };
        prob.push(p_out);
        kinds.push(kind);
        fanins.push(fi);
    }
    // Hold structures below reference `prob` only implicitly; extend it so
    // indexes stay aligned for potential future use.
    while prob.len() < n_sig {
        prob.push(0.5);
    }

    // Load/hold structures after the random logic: for each held flip-flop
    // `d = (load ∧ data) ∨ (¬load ∧ q)` with a shared load inverter. The
    // load signal is the first PI, `data` a random logic signal.
    let mut hold_d: Vec<(usize, usize)> = Vec::new(); // (dff, d signal)
    if !held.is_empty() {
        let n_random = n_src + random_gates;
        let load = 0usize; // PI 0 doubles as the shared load control
        kinds.push(GateKind::Not);
        fanins.push(vec![load]);
        let nload = n_random;
        for (k, &dff) in held.iter().enumerate() {
            let data = rng
                .gen_range(n_src..n_random.max(n_src + 1))
                .min(n_random - 1);
            let q = profile.num_pi + dff;
            let a = n_random + 1 + 3 * k;
            kinds.push(GateKind::And);
            fanins.push(vec![load, data]);
            kinds.push(GateKind::And);
            fanins.push(vec![nload, q]);
            kinds.push(GateKind::Or);
            fanins.push(vec![a, a + 1]);
            hold_d.push((dff, a + 2));
        }
    }
    // DFF D inputs: held flip-flops use their hold structure, the rest
    // prefer distinct late random gates.
    let mut dff_d: Vec<usize> = Vec::with_capacity(profile.num_dff);
    for i in 0..profile.num_dff {
        if let Some(&(_, d)) = hold_d.iter().find(|&&(dff, _)| dff == i) {
            dff_d.push(d);
            continue;
        }
        let hi = n_src + random_gates;
        let lo = n_src + random_gates / 2;
        let cand = rng.gen_range(lo..hi.max(lo + 1)).min(hi - 1);
        dff_d.push(cand);
    }

    // Reset wrapping: d_i := d_i ∧ ¬rst, with the last PI as reset.
    if reset_gates > 0 {
        let rst = profile.num_pi - 1;
        let nrst = n_src + kinds.len();
        kinds.push(GateKind::Not);
        fanins.push(vec![rst]);
        for d in dff_d.iter_mut() {
            let wrapped = n_src + kinds.len();
            kinds.push(GateKind::And);
            fanins.push(vec![*d, nrst]);
            *d = wrapped;
        }
    }
    debug_assert_eq!(kinds.len(), profile.num_gates);

    // Usage counts so far.
    let mut used = vec![0usize; n_sig];
    for fi in &fanins {
        for &s in fi {
            used[s] += 1;
        }
    }
    for &d in &dff_d {
        used[d] += 1;
    }

    // POs: prefer unused gates (latest first), then random late gates.
    let mut pos: Vec<usize> = Vec::new();
    let mut unused_gates: Vec<usize> = (n_src..n_sig).filter(|&s| used[s] == 0).collect();
    unused_gates.reverse();
    for _ in 0..profile.num_po {
        if let Some(u) = unused_gates.pop() {
            pos.push(u);
            used[u] += 1;
        } else {
            let cand = rng.gen_range(n_src + profile.num_gates / 2..n_sig);
            if !pos.contains(&cand) {
                pos.push(cand);
                used[cand] += 1;
            }
        }
    }

    // Keep every remaining signal observable: attach unused signals as extra
    // fanins of later variable-arity gates, or as extra POs when no later
    // gate exists.
    #[allow(clippy::needless_range_loop)] // `used` is re-indexed while iterating
    for s in 0..n_sig {
        if used[s] > 0 || (s >= profile.num_pi && s < n_src) {
            continue;
        }
        // PIs must be used too; gates as well.
        let mut attached = false;
        let first_gate = s.max(n_src).saturating_sub(n_src) + 1;
        for g in first_gate..profile.num_gates {
            let sig_index = n_src + g;
            if sig_index <= s {
                continue;
            }
            let k = kinds[g];
            if matches!(k, GateKind::Not | GateKind::Buf) || fanins[g].len() >= 4 {
                continue;
            }
            if fanins[g].contains(&s) {
                continue;
            }
            fanins[g].push(s);
            used[s] += 1;
            attached = true;
            break;
        }
        if !attached {
            pos.push(s);
            used[s] += 1;
        }
    }

    // Emit through the builder.
    let mut b = CircuitBuilder::new(profile.name.clone());
    let sig_name = |s: usize| -> String {
        if s < profile.num_pi {
            format!("pi{s}")
        } else if s < n_src {
            format!("q{}", s - profile.num_pi)
        } else {
            format!("g{}", s - n_src)
        }
    };
    for i in 0..profile.num_pi {
        b.add_input(sig_name(i));
    }
    for (i, &d) in dff_d.iter().enumerate() {
        b.add_dff(format!("q{i}"), sig_name(d));
    }
    for g in 0..profile.num_gates {
        let names: Vec<String> = fanins[g].iter().map(|&s| sig_name(s)).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        b.add_gate(sig_name(n_src + g), kinds[g], &refs);
    }
    for &p in &pos {
        b.mark_output(sig_name(p));
    }
    b.build()
        .expect("generated circuit is valid by construction")
}

fn pick_source(rng: &mut StdRng, available: usize) -> usize {
    debug_assert!(available > 0);
    // Recency bias: 65% of picks come from the most recent quarter of the
    // signal pool, which yields realistic logic depth; the rest are uniform,
    // which yields long-range reconvergent fanout.
    if available > 4 && rng.gen_bool(0.65) {
        let window = (available / 4).max(4).min(available);
        rng.gen_range(available - window..available)
    } else {
        rng.gen_range(0..available)
    }
}

/// Builds a small random sequential circuit from `seed`: 1–3 PIs, up to
/// two flip-flops and 3–9 gates of every kind. Its gates often read one
/// net on several pins, and a flip-flop may latch its own Q — the corner
/// cases of set implication and fault-site conversion that the profile
/// generator never draws. The last gate is the one PO.
pub fn random_tangle(seed: u64) -> Circuit {
    const KINDS: [GateKind; 8] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CircuitBuilder::new(format!("tangle{seed}"));
    let mut nets: Vec<String> = Vec::new();
    for i in 0..rng.gen_range(1..4usize) {
        b.add_input(format!("i{i}"));
        nets.push(format!("i{i}"));
    }
    let dffs = rng.gen_range(0..3usize);
    nets.extend((0..dffs).map(|i| format!("q{i}")));
    let gates = rng.gen_range(3..10usize);
    for g in 0..gates {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let arity = match kind {
            GateKind::Not | GateKind::Buf => 1,
            _ => rng.gen_range(1..4usize),
        };
        let mut fanin: Vec<&str> = Vec::with_capacity(arity);
        for _ in 0..arity {
            let net = if !fanin.is_empty() && rng.gen_bool(0.3) {
                fanin[rng.gen_range(0..fanin.len())]
            } else {
                &nets[rng.gen_range(0..nets.len())]
            };
            fanin.push(net);
        }
        b.add_gate(format!("g{g}"), kind, &fanin);
        nets.push(format!("g{g}"));
    }
    for i in 0..dffs {
        b.add_dff(format!("q{i}"), nets[rng.gen_range(0..nets.len())].clone());
    }
    b.mark_output(format!("g{}", gates - 1));
    b.build().expect("random tangle is valid by construction")
}

/// Draws a fault site of `c`: a stem, or one of its fanout branches — half
/// the time, when `c` has one, a pin of a gate that reads its stem on
/// another pin too.
pub fn random_site(c: &Circuit, rng: &mut StdRng) -> FaultSite {
    let branches: Vec<FaultSite> = (0..c.num_nodes() as u32)
        .map(NodeId)
        .flat_map(|stem| {
            let fanout = c.node(stem).fanout();
            fanout
                .iter()
                .map(move |&(sink, pin)| FaultSite::on_branch(stem, sink, pin))
        })
        .collect();
    let reads_twice = |site: &FaultSite| {
        let (sink, _) = site.branch.expect("branch site");
        let fanin = c.node(sink).fanin();
        fanin.iter().filter(|&&f| f == site.stem).count() > 1
    };
    let shared: Vec<FaultSite> = branches.iter().copied().filter(reads_twice).collect();
    let draw = rng.gen_range(0..4u32);
    if draw < 2 && !shared.is_empty() {
        shared[rng.gen_range(0..shared.len())]
    } else if draw < 3 && !branches.is_empty() {
        branches[rng.gen_range(0..branches.len())]
    } else {
        FaultSite::on_stem(NodeId(rng.gen_range(0..c.num_nodes() as u32)))
    }
}

/// Builds an `n`-bit shift register: `si -> q0 -> q1 -> ... -> q{n-1} -> so`,
/// with an enable input gating the shifted bit. Useful for reasoning about
/// synchronizing sequences (its state is fully controllable in `n` cycles).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn shift_register(n: usize) -> Circuit {
    assert!(n > 0, "shift register needs at least one stage");
    let mut b = CircuitBuilder::new(format!("shift{n}"));
    b.add_input("si");
    b.add_input("en");
    for i in 0..n {
        let prev = if i == 0 {
            "si".to_string()
        } else {
            format!("q{}", i - 1)
        };
        b.add_gate(format!("d{i}"), GateKind::And, &[prev.as_str(), "en"]);
        b.add_dff(format!("q{i}"), format!("d{i}"));
    }
    b.add_gate("so", GateKind::Buf, &[&format!("q{}", n - 1)]);
    b.mark_output("so");
    b.build().expect("shift register is valid by construction")
}

/// Builds an `n`-bit synchronous binary counter with a synchronous reset.
/// All state bits are synchronizable (apply reset for one cycle), making
/// this a friendly target for the initialization phase.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn counter(n: usize) -> Circuit {
    assert!(n > 0, "counter needs at least one bit");
    let mut b = CircuitBuilder::new(format!("count{n}"));
    b.add_input("rst");
    b.add_gate("nrst", GateKind::Not, &["rst"]);
    // carry0 = 1 (count enable hard-wired): toggle bit0 each cycle.
    for i in 0..n {
        b.add_dff(format!("q{i}"), format!("d{i}"));
    }
    for i in 0..n {
        let q = format!("q{i}");
        if i == 0 {
            b.add_gate("t0", GateKind::Not, &[q.as_str()]);
            b.add_gate("d0", GateKind::And, &["t0", "nrst"]);
        } else {
            let carry = format!("c{i}");
            if i == 1 {
                b.add_gate(&carry, GateKind::Buf, &["q0"]);
            } else {
                let prev_carry = format!("c{}", i - 1);
                let prev_q = format!("q{}", i - 1);
                b.add_gate(
                    &carry,
                    GateKind::And,
                    &[prev_carry.as_str(), prev_q.as_str()],
                );
            }
            b.add_gate(
                format!("t{i}"),
                GateKind::Xor,
                &[q.as_str(), carry.as_str()],
            );
            b.add_gate(format!("d{i}"), GateKind::And, &[&format!("t{i}"), "nrst"]);
        }
        b.mark_output(format!("d{i}"));
    }
    b.build().expect("counter is valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::to_bench;

    #[test]
    fn generation_is_deterministic() {
        let p = CircuitProfile::new("det", 6, 3, 4, 50, 7);
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(to_bench(&a), to_bench(&b));
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&CircuitProfile::new("s", 6, 3, 4, 50, 1));
        let b = generate(&CircuitProfile::new("s", 6, 3, 4, 50, 2));
        assert_ne!(to_bench(&a), to_bench(&b));
    }

    #[test]
    fn profile_counts_respected() {
        let p = CircuitProfile::new("cnt", 10, 4, 8, 120, 99);
        let c = generate(&p);
        assert_eq!(c.num_inputs(), 10);
        assert_eq!(c.num_dffs(), 8);
        assert_eq!(c.num_gates(), 120);
        assert!(c.num_outputs() >= 4);
    }

    #[test]
    fn every_gate_has_fanout_or_is_po() {
        let p = CircuitProfile::new("obs", 8, 3, 5, 80, 3);
        let c = generate(&p);
        for node in c.nodes() {
            if node.kind().is_combinational() {
                assert!(
                    !node.fanout().is_empty() || node.is_output(),
                    "gate {} is dangling",
                    node.name()
                );
            }
        }
    }

    #[test]
    fn all_pis_used() {
        let p = CircuitProfile::new("piu", 12, 3, 5, 60, 11);
        let c = generate(&p);
        for &pi in c.inputs() {
            assert!(
                !c.node(pi).fanout().is_empty() || c.node(pi).is_output(),
                "PI {} unused",
                c.node(pi).name()
            );
        }
    }

    #[test]
    fn has_reconvergent_fanout_at_scale() {
        let p = CircuitProfile::new("fan", 10, 4, 8, 200, 5);
        let c = generate(&p);
        assert!(c.stats().num_fanout_stems > 10);
    }

    #[test]
    fn depth_is_nontrivial() {
        let p = CircuitProfile::new("deep", 10, 4, 8, 200, 5);
        let c = generate(&p);
        assert!(c.max_level() >= 5, "depth {}", c.max_level());
    }

    #[test]
    fn shift_register_shape() {
        let c = shift_register(4);
        assert_eq!(c.num_dffs(), 4);
        assert_eq!(c.num_inputs(), 2);
        assert_eq!(c.num_outputs(), 1);
    }

    #[test]
    fn counter_shape() {
        let c = counter(3);
        assert_eq!(c.num_dffs(), 3);
        assert_eq!(c.num_outputs(), 3);
        assert_eq!(c.num_inputs(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_stage_shift_register_panics() {
        let _ = shift_register(0);
    }
}
