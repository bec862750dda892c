//! The shared implication network (`gdf_algebra::search::SetNet`) reaches
//! the fixpoint of a round-robin reference under every algebra the test
//! generators instantiate it with: TDgen's robust and non-robust delay
//! algebras (with flip-flop coupling) and SEMILET's static D-algebra
//! (random fixed and assignable PPIs, with and without a stuck fault).
//!
//! The reference applies every constraint in turn (the gates in
//! topological order, then each coupled flip-flop) until a whole round
//! narrows nothing: no queue and no wake-ups. `propagate` skips a
//! constraint's self-wake when one pass is its own fixpoint, so this
//! checks that the skip changes no set and no conflict. The circuits come
//! from `generator::random_tangle` (gates reading one net on several pins,
//! flip-flops latching their own Q), the faults from
//! `generator::random_site` (half on such shared pins).

use gdf::algebra::search::{SetAlgebra, SetNet};
use gdf::algebra::{DelaySet, StaticSet};
use gdf::netlist::{generator, Circuit, DelayFault, DelayFaultKind, NodeId};
use gdf::netlist::{StuckAtKind, StuckFault};
use gdf::semilet::frame::{FrameEngine, PpiConstraint};
use gdf::tdgen::network::DelayAlgebra;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The reference fixpoint; `false` on a conflict.
fn round_robin<A: SetAlgebra>(net: &mut SetNet<'_, A>) -> bool {
    let c = net.circuit();
    loop {
        let before = net.checkpoint();
        for &g in c.topo_order() {
            if !net.imply_gate(g) {
                return false;
            }
        }
        if A::COUPLED {
            for i in 0..c.num_dffs() {
                if !net.imply_dff(i) {
                    return false;
                }
            }
        }
        if net.checkpoint() == before {
            return true;
        }
    }
}

/// A search-like walk from the initial domains `make` builds: compare
/// `propagate` with the reference, then eight times narrow a random net
/// (`narrow` draws its new set), compare again, and undo the step on a
/// conflict. Returns the first disagreement.
fn walk<'c, A: SetAlgebra>(
    c: &'c Circuit,
    make: impl Fn() -> SetNet<'c, A>,
    rng: &mut StdRng,
    narrow: impl Fn(&mut StdRng, A::Set) -> A::Set,
) -> Result<(), String> {
    let mut queued = make();
    let mut reference = make();
    for step in 0..9 {
        let marks = (queued.checkpoint(), reference.checkpoint());
        if step > 0 {
            let node = NodeId(rng.gen_range(0..c.num_nodes() as u32));
            let narrowed = narrow(rng, queued.set(node));
            if queued.assign(node, narrowed) != reference.assign(node, narrowed) {
                return Err(format!("step {step}: assign results differ"));
            }
        }
        let got = queued.propagate();
        let want = round_robin(&mut reference);
        if got != want {
            return Err(format!(
                "step {step}: propagate says consistent = {got}, the reference {want}"
            ));
        }
        if !got {
            queued.rollback(marks.0);
            reference.rollback(marks.1);
        } else if queued.sets() != reference.sets() {
            return Err(format!("step {step}: the fixpoints differ"));
        }
    }
    Ok(())
}

#[test]
fn propagate_reaches_the_round_robin_fixpoint() {
    // One random stream per engine, so each draws the inputs its own test
    // drew before the engines shared one network.
    let mut delay_rng = StdRng::seed_from_u64(1995);
    let mut static_rng = StdRng::seed_from_u64(1995);
    let delay_narrow =
        |rng: &mut StdRng, s: DelaySet| DelaySet::from_bits(s.bits() & rng.gen::<u32>() as u8);
    let static_narrow =
        |rng: &mut StdRng, s: StaticSet| StaticSet::from_bits(rng.gen_range(0..16u8)).intersect(s);
    let mut failures: BTreeMap<&str, String> = BTreeMap::new();
    for seed in 0..300 {
        let c = generator::random_tangle(seed);
        let fault = DelayFault {
            site: generator::random_site(&c, &mut delay_rng),
            kind: if delay_rng.gen_bool(0.5) {
                DelayFaultKind::SlowToRise
            } else {
                DelayFaultKind::SlowToFall
            },
        };
        let robust = DelayAlgebra::<true>::new(fault);
        let non_robust = DelayAlgebra::<false>::new(fault);
        let robust = walk(&c, || robust.network(&c), &mut delay_rng, delay_narrow);
        let non_robust = walk(&c, || non_robust.network(&c), &mut delay_rng, delay_narrow);

        let engine = FrameEngine::new(&c, 100);
        let stuck = StuckFault {
            site: generator::random_site(&c, &mut static_rng),
            kind: StuckAtKind::ALL[static_rng.gen_range(0..2usize)],
        };
        let ppis: Vec<PpiConstraint> = (0..c.num_dffs())
            .map(|_| match static_rng.gen_range(0..3u32) {
                0 => PpiConstraint::Assignable,
                _ => PpiConstraint::Fixed(StaticSet::from_bits(static_rng.gen_range(1..16u8))),
            })
            .collect();
        let fault_free = walk(
            &c,
            || engine.network(&ppis, None),
            &mut static_rng,
            static_narrow,
        );
        let stuck_at = walk(
            &c,
            || engine.network(&ppis, Some(stuck)),
            &mut static_rng,
            static_narrow,
        );
        for (algebra, result) in [
            ("robust delay", robust),
            ("non-robust delay", non_robust),
            ("static, fault-free", fault_free),
            ("static, stuck-at", stuck_at),
        ] {
            if let Err(e) = result {
                failures
                    .entry(algebra)
                    .or_insert_with(|| format!("{}: {e}", c.name()));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "propagate and the round-robin reference disagree: {failures:#?}"
    );
}
