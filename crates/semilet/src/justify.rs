//! Synchronizing-sequence computation: *reverse time processing* from the
//! state TDgen requires back to the unknown power-up state (paper §4,
//! the initialization phase).
//!
//! The machine is fault-free here (slow clock), and the power-up state is
//! all-`X`. Working backwards, each step solves one frame with the
//! outstanding state bits as justification targets; primary inputs are
//! free, and any pseudo-primary-input values the frame needs become the
//! targets of the previous step. The sequence is complete when a frame
//! needs no state support at all — it then works from *any* state,
//! including power-up.

use crate::frame::{FrameEngine, FrameGoal, FrameResult, PpiConstraint};
use gdf_algebra::logic3::Logic3;
use gdf_algebra::static5::{StaticSet, StaticValue};
use gdf_netlist::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Outcome of the initialization phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncOutcome {
    /// Input sequence (applied first-to-last) that forces the required
    /// bits regardless of the power-up state.
    Synchronized(Vec<Vec<Logic3>>),
    /// The bounded reverse search was exhausted: the requirement cannot be
    /// synchronized (within the frame limit).
    Unsynchronizable,
    /// A backtrack limit was hit first.
    Aborted,
}

impl SyncOutcome {
    /// The sequence, if synchronization succeeded.
    pub fn sequence(&self) -> Option<&[Vec<Logic3>]> {
        match self {
            SyncOutcome::Synchronized(v) => Some(v),
            _ => None,
        }
    }
}

/// Limits for the synchronization search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncLimits {
    /// Per-frame backtrack limit.
    pub backtrack_limit: u32,
    /// Maximum sequence length.
    pub max_frames: usize,
}

impl Default for SyncLimits {
    fn default() -> Self {
        SyncLimits {
            backtrack_limit: 100,
            max_frames: 32,
        }
    }
}

/// Computes a synchronizing sequence establishing `targets`
/// (`(dff index, value)` pairs). An empty target list needs no sequence.
///
/// # Example
///
/// ```
/// use gdf_netlist::generator::shift_register;
/// use gdf_semilet::justify::{synchronize, SyncLimits};
///
/// let c = shift_register(2);
/// // q1 = 1 requires shifting a 1 through q0: a two-frame sequence.
/// let outcome = synchronize(&c, &[(1, true)], SyncLimits::default());
/// assert_eq!(outcome.sequence().map(|s| s.len()), Some(2));
/// ```
pub fn synchronize(
    circuit: &Circuit,
    targets: &[(usize, bool)],
    limits: SyncLimits,
) -> SyncOutcome {
    if targets.is_empty() {
        return SyncOutcome::Synchronized(Vec::new());
    }
    let engine = FrameEngine::new(circuit, limits.backtrack_limit);
    let all_assignable = vec![PpiConstraint::Assignable; circuit.num_dffs()];
    let mut reversed: Vec<Vec<Logic3>> = Vec::new();
    let mut pending: Vec<(usize, bool)> = normalize(targets);
    let mut seen: HashSet<Vec<(usize, bool)>> = HashSet::new();
    let mut aborted = false;

    while reversed.len() < limits.max_frames {
        if !seen.insert(pending.clone()) {
            break; // requirement loop
        }
        match engine.solve(
            &all_assignable,
            &FrameGoal::JustifyPpos(pending.clone()),
            None,
        ) {
            FrameResult::Solved(sol) => {
                let needed = minimize_requirements(circuit, &engine, &pending, &sol);
                reversed.push(sol.pi.clone());
                if needed.is_empty() {
                    reversed.reverse();
                    return SyncOutcome::Synchronized(reversed);
                }
                pending = normalize(&needed);
            }
            FrameResult::Aborted => {
                aborted = true;
                break;
            }
            FrameResult::Exhausted => break,
        }
    }
    // Reverse justification failed or looped: fall back to a greedy
    // *forward* synchronization — drive the machine from the unknown
    // power-up state with vectors chosen to maximize known (and matching)
    // state bits. This is how loadable/resettable state is synchronized in
    // practice, and it is sound: the frame simulation starts from all-X.
    if let Some(seq) = forward_sync(circuit, &engine, targets, limits) {
        return SyncOutcome::Synchronized(seq);
    }
    if aborted {
        SyncOutcome::Aborted
    } else {
        SyncOutcome::Unsynchronizable
    }
}

/// Greedy forward synchronization from all-X.
fn forward_sync(
    circuit: &Circuit,
    engine: &FrameEngine<'_>,
    targets: &[(usize, bool)],
    limits: SyncLimits,
) -> Option<Vec<Vec<Logic3>>> {
    let n = circuit.num_inputs();
    let mut rng = StdRng::seed_from_u64(0xC0_4D17);
    let mut state = vec![StaticSet::GOOD; circuit.num_dffs()];
    let mut vectors: Vec<Vec<Logic3>> = Vec::new();
    let met = |state: &[StaticSet]| {
        targets.iter().all(|&(i, b)| {
            let want = if b { StaticValue::S1 } else { StaticValue::S0 };
            state[i].as_singleton() == Some(want)
        })
    };
    let score = |state: &[StaticSet]| -> usize {
        let matching = targets
            .iter()
            .filter(|&&(i, b)| {
                let want = if b { StaticValue::S1 } else { StaticValue::S0 };
                state[i].as_singleton() == Some(want)
            })
            .count();
        let known = state.iter().filter(|s| s.len() == 1).count();
        matching * 1024 + known
    };
    let mut stall = 0;
    while vectors.len() < limits.max_frames {
        if met(&state) {
            return Some(vectors);
        }
        let mut candidates: Vec<Vec<Logic3>> = vec![
            vec![Logic3::Zero; n],
            vec![Logic3::One; n],
            (0..n).map(|i| Logic3::from_bool(i % 2 == 0)).collect(),
        ];
        for _ in 0..5 {
            candidates.push((0..n).map(|_| Logic3::from_bool(rng.gen())).collect());
        }
        let mut best: Option<(usize, Vec<Logic3>, Vec<StaticSet>)> = None;
        for cand in candidates {
            let (_po, next) = engine.simulate_frame(&state, &cand, None);
            let sc = score(&next);
            if best.as_ref().is_none_or(|&(b, _, _)| sc > b) {
                best = Some((sc, cand, next));
            }
        }
        let (sc, v, next) = best?;
        if sc <= score(&state) {
            stall += 1;
            if stall > 3 {
                return None;
            }
        } else {
            stall = 0;
        }
        vectors.push(v);
        state = next;
    }
    None
}

/// Drops every assigned PPI bit whose knowledge is not actually needed for
/// the frame's targets: the search may have fixed state bits incidentally,
/// and each kept bit becomes a justification burden for the earlier frames
/// (unpruned sets tend to grow and loop instead of shrinking to ∅).
fn minimize_requirements(
    circuit: &Circuit,
    engine: &FrameEngine<'_>,
    targets: &[(usize, bool)],
    sol: &crate::frame::FrameSolution,
) -> Vec<(usize, bool)> {
    let mut kept: Vec<(usize, bool)> = sol.ppi_assigned.clone();
    let state_of = |assigned: &[(usize, bool)]| -> Vec<StaticSet> {
        let mut state = vec![StaticSet::GOOD; circuit.num_dffs()];
        for &(i, b) in assigned {
            state[i] = StaticSet::singleton(if b { StaticValue::S1 } else { StaticValue::S0 });
        }
        state
    };
    let holds = |assigned: &[(usize, bool)]| -> bool {
        let (_pos, next) = engine.simulate_frame(&state_of(assigned), &sol.pi, None);
        targets.iter().all(|&(i, b)| {
            let want = if b { StaticValue::S1 } else { StaticValue::S0 };
            next[i].as_singleton() == Some(want)
        })
    };
    let mut idx = 0;
    while idx < kept.len() {
        let mut trial = kept.clone();
        trial.remove(idx);
        if holds(&trial) {
            kept = trial;
        } else {
            idx += 1;
        }
    }
    kept
}

fn normalize(targets: &[(usize, bool)]) -> Vec<(usize, bool)> {
    let mut t = targets.to_vec();
    t.sort_unstable();
    t.dedup();
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_algebra::logic3::Logic3;
    use gdf_netlist::generator::{counter, shift_register};
    use gdf_netlist::{suite, CircuitBuilder, GateKind};
    use gdf_sim::GoodSimulator;

    /// Check the sequence really synchronizes from all-X, by 3-valued
    /// simulation (X-filling don't-cares with both constants).
    fn check_sequence(c: &Circuit, targets: &[(usize, bool)], seq: &[Vec<Logic3>]) {
        for fill in [Logic3::Zero, Logic3::One] {
            let sim = GoodSimulator::new(c);
            let vectors: Vec<Vec<Logic3>> = seq
                .iter()
                .map(|v| {
                    v.iter()
                        .map(|&l| if l == Logic3::X { fill } else { l })
                        .collect()
                })
                .collect();
            let (_frames, state) = sim.run(&sim.initial_state(), &vectors);
            for &(i, b) in targets {
                assert_eq!(
                    state[i],
                    Logic3::from_bool(b),
                    "target dff {i} not synchronized (fill {fill})"
                );
            }
        }
    }

    #[test]
    fn empty_targets_need_nothing() {
        let c = suite::s27();
        assert_eq!(
            synchronize(&c, &[], SyncLimits::default()),
            SyncOutcome::Synchronized(vec![])
        );
    }

    #[test]
    fn shift_register_synchronizes_in_order() {
        let c = shift_register(3);
        let targets = [(2, true)];
        let outcome = synchronize(&c, &targets, SyncLimits::default());
        let seq = outcome.sequence().expect("synchronizable");
        assert_eq!(seq.len(), 3);
        check_sequence(&c, &targets, seq);
    }

    #[test]
    fn counter_reset_synchronizes_all_bits() {
        let c = counter(3);
        let targets = [(0, false), (1, false), (2, false)];
        let outcome = synchronize(&c, &targets, SyncLimits::default());
        let seq = outcome.sequence().expect("reset makes this easy");
        check_sequence(&c, &targets, seq);
    }

    #[test]
    fn s27_state_bits_synchronizable() {
        let c = suite::s27();
        // G7 = DFF(G13), G13 = NOR(G2, G12): G2=1 forces G13=0.
        let targets = [(2, false)];
        let outcome = synchronize(&c, &targets, SyncLimits::default());
        let seq = outcome.sequence().expect("G7:=0 is one frame away");
        check_sequence(&c, &targets, seq);
    }

    #[test]
    fn unsynchronizable_hold_loop() {
        // q = DFF(q): the state bit can never be forced from X.
        let mut b = CircuitBuilder::new("hold");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_gate("d", GateKind::Buf, &["q"]);
        b.add_gate("y", GateKind::And, &["a", "q"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        assert_eq!(
            synchronize(&c, &[(0, true)], SyncLimits::default()),
            SyncOutcome::Unsynchronizable
        );
    }

    #[test]
    fn conflicting_targets_via_same_driver() {
        // Two flip-flops latch the same net: requiring opposite values is
        // impossible.
        let mut b = CircuitBuilder::new("twin");
        b.add_input("a");
        b.add_dff("q0", "d");
        b.add_dff("q1", "d");
        b.add_gate("d", GateKind::Buf, &["a"]);
        b.add_gate("y", GateKind::Xor, &["q0", "q1"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        assert_eq!(
            synchronize(&c, &[(0, true), (1, false)], SyncLimits::default()),
            SyncOutcome::Unsynchronizable
        );
        // Same value is fine.
        let outcome = synchronize(&c, &[(0, true), (1, true)], SyncLimits::default());
        let seq = outcome.sequence().expect("same value is easy");
        check_sequence(&c, &[(0, true), (1, true)], seq);
    }
}
