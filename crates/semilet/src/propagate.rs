//! FOGBUSTER forward propagation: drive a latched fault effect to a
//! primary output using *forward time processing* (paper §4).
//!
//! The fault occurred in the fast clock frame; all frames here run with a
//! slow clock, so the logic is fault-free and only the state difference
//! propagates. Each frame is solved by the [`crate::frame`] engine —
//! preferably straight to a PO, otherwise keeping the difference alive in
//! the state — up to a frame limit, with loop detection on the state
//! signature.
//!
//! After success, a *reliance analysis* re-simulates the found vectors
//! with each initially-known state bit blanked to `X` in turn; bits whose
//! loss kills the observation are reported as relied-upon. These feed the
//! paper's invalidation check in TDsim (faults corrupting a relied-upon
//! state bit may not be credited through a PPO observation).

use crate::frame::{FrameEngine, FrameGoal, FrameResult, PpiConstraint};
use gdf_algebra::logic3::Logic3;
use gdf_algebra::static5::StaticSet;
use gdf_netlist::{Circuit, NodeId};
use std::collections::HashSet;

/// A successful propagation of the latched fault effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Propagation {
    /// One PI vector per slow-clock frame (don't-cares as `X`).
    pub vectors: Vec<Vec<Logic3>>,
    /// The primary output at which the difference becomes visible (in the
    /// last frame).
    pub po: NodeId,
    /// Indexes of flip-flops whose *initial* known value the propagation
    /// relies on (for the invalidation check).
    pub relied_dffs: Vec<usize>,
}

/// Outcome of the propagation phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropagateOutcome {
    /// The difference reaches a PO.
    Propagated(Propagation),
    /// The bounded search space was exhausted: under the given state
    /// knowledge the difference cannot be driven to a PO.
    Unpropagatable,
    /// A backtrack limit was hit first.
    Aborted,
}

/// Limits for the propagation search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PropagateLimits {
    /// Per-frame backtrack limit (paper: 100 for the sequential engine).
    pub backtrack_limit: u32,
    /// Maximum number of slow-clock frames.
    pub max_frames: usize,
}

impl Default for PropagateLimits {
    fn default() -> Self {
        PropagateLimits {
            backtrack_limit: 100,
            max_frames: 32,
        }
    }
}

/// Drives the fault effect in `start` (one [`StaticSet`] per flip-flop;
/// the difference is whatever `D`/`D̄` bits it contains) to a primary
/// output.
///
/// # Panics
///
/// Panics if `start.len()` differs from the circuit's flip-flop count.
///
/// # Example
///
/// ```
/// use gdf_algebra::static5::{StaticSet, StaticValue};
/// use gdf_netlist::suite;
/// use gdf_semilet::propagate::{propagate_to_po, PropagateLimits, PropagateOutcome};
///
/// let c = suite::s27();
/// let start = vec![
///     StaticSet::singleton(StaticValue::S0),
///     StaticSet::singleton(StaticValue::D),
///     StaticSet::singleton(StaticValue::S0),
/// ];
/// match propagate_to_po(&c, &start, PropagateLimits::default()) {
///     PropagateOutcome::Propagated(p) => assert!(!p.vectors.is_empty()),
///     other => panic!("expected propagation, got {other:?}"),
/// }
/// ```
pub fn propagate_to_po(
    circuit: &Circuit,
    start: &[StaticSet],
    limits: PropagateLimits,
) -> PropagateOutcome {
    propagate_to_po_with_fault(circuit, start, limits, None)
}

/// Like [`propagate_to_po`], but with a persistent stuck-at fault active in
/// every frame (used by the standalone static-fault mode, where the slow
/// clock does not deactivate the fault).
pub fn propagate_to_po_with_fault(
    circuit: &Circuit,
    start: &[StaticSet],
    limits: PropagateLimits,
    fault: Option<gdf_netlist::StuckFault>,
) -> PropagateOutcome {
    assert_eq!(start.len(), circuit.num_dffs(), "state width");
    let engine = FrameEngine::new(circuit, limits.backtrack_limit);
    let mut state: Vec<StaticSet> = start.to_vec();
    let mut vectors: Vec<Vec<Logic3>> = Vec::new();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut aborted = false;

    for _frame in 0..limits.max_frames {
        if !state.iter().any(|s| s.must_be_fault_effect()) {
            break; // difference died
        }
        if !seen.insert(signature(&state)) {
            break; // state loop: no progress possible on this path
        }
        let ppis: Vec<PpiConstraint> = state.iter().map(|&s| PpiConstraint::Fixed(s)).collect();
        match engine.solve(&ppis, &FrameGoal::ObserveAtPo, fault) {
            FrameResult::Solved(sol) => {
                vectors.push(sol.pi.clone());
                let po = sol.po_hit.expect("PO goal solved");
                let relied = reliance_analysis(circuit, &engine, start, &vectors, po, fault);
                return PropagateOutcome::Propagated(Propagation {
                    vectors,
                    po,
                    relied_dffs: relied,
                });
            }
            FrameResult::Aborted => {
                aborted = true;
                break;
            }
            FrameResult::Exhausted => {}
        }
        // Keep the difference alive one more frame.
        match engine.solve(&ppis, &FrameGoal::LatchDiff, fault) {
            FrameResult::Solved(sol) => {
                vectors.push(sol.pi.clone());
                state = sol.next_state;
            }
            FrameResult::Aborted => {
                aborted = true;
                break;
            }
            FrameResult::Exhausted => break,
        }
    }
    if aborted {
        PropagateOutcome::Aborted
    } else {
        PropagateOutcome::Unpropagatable
    }
}

/// Compact signature of a state-set vector for loop detection.
fn signature(state: &[StaticSet]) -> Vec<u8> {
    state.iter().map(|s| s.bits()).collect()
}

/// Re-simulates the found vectors with each initially-known bit blanked;
/// returns the bits whose knowledge the observation depends on.
fn reliance_analysis(
    circuit: &Circuit,
    engine: &FrameEngine<'_>,
    start: &[StaticSet],
    vectors: &[Vec<Logic3>],
    po: NodeId,
    fault: Option<gdf_netlist::StuckFault>,
) -> Vec<usize> {
    let po_pos = circuit
        .outputs()
        .iter()
        .position(|&p| p == po)
        .expect("po index");
    let mut relied = Vec::new();
    for (i, s) in start.iter().enumerate() {
        let known_value = !s.may_be_fault_effect() && s.len() == 1;
        if !known_value {
            continue;
        }
        let mut blanked = start.to_vec();
        blanked[i] = StaticSet::GOOD; // fixed but unknown
        if !observes(engine, &blanked, vectors, po_pos, fault) {
            relied.push(i);
        }
    }
    relied
}

/// Pure simulation: do `vectors` still yield a definite difference at the
/// PO (by position) in the final frame?
fn observes(
    engine: &FrameEngine<'_>,
    start: &[StaticSet],
    vectors: &[Vec<Logic3>],
    po_pos: usize,
    fault: Option<gdf_netlist::StuckFault>,
) -> bool {
    let mut state = start.to_vec();
    for (k, v) in vectors.iter().enumerate() {
        let (pos, next) = engine.simulate_frame(&state, v, fault);
        if k == vectors.len() - 1 {
            return matches!(
                pos[po_pos].as_singleton(),
                Some(gdf_algebra::static5::StaticValue::D)
                    | Some(gdf_algebra::static5::StaticValue::Db)
            );
        }
        state = next;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_algebra::static5::StaticValue;
    use gdf_netlist::generator::shift_register;
    use gdf_netlist::suite;

    fn known(b: bool) -> StaticSet {
        StaticSet::singleton(if b { StaticValue::S1 } else { StaticValue::S0 })
    }

    #[test]
    fn one_frame_propagation_in_s27() {
        let c = suite::s27();
        let start = vec![
            known(false),
            StaticSet::singleton(StaticValue::D),
            known(false),
        ];
        match propagate_to_po(&c, &start, PropagateLimits::default()) {
            PropagateOutcome::Propagated(p) => {
                assert_eq!(p.vectors.len(), 1, "G6 is one frame from G17");
            }
            other => panic!("expected propagation, got {other:?}"),
        }
    }

    #[test]
    fn shift_register_needs_n_frames() {
        let c = shift_register(3);
        // Difference on q0: must shift through q1, q2, then appear at so.
        let start = vec![
            StaticSet::singleton(StaticValue::D),
            known(false),
            known(false),
        ];
        match propagate_to_po(&c, &start, PropagateLimits::default()) {
            PropagateOutcome::Propagated(p) => {
                assert_eq!(p.vectors.len(), 3, "three shifts to reach the output");
                // Enable must be 1 in the shifting frames.
                for v in &p.vectors[..2] {
                    assert_eq!(v[1], Logic3::One);
                }
            }
            other => panic!("expected propagation, got {other:?}"),
        }
    }

    #[test]
    fn dead_difference_is_unpropagatable() {
        // Difference on a flip-flop that feeds nothing observable.
        let mut b = gdf_netlist::CircuitBuilder::new("dead");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_gate("d", gdf_netlist::GateKind::Buf, &["a"]);
        b.add_gate("y", gdf_netlist::GateKind::Buf, &["a"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let start = vec![StaticSet::singleton(StaticValue::D)];
        assert_eq!(
            propagate_to_po(&c, &start, PropagateLimits::default()),
            PropagateOutcome::Unpropagatable
        );
    }

    #[test]
    fn frame_limit_respected() {
        let c = shift_register(4);
        let start = vec![
            StaticSet::singleton(StaticValue::D),
            known(false),
            known(false),
            known(false),
        ];
        let limits = PropagateLimits {
            max_frames: 2, // too short: needs 4
            ..PropagateLimits::default()
        };
        assert_eq!(
            propagate_to_po(&c, &start, limits),
            PropagateOutcome::Unpropagatable
        );
    }

    #[test]
    fn reliance_detected_for_gating_state() {
        // y = AND(q_diff, q_gate): observation relies on q_gate being 1.
        let mut b = gdf_netlist::CircuitBuilder::new("gate");
        b.add_input("a");
        b.add_dff("qd", "d0");
        b.add_dff("qg", "d1");
        b.add_gate("d0", gdf_netlist::GateKind::Buf, &["a"]);
        b.add_gate("d1", gdf_netlist::GateKind::Buf, &["a"]);
        b.add_gate("y", gdf_netlist::GateKind::And, &["qd", "qg"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let start = vec![StaticSet::singleton(StaticValue::D), known(true)];
        match propagate_to_po(&c, &start, PropagateLimits::default()) {
            PropagateOutcome::Propagated(p) => {
                assert_eq!(p.relied_dffs, vec![1], "qg=1 is load-bearing");
            }
            other => panic!("expected propagation, got {other:?}"),
        }
    }

    #[test]
    fn xf_state_blocks_propagation_like_the_paper_says() {
        // Same circuit, but q_gate is fixed-unknown: the AND cannot be
        // proven sensitized → unpropagatable. This is the mechanism behind
        // the paper's high sequential-untestable counts.
        let mut b = gdf_netlist::CircuitBuilder::new("gate");
        b.add_input("a");
        b.add_dff("qd", "d0");
        b.add_dff("qg", "d1");
        b.add_gate("d0", gdf_netlist::GateKind::Buf, &["a"]);
        b.add_gate("d1", gdf_netlist::GateKind::Buf, &["a"]);
        b.add_gate("y", gdf_netlist::GateKind::And, &["qd", "qg"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let start = vec![StaticSet::singleton(StaticValue::D), StaticSet::GOOD];
        assert_eq!(
            propagate_to_po(&c, &start, PropagateLimits::default()),
            PropagateOutcome::Unpropagatable
        );
    }
}
