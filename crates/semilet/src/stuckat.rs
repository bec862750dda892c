//! Standalone sequential single-stuck-at ATPG — SEMILET as the
//! independent tool it is in the paper ("a sequential test pattern
//! generator for several static fault models").
//!
//! This mode searches forward from the unknown power-up state with the
//! fault injected in *every* frame: each frame either observes the fault
//! effect at a PO, creates/keeps a definite effect in the state, or (when
//! neither is possible yet) applies a heuristic *conditioning* vector that
//! maximizes the number of known state bits, so a later frame can excite
//! the fault. Faults the bounded search cannot resolve are reported as
//! aborted — forward search cannot prove sequential untestability.

use crate::frame::{FrameEngine, FrameGoal, FrameResult, PpiConstraint};
use crate::justify::{synchronize, SyncLimits, SyncOutcome};
use crate::propagate::{propagate_to_po_with_fault, PropagateLimits, PropagateOutcome};
use gdf_algebra::logic3::Logic3;
use gdf_algebra::static5::StaticSet;
use gdf_netlist::{Circuit, NodeId, StuckFault};
use gdf_sim::Fausim;
use std::collections::HashSet;

/// Outcome of sequential stuck-at generation for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StuckAtOutcome {
    /// Vector sequence (applied from power-up) detecting the fault at the
    /// reported PO in the final frame.
    Test {
        /// One PI vector per frame.
        vectors: Vec<Vec<Logic3>>,
        /// Observing primary output.
        po: NodeId,
    },
    /// The fault is combinationally untestable in every frame (its site is
    /// redundant), proven by the per-frame engine.
    Untestable,
    /// The bounded search gave up.
    Aborted,
}

/// Configuration for the standalone stuck-at generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckAtConfig {
    /// Per-frame backtrack limit.
    pub backtrack_limit: u32,
    /// Maximum sequence length.
    pub max_frames: usize,
}

impl Default for StuckAtConfig {
    fn default() -> Self {
        StuckAtConfig {
            backtrack_limit: 100,
            max_frames: 24,
        }
    }
}

/// The standalone sequential stuck-at test generator.
///
/// # Example
///
/// ```
/// use gdf_netlist::{suite, FaultUniverse};
/// use gdf_semilet::stuckat::{StuckAtAtpg, StuckAtOutcome};
///
/// let c = suite::s27();
/// let atpg = StuckAtAtpg::new(&c);
/// let faults = FaultUniverse::default().stuck_faults(&c);
/// let found = faults
///     .iter()
///     .filter(|&&f| matches!(atpg.generate(f), StuckAtOutcome::Test { .. }))
///     .count();
/// assert!(found > 0, "s27 has detectable stuck-at faults");
/// ```
#[derive(Debug)]
pub struct StuckAtAtpg<'c> {
    circuit: &'c Circuit,
    config: StuckAtConfig,
}

impl<'c> StuckAtAtpg<'c> {
    /// Creates a generator with default limits.
    pub fn new(circuit: &'c Circuit) -> Self {
        Self::with_config(circuit, StuckAtConfig::default())
    }

    /// Creates a generator with explicit limits.
    pub fn with_config(circuit: &'c Circuit, config: StuckAtConfig) -> Self {
        StuckAtAtpg { circuit, config }
    }

    /// The circuit under test.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// Generates a test sequence for one stuck-at fault.
    pub fn generate(&self, fault: StuckFault) -> StuckAtOutcome {
        let engine = FrameEngine::new(self.circuit, self.config.backtrack_limit);
        // Purely combinational circuits: the per-frame engine is complete,
        // so a single frame decides the fault exactly.
        if self.circuit.num_dffs() == 0 {
            return match engine.solve(&[], &FrameGoal::ObserveAtPo, Some(fault)) {
                FrameResult::Solved(sol) => StuckAtOutcome::Test {
                    vectors: vec![sol.pi],
                    po: sol.po_hit.expect("PO goal solved"),
                },
                FrameResult::Exhausted => StuckAtOutcome::Untestable,
                FrameResult::Aborted => StuckAtOutcome::Aborted,
            };
        }
        // Attempt A: solve the observation frame with assignable state
        // requirements, justify them with a synchronizing sequence, and
        // verify the whole thing with FAUSIM (the fault is active during
        // justification too, so verification is mandatory).
        let assignable = vec![PpiConstraint::Assignable; self.circuit.num_dffs()];
        if let FrameResult::Solved(sol) =
            engine.solve(&assignable, &FrameGoal::ObserveAtPo, Some(fault))
        {
            if let Some(test) = self.justify_and_verify(fault, &sol.ppi_assigned, vec![sol.pi]) {
                return test;
            }
        }
        // Attempt B: latch the effect with justified state, then drive it
        // forward to a PO with the fault still active.
        if let FrameResult::Solved(sol) =
            engine.solve(&assignable, &FrameGoal::LatchDiff, Some(fault))
        {
            let limits = PropagateLimits {
                backtrack_limit: self.config.backtrack_limit,
                max_frames: self.config.max_frames,
            };
            if let PropagateOutcome::Propagated(p) =
                propagate_to_po_with_fault(self.circuit, &sol.next_state, limits, Some(fault))
            {
                let mut vectors = vec![sol.pi.clone()];
                vectors.extend(p.vectors.iter().cloned());
                if let Some(test) = self.justify_and_verify(fault, &sol.ppi_assigned, vectors) {
                    return test;
                }
            }
        }
        // Attempt C: plain forward search from the unrelated unknown
        // power-up states (good X, faulty X, independently).
        let mut state = vec![StaticSet::ALL; self.circuit.num_dffs()];
        let mut vectors: Vec<Vec<Logic3>> = Vec::new();
        let mut seen: HashSet<Vec<u8>> = HashSet::new();

        while vectors.len() < self.config.max_frames {
            let sig: Vec<u8> = state.iter().map(|s| s.bits()).collect();
            if !seen.insert(sig) {
                break;
            }
            let ppis: Vec<PpiConstraint> = state.iter().map(|&s| PpiConstraint::Fixed(s)).collect();
            match engine.solve(&ppis, &FrameGoal::ObserveAtPo, Some(fault)) {
                FrameResult::Solved(sol) => {
                    vectors.push(sol.pi.clone());
                    return StuckAtOutcome::Test {
                        vectors,
                        po: sol.po_hit.expect("PO goal solved"),
                    };
                }
                FrameResult::Aborted => break,
                FrameResult::Exhausted => {}
            }
            // Keep or create a definite effect in the state.
            match engine.solve(&ppis, &FrameGoal::LatchDiff, Some(fault)) {
                FrameResult::Solved(sol) => {
                    vectors.push(sol.pi.clone());
                    state = sol.next_state;
                    continue;
                }
                FrameResult::Aborted => break,
                FrameResult::Exhausted => {}
            }
            // Conditioning frame: no effect possible yet — drive the state
            // toward known values so a later frame can excite the fault.
            let Some((vector, next)) = self.conditioning_frame(&engine, &state, fault) else {
                break;
            };
            vectors.push(vector);
            state = next;
        }
        // Forward search over a sequential machine cannot prove
        // untestability; everything unresolved is an abort.
        StuckAtOutcome::Aborted
    }

    /// Prepends a synchronizing sequence for `requirements` and accepts the
    /// candidate only if FAUSIM confirms detection from the all-`X`
    /// power-up state.
    fn justify_and_verify(
        &self,
        fault: StuckFault,
        requirements: &[(usize, bool)],
        tail: Vec<Vec<Logic3>>,
    ) -> Option<StuckAtOutcome> {
        let limits = SyncLimits {
            backtrack_limit: self.config.backtrack_limit,
            max_frames: self.config.max_frames,
        };
        let SyncOutcome::Synchronized(mut vectors) =
            synchronize(self.circuit, requirements, limits)
        else {
            return None;
        };
        vectors.extend(tail);
        let fausim = Fausim::new(self.circuit);
        let (_frame, po) = fausim.stuck_at_observation(fault, &vectors)?;
        Some(StuckAtOutcome::Test { vectors, po })
    }

    /// Picks, among a few candidate vectors, the one whose next state has
    /// the most known bits.
    fn conditioning_frame(
        &self,
        engine: &FrameEngine<'_>,
        state: &[StaticSet],
        fault: StuckFault,
    ) -> Option<(Vec<Logic3>, Vec<StaticSet>)> {
        let n = self.circuit.num_inputs();
        let candidates: Vec<Vec<Logic3>> = vec![
            vec![Logic3::Zero; n],
            vec![Logic3::One; n],
            (0..n).map(|i| Logic3::from_bool(i % 2 == 0)).collect(),
            (0..n).map(|i| Logic3::from_bool(i % 2 == 1)).collect(),
        ];
        let mut best: Option<(usize, Vec<Logic3>, Vec<StaticSet>)> = None;
        for cand in candidates {
            let (_pos, next) = engine.simulate_frame(state, &cand, Some(fault));
            let known = next.iter().filter(|s| s.len() == 1).count();
            if best.as_ref().is_none_or(|&(k, _, _)| known > k) {
                best = Some((known, cand, next));
            }
        }
        let (known, v, next) = best?;
        // Progress check: strictly more knowledge than before, else stop.
        let before = state.iter().filter(|s| s.len() == 1).count();
        if known <= before {
            return None;
        }
        Some((v, next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_algebra::Logic3;
    use gdf_netlist::{suite, CircuitBuilder, FaultSite, FaultUniverse, GateKind, StuckAtKind};
    use gdf_sim::Fausim;

    #[test]
    fn combinational_fault_one_frame() {
        let mut b = CircuitBuilder::new("inv");
        b.add_input("a");
        b.add_gate("y", GateKind::Not, &["a"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let a = c.node_by_name("a").unwrap();
        let fault = StuckFault {
            site: FaultSite::on_stem(a),
            kind: StuckAtKind::StuckAt0,
        };
        match StuckAtAtpg::new(&c).generate(fault) {
            StuckAtOutcome::Test { vectors, .. } => {
                assert_eq!(vectors.len(), 1);
                assert_eq!(vectors[0][0], Logic3::One);
            }
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn combinational_redundancy_proven() {
        // y = OR(a, NOT(a)) ≡ 1: sa1 on y is undetectable.
        let mut b = CircuitBuilder::new("red");
        b.add_input("a");
        b.add_gate("n", GateKind::Not, &["a"]);
        b.add_gate("y", GateKind::Or, &["a", "n"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let y = c.node_by_name("y").unwrap();
        let fault = StuckFault {
            site: FaultSite::on_stem(y),
            kind: StuckAtKind::StuckAt1,
        };
        assert_eq!(
            StuckAtAtpg::new(&c).generate(fault),
            StuckAtOutcome::Untestable
        );
    }

    #[test]
    fn generated_sequences_verified_by_fausim() {
        let c = suite::s27();
        let atpg = StuckAtAtpg::new(&c);
        let fausim = Fausim::new(&c);
        let faults = FaultUniverse::default().stuck_faults(&c);
        let mut found = 0;
        for &f in &faults {
            if let StuckAtOutcome::Test { vectors, .. } = atpg.generate(f) {
                found += 1;
                // X-fill don't-cares with zeros for the check.
                let filled: Vec<Vec<Logic3>> = vectors
                    .iter()
                    .map(|v| {
                        v.iter()
                            .map(|&l| if l == Logic3::X { Logic3::Zero } else { l })
                            .collect()
                    })
                    .collect();
                assert!(
                    fausim.stuck_at_detection_frame(f, &filled).is_some(),
                    "sequence for {} does not detect it",
                    f.describe(&c)
                );
            }
        }
        assert!(
            found > faults.len() / 3,
            "only {found}/{} found",
            faults.len()
        );
    }

    #[test]
    fn sequential_fault_needs_multiple_frames() {
        let c = gdf_netlist::generator::shift_register(2);
        let si = c.node_by_name("si").unwrap();
        let fault = StuckFault {
            site: FaultSite::on_stem(si),
            kind: StuckAtKind::StuckAt0,
        };
        match StuckAtAtpg::new(&c).generate(fault) {
            StuckAtOutcome::Test { vectors, .. } => {
                assert!(vectors.len() >= 3, "needs to shift through 2 stages");
            }
            other => panic!("expected test, got {other:?}"),
        }
    }
}
