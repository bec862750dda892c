//! TDsim — robust delay-fault simulation of the fast time frame (paper §5,
//! phase 3).
//!
//! Works on the fault-free two-frame waveform from [`crate::waveform`]. For
//! every still-undetected candidate fault whose site actually shows the
//! provoking transition, the fault mark (`R → Rc` / `F → Fc`) is traced
//! using the 8-valued algebra itself, so the sensitization and robustness
//! conditions are *identical by construction* to the ones TDgen generates
//! with.
//!
//! [`detected_delay_faults`], the oracle, re-evaluates each fault's
//! output cone. The packed [`detected_delay_faults_packed`] is the
//! paper's critical path tracing per fanout-free region: it walks each
//! provoked fault's critical path to its region root on good values,
//! traces each root that some fault reaches once, 64 roots per word,
//! evaluating only the gates a mark reaches, and fans each root's
//! observation back out to its faults. That is the one phase-3 driver
//! both at-speed models run; this model's lanes hold [`PackedWave`]s,
//! [`crate::tfsim`]'s hold final values.
//!
//! The paper's *invalidation* rule is enforced: a fault observed only at a
//! PPO counts as detected only if (a) that PPO was shown observable by the
//! propagation phase and (b) the fault effect cannot corrupt any state bit
//! the propagation phase relies on.

use crate::packed::SimScratch;
use crate::phase3;
use gdf_algebra::delay::{eval_gate, DelayValue};
use gdf_algebra::packed::PackedWave;
use gdf_netlist::{Circuit, DelayFault, DelayFaultKind, NodeId};

/// Where a delay fault effect was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayObservation {
    /// Observed directly at a primary output.
    AtPo(NodeId),
    /// Observed at a pseudo primary output (a flip-flop D net) that the
    /// propagation phase makes observable.
    AtPpo(NodeId),
}

/// Simulates all candidate `faults` against one two-pattern test.
///
/// * `waveform` — fault-free two-frame values from
///   [`crate::waveform::two_frame_values`];
/// * `observable_ppos` — PPO nets whose latched fault effect is known to
///   reach a PO in the propagation phase (FAUSIM phase 2 result);
/// * `required_state_ppos` — PPO nets whose (steady) values the propagation
///   phase relies on; a fault corrupting one of these is *invalidated*.
///
/// Returns `(fault index, observation)` pairs for every robustly detected
/// fault.
///
/// # Example
///
/// ```
/// use gdf_netlist::{suite, FaultUniverse};
/// use gdf_sim::{detected_delay_faults, two_frame_values};
///
/// let c = suite::s27();
/// // G3 falls and G0 rises: G11 = NOR(G5, G9) falls, observed at G17.
/// let w = two_frame_values(
///     &c,
///     &[false, false, false, true],
///     &[true, false, false, false],
///     &[false, false, false],
/// );
/// let faults = FaultUniverse::default().delay_faults(&c);
/// let hits = detected_delay_faults(&c, &w, &faults, &[], &[]);
/// assert!(!hits.is_empty());
/// ```
pub fn detected_delay_faults(
    circuit: &Circuit,
    waveform: &[DelayValue],
    faults: &[DelayFault],
    observable_ppos: &[NodeId],
    required_state_ppos: &[NodeId],
) -> Vec<(usize, DelayObservation)> {
    assert_eq!(waveform.len(), circuit.num_nodes(), "waveform length");
    let ppos = circuit.ppos();
    let mut detected = Vec::new();
    for (idx, fault) in faults.iter().enumerate() {
        if let Some(obs) = trace_one(
            circuit,
            waveform,
            *fault,
            ppos,
            observable_ppos,
            required_state_ppos,
        ) {
            detected.push((idx, obs));
        }
    }
    detected
}

/// Traces one fault; `None` if not robustly detected by this test.
fn trace_one(
    circuit: &Circuit,
    waveform: &[DelayValue],
    fault: DelayFault,
    ppos: &[NodeId],
    observable_ppos: &[NodeId],
    required_state_ppos: &[NodeId],
) -> Option<DelayObservation> {
    let needed = match fault.kind {
        DelayFaultKind::SlowToRise => DelayValue::R,
        DelayFaultKind::SlowToFall => DelayValue::F,
    };
    let stem_val = waveform[fault.site.stem.index()];
    if stem_val != needed {
        return None; // fault not provoked by this vector pair
    }
    let marked_stem = stem_val.with_fault_mark().expect("transition");

    // A branch fault on a flip-flop D input latches the wrong value
    // directly: the only observation point is that PPO, and nothing else
    // sees the mark within this frame pair.
    if let Some((sink, _)) = fault.site.branch {
        if !circuit.node(sink).kind().is_combinational() {
            let ppo = fault.site.stem;
            if !observable_ppos.contains(&ppo) {
                return None;
            }
            for &req in required_state_ppos {
                if req != ppo && !waveform[req.index()].is_steady_clean() {
                    return None;
                }
            }
            return Some(DelayObservation::AtPpo(ppo));
        }
    }

    // Cone-limited re-evaluation with the mark injected.
    let seed = match fault.site.branch {
        None => fault.site.stem,
        Some((sink, _)) => sink,
    };
    let mut marked = waveform.to_vec();
    if fault.site.branch.is_none() {
        marked[fault.site.stem.index()] = marked_stem;
    }
    let mut ins: Vec<DelayValue> = Vec::with_capacity(8);
    for (gate, kind, fanins) in circuit.gates_levelized() {
        if !circuit.cone_contains(seed, gate) {
            continue;
        }
        if gate == fault.site.stem && fault.site.branch.is_none() {
            continue; // keep the injected mark on the stem itself
        }
        ins.clear();
        ins.extend(fanins.iter().enumerate().map(|(pin, &f)| {
            if let Some((sink, fpin)) = fault.site.branch {
                if f == fault.site.stem && sink == gate && fpin == pin as u8 {
                    return marked_stem;
                }
            }
            marked[f.index()]
        }));
        marked[gate.index()] = eval_gate(kind, &ins);
    }

    // Direct observation at a PO wins.
    for &po in circuit.outputs() {
        if marked[po.index()].carries_fault() {
            return Some(DelayObservation::AtPo(po));
        }
    }

    // Observation via a PPO the propagation phase covers — subject to the
    // invalidation check.
    let mut ppo_hit = None;
    for &ppo in ppos {
        if marked[ppo.index()].carries_fault() && observable_ppos.contains(&ppo) {
            ppo_hit = Some(ppo);
            break;
        }
    }
    let ppo = ppo_hit?;
    // Invalidation: the fault effect must not be able to corrupt any state
    // bit the propagation phase requires, and those bits must be steady and
    // hazard-free in the good waveform.
    for &req in required_state_ppos {
        if req == ppo {
            continue;
        }
        if marked[req.index()].carries_fault() || !waveform[req.index()].is_steady_clean() {
            return None;
        }
    }
    Some(DelayObservation::AtPpo(ppo))
}

/// Word-parallel variant of [`detected_delay_faults`] by critical path
/// tracing per fanout-free region: each provoked fault is resolved to the
/// region root its critical path reaches, and each such root is traced
/// once, one root per bit lane and up to 64 per selective trace, each
/// lane holding the 8-valued delay algebra ([`PackedWave`]) and the
/// `car` plane marking the fault effect. Results are element-identical
/// to the scalar function — same faults, same observations, same order —
/// which the differential tests pin down. A PPO counts as observable
/// only if it is in `observable_ppos`.
///
/// The trace is the phase-3 driver [`crate::tfsim`] shares: each batch
/// evaluates, in level order, only the gates one of whose fanins carries
/// a mark; every other gate keeps its fault-free value. That is exact
/// because `waveform` must be *consistent*: every gate holds its gate
/// function of its fanins' values, as
/// [`crate::waveform::two_frame_values`] and phase 1 of
/// [`crate::grading`] produce it.
///
/// # Panics
///
/// Panics if `waveform` does not have one value per node.
pub fn detected_delay_faults_packed(
    circuit: &Circuit,
    waveform: &[DelayValue],
    faults: &[DelayFault],
    observable_ppos: &[NodeId],
    required_state_ppos: &[NodeId],
    scratch: &mut SimScratch,
) -> Vec<(usize, DelayObservation)> {
    let sites = faults.iter().map(|f| (f.site, f.kind));
    phase3::detect_given::<PackedWave>(
        circuit,
        waveform,
        sites,
        observable_ppos,
        required_state_ppos,
        scratch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::two_frame_values;
    use gdf_netlist::{CircuitBuilder, FaultSite, FaultUniverse, GateKind};

    fn fault(site: FaultSite, kind: DelayFaultKind) -> DelayFault {
        DelayFault { site, kind }
    }

    #[test]
    fn inverter_chain_detects_both_polarities() {
        let mut b = CircuitBuilder::new("chain");
        b.add_input("a");
        b.add_gate("n1", GateKind::Not, &["a"]);
        b.add_gate("n2", GateKind::Not, &["n1"]);
        b.mark_output("n2");
        let c = b.build().unwrap();
        let n1 = c.node_by_name("n1").unwrap();
        let w = two_frame_values(&c, &[false], &[true], &[]);
        // a rises, n1 falls, n2 rises.
        let faults = vec![
            fault(FaultSite::on_stem(n1), DelayFaultKind::SlowToFall),
            fault(FaultSite::on_stem(n1), DelayFaultKind::SlowToRise),
        ];
        let hits = detected_delay_faults(&c, &w, &faults, &[], &[]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 0, "only the StF on the falling n1 is provoked");
        assert!(matches!(hits[0].1, DelayObservation::AtPo(_)));
    }

    #[test]
    fn masking_side_input_blocks_detection() {
        // y = AND(a, b): a rises, but b = 0 masks the output.
        let mut bld = CircuitBuilder::new("mask");
        bld.add_input("a");
        bld.add_input("b");
        bld.add_gate("y", GateKind::And, &["a", "b"]);
        bld.mark_output("y");
        let c = bld.build().unwrap();
        let a = c.node_by_name("a").unwrap();
        let f = fault(FaultSite::on_stem(a), DelayFaultKind::SlowToRise);
        let w = two_frame_values(&c, &[false, false], &[true, false], &[]);
        assert!(detected_delay_faults(&c, &w, &[f], &[], &[]).is_empty());
        let w = two_frame_values(&c, &[false, true], &[true, true], &[]);
        assert_eq!(detected_delay_faults(&c, &w, &[f], &[], &[]).len(), 1);
    }

    #[test]
    fn non_robust_condition_rejected() {
        // y = AND(a, b): a falls (StF target) while b also transitions —
        // not a robust test even though endpoints would show the effect.
        let mut bld = CircuitBuilder::new("nonrobust");
        bld.add_input("a");
        bld.add_input("b");
        bld.add_gate("y", GateKind::And, &["a", "b"]);
        bld.mark_output("y");
        let c = bld.build().unwrap();
        let a = c.node_by_name("a").unwrap();
        let f = fault(FaultSite::on_stem(a), DelayFaultKind::SlowToFall);
        // b rises while a falls: off-path input not steady → not robust.
        let w = two_frame_values(&c, &[true, false], &[false, true], &[]);
        assert!(detected_delay_faults(&c, &w, &[f], &[], &[]).is_empty());
        // b steady 1: robust.
        let w = two_frame_values(&c, &[true, true], &[false, true], &[]);
        assert_eq!(detected_delay_faults(&c, &w, &[f], &[], &[]).len(), 1);
    }

    #[test]
    fn branch_fault_distinct_from_stem() {
        // s fans out to y1 = BUF(s) and y2 = BUF(s); branch fault to y1 is
        // seen at y1 only, stem fault at both.
        let mut bld = CircuitBuilder::new("fan");
        bld.add_input("a");
        bld.add_gate("s", GateKind::Buf, &["a"]);
        bld.add_gate("y1", GateKind::Buf, &["s"]);
        bld.add_gate("y2", GateKind::Buf, &["s"]);
        bld.mark_output("y1");
        bld.mark_output("y2");
        let c = bld.build().unwrap();
        let s = c.node_by_name("s").unwrap();
        let y1 = c.node_by_name("y1").unwrap();
        let w = two_frame_values(&c, &[false], &[true], &[]);
        let branch = fault(FaultSite::on_branch(s, y1, 0), DelayFaultKind::SlowToRise);
        let hits = detected_delay_faults(&c, &w, &[branch], &[], &[]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, DelayObservation::AtPo(y1));
    }

    #[test]
    fn ppo_observation_requires_observability() {
        // d = NOT(a) feeds a DFF; no PO sees the fault in the fast frame.
        let mut bld = CircuitBuilder::new("latch");
        bld.add_input("a");
        bld.add_dff("q", "d");
        bld.add_gate("d", GateKind::Not, &["a"]);
        bld.add_gate("y", GateKind::Buf, &["q"]);
        bld.mark_output("y");
        let c = bld.build().unwrap();
        let d = c.node_by_name("d").unwrap();
        let f = fault(FaultSite::on_stem(d), DelayFaultKind::SlowToFall);
        let w = two_frame_values(&c, &[false], &[true], &[false]);
        // Without observability info: undetected.
        assert!(detected_delay_faults(&c, &w, &[f], &[], &[]).is_empty());
        // Declared observable by the propagation phase: detected at the PPO.
        let hits = detected_delay_faults(&c, &w, &[f], &[d], &[]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, DelayObservation::AtPpo(d));
    }

    #[test]
    fn invalidation_blocks_ppo_detection() {
        // Fault effect reaches both DFF d-nets; propagation relies on d2's
        // steady value → invalidated.
        let mut bld = CircuitBuilder::new("invalid");
        bld.add_input("a");
        bld.add_dff("q1", "d1");
        bld.add_dff("q2", "d2");
        bld.add_gate("s", GateKind::Not, &["a"]);
        bld.add_gate("d1", GateKind::Buf, &["s"]);
        bld.add_gate("d2", GateKind::Buf, &["s"]);
        bld.add_gate("y", GateKind::And, &["q1", "q2"]);
        bld.mark_output("y");
        let c = bld.build().unwrap();
        let s = c.node_by_name("s").unwrap();
        let d1 = c.node_by_name("d1").unwrap();
        let d2 = c.node_by_name("d2").unwrap();
        let f = fault(FaultSite::on_stem(s), DelayFaultKind::SlowToFall);
        let w = two_frame_values(&c, &[false], &[true], &[false, false]);
        // Observable at d1, but d2 also carries the effect and is required.
        assert!(detected_delay_faults(&c, &w, &[f], &[d1], &[d2]).is_empty());
        // If the propagation doesn't rely on d2, detection stands.
        assert_eq!(detected_delay_faults(&c, &w, &[f], &[d1], &[]).len(), 1);
    }

    #[test]
    fn packed_matches_scalar_exhaustively_on_s27() {
        let c = gdf_netlist::suite::s27();
        let faults = FaultUniverse::default().delay_faults(&c);
        let all_ppos = c.ppos().to_vec();
        let mut scratch = crate::SimScratch::default();
        for seed in 0u32..64 {
            let v1: Vec<bool> = (0..4).map(|i| seed & (1 << i) != 0).collect();
            let v2: Vec<bool> = (0..4).map(|i| seed & (32 >> i) != 0).collect();
            let st: Vec<bool> = (0..3).map(|i| seed & (1 << (i + 1)) != 0).collect();
            let w = two_frame_values(&c, &v1, &v2, &st);
            // Exercise the PPO-observation and invalidation paths too.
            let cases: [(&[gdf_netlist::NodeId], &[gdf_netlist::NodeId]); 3] = [
                (&[], &[]),
                (&all_ppos, &[]),
                (&all_ppos[..1], &all_ppos[1..]),
            ];
            for (obs, req) in cases {
                let scalar = detected_delay_faults(&c, &w, &faults, obs, req);
                let packed = detected_delay_faults_packed(&c, &w, &faults, obs, req, &mut scratch);
                assert_eq!(scalar, packed, "seed {seed} obs {obs:?} req {req:?}");
            }
        }
    }

    #[test]
    fn packed_handles_branch_and_dff_branch_faults() {
        // latch: d = NOT(a) feeds a DFF; fan: s branches to y1, y2.
        let mut bld = CircuitBuilder::new("mix");
        bld.add_input("a");
        bld.add_dff("q", "d");
        bld.add_gate("s", GateKind::Not, &["a"]);
        bld.add_gate("d", GateKind::Buf, &["s"]);
        bld.add_gate("y", GateKind::Buf, &["s"]);
        bld.mark_output("y");
        let c = bld.build().unwrap();
        let faults = FaultUniverse::default().delay_faults(&c);
        let d = c.node_by_name("d").unwrap();
        let mut scratch = crate::SimScratch::default();
        for (v1, v2) in [(false, true), (true, false)] {
            for st in [false, true] {
                let w = two_frame_values(&c, &[v1], &[v2], &[st]);
                for obs in [&[][..], &[d][..]] {
                    let scalar = detected_delay_faults(&c, &w, &faults, obs, &[]);
                    let packed =
                        detected_delay_faults_packed(&c, &w, &faults, obs, &[], &mut scratch);
                    assert_eq!(scalar, packed, "{v1}{v2} state {st} obs {obs:?}");
                }
            }
        }
    }

    #[test]
    fn s27_exhaustive_pairs_detect_faults_at_po() {
        let c = gdf_netlist::suite::s27();
        let faults = FaultUniverse::default().delay_faults(&c);
        let mut total_hits = 0usize;
        for v1pat in 0u32..16 {
            for v2pat in 0u32..16 {
                let v1: Vec<bool> = (0..4).map(|i| v1pat & (1 << i) != 0).collect();
                let v2: Vec<bool> = (0..4).map(|i| v2pat & (1 << i) != 0).collect();
                let w = two_frame_values(&c, &v1, &v2, &[false, false, false]);
                let hits = detected_delay_faults(&c, &w, &faults, &[], &[]);
                // Without observable PPOs every hit must be at the PO.
                assert!(hits
                    .iter()
                    .all(|&(_, obs)| matches!(obs, DelayObservation::AtPo(_))));
                total_hits += hits.len();
            }
        }
        assert!(total_hits > 0, "some pair must robustly detect a fault");
    }
}
