//! Transition-fault simulation of the fast time frame: phase 3 of §5
//! grading for the gross-delay (transition) model, next to
//! [`crate::tdsim`] for the robust one.
//!
//! A transition fault is detected when the launched transition arrives
//! at the fault site (`R` for slow-to-rise, `F` for slow-to-fall in the
//! fault-free waveform) and the *final-value* difference it leaves
//! behind — the site still holds its frame-1 value at capture — reaches
//! an observation point. That is the classic non-robust condition:
//! off-path inputs only need non-controlling final values; hazards may
//! invalidate the test on silicon but do not block detection here.
//!
//! The observation and invalidation frame is shared with the robust
//! simulator: a fault observed only at a PPO counts when (a) the
//! propagation phase proved that PPO observable and (b) the final-value
//! difference cannot corrupt any state bit the propagation relies on.
//!
//! [`detected_transition_faults_packed`] runs the phase-3 driver both
//! models share with one `u64` word of final values per node: each
//! provoked fault is resolved to the fanout-free-region root its flipped
//! final value reaches, and each such root is traced once, one per bit
//! lane, evaluating only the gates a flipped final value reaches, in
//! level order. The scalar [`detected_transition_faults`] is the
//! reference the packed path is differential-tested against.

use crate::packed::SimScratch;
use crate::phase3;
use crate::tdsim::DelayObservation;
use gdf_algebra::delay::DelayValue;
use gdf_netlist::{Circuit, DelayFaultKind, NodeId, TransitionFault};

/// Simulates all candidate transition `faults` against one two-pattern
/// test, with the same observation inputs as
/// [`crate::tdsim::detected_delay_faults`]:
///
/// * `waveform` — fault-free two-frame values from
///   [`crate::waveform::two_frame_values`];
/// * `observable_ppos` — PPO nets the propagation phase proved
///   observable;
/// * `required_state_ppos` — PPO nets whose steady values the
///   propagation phase relies on (the invalidation rule).
///
/// Returns `(fault index, observation)` pairs for every detected fault,
/// in fault-list order.
pub fn detected_transition_faults(
    circuit: &Circuit,
    waveform: &[DelayValue],
    faults: &[TransitionFault],
    observable_ppos: &[NodeId],
    required_state_ppos: &[NodeId],
) -> Vec<(usize, DelayObservation)> {
    assert_eq!(waveform.len(), circuit.num_nodes(), "waveform length");
    let mut detected = Vec::new();
    let mut faulty: Vec<bool> = Vec::new();
    for (idx, &fault) in faults.iter().enumerate() {
        let needed = match fault.kind {
            DelayFaultKind::SlowToRise => DelayValue::R,
            DelayFaultKind::SlowToFall => DelayValue::F,
        };
        if waveform[fault.site.stem.index()] != needed {
            continue; // fault not provoked by this vector pair
        }
        if let Some((sink, _)) = fault.site.branch {
            if !circuit.node(sink).kind().is_combinational() {
                // A branch into a flip-flop latches the faulty value
                // straight into that PPO: detection is phase-2
                // observability plus invalidation.
                let ppo = fault.site.stem;
                if observable_ppos.contains(&ppo)
                    && required_state_ppos
                        .iter()
                        .all(|&req| req == ppo || waveform[req.index()].is_steady_clean())
                {
                    detected.push((idx, DelayObservation::AtPpo(ppo)));
                }
                continue;
            }
        }

        // Faulty frame-2 values: start from the good final values, flip
        // the site, re-evaluate the fault's output cone.
        faulty.clear();
        faulty.extend(waveform.iter().map(|v| v.final_value()));
        let seed = match fault.site.branch {
            None => {
                faulty[fault.site.stem.index()] = !faulty[fault.site.stem.index()];
                fault.site.stem
            }
            Some((sink, _)) => sink,
        };
        let faulty_stem = !waveform[fault.site.stem.index()].final_value();
        let mut ins: Vec<bool> = Vec::with_capacity(8);
        for (gate, kind, fanins) in circuit.gates_levelized() {
            if !circuit.cone_contains(seed, gate) {
                continue;
            }
            if gate == fault.site.stem && fault.site.branch.is_none() {
                continue; // the slow site holds its stale value
            }
            ins.clear();
            ins.extend(fanins.iter().enumerate().map(|(pin, &f)| {
                if let Some((sink, fpin)) = fault.site.branch {
                    if f == fault.site.stem && sink == gate && fpin == pin as u8 {
                        return faulty_stem;
                    }
                }
                faulty[f.index()]
            }));
            faulty[gate.index()] = kind.eval_bool(&ins);
        }

        let differs = |n: NodeId| faulty[n.index()] != waveform[n.index()].final_value();
        if let Some(&po) = circuit.outputs().iter().find(|&&po| differs(po)) {
            detected.push((idx, DelayObservation::AtPo(po)));
            continue;
        }
        let Some(&ppo) = circuit
            .ppos()
            .iter()
            .find(|&&ppo| differs(ppo) && observable_ppos.contains(&ppo))
        else {
            continue;
        };
        let invalidated = required_state_ppos
            .iter()
            .any(|&req| req != ppo && (differs(req) || !waveform[req.index()].is_steady_clean()));
        if !invalidated {
            detected.push((idx, DelayObservation::AtPpo(ppo)));
        }
    }
    detected
}

/// Word-parallel variant of [`detected_transition_faults`]: resolves each
/// provoked fault to the fanout-free-region root its flipped final value
/// reaches and traces up to 64 such roots per selective trace, one per
/// bit lane, each lane holding a frame-2 value and any difference from
/// the good final value marking the fault effect. Results are
/// element-identical to the scalar function. A PPO counts as observable
/// only if it is in `observable_ppos`.
///
/// The trace is the phase-3 driver [`crate::tdsim`] shares, which
/// evaluates only the gates a flipped final value reaches. Skipping the
/// other gates is exact because `waveform` must be *consistent*: every
/// gate holds its gate function of its fanins' values, as
/// [`crate::waveform::two_frame_values`] and phase 1 of
/// [`crate::grading`] produce it.
///
/// # Panics
///
/// Panics if `waveform` does not have one value per node.
pub fn detected_transition_faults_packed(
    circuit: &Circuit,
    waveform: &[DelayValue],
    faults: &[TransitionFault],
    observable_ppos: &[NodeId],
    required_state_ppos: &[NodeId],
    scratch: &mut SimScratch,
) -> Vec<(usize, DelayObservation)> {
    let sites = faults.iter().map(|f| (f.site, f.kind));
    phase3::detect_given::<u64>(
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

    fn fault(site: FaultSite, kind: DelayFaultKind) -> TransitionFault {
        TransitionFault { site, kind }
    }

    #[test]
    fn transition_detection_is_nonrobust() {
        // y = AND(a, b): a falls while b rises. The robust simulator
        // rejects this test (off-path input not steady); the transition
        // model accepts it: the final values alone expose the slow fall.
        let mut bld = CircuitBuilder::new("nonrobust");
        bld.add_input("a");
        bld.add_input("b");
        bld.add_gate("y", GateKind::And, &["a", "b"]);
        bld.mark_output("y");
        let c = bld.build().unwrap();
        let a = c.node_by_name("a").unwrap();
        let tf = fault(FaultSite::on_stem(a), DelayFaultKind::SlowToFall);
        let w = two_frame_values(&c, &[true, false], &[false, true], &[]);
        let robust_twin = gdf_netlist::DelayFault {
            site: tf.site,
            kind: tf.kind,
        };
        assert!(
            crate::tdsim::detected_delay_faults(&c, &w, &[robust_twin], &[], &[]).is_empty(),
            "robust model must reject the glitchy side input"
        );
        assert_eq!(
            detected_transition_faults(&c, &w, &[tf], &[], &[]).len(),
            1,
            "transition model needs only the final-value difference"
        );
    }

    #[test]
    fn unprovoked_faults_are_screened() {
        let mut bld = CircuitBuilder::new("screen");
        bld.add_input("a");
        bld.add_gate("y", GateKind::Buf, &["a"]);
        bld.mark_output("y");
        let c = bld.build().unwrap();
        let a = c.node_by_name("a").unwrap();
        let w = two_frame_values(&c, &[false], &[true], &[]);
        // a rises: only the slow-to-rise fault is provoked.
        let faults = [
            fault(FaultSite::on_stem(a), DelayFaultKind::SlowToRise),
            fault(FaultSite::on_stem(a), DelayFaultKind::SlowToFall),
        ];
        let hits = detected_transition_faults(&c, &w, &faults, &[], &[]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 0);
    }

    #[test]
    fn packed_matches_scalar_on_s27_and_a_1k_gate_circuit() {
        // s27 exhaustively, then a generated 1k-gate circuit (over 30
        // levels deep, several batches per waveform), then s27 again —
        // all on one scratch.
        use gdf_netlist::generator::{generate, CircuitProfile};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let s27 = gdf_netlist::suite::s27();
        let large = generate(&CircuitProfile::new("tf1k", 16, 12, 80, 1200, 0x7F51));
        assert!(large.max_level() > 30, "depth {}", large.max_level());
        let mut scratch = SimScratch::default();
        let mut rng = StdRng::seed_from_u64(0x7F51);
        for (c, seeds) in [(&s27, 64), (&large, 6), (&s27, 8)] {
            let faults = FaultUniverse::default().transition_faults(c);
            let all_ppos = c.ppos().to_vec();
            for seed in 0u32..seeds {
                let (v1, v2, st): (Vec<bool>, Vec<bool>, Vec<bool>) = if c.num_gates() < 100 {
                    (
                        (0..4).map(|i| seed & (1 << i) != 0).collect(),
                        (0..4).map(|i| seed & (32 >> i) != 0).collect(),
                        (0..3).map(|i| seed & (1 << (i + 1)) != 0).collect(),
                    )
                } else {
                    (
                        (0..c.num_inputs()).map(|_| rng.gen()).collect(),
                        (0..c.num_inputs()).map(|_| rng.gen()).collect(),
                        (0..c.num_dffs()).map(|_| rng.gen()).collect(),
                    )
                };
                let w = two_frame_values(c, &v1, &v2, &st);
                let cases: [(&[NodeId], &[NodeId]); 3] = [
                    (&[], &[]),
                    (&all_ppos, &[]),
                    (&all_ppos[..1], &all_ppos[1..]),
                ];
                for (obs, req) in cases {
                    let scalar = detected_transition_faults(c, &w, &faults, obs, req);
                    let packed =
                        detected_transition_faults_packed(c, &w, &faults, obs, req, &mut scratch);
                    assert_eq!(scalar, packed, "seed {seed} obs {obs:?} req {req:?}");
                }
            }
        }
    }

    #[test]
    fn transition_detects_superset_of_robust_on_s27() {
        // Every robustly detected delay fault's transition twin is also
        // detected (non-robust is strictly weaker), for every pattern
        // pair of the sweep.
        let c = gdf_netlist::suite::s27();
        let delay = FaultUniverse::default().delay_faults(&c);
        let transition = FaultUniverse::default().transition_faults(&c);
        for seed in 0u32..64 {
            let v1: Vec<bool> = (0..4).map(|i| seed & (1 << i) != 0).collect();
            let v2: Vec<bool> = (0..4).map(|i| seed & (32 >> i) != 0).collect();
            let w = two_frame_values(&c, &v1, &v2, &[false, true, false]);
            let robust: Vec<usize> = crate::tdsim::detected_delay_faults(&c, &w, &delay, &[], &[])
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            let tf: Vec<usize> = detected_transition_faults(&c, &w, &transition, &[], &[])
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            for k in &robust {
                assert!(tf.contains(k), "seed {seed}: robust hit {k} lost");
            }
        }
    }

    #[test]
    fn branch_and_dff_branch_faults() {
        let mut bld = CircuitBuilder::new("mix");
        bld.add_input("a");
        bld.add_dff("q", "d");
        bld.add_gate("s", GateKind::Not, &["a"]);
        bld.add_gate("d", GateKind::Buf, &["s"]);
        bld.add_gate("y", GateKind::Buf, &["s"]);
        bld.mark_output("y");
        let c = bld.build().unwrap();
        let faults = FaultUniverse::default().transition_faults(&c);
        let d = c.node_by_name("d").unwrap();
        let mut scratch = SimScratch::default();
        for (v1, v2) in [(false, true), (true, false)] {
            for st in [false, true] {
                let w = two_frame_values(&c, &[v1], &[v2], &[st]);
                for obs in [&[][..], &[d][..]] {
                    let scalar = detected_transition_faults(&c, &w, &faults, obs, &[]);
                    let packed =
                        detected_transition_faults_packed(&c, &w, &faults, obs, &[], &mut scratch);
                    assert_eq!(scalar, packed, "{v1}{v2} state {st} obs {obs:?}");
                }
            }
        }
    }
}
