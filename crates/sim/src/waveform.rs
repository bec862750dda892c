//! Two-frame waveform evaluation over the (clean) delay algebra.
//!
//! Given the two vectors `(V1, V2)` of a two-pattern test and the circuit
//! state in the initial frame, every net gets one [`DelayValue`] out of the
//! six *clean* values `{0, 1, R, F, 0h, 1h}` describing its behaviour
//! across the frame pair. Endpoint (frame-1/frame-2) values match plain
//! binary simulation by construction; the hazard marks come from the
//! algebra itself. This is the fault-free waveform TDsim traces.
//!
//! [`two_frame_values`] is the scalar oracle: production grading builds
//! the same waveform for up to 64 sequences at once on the packed
//! algebra ([`crate::grading::simulate_batch`]).

use gdf_algebra::delay::{eval_gate, DelayValue};
use gdf_netlist::Circuit;

/// Computes the clean two-frame value of every net.
///
/// * `v1`, `v2` — the PI vectors of the initial and test frame;
/// * `state1` — the flip-flop state in the initial frame (fully specified:
///   X-fill must happen before calling, as in FAUSIM phase 1).
///
/// The flip-flop outputs take `state1[i]` in frame 1 and, in frame 2, the
/// value their PPO computes in frame 1 (the state register correlation of
/// the paper).
///
/// # Panics
///
/// Panics if the vector lengths do not match the circuit.
///
/// # Example
///
/// ```
/// use gdf_netlist::suite;
/// use gdf_sim::two_frame_values;
///
/// let c = suite::s27();
/// let w = two_frame_values(
///     &c,
///     &[false, false, false, false],
///     &[true, false, false, false],
///     &[false, false, false],
/// );
/// let g14 = c.node_by_name("G14").unwrap();
/// // G14 = NOT(G0): input rises 0→1, so G14 falls.
/// assert_eq!(w[g14.index()], gdf_algebra::DelayValue::F);
/// ```
pub fn two_frame_values(
    circuit: &Circuit,
    v1: &[bool],
    v2: &[bool],
    state1: &[bool],
) -> Vec<DelayValue> {
    assert_eq!(v1.len(), circuit.num_inputs(), "V1 length");
    assert_eq!(v2.len(), circuit.num_inputs(), "V2 length");
    assert_eq!(state1.len(), circuit.num_dffs(), "state length");

    // Pass 1: frame-1 binary values, to latch the frame-2 state.
    let mut f1 = vec![false; circuit.num_nodes()];
    for (i, &pi) in circuit.inputs().iter().enumerate() {
        f1[pi.index()] = v1[i];
    }
    for (i, &ff) in circuit.dffs().iter().enumerate() {
        f1[ff.index()] = state1[i];
    }
    let mut ins_bool: Vec<bool> = Vec::with_capacity(8);
    for (gate, kind, fanins) in circuit.gates_levelized() {
        ins_bool.clear();
        ins_bool.extend(fanins.iter().map(|f| f1[f.index()]));
        f1[gate.index()] = kind.eval_bool(&ins_bool);
    }

    // Pass 2: delay-algebra evaluation with clean leaf values.
    let mut w = vec![DelayValue::S0; circuit.num_nodes()];
    for (i, &pi) in circuit.inputs().iter().enumerate() {
        w[pi.index()] = DelayValue::from_frames(v1[i], v2[i]);
    }
    for (i, &ff) in circuit.dffs().iter().enumerate() {
        let latched = f1[circuit.ppo_of_dff(ff).index()];
        w[ff.index()] = DelayValue::from_frames(state1[i], latched);
    }
    let mut ins: Vec<DelayValue> = Vec::with_capacity(8);
    for (gate, kind, fanins) in circuit.gates_levelized() {
        ins.clear();
        ins.extend(fanins.iter().map(|f| w[f.index()]));
        w[gate.index()] = eval_gate(kind, &ins);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_netlist::{suite, CircuitBuilder, GateKind};

    #[test]
    fn endpoints_match_binary_simulation() {
        let c = suite::s27();
        // Exhaustive over a sample of vector pairs and states.
        for seed in 0u32..64 {
            let v1: Vec<bool> = (0..4).map(|i| seed & (1 << i) != 0).collect();
            let v2: Vec<bool> = (0..4).map(|i| seed & (8 >> i) != 0).collect();
            let st: Vec<bool> = (0..3).map(|i| seed & (1 << (i + 2)) != 0).collect();
            let w = two_frame_values(&c, &v1, &v2, &st);

            // Frame-1 endpoint check.
            let mut f1 = vec![false; c.num_nodes()];
            for (i, &pi) in c.inputs().iter().enumerate() {
                f1[pi.index()] = v1[i];
            }
            for (i, &ff) in c.dffs().iter().enumerate() {
                f1[ff.index()] = st[i];
            }
            for &g in c.topo_order() {
                let node = c.node(g);
                let ins: Vec<bool> = node.fanin().iter().map(|&f| f1[f.index()]).collect();
                f1[g.index()] = node.kind().eval_bool(&ins);
            }
            // Frame-2 endpoint check with latched state.
            let st2: Vec<bool> = c
                .dffs()
                .iter()
                .map(|&ff| f1[c.ppo_of_dff(ff).index()])
                .collect();
            let mut f2 = vec![false; c.num_nodes()];
            for (i, &pi) in c.inputs().iter().enumerate() {
                f2[pi.index()] = v2[i];
            }
            for (i, &ff) in c.dffs().iter().enumerate() {
                f2[ff.index()] = st2[i];
            }
            for &g in c.topo_order() {
                let node = c.node(g);
                let ins: Vec<bool> = node.fanin().iter().map(|&f| f2[f.index()]).collect();
                f2[g.index()] = node.kind().eval_bool(&ins);
            }
            for idx in 0..c.num_nodes() {
                assert_eq!(w[idx].initial(), f1[idx], "node {idx} frame 1 seed {seed}");
                assert_eq!(
                    w[idx].final_value(),
                    f2[idx],
                    "node {idx} frame 2 seed {seed}"
                );
            }
        }
    }

    #[test]
    fn hazard_detected_on_reconvergence() {
        // y = AND(a, NOT(a)): statically 0, but an input transition makes
        // the output hazardous.
        let mut b = CircuitBuilder::new("haz");
        b.add_input("a");
        b.add_gate("n", GateKind::Not, &["a"]);
        b.add_gate("y", GateKind::And, &["a", "n"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let y = c.node_by_name("y").unwrap();

        let steady = two_frame_values(&c, &[false], &[false], &[]);
        assert_eq!(
            steady[y.index()],
            DelayValue::S0,
            "no transition, no hazard"
        );

        let rising = two_frame_values(&c, &[false], &[true], &[]);
        assert_eq!(rising[y.index()], DelayValue::H0, "R∧F gives a 0-hazard");
    }

    #[test]
    fn dff_correlation() {
        // q's frame-2 value is d's frame-1 value.
        let mut b = CircuitBuilder::new("corr");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_gate("d", GateKind::Not, &["q"]);
        b.add_gate("y", GateKind::Xor, &["a", "q"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let q = c.node_by_name("q").unwrap();
        // state1 = [0]: d = NOT(0) = 1 in frame 1, so q rises.
        let w = two_frame_values(&c, &[false], &[false], &[false]);
        assert_eq!(w[q.index()], DelayValue::R);
        // state1 = [1]: d = 0 in frame 1, so q falls.
        let w = two_frame_values(&c, &[false], &[false], &[true]);
        assert_eq!(w[q.index()], DelayValue::F);
    }

    #[test]
    fn no_fault_marks_in_clean_waveform() {
        let c = suite::s27();
        let w = two_frame_values(
            &c,
            &[true, false, true, false],
            &[false, true, false, true],
            &[true, false, true],
        );
        assert!(w.iter().all(|v| !v.carries_fault()));
    }
}
