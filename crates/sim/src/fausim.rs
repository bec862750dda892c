//! FAUSIM — the sequential fault simulator integrated in SEMILET.
//!
//! Two services (paper §5, phases 1–2):
//!
//! * [`Fausim::propagate_state_diff`] — *"a D or Dbar value is injected at
//!   each PPO that is not steady one or zero. Then FAUSIM performs global
//!   fault simulation by handling the fault effect like a stuck-at fault
//!   that occurs only at the observation point (PPO) in the fast clock time
//!   frame. All later time frames don't consist of this fault"* — i.e. a
//!   pure state difference propagated through fault-free slow-clock frames.
//! * [`Fausim::stuck_at_detection_frame`] — classic serial sequential
//!   single-stuck-at simulation (the fault persists in every frame), the
//!   simulation substrate for SEMILET's standalone static-fault mode.
//!
//! Both run the good and the faulty machine side by side in 3-valued logic;
//! a fault is observed at a PO only when both machines have *known,
//! differing* values there (the safe criterion under unknown state bits).
//!
//! [`Fausim::propagate_state_diffs_packed`] runs 64 state differences at
//! once against good-machine frames computed once by the caller. Each
//! frame starts from the good values and selectively traces only the
//! gates a differing flip-flop reaches, in level order; it stops early
//! once every faulty machine has fallen back into the good state. Each
//! lane's answer depends on its own flip-flop only, so §5 grading
//! ([`crate::grading`]) asks only about the flip-flops whose PPO phase 3
//! found a fault effect at, after the fast-frame traces.

use crate::goodsim::GoodSimulator;
use crate::packed::{eval_packed3_indexed, PackedLogic, SimScratch};
use gdf_algebra::logic3::{eval_gate3, Logic3};
use gdf_netlist::{Circuit, NodeId, StuckFault};

/// Outcome of propagating a latched fault effect toward the POs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropagationOutcome {
    /// First `(frame, po)` at which the good and faulty machine provably
    /// differ, if any. Frames index into the supplied vector sequence.
    pub observed_at: Option<(usize, NodeId)>,
    /// Flip-flops whose good/faulty values still provably differ after the
    /// last supplied frame (the effect is still alive in the state).
    pub surviving_diffs: Vec<NodeId>,
}

impl PropagationOutcome {
    /// Whether the effect reached a primary output.
    pub fn is_observed(&self) -> bool {
        self.observed_at.is_some()
    }
}

/// The sequential fault simulator.
///
/// # Example
///
/// ```
/// use gdf_algebra::Logic3;
/// use gdf_netlist::suite;
/// use gdf_sim::Fausim;
///
/// let c = suite::s27();
/// let fausim = Fausim::new(&c);
/// // Inject a difference on flip-flop G6 (index 1) in the all-zero state
/// // and drive one frame of all-zero inputs.
/// let good = vec![Logic3::Zero; 3];
/// let outcome = fausim.propagate_state_diff(&good, 1, &[vec![Logic3::Zero; 4]]);
/// // G17 = NOT(G11) and G11 = NOR(G5, G9) sees the difference via G8.
/// assert!(outcome.is_observed());
/// ```
#[derive(Debug, Clone)]
pub struct Fausim<'c> {
    circuit: &'c Circuit,
}

impl<'c> Fausim<'c> {
    /// Creates a FAUSIM instance for `circuit`.
    pub fn new(circuit: &'c Circuit) -> Self {
        Fausim { circuit }
    }

    /// The circuit being simulated.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// Propagates a single-bit state difference through fault-free frames.
    ///
    /// The faulty machine starts in `good_state` with flip-flop `diff_dff`
    /// inverted (the bit must be known). Each vector is one slow-clock
    /// frame.
    ///
    /// # Panics
    ///
    /// Panics if `diff_dff` is out of range or `good_state[diff_dff]` is
    /// `X` (a difference must be definite to be latched as D/D̄).
    pub fn propagate_state_diff(
        &self,
        good_state: &[Logic3],
        diff_dff: usize,
        vectors: &[Vec<Logic3>],
    ) -> PropagationOutcome {
        assert!(diff_dff < self.circuit.num_dffs(), "diff_dff out of range");
        let mut faulty_state = good_state.to_vec();
        faulty_state[diff_dff] = good_state[diff_dff]
            .to_bool()
            .map(|b| Logic3::from_bool(!b))
            .expect("state difference must be on a known bit");
        self.run_pair(good_state, &faulty_state, vectors, None)
    }

    /// Word-parallel variant of [`Fausim::propagate_state_diff`]: one
    /// faulty machine per bit lane, all lanes sharing the fault-free
    /// frames. Lane `k` starts in the good state with flip-flop
    /// `diff_dffs[k]` inverted; the returned mask has bit `k` set iff that
    /// lane's difference provably reaches a primary output — lane-wise
    /// identical to `diff_dffs.len()` sequential scalar calls, at the
    /// cost of roughly one.
    ///
    /// `good_frames` holds the fault-free machine's node values for each
    /// frame, as [`GoodSimulator::run`] returns them for the good state
    /// and the frame vectors. Compute them once and hand them to every
    /// chunk of up to 64 differences. Each frame then starts from the
    /// good values and evaluates, in level order, only the gates that a
    /// differing flip-flop reaches.
    ///
    /// # Panics
    ///
    /// Panics if `diff_dffs` has more than 64 entries, or any entry is out
    /// of range or indexes an unknown (`X`) state bit, or a frame does
    /// not have one value per node.
    pub fn propagate_state_diffs_packed(
        &self,
        good_frames: &[Vec<Logic3>],
        diff_dffs: &[usize],
        scratch: &mut SimScratch,
    ) -> u64 {
        assert!(diff_dffs.len() <= 64, "at most 64 lanes per word");
        let circuit = self.circuit;
        assert!(
            diff_dffs.iter().all(|&d| d < circuit.num_dffs()),
            "diff_dff out of range"
        );
        let Some(first) = good_frames.first() else {
            return 0;
        };

        // Per-lane faulty states, starting from the good state.
        scratch.packed_state.clear();
        scratch.packed_state.extend(
            circuit
                .dffs()
                .iter()
                .map(|&ff| PackedLogic::splat(first[ff.index()])),
        );
        for (k, &d) in diff_dffs.iter().enumerate() {
            let flipped = first[circuit.dffs()[d].index()]
                .to_bool()
                .map(|b| Logic3::from_bool(!b))
                .expect("state difference must be on a known bit");
            scratch.packed_state[d].set_lane(k, flipped);
        }

        let lanes_mask = if diff_dffs.len() == 64 {
            !0u64
        } else {
            (1u64 << diff_dffs.len()) - 1
        };
        let mut observed = 0u64;
        let queue = &mut scratch.queue;
        queue.prepare(circuit);
        for good in good_frames {
            assert_eq!(good.len(), circuit.num_nodes(), "good frame length");
            let values = &mut scratch.packed;
            values.clear();
            values.extend(good.iter().map(|&v| PackedLogic::splat(v)));
            // Seed the trace with the flip-flops whose lanes differ from
            // the good machine.
            for (i, &ff) in circuit.dffs().iter().enumerate() {
                let state = scratch.packed_state[i];
                if state != values[ff.index()] {
                    queue.inject(circuit, values, ff, state);
                }
            }
            queue.run(circuit, values, |gate, values| {
                let node = circuit.node(gate);
                eval_packed3_indexed(node.kind(), node.fanin(), values)
            });
            // The next frame rewrites every node.
            queue.forget_touched();
            for &po in circuit.outputs() {
                let f = values[po.index()];
                match good[po.index()].to_bool() {
                    Some(true) => observed |= f.zeros,
                    Some(false) => observed |= f.ones,
                    None => {}
                }
            }
            // Latch the faulty states. Once every lane equals the good
            // machine, nothing can differ in a later frame.
            let mut alive = false;
            for (state, &ppo) in scratch.packed_state.iter_mut().zip(circuit.ppos()) {
                *state = values[ppo.index()];
                alive |= *state != PackedLogic::splat(good[ppo.index()]);
            }
            if !alive || observed & lanes_mask == lanes_mask {
                break;
            }
        }
        observed & lanes_mask
    }

    /// Runs good and faulty machines over `vectors` with an optional
    /// persistent stuck-at `fault` injected in every frame of the faulty
    /// machine, starting both from the given states.
    fn run_pair(
        &self,
        good_state: &[Logic3],
        faulty_state: &[Logic3],
        vectors: &[Vec<Logic3>],
        fault: Option<StuckFault>,
    ) -> PropagationOutcome {
        let sim = GoodSimulator::new(self.circuit);
        let mut gs = good_state.to_vec();
        let mut fs = faulty_state.to_vec();
        let mut observed_at = None;
        for (frame, v) in vectors.iter().enumerate() {
            let gvals = sim.eval_comb(v, &gs);
            let fvals = self.eval_comb_faulty(v, &fs, fault);
            if observed_at.is_none() {
                for &po in self.circuit.outputs() {
                    let g = gvals[po.index()];
                    let f = fvals[po.index()];
                    if let (Some(gb), Some(fb)) = (g.to_bool(), f.to_bool()) {
                        if gb != fb {
                            observed_at = Some((frame, po));
                            break;
                        }
                    }
                }
            }
            gs = sim.next_state(&gvals);
            fs = self
                .circuit
                .dffs()
                .iter()
                .map(|&ff| {
                    let d = self.circuit.ppo_of_dff(ff);
                    // A branch fault on the D edge overrides what the
                    // flip-flop latches (DFFs sit outside the topo loop).
                    if let Some(f) = fault {
                        if let Some((sink, pin)) = f.site.branch {
                            if f.site.stem == d && sink == ff && pin == 0 {
                                return Logic3::from_bool(f.kind.value());
                            }
                        }
                    }
                    fvals[d.index()]
                })
                .collect();
        }
        let surviving_diffs = self
            .circuit
            .dffs()
            .iter()
            .enumerate()
            .filter(|&(i, _)| {
                matches!(
                    (gs[i].to_bool(), fs[i].to_bool()),
                    (Some(a), Some(b)) if a != b
                )
            })
            .map(|(_, &ff)| ff)
            .collect();
        PropagationOutcome {
            observed_at,
            surviving_diffs,
        }
    }

    /// Serial sequential stuck-at simulation: both machines start all-`X`,
    /// the fault persists in every frame of the faulty machine. Returns the
    /// first frame at which a PO provably differs.
    pub fn stuck_at_detection_frame(
        &self,
        fault: StuckFault,
        vectors: &[Vec<Logic3>],
    ) -> Option<usize> {
        let n = self.circuit.num_dffs();
        let all_x = vec![Logic3::X; n];
        self.run_pair(&all_x, &all_x, vectors, Some(fault))
            .observed_at
            .map(|(frame, _)| frame)
    }

    /// Like [`Fausim::stuck_at_detection_frame`], but also reports *which*
    /// primary output observes the fault first.
    pub fn stuck_at_observation(
        &self,
        fault: StuckFault,
        vectors: &[Vec<Logic3>],
    ) -> Option<(usize, NodeId)> {
        let n = self.circuit.num_dffs();
        let all_x = vec![Logic3::X; n];
        self.run_pair(&all_x, &all_x, vectors, Some(fault))
            .observed_at
    }

    /// Evaluates one frame of the faulty machine: the stuck value overrides
    /// the stem (or one branch) of the fault site.
    fn eval_comb_faulty(
        &self,
        pi: &[Logic3],
        state: &[Logic3],
        fault: Option<StuckFault>,
    ) -> Vec<Logic3> {
        let circuit = self.circuit;
        assert_eq!(pi.len(), circuit.num_inputs());
        assert_eq!(state.len(), circuit.num_dffs());
        let mut values = vec![Logic3::X; circuit.num_nodes()];
        for (i, &id) in circuit.inputs().iter().enumerate() {
            values[id.index()] = pi[i];
        }
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            values[ff.index()] = state[i];
        }
        let stem_override = fault.and_then(|f| {
            if f.site.branch.is_none() {
                Some((f.site.stem, Logic3::from_bool(f.kind.value())))
            } else {
                None
            }
        });
        let branch_override = fault.and_then(|f| {
            f.site
                .branch
                .map(|(sink, pin)| (f.site.stem, sink, pin, Logic3::from_bool(f.kind.value())))
        });
        if let Some((stem, v)) = stem_override {
            if !circuit.node(stem).kind().is_combinational() {
                values[stem.index()] = v;
            }
        }
        let mut ins: Vec<Logic3> = Vec::with_capacity(8);
        for (gate, kind, fanins) in circuit.gates_levelized() {
            ins.clear();
            ins.extend(fanins.iter().enumerate().map(|(pin, &f)| {
                if let Some((stem, sink, fpin, v)) = branch_override {
                    if f == stem && sink == gate && fpin == pin as u8 {
                        return v;
                    }
                }
                values[f.index()]
            }));
            let mut out = eval_gate3(kind, &ins);
            if let Some((stem, v)) = stem_override {
                if stem == gate {
                    out = v;
                }
            }
            values[gate.index()] = out;
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_netlist::{suite, CircuitBuilder, FaultSite, GateKind, StuckAtKind};
    use Logic3::{One, Zero};

    #[test]
    fn state_diff_reaches_po_in_s27() {
        let c = suite::s27();
        let fausim = Fausim::new(&c);
        // Difference on G6 (dff index 1): G8 = AND(G14, G6) with G0=0 makes
        // G14=1, exposing G6; trace G8 → G15/G16 → G9 → G11 → G17.
        let good = vec![Zero, Zero, Zero];
        let out = fausim.propagate_state_diff(&good, 1, &[vec![Zero, Zero, Zero, Zero]]);
        assert!(out.is_observed());
    }

    #[test]
    fn state_diff_blocked_by_controlling_inputs() {
        // y = AND(q, en): with en=0 the difference on q never shows.
        let mut b = CircuitBuilder::new("blocked");
        b.add_input("en");
        b.add_input("d_in");
        b.add_dff("q", "d");
        b.add_gate("d", GateKind::Buf, &["d_in"]);
        b.add_gate("y", GateKind::And, &["q", "en"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let fausim = Fausim::new(&c);
        let out = fausim.propagate_state_diff(&[Zero], 0, &[vec![Zero, Zero]]);
        assert!(!out.is_observed());
        assert!(out.surviving_diffs.is_empty(), "difference died with en=0");
        let out = fausim.propagate_state_diff(&[Zero], 0, &[vec![One, Zero]]);
        assert!(out.is_observed());
    }

    #[test]
    fn surviving_difference_tracked() {
        // Shift register: difference takes n frames to reach the output.
        let c = gdf_netlist::generator::shift_register(3);
        let fausim = Fausim::new(&c);
        let good = vec![Zero, Zero, Zero];
        // One frame with shifting enabled: diff moves from q0 to q1.
        let out = fausim.propagate_state_diff(&good, 0, &[vec![Zero, One]]);
        assert!(!out.is_observed());
        assert_eq!(out.surviving_diffs.len(), 1);
        // Three enabled frames: diff on q0 reaches q2 then so.
        let vectors = vec![vec![Zero, One]; 3];
        let out = fausim.propagate_state_diff(&good, 0, &vectors);
        assert!(out.is_observed());
    }

    #[test]
    fn stuck_at_detected_combinational_path() {
        // Single NOT between PI and PO: a sa0 on the input stem flips y.
        let mut b = CircuitBuilder::new("inv");
        b.add_input("a");
        b.add_gate("y", GateKind::Not, &["a"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let fausim = Fausim::new(&c);
        let a = c.node_by_name("a").unwrap();
        let fault = StuckFault {
            site: FaultSite::on_stem(a),
            kind: StuckAtKind::StuckAt0,
        };
        // a=1 exposes sa0.
        assert_eq!(
            fausim.stuck_at_detection_frame(fault, &[vec![One]]),
            Some(0)
        );
        // a=0 does not.
        assert_eq!(fausim.stuck_at_detection_frame(fault, &[vec![Zero]]), None);
    }

    #[test]
    fn branch_fault_differs_from_stem_fault() {
        // s = a; two branches: y1 = AND(s, b), y2 = OR(s, b).
        // A sa0 on branch s→y1 affects y1 only.
        let mut bld = CircuitBuilder::new("branch");
        bld.add_input("a");
        bld.add_input("b");
        bld.add_gate("s", GateKind::Buf, &["a"]);
        bld.add_gate("y1", GateKind::And, &["s", "b"]);
        bld.add_gate("y2", GateKind::Or, &["s", "b"]);
        bld.mark_output("y1");
        bld.mark_output("y2");
        let c = bld.build().unwrap();
        let fausim = Fausim::new(&c);
        let s = c.node_by_name("s").unwrap();
        let y1 = c.node_by_name("y1").unwrap();
        let branch_fault = StuckFault {
            site: FaultSite::on_branch(s, y1, 0),
            kind: StuckAtKind::StuckAt0,
        };
        // a=1, b=1: y1 good=1 faulty=0 → detected; y2 unaffected (stem fine).
        let vectors = vec![vec![One, One]];
        assert_eq!(
            fausim.stuck_at_detection_frame(branch_fault, &vectors),
            Some(0)
        );
        // With b=0, y1 is 0 either way and y2 masks through b? y2 = OR(s,0)=s;
        // the branch to y2 is fault-free so y2 good=faulty → undetected.
        let vectors = vec![vec![One, Zero]];
        assert_eq!(
            fausim.stuck_at_detection_frame(branch_fault, &vectors),
            None
        );
    }

    #[test]
    fn sequential_stuck_at_needs_initialization() {
        // Fault on the shift-register input propagates only after enough
        // enabled frames.
        let c = gdf_netlist::generator::shift_register(2);
        let fausim = Fausim::new(&c);
        let si = c.node_by_name("si").unwrap();
        let fault = StuckFault {
            site: FaultSite::on_stem(si),
            kind: StuckAtKind::StuckAt0,
        };
        // Drive si=1 with enable on: good shifts 1s, faulty shifts 0s.
        let vectors = vec![vec![One, One]; 3];
        assert_eq!(fausim.stuck_at_detection_frame(fault, &vectors), Some(2));
        // Too short a sequence: not detected yet.
        let vectors = vec![vec![One, One]; 2];
        assert_eq!(fausim.stuck_at_detection_frame(fault, &vectors), None);
    }

    #[test]
    fn packed_state_diffs_match_scalar_on_s27() {
        let c = suite::s27();
        let fausim = Fausim::new(&c);
        let mut scratch = crate::SimScratch::default();
        // All 8 known states × a few vector sequences, every dff diffed.
        for state_bits in 0u32..8 {
            let good: Vec<Logic3> = (0..3)
                .map(|i| Logic3::from_bool(state_bits & (1 << i) != 0))
                .collect();
            for seed in 0u32..8 {
                let vectors: Vec<Vec<Logic3>> = (0..2)
                    .map(|f| {
                        (0..4)
                            .map(|i| Logic3::from_bool(seed & (1 << ((i + f) % 4)) != 0))
                            .collect()
                    })
                    .collect();
                let diffs: Vec<usize> = (0..3).collect();
                let (frames, _) = GoodSimulator::new(&c).run(&good, &vectors);
                let mask = fausim.propagate_state_diffs_packed(&frames, &diffs, &mut scratch);
                for (k, &d) in diffs.iter().enumerate() {
                    let scalar = fausim.propagate_state_diff(&good, d, &vectors);
                    assert_eq!(
                        mask >> k & 1 == 1,
                        scalar.is_observed(),
                        "state {state_bits:03b} seed {seed} dff {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_state_diffs_handle_shift_register_lanes() {
        let c = gdf_netlist::generator::shift_register(3);
        let fausim = Fausim::new(&c);
        let mut scratch = crate::SimScratch::default();
        let good = vec![Zero; 3];
        let vectors = vec![vec![Zero, One]; 3];
        let (frames, _) = GoodSimulator::new(&c).run(&good, &vectors);
        let mask = fausim.propagate_state_diffs_packed(&frames, &[0, 1, 2], &mut scratch);
        for d in 0..3 {
            let scalar = fausim.propagate_state_diff(&good, d, &vectors);
            assert_eq!(mask >> d & 1 == 1, scalar.is_observed(), "dff {d}");
        }
    }
}
