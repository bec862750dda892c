//! Scalar good-machine logic simulation.
//!
//! [`GoodSimulator`] is the 3-valued sequential simulator: it evaluates
//! the combinational block in topological order and steps the state
//! registers, starting (by default) from the all-`X` power-up state.
//! Production §5 grading runs phase 1 on the packed
//! [`PackedGoodSim`](crate::PackedGoodSim), one test sequence per bit
//! lane; `GoodSimulator` is its oracle — the good machine of the scalar
//! reference grader (`gdf_core::DelayAtpg::fault_simulate_sequence_scalar`)
//! and of FAUSIM's scalar walks, including the stuck-at mode SEMILET
//! runs standalone.

use gdf_algebra::logic3::Logic3;
use gdf_netlist::{Circuit, GateKind, NodeId};

/// Evaluates one gate over node values addressed through its fanin list —
/// the fold-direct twin of [`gdf_algebra::logic3::eval_gate3`] (same fold
/// order, so identical results), without gathering an input `Vec`.
fn eval3_indexed(kind: GateKind, fanins: &[NodeId], values: &[Logic3]) -> Logic3 {
    let v = |f: &NodeId| values[f.index()];
    match kind {
        GateKind::Buf => v(&fanins[0]),
        GateKind::Not => v(&fanins[0]).not(),
        GateKind::And => fanins.iter().fold(Logic3::One, |a, f| a.and(v(f))),
        GateKind::Nand => fanins.iter().fold(Logic3::One, |a, f| a.and(v(f))).not(),
        GateKind::Or => fanins.iter().fold(Logic3::Zero, |a, f| a.or(v(f))),
        GateKind::Nor => fanins.iter().fold(Logic3::Zero, |a, f| a.or(v(f))).not(),
        GateKind::Xor => fanins.iter().fold(Logic3::Zero, |a, f| a.xor(v(f))),
        GateKind::Xnor => fanins.iter().fold(Logic3::Zero, |a, f| a.xor(v(f))).not(),
        GateKind::Input | GateKind::Dff => {
            panic!("eval3_indexed called on non-combinational kind {kind:?}")
        }
    }
}

/// Three-valued sequential simulator for a [`Circuit`]: the scalar oracle
/// of the packed [`PackedGoodSim`](crate::PackedGoodSim) that production
/// grading runs.
///
/// # Example
///
/// ```
/// use gdf_algebra::Logic3;
/// use gdf_netlist::suite;
/// use gdf_sim::GoodSimulator;
///
/// let c = suite::s27();
/// let sim = GoodSimulator::new(&c);
/// let state = sim.initial_state(); // all X (unknown power-up)
/// let vals = sim.eval_comb(&[Logic3::Zero; 4], &state);
/// assert_eq!(vals.len(), c.num_nodes());
/// ```
#[derive(Debug, Clone)]
pub struct GoodSimulator<'c> {
    circuit: &'c Circuit,
}

impl<'c> GoodSimulator<'c> {
    /// Creates a simulator for `circuit`.
    pub fn new(circuit: &'c Circuit) -> Self {
        GoodSimulator { circuit }
    }

    /// The circuit being simulated.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The unknown power-up state: one `X` per flip-flop.
    pub fn initial_state(&self) -> Vec<Logic3> {
        vec![Logic3::X; self.circuit.num_dffs()]
    }

    /// Evaluates the combinational block for one time frame.
    ///
    /// `pi` holds one value per primary input (in [`Circuit::inputs`]
    /// order), `state` one value per flip-flop. Returns one value per node.
    ///
    /// # Panics
    ///
    /// Panics if `pi` or `state` have the wrong length.
    pub fn eval_comb(&self, pi: &[Logic3], state: &[Logic3]) -> Vec<Logic3> {
        let mut values = Vec::new();
        self.eval_comb_into(pi, state, &mut values);
        values
    }

    /// Allocation-free variant of [`GoodSimulator::eval_comb`]: writes the
    /// node values into `values`, reusing its capacity.
    ///
    /// # Panics
    ///
    /// Panics if `pi` or `state` have the wrong length.
    pub fn eval_comb_into(&self, pi: &[Logic3], state: &[Logic3], values: &mut Vec<Logic3>) {
        assert_eq!(pi.len(), self.circuit.num_inputs(), "PI vector length");
        assert_eq!(state.len(), self.circuit.num_dffs(), "state vector length");
        values.clear();
        values.resize(self.circuit.num_nodes(), Logic3::X);
        for (i, &id) in self.circuit.inputs().iter().enumerate() {
            values[id.index()] = pi[i];
        }
        for (i, &ff) in self.circuit.dffs().iter().enumerate() {
            values[ff.index()] = state[i];
        }
        for (gate, kind, fanins) in self.circuit.gates_levelized() {
            values[gate.index()] = eval3_indexed(kind, fanins, values);
        }
    }

    /// Extracts the next state (latched PPO values) from a node-value map.
    pub fn next_state(&self, values: &[Logic3]) -> Vec<Logic3> {
        self.circuit
            .ppos()
            .iter()
            .map(|&ppo| values[ppo.index()])
            .collect()
    }

    /// Extracts the PO values from a node-value map.
    pub fn outputs(&self, values: &[Logic3]) -> Vec<Logic3> {
        self.circuit
            .outputs()
            .iter()
            .map(|&po| values[po.index()])
            .collect()
    }

    /// Runs a vector sequence from `state`, returning the per-frame node
    /// values and the final state.
    ///
    /// # Panics
    ///
    /// Panics if any vector has the wrong length.
    pub fn run(
        &self,
        state: &[Logic3],
        vectors: &[Vec<Logic3>],
    ) -> (Vec<Vec<Logic3>>, Vec<Logic3>) {
        let mut st = state.to_vec();
        let mut frames = Vec::with_capacity(vectors.len());
        for v in vectors {
            let values = self.eval_comb(v, &st);
            st = self.next_state(&values);
            frames.push(values);
        }
        (frames, st)
    }

    /// Value of one node in a node-value map.
    pub fn value(&self, values: &[Logic3], id: NodeId) -> Logic3 {
        values[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_netlist::{suite, CircuitBuilder, GateKind};
    use Logic3::{One, Zero, X};

    #[test]
    fn s27_known_response() {
        let c = suite::s27();
        let sim = GoodSimulator::new(&c);
        // With all inputs 0 and all state bits 0:
        // G14=NOT(G0)=1, G12=NOR(G1,G7)=1, G8=AND(G14,G6)=0,
        // G15=OR(G12,G8)=1, G16=OR(G3,G8)=0, G9=NAND(G16,G15)=1,
        // G10=NOR(G14,G11), G11=NOR(G5,G9)=NOR(0,1)=0, G13=NOR(G2,G12)=0,
        // G17=NOT(G11)=1.
        let vals = sim.eval_comb(&[Zero; 4], &[Zero, Zero, Zero]);
        let get = |n: &str| sim.value(&vals, c.node_by_name(n).unwrap());
        assert_eq!(get("G14"), One);
        assert_eq!(get("G11"), Zero);
        assert_eq!(get("G17"), One);
        assert_eq!(get("G10"), Zero); // NOR(1, 0) = 0
        let next = sim.next_state(&vals);
        assert_eq!(next, vec![Zero, Zero, Zero]);
    }

    #[test]
    fn x_propagates_from_unknown_state() {
        let c = suite::s27();
        let sim = GoodSimulator::new(&c);
        let vals = sim.eval_comb(&[Zero; 4], &sim.initial_state());
        // G11 = NOR(G5, G9): G5 is X, G9 = NAND(G16, G15) where G8 = AND(1, X) = X.
        let g11 = sim.value(&vals, c.node_by_name("G11").unwrap());
        assert_eq!(g11, X);
    }

    #[test]
    fn run_sequence_converges_s27() {
        // Driving s27 with a fixed input for a few cycles synchronizes some
        // state bits even from all-X.
        let c = suite::s27();
        let sim = GoodSimulator::new(&c);
        let vecs = vec![vec![One, One, One, One]; 4];
        let (_frames, final_state) = sim.run(&sim.initial_state(), &vecs);
        // G14 = NOT(1) = 0, so G10 = NOR(0, G11); G12 = NOR(1, X) = 0;
        // G13 = NOR(1, 0) = 0 -> G7 becomes 0 after one frame.
        assert_eq!(final_state[2], Zero);
    }

    #[test]
    fn buffer_chain_delay_free_propagation() {
        let mut b = CircuitBuilder::new("chain");
        b.add_input("a");
        b.add_gate("b1", GateKind::Buf, &["a"]);
        b.add_gate("b2", GateKind::Not, &["b1"]);
        b.mark_output("b2");
        let c = b.build().unwrap();
        let sim = GoodSimulator::new(&c);
        let vals = sim.eval_comb(&[One], &[]);
        assert_eq!(sim.outputs(&vals), vec![Zero]);
    }

    #[test]
    #[should_panic]
    fn wrong_pi_length_panics() {
        let c = suite::s27();
        let sim = GoodSimulator::new(&c);
        let _ = sim.eval_comb(&[Zero; 3], &[Zero; 3]);
    }
}
