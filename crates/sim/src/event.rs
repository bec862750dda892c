//! Event-driven incremental logic simulation.
//!
//! [`GoodSimulator`](crate::goodsim::GoodSimulator) re-evaluates the whole
//! combinational block every frame. For workloads that change few inputs
//! between evaluations — serial fault simulation, sequence re-simulation
//! during compaction, interactive what-if analysis — an event-driven
//! simulator only touches the cone of the changed nets. [`EventSimulator`]
//! keeps the full node-value state resident and propagates *events*
//! (value changes) in level order, which is the classic selective-trace
//! technique the 1990s fault simulators (including FAUSIM) were built on.

use crate::goodsim::eval3_indexed;
use crate::packed::LevelQueue;
use gdf_algebra::logic3::Logic3;
use gdf_netlist::{Circuit, NodeId};

/// Incremental 3-valued simulator with selective trace.
///
/// # Example
///
/// ```
/// use gdf_algebra::Logic3;
/// use gdf_netlist::suite;
/// use gdf_sim::event::EventSimulator;
///
/// let c = suite::s27();
/// let mut sim = EventSimulator::new(&c);
/// sim.set_inputs(&[Logic3::Zero; 4]);
/// sim.set_state(&[Logic3::Zero; 3]);
/// sim.settle();
/// let g17 = c.node_by_name("G17").unwrap();
/// assert_eq!(sim.value(g17), Logic3::One);
///
/// // Flip one input: only its cone re-evaluates.
/// sim.set_input(0, Logic3::One);
/// let touched = sim.settle();
/// assert!(touched < c.num_gates());
/// ```
#[derive(Debug, Clone)]
pub struct EventSimulator<'c> {
    circuit: &'c Circuit,
    values: Vec<Logic3>,
    /// Gates awaiting re-evaluation, in level order (a gate is evaluated
    /// at most once per settle pass).
    queue: LevelQueue,
}

impl<'c> EventSimulator<'c> {
    /// Creates a simulator with every net at `X`.
    pub fn new(circuit: &'c Circuit) -> Self {
        let mut queue = LevelQueue::default();
        queue.prepare(circuit);
        EventSimulator {
            circuit,
            values: vec![Logic3::X; circuit.num_nodes()],
            queue,
        }
    }

    /// The circuit being simulated.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// Current value of a net (valid after [`EventSimulator::settle`]).
    pub fn value(&self, id: NodeId) -> Logic3 {
        self.values[id.index()]
    }

    /// Sets one primary input, scheduling its fanout if the value changed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_input(&mut self, index: usize, v: Logic3) {
        let id = self.circuit.inputs()[index];
        self.drive_source(id, v);
    }

    /// Sets all primary inputs.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len()` differs from the input count.
    pub fn set_inputs(&mut self, pi: &[Logic3]) {
        assert_eq!(pi.len(), self.circuit.num_inputs(), "PI vector length");
        for (i, &v) in pi.iter().enumerate() {
            self.set_input(i, v);
        }
    }

    /// Sets one state bit (flip-flop output).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_state_bit(&mut self, index: usize, v: Logic3) {
        let id = self.circuit.dffs()[index];
        self.drive_source(id, v);
    }

    /// Sets the whole state vector.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the flip-flop count.
    pub fn set_state(&mut self, state: &[Logic3]) {
        assert_eq!(state.len(), self.circuit.num_dffs(), "state vector length");
        for (i, &v) in state.iter().enumerate() {
            self.set_state_bit(i, v);
        }
    }

    fn drive_source(&mut self, id: NodeId, v: Logic3) {
        if self.values[id.index()] == v {
            return;
        }
        self.values[id.index()] = v;
        self.queue.schedule_fanout(self.circuit, id);
    }

    /// Propagates all pending events to a fixpoint; returns the number of
    /// gate evaluations performed (the "activity" of this settle pass).
    pub fn settle(&mut self) -> usize {
        let circuit = self.circuit;
        let evaluated = self.queue.run(circuit, &mut self.values, |gate, values| {
            let node = circuit.node(gate);
            eval3_indexed(node.kind(), node.fanin(), values)
        });
        // The values stay resident: nothing is restored.
        self.queue.forget_touched();
        evaluated
    }

    /// Latches the next state from the settled values and schedules the
    /// state change — one sequential clock tick. Returns the new state.
    pub fn tick(&mut self) -> Vec<Logic3> {
        let next: Vec<Logic3> = self
            .circuit
            .dffs()
            .iter()
            .map(|&ff| self.values[self.circuit.ppo_of_dff(ff).index()])
            .collect();
        for (i, &v) in next.clone().iter().enumerate() {
            self.set_state_bit(i, v);
        }
        next
    }

    /// Full snapshot of all node values.
    pub fn values(&self) -> &[Logic3] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goodsim::GoodSimulator;
    use gdf_netlist::suite;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand3(rng: &mut StdRng) -> Logic3 {
        match rng.gen_range(0..3) {
            0 => Logic3::Zero,
            1 => Logic3::One,
            _ => Logic3::X,
        }
    }

    #[test]
    fn agrees_with_full_evaluation_on_random_stimuli() {
        let c = suite::table3_circuit("s298").expect("suite circuit");
        let full = GoodSimulator::new(&c);
        let mut ev = EventSimulator::new(&c);
        let mut rng = StdRng::seed_from_u64(11);
        let mut pi: Vec<Logic3> = (0..c.num_inputs()).map(|_| rand3(&mut rng)).collect();
        let mut st: Vec<Logic3> = (0..c.num_dffs()).map(|_| rand3(&mut rng)).collect();
        ev.set_inputs(&pi);
        ev.set_state(&st);
        ev.settle();
        for round in 0..50 {
            // Flip a random input or state bit.
            if rng.gen_bool(0.5) && !pi.is_empty() {
                let i = rng.gen_range(0..pi.len());
                pi[i] = rand3(&mut rng);
                ev.set_input(i, pi[i]);
            } else {
                let i = rng.gen_range(0..st.len());
                st[i] = rand3(&mut rng);
                ev.set_state_bit(i, st[i]);
            }
            ev.settle();
            let reference = full.eval_comb(&pi, &st);
            for (idx, &expect) in reference.iter().enumerate() {
                assert_eq!(
                    ev.values()[idx],
                    expect,
                    "node {idx} differs in round {round}"
                );
            }
        }
    }

    #[test]
    fn single_bit_change_touches_only_the_cone() {
        let c = suite::table3_circuit("s344").expect("suite circuit");
        let mut ev = EventSimulator::new(&c);
        ev.set_inputs(&vec![Logic3::Zero; c.num_inputs()]);
        ev.set_state(&vec![Logic3::Zero; c.num_dffs()]);
        ev.settle();
        // Change one PI; activity must be bounded by its cone size.
        let pi0 = c.inputs()[1];
        let cone = c.output_cone(pi0);
        let cone_size = cone.iter().filter(|&&b| b).count();
        ev.set_input(1, Logic3::One);
        let evaluated = ev.settle();
        assert!(
            evaluated <= cone_size,
            "activity {evaluated} exceeds cone {cone_size}"
        );
        assert!(evaluated < c.num_gates(), "must not re-evaluate everything");
    }

    #[test]
    fn tick_matches_goodsim_sequence() {
        let c = suite::s27();
        let full = GoodSimulator::new(&c);
        let mut ev = EventSimulator::new(&c);
        let vectors: Vec<Vec<Logic3>> = vec![
            vec![Logic3::One, Logic3::Zero, Logic3::One, Logic3::Zero],
            vec![Logic3::Zero; 4],
            vec![Logic3::One; 4],
        ];
        // Event-driven run.
        ev.set_state(&full.initial_state());
        let mut ev_states = Vec::new();
        for v in &vectors {
            ev.set_inputs(v);
            ev.settle();
            ev_states.push(ev.tick());
            ev.settle();
        }
        // Reference run.
        let (_frames, _final) = full.run(&full.initial_state(), &vectors);
        let mut st = full.initial_state();
        for (v, evst) in vectors.iter().zip(&ev_states) {
            let vals = full.eval_comb(v, &st);
            st = full.next_state(&vals);
            assert_eq!(&st, evst);
        }
    }

    #[test]
    fn redundant_set_is_free() {
        let c = suite::s27();
        let mut ev = EventSimulator::new(&c);
        ev.set_inputs(&[Logic3::Zero; 4]);
        ev.set_state(&[Logic3::Zero; 3]);
        ev.settle();
        // Re-applying identical values schedules nothing.
        ev.set_inputs(&[Logic3::Zero; 4]);
        assert_eq!(ev.settle(), 0);
    }
}
