//! The two-frame implication network: per-net 8-valued value sets with
//! forward/backward implication, fault-site conversion and state-register
//! coupling.
//!
//! The paper (§3, with its refs 8 and 20) describes exactly this machinery:
//! *"During local test pattern generation for each gate a set of values is
//! maintained that are possible for that gate. Using these sets, and the
//! truth tables for each gate, forward and backward implications can be
//! made."* The fault site is the *"only exception"* where a provoking `R`
//! (`F`) is converted into `Rc` (`Fc`); the state register contributes the
//! `final(PPI) = initial(PPO)` correlation.

use gdf_algebra::delay::{
    eval_gate_sets, eval_gate_sets_nonrobust, narrow_inputs, narrow_inputs_nonrobust, DelaySet,
    DelayValue,
};
use gdf_netlist::{Circuit, DelayFault, DelayFaultKind, GateKind, NodeId};
use std::collections::VecDeque;

/// Which sensitization criterion the implication tables follow.
///
/// Before PR 5 this type was named `FaultModel`; the name now belongs to
/// `gdf_netlist::model::FaultModel` (the pluggable fault-*model* trait:
/// delay / stuck / transition), while this enum picks how strictly a
/// delay test must sensitize its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sensitization {
    /// The paper's strict robust model: off-path inputs of a falling
    /// on-path transition must be steady and hazard-free; parity-gate
    /// off-path inputs must be steady and hazard-free.
    #[default]
    Robust,
    /// The relaxed non-robust model the paper's conclusions announce:
    /// the fault effect propagates whenever flipping the carrying inputs'
    /// *final* values flips the gate's final value (hazards may invalidate
    /// such a test). Differences that leave the good-machine output steady
    /// are not representable in the 8-valued algebra and are conservatively
    /// dropped.
    NonRobust,
}

impl std::str::FromStr for Sensitization {
    type Err = String;

    /// The names every user-facing surface shares (`gdf
    /// --sensitization`, artifact configs, `gdf serve` submissions):
    /// `robust`, `non-robust` (alias `nonrobust`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "robust" => Ok(Sensitization::Robust),
            "non-robust" | "nonrobust" => Ok(Sensitization::NonRobust),
            other => Err(format!(
                "unknown sensitization `{other}` (robust|non-robust)"
            )),
        }
    }
}

/// Non-robust value-level gate evaluation (see
/// [`Sensitization::NonRobust`]); defined in the algebra beside the set
/// functions built from it.
pub use gdf_algebra::delay::eval_gate_nonrobust;

/// Result of an implication pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implied {
    /// All sets consistent (none empty).
    Consistent,
    /// Some set became empty.
    Conflict,
}

/// The implication network for one target fault.
///
/// Holds one [`DelaySet`] per net (pre-conversion at the fault stem),
/// records every narrowing on an undo trail, and propagates implications to
/// a fixpoint through gates, the fault-site conversion and the DFF
/// coupling.
///
/// # Example
///
/// ```
/// use gdf_netlist::{suite, DelayFault, DelayFaultKind, FaultSite};
/// use gdf_tdgen::network::{ImplicationNet, Implied};
///
/// let c = suite::s27();
/// let g14 = c.node_by_name("G14").unwrap();
/// let fault = DelayFault {
///     site: FaultSite::on_stem(g14),
///     kind: DelayFaultKind::SlowToRise,
/// };
/// let mut net = ImplicationNet::new(&c, fault, Default::default());
/// assert_eq!(net.propagate(), Implied::Consistent);
/// ```
#[derive(Debug, Clone)]
pub struct ImplicationNet<'c> {
    circuit: &'c Circuit,
    fault: DelayFault,
    model: Sensitization,
    sets: Vec<DelaySet>,
    trail: Vec<(NodeId, DelaySet)>,
    queue: VecDeque<Constraint>,
    /// Set iff the constraint is in `queue`.
    queued: Vec<bool>,
    /// Flip-flop index of each DFF node (unused for other nodes).
    dff_index: Vec<u32>,
    /// Input sets of the gate being implied, reused across gates.
    ins: Vec<DelaySet>,
    conflict: bool,
}

/// One implication constraint: a gate or a flip-flop coupling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Constraint {
    Gate(NodeId),
    Dff(usize),
}

impl Constraint {
    fn index(self, circuit: &Circuit) -> usize {
        match self {
            Constraint::Gate(id) => id.index(),
            Constraint::Dff(i) => circuit.num_nodes() + i,
        }
    }
}

impl<'c> ImplicationNet<'c> {
    /// Builds the network for `fault` under `model` and seeds the initial
    /// domains:
    ///
    /// * primary inputs and flip-flop outputs: `{0,1,R,F}` (hazard-free);
    /// * nets in the fault's output cone: all 8 values;
    /// * everything else: the 6 clean values.
    pub fn new(circuit: &'c Circuit, fault: DelayFault, model: Sensitization) -> Self {
        let n = circuit.num_nodes();
        let seed = match fault.site.branch {
            None => fault.site.stem,
            Some((sink, _)) => sink,
        };
        let cone = circuit.cone_words(seed);
        let mut sets: Vec<DelaySet> = (0..n)
            .map(|i| {
                if cone[i / 64] >> (i % 64) & 1 == 1 {
                    DelaySet::ALL
                } else {
                    DelaySet::CLEAN
                }
            })
            .collect();
        for &pi in circuit.inputs() {
            sets[pi.index()] = DelaySet::HAZARD_FREE;
        }
        let mut dff_index = vec![u32::MAX; n];
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            sets[ff.index()] = DelaySet::HAZARD_FREE;
            dff_index[ff.index()] = i as u32;
        }
        // The stem itself holds pre-conversion (clean) values.
        if fault.site.branch.is_none() {
            let stem = fault.site.stem;
            sets[stem.index()] = sets[stem.index()].intersect(DelaySet::CLEAN);
        }
        let mut net = ImplicationNet {
            circuit,
            fault,
            model,
            sets,
            trail: Vec::new(),
            queue: VecDeque::new(),
            queued: vec![false; n + circuit.num_dffs()],
            dff_index,
            ins: Vec::new(),
            conflict: false,
        };
        // Seed every constraint once.
        for &g in circuit.topo_order() {
            net.enqueue(Constraint::Gate(g));
        }
        for i in 0..circuit.num_dffs() {
            net.enqueue(Constraint::Dff(i));
        }
        net
    }

    /// The target fault.
    pub fn fault(&self) -> DelayFault {
        self.fault
    }

    /// The fault model in force.
    pub fn model(&self) -> Sensitization {
        self.model
    }

    /// The circuit.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The provoking transition the fault site must show (`R` for
    /// slow-to-rise, `F` for slow-to-fall).
    pub fn provoking_value(&self) -> DelayValue {
        match self.fault.kind {
            DelayFaultKind::SlowToRise => DelayValue::R,
            DelayFaultKind::SlowToFall => DelayValue::F,
        }
    }

    /// The fault-carrying value injected downstream of the site.
    pub fn marked_value(&self) -> DelayValue {
        self.provoking_value()
            .with_fault_mark()
            .expect("transition")
    }

    /// Current (pre-conversion) set of a net.
    pub fn set(&self, id: NodeId) -> DelaySet {
        self.sets[id.index()]
    }

    /// Applies the fault-site conversion to a set: the provoking transition
    /// becomes its fault-carrying form.
    pub fn convert(&self, s: DelaySet) -> DelaySet {
        let t = self.provoking_value();
        if s.contains(t) {
            let mut c = s;
            c.remove(t);
            c.insert(self.marked_value());
            c
        } else {
            s
        }
    }

    /// Inverse of [`ImplicationNet::convert`]: pre-image of a post-
    /// conversion set within `pre`.
    pub fn unconvert_within(&self, post: DelaySet, pre: DelaySet) -> DelaySet {
        let t = self.provoking_value();
        let m = self.marked_value();
        let mut keep = DelaySet::EMPTY;
        for v in pre.iter() {
            let seen = if v == t { m } else { v };
            if post.contains(seen) {
                keep.insert(v);
            }
        }
        keep
    }

    /// Whether the edge `(stem → sink, pin)` carries the conversion.
    fn edge_converted(&self, stem: NodeId, sink: NodeId, pin: u8) -> bool {
        if stem != self.fault.site.stem {
            return false;
        }
        match self.fault.site.branch {
            None => true,
            Some((fsink, fpin)) => fsink == sink && fpin == pin,
        }
    }

    /// The set a sink gate sees on one of its input pins.
    pub fn edge_set(&self, sink: NodeId, pin: usize) -> DelaySet {
        let stem = self.circuit.node(sink).fanin()[pin];
        let s = self.sets[stem.index()];
        if self.edge_converted(stem, sink, pin as u8) {
            self.convert(s)
        } else {
            s
        }
    }

    /// The value set observable at a primary output (post-conversion if the
    /// PO net is the fault stem itself).
    pub fn po_observed_set(&self, po: NodeId) -> DelaySet {
        let s = self.sets[po.index()];
        if self.fault.site.stem == po && self.fault.site.branch.is_none() {
            self.convert(s)
        } else {
            s
        }
    }

    /// The value set latched by flip-flop `dff_index` (post-conversion if
    /// the D net or the D branch is the fault site).
    pub fn ppo_observed_set(&self, dff_index: usize) -> DelaySet {
        let dff = self.circuit.dffs()[dff_index];
        let d = self.circuit.ppo_of_dff(dff);
        let s = self.sets[d.index()];
        if self.edge_converted(d, dff, 0) {
            self.convert(s)
        } else {
            s
        }
    }

    /// Narrows a net's set; records the old value on the trail and enqueues
    /// affected constraints. Returns `false` (and flags a conflict) if the
    /// new set is empty.
    pub fn assign(&mut self, id: NodeId, new: DelaySet) -> bool {
        let old = self.sets[id.index()];
        let meet = old.intersect(new);
        if meet == old {
            return !meet.is_empty();
        }
        self.trail.push((id, old));
        self.sets[id.index()] = meet;
        if meet.is_empty() {
            self.conflict = true;
            return false;
        }
        self.touch(id);
        true
    }

    /// Enqueues every constraint adjacent to a changed net.
    fn touch(&mut self, id: NodeId) {
        let circuit = self.circuit;
        let node = circuit.node(id);
        if node.kind().is_combinational() {
            self.enqueue(Constraint::Gate(id));
        }
        if node.kind() == GateKind::Dff {
            self.enqueue(Constraint::Dff(self.dff_index[id.index()] as usize));
        }
        for &(sink, _) in node.fanout() {
            match circuit.node(sink).kind() {
                GateKind::Dff => {
                    self.enqueue(Constraint::Dff(self.dff_index[sink.index()] as usize))
                }
                k if k.is_combinational() => self.enqueue(Constraint::Gate(sink)),
                _ => {}
            }
        }
    }

    fn enqueue(&mut self, c: Constraint) {
        let idx = c.index(self.circuit);
        if !self.queued[idx] {
            self.queued[idx] = true;
            self.queue.push_back(c);
        }
    }

    /// Number of trail entries — pass to [`ImplicationNet::rollback`].
    pub fn checkpoint(&self) -> usize {
        self.trail.len()
    }

    /// Undoes all narrowings past `mark` and clears any conflict.
    pub fn rollback(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (id, old) = self.trail.pop().expect("trail entry");
            self.sets[id.index()] = old;
        }
        self.conflict = false;
        // Only queued constraints carry a flag, so draining clears them all.
        while let Some(c) = self.queue.pop_front() {
            self.queued[c.index(self.circuit)] = false;
        }
    }

    fn eval_sets_m(&self, kind: GateKind, ins: &[DelaySet]) -> DelaySet {
        match self.model {
            Sensitization::Robust => eval_gate_sets(kind, ins),
            Sensitization::NonRobust => eval_gate_sets_nonrobust(kind, ins),
        }
    }

    fn narrow_m(&self, kind: GateKind, out: &mut DelaySet, ins: &mut [DelaySet]) -> bool {
        match self.model {
            Sensitization::Robust => narrow_inputs(kind, out, ins),
            Sensitization::NonRobust => narrow_inputs_nonrobust(kind, out, ins),
        }
    }

    /// Model-aware backward narrowing on caller-owned scratch sets — used
    /// by the backtrace heuristic to discover which input requirements a
    /// desired output set induces, without touching the network state.
    pub fn narrow_scratch(&self, kind: GateKind, out: &mut DelaySet, ins: &mut [DelaySet]) -> bool {
        self.narrow_m(kind, out, ins)
    }

    /// Model-aware forward image on caller-owned scratch sets.
    pub fn eval_scratch(&self, kind: GateKind, ins: &[DelaySet]) -> DelaySet {
        self.eval_sets_m(kind, ins)
    }

    /// Runs implications to a fixpoint.
    ///
    /// A constraint whose one pass is already its own fixpoint keeps its
    /// queued flag while it runs, so its own narrowings do not wake it
    /// again: a gate whose pins read distinct nets, and a flip-flop
    /// coupling whose D net is not its own Q. The fixpoint of these
    /// monotone narrowings is unique, so skipping those passes changes no
    /// set and no conflict.
    pub fn propagate(&mut self) -> Implied {
        while let Some(c) = self.queue.pop_front() {
            let idx = c.index(self.circuit);
            self.queued[idx] = false;
            if self.conflict {
                break;
            }
            let settles = self.settles_in_one_pass(c);
            self.queued[idx] = settles;
            match c {
                Constraint::Gate(g) => self.imply_gate(g),
                Constraint::Dff(i) => self.imply_dff(i),
            }
            if settles {
                self.queued[idx] = false;
            }
        }
        if self.conflict {
            Implied::Conflict
        } else {
            Implied::Consistent
        }
    }

    /// Whether one pass of `c` leaves nothing for a second pass to narrow.
    ///
    /// A gate's narrowing is exact per pin (a pin keeps exactly the values
    /// some completion of the other pins maps into the output set), and
    /// the fault-site conversion is a function of the stem's values, so
    /// when its pins read distinct nets a second pass finds every
    /// narrowed set supported. A flip-flop coupling is a binary constraint
    /// between its Q and D nets and settles likewise unless D is Q itself.
    /// A gate that reads one net on several pins narrows each pin against
    /// the other's old set, and may narrow again.
    fn settles_in_one_pass(&self, c: Constraint) -> bool {
        match c {
            Constraint::Gate(g) => self.circuit.node(g).has_distinct_fanins(),
            Constraint::Dff(i) => {
                let q = self.circuit.dffs()[i];
                self.circuit.ppo_of_dff(q) != q
            }
        }
    }

    fn imply_gate(&mut self, g: NodeId) {
        let node = self.circuit.node(g);
        let kind = node.kind();
        let fanin = node.fanin();
        let mut ins = std::mem::take(&mut self.ins);
        ins.clear();
        ins.extend((0..fanin.len()).map(|p| self.edge_set(g, p)));
        let mut out = self.sets[g.index()];
        // Forward: intersect output with the producible image.
        let image = self.eval_sets_m(kind, &ins);
        out = out.intersect(image);
        // Backward: narrow inputs against the (already tightened) output.
        self.narrow_m(kind, &mut out, &mut ins);
        if self.assign(g, out) {
            for (p, &stem) in fanin.iter().enumerate() {
                let pre = if self.edge_converted(stem, g, p as u8) {
                    self.unconvert_within(ins[p], self.sets[stem.index()])
                } else {
                    ins[p]
                };
                if !self.assign(stem, pre) {
                    break;
                }
            }
        }
        self.ins = ins;
    }

    fn imply_dff(&mut self, i: usize) {
        let q = self.circuit.dffs()[i];
        let d = self.circuit.ppo_of_dff(q);
        let q_set = self.sets[q.index()];
        let d_set = self.sets[d.index()];
        // final(q) must equal initial(d); conversion does not alter frame
        // components, so the pre-conversion d set is authoritative.
        let mut q_keep = DelaySet::EMPTY;
        let mut d_keep = DelaySet::EMPTY;
        for b in [false, true] {
            if !d_set.with_initial(b).is_empty() {
                q_keep = q_keep.union(q_set.with_final(b));
            }
        }
        for b in [false, true] {
            if !q_keep.with_final(b).is_empty() {
                d_keep = d_keep.union(d_set.with_initial(b));
            }
        }
        if !self.assign(q, q_keep) {
            return;
        }
        let _ = self.assign(d, d_keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_algebra::delay::eval_gate;
    use gdf_netlist::{generator, suite, CircuitBuilder, FaultSite};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn str_fault(c: &Circuit, name: &str) -> DelayFault {
        DelayFault {
            site: FaultSite::on_stem(c.node_by_name(name).unwrap()),
            kind: DelayFaultKind::SlowToRise,
        }
    }

    #[test]
    fn initial_domains() {
        let c = suite::s27();
        let net = ImplicationNet::new(&c, str_fault(&c, "G14"), Sensitization::Robust);
        let g0 = c.node_by_name("G0").unwrap();
        assert_eq!(net.set(g0), DelaySet::HAZARD_FREE);
        let g14 = c.node_by_name("G14").unwrap();
        assert_eq!(net.set(g14), DelaySet::CLEAN, "stem holds pre-fault values");
        let g8 = c.node_by_name("G8").unwrap();
        assert_eq!(net.set(g8), DelaySet::ALL, "cone nets may carry");
        let g12 = c.node_by_name("G12").unwrap();
        assert_eq!(net.set(g12), DelaySet::CLEAN, "off-cone nets never carry");
    }

    #[test]
    fn conversion_round_trip() {
        let c = suite::s27();
        let net = ImplicationNet::new(&c, str_fault(&c, "G14"), Sensitization::Robust);
        let s = DelaySet::from_values([DelayValue::R, DelayValue::S0]);
        let conv = net.convert(s);
        assert!(conv.contains(DelayValue::Rc));
        assert!(!conv.contains(DelayValue::R));
        assert!(conv.contains(DelayValue::S0));
        let back = net.unconvert_within(conv, DelaySet::CLEAN);
        assert_eq!(back, s);
    }

    #[test]
    fn excitation_implies_marked_downstream() {
        // y = NOT(s), s = NOT(a): StR at s; pinning s to {R} must make y's
        // set fault-carrying (Fc) after implication.
        let mut b = CircuitBuilder::new("tiny");
        b.add_input("a");
        b.add_gate("s", GateKind::Not, &["a"]);
        b.add_gate("y", GateKind::Not, &["s"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let fault = str_fault(&c, "s");
        let mut net = ImplicationNet::new(&c, fault, Sensitization::Robust);
        assert_eq!(net.propagate(), Implied::Consistent);
        let s = c.node_by_name("s").unwrap();
        assert!(net.assign(s, DelaySet::singleton(DelayValue::R)));
        assert_eq!(net.propagate(), Implied::Consistent);
        let y = c.node_by_name("y").unwrap();
        assert_eq!(net.set(y), DelaySet::singleton(DelayValue::Fc));
        let a = c.node_by_name("a").unwrap();
        assert_eq!(net.set(a), DelaySet::singleton(DelayValue::F));
    }

    #[test]
    fn rollback_restores_state() {
        let c = suite::s27();
        let mut net = ImplicationNet::new(&c, str_fault(&c, "G14"), Sensitization::Robust);
        net.propagate();
        let g0 = c.node_by_name("G0").unwrap();
        let before = net.set(g0);
        let mark = net.checkpoint();
        assert!(net.assign(g0, DelaySet::singleton(DelayValue::R)));
        net.propagate();
        assert_ne!(net.set(g0), before);
        net.rollback(mark);
        assert_eq!(net.set(g0), before);
    }

    #[test]
    fn conflict_detected_and_cleared() {
        let mut b = CircuitBuilder::new("c");
        b.add_input("a");
        b.add_gate("y", GateKind::Buf, &["a"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let fault = str_fault(&c, "y");
        let mut net = ImplicationNet::new(&c, fault, Sensitization::Robust);
        net.propagate();
        let a = c.node_by_name("a").unwrap();
        let y = c.node_by_name("y").unwrap();
        let mark = net.checkpoint();
        assert!(net.assign(a, DelaySet::singleton(DelayValue::S0)));
        // y (pre-conversion) must follow a.
        net.propagate();
        assert_eq!(net.set(y), DelaySet::singleton(DelayValue::S0));
        // Now force y to S1: conflict.
        assert!(!net.assign(y, DelaySet::singleton(DelayValue::S1)));
        assert_eq!(net.propagate(), Implied::Conflict);
        net.rollback(mark);
        assert_eq!(net.propagate(), Implied::Consistent);
    }

    #[test]
    fn dff_coupling_links_frames() {
        // q = DFF(d); d = NOT(q) (toggle). Pin q to {R} (init 0, fin 1):
        // then init(d) must be 1, so d ∈ {values with init 1}.
        let mut b = CircuitBuilder::new("t");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_gate("d", GateKind::Not, &["q"]);
        b.add_gate("y", GateKind::And, &["a", "q"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let fault = str_fault(&c, "y");
        let mut net = ImplicationNet::new(&c, fault, Sensitization::Robust);
        net.propagate();
        let q = c.node_by_name("q").unwrap();
        let d = c.node_by_name("d").unwrap();
        assert!(net.assign(q, DelaySet::singleton(DelayValue::R)));
        assert_eq!(net.propagate(), Implied::Consistent);
        for v in net.set(d).iter() {
            assert!(v.initial(), "init(d) must be 1, got {v}");
        }
        // And the toggle structure: d = NOT(q) with q=R means d=F — whose
        // init is indeed 1. Fully forced:
        assert_eq!(net.set(d), DelaySet::singleton(DelayValue::F));
    }

    #[test]
    fn dff_coupling_detects_impossible_state() {
        // q = DFF(d); d = BUF(q): q can never change value between frames.
        let mut b = CircuitBuilder::new("hold");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_gate("d", GateKind::Buf, &["q"]);
        b.add_gate("y", GateKind::And, &["a", "q"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let fault = str_fault(&c, "y");
        let mut net = ImplicationNet::new(&c, fault, Sensitization::Robust);
        net.propagate();
        let q = c.node_by_name("q").unwrap();
        assert!(net.assign(q, DelaySet::singleton(DelayValue::R)));
        assert_eq!(net.propagate(), Implied::Conflict, "hold FF cannot toggle");
    }

    #[test]
    fn nonrobust_model_relaxes_and_rule() {
        use DelayValue::*;
        // Robust: Fc & 1h = F (mark dropped). Non-robust: faulty final of
        // AND(Fc,H1) is 1&1=1 vs good 0 → mark kept.
        assert_eq!(eval_gate_nonrobust(GateKind::And, &[Fc, H1]), Fc);
        assert_eq!(eval_gate(GateKind::And, &[Fc, H1]), F);
        // Both agree when the side input is controlling.
        assert_eq!(eval_gate_nonrobust(GateKind::And, &[Fc, S0]), S0);
    }

    #[test]
    fn nonrobust_set_eval_consistent_with_value_eval() {
        use DelayValue::*;
        let a = DelaySet::from_values([Fc, R]);
        let b = DelaySet::from_values([H1, S1]);
        let got = eval_gate_sets_nonrobust(GateKind::And, &[a, b]);
        let mut expect = DelaySet::EMPTY;
        for va in a.iter() {
            for vb in b.iter() {
                expect.insert(eval_gate_nonrobust(GateKind::And, &[va, vb]));
            }
        }
        assert_eq!(got, expect);
    }

    /// The reference fixpoint: every constraint applied round-robin (gates
    /// in topological order, then flip-flops) until a whole round narrows
    /// nothing. No queue and no wake-ups.
    fn round_robin(net: &mut ImplicationNet<'_>) -> Implied {
        loop {
            let before = net.trail.len();
            for &g in net.circuit.topo_order() {
                net.imply_gate(g);
                if net.conflict {
                    return Implied::Conflict;
                }
            }
            for i in 0..net.circuit.num_dffs() {
                net.imply_dff(i);
                if net.conflict {
                    return Implied::Conflict;
                }
            }
            if net.trail.len() == before {
                return Implied::Consistent;
            }
        }
    }

    /// `propagate` and the reference agree on conflict and, without one,
    /// on every set.
    fn assert_same_fixpoint(
        c: &Circuit,
        queued: &mut ImplicationNet<'_>,
        reference: &mut ImplicationNet<'_>,
    ) {
        let got = queued.propagate();
        let want = round_robin(reference);
        assert_eq!(got, want, "conflict status on {c:?}");
        if got == Implied::Consistent {
            for id in 0..c.num_nodes() {
                let id = NodeId(id as u32);
                assert_eq!(
                    queued.set(id),
                    reference.set(id),
                    "set of {}",
                    c.node(id).name()
                );
            }
        }
    }

    #[test]
    fn propagate_reaches_the_round_robin_fixpoint() {
        let mut rng = StdRng::seed_from_u64(1995);
        for seed in 0..300 {
            let c = generator::random_tangle(seed);
            let fault = DelayFault {
                site: generator::random_site(&c, &mut rng),
                kind: if rng.gen_bool(0.5) {
                    DelayFaultKind::SlowToRise
                } else {
                    DelayFaultKind::SlowToFall
                },
            };
            for model in [Sensitization::Robust, Sensitization::NonRobust] {
                let mut queued = ImplicationNet::new(&c, fault, model);
                let mut reference = queued.clone();
                assert_same_fixpoint(&c, &mut queued, &mut reference);
                // A search-like walk: narrow a random net, compare, and
                // undo the step on a conflict.
                for _ in 0..8 {
                    let node = NodeId(rng.gen_range(0..c.num_nodes() as u32));
                    let narrowed =
                        DelaySet::from_bits(queued.set(node).bits() & rng.gen::<u32>() as u8);
                    let marks = (queued.checkpoint(), reference.checkpoint());
                    let ok = queued.assign(node, narrowed);
                    assert_eq!(reference.assign(node, narrowed), ok);
                    assert_same_fixpoint(&c, &mut queued, &mut reference);
                    if queued.conflict {
                        queued.rollback(marks.0);
                        reference.rollback(marks.1);
                    }
                }
            }
        }
    }

    #[test]
    fn branch_fault_converts_single_edge() {
        // s fans out to y1, y2; branch fault on s→y1 only.
        let mut b = CircuitBuilder::new("br");
        b.add_input("a");
        b.add_gate("s", GateKind::Buf, &["a"]);
        b.add_gate("y1", GateKind::Buf, &["s"]);
        b.add_gate("y2", GateKind::Buf, &["s"]);
        b.mark_output("y1");
        b.mark_output("y2");
        let c = b.build().unwrap();
        let s = c.node_by_name("s").unwrap();
        let y1 = c.node_by_name("y1").unwrap();
        let fault = DelayFault {
            site: FaultSite::on_branch(s, y1, 0),
            kind: DelayFaultKind::SlowToRise,
        };
        let mut net = ImplicationNet::new(&c, fault, Sensitization::Robust);
        net.propagate();
        assert!(net.assign(s, DelaySet::singleton(DelayValue::R)));
        assert_eq!(net.propagate(), Implied::Consistent);
        let y2 = c.node_by_name("y2").unwrap();
        assert_eq!(net.set(y1), DelaySet::singleton(DelayValue::Rc));
        assert_eq!(net.set(y2), DelaySet::singleton(DelayValue::R));
    }
}
