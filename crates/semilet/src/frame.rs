//! The per-time-frame 5-valued engine shared by SEMILET's propagation,
//! justification and standalone stuck-at modes.
//!
//! One instance solves one combinational time frame: pseudo primary inputs
//! carry constraints from the neighbouring frames, primary inputs are
//! decision variables, and the goal is either to drive a fault effect to an
//! observation point or to justify required pseudo-primary-output values.
//! Implications run on arc-consistent [`StaticSet`]s (the same machinery as
//! TDgen, §3's refs 8 and 20, specialized to the static algebra); success is
//! declared only on a *forward functional image* from the decided leaves,
//! so a solution with don't-care `X` positions holds for every completion.
//!
//! As in TDgen, a search step costs what changed. A gate whose pins read
//! distinct nets is not woken again by its own narrowings, because one
//! pass is its own fixpoint; a gate that reads one net on several pins
//! is. The forward image is a pure function of the source sets and the
//! fault, so the engine keeps it from one step, one solve and one
//! simulated frame to the next, and re-evaluates only the gates with a
//! changed fanin, in level order.

use gdf_algebra::logic3::Logic3;
use gdf_algebra::static5::{eval_gate_sets, narrow_inputs, StaticSet, StaticValue};
use gdf_netlist::scoap::Testability;
use gdf_netlist::{Circuit, GateKind, NodeId, StuckFault};
use gdf_sim::packed::LevelQueue;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Constraint on one pseudo primary input for this frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PpiConstraint {
    /// The value set the previous frame hands over (propagation mode);
    /// cannot be assigned, only consumed.
    Fixed(StaticSet),
    /// Free but assignable: assigning it creates a justification
    /// requirement on the previous frame (reverse time processing).
    Assignable,
}

impl PpiConstraint {
    /// The initial leaf set.
    fn leaf(self) -> StaticSet {
        match self {
            PpiConstraint::Fixed(s) => s,
            PpiConstraint::Assignable => StaticSet::GOOD,
        }
    }
}

/// What this frame must achieve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameGoal {
    /// A definite fault effect at some primary output.
    ObserveAtPo,
    /// A definite fault effect latched into some flip-flop.
    LatchDiff,
    /// Produce the given `(dff index, value)` bits at the pseudo primary
    /// outputs (used by the synchronizing-sequence search).
    JustifyPpos(Vec<(usize, bool)>),
}

/// A solved frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSolution {
    /// The PI vector (don't-cares as `X`).
    pub pi: Vec<Logic3>,
    /// Requirements this frame places on the previous frame's state
    /// (only in justification mode, from `Assignable` PPIs).
    pub ppi_assigned: Vec<(usize, bool)>,
    /// The PO at which the effect was observed, if the goal was
    /// [`FrameGoal::ObserveAtPo`].
    pub po_hit: Option<NodeId>,
    /// Forward image of every pseudo primary output — the state handed to
    /// the next frame.
    pub next_state: Vec<StaticSet>,
    /// Backtracks consumed.
    pub backtracks: u32,
}

/// Outcome of solving one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameResult {
    /// Goal achieved.
    Solved(FrameSolution),
    /// Complete per-frame search space exhausted: impossible under the
    /// given constraints.
    Exhausted,
    /// Backtrack limit hit.
    Aborted,
}

impl FrameResult {
    /// Convenience accessor.
    pub fn solution(&self) -> Option<&FrameSolution> {
        match self {
            FrameResult::Solved(s) => Some(s),
            _ => None,
        }
    }
}

/// The per-frame engine.
///
/// The engine keeps the buffers of its last search, forward image
/// included, so the next [`FrameEngine::solve`] or
/// [`FrameEngine::simulate_frame`] re-evaluates only the gates whose
/// inputs differ. That makes it `!Sync`: build one per thread (it is
/// cheap).
///
/// # Example
///
/// ```
/// use gdf_algebra::static5::{StaticSet, StaticValue};
/// use gdf_netlist::suite;
/// use gdf_semilet::frame::{FrameEngine, FrameGoal, PpiConstraint};
///
/// let c = suite::s27();
/// // A definite D on flip-flop G6 (index 1), other state bits known 0.
/// let ppis = vec![
///     PpiConstraint::Fixed(StaticSet::singleton(StaticValue::S0)),
///     PpiConstraint::Fixed(StaticSet::singleton(StaticValue::D)),
///     PpiConstraint::Fixed(StaticSet::singleton(StaticValue::S0)),
/// ];
/// let engine = FrameEngine::new(&c, 100);
/// let result = engine.solve(&ppis, &FrameGoal::ObserveAtPo, None);
/// assert!(result.solution().is_some(), "G6 difference is observable at G17");
/// ```
#[derive(Debug)]
pub struct FrameEngine<'c> {
    circuit: &'c Circuit,
    backtrack_limit: u32,
    testability: &'c Testability,
    scratch: RefCell<Scratch>,
}

#[derive(Debug)]
struct Net {
    sets: Vec<StaticSet>,
    trail: Vec<(NodeId, StaticSet)>,
    queue: VecDeque<NodeId>,
    /// Set iff the gate is in `queue`.
    queued: Vec<bool>,
    /// Input sets of the gate being implied, reused across gates.
    ins: Vec<StaticSet>,
    conflict: bool,
}

/// Buffers the search loop reuses, kept by the engine from one
/// [`FrameEngine::solve`] call to the next.
#[derive(Debug, Default)]
struct Scratch {
    /// The decided leaf set of each source (PI or flip-flop), by node.
    leaf: Vec<StaticSet>,
    /// The forward functional image, kept from one search step (and one
    /// frame) to the next.
    image: FrameImage,
    /// Backtrace: a gate's edge sets before and after narrowing.
    orig: Vec<StaticSet>,
    narrowed: Vec<StaticSet>,
}

/// The forward functional image of one frame: one set per node, from the
/// sets of the sources (PIs and flip-flops) and the injected fault.
///
/// The image is a pure function of the source sets and the fault, so the
/// engine keeps it from one step to the next and [`FrameImage::update`]
/// re-evaluates, in level order, only the gates with a changed fanin. The
/// first update, and the first under another fault, schedules every gate.
#[derive(Debug, Default)]
struct FrameImage {
    /// One set per node; a stuck stem holds its observed (stuck) value.
    f: Vec<StaticSet>,
    /// The fault `f` was computed under.
    fault: Option<StuckFault>,
    /// Input sets of the gate being evaluated.
    ins: Vec<StaticSet>,
    queue: LevelQueue,
}

impl FrameImage {
    /// Brings the image up to date with new `sources` sets (every PI and
    /// flip-flop), injecting `fault`.
    fn update(
        &mut self,
        circuit: &Circuit,
        fault: Option<StuckFault>,
        sources: impl IntoIterator<Item = (NodeId, StaticSet)>,
    ) {
        let FrameImage {
            f,
            fault: image_fault,
            ins,
            queue,
        } = self;
        queue.prepare(circuit);
        if f.len() != circuit.num_nodes() || *image_fault != fault {
            *image_fault = fault;
            f.clear();
            f.resize(circuit.num_nodes(), StaticSet::EMPTY);
            for &g in circuit.topo_order() {
                queue.schedule(circuit, g);
            }
        }
        // A stuck stem overrides its own observed value too. Conversion is
        // idempotent, so its fanout edges may read the stored value.
        let observed = |node: NodeId, s: StaticSet| match fault {
            Some(flt) if flt.site.branch.is_none() && flt.site.stem == node => {
                FrameEngine::convert(flt, s)
            }
            _ => s,
        };
        for (src, set) in sources {
            let v = observed(src, set);
            if v != f[src.index()] {
                queue.inject(circuit, f, src, v);
            }
        }
        queue.run(circuit, f, |g, f| {
            let node = circuit.node(g);
            ins.clear();
            ins.extend(node.fanin().iter().enumerate().map(|(pin, &src)| {
                let s = f[src.index()];
                if FrameEngine::edge_converted(fault, src, g, pin as u8) {
                    FrameEngine::convert(fault.expect("converted"), s)
                } else {
                    s
                }
            }));
            observed(g, eval_gate_sets(node.kind(), ins))
        });
        queue.forget_touched();
    }
}

#[derive(Debug)]
struct Decision {
    node: NodeId,
    applied: StaticSet,
    alts: Vec<StaticSet>,
    trail_mark: usize,
}

impl<'c> FrameEngine<'c> {
    /// Creates an engine with the paper's default-style backtrack limit.
    pub fn new(circuit: &'c Circuit, backtrack_limit: u32) -> Self {
        FrameEngine {
            circuit,
            backtrack_limit,
            testability: circuit.testability(),
            scratch: RefCell::default(),
        }
    }

    /// Solves one frame. `fault` injects a persistent stuck-at fault into
    /// the frame (standalone static-ATPG mode); `None` means a fault-free
    /// (slow clock) frame.
    pub fn solve(
        &self,
        ppis: &[PpiConstraint],
        goal: &FrameGoal,
        fault: Option<StuckFault>,
    ) -> FrameResult {
        assert_eq!(ppis.len(), self.circuit.num_dffs(), "PPI constraint count");
        let mut net = self.init_net(ppis, fault);
        let mut stack: Vec<Decision> = Vec::new();
        let mut backtracks: u32 = 0;
        let mut scratch = self.scratch.borrow_mut();

        // Seed goal constraints into the arc network where possible.
        if let FrameGoal::JustifyPpos(targets) = goal {
            for &(i, b) in targets {
                let d = self.circuit.ppo_of_dff(self.circuit.dffs()[i]);
                let want = StaticSet::singleton(if b { StaticValue::S1 } else { StaticValue::S0 });
                if !self.assign(&mut net, d, want) {
                    return FrameResult::Exhausted;
                }
            }
        }

        loop {
            let consistent = self.propagate(&mut net, fault);
            if consistent {
                self.forward_image(ppis, &stack, fault, &mut scratch);
                if let Some(sol) =
                    self.forward_success(goal, ppis, &stack, &scratch.image.f, backtracks, fault)
                {
                    return FrameResult::Solved(sol);
                }
                if self.still_possible(&net, goal, fault)
                    && self.pick_decision(&mut net, goal, ppis, &mut stack, fault, &mut scratch)
                {
                    continue;
                }
            }
            backtracks += 1;
            if backtracks > self.backtrack_limit {
                return FrameResult::Aborted;
            }
            let mut retried = false;
            while let Some(mut d) = stack.pop() {
                self.rollback(&mut net, d.trail_mark);
                if let Some(alt) = d.alts.pop() {
                    let _ = self.assign(&mut net, d.node, alt);
                    d.applied = alt;
                    stack.push(d);
                    retried = true;
                    break;
                }
            }
            if !retried {
                return FrameResult::Exhausted;
            }
        }
    }

    // ------------------------------------------------------------------
    // Arc network
    // ------------------------------------------------------------------

    fn init_net(&self, ppis: &[PpiConstraint], fault: Option<StuckFault>) -> Net {
        let n = self.circuit.num_nodes();
        let mut sets = vec![StaticSet::ALL; n];
        for &pi in self.circuit.inputs() {
            sets[pi.index()] = StaticSet::GOOD;
        }
        for (i, &ff) in self.circuit.dffs().iter().enumerate() {
            sets[ff.index()] = ppis[i].leaf();
        }
        // Outside the fault cone (and in fault-free frames entirely) no
        // fault effect can exist unless a PPI carries one in.
        let mut may_effect = vec![false; n];
        let mut stack: Vec<NodeId> = Vec::new();
        for (i, &ff) in self.circuit.dffs().iter().enumerate() {
            if ppis[i].leaf().may_be_fault_effect() {
                may_effect[ff.index()] = true;
                stack.push(ff);
            }
        }
        if let Some(f) = fault {
            let seed = match f.site.branch {
                None => f.site.stem,
                Some((sink, _)) => sink,
            };
            if !may_effect[seed.index()] {
                may_effect[seed.index()] = true;
                stack.push(seed);
            }
        }
        while let Some(id) = stack.pop() {
            for &(sink, _) in self.circuit.node(id).fanout() {
                if self.circuit.node(sink).kind().is_combinational() && !may_effect[sink.index()] {
                    may_effect[sink.index()] = true;
                    stack.push(sink);
                }
            }
        }
        for idx in 0..n {
            if !may_effect[idx] {
                sets[idx] = sets[idx].intersect(StaticSet::GOOD);
            }
        }
        let mut net = Net {
            sets,
            trail: Vec::new(),
            queue: VecDeque::new(),
            queued: vec![false; n],
            ins: Vec::new(),
            conflict: false,
        };
        for &g in self.circuit.topo_order() {
            net.queued[g.index()] = true;
            net.queue.push_back(g);
        }
        net
    }

    fn stuck_value(fault: StuckFault) -> bool {
        fault.kind.value()
    }

    fn convert(fault: StuckFault, s: StaticSet) -> StaticSet {
        let stuck = Self::stuck_value(fault);
        s.iter()
            .map(|v| StaticValue::from_pair(v.good(), stuck))
            .collect()
    }

    fn unconvert_within(fault: StuckFault, post: StaticSet, pre: StaticSet) -> StaticSet {
        let stuck = Self::stuck_value(fault);
        pre.iter()
            .filter(|v| post.contains(StaticValue::from_pair(v.good(), stuck)))
            .collect()
    }

    fn edge_converted(fault: Option<StuckFault>, stem: NodeId, sink: NodeId, pin: u8) -> bool {
        let Some(f) = fault else { return false };
        if f.site.stem != stem {
            return false;
        }
        match f.site.branch {
            None => true,
            Some((fsink, fpin)) => fsink == sink && fpin == pin,
        }
    }

    fn edge_set(
        &self,
        net: &Net,
        fault: Option<StuckFault>,
        sink: NodeId,
        pin: usize,
    ) -> StaticSet {
        let stem = self.circuit.node(sink).fanin()[pin];
        let s = net.sets[stem.index()];
        if Self::edge_converted(fault, stem, sink, pin as u8) {
            Self::convert(fault.expect("converted edge"), s)
        } else {
            s
        }
    }

    fn assign(&self, net: &mut Net, id: NodeId, new: StaticSet) -> bool {
        let old = net.sets[id.index()];
        let meet = old.intersect(new);
        if meet == old {
            return !meet.is_empty();
        }
        net.trail.push((id, old));
        net.sets[id.index()] = meet;
        if meet.is_empty() {
            net.conflict = true;
            return false;
        }
        // Wake adjacent gates.
        let node = self.circuit.node(id);
        if node.kind().is_combinational() && !net.queued[id.index()] {
            net.queued[id.index()] = true;
            net.queue.push_back(id);
        }
        for &(s, _) in node.fanout() {
            if self.circuit.node(s).kind().is_combinational() && !net.queued[s.index()] {
                net.queued[s.index()] = true;
                net.queue.push_back(s);
            }
        }
        true
    }

    fn rollback(&self, net: &mut Net, mark: usize) {
        while net.trail.len() > mark {
            let (id, old) = net.trail.pop().expect("trail entry");
            net.sets[id.index()] = old;
        }
        net.conflict = false;
        // Only queued gates carry a flag, so draining clears them all.
        while let Some(g) = net.queue.pop_front() {
            net.queued[g.index()] = false;
        }
    }

    /// Runs implications to a fixpoint. A gate whose pins read distinct
    /// nets keeps its queued flag while it runs: its narrowing is exact
    /// per pin, so one pass is its own fixpoint and its own narrowings
    /// need not wake it again. A gate that reads one net on several pins
    /// is woken as before. The fixpoint is unique, so every set and every
    /// conflict stays the same.
    fn propagate(&self, net: &mut Net, fault: Option<StuckFault>) -> bool {
        while let Some(g) = net.queue.pop_front() {
            net.queued[g.index()] = false;
            if net.conflict {
                break;
            }
            let settles = self.circuit.node(g).has_distinct_fanins();
            net.queued[g.index()] = settles;
            let ok = self.imply_gate(net, fault, g);
            if settles {
                net.queued[g.index()] = false;
            }
            if !ok {
                break;
            }
        }
        !net.conflict
    }

    /// One pass of gate `g`'s constraint: forward image, then backward
    /// narrowing of its pins. Returns `false` on a conflict.
    fn imply_gate(&self, net: &mut Net, fault: Option<StuckFault>, g: NodeId) -> bool {
        let node = self.circuit.node(g);
        let kind = node.kind();
        let fanin = node.fanin();
        let mut ins = std::mem::take(&mut net.ins);
        ins.clear();
        ins.extend((0..fanin.len()).map(|p| self.edge_set(net, fault, g, p)));
        let mut out = net.sets[g.index()];
        let image = eval_gate_sets(kind, &ins);
        out = out.intersect(image);
        narrow_inputs(kind, &mut out, &mut ins);
        let mut ok = self.assign(net, g, out);
        if ok {
            for (p, &stem) in fanin.iter().enumerate() {
                let pre = if Self::edge_converted(fault, stem, g, p as u8) {
                    Self::unconvert_within(
                        fault.expect("converted"),
                        ins[p],
                        net.sets[stem.index()],
                    )
                } else {
                    ins[p]
                };
                if !self.assign(net, stem, pre) {
                    ok = false;
                    break;
                }
            }
        }
        net.ins = ins;
        ok
    }

    // ------------------------------------------------------------------
    // Forward functional image & success
    // ------------------------------------------------------------------

    fn leaf_set(&self, node: NodeId, base: StaticSet, stack: &[Decision]) -> StaticSet {
        let mut s = base;
        for d in stack {
            if d.node == node {
                s = s.intersect(d.applied);
            }
        }
        s
    }

    /// Brings the forward functional image in `scratch.image` up to date
    /// with the decided leaves.
    fn forward_image(
        &self,
        ppis: &[PpiConstraint],
        stack: &[Decision],
        fault: Option<StuckFault>,
        scratch: &mut Scratch,
    ) {
        let circuit = self.circuit;
        let Scratch { leaf, image, .. } = scratch;
        leaf.resize(circuit.num_nodes(), StaticSet::EMPTY);
        for &pi in circuit.inputs() {
            leaf[pi.index()] = StaticSet::GOOD;
        }
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            leaf[ff.index()] = ppis[i].leaf();
        }
        for d in stack {
            leaf[d.node.index()] = leaf[d.node.index()].intersect(d.applied);
        }
        let sources = circuit.inputs().iter().chain(circuit.dffs());
        image.update(circuit, fault, sources.map(|&src| (src, leaf[src.index()])));
    }

    fn forward_ppo(&self, image: &[StaticSet], i: usize) -> StaticSet {
        let d = self.circuit.ppo_of_dff(self.circuit.dffs()[i]);
        image[d.index()]
    }

    fn forward_ppo_with_fault(
        &self,
        image: &[StaticSet],
        i: usize,
        fault: Option<StuckFault>,
    ) -> StaticSet {
        let dff = self.circuit.dffs()[i];
        let d = self.circuit.ppo_of_dff(dff);
        let s = image[d.index()];
        if Self::edge_converted(fault, d, dff, 0)
            && fault.map(|f| f.site.branch.is_some()).unwrap_or(false)
        {
            Self::convert(fault.expect("converted"), s)
        } else {
            s
        }
    }

    fn forward_success(
        &self,
        goal: &FrameGoal,
        ppis: &[PpiConstraint],
        stack: &[Decision],
        image: &[StaticSet],
        backtracks: u32,
        fault: Option<StuckFault>,
    ) -> Option<FrameSolution> {
        // An observation (or latched effect) needs a *singleton* D or D̄:
        // a {D, D̄} set means the good-machine value is unknown, so a
        // tester has no expected response to compare against.
        let definite = |s: StaticSet| {
            matches!(
                s.as_singleton(),
                Some(StaticValue::D) | Some(StaticValue::Db)
            )
        };
        let achieved = match goal {
            FrameGoal::ObserveAtPo => self
                .circuit
                .outputs()
                .iter()
                .any(|&po| definite(image[po.index()])),
            FrameGoal::LatchDiff => (0..self.circuit.num_dffs())
                .any(|i| definite(self.forward_ppo_with_fault(image, i, fault))),
            FrameGoal::JustifyPpos(targets) => targets.iter().all(|&(i, b)| {
                let want = if b { StaticValue::S1 } else { StaticValue::S0 };
                self.forward_ppo(image, i).as_singleton() == Some(want)
            }),
        };
        if !achieved {
            return None;
        }
        let po_hit = self
            .circuit
            .outputs()
            .iter()
            .copied()
            .find(|&po| definite(image[po.index()]));
        let pi = self
            .circuit
            .inputs()
            .iter()
            .map(|&p| to_logic3(self.leaf_set(p, StaticSet::GOOD, stack)))
            .collect();
        let ppi_assigned = self
            .circuit
            .dffs()
            .iter()
            .enumerate()
            .filter(|&(i, _)| matches!(ppis[i], PpiConstraint::Assignable))
            .filter_map(|(i, &ff)| {
                let leaf = self.leaf_set(ff, StaticSet::GOOD, stack);
                leaf.as_singleton().map(|v| (i, v.good()))
            })
            .collect();
        let next_state = (0..self.circuit.num_dffs())
            .map(|i| self.forward_ppo_with_fault(image, i, fault))
            .collect();
        Some(FrameSolution {
            pi,
            ppi_assigned,
            po_hit,
            next_state,
            backtracks,
        })
    }

    /// Arc-level pruning: is the goal still conceivably achievable?
    fn still_possible(&self, net: &Net, goal: &FrameGoal, fault: Option<StuckFault>) -> bool {
        match goal {
            FrameGoal::ObserveAtPo => self.circuit.outputs().iter().any(|&po| {
                let mut s = net.sets[po.index()];
                if fault
                    .map(|f| f.site.branch.is_none() && f.site.stem == po)
                    .unwrap_or(false)
                {
                    s = Self::convert(fault.expect("fault"), s);
                }
                s.may_be_fault_effect()
            }),
            FrameGoal::LatchDiff => (0..self.circuit.num_dffs()).any(|i| {
                let dff = self.circuit.dffs()[i];
                let d = self.circuit.ppo_of_dff(dff);
                self.edge_set(net, fault, dff, 0).may_be_fault_effect()
                    || net.sets[d.index()].may_be_fault_effect()
            }),
            FrameGoal::JustifyPpos(targets) => targets.iter().all(|&(i, b)| {
                let d = self.circuit.ppo_of_dff(self.circuit.dffs()[i]);
                let want = if b { StaticValue::S1 } else { StaticValue::S0 };
                net.sets[d.index()].contains(want)
            }),
        }
    }

    // ------------------------------------------------------------------
    // Decisions
    // ------------------------------------------------------------------

    fn pick_decision(
        &self,
        net: &mut Net,
        goal: &FrameGoal,
        ppis: &[PpiConstraint],
        stack: &mut Vec<Decision>,
        fault: Option<StuckFault>,
        scratch: &mut Scratch,
    ) -> bool {
        let objective = self.pick_objective(net, goal, fault, &scratch.image.f);
        let decision = objective
            .and_then(|objective| self.backtrace(net, ppis, stack, objective, fault, scratch))
            .or_else(|| self.fallback_variable(net, ppis, stack));
        let Some((node, mut alts)) = decision else {
            return false;
        };
        debug_assert!(!alts.is_empty());
        let trail_mark = net.trail.len();
        let first = alts.pop().expect("non-empty");
        let _ = self.assign(net, node, first);
        stack.push(Decision {
            node,
            applied: first,
            alts,
            trail_mark,
        });
        true
    }

    fn pick_objective(
        &self,
        net: &Net,
        goal: &FrameGoal,
        fault: Option<StuckFault>,
        image: &[StaticSet],
    ) -> Option<(NodeId, StaticSet)> {
        match goal {
            FrameGoal::JustifyPpos(targets) => {
                // Judge satisfaction on the *forward image* — the arc
                // network already contains the target as a constraint, so
                // it cannot tell us which targets still need decisions.
                for &(i, b) in targets {
                    let d = self.circuit.ppo_of_dff(self.circuit.dffs()[i]);
                    let want_v = if b { StaticValue::S1 } else { StaticValue::S0 };
                    if image[d.index()].as_singleton() != Some(want_v) {
                        return Some((d, StaticSet::singleton(want_v)));
                    }
                }
                None
            }
            _ => {
                // Excitation first (standalone stuck-at mode): if nothing
                // carries the effect yet, provoke the site.
                if let Some(f) = fault {
                    let any_effect = net.sets.iter().any(|s| s.must_be_fault_effect())
                        || self.any_converted_edge_effect(net, f);
                    if !any_effect {
                        let want_good = !Self::stuck_value(f);
                        let desired = net.sets[f.site.stem.index()].with_good(want_good);
                        if !desired.is_empty() && desired != net.sets[f.site.stem.index()] {
                            return Some((f.site.stem, desired));
                        }
                    }
                }
                // D-frontier: unresolved gate with a definite effect on an
                // input, closest to an output.
                let mut best: Option<(u32, NodeId, StaticSet)> = None;
                for &g in self.circuit.topo_order() {
                    let out = net.sets[g.index()];
                    if out.must_be_fault_effect() || !out.may_be_fault_effect() {
                        continue;
                    }
                    let arity = self.circuit.node(g).fanin().len();
                    let has_effect_input =
                        (0..arity).any(|p| self.edge_set(net, fault, g, p).must_be_fault_effect());
                    if !has_effect_input {
                        continue;
                    }
                    let desired = out.intersect(StaticSet::FAULT_EFFECT);
                    if desired.is_empty() {
                        continue;
                    }
                    let cost = self.testability.co[g.index()];
                    if best.as_ref().is_none_or(|&(c, _, _)| cost < c) {
                        best = Some((cost, g, desired));
                    }
                }
                best.map(|(_, g, d)| (g, d))
            }
        }
    }

    fn any_converted_edge_effect(&self, net: &Net, f: StuckFault) -> bool {
        let stem = f.site.stem;
        let s = Self::convert(f, net.sets[stem.index()]);
        s.must_be_fault_effect()
    }

    fn backtrace(
        &self,
        net: &Net,
        ppis: &[PpiConstraint],
        stack: &[Decision],
        objective: (NodeId, StaticSet),
        fault: Option<StuckFault>,
        scratch: &mut Scratch,
    ) -> Option<(NodeId, Vec<StaticSet>)> {
        let (mut node, mut desired) = objective;
        let Scratch {
            orig,
            narrowed: ins,
            ..
        } = scratch;
        let limit = 4 * self.circuit.num_nodes() + 16;
        for _ in 0..limit {
            desired = desired.intersect(net.sets[node.index()]);
            if desired.is_empty() {
                return None;
            }
            let kind = self.circuit.node(node).kind();
            match kind {
                GateKind::Input => {
                    return self.leaf_decision(node, StaticSet::GOOD, desired, stack)
                }
                GateKind::Dff => {
                    let i = self
                        .circuit
                        .dffs()
                        .iter()
                        .position(|&f| f == node)
                        .expect("dff index");
                    return match ppis[i] {
                        PpiConstraint::Assignable => {
                            self.leaf_decision(node, StaticSet::GOOD, desired, stack)
                        }
                        PpiConstraint::Fixed(_) => None, // cannot influence
                    };
                }
                _ => {
                    let arity = self.circuit.node(node).fanin().len();
                    orig.clear();
                    orig.extend((0..arity).map(|p| self.edge_set(net, fault, node, p)));
                    ins.clear();
                    ins.extend_from_slice(orig);
                    let mut out = desired;
                    narrow_inputs(kind, &mut out, ins);
                    let required = (0..arity)
                        .filter(|&p| ins[p] != orig[p] && !ins[p].is_empty())
                        .max_by_key(|&p| self.edge_cost(node, p));
                    let mut advanced = false;
                    if let Some(p) = required {
                        let stem = self.circuit.node(node).fanin()[p];
                        let pre = self.pre_of(net, fault, node, p, ins[p]);
                        if !pre.is_empty() && pre != net.sets[stem.index()] {
                            node = stem;
                            desired = pre;
                            advanced = true;
                        }
                    }
                    if advanced {
                        continue;
                    }
                    let p = (0..arity)
                        .filter(|&p| orig[p].len() > 1)
                        .min_by_key(|&p| self.edge_cost(node, p))?;
                    // `ins` is free again: it becomes the pinned copy.
                    let chosen = choose_helping_value(kind, orig, ins, p, desired)?;
                    let stem = self.circuit.node(node).fanin()[p];
                    let pre = self.pre_of(net, fault, node, p, StaticSet::singleton(chosen));
                    if pre.is_empty() {
                        return None;
                    }
                    node = stem;
                    desired = pre;
                }
            }
        }
        None
    }

    fn pre_of(
        &self,
        net: &Net,
        fault: Option<StuckFault>,
        sink: NodeId,
        pin: usize,
        edge_desired: StaticSet,
    ) -> StaticSet {
        let stem = self.circuit.node(sink).fanin()[pin];
        if Self::edge_converted(fault, stem, sink, pin as u8) {
            Self::unconvert_within(
                fault.expect("converted"),
                edge_desired,
                net.sets[stem.index()],
            )
        } else {
            edge_desired.intersect(net.sets[stem.index()])
        }
    }

    fn edge_cost(&self, sink: NodeId, pin: usize) -> u32 {
        let stem = self.circuit.node(sink).fanin()[pin];
        self.testability.cc0[stem.index()].min(self.testability.cc1[stem.index()])
    }

    fn leaf_decision(
        &self,
        node: NodeId,
        base: StaticSet,
        desired: StaticSet,
        stack: &[Decision],
    ) -> Option<(NodeId, Vec<StaticSet>)> {
        let leaf = self.leaf_set(node, base, stack);
        if leaf.len() <= 1 {
            return None;
        }
        // Alternatives tried back-to-front: desired values last.
        let mut ordered: Vec<StaticSet> = Vec::new();
        for v in leaf.iter() {
            if !desired.contains(v) {
                ordered.push(StaticSet::singleton(v));
            }
        }
        for v in leaf.iter() {
            if desired.contains(v) {
                ordered.push(StaticSet::singleton(v));
            }
        }
        Some((node, ordered))
    }

    fn fallback_variable(
        &self,
        net: &Net,
        ppis: &[PpiConstraint],
        stack: &[Decision],
    ) -> Option<(NodeId, Vec<StaticSet>)> {
        // Constrained PIs first, then free PIs, then assignable PPIs (each
        // PPI assignment creates a justification burden — last resort).
        let mut pick: Option<(u8, NodeId)> = None;
        for &pi in self.circuit.inputs() {
            let leaf = self.leaf_set(pi, StaticSet::GOOD, stack);
            if leaf.len() > 1 {
                let rank = if net.sets[pi.index()].len() < leaf.len() {
                    0
                } else {
                    1
                };
                if pick.is_none_or(|(r, _)| rank < r) {
                    pick = Some((rank, pi));
                }
            }
        }
        if pick.is_none() {
            for (i, &ff) in self.circuit.dffs().iter().enumerate() {
                if matches!(ppis[i], PpiConstraint::Assignable) {
                    let leaf = self.leaf_set(ff, StaticSet::GOOD, stack);
                    if leaf.len() > 1 {
                        pick = Some((2, ff));
                        break;
                    }
                }
            }
        }
        let (_, node) = pick?;
        let leaf = self.leaf_set(node, StaticSet::GOOD, stack);
        let arc = net.sets[node.index()];
        let mut ordered: Vec<StaticSet> = Vec::new();
        for v in leaf.iter() {
            if !arc.contains(v) {
                ordered.push(StaticSet::singleton(v));
            }
        }
        for v in leaf.iter() {
            if arc.contains(v) {
                ordered.push(StaticSet::singleton(v));
            }
        }
        Some((node, ordered))
    }
}

fn to_logic3(s: StaticSet) -> Logic3 {
    match s.as_singleton() {
        Some(StaticValue::S0) => Logic3::Zero,
        Some(StaticValue::S1) => Logic3::One,
        _ => Logic3::X,
    }
}

/// Picks a value for input `p` that keeps `desired` producible. `pinned`
/// is scratch space for `orig` with input `p` pinned.
fn choose_helping_value(
    kind: GateKind,
    orig: &[StaticSet],
    pinned: &mut Vec<StaticSet>,
    p: usize,
    desired: StaticSet,
) -> Option<StaticValue> {
    const PREFERENCE: [StaticValue; 4] = [
        StaticValue::S1,
        StaticValue::S0,
        StaticValue::D,
        StaticValue::Db,
    ];
    pinned.clear();
    pinned.extend_from_slice(orig);
    let mut fallback = None;
    for v in PREFERENCE {
        if !orig[p].contains(v) {
            continue;
        }
        pinned[p] = StaticSet::singleton(v);
        let image = eval_gate_sets(kind, pinned);
        if image.intersect(desired).is_empty() {
            continue;
        }
        if image.intersect(desired) == image {
            return Some(v);
        }
        if fallback.is_none() {
            fallback = Some(v);
        }
    }
    fallback
}

impl<'c> FrameEngine<'c> {
    /// Pure forward simulation of one frame over value sets: `state` gives
    /// one set per flip-flop, `pi` is a (possibly partial) PI vector, and
    /// `fault` optionally injects a stuck-at. Returns `(po_sets,
    /// next_state_sets)` — used by the multi-frame drivers for reliance
    /// analysis and conditioning frames.
    pub fn simulate_frame(
        &self,
        state: &[StaticSet],
        pi: &[Logic3],
        fault: Option<StuckFault>,
    ) -> (Vec<StaticSet>, Vec<StaticSet>) {
        assert_eq!(state.len(), self.circuit.num_dffs());
        assert_eq!(pi.len(), self.circuit.num_inputs());
        let circuit = self.circuit;
        let pis = circuit.inputs().iter().zip(pi).map(|(&p, l)| {
            let set = match l.to_bool() {
                Some(true) => StaticSet::singleton(StaticValue::S1),
                Some(false) => StaticSet::singleton(StaticValue::S0),
                None => StaticSet::GOOD,
            };
            (p, set)
        });
        let ffs = circuit.dffs().iter().copied().zip(state.iter().copied());
        let image = &mut self.scratch.borrow_mut().image;
        image.update(circuit, fault, pis.chain(ffs));
        let f = &image.f;
        let pos = circuit.outputs().iter().map(|&po| f[po.index()]).collect();
        let next = (0..circuit.num_dffs())
            .map(|i| {
                let dff = circuit.dffs()[i];
                let d = circuit.ppo_of_dff(dff);
                let s = f[d.index()];
                if Self::edge_converted(fault, d, dff, 0) {
                    Self::convert(fault.expect("converted"), s)
                } else {
                    s
                }
            })
            .collect();
        (pos, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_netlist::{suite, CircuitBuilder, FaultSite, StuckAtKind};

    fn fixed(v: StaticValue) -> PpiConstraint {
        PpiConstraint::Fixed(StaticSet::singleton(v))
    }

    #[test]
    fn propagates_diff_to_po_in_s27() {
        let c = suite::s27();
        let ppis = vec![
            fixed(StaticValue::S0),
            fixed(StaticValue::D),
            fixed(StaticValue::S0),
        ];
        let engine = FrameEngine::new(&c, 100);
        let result = engine.solve(&ppis, &FrameGoal::ObserveAtPo, None);
        let sol = result.solution().expect("observable");
        assert!(sol.po_hit.is_some());
        // The engine must set G0=0 so that G14=1 exposes G6 through G8.
        assert_eq!(sol.pi[0], Logic3::Zero);
    }

    #[test]
    fn blocked_diff_is_exhausted_not_aborted() {
        // y = AND(q, en): difference on q with en forced 0 by a conflicting
        // constraint cannot reach the PO... here we just check a circuit
        // where the diff is structurally unobservable.
        let mut b = CircuitBuilder::new("dead");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_dff("r", "e");
        b.add_gate("d", GateKind::Buf, &["a"]);
        b.add_gate("e", GateKind::Buf, &["q"]);
        b.add_gate("y", GateKind::Buf, &["a"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        // diff on r: r feeds nothing observable (only PO is y = a).
        let ppis = vec![fixed(StaticValue::S0), fixed(StaticValue::D)];
        let engine = FrameEngine::new(&c, 100);
        assert_eq!(
            engine.solve(&ppis, &FrameGoal::ObserveAtPo, None),
            FrameResult::Exhausted
        );
    }

    #[test]
    fn latch_diff_moves_effect_one_frame() {
        let c = gdf_netlist::generator::shift_register(2);
        // diff on q0 must move to q1 (en must be set).
        let ppis = vec![fixed(StaticValue::D), fixed(StaticValue::S0)];
        let engine = FrameEngine::new(&c, 100);
        let sol = engine
            .solve(&ppis, &FrameGoal::LatchDiff, None)
            .solution()
            .cloned()
            .expect("solvable");
        // en is PI index 1 in shift_register (si, en).
        assert_eq!(
            sol.pi[1],
            Logic3::One,
            "enable must be on to shift the diff"
        );
        assert!(sol.next_state[1].must_be_fault_effect());
    }

    #[test]
    fn justify_ppos_simple() {
        let c = gdf_netlist::generator::shift_register(1);
        // Target: q0 gets value 1 → need si=1 and en=1.
        let ppis = vec![PpiConstraint::Assignable];
        let engine = FrameEngine::new(&c, 100);
        let sol = engine
            .solve(&ppis, &FrameGoal::JustifyPpos(vec![(0, true)]), None)
            .solution()
            .cloned()
            .expect("justifiable");
        assert_eq!(sol.pi[0], Logic3::One);
        assert_eq!(sol.pi[1], Logic3::One);
        assert!(sol.ppi_assigned.is_empty(), "no previous-state requirement");
    }

    #[test]
    fn justify_creates_ppi_requirement_when_needed() {
        // d = AND(q, a): producing d=1 needs q=1 from the previous frame.
        let mut b = CircuitBuilder::new("need");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_gate("d", GateKind::And, &["q", "a"]);
        b.mark_output("d");
        let c = b.build().unwrap();
        let ppis = vec![PpiConstraint::Assignable];
        let engine = FrameEngine::new(&c, 100);
        let sol = engine
            .solve(&ppis, &FrameGoal::JustifyPpos(vec![(0, true)]), None)
            .solution()
            .cloned()
            .expect("justifiable with requirement");
        assert_eq!(sol.ppi_assigned, vec![(0, true)]);
        assert_eq!(sol.pi[0], Logic3::One);
    }

    #[test]
    fn justify_impossible_target_exhausts() {
        // d = AND(a, NOT(a)) ≡ 0: target d=1 impossible.
        let mut b = CircuitBuilder::new("impossible");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_gate("n", GateKind::Not, &["a"]);
        b.add_gate("d", GateKind::And, &["a", "n"]);
        b.add_gate("y", GateKind::Buf, &["q"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let ppis = vec![PpiConstraint::Assignable];
        let engine = FrameEngine::new(&c, 100);
        assert_eq!(
            engine.solve(&ppis, &FrameGoal::JustifyPpos(vec![(0, true)]), None),
            FrameResult::Exhausted
        );
    }

    #[test]
    fn stuck_at_injection_excites_and_observes() {
        // y = NOT(a) with a sa0 on a: needs a=1, observes D' at y... with
        // injection the faulty machine sees 0 → y good 0, faulty 1.
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
        let engine = FrameEngine::new(&c, 100);
        let sol = engine
            .solve(&[], &FrameGoal::ObserveAtPo, Some(fault))
            .solution()
            .cloned()
            .expect("excitable");
        assert_eq!(sol.pi[0], Logic3::One);
    }

    /// The reference fixpoint: every gate implied round-robin, in
    /// topological order, until a whole round narrows nothing.
    fn round_robin(engine: &FrameEngine<'_>, net: &mut Net, fault: Option<StuckFault>) -> bool {
        loop {
            let before = net.trail.len();
            for &g in engine.circuit.topo_order() {
                if !engine.imply_gate(net, fault, g) {
                    return false;
                }
            }
            if net.trail.len() == before {
                return true;
            }
        }
    }

    #[test]
    fn propagate_reaches_the_round_robin_fixpoint() {
        use gdf_netlist::generator;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1995);
        for seed in 0..300 {
            let c = generator::random_tangle(seed);
            let engine = FrameEngine::new(&c, 100);
            let site = generator::random_site(&c, &mut rng);
            let stuck = StuckFault {
                site,
                kind: StuckAtKind::ALL[rng.gen_range(0..2usize)],
            };
            let ppis: Vec<PpiConstraint> = (0..c.num_dffs())
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => PpiConstraint::Assignable,
                    _ => PpiConstraint::Fixed(StaticSet::from_bits(rng.gen_range(1..16u8))),
                })
                .collect();
            for fault in [None, Some(stuck)] {
                let mut queued = engine.init_net(&ppis, fault);
                let mut reference = engine.init_net(&ppis, fault);
                // A search-like walk: narrow a random net, compare the
                // fixpoints, and undo the step on a conflict.
                for step in 0..9 {
                    let marks = (queued.trail.len(), reference.trail.len());
                    if step > 0 {
                        let node = NodeId(rng.gen_range(0..c.num_nodes() as u32));
                        let narrowed = StaticSet::from_bits(rng.gen_range(0..16u8))
                            .intersect(queued.sets[node.index()]);
                        let ok = engine.assign(&mut queued, node, narrowed);
                        assert_eq!(engine.assign(&mut reference, node, narrowed), ok);
                    }
                    let got = engine.propagate(&mut queued, fault);
                    let want = round_robin(&engine, &mut reference, fault) && !reference.conflict;
                    assert_eq!(got, want, "{} {fault:?}: conflict status", c.name());
                    if got {
                        assert_eq!(queued.sets, reference.sets, "{} {fault:?}", c.name());
                    } else {
                        engine.rollback(&mut queued, marks.0);
                        engine.rollback(&mut reference, marks.1);
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_ppi_blocks_definite_observation() {
        // y = XOR(q, a): with q unknown (Xf), y can never be a definite D
        // even though a is free — matches the paper's Xf pessimism.
        let mut b = CircuitBuilder::new("xf");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_dff("p", "e");
        b.add_gate("d", GateKind::Buf, &["a"]);
        b.add_gate("e", GateKind::Buf, &["a"]);
        b.add_gate("y", GateKind::Xor, &["q", "p"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        // p carries D, q is fixed-unknown.
        let ppis = vec![
            PpiConstraint::Fixed(StaticSet::GOOD), // Xf
            PpiConstraint::Fixed(StaticSet::singleton(StaticValue::D)),
        ];
        let engine = FrameEngine::new(&c, 100);
        assert_eq!(
            engine.solve(&ppis, &FrameGoal::ObserveAtPo, None),
            FrameResult::Exhausted,
            "XOR with an Xf side input cannot give a definite difference"
        );
    }
}
