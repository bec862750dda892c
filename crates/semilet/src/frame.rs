//! The per-time-frame 5-valued engine shared by SEMILET's propagation,
//! justification and standalone stuck-at modes.
//!
//! One instance solves one combinational time frame: pseudo primary inputs
//! carry constraints from the neighbouring frames, primary inputs are
//! decision variables, and the goal is either to drive a fault effect to an
//! observation point or to justify required pseudo-primary-output values.
//! Implications run on arc-consistent [`StaticSet`]s in the implication
//! network and branch-and-bound TDgen uses too
//! ([`gdf_algebra::search`], §3's refs 8 and 20), instantiated with the
//! static D-algebra of [`StaticAlgebra`]; success is declared only on a
//! *forward functional image* from the decided leaves, so a solution with
//! don't-care `X` positions holds for every completion.
//!
//! A search step costs what changed. The forward image is a pure function
//! of the source sets and the fault, so the engine keeps it from one
//! update, one solve and one simulated frame to the next, and re-evaluates
//! only the gates with a changed fanin, in level order.
//!
//! A step updates the image only where it can succeed. At a consistent
//! fixpoint every net's set lies inside its forward image (the network's
//! leaves are the image's leaves cut further, and a gate's arc-consistent
//! set lies inside the image of its inputs' sets), so the image shows a
//! definite effect at a PO or a PPO only where the network already shows
//! one. Observation and latching steps test the network first and skip
//! the image when it shows no such point; debug builds still update it
//! there and assert that it shows no success. Justification always
//! updates the image, because its network holds the targets as
//! constraints.

use gdf_algebra::logic3::Logic3;
use gdf_algebra::search::{
    branch_and_bound, leaf_set, preferred_last, Choice, Decision, GateBuffers, Outcome, SetAlgebra,
    SetNet, Step,
};
use gdf_algebra::static5::{eval_gate_sets, narrow_inputs, StaticSet, StaticValue};
use gdf_netlist::{Circuit, FaultSite, GateKind, NodeId, StuckFault};
use gdf_sim::packed::LevelQueue;
use std::cell::RefCell;
use std::ops::ControlFlow;

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

/// The static D-algebra of one frame, with the stuck-at fault it injects
/// (none in a fault-free, slow-clock frame). A stuck edge shows the stuck
/// value in the faulty machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StaticAlgebra {
    fault: Option<StuckFault>,
}

impl SetAlgebra for StaticAlgebra {
    type Set = StaticSet;
    const COUPLED: bool = false;

    fn eval(&self, kind: GateKind, ins: &[StaticSet]) -> StaticSet {
        eval_gate_sets(kind, ins)
    }

    fn narrow(&self, kind: GateKind, out: &mut StaticSet, ins: &mut [StaticSet]) -> bool {
        narrow_inputs(kind, out, ins)
    }

    fn site(&self) -> Option<FaultSite> {
        self.fault.map(|f| f.site)
    }

    fn convert(&self, s: StaticSet) -> StaticSet {
        match self.fault {
            Some(f) => s
                .iter()
                .map(|v| StaticValue::from_pair(v.good(), f.kind.value()))
                .collect(),
            None => s,
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
    scratch: RefCell<Scratch>,
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
    gate: GateBuffers<StaticSet>,
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
    /// The algebra (fault) `f` was computed under.
    algebra: StaticAlgebra,
    /// Input sets of the gate being evaluated.
    ins: Vec<StaticSet>,
    queue: LevelQueue,
}

impl FrameImage {
    /// Brings the image up to date with new `sources` sets (every PI and
    /// flip-flop) under `algebra`.
    fn update(
        &mut self,
        circuit: &Circuit,
        algebra: StaticAlgebra,
        sources: impl IntoIterator<Item = (NodeId, StaticSet)>,
    ) {
        let FrameImage {
            f,
            algebra: image_algebra,
            ins,
            queue,
        } = self;
        queue.prepare(circuit);
        if f.len() != circuit.num_nodes() || *image_algebra != algebra {
            *image_algebra = algebra;
            f.clear();
            f.resize(circuit.num_nodes(), StaticSet::EMPTY);
            for &g in circuit.topo_order() {
                queue.schedule(circuit, g);
            }
        }
        // A stuck stem overrides its own observed value too. Conversion is
        // idempotent, so its fanout edges may read the stored value.
        for (src, set) in sources {
            let v = algebra.stem_view(src, set);
            if v != f[src.index()] {
                queue.inject(circuit, f, src, v);
            }
        }
        queue.run(circuit, f, |g, f| {
            let node = circuit.node(g);
            ins.clear();
            ins.extend(
                node.fanin()
                    .iter()
                    .enumerate()
                    .map(|(pin, &src)| algebra.edge_view(src, g, pin as u8, f[src.index()])),
            );
            algebra.stem_view(g, eval_gate_sets(node.kind(), ins))
        });
        queue.forget_touched();
    }

    /// The set latched by flip-flop `i` (post-conversion on a stuck D
    /// branch; a stuck D stem already stores its converted value).
    fn ppo(&self, circuit: &Circuit, i: usize) -> StaticSet {
        let dff = circuit.dffs()[i];
        let d = circuit.ppo_of_dff(dff);
        self.algebra.edge_view(d, dff, 0, self.f[d.index()])
    }
}

impl<'c> FrameEngine<'c> {
    /// Creates an engine with the paper's default-style backtrack limit.
    pub fn new(circuit: &'c Circuit, backtrack_limit: u32) -> Self {
        FrameEngine {
            circuit,
            backtrack_limit,
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
        let mut net = self.network(ppis, fault);
        // Seed goal constraints into the arc network where possible.
        if let FrameGoal::JustifyPpos(targets) = goal {
            for &(i, b) in targets {
                let d = self.circuit.ppo_of_dff(self.circuit.dffs()[i]);
                if !net.assign(d, StaticSet::singleton(steady(b))) {
                    return FrameResult::Exhausted;
                }
            }
        }
        let scratch = &mut *self.scratch.borrow_mut();
        let outcome = branch_and_bound(&mut net, self.backtrack_limit, |net, stack, backtracks| {
            // The image shows the goal only where the network may (module
            // docs); debug builds check that on every skipped step.
            let shown = self.network_may_succeed(net, goal);
            if shown || cfg!(debug_assertions) {
                self.forward_image(ppis, stack, net.algebra(), scratch);
                let found = self.forward_success(goal, ppis, stack, &scratch.image, backtracks);
                debug_assert!(
                    shown || found.is_none(),
                    "image shows the goal beyond the network"
                );
                if let Some(sol) = found {
                    return Step::Found(sol);
                }
            }
            if !self.still_possible(net, goal) {
                return Step::Branch(None);
            }
            // Only justification reads the image here, and its image is
            // always up to date.
            let decision = self
                .pick_objective(net, goal, &scratch.image.f)
                .and_then(|(node, desired)| {
                    net.backtrace(node, desired, &mut scratch.gate, |node, desired| {
                        ControlFlow::Break(self.leaf_step(net, ppis, node, desired, stack))
                    })
                })
                .or_else(|| self.fallback_variable(net, ppis, stack));
            Step::Branch(decision)
        });
        match outcome {
            Outcome::Found(sol) => FrameResult::Solved(sol),
            Outcome::Exhausted => FrameResult::Exhausted,
            Outcome::Aborted => FrameResult::Aborted,
        }
    }

    /// The implication network of one frame: PIs and assignable PPIs take
    /// the good-machine values, fixed PPIs their given sets, and every
    /// other net all four values. Outside the cone of the fault site and
    /// of the PPIs that may carry a fault effect, every net is good.
    pub fn network(
        &self,
        ppis: &[PpiConstraint],
        fault: Option<StuckFault>,
    ) -> SetNet<'c, StaticAlgebra> {
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
        SetNet::new(self.circuit, StaticAlgebra { fault }, sets)
    }

    // ------------------------------------------------------------------
    // Forward functional image & success
    // ------------------------------------------------------------------

    /// Brings the forward functional image in `scratch.image` up to date
    /// with the decided leaves.
    fn forward_image(
        &self,
        ppis: &[PpiConstraint],
        stack: &[Decision<StaticSet>],
        algebra: &StaticAlgebra,
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
        image.update(
            circuit,
            *algebra,
            sources.map(|&src| (src, leaf[src.index()])),
        );
    }

    /// Whether the forward image can show the goal. At a consistent
    /// fixpoint every net's set lies inside its image, so the image shows a
    /// definite effect at a PO (through [`SetAlgebra::stem_view`]) or a
    /// PPO (through [`SetNet::edge_set`]) only where the network does.
    /// Justification always needs the image: its network already holds
    /// the targets.
    fn network_may_succeed(&self, net: &SetNet<'_, StaticAlgebra>, goal: &FrameGoal) -> bool {
        let circuit = self.circuit;
        match goal {
            FrameGoal::ObserveAtPo => circuit
                .outputs()
                .iter()
                .any(|&po| definite(net.algebra().stem_view(po, net.set(po)))),
            FrameGoal::LatchDiff => circuit
                .dffs()
                .iter()
                .any(|&dff| definite(net.edge_set(dff, 0))),
            FrameGoal::JustifyPpos(_) => true,
        }
    }

    fn forward_success(
        &self,
        goal: &FrameGoal,
        ppis: &[PpiConstraint],
        stack: &[Decision<StaticSet>],
        image: &FrameImage,
        backtracks: u32,
    ) -> Option<FrameSolution> {
        let circuit = self.circuit;
        let f = &image.f;
        let achieved = match goal {
            FrameGoal::ObserveAtPo => circuit.outputs().iter().any(|&po| definite(f[po.index()])),
            FrameGoal::LatchDiff => {
                (0..circuit.num_dffs()).any(|i| definite(image.ppo(circuit, i)))
            }
            FrameGoal::JustifyPpos(targets) => targets.iter().all(|&(i, b)| {
                let d = circuit.ppo_of_dff(circuit.dffs()[i]);
                f[d.index()].as_singleton() == Some(steady(b))
            }),
        };
        if !achieved {
            return None;
        }
        let po_hit = circuit
            .outputs()
            .iter()
            .copied()
            .find(|&po| definite(f[po.index()]));
        let pi = circuit
            .inputs()
            .iter()
            .map(|&p| to_logic3(leaf_set(p, StaticSet::GOOD, stack)))
            .collect();
        let ppi_assigned = circuit
            .dffs()
            .iter()
            .enumerate()
            .filter(|&(i, _)| matches!(ppis[i], PpiConstraint::Assignable))
            .filter_map(|(i, &ff)| {
                let leaf = leaf_set(ff, StaticSet::GOOD, stack);
                leaf.as_singleton().map(|v| (i, v.good()))
            })
            .collect();
        let next_state = (0..circuit.num_dffs())
            .map(|i| image.ppo(circuit, i))
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
    fn still_possible(&self, net: &SetNet<'_, StaticAlgebra>, goal: &FrameGoal) -> bool {
        let circuit = self.circuit;
        match goal {
            FrameGoal::ObserveAtPo => circuit.outputs().iter().any(|&po| {
                net.algebra()
                    .stem_view(po, net.set(po))
                    .may_be_fault_effect()
            }),
            FrameGoal::LatchDiff => circuit.dffs().iter().any(|&dff| {
                let d = circuit.ppo_of_dff(dff);
                net.edge_set(dff, 0).may_be_fault_effect() || net.set(d).may_be_fault_effect()
            }),
            FrameGoal::JustifyPpos(targets) => targets.iter().all(|&(i, b)| {
                let d = circuit.ppo_of_dff(circuit.dffs()[i]);
                net.set(d).contains(steady(b))
            }),
        }
    }

    // ------------------------------------------------------------------
    // Decisions
    // ------------------------------------------------------------------

    fn pick_objective(
        &self,
        net: &SetNet<'_, StaticAlgebra>,
        goal: &FrameGoal,
        image: &[StaticSet],
    ) -> Option<(NodeId, StaticSet)> {
        if let FrameGoal::JustifyPpos(targets) = goal {
            // Judge satisfaction on the *forward image* — the arc network
            // already contains the target as a constraint, so it cannot
            // tell us which targets still need decisions.
            return targets.iter().find_map(|&(i, b)| {
                let d = self.circuit.ppo_of_dff(self.circuit.dffs()[i]);
                (image[d.index()].as_singleton() != Some(steady(b)))
                    .then(|| (d, StaticSet::singleton(steady(b))))
            });
        }
        // Excitation first (standalone stuck-at mode): if nothing carries
        // the effect yet, provoke the site.
        if let Some(f) = net.algebra().fault {
            let stem = net.set(f.site.stem);
            let any_effect = net.sets().iter().any(|s| s.must_be_fault_effect())
                || net.algebra().convert(stem).must_be_fault_effect();
            if !any_effect {
                let desired = stem.with_good(!f.kind.value());
                if !desired.is_empty() && desired != stem {
                    return Some((f.site.stem, desired));
                }
            }
        }
        net.d_frontier()
    }

    /// Backtrace at a PI or an assignable PPI: a decision with the desired
    /// values tried first. A fixed PPI cannot be influenced.
    fn leaf_step(
        &self,
        net: &SetNet<'_, StaticAlgebra>,
        ppis: &[PpiConstraint],
        node: NodeId,
        desired: StaticSet,
        stack: &[Decision<StaticSet>],
    ) -> Option<Choice<StaticSet>> {
        if self.circuit.node(node).kind() == GateKind::Dff
            && matches!(ppis[net.dff_index(node)], PpiConstraint::Fixed(_))
        {
            return None;
        }
        let leaf = leaf_set(node, StaticSet::GOOD, stack);
        (leaf.len() > 1).then(|| (node, preferred_last(leaf, desired)))
    }

    fn fallback_variable(
        &self,
        net: &SetNet<'_, StaticAlgebra>,
        ppis: &[PpiConstraint],
        stack: &[Decision<StaticSet>],
    ) -> Option<Choice<StaticSet>> {
        // Constrained PIs first, then free PIs, then assignable PPIs (each
        // PPI assignment creates a justification burden — last resort).
        let mut pick: Option<(u8, NodeId)> = None;
        for &pi in self.circuit.inputs() {
            let leaf = leaf_set(pi, StaticSet::GOOD, stack);
            if leaf.len() > 1 {
                let rank = if net.set(pi).len() < leaf.len() { 0 } else { 1 };
                if pick.is_none_or(|(r, _)| rank < r) {
                    pick = Some((rank, pi));
                }
            }
        }
        if pick.is_none() {
            for (i, &ff) in self.circuit.dffs().iter().enumerate() {
                if matches!(ppis[i], PpiConstraint::Assignable)
                    && leaf_set(ff, StaticSet::GOOD, stack).len() > 1
                {
                    pick = Some((2, ff));
                    break;
                }
            }
        }
        let (_, node) = pick?;
        let leaf = leaf_set(node, StaticSet::GOOD, stack);
        Some((node, preferred_last(leaf, net.set(node))))
    }
}

/// Whether an observation point shows a definite fault effect: a
/// *singleton* D or D̄. A {D, D̄} set means the good-machine value is
/// unknown, so a tester has no expected response to compare against.
fn definite(s: StaticSet) -> bool {
    matches!(
        s.as_singleton(),
        Some(StaticValue::D) | Some(StaticValue::Db)
    )
}

/// The steady good-machine value `b`.
fn steady(b: bool) -> StaticValue {
    if b {
        StaticValue::S1
    } else {
        StaticValue::S0
    }
}

fn to_logic3(s: StaticSet) -> Logic3 {
    match s.as_singleton() {
        Some(StaticValue::S0) => Logic3::Zero,
        Some(StaticValue::S1) => Logic3::One,
        _ => Logic3::X,
    }
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
                Some(b) => StaticSet::singleton(steady(b)),
                None => StaticSet::GOOD,
            };
            (p, set)
        });
        let ffs = circuit.dffs().iter().copied().zip(state.iter().copied());
        let image = &mut self.scratch.borrow_mut().image;
        image.update(circuit, StaticAlgebra { fault }, pis.chain(ffs));
        let pos = circuit
            .outputs()
            .iter()
            .map(|&po| image.f[po.index()])
            .collect();
        let next = (0..circuit.num_dffs())
            .map(|i| image.ppo(circuit, i))
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
