//! The search machinery TDgen and SEMILET share: a per-net value-set
//! network with forward and backward implication, and a backtrack-limited
//! branch-and-bound over it.
//!
//! The paper (§3, with its refs 8 and 20) describes exactly this machinery:
//! *"During local test pattern generation for each gate a set of values is
//! maintained that are possible for that gate. Using these sets, and the
//! truth tables for each gate, forward and backward implications can be
//! made."* The fault site is the *"only exception"*: its edges convert a
//! provoking value into its faulty form.
//!
//! Everything here is generic over a [`SetAlgebra`], which gives the value
//! sets, their gate implication, the fault-site conversion and (for the
//! two-frame delay algebra) the flip-flop coupling. It is instantiated by
//! static dispatch three times: TDgen's robust and non-robust delay
//! algebras (`gdf_tdgen::network::DelayAlgebra`) and SEMILET's static
//! D-algebra, with or without a stuck fault
//! (`gdf_semilet::frame::StaticAlgebra`). Each engine keeps only what
//! differs: its initial domains, its forward image, its goals and its
//! decision variables.
//!
//! * [`SetNet`] holds one set per net, records every narrowing on an undo
//!   trail and runs implications to a fixpoint, lowest level first. A
//!   constraint whose one pass is its own fixpoint (a gate whose pins read
//!   distinct nets, a flip-flop coupling whose D net is not its own Q) is
//!   not woken again by its own narrowings; the fixpoint is unique, so
//!   neither the order nor the skipped passes change a set or a conflict.
//!   What it reads per net and per constraint comes from the circuit's
//!   [`ImplicationTable`], built once per circuit.
//! * [`branch_and_bound`] is the search loop: a decision stack, a
//!   backtrack count against the limit, and rollback and retry of the
//!   next alternative.
//! * [`SetNet::backtrace`] maps an objective to a decision through the
//!   gates (the FAN heuristic: the hardest required input, else the
//!   easiest open one with a helping value), and [`SetNet::d_frontier`]
//!   is the propagation objective.

use crate::delay::{DelaySet, DelayValue};
use crate::static5::{StaticSet, StaticValue};
use gdf_netlist::scoap::Testability;
use gdf_netlist::{Circuit, FaultSite, GateKind, ImplicationTable, NodeId};
use std::ops::ControlFlow;

/// A set of still-possible values of one algebra, as a bitmask: value
/// `i` of the table order is bit `i`.
pub trait ValueSet: Copy + Eq + std::fmt::Debug {
    /// The values.
    type Value: Copy + Eq + 'static;
    /// The empty set.
    const EMPTY: Self;
    /// The fault-carrying values (`{Rc, Fc}` or `{D, D̄}`).
    const CARRYING: Self;
    /// Every value, in table order.
    const VALUES: &'static [Self::Value];
    /// The order in which backtrace tries a helping value: steady clean
    /// values first (cheap to justify), fault-carrying ones last.
    const HELPING: &'static [Self::Value];
    /// The position of `v` in the table order.
    fn index(v: Self::Value) -> u8;
    /// The raw bitmask.
    fn bits(self) -> u8;
    /// The set of a raw bitmask.
    fn from_bits(bits: u8) -> Self;

    /// The singleton set `{v}`.
    fn singleton(v: Self::Value) -> Self {
        Self::from_bits(1 << Self::index(v))
    }

    /// Whether `v` is still possible.
    fn contains(self, v: Self::Value) -> bool {
        self.bits() >> Self::index(v) & 1 == 1
    }

    /// Set union.
    fn union(self, other: Self) -> Self {
        Self::from_bits(self.bits() | other.bits())
    }

    /// Set intersection.
    fn intersect(self, other: Self) -> Self {
        Self::from_bits(self.bits() & other.bits())
    }

    /// Whether the set is empty (an implication conflict).
    fn is_empty(self) -> bool {
        self.bits() == 0
    }

    /// Number of values in the set.
    fn len(self) -> usize {
        self.bits().count_ones() as usize
    }

    /// The values in the set, in table order.
    fn iter(self) -> impl Iterator<Item = Self::Value> {
        Self::VALUES
            .iter()
            .copied()
            .filter(move |&v| self.contains(v))
    }

    /// Whether some value carries the fault effect.
    fn may_carry(self) -> bool {
        !self.intersect(Self::CARRYING).is_empty()
    }

    /// Whether every value of the non-empty set carries the fault effect.
    fn must_carry(self) -> bool {
        !self.is_empty() && self.intersect(Self::CARRYING) == self
    }
}

impl ValueSet for DelaySet {
    type Value = DelayValue;
    const EMPTY: Self = DelaySet::EMPTY;
    const CARRYING: Self = DelaySet::CARRYING;
    const VALUES: &'static [DelayValue] = &DelayValue::ALL;
    const HELPING: &'static [DelayValue] = &[
        DelayValue::S1,
        DelayValue::S0,
        DelayValue::R,
        DelayValue::F,
        DelayValue::H1,
        DelayValue::H0,
        DelayValue::Rc,
        DelayValue::Fc,
    ];
    #[inline]
    fn index(v: DelayValue) -> u8 {
        v.index()
    }
    #[inline]
    fn bits(self) -> u8 {
        DelaySet::bits(self)
    }
    #[inline]
    fn from_bits(bits: u8) -> Self {
        DelaySet::from_bits(bits)
    }
}

impl ValueSet for StaticSet {
    type Value = StaticValue;
    const EMPTY: Self = StaticSet::EMPTY;
    const CARRYING: Self = StaticSet::FAULT_EFFECT;
    const VALUES: &'static [StaticValue] = &StaticValue::ALL;
    const HELPING: &'static [StaticValue] = &[
        StaticValue::S1,
        StaticValue::S0,
        StaticValue::D,
        StaticValue::Db,
    ];
    #[inline]
    fn index(v: StaticValue) -> u8 {
        v.index()
    }
    #[inline]
    fn bits(self) -> u8 {
        StaticSet::bits(self)
    }
    #[inline]
    fn from_bits(bits: u8) -> Self {
        StaticSet::from_bits(bits)
    }
}

/// A set algebra bound to one target fault: gate implication over its
/// value sets, and the conversion its fault site applies.
pub trait SetAlgebra {
    /// The per-net value set.
    type Set: ValueSet;
    /// Whether flip-flops couple two time frames, each through
    /// [`SetAlgebra::couple`]. Without coupling a flip-flop output is a
    /// source of the frame.
    const COUPLED: bool;

    /// Forward image of a gate over its input sets.
    fn eval(&self, kind: GateKind, ins: &[Self::Set]) -> Self::Set;

    /// Backward narrowing: cuts `out` to what the inputs produce (`out ∩
    /// eval(ins)`), and each of `ins` to the values some completion of the
    /// other inputs maps into `out`.
    fn narrow(&self, kind: GateKind, out: &mut Self::Set, ins: &mut [Self::Set]) -> bool;

    /// The fault site whose edges convert, if any.
    fn site(&self) -> Option<FaultSite>;

    /// The fault-site conversion of a set: what the faulty edge shows
    /// when its stem holds one of `s`'s values.
    fn convert(&self, s: Self::Set) -> Self::Set;

    /// Narrows a flip-flop's `(Q, D)` set pair against each other
    /// (coupled algebras only).
    fn couple(&self, q: Self::Set, d: Self::Set) -> (Self::Set, Self::Set) {
        (q, d)
    }

    /// Whether the edge `stem → (sink, pin)` carries the conversion.
    fn converts(&self, stem: NodeId, sink: NodeId, pin: u8) -> bool {
        self.site().is_some_and(|site| {
            site.stem == stem && site.branch.is_none_or(|branch| branch == (sink, pin))
        })
    }

    /// The set the edge `stem → (sink, pin)` shows when `stem` holds `s`.
    fn edge_view(&self, stem: NodeId, sink: NodeId, pin: u8, s: Self::Set) -> Self::Set {
        if self.converts(stem, sink, pin) {
            self.convert(s)
        } else {
            s
        }
    }

    /// The set net `node` itself shows (to a primary output) when it
    /// holds `s`: converted iff the fault sits on its stem.
    fn stem_view(&self, node: NodeId, s: Self::Set) -> Self::Set {
        match self.site() {
            Some(site) if site.branch.is_none() && site.stem == node => self.convert(s),
            _ => s,
        }
    }

    /// Inverse of [`SetAlgebra::convert`]: the values of `pre` whose
    /// conversion lies in `post`.
    fn unconvert_within(&self, post: Self::Set, pre: Self::Set) -> Self::Set {
        let mut keep = Self::Set::EMPTY;
        for v in pre.iter() {
            let seen = self.convert(Self::Set::singleton(v));
            if !seen.intersect(post).is_empty() {
                keep = keep.union(Self::Set::singleton(v));
            }
        }
        keep
    }
}

/// The end of a level's list in [`SetNet`]'s agenda.
const END: u32 = u32::MAX;

/// The implication network for one target fault.
///
/// Holds one set per net (pre-conversion at the fault stem), records every
/// narrowing on an undo trail, and propagates implications to a fixpoint
/// through gates, the fault-site conversion and (in a coupled algebra)
/// the flip-flops. Its agenda runs the queued constraint of lowest level
/// first (a gate's combinational level, 0 for a flip-flop coupling); the
/// wake lists, levels and flip-flop indices come from the circuit's
/// [`ImplicationTable`].
#[derive(Debug)]
pub struct SetNet<'c, A: SetAlgebra> {
    circuit: &'c Circuit,
    testability: &'c Testability,
    table: &'c ImplicationTable,
    algebra: A,
    sets: Vec<A::Set>,
    trail: Vec<(NodeId, A::Set)>,
    /// The agenda of constraints to imply, by number (gate `g` is
    /// `g.index()`, the coupling of flip-flop `i` is `num_nodes + i`):
    /// `head[l]` starts level `l`'s list, linked through `next`, and no
    /// level below `lowest` holds one.
    head: Vec<u32>,
    next: Vec<u32>,
    lowest: usize,
    /// Set iff the constraint is on the agenda, or runs and settles in
    /// one pass.
    queued: Vec<bool>,
    /// Whether gate `g` reads the fault site through a converting edge;
    /// every other gate reads its pins' sets as they are.
    converting: Vec<bool>,
    /// Input sets of the gate being implied, reused across gates.
    ins: Vec<A::Set>,
    conflict: bool,
}

impl<'c, A: SetAlgebra> SetNet<'c, A> {
    /// Builds the network over the initial domains `sets` (one per node)
    /// and queues every constraint once.
    pub fn new(circuit: &'c Circuit, algebra: A, sets: Vec<A::Set>) -> Self {
        let n = circuit.num_nodes();
        assert_eq!(sets.len(), n, "one initial set per node");
        let mut converting = vec![false; n];
        if let Some(site) = algebra.site() {
            for &(sink, pin) in circuit.node(site.stem).fanout() {
                converting[sink.index()] |= algebra.converts(site.stem, sink, pin);
            }
        }
        let levels = circuit.max_level() as usize + 1;
        let mut net = SetNet {
            circuit,
            testability: circuit.testability(),
            table: circuit.implication_table(),
            algebra,
            sets,
            trail: Vec::new(),
            head: vec![END; levels],
            next: vec![END; n + circuit.num_dffs()],
            lowest: levels,
            queued: vec![false; n + circuit.num_dffs()],
            converting,
            ins: Vec::new(),
            conflict: false,
        };
        for &g in circuit.topo_order() {
            net.enqueue(g.index());
        }
        if A::COUPLED {
            for i in 0..circuit.num_dffs() {
                net.enqueue(n + i);
            }
        }
        net
    }

    /// The circuit.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The algebra in force (with its target fault).
    pub fn algebra(&self) -> &A {
        &self.algebra
    }

    /// Current (pre-conversion) set of a net.
    pub fn set(&self, id: NodeId) -> A::Set {
        self.sets[id.index()]
    }

    /// Every net's current set, by node index.
    pub fn sets(&self) -> &[A::Set] {
        &self.sets
    }

    /// The index of flip-flop `ff` in [`Circuit::dffs`].
    pub fn dff_index(&self, ff: NodeId) -> usize {
        self.table.dff_index(ff)
    }

    /// The set a sink gate sees on one of its input pins.
    pub fn edge_set(&self, sink: NodeId, pin: usize) -> A::Set {
        let stem = self.circuit.node(sink).fanin()[pin];
        self.algebra
            .edge_view(stem, sink, pin as u8, self.sets[stem.index()])
    }

    /// Narrows a net's set; records the old value on the trail and queues
    /// the constraints it touches. Returns `false` (and flags a conflict)
    /// if the new set is empty.
    pub fn assign(&mut self, id: NodeId, new: A::Set) -> bool {
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

    /// Queues every constraint adjacent to a changed net: the net's wake
    /// list, its gates followed (in a coupled algebra) by its flip-flop
    /// couplings.
    fn touch(&mut self, id: NodeId) {
        let table = self.table;
        for &c in table.wakes(id, A::COUPLED) {
            self.enqueue(c as usize);
        }
    }

    fn enqueue(&mut self, c: usize) {
        if !self.queued[c] {
            self.queued[c] = true;
            let level = self.table.level(c);
            self.next[c] = self.head[level];
            self.head[level] = c as u32;
            self.lowest = self.lowest.min(level);
        }
    }

    /// Takes a queued constraint of the lowest level off the agenda.
    fn pop(&mut self) -> Option<usize> {
        while let Some(&c) = self.head.get(self.lowest) {
            if c != END {
                self.head[self.lowest] = self.next[c as usize];
                return Some(c as usize);
            }
            self.lowest += 1;
        }
        None
    }

    /// Number of trail entries — pass to [`SetNet::rollback`].
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
        while let Some(c) = self.pop() {
            self.queued[c] = false;
        }
    }

    /// Runs implications to a fixpoint; returns `false` on a conflict.
    ///
    /// The queued constraint of lowest level runs first, so a gate
    /// usually runs after the narrowings of its fanin cone have settled.
    /// A constraint whose one pass is already its own fixpoint keeps its
    /// queued flag while it runs, so its own narrowings do not wake it
    /// again. A gate's narrowing is exact per pin (a pin keeps exactly the
    /// values some completion of the other pins maps into the output set),
    /// and the fault-site conversion is a function of the stem's values,
    /// so when its pins read distinct nets a second pass finds every
    /// narrowed set supported. A flip-flop coupling is a binary constraint
    /// between its Q and D nets and settles likewise unless D is Q itself.
    /// A gate that reads one net on several pins narrows each pin against
    /// the other's old set, and may narrow again. The fixpoint of these
    /// monotone narrowings is unique, so neither the order nor skipping
    /// those passes changes a set or a conflict.
    pub fn propagate(&mut self) -> bool {
        while !self.conflict {
            let Some(c) = self.pop() else {
                break;
            };
            let gate = c < self.sets.len();
            let settles = self.table.settles(c);
            self.queued[c] = settles;
            if gate {
                self.imply_gate(NodeId(c as u32));
            } else {
                self.imply_dff(c - self.sets.len());
            }
            if settles {
                self.queued[c] = false;
            }
        }
        !self.conflict
    }

    /// One pass of gate `g`'s constraint: one [`SetAlgebra::narrow`] cuts
    /// its output to what its pins produce and each pin to what the output
    /// allows. Returns `false` on a conflict.
    ///
    /// Only a gate that reads the fault site through a converting edge
    /// maps its pins through the conversion; every other gate reads its
    /// pins' sets and assigns them back as they are. A narrowing that
    /// changes nothing assigns nothing.
    pub fn imply_gate(&mut self, g: NodeId) -> bool {
        let node = self.circuit.node(g);
        let fanin = node.fanin();
        let converting = self.converting[g.index()];
        let mut ins = std::mem::take(&mut self.ins);
        ins.clear();
        if converting {
            ins.extend(fanin.iter().enumerate().map(|(p, &stem)| {
                self.algebra
                    .edge_view(stem, g, p as u8, self.sets[stem.index()])
            }));
        } else {
            ins.extend(fanin.iter().map(|&stem| self.sets[stem.index()]));
        }
        let mut out = self.sets[g.index()];
        if self.algebra.narrow(node.kind(), &mut out, &mut ins) && self.assign(g, out) {
            for (p, &stem) in fanin.iter().enumerate() {
                // `assign` meets the current set, so an unconverted pin
                // needs no intersection here.
                let pre = if converting && self.algebra.converts(stem, g, p as u8) {
                    self.algebra
                        .unconvert_within(ins[p], self.sets[stem.index()])
                } else {
                    ins[p]
                };
                if !self.assign(stem, pre) {
                    break;
                }
            }
        }
        self.ins = ins;
        !self.conflict
    }

    /// One pass of flip-flop `i`'s coupling. Returns `false` on a
    /// conflict.
    pub fn imply_dff(&mut self, i: usize) -> bool {
        let q = self.circuit.dffs()[i];
        let d = self.circuit.ppo_of_dff(q);
        let (q_keep, d_keep) = self
            .algebra
            .couple(self.sets[q.index()], self.sets[d.index()]);
        if self.assign(q, q_keep) {
            self.assign(d, d_keep);
        }
        !self.conflict
    }

    /// Maps an edge-view (post-conversion) requirement on `(sink, pin)`
    /// back to the stem's pre-conversion domain.
    fn pre_of(&self, sink: NodeId, pin: usize, edge: A::Set) -> A::Set {
        let stem = self.circuit.node(sink).fanin()[pin];
        let stem_set = self.sets[stem.index()];
        if self.algebra.converts(stem, sink, pin as u8) {
            self.algebra.unconvert_within(edge, stem_set)
        } else {
            edge.intersect(stem_set)
        }
    }

    /// SCOAP priority of an input edge: the cheaper controllability of
    /// its stem.
    fn edge_cost(&self, sink: NodeId, pin: usize) -> u32 {
        let stem = self.circuit.node(sink).fanin()[pin].index();
        self.testability.cc0[stem].min(self.testability.cc1[stem])
    }

    /// The D-frontier objective: among the gates whose output may but
    /// need not carry the fault effect and that read a carrying input,
    /// the one closest to an output (lowest SCOAP observability; the
    /// first in topological order on a tie), with its carrying values.
    pub fn d_frontier(&self) -> Option<(NodeId, A::Set)> {
        let mut best: Option<(u32, NodeId, A::Set)> = None;
        for &g in self.circuit.topo_order() {
            let out = self.sets[g.index()];
            if out.must_carry() || !out.may_carry() {
                continue;
            }
            let arity = self.circuit.node(g).fanin().len();
            if !(0..arity).any(|p| self.edge_set(g, p).must_carry()) {
                continue;
            }
            let desired = out.intersect(A::Set::CARRYING);
            if desired.is_empty() {
                continue;
            }
            let cost = self.testability.co[g.index()];
            if best.as_ref().is_none_or(|&(c, _, _)| cost < c) {
                best = Some((cost, g, desired));
            }
        }
        best.map(|(_, g, desired)| (g, desired))
    }

    /// Maps an objective `(node, desired ⊆ set(node))` back through the
    /// gates to a decision.
    ///
    /// At a gate, the inputs the desired output requires are followed,
    /// the hardest to control first (the FAN heuristic); if none is
    /// forced, the easiest undetermined input gets a value that keeps the
    /// desired output producible. At a primary input or flip-flop,
    /// `leaf(node, desired)` either ends the walk with its decision
    /// (`Break`) or redirects it to another objective (`Continue`).
    ///
    /// With `leaf` a function of its arguments, the walk is a function of
    /// its `(node, desired)` state: once a state repeats, the walk cycles
    /// until its iteration limit and returns `None`. Brent's cycle check
    /// returns that `None` within about two cycle lengths: the state at
    /// each power-of-two step is kept, and the walk stops at its first
    /// repeat.
    pub fn backtrace(
        &self,
        mut node: NodeId,
        mut desired: A::Set,
        buffers: &mut GateBuffers<A::Set>,
        mut leaf: impl FnMut(NodeId, A::Set) -> ControlFlow<Option<Choice<A::Set>>, (NodeId, A::Set)>,
    ) -> Option<Choice<A::Set>> {
        let GateBuffers { orig, narrowed } = buffers;
        let limit = 4 * self.circuit.num_nodes() + 16;
        let mut kept = (node, desired);
        for step in 0..limit {
            if step > 0 {
                if (node, desired) == kept {
                    return None;
                }
                if step.is_power_of_two() {
                    kept = (node, desired);
                }
            }
            desired = desired.intersect(self.sets[node.index()]);
            if desired.is_empty() {
                return None;
            }
            let gate = self.circuit.node(node);
            let kind = gate.kind();
            if matches!(kind, GateKind::Input | GateKind::Dff) {
                match leaf(node, desired) {
                    ControlFlow::Break(choice) => return choice,
                    ControlFlow::Continue(next) => (node, desired) = next,
                }
                continue;
            }
            let arity = gate.fanin().len();
            orig.clear();
            orig.extend((0..arity).map(|p| self.edge_set(node, p)));
            narrowed.clear();
            narrowed.extend_from_slice(orig);
            let mut out = desired;
            self.algebra.narrow(kind, &mut out, narrowed);
            // Required inputs: those the desired output actually
            // constrains. Pursue the hardest one.
            let required = (0..arity)
                .filter(|&p| narrowed[p] != orig[p] && !narrowed[p].is_empty())
                .max_by_key(|&p| self.edge_cost(node, p));
            if let Some(p) = required {
                let stem = gate.fanin()[p];
                let pre = self.pre_of(node, p, narrowed[p]);
                if !pre.is_empty() && pre != self.sets[stem.index()] {
                    (node, desired) = (stem, pre);
                    continue;
                }
            }
            // Disjunctive case: no single input is forced. Pick the
            // easiest-to-control undetermined input and choose a value for
            // it that keeps the desired output possible.
            let p = (0..arity)
                .filter(|&p| orig[p].len() > 1)
                .min_by_key(|&p| self.edge_cost(node, p))?;
            // `narrowed` is free again: it becomes the pinned copy.
            let chosen = self.choose_helping_value(kind, orig, narrowed, p, desired)?;
            let pre = self.pre_of(node, p, A::Set::singleton(chosen));
            if pre.is_empty() {
                return None;
            }
            (node, desired) = (gate.fanin()[p], pre);
        }
        None
    }

    /// Picks a value for input `p` that keeps `desired` producible, in
    /// the algebra's [`ValueSet::HELPING`] order: the first that forces
    /// the objective, else the first that allows it. `pinned` is scratch
    /// space for `orig` with input `p` pinned.
    fn choose_helping_value(
        &self,
        kind: GateKind,
        orig: &[A::Set],
        pinned: &mut Vec<A::Set>,
        p: usize,
        desired: A::Set,
    ) -> Option<<A::Set as ValueSet>::Value> {
        pinned.clear();
        pinned.extend_from_slice(orig);
        let mut fallback = None;
        for &v in A::Set::HELPING {
            if !orig[p].contains(v) {
                continue;
            }
            pinned[p] = A::Set::singleton(v);
            let image = self.algebra.eval(kind, pinned);
            if image.intersect(desired).is_empty() {
                continue;
            }
            if image.intersect(desired) == image {
                return Some(v); // forces the objective
            }
            if fallback.is_none() {
                fallback = Some(v);
            }
        }
        fallback
    }
}

/// A decision: a variable and its alternative restrictions, tried back
/// to front.
pub type Choice<S> = (NodeId, Vec<S>);

/// A gate's edge sets before and after narrowing, reused by
/// [`SetNet::backtrace`].
#[derive(Debug)]
pub struct GateBuffers<S> {
    orig: Vec<S>,
    narrowed: Vec<S>,
}

impl<S> Default for GateBuffers<S> {
    fn default() -> Self {
        GateBuffers {
            orig: Vec::new(),
            narrowed: Vec::new(),
        }
    }
}

/// One entry of the decision stack.
#[derive(Debug)]
pub struct Decision<S> {
    /// The decided variable.
    pub node: NodeId,
    /// The restriction currently applied.
    pub applied: S,
    /// Remaining alternative restrictions, tried back to front.
    alts: Vec<S>,
    trail_mark: usize,
}

/// The domain `base` of a decision variable intersected with every
/// restriction the decision stack applies to it.
pub fn leaf_set<S: ValueSet>(node: NodeId, base: S, stack: &[Decision<S>]) -> S {
    stack
        .iter()
        .filter(|d| d.node == node)
        .fold(base, |s, d| s.intersect(d.applied))
}

/// The singletons of `leaf` as decision alternatives (tried back to
/// front): the values outside `preferred` first, so that the preferred
/// ones are tried first.
pub fn preferred_last<S: ValueSet>(leaf: S, preferred: S) -> Vec<S> {
    let mut ordered: Vec<S> = leaf
        .iter()
        .filter(|&v| !preferred.contains(v))
        .map(S::singleton)
        .collect();
    ordered.extend(
        leaf.iter()
            .filter(|&v| preferred.contains(v))
            .map(S::singleton),
    );
    ordered
}

/// What the engine's step makes of a consistent network.
#[derive(Debug)]
pub enum Step<S, T> {
    /// The goal holds: the search ends with this result.
    Found(T),
    /// Decide this variable next; `None` when the goal is out of reach or
    /// no variable is left, which backtracks.
    Branch(Option<Choice<S>>),
}

/// How a branch-and-bound search ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<T> {
    /// The engine's step found its goal.
    Found(T),
    /// The decision tree is exhausted: no solution under the initial
    /// constraints.
    Exhausted,
    /// The backtrack limit was hit first.
    Aborted,
}

/// The complete branch-and-bound search over `net`.
///
/// After every decision the network is propagated to its fixpoint. On a
/// consistent network, `step(net, stack, backtracks)` either ends the
/// search or names the next decision, whose last alternative is applied
/// first. A conflict, or a step without a decision, backtracks: more than
/// `backtrack_limit` backtracks abort, and otherwise the deepest decision
/// with an alternative left is rolled back and retried with it.
pub fn branch_and_bound<A: SetAlgebra, T>(
    net: &mut SetNet<'_, A>,
    backtrack_limit: u32,
    mut step: impl FnMut(&SetNet<'_, A>, &[Decision<A::Set>], u32) -> Step<A::Set, T>,
) -> Outcome<T> {
    let mut stack: Vec<Decision<A::Set>> = Vec::new();
    let mut backtracks: u32 = 0;
    loop {
        if net.propagate() {
            match step(net, &stack, backtracks) {
                Step::Found(t) => return Outcome::Found(t),
                Step::Branch(Some((node, mut alts))) => {
                    let trail_mark = net.checkpoint();
                    let applied = alts.pop().expect("non-empty alternatives");
                    net.assign(node, applied);
                    stack.push(Decision {
                        node,
                        applied,
                        alts,
                        trail_mark,
                    });
                    continue;
                }
                Step::Branch(None) => {}
            }
        }
        backtracks += 1;
        if backtracks > backtrack_limit {
            return Outcome::Aborted;
        }
        loop {
            let Some(mut d) = stack.pop() else {
                return Outcome::Exhausted;
            };
            net.rollback(d.trail_mark);
            if let Some(alt) = d.alts.pop() {
                net.assign(d.node, alt);
                d.applied = alt;
                stack.push(d);
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static5::{eval_gate_sets, narrow_inputs};
    use gdf_netlist::CircuitBuilder;

    /// The fault-free static D-algebra.
    #[derive(Debug)]
    struct FaultFree;

    impl SetAlgebra for FaultFree {
        type Set = StaticSet;
        const COUPLED: bool = false;

        fn eval(&self, kind: GateKind, ins: &[StaticSet]) -> StaticSet {
            eval_gate_sets(kind, ins)
        }

        fn narrow(&self, kind: GateKind, out: &mut StaticSet, ins: &mut [StaticSet]) -> bool {
            narrow_inputs(kind, out, ins)
        }

        fn site(&self) -> Option<FaultSite> {
            None
        }

        fn convert(&self, s: StaticSet) -> StaticSet {
            s
        }
    }

    #[test]
    fn backtrace_stops_at_a_repeated_state() {
        // y = AND(a, b), objective y = 1: the walk reaches an input, and the
        // leaf callback sends it back to the objective, a cycle of two
        // states. Walking it to the iteration limit (4·3 + 16) would call
        // the callback 14 times.
        let mut b = CircuitBuilder::new("and2");
        b.add_input("a");
        b.add_input("b");
        b.add_gate("y", GateKind::And, &["a", "b"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let y = c.node_by_name("y").unwrap();
        let mut net = SetNet::new(&c, FaultFree, vec![StaticSet::GOOD; c.num_nodes()]);
        assert!(net.propagate());
        let one = StaticSet::singleton(StaticValue::S1);
        let mut calls = 0;
        let choice = net.backtrace(y, one, &mut GateBuffers::default(), |node, desired| {
            calls += 1;
            assert_ne!(node, y, "the walk reaches an input first");
            assert_eq!(desired, one, "the input must be 1");
            ControlFlow::Continue((y, one))
        });
        assert_eq!(choice, None);
        assert!(calls <= 4, "the cycle ran {calls} times");
    }

    #[test]
    fn conflict_partway_through_a_level_leaves_no_flag() {
        // x, y, z = AND(a, ·) on level 1, o = OR(x, y, z) on level 2.
        // With x and y pinned to 1, a = 0 wakes all three gates: one of x
        // and y conflicts while the other (and o) may still be queued.
        let mut b = CircuitBuilder::new("level");
        for name in ["a", "b", "c", "d"] {
            b.add_input(name);
        }
        b.add_gate("x", GateKind::And, &["a", "b"]);
        b.add_gate("y", GateKind::And, &["a", "c"]);
        b.add_gate("z", GateKind::And, &["a", "d"]);
        b.add_gate("o", GateKind::Or, &["x", "y", "z"]);
        b.mark_output("o");
        let c = b.build().unwrap();
        let id = |name| c.node_by_name(name).unwrap();
        let (zero, one) = (
            StaticSet::singleton(StaticValue::S0),
            StaticSet::singleton(StaticValue::S1),
        );
        let fresh = || {
            let mut net = SetNet::new(&c, FaultFree, vec![StaticSet::GOOD; c.num_nodes()]);
            assert!(net.propagate());
            net
        };
        let mut net = fresh();
        let mark = net.checkpoint();
        assert!(net.assign(id("x"), one) && net.assign(id("y"), one));
        assert!(net.assign(id("a"), zero), "the conflict comes in a gate");
        assert!(!net.propagate());
        net.rollback(mark);
        assert!(net.queued.iter().all(|&q| !q), "a flag outlived rollback");
        assert_eq!(net.pop(), None, "rollback drains the agenda");
        // A stale flag would keep x from waking: b = 0 must force it to 0.
        let mut reference = fresh();
        for net in [&mut net, &mut reference] {
            assert!(net.assign(id("b"), zero) && net.propagate());
        }
        assert_eq!(net.set(id("x")), zero);
        assert_eq!(net.sets(), reference.sets());
    }
}
